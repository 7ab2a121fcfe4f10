"""Differential tests: engine v1 and engine v2 must be indistinguishable.

Every scenario below runs twice — once on the reference engine and once on
the activity-scheduled engine — and asserts identical ``outputs``,
``RunStats`` and ``==`` lists of per-round ``RoundEvent``s.  This is the
correctness contract that lets the faster engine be the default.
"""

from __future__ import annotations

import networkx as nx
import pytest
from conftest import record_events

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.clique import CongestedCliqueNetwork
from repro.congest.errors import RoundLimitError
from repro.congest.network import CongestNetwork, run_stages
from repro.congest.primitives import (
    BfsTreeAlgorithm,
    BroadcastAlgorithm,
    ConvergecastAlgorithm,
    broadcast_tokens,
    convergecast_tokens,
)
from repro.core.mds_congest import approx_mds_square
from repro.core.mvc_clique import (
    approx_mvc_square_clique_deterministic,
    approx_mvc_square_clique_randomized,
)
from repro.core.mvc_congest import approx_mvc_square
from repro.core.mwvc_congest import approx_mwvc_square
from repro.graphs.generators import (
    gnp_graph,
    path_graph,
    power_law_graph,
    random_weights,
    star_graph,
)

ENGINES = ("v1", "v2")

#: The graph families the harness sweeps; chosen to stress different
#: activity patterns (hub-dominated, pipeline, dense, heavy-tailed).
FAMILIES = {
    "er": lambda n, seed: gnp_graph(n, 0.2, seed=seed),
    "power-law": lambda n, seed: power_law_graph(n, m=2, seed=seed),
    "star": lambda n, seed: star_graph(n),
    "path": lambda n, seed: path_graph(n),
    "complete": lambda n, seed: nx.complete_graph(n),
}


def family_graph(family: str, n: int, seed: int) -> nx.Graph:
    return FAMILIES[family](n, seed)


def assert_same_result(a, b) -> None:
    assert a.outputs == b.outputs
    assert a.by_id == b.by_id
    assert a.stats == b.stats


def run_on_both(graph: nx.Graph, runner, seed: int = 0, clique: bool = False):
    """``runner(network) -> result`` under each engine; returns both.

    The two engines' round-event lists must be ``==`` as well.
    """
    cls = CongestedCliqueNetwork if clique else CongestNetwork
    results, streams = [], []
    for eng in ENGINES:
        net = cls(graph, seed=seed, engine=eng)
        streams.append(record_events(net))
        results.append(runner(net))
    assert streams[0] == streams[1]
    return results


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bfs_trace_parity(family):
    graph = family_graph(family, 17, seed=2)
    v1, v2 = run_on_both(
        graph, lambda net: net.run(lambda v: BfsTreeAlgorithm(v, 0))
    )
    assert_same_result(v1, v2)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_convergecast_and_broadcast_parity(family):
    graph = family_graph(family, 15, seed=3)
    tokens = {label: [(i, i + 1)] for i, label in enumerate(sorted(graph, key=repr))}

    def gather(net):
        return convergecast_tokens(net, tokens)

    (c1, r1), (c2, r2) = run_on_both(graph, gather, seed=1)
    assert c1 == c2
    assert_same_result(r1, r2)

    def scatter(net):
        return broadcast_tokens(net, [(9, 9), (8, 8), (7, 7)])

    (b1, t1), (b2, t2) = run_on_both(graph, scatter, seed=1)
    assert_same_result(b1, b2)
    assert_same_result(t1, t2)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", (0, 5))
def test_mvc_congest_parity(family, seed):
    graph = family_graph(family, 14, seed=seed)
    v1, v2 = run_on_both(
        graph, lambda net: approx_mvc_square(graph, 0.5, network=net), seed
    )
    assert v1.cover == v2.cover
    assert v1.stats == v2.stats
    assert v1.detail == v2.detail


@pytest.mark.parametrize("family", ("er", "star", "path"))
def test_mwvc_congest_parity(family):
    graph = random_weights(family_graph(family, 13, seed=7), low=1, high=9, seed=7)
    v1, v2 = run_on_both(
        graph, lambda net: approx_mwvc_square(graph, 0.5, network=net), 7
    )
    assert v1.cover == v2.cover
    assert v1.stats == v2.stats


@pytest.mark.parametrize("family", ("er", "power-law", "star"))
def test_mds_congest_parity(family):
    graph = family_graph(family, 11, seed=4)
    v1, v2 = run_on_both(
        graph, lambda net: approx_mds_square(graph, network=net), 4
    )
    assert v1.cover == v2.cover
    assert v1.stats == v2.stats
    assert v1.detail == v2.detail


@pytest.mark.parametrize("model", ("det", "rand"))
def test_mvc_clique_parity(model):
    graph = gnp_graph(12, 0.25, seed=9)
    solver = (
        approx_mvc_square_clique_deterministic
        if model == "det"
        else approx_mvc_square_clique_randomized
    )
    v1, v2 = run_on_both(
        graph, lambda net: solver(graph, 0.5, network=net), 9, clique=True
    )
    assert v1.cover == v2.cover
    assert v1.stats == v2.stats


class _CountdownStage(NodeAlgorithm):
    """Ping neighbors for ``k`` rounds, then record the traffic seen."""

    K = 3

    def __init__(self, node) -> None:
        super().__init__(node)
        self.remaining = self.K
        self.heard = 0

    def on_start(self):
        return self.broadcast((self.node.id,))

    def on_round(self, inbox):
        self.heard += len(inbox)
        self.remaining -= 1
        if self.remaining == 0:
            self.node.state["heard"] = self.heard
            self.finish(self.heard)
            return None
        return self.broadcast((self.node.id, self.remaining))


class _ReadbackStage(NodeAlgorithm):
    """Second pipeline stage: reads state written by the first."""

    def on_start(self):
        self.finish(self.node.state.get("heard"))
        return None

    def on_round(self, inbox):  # pragma: no cover - finishes in on_start
        return None


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_run_stages_pipeline_parity(family):
    graph = family_graph(family, 12, seed=6)

    def pipeline(net):
        return run_stages(net, [_CountdownStage, _ReadbackStage])

    (c1, s1), (c2, s2) = run_on_both(graph, pipeline, seed=6)
    assert_same_result(c1, c2)
    assert len(s1) == len(s2)
    for a, b in zip(s1, s2):
        assert_same_result(a, b)


class _Forever(NodeAlgorithm):
    def on_round(self, inbox):
        return None


class _SleepForever(NodeAlgorithm):
    """Declares itself purely reactive, then never receives anything."""

    def on_round(self, inbox):  # pragma: no cover - never woken on v2
        return None

    def wants_wake(self):
        return False


@pytest.mark.parametrize("algorithm", (_Forever, _SleepForever))
def test_round_limit_parity(algorithm):
    graph = path_graph(4)
    errors = []
    for eng in ENGINES:
        net = CongestNetwork(graph, engine=eng)
        with pytest.raises(RoundLimitError) as excinfo:
            net.run(algorithm, max_rounds=17)
        errors.append(str(excinfo.value))
    assert errors[0] == errors[1]


class _SurchargeNetwork(CongestNetwork):
    """Network variant with a custom metering rule (one extra word/message)."""

    def _meter(self, sender, target, payload, stats):
        super()._meter(sender, target, payload, stats)
        stats.total_words += 1


def test_custom_meter_override_honored_by_both_engines():
    graph = star_graph(12)
    results, streams = [], []
    for eng in ENGINES:
        net = _SurchargeNetwork(graph, seed=3, engine=eng)
        streams.append(record_events(net))
        results.append(net.run(lambda v: BfsTreeAlgorithm(v, 0)))
    assert_same_result(*results)
    assert streams[0] == streams[1]
    # The surcharge actually applied: one extra word per message.
    plain = CongestNetwork(graph, seed=3).run(
        lambda v: BfsTreeAlgorithm(v, 0)
    ).stats
    surcharged = results[0].stats
    assert surcharged.total_words == plain.total_words + plain.messages


def test_engine_env_override(monkeypatch):
    graph = path_graph(3)
    monkeypatch.setenv("REPRO_ENGINE", "v1")
    assert CongestNetwork(graph).engine_name == "v1"
    # Only the canonical names select an engine; "activity" was an alias.
    monkeypatch.setenv("REPRO_ENGINE", "activity")
    with pytest.raises(ValueError, match="activity"):
        CongestNetwork(graph)
    monkeypatch.delenv("REPRO_ENGINE")
    assert CongestNetwork(graph).engine_name == "v2"
    # An explicit constructor choice beats the environment.
    monkeypatch.setenv("REPRO_ENGINE", "v2")
    assert CongestNetwork(graph, engine="v1").engine_name == "v1"


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        CongestNetwork(path_graph(3), engine="v3")

