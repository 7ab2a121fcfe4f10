"""wants_wake overrides of the solver stages: sleeping must change nothing.

Each converted stage (Phase I status protocol, Lemma 29 estimator, rho
flood, winner propagation, convergecast-OR) is run twice under the
activity engine — once as shipped and once through a forced-awake subclass
whose ``wants_wake`` always returns True, i.e. the pre-override behavior —
and once under the reference engine.  Outputs, stats and round events
must be identical in all three runs: a ``wants_wake`` override may change
*when* a node is invoked, never *what* the run computes.

The convergecast-OR stage is additionally checked to actually *sleep*:
its invocation count under the activity engine must be strictly below the
reference engine's every-node-every-round count on a deep path.
"""

from __future__ import annotations

import networkx as nx
import pytest
from conftest import record_events

from repro.congest.network import CongestNetwork
from repro.congest.primitives import BfsTreeAlgorithm
from repro.core.estimation import EstimationStage
from repro.core.mds_congest import (
    GlobalOrAlgorithm,
    RhoFloodAlgorithm,
    WinnerAlgorithm,
)
from repro.core.mvc_congest import PhaseOneAlgorithm
from repro.core.mwvc_congest import WeightedPhaseOneAlgorithm
from repro.graphs.generators import (
    gnp_graph,
    path_graph,
    power_law_graph,
    star_graph,
)

FAMILIES = {
    "er": lambda: gnp_graph(13, 0.25, seed=5),
    "star": lambda: star_graph(11),
    "path": lambda: path_graph(10),
    "power-law": lambda: power_law_graph(12, m=2, seed=3),
    "single": lambda: nx.path_graph(1),
}


def forced_awake(cls):
    """Subclass of ``cls`` with the pre-override always-wake behavior."""

    class ForcedAwake(cls):
        def wants_wake(self):
            return True

    ForcedAwake.__name__ = f"ForcedAwake{cls.__name__}"
    return ForcedAwake


def assert_same(a, b, label):
    """``a`` and ``b`` are ``(result, round events)`` pairs."""
    (a, a_events), (b, b_events) = a, b
    assert a.outputs == b.outputs, label
    assert a.by_id == b.by_id, label
    assert a.stats == b.stats, label
    assert a_events == b_events, label


STAGES = {
    "phase1": (
        lambda v: PhaseOneAlgorithm(v, threshold=2, iterations=3),
        PhaseOneAlgorithm,
    ),
    "phase1-zero-iter": (
        lambda v: PhaseOneAlgorithm(v, threshold=2, iterations=0),
        PhaseOneAlgorithm,
    ),
    "weighted-phase1": (
        lambda v: WeightedPhaseOneAlgorithm(v, epsilon=0.5, iterations=3),
        WeightedPhaseOneAlgorithm,
    ),
    "estimation": (lambda v: EstimationStage(v, samples=5), EstimationStage),
    "rho-flood": (RhoFloodAlgorithm, RhoFloodAlgorithm),
    "winner": (WinnerAlgorithm, WinnerAlgorithm),
}


def _run_stage(graph, stage_key, factory, engine):
    net = CongestNetwork(graph, seed=7, engine=engine)
    net.reset_state()
    if stage_key == "weighted-phase1":
        inputs = {label: 1 + (i % 4) for i, label in enumerate(sorted(graph))}
    else:
        inputs = None
    for node_id in net.ids():
        net.node_state[node_id]["in_U"] = node_id % 3 != 0
        net.node_state[node_id]["is_candidate"] = node_id % 2 == 0
        net.node_state[node_id]["density_estimate"] = float(node_id % 5)
        net.node_state[node_id]["vote_estimate"] = float(node_id % 3)
    events = record_events(net)
    return net.run(factory, inputs=inputs), events


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("stage_key", sorted(STAGES))
def test_sleeping_changes_nothing(family, stage_key):
    graph = FAMILIES[family]()
    base_factory, base_cls = STAGES[stage_key]

    as_shipped = _run_stage(graph, stage_key, base_factory, "v2")
    reference = _run_stage(graph, stage_key, base_factory, "v1")
    assert_same(as_shipped, reference, (family, stage_key, "v1 vs v2"))

    awake_cls = forced_awake(base_cls)

    def awake_factory(view):
        alg = base_factory(view)
        alg.__class__ = awake_cls
        return alg

    always_awake = _run_stage(graph, stage_key, awake_factory, "v2")
    assert_same(
        as_shipped, always_awake, (family, stage_key, "override vs forced")
    )


@pytest.mark.parametrize("family", ("er", "star", "path"))
def test_global_or_parity_with_bfs_state(family):
    graph = FAMILIES[family]()

    def run(engine, factory):
        net = CongestNetwork(graph, seed=3, engine=engine)
        net.reset_state()
        net.run(lambda v: BfsTreeAlgorithm(v, net.n - 1))
        for node_id in net.ids():
            net.node_state[node_id]["in_U"] = node_id == 0
        events = record_events(net)
        return net.run(factory), events

    base = lambda v: GlobalOrAlgorithm(v, "in_U")
    v2 = run("v2", base)
    v1 = run("v1", base)
    assert_same(v2, v1, (family, "global-or"))
    assert all(v2[0].outputs.values())  # node 0 is uncovered -> OR is true

    awake = forced_awake(GlobalOrAlgorithm)
    forced = run("v2", lambda v: awake(v, "in_U"))
    assert_same(v2, forced, (family, "global-or forced"))


def test_global_or_actually_sleeps_on_deep_path():
    """The reactive override must reduce invocations, not just exist."""
    graph = path_graph(40)
    counts = {}

    for engine in ("v1", "v2"):
        invocations = [0]

        class Counting(GlobalOrAlgorithm):
            def on_round(self, inbox):
                invocations[0] += 1
                return super().on_round(inbox)

        net = CongestNetwork(graph, seed=1, engine=engine)
        net.reset_state()
        net.run(lambda v: BfsTreeAlgorithm(v, net.n - 1))
        for node_id in net.ids():
            net.node_state[node_id]["in_U"] = node_id == 0
        result = net.run(lambda v: Counting(v, "in_U"))
        counts[engine] = invocations[0]
        assert all(result.outputs.values())

    # v1 wakes every live node every round; the reactive stage only runs
    # the moving frontier, so v2 must do strictly less work (on a path of
    # depth ~n, a lot less).
    assert counts["v2"] < counts["v1"]
    assert counts["v2"] <= counts["v1"] / 2


def test_phase_one_invocation_schedule_unchanged():
    """Phase I relies on guaranteed traffic: no round may be skipped.

    The override only suppresses redundant self-wakes; with traffic
    arriving every round, v2 must invoke exactly as often as v1.
    """
    graph = gnp_graph(12, 0.3, seed=9)
    counts = {}
    for engine in ("v1", "v2"):
        invocations = [0]

        class Counting(PhaseOneAlgorithm):
            def on_round(self, inbox):
                invocations[0] += 1
                return super().on_round(inbox)

        net = CongestNetwork(graph, seed=2, engine=engine)
        net.reset_state()
        net.run(lambda v: Counting(v, threshold=2, iterations=3))
        counts[engine] = invocations[0]
    assert counts["v1"] == counts["v2"]
