"""The round-event stream: ``RoundEvent``s on ``network.on_round``.

Contract: one event per round (round 0 included) on every engine, built
only when an observer is subscribed; two runs are round-for-round
identical iff their event lists are ``==`` — ``awake`` (nodes actually
invoked) is the one deliberately engine-dependent field and is left out
of the comparison.  Events are observation only — running with an
observer must not change any result.
"""

from __future__ import annotations

import pytest
from conftest import record_events

from repro.config import RunConfig
from repro.congest.network import CongestNetwork, RoundEvent
from repro.core.mds_congest import GlobalOrAlgorithm
from repro.core.mvc_congest import PhaseOneAlgorithm, approx_mvc_square
from repro.congest.primitives import BfsTreeAlgorithm
from repro.graphs.generators import gnp_graph, path_graph
from repro.metrics import MetricsCollector
from repro.mpc.compile_congest import MPCCongestNetwork, solve_mvc_mpc
from repro.trace import TraceRecorder

ENGINES = ("v1", "v2-dict", "v2")


def _phase_one(view):
    return PhaseOneAlgorithm(view, threshold=2, iterations=3)


class TestEventStream:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_events_mirror_the_trace(self, engine):
        net = CongestNetwork(gnp_graph(16, 0.2, seed=3), seed=3, engine=engine)
        events = record_events(net)
        result = net.run(_phase_one)
        assert [e.round_index for e in events] == list(
            range(result.stats.rounds + 1)
        )
        assert events[-1].alive == 0
        assert sum(e.messages for e in events) == result.stats.messages
        assert sum(e.words for e in events) == result.stats.total_words

    def test_metered_fields_are_engine_independent(self):
        streams = {}
        for engine in ENGINES:
            net = CongestNetwork(
                gnp_graph(16, 0.2, seed=3), seed=3, engine=engine
            )
            streams[engine] = record_events(net)
            net.run(_phase_one)
        assert streams["v1"] == streams["v2"] == streams["v2-dict"]

    def test_awake_shows_activity_scheduling(self):
        # The convergecast-OR genuinely sleeps on v2: only the moving
        # frontier runs, so v2 invokes strictly fewer nodes than v1 even
        # though every metered field matches.
        def stages(net):
            net.reset_state()
            for node_id in net.ids():
                net.node_state[node_id]["in_U"] = node_id == 0
            events = record_events(net)
            net.run(lambda v: BfsTreeAlgorithm(v, net.n - 1))
            net.run(lambda v: GlobalOrAlgorithm(v, "in_U"))
            return events

        v1_events = stages(CongestNetwork(path_graph(24), seed=1, engine="v1"))
        v2_events = stages(CongestNetwork(path_graph(24), seed=1, engine="v2"))
        assert v1_events == v2_events
        assert sum(e.awake for e in v2_events) < sum(
            e.awake for e in v1_events
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_hook_does_not_change_results(self, engine):
        graph = gnp_graph(14, 0.25, seed=5)
        plain = CongestNetwork(graph, seed=5, engine=engine).run(_phase_one)
        hooked = CongestNetwork(
            graph, seed=5, engine=engine, on_round=lambda event: None
        ).run(_phase_one)
        assert plain.outputs == hooked.outputs
        assert plain.stats == hooked.stats

    def test_awake_is_outside_equality(self):
        event = RoundEvent(3, 10, 20, 0, 5, awake=7, stage_label="bfs")
        assert event == RoundEvent(3, 10, 20, 0, 5, awake=9, stage_label="bfs")
        assert event != RoundEvent(3, 10, 20, 0, 4, awake=7, stage_label="bfs")
        assert event != RoundEvent(3, 10, 20, 0, 5, awake=7)


class TestNetworkLevelHook:
    def test_constructor_hook_spans_all_stages(self):
        events: list[RoundEvent] = []
        graph = gnp_graph(14, 0.25, seed=2)
        net = CongestNetwork(graph, seed=2, on_round=events.append)
        result = approx_mvc_square(graph, 0.5, network=net)
        # one event per round of every stage, plus each stage's round 0.
        assert sum(e.messages for e in events) == result.stats.messages
        assert sum(e.words for e in events) == result.stats.total_words
        round_zero_count = sum(1 for e in events if e.round_index == 0)
        assert round_zero_count >= 4  # phase1, bfs, upcast, broadcast

    def test_subscribe_composes_in_order(self):
        seen: list[str] = []
        net = CongestNetwork(
            path_graph(4), on_round=lambda e: seen.append("first")
        )
        net.subscribe(lambda e: seen.append("second"))
        net.subscribe(lambda e: seen.append("third"))
        net.run(lambda v: BfsTreeAlgorithm(v, 0))
        assert seen[:3] == ["first", "second", "third"]
        assert len(seen) % 3 == 0

    def test_assignment_replaces_every_observer(self):
        net = CongestNetwork(path_graph(4))
        early = record_events(net)
        late: list[RoundEvent] = []
        net.on_round = late.append
        net.run(lambda v: BfsTreeAlgorithm(v, 0))
        assert late and not early

    def test_cut_words_per_round(self):
        graph = path_graph(10)
        cut = [(4, 5)]
        events: list[RoundEvent] = []
        net = CongestNetwork(graph, seed=0, cut=cut, on_round=events.append)
        result = net.run(lambda v: BfsTreeAlgorithm(v, 0))
        assert sum(e.cut_words for e in events) == result.stats.cut_words
        assert result.stats.cut_words > 0
        # the BFS frontier crosses the cut edge exactly around one round.
        assert max(e.cut_words for e in events) > 0


class TestOneStream:
    """Every backend and every observer reads the same event list."""

    graph = gnp_graph(24, 0.2, seed=3)

    def _events(self, net):
        events = record_events(net)
        approx_mvc_square(self.graph, 0.5, network=net)
        return events

    def test_algorithm_one_events_equal_on_every_backend(self):
        v1 = self._events(CongestNetwork(self.graph, seed=3, engine="v1"))
        v2 = self._events(CongestNetwork(self.graph, seed=3, engine="v2"))
        assert v1 == v2
        # ... while the one field outside equality does differ.
        assert [e.awake for e in v1] != [e.awake for e in v2]
        for compress in (1, "auto"):
            for workers in (1, 2):
                net = MPCCongestNetwork(
                    self.graph, alpha=0.9, seed=3, compress=compress,
                    workers=workers,
                )
                assert self._events(net) == v2, (compress, workers)

    @pytest.mark.parametrize("backend", ["v1", "v2", "mpc"])
    def test_no_subscriber_builds_no_event(self, monkeypatch, backend):
        built = [0]
        init = RoundEvent.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(RoundEvent, "__init__", counting_init)
        if backend == "mpc":
            make = lambda: MPCCongestNetwork(self.graph, alpha=0.9, seed=3)
        else:
            make = lambda: CongestNetwork(self.graph, seed=3, engine=backend)
        approx_mvc_square(self.graph, 0.5, network=make())
        assert built[0] == 0
        # The counter does see events once something subscribes.
        events = self._events(make())
        assert built[0] == len(events) > 0

    def test_collector_tracer_and_parity_share_the_stream(self):
        config = RunConfig("mpc", alpha=0.9, compress="auto")
        alone = MetricsCollector(label="mvc")
        solve_mvc_mpc(self.graph, 0.5, config, seed=3, collector=alone)
        collector = MetricsCollector(label="mvc")
        tracer = TraceRecorder()
        _, payload = solve_mvc_mpc(
            self.graph, 0.5, config, seed=3, check_parity=True,
            collector=collector, tracer=tracer,
        )
        collected = sum(len(phase["events"]) for phase in collector.phases)
        counters = [
            e for e in tracer.to_json()["traceEvents"]
            if e["ph"] == "C" and e["name"] == "congest.round"
        ]
        assert payload["parity"] is True
        assert collected == len(counters) == payload["rounds_compared"] > 0
        assert collector.deterministic_sha256() == alone.deterministic_sha256()
