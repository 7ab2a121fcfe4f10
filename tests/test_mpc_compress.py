"""Round-compressed MPC compilation: parity, ledger shape and fallback.

The contract under test (see ``DESIGN.md`` "Round compression"):
``MPCCongestNetwork(compress=k)`` may batch up to ``k`` CONGEST rounds
behind one prefetch shuffle, and that changes **only** the MPC ledger —
outputs, ``RunStats``, traces and per-round events stay word-for-word
identical to engine v2 at every ``k``.  The window length adapts to the
machines' O(S) window budgets and falls back to the classical ``k = 1``
path (never raises) when the k-hop frontier does not fit.
"""

from __future__ import annotations

import pytest
from conftest import record_events

from repro.config import RunConfig
from repro.congest.network import CongestNetwork
from repro.congest.primitives import BfsTreeAlgorithm
from repro.core.estimation import EstimationStage
from repro.core.mds_congest import GlobalOrAlgorithm, WinnerAlgorithm
from repro.core.mvc_congest import PhaseOneAlgorithm, approx_mvc_square
from repro.graphs.generators import gnp_graph, path_graph
from repro.graphs.power import square
from repro.graphs.validation import assert_vertex_cover
from repro.mpc.compile_congest import (
    MPCCongestNetwork,
    run_stage_parity,
    solve_mds_mpc,
    solve_mvc_mpc,
)

COMPRESSIONS = (1, 2, 4)

STAGES = [
    lambda v: PhaseOneAlgorithm(v, threshold=2, iterations=4),
    lambda v: BfsTreeAlgorithm(v, v.n - 1),
    lambda v: EstimationStage(v, samples=5),
    WinnerAlgorithm,
    lambda v: GlobalOrAlgorithm(v, "in_U"),
]


def _prepare(net):
    for node_id in net.ids():
        net.node_state[node_id]["in_U"] = True


def _stage_results(net, stages, prepare=None):
    """Each stage's result, and the round events of all of them."""
    net.reset_state()
    if prepare is not None:
        prepare(net)
    events = record_events(net)
    return [net.run(stage) for stage in stages], events


class TestCompressedStageParity:
    """Every solver stage, differentially against engine v2, at every k."""

    @pytest.mark.parametrize("compress", COMPRESSIONS)
    def test_solver_stages_identical_to_engine_v2(self, compress):
        graph = gnp_graph(18, 0.18, seed=5)
        ref = _stage_results(
            CongestNetwork(graph, seed=5, engine="v2"), STAGES, _prepare
        )
        mpc = _stage_results(
            MPCCongestNetwork(graph, alpha=0.9, seed=5, compress=compress),
            STAGES,
            _prepare,
        )
        for expected, got in zip(ref[0], mpc[0]):
            assert got.outputs == expected.outputs
            assert got.by_id == expected.by_id
            assert got.stats == expected.stats
        assert mpc[1] == ref[1]

    @pytest.mark.parametrize("compress", COMPRESSIONS)
    def test_stage_parity_helper_accepts_compress(self, compress):
        graph = gnp_graph(16, 0.2, seed=2)
        report = run_stage_parity(
            graph, [lambda v: PhaseOneAlgorithm(v, threshold=2, iterations=3)],
            RunConfig("mpc", alpha=0.9, compress=compress), seed=2,
        )
        assert report["parity"] is True
        assert report["mpc"]["compress"] == compress

    @pytest.mark.parametrize("compress", (2, 4))
    def test_full_solvers_with_shadow_check(self, compress):
        graph = gnp_graph(16, 0.2, seed=16)
        result, payload = solve_mvc_mpc(
            graph, 0.5, RunConfig("mpc", alpha=0.9, compress=compress),
            seed=16, check_parity=True,
        )
        assert_vertex_cover(square(graph), result.cover)
        assert payload["parity"] is True
        graph = gnp_graph(12, 0.25, seed=4)
        _, payload = solve_mds_mpc(
            graph, RunConfig("mpc", alpha=1.0, compress=compress), seed=4,
            check_parity=True,
        )
        assert payload["parity"] is True

    def test_total_words_identical_across_k(self):
        # The CONGEST word total (the parity-side ledger) must not move
        # with the window length; only the shuffle-side ledger may.
        graph = gnp_graph(16, 0.2, seed=3)
        totals = set()
        for compress in COMPRESSIONS:
            net = MPCCongestNetwork(
                graph, alpha=0.9, seed=3, compress=compress
            )
            result = approx_mvc_square(graph, 0.5, network=net)
            totals.add(result.stats.total_words)
        assert len(totals) == 1


class TestCompressionLedger:
    def test_shuffles_decrease_and_congest_rounds_invariant(self):
        graph = gnp_graph(16, 0.2, seed=5)
        shuffles = []
        for compress in COMPRESSIONS:
            net = MPCCongestNetwork(
                graph, alpha=0.9, seed=5, compress=compress
            )
            result = approx_mvc_square(graph, 0.5, network=net)
            stats = net.runtime.stats
            # congest_rounds tracks the CONGEST ledger exactly, even when
            # the final window of a stage is cut short by termination.
            assert stats.congest_rounds == result.stats.rounds
            assert stats.shuffles == stats.rounds
            shuffles.append(stats.shuffles)
        assert shuffles[0] > shuffles[1] > shuffles[2]
        # k = 1 is the classical compilation: one shuffle per round.
        net_k1 = MPCCongestNetwork(graph, alpha=0.9, seed=5, compress=1)
        result = approx_mvc_square(graph, 0.5, network=net_k1)
        assert net_k1.runtime.stats.shuffles == result.stats.rounds

    def test_single_machine_windows_always_fit(self):
        # In the near-linear debug regime one machine hosts everything:
        # frontiers are empty, every window runs at full length, and the
        # (empty) shuffle count drops to ceil(rounds / k) per stage.
        graph = path_graph(12)
        net = MPCCongestNetwork(graph, alpha=2.0, seed=0, compress=4)
        result = net.run(lambda v: BfsTreeAlgorithm(v, v.n - 1))
        stats = net.runtime.stats
        assert net.num_machines == 1
        assert stats.total_words == 0
        assert stats.congest_rounds == result.stats.rounds
        assert stats.shuffles == -(-result.stats.rounds // 4)

    def test_trace_records_window_lengths(self):
        graph = gnp_graph(16, 0.2, seed=5)
        net = MPCCongestNetwork(graph, alpha=0.9, seed=5, compress=4)
        result = approx_mvc_square(graph, 0.5, network=net)
        assert all(1 <= r.congest_rounds <= 4 for r in net.runtime.trace)
        assert (
            sum(r.congest_rounds for r in net.runtime.trace)
            == result.stats.rounds
        )
        assert any(r.congest_rounds > 1 for r in net.runtime.trace)

    def test_compress_must_be_positive(self):
        with pytest.raises(ValueError, match="compress"):
            MPCCongestNetwork(path_graph(6), alpha=1.0, compress=0)


class TestForcedFallback:
    """Dense graph, tight budget: no k-hop frontier ever fits."""

    def test_falls_back_to_uncompressed_not_raises(self):
        # 19 machines host ~one vertex each of a dense G(20, 0.5); the
        # 1-hop frontier alone (state of nearly the whole graph) exceeds
        # every machine's window budget, so each window degrades to the
        # classical path: exactly one shuffle per CONGEST round, and the
        # run completes instead of raising MemoryBudgetExceeded.
        graph = gnp_graph(20, 0.5, seed=7)
        net = MPCCongestNetwork(graph, alpha=0.92, seed=7, compress=4)
        result = approx_mvc_square(graph, 0.5, network=net)
        stats = net.runtime.stats
        assert stats.shuffles == result.stats.rounds
        assert stats.congest_rounds == result.stats.rounds
        assert all(r.congest_rounds == 1 for r in net.runtime.trace)
        # ... and the fallback still satisfies parity.
        ref = approx_mvc_square(
            graph, 0.5, network=CongestNetwork(graph, seed=7, engine="v2")
        )
        assert result.cover == ref.cover
        assert result.stats == ref.stats
