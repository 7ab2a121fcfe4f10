"""CONGEST-to-MPC round compilation: parity and budget behavior.

The contract under test: :class:`repro.mpc.compile_congest.MPCCongestNetwork`
executes unmodified ``NodeAlgorithm`` code with outputs, ``RunStats``,
traces and per-round events word-for-word identical to the CONGEST engines
on the same graph and seed — while keeping its own machine-level ledger —
and a too-small memory exponent fails loudly (``MemoryBudgetExceeded``)
but is captured per cell by the sweep runner.
"""

from __future__ import annotations

import pytest

from repro.config import RunConfig
from repro.congest.algorithm import NodeAlgorithm
from repro.congest.network import CongestNetwork
from repro.core.estimation import EstimationStage
from repro.core.mds_congest import GlobalOrAlgorithm, WinnerAlgorithm
from repro.core.mvc_congest import PhaseOneAlgorithm, approx_mvc_square
from repro.core.mds_congest import approx_mds_square
from repro.congest.primitives import BfsTreeAlgorithm
from repro.graphs.generators import build_graph, gnp_graph, path_graph
from repro.graphs.power import square
from repro.graphs.validation import assert_dominating_set, assert_vertex_cover
from repro.mpc.compile_congest import (
    MPCCongestNetwork,
    run_stage_parity,
    solve_mds_mpc,
    solve_mvc_mpc,
    solve_with_parity,
)
from repro.mpc.machine import MemoryBudgetExceeded
from repro.sweep import Cell, GridSpec, run_sweep


def _stage_results(net, stages, prepare=None):
    net.reset_state()
    if prepare is not None:
        prepare(net)
    return [net.run(stage, trace=True) for stage in stages]


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


class TestStageParity:
    @pytest.mark.parametrize("engine", ["v1", "v2"])
    @pytest.mark.parametrize("alpha", [0.85, 1.0])
    def test_solver_stages_identical_to_engines(self, engine, alpha):
        graph = gnp_graph(18, 0.18, seed=5)
        ref = _stage_results(
            CongestNetwork(graph, seed=5, engine=engine), STAGES, _prepare
        )
        mpc = _stage_results(
            MPCCongestNetwork(graph, alpha=alpha, seed=5), STAGES, _prepare
        )
        for expected, got in zip(ref, mpc):
            assert got.outputs == expected.outputs
            assert got.by_id == expected.by_id
            assert got.stats == expected.stats
            assert got.trace == expected.trace

    def test_stage_parity_helper(self):
        graph = gnp_graph(16, 0.2, seed=2)
        report = run_stage_parity(
            graph, [lambda v: PhaseOneAlgorithm(v, threshold=2, iterations=3)],
            RunConfig("mpc", alpha=0.9), seed=2,
        )
        assert report["parity"] is True
        assert report["congest_rounds"] > 0
        assert report["mpc"]["machines"] >= 1

    def test_path_graph_compiles(self):
        graph = path_graph(20)
        report = run_stage_parity(
            graph, [lambda v: BfsTreeAlgorithm(v, v.n - 1)],
            RunConfig("mpc", alpha=0.5), seed=0,
        )
        assert report["parity"] is True


class TestFullSolverParity:
    def test_mvc_end_to_end(self):
        graph = gnp_graph(20, 0.18, seed=9)
        result, payload = solve_mvc_mpc(
            graph, 0.5, RunConfig("mpc", alpha=0.85), seed=9,
            check_parity=True,
        )
        assert_vertex_cover(square(graph), result.cover)
        assert payload["parity"] is True
        assert payload["machines"] > 1
        assert payload["shuffle"]["rounds"] == result.stats.rounds

    def test_mds_end_to_end(self):
        graph = gnp_graph(12, 0.25, seed=4)
        result, payload = solve_mds_mpc(
            graph, RunConfig("mpc", alpha=0.9), seed=4, check_parity=True,
        )
        assert_dominating_set(square(graph), result.cover)
        assert payload["parity"] is True

    def test_solver_accepts_network_argument(self):
        # The drop-in claim: the unmodified solver drivers run on the MPC
        # network through their public network= parameter.
        graph = gnp_graph(16, 0.2, seed=6)
        net = MPCCongestNetwork(graph, alpha=0.9, seed=6)
        result = approx_mvc_square(graph, 0.5, network=net)
        ref = approx_mvc_square(graph, 0.5, seed=6, engine="v2")
        assert result.cover == ref.cover
        assert result.stats == ref.stats
        assert net.runtime.stats.rounds == result.stats.rounds

    def test_solve_with_parity_reports_rounds(self):
        graph = gnp_graph(14, 0.2, seed=3)

        def solver(network):
            return approx_mds_square(graph, network=network, samples=4)

        result, net, report = solve_with_parity(
            solver, graph, RunConfig("mpc", alpha=0.9), seed=3,
        )
        assert report["parity"] is True
        assert report["rounds_compared"] > 0


class TestMachineLedger:
    def test_smaller_alpha_needs_more_machines(self):
        graph = gnp_graph(20, 0.15, seed=1)
        wide = MPCCongestNetwork(graph, alpha=1.0, seed=1)
        narrow = MPCCongestNetwork(graph, alpha=0.75, seed=1)
        assert narrow.num_machines > wide.num_machines
        assert narrow.budget_words < wide.budget_words

    def test_storage_charged_at_construction(self):
        graph = path_graph(10)
        net = MPCCongestNetwork(graph, alpha=1.0, seed=0)
        stored = sum(m.stored_words for m in net.machines)
        # n ids plus one word per directed adjacency entry.
        assert stored == 10 + 2 * graph.number_of_edges()

    def test_local_messages_skip_the_shuffle(self):
        # In the near-linear debug regime (S = n^2) one machine hosts
        # everything, so no message ever crosses machines even though
        # CONGEST metering is unchanged.
        graph = path_graph(6)
        net = MPCCongestNetwork(graph, alpha=2.0, seed=0)
        result = net.run(lambda v: BfsTreeAlgorithm(v, v.n - 1))
        assert net.num_machines == 1
        assert result.stats.total_words > 0
        assert net.runtime.stats.total_words == 0
        assert net.runtime.stats.rounds == result.stats.rounds

    def test_too_small_alpha_raises(self):
        graph = gnp_graph(24, 0.2, seed=2)
        with pytest.raises(MemoryBudgetExceeded):
            MPCCongestNetwork(graph, alpha=0.3, seed=2)


class TestSweepCapture:
    def test_budget_failure_is_a_cell_error_not_a_crash(self):
        grid = GridSpec(
            name="budget-probe",
            cells=(
                Cell(
                    task="mpc-mvc",
                    graph="gnp",
                    n=24,
                    seed=24,
                    eps=0.5,
                    params=(("alpha", 0.3), ("gnp_p", 0.15)),
                ),
                Cell(
                    task="mpc-mvc",
                    graph="gnp",
                    n=24,
                    seed=24,
                    eps=0.5,
                    params=(("alpha", 0.9), ("gnp_p", 0.15)),
                ),
            ),
        )
        sweep = run_sweep(grid, jobs=1)
        probe, healthy = sweep.results
        assert probe.status == "error"
        assert "MemoryBudgetExceeded" in (probe.error or "")
        assert healthy.ok

    def test_mpc_and_congest_cells_agree_in_sweep(self):
        base = (("gnp_p", 0.2),)
        grid = GridSpec(
            name="pairing",
            cells=(
                Cell(
                    task="mvc-congest",
                    graph="gnp",
                    n=16,
                    seed=16,
                    eps=0.5,
                    engine="v2",
                    params=base,
                ),
                Cell(
                    task="mpc-mvc",
                    graph="gnp",
                    n=16,
                    seed=16,
                    eps=0.5,
                    params=base + (("alpha", 0.9), ("parity", True)),
                ),
            ),
        )
        pairs = run_sweep(grid, jobs=1).ok_payloads()
        congest_payload = pairs[0][1]
        mpc_payload = pairs[1][1]
        assert mpc_payload["signature"] == congest_payload["signature"]
        assert mpc_payload["stats"] == congest_payload["stats"]
        assert mpc_payload["mpc"]["parity"] is True


class _TwoArgError(Exception):
    """A model-level error whose constructor takes two arguments."""

    def __init__(self, code: int, detail: str) -> None:
        super().__init__(code, detail)


class _RaisingAlgorithm(NodeAlgorithm):
    """Node 3 raises in round 2; every other node finishes in round 3."""

    def on_start(self):
        self.rounds = 0
        return self.broadcast(0)

    def on_round(self, inbox):
        self.rounds += 1
        if self.node.id == 3 and self.rounds == 2:
            raise _TwoArgError(7, "node three gave up")
        if self.rounds == 3:
            self.finish(None)
        return self.broadcast(self.rounds)


class TestSerialExceptionIdentity:
    """A serial run surfaces the algorithm's own exception object.

    The typed transport (``describe_error``/``rebuild_exception``)
    applies only across a worker pipe; in-process nothing is rebuilt, so
    an exception class whose constructor takes two arguments keeps its
    class, its arguments and its ``on_round`` frame.
    """

    @pytest.mark.parametrize("compress", [1, 2])
    def test_original_exception_propagates(self, compress):
        net = MPCCongestNetwork(
            gnp_graph(12, 0.4, seed=1), alpha=0.9, compress=compress,
            workers=1,
        )
        with pytest.raises(_TwoArgError) as excinfo:
            net.run(_RaisingAlgorithm)
        assert type(excinfo.value) is _TwoArgError
        assert excinfo.value.args == (7, "node three gave up")
        assert any(entry.name == "on_round" for entry in excinfo.traceback)

    def test_serial_run_forks_nothing(self, monkeypatch):
        from repro.mpc import parallel

        def no_pool(*_args, **_kwargs):
            raise AssertionError("a serial run built a fork pool")

        monkeypatch.setattr(parallel.ForkShardPool, "__init__", no_pool)
        result, _payload = solve_mvc_mpc(
            gnp_graph(14, 0.3, seed=2), 0.5,
            RunConfig("mpc", alpha=0.9, compress="auto", workers=1),
        )
        assert result.cover


def _count_payload_words(monkeypatch):
    """Wrap ``payload_words`` in every module that imported it.

    Returns ``calls`` whose ``"total"`` counts every call, recursive ones
    included; ``"in_shuffle"`` counts those made while an
    ``MPCRuntime.shuffle`` is on the stack, and ``"shuffles"`` the
    shuffles.
    """
    import sys

    from repro.congest import message
    from repro.mpc import runtime

    original = message.payload_words
    calls = {"total": 0, "in_shuffle": 0, "shuffles": 0}
    inside = []

    def counted(payload, word_bits):
        calls["total"] += 1
        if inside:
            calls["in_shuffle"] += 1
        return original(payload, word_bits)

    for module in list(sys.modules.values()):
        if getattr(module, "payload_words", None) is original:
            monkeypatch.setattr(module, "payload_words", counted)
    shuffle = runtime.MPCRuntime.shuffle

    def watched(self, *args, **kwargs):
        calls["shuffles"] += 1
        inside.append(None)
        try:
            return shuffle(self, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(runtime.MPCRuntime, "shuffle", watched)
    return calls


class TestEachMessageSizedOnce:
    """The compiled loop sizes every payload once, in the shards."""

    graph = gnp_graph(40, 0.12, seed=7)

    def _v2_calls(self, monkeypatch):
        calls = _count_payload_words(monkeypatch)
        approx_mvc_square(
            self.graph, 0.5, network=CongestNetwork(
                self.graph, seed=7, engine="v2"
            ),
        )
        return calls["total"]

    @pytest.mark.parametrize("compress", [1, "auto"])
    def test_no_more_sizing_than_engine_v2(self, monkeypatch, compress):
        v2_calls = self._v2_calls(monkeypatch)
        assert v2_calls > 0
        calls = _count_payload_words(monkeypatch)
        net = MPCCongestNetwork(
            self.graph, alpha=0.8, seed=7, compress=compress, workers=1
        )
        approx_mvc_square(self.graph, 0.5, network=net)
        assert calls["shuffles"] == net.runtime.stats.shuffles > 0
        assert calls["total"] <= v2_calls
        if compress == 1:
            assert calls["in_shuffle"] == 0

    def test_native_programs_still_size_envelopes(self, monkeypatch):
        # Guards the harness: the wrapper does see the runtime's sizing,
        # so the compiled path's zero above is not vacuous.
        from repro.mpc.machine import Machine
        from repro.mpc.runtime import MPCRuntime

        calls = _count_payload_words(monkeypatch)
        runtime = MPCRuntime([Machine(i, 100) for i in range(2)], word_bits=4)
        runtime.shuffle([[(1, 7)], [(0, 9)]])
        assert calls["in_shuffle"] == 2


class _NonNeighbourSend(NodeAlgorithm):
    """Node 0 addresses a node it is not adjacent to."""

    def on_start(self):
        if self.node.id == 0:
            return {self.node.n - 1: 1}
        return None

    def on_round(self, inbox):
        self.finish(None)


class _OversizedBroadcast(NodeAlgorithm):
    """Every node broadcasts a payload over the per-edge word limit."""

    def on_start(self):
        return self.broadcast(tuple(range(12)))

    def on_round(self, inbox):
        self.finish(None)


class TestCompiledErrorsMatchV2:
    """The shards' v2 metering raises v2's errors, word for word."""

    @pytest.mark.parametrize(
        "algorithm, error",
        [(_NonNeighbourSend, "ProtocolError"),
         (_OversizedBroadcast, "CongestionError")],
    )
    @pytest.mark.parametrize("compress", [1, 2])
    def test_same_type_and_message(self, algorithm, error, compress):
        graph = path_graph(8)
        with pytest.raises(Exception) as expected:
            CongestNetwork(graph, seed=1, engine="v2").run(algorithm)
        with pytest.raises(Exception) as got:
            MPCCongestNetwork(
                graph, alpha=0.8, seed=1, compress=compress, workers=1
            ).run(algorithm)
        assert type(expected.value).__name__ == error
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
