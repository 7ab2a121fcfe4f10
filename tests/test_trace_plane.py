"""The tracing plane: recorder, validator, span taxonomy, determinism.

Covers ``repro.trace`` end to end: the recorder's event grammar (nested
``B``/``E`` spans, ``X`` completes with the clock-skew clamp, instants,
counters), the strict shape validator, the span taxonomy emitted by the
CONGEST engine and the MPC backend (stages, shuffle barriers, compression
windows, per-worker timelines, crash recovery), and — the load-bearing
contract — with/without-``--trace`` differentials proving the tracer is a
pure observer: shuffle ledgers, sweep digests and metrics
``deterministic_sha256`` are byte-identical whether or not a trace is
recorded.
"""

from __future__ import annotations

import hashlib
import json
import warnings

import pytest

import networkx as nx

from repro.config import RunConfig
from repro.core.mvc_congest import approx_mvc_square
from repro.congest.network import CongestNetwork
from repro.faults import DegradedExecutionWarning
from repro.graphs.generators import gnp_graph
from repro.metrics import MetricsCollector
from repro.mpc.compile_congest import solve_mds_mpc, solve_mvc_mpc
from repro.sweep import named_grid, run_sweep
from repro.trace import TraceRecorder, validate_trace


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestRecorder:
    def test_span_nesting_and_json_shape(self):
        rec = TraceRecorder()
        with rec.span("outer", cat="stage"):
            with rec.span("inner", cat="stage", k=2):
                rec.instant("tick", cat="mark")
        doc = rec.to_json()
        phases = [e["ph"] for e in doc["traceEvents"]]
        # thread_name metadata, then B B i E E in LIFO order.
        assert phases == ["M", "B", "B", "i", "E", "E"]
        closes = [e["name"] for e in doc["traceEvents"] if e["ph"] == "E"]
        assert closes == ["inner", "outer"]
        assert doc["displayTimeUnit"] == "ms"

    def test_end_without_begin_raises(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError):
            rec.end()

    def test_to_json_closes_crashed_spans(self):
        rec = TraceRecorder()
        rec.begin("never-closed")
        summary = validate_trace(rec.to_json())
        assert summary["spans"] == 1

    def test_complete_clamps_worker_stamps_into_parent_window(self):
        # The skew guard: a shipped worker interval can never escape the
        # enclosing parent-side barrier window.
        rec = TraceRecorder()
        lo = rec.now_ns()
        hi = lo + 1_000_000
        rec.complete("round", lo - 500, hi + 500, tid=1, clamp=(lo, hi))
        event = rec.to_json()["traceEvents"][-1]
        assert event["ph"] == "X"
        assert event["dur"] == pytest.approx(1000.0, abs=0.01)

    def test_counter_and_thread_names(self):
        rec = TraceRecorder()
        rec.name_thread(1, "shard-0")
        rec.name_thread(1, "shard-0")  # deduplicated
        rec.counter("congest.round", {"messages": 12, "words": 30})
        doc = rec.to_json()
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(metas) == 2  # main + shard-0, no duplicate
        counter = next(e for e in doc["traceEvents"] if e["ph"] == "C")
        assert counter["args"] == {"messages": 12, "words": 30}

    def test_write_and_reload(self, tmp_path):
        rec = TraceRecorder()
        with rec.span("stage"):
            pass
        out = rec.write(tmp_path / "trace.json")
        summary = validate_trace(json.loads(out.read_text()))
        assert summary == {
            "events": 3,
            "spans": 1,
            "tracks": 1,
            "names": ["stage"],
        }


class TestValidator:
    def _event(self, **kw):
        base = {"ph": "i", "ts": 0.0, "pid": 1, "tid": 0, "name": "x", "s": "t"}
        base.update(kw)
        return base

    def test_accepts_bare_array(self):
        assert validate_trace([self._event()])["events"] == 1

    def test_rejects_non_document(self):
        with pytest.raises(ValueError, match="object or an array"):
            validate_trace("nope")

    def test_rejects_missing_required_key(self):
        event = self._event()
        del event["tid"]
        with pytest.raises(ValueError, match="missing 'tid'"):
            validate_trace([event])

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unknown phase"):
            validate_trace([self._event(ph="Q")])

    def test_rejects_unbalanced_end(self):
        with pytest.raises(ValueError, match="no open span"):
            validate_trace([self._event(ph="E")])

    def test_rejects_mismatched_close(self):
        events = [self._event(ph="B", name="a"), self._event(ph="E", name="b")]
        with pytest.raises(ValueError, match="closes"):
            validate_trace(events)

    def test_rejects_unclosed_span(self):
        with pytest.raises(ValueError, match="unclosed"):
            validate_trace([self._event(ph="B")])

    def test_rejects_complete_without_duration(self):
        with pytest.raises(ValueError, match="without dur"):
            validate_trace([self._event(ph="X")])


class TestCongestSpans:
    def test_solver_stage_taxonomy(self):
        graph = gnp_graph(14, 0.3, seed=5)
        net = CongestNetwork(graph, seed=0)
        rec = TraceRecorder().attach(net)
        approx_mvc_square(graph, 0.5, network=net)
        summary = validate_trace(rec.to_json())
        names = set(summary["names"])
        # All four solver stages appear as spans, plus per-round counters.
        assert {"phase1", "bfs", "upcast", "broadcast"} <= names
        assert "congest.round" in names
        assert summary["tracks"] == 1


class TestMpcSpans:
    def test_traced_parallel_faulted_run_has_full_taxonomy(self):
        graph = nx.gnp_random_graph(18, 0.3, seed=7)
        rec = TraceRecorder()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecutionWarning)
            solve_mvc_mpc(
                graph, 0.5,
                RunConfig(
                    "mpc", alpha=0.9, compress=2, workers=2, faults="crash@2"
                ),
                seed=0, tracer=rec,
            )
        summary = validate_trace(rec.to_json())
        names = set(summary["names"])
        # Shuffle barriers and compression windows on the main track.
        assert {"shuffle", "window", "barrier"} <= names
        # Per-worker timelines shipped back over the pool pipes.
        assert {"worker.fork", "round", "finalize"} <= names
        # The injected crash and its recovery.
        assert "fault.crash" in names
        assert "worker.crash-detected" in names
        assert "recovery.respawn" in names
        assert "replay" in names
        # main + one track per shard worker.
        assert summary["tracks"] == 3

    def test_traced_serial_run_has_one_track_and_no_pool(self):
        graph = nx.gnp_random_graph(18, 0.3, seed=7)
        rec = TraceRecorder()
        solve_mvc_mpc(
            graph, 0.5, RunConfig("mpc", alpha=0.9, compress=2, workers=1),
            seed=0, tracer=rec,
        )
        document = rec.to_json()
        summary = validate_trace(document)
        names = set(summary["names"])
        stages = {
            event["name"]
            for event in document["traceEvents"]
            if event.get("cat") == "stage"
        }
        assert {"phase1", "bfs", "upcast", "broadcast"} <= stages
        assert {"shuffle", "window", "congest.round"} <= names
        # The in-process executor forks nothing and opens no barrier.
        assert not names & {"barrier", "worker.fork"}
        assert summary["tracks"] == 1


class TestObserverContract:
    """Tracing must never perturb deterministic state, on either backend."""

    def _congest_sha(self, traced: bool) -> str:
        graph = gnp_graph(16, 0.3, seed=9)
        net = CongestNetwork(graph, seed=0)
        collector = MetricsCollector(label="mvc").attach(net)
        if traced:
            TraceRecorder().attach(net)
        approx_mvc_square(graph, 0.5, network=net)
        return collector.to_json()["deterministic_sha256"]

    def test_congest_sha_identical_with_and_without_trace(self):
        assert self._congest_sha(traced=False) == self._congest_sha(traced=True)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mpc_ledger_identical_with_and_without_trace(self, workers):
        graph = nx.gnp_random_graph(16, 0.3, seed=5)
        digests = {}
        shas = {}
        for traced in (False, True):
            collector = MetricsCollector(label="mpc-mds")
            tracer = TraceRecorder() if traced else None
            _result, payload = solve_mds_mpc(
                graph,
                RunConfig("mpc", alpha=1.0, compress="auto", workers=workers),
                seed=0, collector=collector, tracer=tracer,
            )
            digests[traced] = _digest(payload)
            shas[traced] = collector.to_json()["deterministic_sha256"]
            if traced:
                assert validate_trace(tracer.to_json())["spans"] > 0
        assert digests[False] == digests[True]
        assert shas[False] == shas[True]

    def test_mpc_faulted_ledger_identical_with_and_without_trace(self):
        graph = nx.gnp_random_graph(16, 0.3, seed=5)
        digests = {}
        for traced in (False, True):
            tracer = TraceRecorder() if traced else None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecutionWarning)
                _result, payload = solve_mvc_mpc(
                    graph, 0.5,
                    RunConfig("mpc", alpha=0.9, workers=2, faults="crash@2"),
                    seed=0, tracer=tracer,
                )
            digests[traced] = _digest(payload)
        assert digests[False] == digests[True]

    def test_sweep_digest_identical_with_and_without_trace(self):
        untraced = run_sweep(named_grid("smoke"), jobs=1)
        tracer = TraceRecorder()
        traced = run_sweep(named_grid("smoke"), jobs=1, trace=tracer)
        assert traced.deterministic_sha256() == untraced.deterministic_sha256()
        summary = validate_trace(tracer.to_json())
        assert any(name.startswith("cell:") for name in summary["names"])

    def test_parallel_sweep_digest_identical_with_trace(self):
        untraced = run_sweep(named_grid("smoke"), jobs=2)
        tracer = TraceRecorder()
        traced = run_sweep(named_grid("smoke"), jobs=2, trace=tracer)
        assert traced.deterministic_sha256() == untraced.deterministic_sha256()


class TestSweepTiming:
    def test_elapsed_s_present_but_outside_deterministic_digest(self):
        sweep = run_sweep(named_grid("smoke"), jobs=1)
        cells = sweep.to_json()["results"]
        assert all("elapsed_s" in cell for cell in cells)
        assert all(cell["elapsed_s"] == cell["seconds"] for cell in cells)
        deterministic = sweep.to_json(include_timing=False)["results"]
        assert all("elapsed_s" not in cell for cell in deterministic)

    def test_timing_histogram_line(self):
        sweep = run_sweep(named_grid("smoke"), jobs=1)
        line = sweep.timing_histogram()
        assert line.startswith("cell wall-time:")
        assert "histogram [" in line
