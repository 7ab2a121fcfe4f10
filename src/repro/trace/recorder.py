"""Chrome trace-event / Perfetto timelines for solver and MPC runs.

The recorder is an *observer*: every hook that feeds it runs strictly
outside the deterministic sections (metering, scheduling, shuffle
ledgers, digests), and no timestamp ever flows back into execution.  A
traced run is therefore byte-identical — shuffle ledger, sweep
deterministic digest, metrics ``deterministic_sha256`` — to an untraced
one; ``tests/test_trace_plane.py`` enforces this with with/without
differentials over both backends.

Clock model
-----------
Parent-side timestamps are ``time.monotonic_ns()`` relative to the
recorder's origin (captured at construction).  Shard workers are fork
children, so they share the parent's ``CLOCK_MONOTONIC`` domain: they
stamp ``time.monotonic_ns()`` locally, ship the raw stamps back over the
existing :class:`~repro.mpc.parallel.ForkShardPool` result pipes, and
the parent normalizes them against its own origin.  As a guard against
residual skew (a paranoid no-op on Linux, a real clamp elsewhere) every
worker span is clamped into the enclosing parent-side barrier span
before it is emitted.

Output is the Chrome trace-event JSON object format —
``{"traceEvents": [...]}`` — loadable in Perfetto (https://ui.perfetto.dev)
or chrome://tracing.  Span nesting uses ``B``/``E`` duration events on
the main track, shipped worker intervals use ``X`` complete events on
per-worker tracks, markers use ``i`` instants and per-round series use
``C`` counters.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: Track (``tid``) of the parent process in the emitted timeline.
MAIN_TID = 0


class TraceRecorder:
    """Collects trace events in memory; :meth:`write` emits the JSON."""

    def __init__(self, pid: int = 1) -> None:
        self.pid = pid
        self._origin_ns = time.monotonic_ns()
        self._events: list[dict[str, Any]] = []
        #: Open ``B`` events per track, for crash-safe closing.
        self._open: dict[int, list[str]] = {}
        self._thread_names: dict[int, str] = {}
        self.name_thread(MAIN_TID, "main")

    # -- clock -------------------------------------------------------------

    def now_ns(self) -> int:
        """A raw stamp in the recorder's clock domain (monotonic ns)."""
        return time.monotonic_ns()

    def _ts(self, stamp_ns: int) -> float:
        """Microseconds since the recorder's origin (trace-event ``ts``)."""
        return round((stamp_ns - self._origin_ns) / 1000.0, 3)

    # -- event emission ----------------------------------------------------

    def name_thread(self, tid: int, name: str) -> None:
        if self._thread_names.get(tid) == name:
            return
        self._thread_names[tid] = name
        self._events.append(
            {
                "ph": "M",
                "ts": 0,
                "pid": self.pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": name},
            }
        )

    def _emit(
        self,
        ph: str,
        name: str,
        stamp_ns: int,
        tid: int,
        cat: str,
        args: dict[str, Any] | None,
        **extra: Any,
    ) -> dict[str, Any]:
        event: dict[str, Any] = {
            "ph": ph,
            "name": name,
            "ts": self._ts(stamp_ns),
            "pid": self.pid,
            "tid": tid,
        }
        if cat:
            event["cat"] = cat
        if args:
            event["args"] = args
        event.update(extra)
        self._events.append(event)
        return event

    def begin(
        self, name: str, tid: int = MAIN_TID, cat: str = "", **args: Any
    ) -> None:
        """Open a nested span on ``tid`` (trace-event ``B``)."""
        self._open.setdefault(tid, []).append(name)
        self._emit("B", name, self.now_ns(), tid, cat, args or None)

    def end(self, tid: int = MAIN_TID, **args: Any) -> None:
        """Close the innermost open span on ``tid`` (trace-event ``E``)."""
        stack = self._open.get(tid)
        if not stack:
            raise ValueError(f"no open span on tid {tid}")
        name = stack.pop()
        self._emit("E", name, self.now_ns(), tid, "", args or None)

    @contextmanager
    def span(self, name: str, tid: int = MAIN_TID, cat: str = "", **args: Any):
        """``with recorder.span("phase1", cat="stage"): ...``"""
        self.begin(name, tid=tid, cat=cat, **args)
        try:
            yield self
        finally:
            self.end(tid=tid)

    def complete(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        tid: int = MAIN_TID,
        cat: str = "",
        clamp: tuple[int, int] | None = None,
        **args: Any,
    ) -> None:
        """A closed interval (trace-event ``X``), e.g. a shipped worker span.

        ``clamp`` bounds the interval into an enclosing parent-side window
        — the skew guard for worker-stamped intervals.
        """
        if clamp is not None:
            lo, hi = clamp
            start_ns = min(max(start_ns, lo), hi)
            end_ns = min(max(end_ns, lo), hi)
        if end_ns < start_ns:
            end_ns = start_ns
        self._emit(
            "X",
            name,
            start_ns,
            tid,
            cat,
            args or None,
            dur=round((end_ns - start_ns) / 1000.0, 3),
        )

    def instant(
        self, name: str, tid: int = MAIN_TID, cat: str = "", **args: Any
    ) -> None:
        """A point marker (trace-event ``i``), e.g. an injected fault."""
        self._emit("i", name, self.now_ns(), tid, cat, args or None, s="t")

    def counter(
        self, name: str, values: dict[str, int], tid: int = MAIN_TID
    ) -> None:
        """A counter sample (trace-event ``C``), e.g. per-round traffic.

        Counter args are deterministic per-round series by contract:
        integer values only, and never timing-scoped field names (see
        :mod:`repro.contract`); ``validate_trace`` enforces both.
        """
        self._emit("C", name, self.now_ns(), tid, "", dict(values))

    # -- wiring ------------------------------------------------------------

    def attach(self, network: Any) -> "TraceRecorder":
        """Record ``network``'s runs into this timeline; return ``self``.

        Sets ``network.tracer`` (a ``stage`` span per run) and subscribes
        a ``congest.round`` counter to the round-event stream.  On an MPC
        network the shuffle barrier and the fault plane mark into the
        same timeline.  Planning, metering and the ledgers never read it.
        """
        network.tracer = self
        network.subscribe(self._on_round)
        runtime = getattr(network, "runtime", None)
        if runtime is not None:
            runtime.tracer = self
            injector = runtime.fault_injector
            if injector is not None and injector.tracer is None:
                injector.tracer = self
        return self

    def _on_round(self, event: Any) -> None:
        self.counter(
            "congest.round",
            {
                "messages": event.messages,
                "words": event.words,
                "awake": event.awake,
            },
        )

    # -- output ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def to_json(self) -> dict[str, Any]:
        """The trace document; unclosed spans are closed at the current time."""
        for tid, stack in self._open.items():
            while stack:
                self.end(tid=tid)
        return {
            "traceEvents": list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.trace", "clock": "monotonic"},
        }

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_json()) + "\n")
        return path
