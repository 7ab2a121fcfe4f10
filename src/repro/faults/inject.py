"""The fault injector: fires a plan's events from the runtime hooks.

Two hook points, both no-ops when no injector is attached so the
fault-free hot path is untouched:

- :meth:`FaultInjector.before_step` runs at the top of
  :meth:`repro.mpc.parallel.ForkShardPool.step` — it sleeps scheduled
  straggler delays and SIGKILLs scheduled crash victims, exercising the
  pool's checkpointed respawn-and-replay recovery.
- :meth:`FaultInjector.before_shuffle` runs at the top of
  :meth:`repro.mpc.runtime.MPCRuntime.shuffle` — it raises scheduled
  :class:`~repro.mpc.machine.MemoryBudgetExceeded` pressure exactly
  where a real over-budget shuffle would, in serial and parallel runs
  alike (shuffles are always parent-side).

Events are one-shot: each is popped from the pending set when it fires,
so a recovery replay of the same barrier does not re-trigger the crash
that caused it.  Everything the injector records — fired events, seeded
victim choices, recovery counts — is deterministic given (plan, seed),
which is what makes :meth:`report` safe to embed in sweep payloads.
"""

from __future__ import annotations

import time
from typing import Any

from repro.faults.plan import FaultPlan
from repro.mpc.machine import MemoryBudgetExceeded


class FaultInjector:
    """Fires one :class:`~repro.faults.plan.FaultPlan` against one run.

    An injector is single-use: it tracks which events already fired, so
    attach a fresh one per run (the network/runtime constructors do).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._pending = list(plan.events)
        self.injected = {"crash": 0, "straggle": 0, "mem": 0}
        self.fired: list[tuple[str, int, int | None]] = []
        self.skipped = 0
        #: Worker crashes the pool detected, whether it then respawned
        #: (a recovery) or degraded to in-process execution.
        self.crash_detections = 0
        self.recoveries = 0
        self.degraded = False
        #: Optional :class:`repro.trace.TraceRecorder`: fired events drop
        #: instant markers into the timeline.  Set by whoever wires the
        #: tracing plane (the shard pool / compiled network); the report
        #: and firing logic never read it.
        self.tracer = None

    def _mark(self, kind: str, at: int, target: int | None) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                f"fault.{kind}", cat="fault", at=at, target=target
            )

    def _pop(self, kind: str, at: int) -> list[Any]:
        hits = [e for e in self._pending if e.kind == kind and e.at == at]
        for event in hits:
            self._pending.remove(event)
        return hits

    def before_step(self, pool: Any, step_index: int) -> None:
        """Pool hook: straggle then crash events scheduled for this barrier."""
        for event in self._pop("straggle", step_index):
            if event.delay > 0:
                time.sleep(event.delay)  # repro: allow[DET002] straggler injection is timing-plane behavior by design
            self.injected["straggle"] += 1
            self.fired.append(("straggle", step_index, None))
            self._mark("straggle", step_index, None)
        for event in self._pop("crash", step_index):
            victim = event.target
            if victim is None:
                victim = self.plan.choose(
                    "crash-victim", event.at, pool.shards
                )
            else:
                victim %= pool.shards
            if pool.kill_worker(victim):
                self.injected["crash"] += 1
                self.fired.append(("crash", step_index, victim))
                self._mark("crash", step_index, victim)
            else:
                self.skipped += 1

    def before_shuffle(self, runtime: Any) -> None:
        """Runtime hook: memory-pressure events scheduled for this shuffle."""
        at = runtime.stats.rounds
        for event in self._pop("mem", at):
            machine = event.target
            if machine is None:
                machine = self.plan.choose("mem-machine", at, runtime.num_machines)
            else:
                machine %= runtime.num_machines
            self.injected["mem"] += 1
            self.fired.append(("mem", at, machine))
            self._mark("mem", at, machine)
            raise MemoryBudgetExceeded(
                f"machine {machine} exceeded its I/O budget at shuffle {at} "
                f"(injected by fault plan)"
            )

    def note_crash_detected(self) -> None:
        self.crash_detections += 1

    def note_recovery(self) -> None:
        self.recoveries += 1

    def note_degraded(self) -> None:
        self.degraded = True

    def report(self) -> dict[str, Any]:
        """JSON-stable summary; deterministic given (plan, seed)."""
        return {
            "spec": self.plan.spec,
            "seed": self.plan.seed,
            "max_recoveries": self.plan.max_recoveries,
            "injected": dict(self.injected),
            "fired": [list(entry) for entry in self.fired],
            "pending": len(self._pending),
            "skipped": self.skipped,
            "crash_detections": self.crash_detections,
            "recoveries": self.recoveries,
            "degraded": self.degraded,
        }
