"""Recovery policy for crash-recovering shard pools."""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.plan import DEFAULT_MAX_RECOVERIES

#: Default number of barriers between shard-state checkpoints.  Each
#: checkpoint is an extra pipe round-trip, so the interval trades steady
#: state overhead against replay length on crash: a crash re-executes at
#: most ``interval`` barriers of (deterministic) local computation, and
#: since every metered shuffle runs parent-side, no shuffle is ever
#: replayed regardless of the interval.
DEFAULT_CHECKPOINT_INTERVAL = 6


class DegradedExecutionWarning(RuntimeWarning):
    """An MPC shard pool exhausted its recovery budget.

    Execution continues on the in-process executor (handler state
    restored from the last barrier checkpoint plus a replay of the
    barriers since), so results and the shuffle ledger are unchanged —
    only the hardware parallelism is lost.
    """


@dataclass(frozen=True)
class RecoveryConfig:
    """How a :class:`~repro.mpc.parallel.ForkShardPool` survives crashes.

    When attached to a pool, every ``checkpoint_interval``-th successful
    barrier is followed by a shard-state checkpoint (cheap by
    construction: the frozen ``MachineSpec`` / mutable ``Machine`` split
    means only ``stored_words`` plus program/algorithm ``__dict__`` state
    crosses the pipe); the barrier tasks since the last checkpoint are
    retained for replay.  A :class:`~repro.mpc.parallel.WorkerCrashError`
    then triggers respawn, restore and replay instead of aborting; after
    ``max_recoveries`` failures the pool degrades to in-process serial
    execution with a :class:`DegradedExecutionWarning`.
    """

    max_recoveries: int = DEFAULT_MAX_RECOVERIES
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL

    def __post_init__(self) -> None:
        if self.max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
