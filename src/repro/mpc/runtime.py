"""Synchronous shuffle rounds for the low-space MPC simulator.

:class:`MPCRuntime` is the machine-level analogue of the CONGEST engines:
it executes :class:`~repro.mpc.machine.MachineProgram` instances in
synchronous rounds, where each round's messages cross one global
**shuffle**.  The shuffle is the metered object: per round it accounts
every message's words (one envelope word plus the payload's
:func:`~repro.congest.message.payload_words` cost), tracks each machine's
sent and received load, folds the maxima into
:class:`MPCRunStats` (the ``RunStats``-style aggregate, including the
``__add__``-with-matching-word-size contract), and enforces the model's
O(S) per-round I/O bound against every machine's
``io_budget_words`` — a violation raises
:class:`~repro.mpc.machine.MemoryBudgetExceeded` naming the machine.

:meth:`MPCRuntime.shuffle` takes two input forms and meters both in one
core.  Native MPC workloads (:mod:`repro.mpc.matching`) hand it
``(dest, payload)`` envelopes, whose loads it builds by sizing each
payload; they run whole programs through :meth:`MPCRuntime.run`, whose
one round loop steps the programs through a serial or process-parallel
shard executor (:mod:`repro.mpc.parallel`).  The CONGEST round-compiler
(:mod:`repro.mpc.compile_congest`) hands it :class:`ShuffleLoads` instead:
its shards already sized every message when they collected it, so the
shuffle only checks budgets and books the integers.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.congest.errors import RoundLimitError
from repro.congest.message import payload_words
from repro.congest.network import combine_word_bits
from repro.mpc.machine import Machine, MachineProgram, MemoryBudgetExceeded

#: Routing-header words charged per shuffled message on top of its payload.
ENVELOPE_WORDS = 1

#: Default cap on simulated shuffle rounds for :meth:`MPCRuntime.run`.
DEFAULT_MAX_ROUNDS = 10_000


@dataclass
class MPCRunStats:
    """Aggregated shuffle usage of one (or several, summed) MPC runs.

    ``max_in_words`` / ``max_out_words`` are the worst single-machine
    receive/send loads over any one round — the "max machine load" of the
    model's O(S) I/O bound.  ``rounds`` counts *shuffles* (the MPC round
    unit; :attr:`shuffles` is the explicit alias), while
    ``congest_rounds`` counts the CONGEST rounds those shuffles carried:
    the two coincide at the classical 1:1 compilation and diverge under
    round compression, where one prefetch shuffle covers ``k`` locally
    replayed CONGEST rounds.  Mirrors
    :class:`~repro.congest.network.RunStats`: addition refuses to mix word
    sizes because word counts are not commensurable across them — except
    against an *empty* stats object (all counters zero), which acts as an
    additive identity regardless of its ``word_bits`` so ``sum(...,
    MPCRunStats())`` works over any homogeneous collection.
    """

    rounds: int = 0
    messages: int = 0
    total_words: int = 0
    max_in_words: int = 0
    max_out_words: int = 0
    word_bits: int = 0
    congest_rounds: int = 0

    @property
    def shuffles(self) -> int:
        """Shuffle count — an explicit alias of ``rounds``."""
        return self.rounds

    @property
    def total_bits(self) -> int:
        return self.total_words * self.word_bits

    def is_empty(self) -> bool:
        """True when every counter is zero (word size aside)."""
        return not (
            self.rounds
            or self.messages
            or self.total_words
            or self.max_in_words
            or self.max_out_words
            or self.congest_rounds
        )

    def __add__(self, other: "MPCRunStats") -> "MPCRunStats":
        word_bits = combine_word_bits(self, other, "MPCRunStats", "runtimes")
        return MPCRunStats(
            rounds=self.rounds + other.rounds,
            messages=self.messages + other.messages,
            total_words=self.total_words + other.total_words,
            max_in_words=max(self.max_in_words, other.max_in_words),
            max_out_words=max(self.max_out_words, other.max_out_words),
            word_bits=word_bits,
            congest_rounds=self.congest_rounds + other.congest_rounds,
        )

    def to_json(self) -> dict[str, int]:
        return {
            "rounds": self.rounds,
            "shuffles": self.shuffles,
            "congest_rounds": self.congest_rounds,
            "messages": self.messages,
            "total_words": self.total_words,
            "max_in_words": self.max_in_words,
            "max_out_words": self.max_out_words,
            "word_bits": self.word_bits,
        }


@dataclass
class ShuffleRecord:
    """Per-shuffle traffic: the MPC analogue of a CONGEST ``RoundEvent``.

    The runtime's list of these (``MPCRuntime.trace``) is the shuffle
    ledger; each record also goes to ``on_shuffle`` as it is booked.

    ``congest_rounds`` is the number of CONGEST rounds this shuffle
    carried: 1 under the classical compilation, ``k`` for a compressed
    window's prefetch shuffle (the ``k`` rounds after it replay locally
    and appear in no further record).
    """

    round_index: int
    messages: int
    words: int
    max_in_words: int
    max_out_words: int
    active_machines: int
    congest_rounds: int = 1


@dataclass
class ShuffleLoads:
    """One shuffle's traffic as integers: what the metering core reads.

    ``in_words[mid]`` / ``out_words[mid]`` are the words machine ``mid``
    receives / sends (``ENVELOPE_WORDS`` plus the envelope's payload per
    message); ``messages`` and ``words`` are the shuffle's totals.  Every
    field is a sum over messages, so the loads of disjoint message sets
    add up (:meth:`add`) to the loads of their union — which is why shards
    may meter their own messages and the parent only sums integers, with
    no ledger depending on the shard layout.
    """

    in_words: list[int]
    out_words: list[int]
    messages: int = 0
    words: int = 0

    @classmethod
    def zeros(cls, machines: int) -> "ShuffleLoads":
        return cls([0] * machines, [0] * machines)

    def add(self, other: "ShuffleLoads") -> None:
        """Fold ``other`` (same machine count) into these loads."""
        self.in_words = [a + b for a, b in zip(self.in_words, other.in_words)]
        self.out_words = [
            a + b for a, b in zip(self.out_words, other.out_words)
        ]
        self.messages += other.messages
        self.words += other.words


@dataclass
class MPCRunResult:
    """Outputs and shuffle usage of one completed program run."""

    outputs: dict[int, Any]
    stats: MPCRunStats
    trace: list[ShuffleRecord] = field(default_factory=list)


class MPCRuntime:
    """Executes shuffle rounds over a fixed set of machines.

    Statistics accumulate over the runtime's lifetime (``stats``,
    ``trace``), so a multi-stage computation — e.g. the CONGEST compiler
    running several solver stages on one network — reports totals the same
    way :func:`~repro.congest.network.run_stages` sums ``RunStats``.
    """

    def __init__(
        self,
        machines: Sequence[Machine],
        word_bits: int,
        on_shuffle=None,
    ) -> None:
        if not machines:
            raise ValueError("runtime needs at least one machine")
        if word_bits < 1:
            raise ValueError("word_bits must be positive")
        self.machines = list(machines)
        self.word_bits = word_bits
        self.stats = MPCRunStats(word_bits=word_bits)
        self.trace: list[ShuffleRecord] = []
        #: Optional callback invoked with each new :class:`ShuffleRecord`
        #: right after it lands on the trace.  Observation only — the
        #: record is live (``absorb_early_finish`` may still shrink its
        #: ``congest_rounds``), so consumers wanting final values should
        #: hold the reference and read at aggregation time.
        self.on_shuffle = on_shuffle
        #: Optional :class:`~repro.faults.inject.FaultInjector` whose
        #: ``before_shuffle`` hook fires at the top of :meth:`shuffle`
        #: and whose ``before_step`` hook the shard pool calls; ``None``
        #: (the default) keeps the fault-free hot path untouched.
        self.fault_injector = None
        #: Optional :class:`~repro.faults.recovery.RecoveryConfig` that
        #: the parallel path forwards to its :class:`ForkShardPool`,
        #: enabling checkpointed crash recovery.
        self.recovery = None
        #: Optional :class:`repro.trace.TraceRecorder`.  Observation only:
        #: it times the shuffle barrier and rides along to the shard pool;
        #: ledger, stats and delivery order never depend on it.
        self.tracer = None

    @property
    def num_machines(self) -> int:
        return len(self.machines)

    def attach_faults(self, faults: Any, seed: int) -> Any:
        """Attach a fault plan and checkpointed recovery; return the injector.

        ``faults`` is a spec string (parsed with ``seed``) or a
        :class:`~repro.faults.plan.FaultPlan`.
        """
        from repro.faults import FaultInjector, FaultPlan, RecoveryConfig

        plan = (
            FaultPlan.from_spec(faults, seed=seed)
            if isinstance(faults, str)
            else faults
        )
        self.fault_injector = FaultInjector(plan)
        self.recovery = RecoveryConfig(max_recoveries=plan.max_recoveries)
        return self.fault_injector

    # -- the shuffle -------------------------------------------------------

    def shuffle(
        self,
        traffic: Sequence[Iterable[tuple[int, Any]] | None] | ShuffleLoads,
        active: int | None = None,
        congest_rounds: int = 1,
    ) -> list[list[tuple[int, Any]]] | None:
        """Execute one metered shuffle round.

        ``traffic`` comes in one of two forms, metered by one core:

        * **envelopes** — ``traffic[mid]`` holds machine ``mid``'s
          ``(dest, payload)`` messages (or ``None``).  Their loads are
          built here, one :func:`~repro.congest.message.payload_words`
          per message, and the call returns ``inboxes`` where
          ``inboxes[mid]`` lists ``(sender_mid, payload)`` pairs ordered
          by sender machine, then send order — deterministic regardless
          of how callers built their outboxes.
        * **loads** — a :class:`ShuffleLoads` the caller already summed
          (the compiled CONGEST engine's shards size each message once,
          when they collect it).  Nothing is delivered; returns ``None``.

        Either way the fault plane's ``before_shuffle`` fires first, and
        the per-machine I/O budget check raises
        :class:`MemoryBudgetExceeded` — lowest machine first, ``sent``
        before ``received`` — before any message is delivered or counted.

        ``congest_rounds`` records how many CONGEST rounds this shuffle
        carries in the ledger (1 classically; the compressed compiler
        passes the window length ``k`` for its prefetch shuffle).
        """
        if congest_rounds < 1:
            raise ValueError("congest_rounds must be positive")
        if self.fault_injector is not None:
            self.fault_injector.before_shuffle(self)
        tracer = self.tracer
        shuffle_start = tracer.now_ns() if tracer is not None else 0
        m = self.num_machines
        if isinstance(traffic, ShuffleLoads):
            loads, inboxes = traffic, None
            if len(loads.in_words) != m or len(loads.out_words) != m:
                raise ValueError(
                    f"expected loads of {m} machines, got "
                    f"{len(loads.in_words)} in / {len(loads.out_words)} out"
                )
        else:
            loads, inboxes = self._route(traffic)
        record = self._meter(loads, active, congest_rounds)
        if tracer is not None:
            tracer.complete(
                "shuffle",
                shuffle_start,
                tracer.now_ns(),
                cat="mpc",
                round=record.round_index,
                messages=record.messages,
                words=record.words,
                congest_rounds=congest_rounds,
                active=record.active_machines,
            )
        return inboxes

    def _route(
        self, outboxes: Sequence[Iterable[tuple[int, Any]] | None]
    ) -> tuple[ShuffleLoads, list[list[tuple[int, Any]]]]:
        """Loads and inboxes of the envelope form of :meth:`shuffle`."""
        m = self.num_machines
        if len(outboxes) != m:
            raise ValueError(
                f"expected {m} outboxes, got {len(outboxes)}"
            )
        loads = ShuffleLoads.zeros(m)
        in_words = loads.in_words
        out_words = loads.out_words
        inboxes: list[list[tuple[int, Any]]] = [[] for _ in range(m)]
        messages = 0
        words_total = 0
        for sender, outbox in enumerate(outboxes):
            if not outbox:
                continue
            for dest, payload in outbox:
                if not isinstance(dest, int) or not 0 <= dest < m:
                    raise ValueError(
                        f"machine {sender} addressed invalid machine "
                        f"{dest!r} (have {m} machines)"
                    )
                words = ENVELOPE_WORDS + payload_words(payload, self.word_bits)
                out_words[sender] += words
                in_words[dest] += words
                messages += 1
                words_total += words
                inboxes[dest].append((sender, payload))
        loads.messages = messages
        loads.words = words_total
        return loads, inboxes

    def _meter(
        self, loads: ShuffleLoads, active: int | None, congest_rounds: int
    ) -> ShuffleRecord:
        """The metering core: budget check, stats, trace record, hook."""
        in_words = loads.in_words
        out_words = loads.out_words
        for mid, machine in enumerate(self.machines):
            if out_words[mid] > machine.io_budget_words:
                raise MemoryBudgetExceeded(
                    f"machine {mid} sent {out_words[mid]} words in round "
                    f"{self.stats.rounds + 1} but the per-round I/O budget "
                    f"is {machine.io_budget_words} words (O(S) with "
                    f"S={machine.budget_words})"
                )
            if in_words[mid] > machine.io_budget_words:
                raise MemoryBudgetExceeded(
                    f"machine {mid} received {in_words[mid]} words in round "
                    f"{self.stats.rounds + 1} but the per-round I/O budget "
                    f"is {machine.io_budget_words} words (O(S) with "
                    f"S={machine.budget_words})"
                )
        max_in = max(in_words)
        max_out = max(out_words)
        stats = self.stats
        stats.rounds += 1
        stats.congest_rounds += congest_rounds
        stats.messages += loads.messages
        stats.total_words += loads.words
        stats.max_in_words = max(stats.max_in_words, max_in)
        stats.max_out_words = max(stats.max_out_words, max_out)
        record = ShuffleRecord(
            round_index=stats.rounds,
            messages=loads.messages,
            words=loads.words,
            max_in_words=max_in,
            max_out_words=max_out,
            active_machines=self.num_machines if active is None else active,
            congest_rounds=congest_rounds,
        )
        self.trace.append(record)
        if self.on_shuffle is not None:
            self.on_shuffle(record)
        return record

    def absorb_early_finish(self, unexecuted_rounds: int) -> None:
        """Give back CONGEST rounds a compressed window never replayed.

        A prefetch shuffle charges its planned window length up front; when
        every node finishes before the window is exhausted, the compiler
        calls this to keep ``stats.congest_rounds`` (and the last trace
        record) equal to the rounds actually executed.
        """
        if unexecuted_rounds < 0:
            raise ValueError("unexecuted_rounds must be non-negative")
        if not unexecuted_rounds:
            return
        if not self.trace:
            raise ValueError("no shuffle on record to absorb rounds from")
        record = self.trace[-1]
        if record.congest_rounds - unexecuted_rounds < 1:
            raise ValueError(
                f"last shuffle carried {record.congest_rounds} CONGEST "
                f"round(s); cannot give back {unexecuted_rounds}"
            )
        record.congest_rounds -= unexecuted_rounds
        self.stats.congest_rounds -= unexecuted_rounds

    # -- whole-program execution -------------------------------------------

    def run(
        self,
        programs: Sequence[MachineProgram],
        max_rounds: int | None = None,
        workers: int | None = None,
    ) -> MPCRunResult:
        """Run one program per machine until all finish.

        Mirrors the CONGEST reference engine's structure: ``on_start``
        produces the first shuffle's messages, then every live program is
        invoked each round with its delivered inbox; a program may return
        a final outbox in the round it finishes, and the outboxes left
        when every program is done cross one last metered ``active=0``
        shuffle.  Raises :class:`~repro.congest.errors.RoundLimitError`
        when the programs do not terminate within ``max_rounds``.

        There is one loop and two executors (:mod:`repro.mpc.parallel`):
        the programs are split into :class:`~repro.mpc.parallel.ProgramShard`
        handlers stepped between shuffles either in-process (one shard of
        every machine) or, with ``workers`` > 1 where ``fork`` is
        available, on a pool of forked shard workers.  Every shuffle is a
        parent-side barrier, so the shuffle ledger, stats, outputs and
        raised errors are identical at any worker count, and the caller's
        program objects end in the same post-run state.  ``None``
        resolves the count from the ``REPRO_MPC_WORKERS`` environment
        override (default 1).
        """
        if len(programs) != self.num_machines:
            raise ValueError(
                f"expected {self.num_machines} programs, got {len(programs)}"
            )
        if max_rounds is None:
            max_rounds = DEFAULT_MAX_ROUNDS
        from repro.mpc import parallel as _parallel

        m = self.num_machines
        shards = _parallel.plan_shards(
            m, _parallel.shard_workers(_parallel.resolve_workers(workers))
        )
        handlers = [_parallel.ProgramShard(programs, shard) for shard in shards]
        trace_start = len(self.trace)
        rounds_before = self.stats.rounds
        done: set[int] = set()
        outboxes: list[Any] = [None] * m

        def absorb(frags: list[dict[str, Any]]) -> None:
            for frag in frags:
                for mid, outbox in frag["outboxes"]:
                    outboxes[mid] = outbox
                done.update(mid for mid, _output in frag["finished"])

        with _parallel.open_shards(
            handlers,
            injector=self.fault_injector,
            recovery=self.recovery,
            tracer=self.tracer,
        ) as executor:
            absorb(executor.step_all(("start", None)))
            while len(done) < m:
                if self.stats.rounds - rounds_before >= max_rounds:
                    raise RoundLimitError(
                        f"no termination within {max_rounds} shuffle rounds "
                        f"({m - len(done)} machines alive)"
                    )
                live = m - len(done)
                inboxes = self.shuffle(outboxes, active=live)
                outboxes = [None] * m
                tasks = [
                    (
                        "round",
                        {
                            mid: inboxes[mid]
                            for mid in shard
                            if mid not in done and inboxes[mid]
                        },
                    )
                    for shard in shards
                ]
                absorb(executor.step(tasks))
            if any(outboxes):
                self.shuffle(outboxes, active=0)
            # Mirror worker-advanced programs back onto the caller's
            # objects (a no-op in-process, where they are the same).
            for shard_programs in executor.step_all(("finalize", None)):
                for mid, shard_prog in shard_programs:
                    prog = programs[mid]
                    machine = prog.machine
                    machine.stored_words = shard_prog.machine.stored_words
                    shard_prog.machine = machine
                    prog.__dict__.update(shard_prog.__dict__)
        return self._finish_run(programs, trace_start)

    def _finish_run(
        self, programs: Sequence[MachineProgram], trace_start: int
    ) -> MPCRunResult:
        """Fold this run's trace slice into a per-run stats object."""
        run_trace = self.trace[trace_start:]
        stats = MPCRunStats(word_bits=self.word_bits)
        for record in run_trace:
            stats.rounds += 1
            stats.congest_rounds += record.congest_rounds
            stats.messages += record.messages
            stats.total_words += record.words
            stats.max_in_words = max(stats.max_in_words, record.max_in_words)
            stats.max_out_words = max(
                stats.max_out_words, record.max_out_words
            )
        return MPCRunResult(
            outputs={
                mid: prog.output for mid, prog in enumerate(programs)
            },
            stats=stats,
            trace=run_trace,
        )
