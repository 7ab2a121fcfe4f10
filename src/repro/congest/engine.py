"""Pluggable execution engines for :class:`~repro.congest.network.CongestNetwork`.

Three engine configurations implement the same synchronous-round semantics:

* ``v1`` (:class:`SynchronousEngine`) — the original reference loop: every
  live node is invoked every round, inbox dictionaries are rebuilt from
  scratch and quiescence is detected by scanning all algorithms.  Kept
  verbatim as the differential-testing baseline; batched outboxes are
  expanded through their per-message ``items()`` view, so the loop body is
  untouched.
* ``v2`` (:class:`ActivityEngine`) — the activity-scheduled runtime: only
  nodes with pending inbox traffic or an explicit self-wake
  (:meth:`~repro.congest.algorithm.NodeAlgorithm.wants_wake`) are invoked,
  inbox buffers are reused via :class:`~repro.congest.scheduler.MailboxRing`,
  message metering caches :func:`~repro.congest.message.payload_words` for
  repeated payload shapes, quiescence is a counter decrement, and a
  :class:`~repro.congest.message.BatchOutbox` takes the **batch fast
  path**: one word-cost computation, one strictness check and an O(1)
  statistics update for the whole batch, delivered through
  :meth:`~repro.congest.scheduler.MailboxRing.post_batch`.  Per-target
  validation of untrusted batches is vectorized with numpy when available
  (the pure-Python loop is the reference and the fallback).
* ``v2-dict`` — the activity engine with the batch fast path disabled:
  batches run through the same per-message loop as dictionaries (the
  engine exactly as of the pre-batching revision).  Kept selectable so the
  benchmarks can attribute speedups to batching separately from activity
  scheduling, and as a differential baseline for the fast path.

A fourth :class:`Engine` subclass, ``"mpc"``, lives with the CONGEST-to-MPC
compiler (:mod:`repro.mpc.compile_congest`): an
:class:`~repro.mpc.compile_congest.MPCCongestNetwork` installs it in place
of the three above and runs the same rounds on low-space MPC machines,
collecting outboxes through v2's :class:`OutboxMeter`.

The wants_wake / self-wake protocol
-----------------------------------
Engine v2 invokes a node in round ``r`` iff at least one of:

1. the node has pending inbox traffic delivered for round ``r``, or
2. the node's :meth:`~repro.congest.algorithm.NodeAlgorithm.wants_wake`
   returned true when the engine last ran it (after ``on_start`` or after
   its previous ``on_round``).

``wants_wake`` is re-queried *after every invocation*, so a wake request is
good for exactly one round — a node that wants to run every round must keep
returning true.  The base-class default returns true, which makes every
algorithm behave exactly as under v1 unless it opts into sleeping; only
algorithms whose silent rounds are genuinely idle (no timers, no
round-counting) may override it to false.  A sleeping node is woken by
incoming traffic regardless of its ``wants_wake`` answer.  If every live
node sleeps and no traffic is in flight, nothing can ever happen again and
the engine reproduces the reference engine's empty-round spin up to
``max_rounds`` (same trace, same :class:`RoundLimitError`).

The v1/v2 parity contract
-------------------------
All engine configurations must produce identical outputs, statistics and
traces on every run — same ``RunResult.outputs``/``by_id``, same
``RunStats`` field by field, same per-round ``RoundRecord`` timeline, and
the same exceptions at the same rounds.  The ingredients:

* nodes run in ascending id order each round (v2 sorts its runnable set);
* messages are metered at send time in both engines, including traffic
  addressed to already-finished nodes (metered, never delivered);
* per-node randomness is derived from ``(seed, node_id)`` only, never from
  invocation counts;
* ``wants_wake`` may change *when* a node is invoked but never *what* the
  run computes — a correct override only skips rounds the node would have
  ignored anyway, or rounds in which guaranteed inbound traffic wakes the
  node regardless (see the two patterns on
  :meth:`~repro.congest.algorithm.NodeAlgorithm.wants_wake`).

The contract extends to batches: a ``BatchOutbox`` must be
indistinguishable from its expanded dictionary form on every engine —
message/word counts, ``max_words_per_edge_round``, cut metering,
exception types and exception messages all equal, word for word.  The
fast path achieves this because a batch carries one payload whose cost is
target-independent: ``k`` messages of ``w`` words meter as ``k*w`` in one
update, the strictness check fires (against the batch's first target,
which is the first message the reference loop would have metered) before
any statistics are touched, and untrusted targets are validated in
reference order so the first offending target raises the same
``ProtocolError`` text.

``tests/test_engine_parity.py`` and ``tests/test_batch_outbox.py`` enforce
the contract differentially, and ``benchmarks/bench_engine_scaling.py`` /
``benchmarks/bench_solver_engines.py`` re-check it at benchmark scale via
the sweep runner's per-cell engine selection.

Per-round instrumentation: both engines deliver a structured
:class:`~repro.congest.network.RoundEvent` (round index, messages, words,
cut words, awake-node count) to an ``on_round`` callback — per run or as a
network-level default — as each round ends.  Events never affect
execution; the parity contract covers every field except ``awake``, which
deliberately exposes how many nodes each engine actually invoked.

Engine selection: the ``engine=`` constructor argument of
:class:`~repro.congest.network.CongestNetwork` wins; otherwise the
``REPRO_ENGINE`` environment variable; otherwise :data:`DEFAULT_ENGINE`.
Either names one of ``v1``, ``v2`` or ``v2-dict`` (case and surrounding
whitespace are ignored); any other name raises :class:`ValueError`.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

from repro.congest.errors import CongestionError, ProtocolError, RoundLimitError
from repro.congest.message import BatchOutbox, payload_words
from repro.congest.scheduler import ActivityScheduler, MailboxRing

try:  # numpy accelerates untrusted-batch validation; optional by design.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.congest.algorithm import NodeAlgorithm
    from repro.congest.network import (
        AlgorithmFactory,
        CongestNetwork,
        RunResult,
        RunStats,
    )

#: Environment variable overriding the engine for networks constructed
#: without an explicit ``engine=`` argument.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Engine used when neither the constructor nor the environment chooses.
DEFAULT_ENGINE = "v2"

_ALIASES = {"v1": "v1", "v2": "v2", "v2-dict": "v2-dict"}

#: Sentinel for payloads whose word cost cannot be cached by value.
_UNCACHEABLE = object()

#: Safety valve: drop the payload-shape cache if a pathological workload
#: keeps minting distinct payload values.
_CACHE_LIMIT = 1 << 16


def resolve_engine_name(name: str | None = None) -> str:
    """Canonical engine name from an explicit choice or the environment."""
    if name is None:
        name = os.environ.get(ENGINE_ENV_VAR) or DEFAULT_ENGINE
    canonical = _ALIASES.get(str(name).strip().lower())
    if canonical is None:
        raise ValueError(
            f"unknown engine {name!r}; choose 'v1', 'v2' or 'v2-dict'"
        )
    return canonical


def _emit_round_event(
    hook, round_index: int, messages: int, words: int, awake: int,
    cut_words: int, label: str | None = None,
) -> None:
    """Deliver one RoundEvent to ``hook`` (no-op when ``hook`` is None).

    The single construction point for both engines and the spin loop, so
    the event shape cannot drift between v1 and v2.  ``label`` is the
    run-level stage label, stamped as ``RoundEvent.stage_label``.
    """
    if hook is None:
        return
    from repro.congest.network import RoundEvent

    hook(
        RoundEvent(
            round_index=round_index,
            messages=messages,
            words=words,
            awake=awake,
            cut_words=cut_words,
            stage_label=label,
        )
    )


def create_engine(network: "CongestNetwork", name: str | None = None) -> "Engine":
    """Instantiate the engine ``name`` (resolved per module rules) for ``network``."""
    canonical = resolve_engine_name(name)
    if canonical == "v1":
        return SynchronousEngine(network)
    return ActivityEngine(network, batch_fast_path=canonical == "v2")


class Engine:
    """Executes node algorithms in synchronous rounds on one network."""

    name: str = "?"

    def __init__(self, network: "CongestNetwork") -> None:
        self.network = network

    def run(
        self,
        factory: "AlgorithmFactory",
        inputs: Mapping[Any, Any] | None = None,
        max_rounds: int | None = None,
        trace: bool = False,
        on_round=None,
        label: str | None = None,
    ) -> "RunResult":
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def _setup(
        self,
        factory: "AlgorithmFactory",
        inputs: Mapping[Any, Any] | None,
        max_rounds: int | None,
        trace: bool,
        on_round=None,
    ):
        from repro.congest.network import DEFAULT_ROUND_FACTOR, RunStats

        network = self.network
        if max_rounds is None:
            max_rounds = DEFAULT_ROUND_FACTOR * network.n * network.n + 1000
        views = network._make_views(inputs)
        algorithms = [factory(view) for view in views]
        stats = RunStats(word_bits=network.word_bits)
        timeline = [] if trace else None
        # Per-run callback wins; otherwise the network-level default.
        hook = on_round if on_round is not None else network.on_round
        return algorithms, stats, timeline, max_rounds, hook

    @staticmethod
    def _end_round(
        timeline, hook, round_index: int, messages: int, words: int,
        awake: int, cut_words: int, alive: int, label: str | None,
    ) -> None:
        """Close one round: its timeline record (when tracing) and event."""
        if timeline is not None:
            from repro.congest.network import RoundRecord

            timeline.append(
                RoundRecord(
                    round_index=round_index,
                    messages=messages,
                    words=words,
                    active_nodes=alive,
                )
            )
        _emit_round_event(
            hook, round_index, messages, words, awake, cut_words, label
        )

    def _result(self, by_id: dict[int, Any], stats, timeline):
        """The run's result from its per-node outputs, by ascending id."""
        from repro.congest.network import RunResult

        label_of = self.network._label_of
        return RunResult(
            outputs={label_of[nid]: output for nid, output in by_id.items()},
            stats=stats,
            by_id=by_id,
            trace=timeline,
        )


class SynchronousEngine(Engine):
    """Engine v1: the reference every-node-every-round loop."""

    name = "v1"

    def run(
        self,
        factory: "AlgorithmFactory",
        inputs: Mapping[Any, Any] | None = None,
        max_rounds: int | None = None,
        trace: bool = False,
        on_round=None,
        label: str | None = None,
    ) -> "RunResult":
        from repro.congest.network import RoundRecord

        network = self.network
        algorithms, stats, timeline, max_rounds, hook = self._setup(
            factory, inputs, max_rounds, trace, on_round
        )

        pending: dict[int, dict[int, Any]] = {i: {} for i in range(network.n)}
        for alg in algorithms:
            network._collect(alg, alg.on_start(), pending, stats)
        if timeline is not None:
            timeline.append(
                RoundRecord(
                    round_index=0,
                    messages=stats.messages,
                    words=stats.total_words,
                    active_nodes=sum(1 for a in algorithms if not a.done),
                )
            )
        _emit_round_event(
            hook, 0, stats.messages, stats.total_words, len(algorithms),
            stats.cut_words, label,
        )

        while not all(alg.done for alg in algorithms):
            if stats.rounds >= max_rounds:
                raise RoundLimitError(
                    f"no termination within {max_rounds} rounds "
                    f"({sum(1 for a in algorithms if not a.done)} nodes alive)"
                )
            stats.rounds += 1
            before_messages = stats.messages
            before_words = stats.total_words
            before_cut = stats.cut_words
            awake = 0
            inboxes, pending = pending, {i: {} for i in range(network.n)}
            for alg in algorithms:
                if alg.done:
                    continue
                awake += 1
                outbox = alg.on_round(inboxes[alg.node.id])
                # A node may send a final outbox in the round it finishes.
                network._collect(alg, outbox, pending, stats)
            if timeline is not None:
                timeline.append(
                    RoundRecord(
                        round_index=stats.rounds,
                        messages=stats.messages - before_messages,
                        words=stats.total_words - before_words,
                        active_nodes=sum(1 for a in algorithms if not a.done),
                    )
                )
            _emit_round_event(
                hook, stats.rounds, stats.messages - before_messages,
                stats.total_words - before_words, awake,
                stats.cut_words - before_cut, label,
            )

        return self._result(
            {alg.node.id: alg.output for alg in algorithms}, stats, timeline
        )


def _payload_cache_key(payload: Any) -> Any:
    """Value key for the word-cost cache, or :data:`_UNCACHEABLE`.

    Value-keyed caching is only sound when equal values imply equal costs.
    Floats break that (``1 == 1.0`` but an int costs one word, a float
    two), so only ``None``/``int``/``bool``/``str`` scalars and flat tuples
    of those are cached; everything else is recomputed.
    """
    if payload is None or isinstance(payload, (int, str)):
        return payload
    if type(payload) is tuple:
        for item in payload:
            if item is not None and not isinstance(item, (int, str)):
                return _UNCACHEABLE
        return payload
    return _UNCACHEABLE


#: Untrusted batches at least this long are validated with numpy (when
#: installed); shorter ones loop — ndarray setup costs more than it saves.
_NUMPY_MIN_BATCH = 32


class ActivityEngine(Engine):
    """Engine v2: wake only nodes with traffic or an explicit self-wake.

    With ``batch_fast_path`` (the default, canonical name ``"v2"``) a
    :class:`BatchOutbox` is metered once for all its targets and delivered
    via :meth:`MailboxRing.post_batch`; without it (canonical name
    ``"v2-dict"``) batches expand through the same per-message loop as
    dictionary outboxes, reproducing the engine exactly as it behaved
    before batching existed.  Both configurations satisfy the parity
    contract; only wall-clock differs.  Collection is the network's
    :class:`OutboxMeter`.
    """

    def __init__(
        self, network: "CongestNetwork", batch_fast_path: bool = True
    ) -> None:
        super().__init__(network)
        self.name = "v2" if batch_fast_path else "v2-dict"
        self._meter = OutboxMeter(network, batch_fast_path)

    def run(
        self,
        factory: "AlgorithmFactory",
        inputs: Mapping[Any, Any] | None = None,
        max_rounds: int | None = None,
        trace: bool = False,
        on_round=None,
        label: str | None = None,
    ) -> "RunResult":
        network = self.network
        algorithms, stats, timeline, max_rounds, hook = self._setup(
            factory, inputs, max_rounds, trace, on_round
        )
        ring = MailboxRing(network.n)
        scheduler = ActivityScheduler(network.n)
        collect = self._meter.collect

        for alg in algorithms:
            collect(alg.node.id, alg.on_start(), ring, stats)
            if alg.done:
                scheduler.node_finished()
            elif alg.wants_wake():
                scheduler.request_wake(alg.node.id)
        self._end_round(
            timeline, hook, 0, stats.messages, stats.total_words,
            len(algorithms), stats.cut_words, scheduler.live, label,
        )

        while scheduler.live:
            if stats.rounds >= max_rounds:
                raise RoundLimitError(
                    f"no termination within {max_rounds} rounds "
                    f"({scheduler.live} nodes alive)"
                )
            stats.rounds += 1
            before_messages = stats.messages
            before_words = stats.total_words
            before_cut = stats.cut_words
            awake = 0
            runnable = scheduler.runnable(ring.flip())
            for node_id in runnable:
                alg = algorithms[node_id]
                if alg.done:
                    # Late traffic addressed to a finished node: metered at
                    # send time (as in v1), never delivered.
                    continue
                awake += 1
                outbox = alg.on_round(ring.inbox(node_id))
                collect(node_id, outbox, ring, stats)
                if alg.done:
                    scheduler.node_finished()
                elif alg.wants_wake():
                    scheduler.request_wake(node_id)
            self._end_round(
                timeline, hook, stats.rounds,
                stats.messages - before_messages,
                stats.total_words - before_words, awake,
                stats.cut_words - before_cut, scheduler.live, label,
            )
            if not runnable and not ring.has_pending():
                self._spin_to_limit(
                    stats, timeline, max_rounds, scheduler, hook, label
                )

        return self._result(
            {alg.node.id: alg.output for alg in algorithms}, stats, timeline
        )

    def _spin_to_limit(
        self, stats, timeline, max_rounds: int, scheduler, hook=None,
        label: str | None = None,
    ) -> None:
        """Every live node sleeps and no traffic is in flight: nothing can
        ever happen again.  The reference engine would keep running empty
        rounds to the limit; reproduce its trace and error exactly."""
        while True:
            if stats.rounds >= max_rounds:
                raise RoundLimitError(
                    f"no termination within {max_rounds} rounds "
                    f"({scheduler.live} nodes alive)"
                )
            stats.rounds += 1
            self._end_round(
                timeline, hook, stats.rounds, 0, 0, 0, 0, scheduler.live,
                label,
            )


class OutboxMeter:
    """Engine v2's validate-and-meter path for one network's outboxes.

    The single copy of v2's collection logic, shared by
    :class:`ActivityEngine` and the compiled MPC shards
    (:mod:`repro.mpc.compile_congest`): the value-keyed payload-cost cache
    (:meth:`words`), the per-message loop with its identity memo, and —
    with ``batch_fast_path`` — the :class:`BatchOutbox` fast path, whose
    trusted broadcasts cost one strictness check and an O(1)
    :class:`~repro.congest.network.RunStats` update.

    Delivery goes to a *sink*: ``post(sender, target, payload, words)``
    per message and ``post_batch(sender, targets, payload, words)`` per
    batch, where ``words`` is the payload cost just metered.  Engine v2's
    sink is its :class:`~repro.congest.scheduler.MailboxRing`, which
    ignores the cost; the compiled shards' sink charges it to the
    machines' shuffle loads, so every payload is sized once.
    """

    def __init__(
        self, network: "CongestNetwork", batch_fast_path: bool = True
    ) -> None:
        from repro.congest.clique import CongestedCliqueNetwork
        from repro.congest.network import CongestNetwork

        self.network = network
        self._batch_fast_path = batch_fast_path
        #: payload value -> word cost, shared across runs on this network
        #: (word size is fixed per network, so keys need not include it).
        self._words_cache: dict[Any, int] = {}
        #: Whether ``_can_send`` is one of the two stock rules.  A subclass
        #: override must stay honored per target, so trusted batches lose
        #: their validation shortcut on such networks.
        self._stock_can_send = type(network)._can_send in (
            CongestNetwork._can_send,
            CongestedCliqueNetwork._can_send,
        )
        #: Plain-CONGEST adjacency (not clique, not overridden) — the only
        #: rule the vectorized membership test knows how to evaluate.
        self._plain_adjacency = (
            type(network)._can_send is CongestNetwork._can_send
        )
        #: Nodes whose adjacency contains themselves (graphs with self
        #: loops).  A trusted broadcast from such a node must raise the
        #: reference loop's "addressed itself" error, so it is demoted to
        #: the validating path.
        self._self_loops = frozenset(
            node_id
            for node_id, neighbors in network._adjacency_sets.items()
            if node_id in neighbors
        )
        #: node id -> numpy array of its neighbors, built lazily for the
        #: vectorized validation of untrusted batches.
        self._nbr_arrays: dict[int, Any] = {}
        #: Broadcast batches need no per-node trust decision at all when
        #: the adjacency rule is stock and the graph has no self loops.
        self._trust_broadcasts = self._stock_can_send and not self._self_loops
        #: Overridden ``_meter`` resolved once — the network's class is
        #: fixed for the meter's lifetime, so the virtual-dispatch check
        #: need not be repeated on every outbox.
        self._custom_meter = (
            type(network)._meter
            if type(network)._meter is not CongestNetwork._meter
            else None
        )

    def words(self, payload: Any) -> int:
        """``payload_words(payload)``, cached by value where that is sound."""
        key = _payload_cache_key(payload)
        if key is _UNCACHEABLE:
            return payload_words(payload, self.network.word_bits)
        cache = self._words_cache
        cached = cache.get(key)
        if cached is None:
            if len(cache) >= _CACHE_LIMIT:
                cache.clear()
            cached = payload_words(payload, self.network.word_bits)
            cache[key] = cached
        return cached

    def collect(
        self,
        sender: int,
        outbox: Mapping[int, Any] | BatchOutbox | None,
        sink: Any,
        stats: "RunStats",
    ) -> None:
        """Validate, meter and deliver one node's outbox into ``sink``."""
        if not outbox:
            return
        # Metering below is an inlined fast path of CongestNetwork._meter;
        # a subclass that overrides _meter must keep being honored
        # (resolved once at construction), so fall back to the virtual call
        # for it (as _can_send always is).
        custom_meter = self._custom_meter
        if (
            custom_meter is None
            and self._batch_fast_path
            and type(outbox) is BatchOutbox
        ):
            self._collect_batch(sender, outbox, sink, stats)
            return
        network = self.network
        n = network.n
        word_limit = network.word_limit
        strict = network.strict
        cut = network._cut
        word_cost = self.words
        post = sink.post
        # Broadcasts reuse one payload object for every neighbor; a
        # single-slot identity memo skips even the cache lookup for them.
        prev_payload: Any = _UNCACHEABLE
        prev_words = 0
        for target, payload in outbox.items():
            if target == sender:
                raise ProtocolError(f"node {sender} addressed itself")
            if not isinstance(target, int) or not 0 <= target < n:
                raise ProtocolError(
                    f"node {sender} addressed invalid target {target!r}"
                )
            if not network._can_send(sender, target):
                raise ProtocolError(
                    f"node {network.label_of(sender)!r} is not adjacent to "
                    f"{network.label_of(target)!r} in the communication graph"
                )
            if custom_meter is not None:
                custom_meter(network, sender, target, payload, stats)
                post(sender, target, payload, word_cost(payload))
                continue
            if payload is prev_payload:
                words = prev_words
            else:
                words = word_cost(payload)
                prev_payload = payload
                prev_words = words
            if words > word_limit and strict:
                raise CongestionError(
                    f"message {network.label_of(sender)!r} -> "
                    f"{network.label_of(target)!r} is {words} words but the "
                    f"per-edge budget is {word_limit} words of "
                    f"{network.word_bits} bits"
                )
            stats.messages += 1
            stats.total_words += words
            if words > stats.max_words_per_edge_round:
                stats.max_words_per_edge_round = words
            if cut and frozenset((sender, target)) in cut:
                stats.cut_words += words
            post(sender, target, payload, words)

    # -- batched outbox fast path ------------------------------------------

    def _collect_batch(
        self,
        sender: int,
        outbox: BatchOutbox,
        sink: Any,
        stats: "RunStats",
    ) -> None:
        """Meter and deliver a uniform-payload batch in O(1) + delivery.

        Must be indistinguishable from running the per-message loop over
        ``outbox.items()`` — including which exception fires first.  The
        reference order for a batch ``[t0, t1, ...]`` is: validate ``t0``,
        meter the payload (strictness check), then validate ``t1...`` —
        because the per-message loop meters ``t0`` (raising on oversize)
        before it ever looks at ``t1``.  Statistics are only touched once
        every check has passed, which matches the reference loop whenever
        it raises (a run that raises never reports stats).
        """
        network = self.network
        targets = outbox.targets
        payload = outbox.payload
        trusted = outbox.trusted and (
            self._trust_broadcasts
            or (self._stock_can_send and sender not in self._self_loops)
        )
        if not trusted:
            self._validate_targets(sender, targets[:1])
        words = self.words(payload)
        if words > network.word_limit and network.strict:
            raise CongestionError(
                f"message {network.label_of(sender)!r} -> "
                f"{network.label_of(targets[0])!r} is {words} words but the "
                f"per-edge budget is {network.word_limit} words of "
                f"{network.word_bits} bits"
            )
        if not trusted:
            self._validate_targets(sender, targets[1:])
        count = len(targets)
        stats.messages += count
        stats.total_words += count * words
        if words > stats.max_words_per_edge_round:
            stats.max_words_per_edge_round = words
        cut = network._cut
        if cut:
            for target in targets:
                if frozenset((sender, target)) in cut:
                    stats.cut_words += words
        sink.post_batch(sender, targets, payload, words)

    def _validate_targets(self, sender: int, targets: tuple[int, ...]) -> None:
        """Reference-order validation of untrusted batch targets.

        Vectorized with numpy for long batches on plain-CONGEST networks;
        when the vectorized check finds any violation it falls through to
        the sequential loop so the *first* offending target raises exactly
        the error the per-message loop would have raised.
        """
        network = self.network
        n = network.n
        if (
            _np is not None
            and self._plain_adjacency
            and len(targets) >= _NUMPY_MIN_BATCH
            # The reference loop accepts exactly Python ints (bools ride
            # along via isinstance); numpy scalars coerce into an integer
            # ndarray but must still be *rejected*, so anything that is
            # not a plain int falls through to the sequential loop and
            # raises (or accepts, for bools) exactly as v1 would.
            and all(type(t) is int for t in targets)
        ):
            arr = _np.asarray(targets)
            if arr.dtype.kind in "iu":
                neighbors = self._nbr_arrays.get(sender)
                if neighbors is None:
                    neighbors = _np.asarray(
                        network._adjacency[sender], dtype=_np.int64
                    )
                    self._nbr_arrays[sender] = neighbors
                ok = (
                    (arr != sender)
                    & (arr >= 0)
                    & (arr < n)
                    & _np.isin(arr, neighbors)
                )
                if bool(ok.all()):
                    return
        can_send = network._can_send
        for target in targets:
            if target == sender:
                raise ProtocolError(f"node {sender} addressed itself")
            if not isinstance(target, int) or not 0 <= target < n:
                raise ProtocolError(
                    f"node {sender} addressed invalid target {target!r}"
                )
            if not can_send(sender, target):
                raise ProtocolError(
                    f"node {network.label_of(sender)!r} is not adjacent to "
                    f"{network.label_of(target)!r} in the communication graph"
                )
