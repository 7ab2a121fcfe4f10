"""The synchronous CONGEST runtime.

``CongestNetwork.run`` executes one node algorithm per vertex of the input
graph in synchronous rounds, delivering messages between rounds, metering
round/message/bit usage and enforcing the per-edge bandwidth bound.

The round loop itself lives in :mod:`repro.congest.engine` and comes in
interchangeable implementations: the reference engine (``v1``), the
activity-scheduled engine (``v2``, the default) which only wakes nodes with
pending traffic or an explicit self-wake and meters batched outboxes in
O(1), and ``v2-dict`` (v2 without the batch fast path, the pre-batching
baseline).  Select one per network with the ``engine=`` constructor
argument or globally with the ``REPRO_ENGINE`` environment variable; all
must behave identically (see ``tests/test_engine_parity.py`` and
``tests/test_batch_outbox.py``).

Paper algorithms are sequences of phases whose round complexities add; the
:func:`run_stages` driver runs stage factories back-to-back on the same
network, with per-node ``state`` dictionaries carrying intermediate results
from one stage to the next.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

import networkx as nx

from repro.congest.algorithm import NodeAlgorithm, NodeView
from repro.congest.errors import CongestionError, ProtocolError
from repro.congest.message import BatchOutbox, payload_words, word_bits_for

AlgorithmFactory = Callable[[NodeView], NodeAlgorithm]

#: Default cap on simulated rounds, as a multiple of n^2 (quadratic round
#: counts are the worst case the paper discusses).
DEFAULT_ROUND_FACTOR = 20


def combine_word_bits(left: Any, right: Any, what: str, across: str) -> int:
    """Resolve the word size of ``left + right`` for stats aggregates.

    Word counts measured in different word sizes are not commensurable —
    silently taking the max would misreport ``total_bits`` for the
    smaller-word side — so mixing two *populated* aggregates raises.  An
    all-zero side (``is_empty()``) is exempt: it is an additive identity
    whatever word size it was constructed with, so ``sum(...,
    Stats())`` works over any homogeneous collection and adopts the
    populated side's word size.  Shared by :class:`RunStats` and
    :class:`repro.mpc.runtime.MPCRunStats`.
    """
    if (
        left.word_bits
        and right.word_bits
        and left.word_bits != right.word_bits
        and not (left.is_empty() or right.is_empty())
    ):
        raise ValueError(
            f"cannot add {what} with different word sizes "
            f"({left.word_bits} vs {right.word_bits} bits); convert to "
            f"bits before aggregating across {across}"
        )
    if left.is_empty() and right.word_bits:
        return right.word_bits
    if right.is_empty() and left.word_bits:
        return left.word_bits
    return left.word_bits or right.word_bits


@dataclass
class RunStats:
    """Resource usage of one (or several, summed) simulator runs."""

    rounds: int = 0
    messages: int = 0
    total_words: int = 0
    max_words_per_edge_round: int = 0
    cut_words: int = 0
    word_bits: int = 0

    @property
    def total_bits(self) -> int:
        return self.total_words * self.word_bits

    @property
    def cut_bits(self) -> int:
        return self.cut_words * self.word_bits

    def is_empty(self) -> bool:
        """True when every counter is zero (word size aside)."""
        return not (
            self.rounds
            or self.messages
            or self.total_words
            or self.max_words_per_edge_round
            or self.cut_words
        )

    def __add__(self, other: "RunStats") -> "RunStats":
        word_bits = combine_word_bits(self, other, "RunStats", "networks")
        return RunStats(
            rounds=self.rounds + other.rounds,
            messages=self.messages + other.messages,
            total_words=self.total_words + other.total_words,
            max_words_per_edge_round=max(
                self.max_words_per_edge_round, other.max_words_per_edge_round
            ),
            cut_words=self.cut_words + other.cut_words,
            word_bits=word_bits,
        )


@dataclass
class RoundEvent:
    """One engine round, delivered to ``network.on_round`` as it ends.

    The only per-round record: the metrics collector, the tracer, the MPC
    parity check, tests and benchmarks all read this stream (subscribe
    with :meth:`CongestNetwork.subscribe`).  Round 0 carries the
    ``on_start`` sends.  ``alive`` counts the nodes still running after
    the round.

    Equality is the engine parity contract: ``round_index``,
    ``messages``, ``words``, ``cut_words``, ``alive`` and ``stage_label``
    must agree on every engine, so two runs are round-for-round identical
    iff their event lists are ``==``.  ``awake`` counts the nodes actually
    *invoked* this round, which is where the engines legitimately differ —
    v1 invokes every live node, v2 only traffic- or self-woken ones — so
    it is left out of the comparison.  ``stage_label`` is the ``label=``
    passed to ``run`` (``None`` for unlabelled runs).
    """

    round_index: int
    messages: int
    words: int
    cut_words: int
    alive: int
    awake: int = field(compare=False)
    stage_label: str | None = None


@dataclass
class RunResult:
    """Outputs and resource usage of a completed run."""

    outputs: dict[Any, Any]
    stats: RunStats
    by_id: dict[int, Any] = field(default_factory=dict)


class CongestNetwork:
    """A CONGEST communication network over a :class:`networkx.Graph`.

    Parameters
    ----------
    graph:
        The communication graph ``G``.  Nodes may have arbitrary hashable
        labels; the network assigns integer identifiers ``0..n-1`` in a
        deterministic (sorted-by-repr) order.
    word_limit:
        Maximum words per message (a word is ``ceil(log2(n+1))`` bits);
        models the O(log n)-bit bound.
    strict:
        If True, oversized messages raise :class:`CongestionError`;
        otherwise they are metered but allowed (useful for measuring *how
        much* congestion a naive algorithm would create).
    seed:
        Seed for per-node private randomness.
    cut:
        Optional iterable of label pairs; traffic crossing these edges is
        metered separately (the Alice-Bob cut of Theorem 19).
    engine:
        Which execution engine runs the rounds: ``"v1"`` (reference),
        ``"v2"`` (activity-scheduled, default) or ``"v2-dict"`` (v2
        without the batch fast path).  ``None`` defers to the
        ``REPRO_ENGINE`` environment variable, then the package default.
    on_round:
        Optional first observer of the :class:`RoundEvent` stream; it sees
        every round of every ``run`` on this network.  More observers join
        through :meth:`subscribe`.
    """

    def __init__(
        self,
        graph: nx.Graph,
        word_limit: int = 8,
        strict: bool = True,
        seed: int = 0,
        cut: Iterable[tuple[Any, Any]] | None = None,
        engine: str | None = None,
        on_round: Callable[["RoundEvent"], None] | None = None,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise ValueError("network must have at least one node")
        self.graph = graph
        self.n = graph.number_of_nodes()
        self.word_bits = word_bits_for(self.n)
        self.word_limit = word_limit
        self.strict = strict
        self.seed = seed
        #: The round-event observer slot, read once per run by the engine.
        #: :meth:`subscribe` adds to it; assigning it replaces every
        #: observer.
        self.on_round = on_round
        #: Optional :class:`repro.trace.TraceRecorder`; purely an observer
        #: (a span per :meth:`run`), never touches metering or
        #: scheduling.  Set by :meth:`TraceRecorder.attach
        #: <repro.trace.TraceRecorder.attach>`.
        self.tracer = None
        #: Optional :class:`repro.metrics.MetricsCollector` back-reference,
        #: set by ``MetricsCollector.attach`` so solvers can publish
        #: deterministic convergence series.
        self.collector = None

        ordering = sorted(graph.nodes, key=repr)
        self._label_of = dict(enumerate(ordering))
        self._id_of = {label: i for i, label in self._label_of.items()}
        self._adjacency: dict[int, tuple[int, ...]] = {
            self._id_of[label]: tuple(
                sorted(self._id_of[nbr] for nbr in graph.neighbors(label))
            )
            for label in ordering
        }
        # Set form of the adjacency for O(1) membership in _can_send; the
        # sorted tuples above remain the public NodeView.neighbors order.
        self._adjacency_sets: dict[int, frozenset[int]] = {
            node_id: frozenset(neighbors)
            for node_id, neighbors in self._adjacency.items()
        }
        self._cut: set[frozenset[int]] = set()
        if cut is not None:
            for u, v in cut:
                self._cut.add(frozenset((self._id_of[u], self._id_of[v])))
        self.node_state: dict[int, dict] = {i: {} for i in range(self.n)}
        self._engine = self._create_engine(engine)

    def _create_engine(self, engine: str | None) -> Any:
        """The engine executing this network's rounds (see :meth:`run`).

        Networks with their own round loop — the MPC compiler's
        :class:`~repro.mpc.compile_congest.MPCCongestNetwork` — override
        this to install it instead of a CONGEST engine.
        """
        from repro.congest.engine import create_engine

        return create_engine(self, engine)

    @property
    def engine_name(self) -> str:
        """Canonical name of the engine executing this network's rounds."""
        return self._engine.name

    # -- identifier mapping ------------------------------------------------

    def id_of(self, label: Any) -> int:
        """Integer identifier of a graph label."""
        return self._id_of[label]

    def label_of(self, node_id: int) -> Any:
        """Graph label of an integer identifier."""
        return self._label_of[node_id]

    def ids(self) -> range:
        return range(self.n)

    def neighbors_of(self, node_id: int) -> tuple[int, ...]:
        return self._adjacency[node_id]

    def reset_state(self) -> None:
        """Clear the per-node stage-to-stage state dictionaries."""
        self.node_state = {i: {} for i in range(self.n)}

    def subscribe(self, observer: Callable[[RoundEvent], None]) -> None:
        """Add ``observer`` to the round-event stream.

        Afterwards ``on_round`` calls the earlier observers first, then
        ``observer``.  Events never affect execution.
        """
        previous = self.on_round
        if previous is None:
            self.on_round = observer
            return

        def both(event: RoundEvent) -> None:
            previous(event)
            observer(event)

        self.on_round = both

    # -- runtime -----------------------------------------------------------

    def _can_send(self, sender: int, target: int) -> bool:
        """Whether ``sender`` may address ``target`` this round."""
        return target in self._adjacency_sets[sender]

    def _make_views(self, inputs: Mapping[Any, Any] | None) -> list[NodeView]:
        views = []
        for node_id in range(self.n):
            label = self._label_of[node_id]
            node_input = None if inputs is None else inputs.get(label)
            rng = random.Random(f"{self.seed}/{node_id}")
            views.append(
                NodeView(
                    node_id=node_id,
                    label=label,
                    neighbors=self._adjacency[node_id],
                    n=self.n,
                    node_input=node_input,
                    state=self.node_state[node_id],
                    rng=rng,
                )
            )
        return views

    def _meter(
        self, sender: int, target: int, payload: Any, stats: RunStats
    ) -> None:
        words = payload_words(payload, self.word_bits)
        if words > self.word_limit and self.strict:
            raise CongestionError(
                f"message {self.label_of(sender)!r} -> {self.label_of(target)!r} "
                f"is {words} words but the per-edge budget is "
                f"{self.word_limit} words of {self.word_bits} bits"
            )
        stats.messages += 1
        stats.total_words += words
        stats.max_words_per_edge_round = max(
            stats.max_words_per_edge_round, words
        )
        if self._cut and frozenset((sender, target)) in self._cut:
            stats.cut_words += words

    def run(
        self,
        factory: AlgorithmFactory,
        inputs: Mapping[Any, Any] | None = None,
        max_rounds: int | None = None,
        label: str | None = None,
    ) -> RunResult:
        """Run one algorithm instance per node until all finish.

        Returns a :class:`RunResult` whose ``outputs`` are keyed by original
        graph labels.  Raises :class:`RoundLimitError` if the algorithm does
        not terminate within ``max_rounds`` (default ``20 * n**2 + 1000``).
        Each round ends with a :class:`RoundEvent` to ``on_round`` (round 0
        included) when an observer is subscribed.  ``label`` names the
        solver stage: it is every event's ``stage_label`` and the tracer's
        span name, and does not affect execution or metering.

        The round loop is executed by the engine chosen at construction
        time (see :mod:`repro.congest.engine`); every engine produces
        identical results.
        """
        tracer = self.tracer
        if tracer is None:
            return self._engine.run(factory, inputs, max_rounds, label)
        with tracer.span(
            label or "run", cat="stage", engine=self._engine.name, n=self.n
        ):
            return self._engine.run(factory, inputs, max_rounds, label)

    def _collect(
        self,
        alg: NodeAlgorithm,
        outbox: Mapping[int, Any] | BatchOutbox | None,
        pending: dict[int, dict[int, Any]],
        stats: RunStats,
    ) -> None:
        # The reference collector: one validation + one metering call per
        # (sender, target) pair.  A BatchOutbox is expanded through its
        # per-message ``items()`` view, so batches and dictionaries take
        # the identical loop here — this is the semantics the activity
        # engine's batch fast path must reproduce word for word.
        if not outbox:
            return
        sender = alg.node.id
        for target, payload in outbox.items():
            if target == sender:
                raise ProtocolError(f"node {sender} addressed itself")
            if not isinstance(target, int) or not 0 <= target < self.n:
                raise ProtocolError(
                    f"node {sender} addressed invalid target {target!r}"
                )
            if not self._can_send(sender, target):
                raise ProtocolError(
                    f"node {self.label_of(sender)!r} is not adjacent to "
                    f"{self.label_of(target)!r} in the communication graph"
                )
            self._meter(sender, target, payload, stats)
            pending[target][sender] = payload


def run_stages(
    network: CongestNetwork,
    stages: Iterable[AlgorithmFactory],
    inputs: Mapping[Any, Any] | None = None,
    max_rounds: int | None = None,
    reset_state: bool = True,
    stage_labels: Iterable[str | None] | None = None,
) -> tuple[RunResult, list[RunResult]]:
    """Run ``stages`` back-to-back, summing round/message statistics.

    Per-node ``state`` dicts persist across stages so a stage can leave
    results for the next (the paper's phases communicate the same way: the
    state a node holds when one phase ends is its input to the next).
    ``stage_labels`` optionally names the stages (passed as ``label=`` per
    run); extra labels are ignored, missing ones are ``None``.  The
    network's observers see every stage's events.

    Returns ``(combined, per_stage)`` where ``combined`` holds the outputs of
    the final stage and the summed stats.
    """
    if reset_state:
        network.reset_state()
    labels = list(stage_labels) if stage_labels is not None else []
    per_stage: list[RunResult] = []
    total = RunStats(word_bits=network.word_bits)
    last: RunResult | None = None
    for index, factory in enumerate(stages):
        last = network.run(
            factory,
            inputs=inputs,
            max_rounds=max_rounds,
            label=labels[index] if index < len(labels) else None,
        )
        per_stage.append(last)
        total = total + last.stats
    if last is None:
        raise ValueError("run_stages requires at least one stage")
    return RunResult(outputs=last.outputs, stats=total, by_id=last.by_id), per_stage
