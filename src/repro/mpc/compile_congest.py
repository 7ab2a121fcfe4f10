"""CONGEST-to-MPC round compilation: run any ``NodeAlgorithm`` on machines.

The classical simulation argument — one CONGEST round compiles to O(1) MPC
rounds once every vertex's incident messages fit on its host machine —
made executable.  :class:`MPCCongestNetwork` partitions the vertices of a
graph across low-space machines (budget ``S = ceil(n^alpha)`` words) and
executes any existing :class:`~repro.congest.algorithm.NodeAlgorithm`
**unchanged**, routing each CONGEST round through exactly one metered
shuffle of :class:`~repro.mpc.runtime.MPCRuntime`: a message between
co-hosted vertices stays machine-local, everything else becomes an
``(sender, target, payload)`` envelope to the target's host.

With ``compress=k > 1`` the compiler additionally performs **round
compression** — the "simulation with speedup" of the low-space MPC
literature, made executable.  When per-machine memory allows, ``k``
consecutive CONGEST rounds batch into *one* shuffle: each machine
prefetches the ``k``-hop-relevant frontier for its hosted vertices
(graph-exponentiation-style neighbor state — id plus adjacency per node
within ``k - 1`` hops — plus every boundary message addressed into that
neighborhood), then replays the ``k`` rounds locally with no further
communication.  The window length is chosen *adaptively*: the largest
``k' <= k`` whose prefetched frontier fits every machine's window budget
(:meth:`~repro.mpc.machine.Machine.window_budget_words`, the O(S) bound
with the explicit ``io_factor`` constant), falling back to the classical
``k' = 1`` compilation rather than raising.  Compression changes only
the MPC ledger — ``MPCRunStats.shuffles`` drops below
``MPCRunStats.congest_rounds`` — never the CONGEST ledger: outputs,
``RunStats``, traces and the per-round event stream stay word-for-word
identical to engine v2 at every ``k`` (the parity harness asserts it).

Two ledgers are kept at once, and that is the point:

* the **CONGEST ledger** — engine v2's
  :class:`~repro.congest.engine.OutboxMeter` validates and meters every
  (sender, target, payload) in the shards, so ``RunResult`` outputs,
  ``RunStats`` and traces are word-for-word identical to engines v1/v2 on
  the same graph and seed (the *parity claim*, asserted by
  :func:`solve_with_parity` against a live engine-v2 shadow network
  consuming the per-round ``RoundEvent`` stream);
* the **MPC ledger** — the runtime meters shuffle words, per-machine
  send/receive loads and budget violations, which is where ``alpha``
  bites: smaller budgets mean more machines, more cross traffic and
  eventually :class:`~repro.mpc.machine.MemoryBudgetExceeded`.

Each payload is sized once, when a shard collects it: the same word count
enters the CONGEST ledger and, for a message between machines, the
envelope cost (``ENVELOPE_HEADER_WORDS`` plus the payload) that the shard
adds to per-machine :class:`~repro.mpc.runtime.ShuffleLoads`.  Loads are
sums, so the parent adds the shards' integers and hands them to
:meth:`MPCRuntime.shuffle <repro.mpc.runtime.MPCRuntime.shuffle>`, which
checks the budgets and books them; the window planner builds a
compressed window's prefetch loads from the same per-message counts.
Metering in the shards is legitimate
for the reason component stability ([CzumajDP21]_) names: no ledger may
depend on how machines are laid out on shards, and a sum cannot.

There is one round loop, in the ``"mpc"`` :class:`~repro.congest.engine.Engine`
that the network installs in place of the CONGEST engines (so
:meth:`CongestNetwork.run` keeps the tracing tee and the engine base the
round-event construction).  Per window it plans the length, shuffles or
replays, and steps ``_CompiledShard`` handlers through one of two
executors of :mod:`repro.mpc.parallel`: in-process, with one shard of
every node (``workers=1``, or no ``fork``), or a pool of forked shard
workers.  The executor is the loop's only variable, so neither ledger
can depend on how machines are laid out on shards.

The MPC analogues anchoring this adapter: deterministic low-space ruling
sets compile CONGEST-style local steps the same way ([PaiP22]_,
arXiv:2205.12686), and the component-stability framework ([CzumajDP21]_,
arXiv:2106.01880) is exactly about which such simulations are legitimate
in sublinear space.
"""

from __future__ import annotations

import collections
import pickle
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any, NamedTuple

import networkx as nx

from repro.config import RunConfig
from repro.congest.engine import Engine, OutboxMeter
from repro.congest.errors import RoundLimitError
from repro.congest.network import (
    AlgorithmFactory,
    CongestNetwork,
    RoundEvent,
    RunResult,
    RunStats,
)
from repro.mpc import parallel as _parallel
from repro.mpc.machine import Machine, memory_budget
from repro.mpc.partition import partition_vertices
from repro.mpc.runtime import ENVELOPE_WORDS, MPCRuntime, ShuffleLoads

#: Window cap used by ``compress="auto"``: the planner probes windows up
#: to this length and the peak-hold estimator throttles the probing when
#: frontiers are persistently far over budget.
AUTO_COMPRESS_CAP = 8

#: Words of a shuffled CONGEST message beyond its payload: the routing
#: header plus the ``(sender, target)`` ids of its envelope.  A node id is
#: below ``n < 2**word_bits``, so it always costs one word.
ENVELOPE_HEADER_WORDS = ENVELOPE_WORDS + 2


class ParityError(AssertionError):
    """The compiled run diverged from the engine-v2 shadow run."""


class MPCCongestNetwork(CongestNetwork):
    """A CONGEST network whose rounds execute on low-space MPC machines.

    Drop-in for :class:`CongestNetwork` everywhere a solver accepts
    ``network=``: identifier mapping, metering, per-node randomness and
    state handling are inherited, so results match the CONGEST engines
    exactly; only the execution substrate (and the extra MPC ledger)
    differs.  Construction partitions vertices and their adjacency lists
    across machines and charges each machine's storage — a too-small
    ``alpha`` fails here, before any round runs.
    """

    def __init__(
        self,
        graph: nx.Graph,
        alpha: float = 0.8,
        word_limit: int = 8,
        strict: bool = True,
        seed: int = 0,
        cut: Iterable[tuple[Any, Any]] | None = None,
        on_round: Callable[[RoundEvent], None] | None = None,
        compress: int | str = 1,
        workers: int | None = None,
        faults: str | None = None,
    ) -> None:
        #: The validated options; ``workers`` is resolved from the
        #: ``REPRO_MPC_WORKERS`` override when not explicit.
        self.config = RunConfig(
            "mpc", alpha=alpha, compress=compress, workers=workers,
            faults=faults,
        )
        super().__init__(
            graph,
            word_limit=word_limit,
            strict=strict,
            seed=seed,
            cut=cut,
            on_round=on_round,
        )
        self.workers = self.config.workers
        self._estimator = None
        self._max_compress = compress
        if compress == "auto":
            from repro.metrics.adaptive import PeakHoldEstimator

            self._max_compress = AUTO_COMPRESS_CAP
            self._estimator = PeakHoldEstimator()
        self.budget_words = memory_budget(self.n, alpha)
        self.assignment = partition_vertices(graph, self.budget_words, seed=seed)
        self._host = self.assignment.machine_of
        #: node id -> hosts of its off-machine neighbors, one entry per
        #: neighbor: the machines a broadcast from the node ships to.
        host_of = self._host.__getitem__
        self._cross_hosts: list[tuple[int, ...]] = [
            tuple([h for h in map(host_of, self._adjacency[u]) if h != own])
            for u, own in enumerate(self._host)
        ]
        self.machines = [
            Machine(mid, self.budget_words)
            for mid in range(self.assignment.num_machines)
        ]
        for node_id, mid in enumerate(self._host):
            self.machines[mid].charge(
                1 + len(self._adjacency[node_id]),
                what=f"vertex {self.label_of(node_id)!r} and its adjacency",
            )
        self.runtime = MPCRuntime(self.machines, self.word_bits)
        # Frontier tables for round compression, built lazily on the first
        # compressed window (all graph-static, so one build serves every
        # run on this network).
        self._hop_dist: list[dict[int, int]] | None = None
        self._state_costs: list[int] | None = None
        # radius -> per-node tuple of machines at hop distance *exactly*
        # that radius (radius 0 is the host).  The window planner walks
        # candidate lengths incrementally through these deltas instead of
        # re-counting the whole frontier per candidate.
        self._delta_watchers: dict[int, list[tuple[int, ...]]] = {}
        # radius -> cumulative shuffle loads of *state* shipping for a
        # window of radius r.  These loads depend only on the graph and
        # partition — never on the pending messages — so they are computed
        # once per radius and reused by every window planned afterwards
        # (see planner_stats for the pin).
        self._state_load_cache: dict[int, ShuffleLoads] = {}
        #: Window-planner work counters: ``windows_planned`` counts full
        #: candidate scans, ``state_radii_built`` counts (once-per-radius)
        #: static frontier-load builds — the latter stays bounded by the
        #: window cap no matter how many windows are planned.
        self.planner_stats = {"windows_planned": 0, "state_radii_built": 0}
        #: Fault-injection plane: attaching a plan enables checkpointed
        #: crash recovery on the shard pool.  No ``faults`` (the default)
        #: leaves the fault-free hot path untouched.
        self.fault_injector = (
            self.runtime.attach_faults(faults, seed) if faults else None
        )

    @property
    def num_machines(self) -> int:
        return self.assignment.num_machines

    def partition_digest(self) -> str:
        """Cross-process-stable fingerprint of the vertex partition."""
        return self.assignment.digest()

    def mpc_summary(self) -> dict[str, Any]:
        """JSON-ready MPC ledger for sweep payloads and benchmarks."""
        summary = {
            "model": "mpc",
            "alpha": self.config.alpha,
            "compress": self.config.compress,
            "budget_words": self.budget_words,
            "machines": self.num_machines,
            "partition_digest": self.partition_digest(),
            "shuffle": self.runtime.stats.to_json(),
        }
        if self._estimator is not None:
            auto = self._estimator.to_json()
            auto["cap"] = self._max_compress
            summary["auto"] = auto
        return summary

    def fault_report(self) -> dict[str, Any] | None:
        """Injected-fault/recovery summary, or ``None`` when fault-free.

        Deliberately *not* part of :meth:`mpc_summary`: the summary is
        the parity-compared ledger, and the whole point of the recovery
        contract is that it is byte-identical with and without faults.
        """
        if self.fault_injector is None:
            return None
        return self.fault_injector.report()

    # -- compiled execution -------------------------------------------------

    def _create_engine(self, engine: str | None) -> "_CompiledEngine":
        # The compiled round loop replaces the CONGEST engines outright, so
        # construction never depends on ``engine``/``REPRO_ENGINE``.
        return _CompiledEngine(self)

    def _node_shards(self, workers: int) -> list[tuple[int, ...]]:
        """Group hosted node ids by shard: machines round-robin to workers.

        Grouping by machine (not by node) keeps a machine's whole vertex
        set on one shard worker, mirroring the model: a shard executes the
        local computation of *machines*, the parent executes the shuffles.
        Empty shards (machines with no vertices) are dropped.
        """
        shards = []
        for machine_ids in _parallel.plan_shards(self.num_machines, workers):
            members = set(machine_ids)
            nodes = tuple(
                nid for nid in range(self.n) if self._host[nid] in members
            )
            if nodes:
                shards.append(nodes)
        return shards

    # -- round compression --------------------------------------------------

    def _ensure_frontier_tables(self) -> None:
        """Hop distances and state-payload costs, built once per network.

        ``_hop_dist[mid]`` maps node id -> hop distance from machine
        ``mid``'s hosted vertex set, computed to the maximum window length
        minus one hop by multi-source BFS; nodes further away are absent.
        The state payload of node ``u`` is its id plus its adjacency tuple
        — exactly the words hosting ``u`` costs — which is what a machine
        prefetches to replay ``u`` locally during a compressed window; its
        shuffle cost is one envelope word plus one word per id.
        """
        if self._hop_dist is not None:
            return
        max_radius = self._max_compress - 1
        hop_dist: list[dict[int, int]] = []
        for mid in range(self.num_machines):
            dist = {
                u: 0 for u, host in enumerate(self._host) if host == mid
            }
            frontier = list(dist)
            for d in range(1, max_radius + 1):
                grown: list[int] = []
                for u in frontier:
                    for v in self._adjacency[u]:
                        if v not in dist:
                            dist[v] = d
                            grown.append(v)
                frontier = grown
                if not frontier:
                    break
            hop_dist.append(dist)
        self._hop_dist = hop_dist
        self._state_costs = [
            ENVELOPE_WORDS + 1 + len(self._adjacency[u]) for u in range(self.n)
        ]

    def _delta_watchers_at(self, radius: int) -> list[tuple[int, ...]]:
        """Per node: the machines at hop distance *exactly* ``radius``.

        Machine ``mid`` "watches" node ``u`` at radius ``r`` when some
        hosted vertex of ``mid`` lies within ``r`` hops of ``u`` — then a
        compressed window of ``r + 1`` rounds obliges ``mid`` to prefetch
        ``u``'s state and any message addressed to ``u``.  The watcher set
        at radius ``r`` is the disjoint union of these deltas at radii
        ``0..r`` (radius 0 being the host machine, whose copies are free),
        so the window planner can extend a candidate's frontier loads to
        the next candidate by applying one delta instead of re-counting
        every message against every watcher.  Graph-static, cached per
        radius across windows.
        """
        cached = self._delta_watchers.get(radius)
        if cached is not None:
            return cached
        self._ensure_frontier_tables()
        if radius == 0:
            cached = [(self._host[u],) for u in range(self.n)]
        else:
            delta_lists: list[list[int]] = [[] for _ in range(self.n)]
            for mid, dist in enumerate(self._hop_dist):
                for u, d in dist.items():
                    if d == radius:
                        delta_lists[u].append(mid)
            cached = [tuple(machines) for machines in delta_lists]
        self._delta_watchers[radius] = cached
        return cached

    def _state_loads_upto(self, radius: int) -> ShuffleLoads:
        """Cumulative shuffle loads of *state* shipping up to ``radius``.

        The state half of a window's frontier — every foreign node's id
        plus adjacency within ``radius`` hops of each machine's hosted
        set — depends only on the graph and the partition, never on the
        pending messages.  Each radius is built once (from the previous
        radius plus one watcher delta), cached for the lifetime of the
        network, and shared by every window planned afterwards, which
        reads it without mutating it;
        ``planner_stats["state_radii_built"]`` pins the build count.
        """
        cached = self._state_load_cache.get(radius)
        if cached is not None:
            return cached
        if radius == 0:
            # Radius 0 is the host machine's own nodes: no state ships.
            cached = ShuffleLoads.zeros(self.num_machines)
        else:
            prev = self._state_loads_upto(radius - 1)
            in_words = list(prev.in_words)
            out_words = list(prev.out_words)
            messages = prev.messages
            words = prev.words
            delta = self._delta_watchers_at(radius)
            state_costs = self._state_costs
            host = self._host
            for u in range(self.n):
                added = delta[u]
                if not added:
                    continue
                cost = state_costs[u]
                for mid in added:
                    in_words[mid] += cost
                shipped = cost * len(added)
                out_words[host[u]] += shipped
                messages += len(added)
                words += shipped
            cached = ShuffleLoads(in_words, out_words, messages, words)
            self.planner_stats["state_radii_built"] += 1
        self._state_load_cache[radius] = cached
        return cached

    def _plan_window(
        self, costs: dict[int, dict[int, int]] | None
    ) -> tuple[int, ShuffleLoads | None]:
        """Adaptively choose this window's length ``k`` and its prefetch.

        Returns the largest ``k`` up to the window cap (``compress``, or
        ``AUTO_COMPRESS_CAP`` for ``compress="auto"``) such that every
        machine's prefetched frontier fits both sides (send and receive)
        of every machine's
        :meth:`~repro.mpc.machine.Machine.window_budget_words`, together
        with that frontier's :class:`~repro.mpc.runtime.ShuffleLoads` —
        the prefetch shuffle the loop meters (``None`` when ``k = 1``).
        A machine prefetches (a) the state payload — id plus adjacency —
        of each foreign node within ``k - 1`` hops of its hosted set, and
        (b) a copy of each pending message whose target lies in that
        neighborhood: exactly what it needs to replay the window's rounds
        for its own vertices without further communication.  Messages are
        deliberately *replicated* to every watching machine; that fan-out
        is the real word cost of graph exponentiation.  Message costs come
        from the payload words ``costs[target][sender]`` the shards metered
        when they collected the messages, so nothing is sized again, and
        no envelope is built: the replay delivers locally.  Frontiers grow
        monotonically with ``k``, so the scan stops at the first radius
        that no longer fits; when even ``k = 2`` does not fit the window
        degrades to the classical one-round-one-shuffle path (``k = 1``)
        instead of raising.

        The candidate scan is incremental, and split by what varies: the
        *state* half of every candidate's loads is pending-independent
        and comes from the per-radius cumulative cache
        (:meth:`_state_loads_upto` — built once per radius across all
        windows of all shuffles); only the *message* half is counted per
        window, carrying over from candidate ``k`` to ``k + 1`` by
        applying the radius-``k`` delta watchers.  One window therefore
        costs one pass over (messages x watching machines) at the
        largest radius probed — no per-candidate or per-window re-count
        of the static frontier.  In auto mode the peak-hold estimator
        observes the ``k = 2`` frontier-load fraction each planned
        window and short-circuits planning to ``k = 1`` while the held
        peak says even the smallest window is hopelessly over budget.
        """
        if self._max_compress <= 1:
            return 1, None
        estimator = self._estimator
        if estimator is not None and estimator.should_skip():
            estimator.window_skipped()
            return 1, None
        self._ensure_frontier_tables()
        self.planner_stats["windows_planned"] += 1
        budgets = [m.window_budget_words() for m in self.machines]
        host = self._host
        msgs_by_target: dict[int, list[tuple[int, int]]] = {}
        for target, senders in costs.items():
            if not senders:
                continue
            msgs_by_target[target] = [
                (host[sender], ENVELOPE_HEADER_WORDS + words)
                for sender, words in senders.items()
            ]
        msg_in = [0] * self.num_machines
        msg_out = [0] * self.num_machines
        messages = words = 0
        best, best_loads = 1, None
        for k in range(2, self._max_compress + 1):
            # Candidate k needs the frontier at radius k-1; extend the
            # carried message loads by the missing radii (0..k-1 for the
            # first candidate, just k-1 afterwards) and pull the state
            # loads from the cumulative cache.
            radii = range(k) if k == 2 else (k - 1,)
            for radius in radii:
                delta = self._delta_watchers_at(radius)
                for target, entries in msgs_by_target.items():
                    for mid in delta[target]:
                        for sender_host, cost in entries:
                            if mid != sender_host:
                                msg_in[mid] += cost
                                msg_out[sender_host] += cost
                                messages += 1
                                words += cost
            state = self._state_loads_upto(k - 1)
            in_words = [a + b for a, b in zip(state.in_words, msg_in)]
            out_words = [a + b for a, b in zip(state.out_words, msg_out)]
            if estimator is not None and k == 2:
                estimator.observe(
                    max(
                        max(load_in, load_out) / budget
                        for load_in, load_out, budget in zip(
                            in_words, out_words, budgets
                        )
                    )
                )
            if any(
                load_in > budget or load_out > budget
                for load_in, load_out, budget in zip(
                    in_words, out_words, budgets
                )
            ):
                break
            best = k
            best_loads = ShuffleLoads(
                in_words, out_words, state.messages + messages,
                state.words + words,
            )
        if estimator is not None:
            estimator.record_choice(best)
        return best, best_loads


class _LoadSink:
    """Where a compiled shard's :class:`OutboxMeter` delivers one step.

    ``pending`` collects each target's ``{sender: payload}`` inbox (in
    ascending sender order, since the shard runs its nodes in ascending
    order).  Every message between nodes on different machines is an
    envelope of the next shuffle: its cost — ``ENVELOPE_HEADER_WORDS``
    plus the payload words the meter just computed — is added to the
    sender machine's ``out_words`` and the target machine's ``in_words``.
    With ``track_costs`` (compressed runs) the payload words of every
    message are also kept in ``costs[target][sender]`` for the window
    planner, which builds the prefetch loads from them.  A target keeps
    one payload per sender, so a duplicate ``send_many`` target ships
    (and is charged) once.
    """

    __slots__ = (
        "pending", "costs", "in_words", "out_words", "messages", "words",
        "_host", "_adjacency", "_cross_hosts",
    )

    def __init__(self, net: MPCCongestNetwork, track_costs: bool) -> None:
        self.pending: dict[int, dict[int, Any]] = collections.defaultdict(dict)
        self.costs: dict[int, dict[int, int]] | None = (
            collections.defaultdict(dict) if track_costs else None
        )
        self.in_words = [0] * net.num_machines
        self.out_words = [0] * net.num_machines
        self.messages = 0
        self.words = 0
        self._host = net._host
        self._adjacency = net._adjacency
        self._cross_hosts = net._cross_hosts

    def loads(self) -> ShuffleLoads:
        return ShuffleLoads(
            self.in_words, self.out_words, self.messages, self.words
        )

    def post(self, sender: int, target: int, payload: Any, words: int) -> None:
        self.pending[target][sender] = payload
        if self.costs is not None:
            self.costs[target][sender] = words
        sender_host = self._host[sender]
        target_host = self._host[target]
        if sender_host != target_host:
            cost = ENVELOPE_HEADER_WORDS + words
            self.out_words[sender_host] += cost
            self.in_words[target_host] += cost
            self.messages += 1
            self.words += cost

    def post_batch(
        self, sender: int, targets: tuple[int, ...], payload: Any, words: int
    ) -> None:
        pending = self.pending
        for target in targets:
            pending[target][sender] = payload
        costs = self.costs
        if costs is not None:
            for target in targets:
                costs[target][sender] = words
        host = self._host
        sender_host = host[sender]
        if targets is self._adjacency[sender]:
            # A broadcast: its off-machine hosts are graph-static.
            hosts = self._cross_hosts[sender]
        else:
            hosts = [
                host[target]
                for target in dict.fromkeys(targets)
                if host[target] != sender_host
            ]
        if hosts:
            cost = ENVELOPE_HEADER_WORDS + words
            in_words = self.in_words
            for target_host in hosts:
                in_words[target_host] += cost
            shipped = cost * len(hosts)
            self.out_words[sender_host] += shipped
            self.messages += len(hosts)
            self.words += shipped


class _CompiledShard:
    """Shard handler for compiled runs: a fixed slice of node algorithms.

    Owns the algorithms of its node ids (ascending, so the intra-shard
    execution order is a subsequence of the single-shard order); on a
    fork pool it works on a fork-inherited copy of the network and the
    constructed algorithms.  Per ``("round", inboxes)`` task it runs each
    live algorithm's ``on_round`` and collects the outbox through engine
    v2's :class:`~repro.congest.engine.OutboxMeter` — the validation and
    metering of the CONGEST ledger, which sizes each payload once — into a
    :class:`_LoadSink`.  The fragment the engine merges holds ``pending``
    (the shard's target -> {sender: payload} dicts), ``costs`` (their
    payload words, compressed runs only), ``loads`` (the
    :class:`~repro.mpc.runtime.ShuffleLoads` of the shard's off-machine
    messages), a ``RunStats`` delta, the awake count and newly finished
    ``(node id, output)`` pairs.  A failing algorithm's node id is left in
    ``unit`` and its exception re-raised.  ``("finalize", None)`` returns
    the shard's node state dicts so the parent network looks post-run to
    drivers that read ``network.node_state`` directly.

    ``("checkpoint", None)`` snapshots each algorithm's mutable state —
    its ``__dict__`` (minus the node view), the node's state dict and
    RNG state — as one opaque pickled blob, which the parent stores and
    forwards without reading; ``("restore", blob)`` applies one in place.
    The state dict is restored in place (clear + update) because
    ``alg.node.state`` aliases ``network.node_state[nid]``; replacing
    the dict object would silently detach the two views.
    """

    def __init__(
        self,
        net: "MPCCongestNetwork",
        meter: OutboxMeter,
        algorithms: Sequence[Any],
        node_ids: Sequence[int],
    ) -> None:
        self._net = net
        self._meter = meter
        self._algs = [algorithms[nid] for nid in node_ids]

    def _checkpoint(self) -> bytes:
        return pickle.dumps(
            [
                (
                    alg.node.id,
                    {k: v for k, v in alg.__dict__.items() if k != "node"},
                    self._net.node_state[alg.node.id],
                    alg.node.rng.getstate(),
                )
                for alg in self._algs
            ],
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def _restore(self, blob: bytes) -> None:
        for (nid, attrs, state, rng_state), alg in zip(
            pickle.loads(blob), self._algs
        ):
            if nid != alg.node.id:  # pragma: no cover - plumbing bug guard
                raise RuntimeError(
                    f"checkpoint blob for node {nid} applied to {alg.node.id}"
                )
            node_state = self._net.node_state[nid]
            node_state.clear()
            node_state.update(state)
            alg.node.rng.setstate(rng_state)
            for key in [k for k in alg.__dict__ if k != "node"]:
                del alg.__dict__[key]
            alg.__dict__.update(attrs)

    def __call__(self, task: Any) -> Any:
        kind, inboxes = task
        net = self._net
        if kind == "checkpoint":
            return self._checkpoint()
        if kind == "restore":
            self._restore(inboxes)
            return len(self._algs)
        if kind == "finalize":
            return {alg.node.id: net.node_state[alg.node.id] for alg in self._algs}
        sink = _LoadSink(net, track_costs=net._max_compress > 1)
        stats = RunStats(word_bits=net.word_bits)
        collect = self._meter.collect
        awake = 0
        finished: list[tuple[int, Any]] = []
        for alg in self._algs:
            if kind != "start" and alg.done:
                continue
            try:
                # "start" runs every algorithm unconditionally, like the
                # reference engine's loop over ``alg.on_start()``.
                if kind == "start":
                    outbox = alg.on_start()
                else:
                    awake += 1
                    inbox = inboxes.get(alg.node.id)
                    outbox = alg.on_round({} if inbox is None else inbox)
                collect(alg.node.id, outbox, sink, stats)
            except Exception:
                self.unit = alg.node.id
                raise
            if alg.done:
                finished.append((alg.node.id, alg.output))
        return {
            "pending": sink.pending,
            "costs": sink.costs,
            "loads": sink.loads(),
            "stats": stats,
            "awake": awake,
            "finished": finished,
        }


class _Step(NamedTuple):
    """One merged step of the compiled loop (see ``_CompiledEngine._merge``)."""

    pending: dict[int, dict[int, Any]]
    costs: dict[int, dict[int, int]] | None
    loads: ShuffleLoads
    stats: RunStats
    awake: int
    #: Machines whose last live node finished in this step.
    emptied: int


class _CompiledEngine(Engine):
    """The ``"mpc"`` engine: one compiled round loop, two executors.

    The reference engine's loop with one change — how a round's pending
    messages reach their targets' inboxes.  Each window the loop asks the
    planner for a length ``k``: at ``k = 1`` (``compress=1``, or whenever
    a larger window does not fit) the round's loads cross one
    :meth:`MPCRuntime.shuffle`; otherwise one prefetch shuffle carries
    the frontier and the ``k`` rounds replay machine-locally.  Either
    way the pending inboxes are delivered by the parent as merged.  The
    node algorithms run in :class:`_CompiledShard` handlers stepped
    through an executor of :mod:`repro.mpc.parallel` — in-process with
    one shard of every node, or a fork pool with one shard per worker,
    machines round-robin — and the shards meter every message, so the
    parent only sums integers: it folds the fragments into the CONGEST
    ledger and the shuffle loads and emits the round events.  The
    executor is the loop's only variable, so outputs, ``RunStats``,
    traces, round events and the MPC ledger cannot depend on the worker
    count or the window length.
    """

    name = "mpc"

    def __init__(self, network: "MPCCongestNetwork") -> None:
        super().__init__(network)
        #: Engine v2's metering, its payload-cost cache shared by every
        #: run on this network (each fork worker fills its own copy).
        self._meter = OutboxMeter(network)

    def run(
        self,
        factory: AlgorithmFactory,
        inputs: Mapping[Any, Any] | None = None,
        max_rounds: int | None = None,
        trace: bool = False,
        on_round: Callable[[RoundEvent], None] | None = None,
        label: str | None = None,
    ) -> RunResult:
        net: MPCCongestNetwork = self.network
        algorithms, stats, timeline, max_rounds, hook = self._setup(
            factory, inputs, max_rounds, trace, on_round
        )
        runtime = net.runtime
        tracer = net.tracer
        if tracer is not None:
            # Observation only: the shuffle barrier and the fault plane
            # mark into the network's recorder; planning, metering and
            # the ledgers never read it.
            runtime.tracer = tracer
            injector = runtime.fault_injector
            if injector is not None and injector.tracer is None:
                injector.tracer = tracer
        n = net.n
        shards = net._node_shards(_parallel.shard_workers(net.workers))
        handlers = [
            _CompiledShard(net, self._meter, algorithms, shard)
            for shard in shards
        ]
        outputs: dict[int, Any] = {}
        # Live nodes per machine, decremented as nodes finish, and the
        # number of machines that still host one.
        live_nodes = [0] * net.num_machines
        for mid in net._host:
            live_nodes[mid] += 1
        live_machines = sum(1 for count in live_nodes if count)

        def limit_error() -> RoundLimitError:
            return RoundLimitError(
                f"no termination within {max_rounds} rounds "
                f"({n - len(outputs)} nodes alive)"
            )

        with _parallel.open_shards(
            handlers,
            injector=runtime.fault_injector,
            recovery=runtime.recovery,
            tracer=tracer,
        ) as executor:
            step = self._merge(
                executor.step_all(("start", None)), outputs, live_nodes
            )
            live_machines -= step.emptied
            stats = stats + step.stats
            self._end_round(
                timeline, hook, 0, step.stats.messages,
                step.stats.total_words, n, step.stats.cut_words,
                n - len(outputs), label,
            )
            while len(outputs) < n:
                if stats.rounds >= max_rounds:
                    raise limit_error()
                window, prefetch = net._plan_window(step.costs)
                if window > 1:
                    if tracer is not None:
                        tracer.begin("window", cat="mpc", k=window)
                    runtime.shuffle(
                        prefetch, active=live_machines, congest_rounds=window
                    )
                executed = 0
                while executed < window and len(outputs) < n:
                    if executed and stats.rounds >= max_rounds:
                        raise limit_error()
                    if window == 1:
                        runtime.shuffle(step.loads, active=live_machines)
                    inboxes = step.pending
                    if len(shards) == 1:
                        tasks = [("round", inboxes)]
                    else:
                        tasks = [
                            ("round", {
                                nid: inboxes[nid] for nid in shard
                                if nid in inboxes and nid not in outputs
                            })
                            for shard in shards
                        ]
                    stats.rounds += 1
                    step = self._merge(
                        executor.step(tasks), outputs, live_nodes
                    )
                    live_machines -= step.emptied
                    stats = stats + step.stats
                    self._end_round(
                        timeline, hook, stats.rounds, step.stats.messages,
                        step.stats.total_words, step.awake,
                        step.stats.cut_words, n - len(outputs), label,
                    )
                    executed += 1
                if window > 1:
                    runtime.absorb_early_finish(window - executed)
                    if tracer is not None:
                        tracer.end(executed=executed)
            for node_state in executor.step_all(("finalize", None)):
                net.node_state.update(node_state)
        return self._result(
            {nid: outputs[nid] for nid in range(n)}, stats, timeline
        )

    def _merge(
        self,
        frags: list[dict[str, Any]],
        outputs: dict[int, Any],
        live_nodes: list[int],
    ) -> _Step:
        """Fold one step's fragments into one :class:`_Step`.

        Newly finished nodes land in ``outputs`` and leave ``live_nodes``.
        Each shard runs its nodes in ascending order, so every shard's
        inboxes are in ascending sender order — the reference order — and
        only an inbox that several shards wrote to is re-sorted.
        """
        host = self.network._host
        emptied = 0
        for frag in frags:
            for nid, output in frag["finished"]:
                outputs[nid] = output
                live_nodes[host[nid]] -= 1
                if not live_nodes[host[nid]]:
                    emptied += 1
        first = frags[0]
        pending, costs, loads = first["pending"], first["costs"], first["loads"]
        if len(frags) > 1:
            interleaved: dict[int, None] = {}
            for frag in frags[1:]:
                for target, box in frag["pending"].items():
                    merged = pending[target]
                    if merged:
                        interleaved[target] = None
                    merged.update(box)
                if costs is not None:
                    for target, box in frag["costs"].items():
                        costs[target].update(box)
                loads.add(frag["loads"])
            for target in interleaved:
                pending[target] = dict(sorted(pending[target].items()))
        return _Step(
            pending,
            costs,
            loads,
            sum((frag["stats"] for frag in frags), RunStats()),
            sum(frag["awake"] for frag in frags),
            emptied,
        )


# -- parity harness ---------------------------------------------------------


def _event_key(event: RoundEvent) -> tuple[int, int, int, int]:
    # ``awake`` is engine-dependent by design (the compiled run invokes
    # every live node, v2 sleeps); everything else must agree.
    return (event.round_index, event.messages, event.words, event.cut_words)


def _mpc_network(
    graph: nx.Graph,
    config: RunConfig,
    seed: int,
    collector: Any | None = None,
    tracer: Any = None,
) -> MPCCongestNetwork:
    """``config.network(...)``, refusing configs of another model."""
    if config.model != "mpc":
        raise ValueError(
            f"the compiled solvers need a config of model 'mpc', got "
            f"{config.model!r}"
        )
    return config.network(graph, seed, collector=collector, tracer=tracer)


def solve_with_parity(
    solver: Callable[..., Any],
    graph: nx.Graph,
    config: RunConfig,
    seed: int = 0,
    collector: Any | None = None,
    tracer: Any = None,
) -> tuple[Any, MPCCongestNetwork, dict[str, Any]]:
    """Run ``solver`` on the MPC backend and on an engine-v2 shadow.

    ``solver(network=...)`` must accept a prebuilt network (all the
    ``repro.core`` drivers do) and return an object with ``cover`` and
    ``stats`` attributes.  Both networks share the graph and seed, so the
    runs must agree on the solution, on every ``RunStats`` field and on
    the per-round ``RoundEvent`` stream (messages/words/cut words, round
    by round, across all stages) — any divergence raises
    :class:`ParityError`.  The ``config`` (model ``mpc``) options only
    change the MPC ledger and its execution, so the parity claim is
    asserted unchanged at every ``compress`` (``"auto"`` included),
    worker count and fault plan.  A metrics ``collector`` observes the
    MPC side's round and shuffle streams alongside the parity check.
    Returns ``(mpc_result, mpc_network, report)``.
    """
    ref_events: list[RoundEvent] = []
    mpc_events: list[RoundEvent] = []
    ref_net = CongestNetwork(
        graph, seed=seed, engine="v2", on_round=ref_events.append
    )
    ref_result = solver(network=ref_net)
    mpc_net = _mpc_network(graph, config, seed, collector, tracer)
    observer = mpc_net.on_round

    def record(event: RoundEvent) -> None:
        mpc_events.append(event)
        if observer is not None:
            observer(event)

    mpc_net.on_round = record
    mpc_result = solver(network=mpc_net)

    if mpc_result.cover != ref_result.cover:
        raise ParityError(
            f"MPC and engine-v2 solutions differ: "
            f"{sorted(map(repr, mpc_result.cover))[:5]}... vs "
            f"{sorted(map(repr, ref_result.cover))[:5]}..."
        )
    if mpc_result.stats != ref_result.stats:
        raise ParityError(
            f"MPC and engine-v2 RunStats differ: {mpc_result.stats} vs "
            f"{ref_result.stats}"
        )
    if len(mpc_events) != len(ref_events):
        raise ParityError(
            f"round event streams differ in length: {len(mpc_events)} MPC "
            f"rounds vs {len(ref_events)} engine-v2 rounds"
        )
    for mpc_event, ref_event in zip(mpc_events, ref_events):
        if _event_key(mpc_event) != _event_key(ref_event):
            raise ParityError(
                f"per-round metering diverged at round "
                f"{ref_event.round_index}: MPC {_event_key(mpc_event)} vs "
                f"engine v2 {_event_key(ref_event)}"
            )
    report = {
        "parity": True,
        "rounds_compared": len(ref_events),
        "congest_words": ref_result.stats.total_words,
    }
    return mpc_result, mpc_net, report


def run_stage_parity(
    graph: nx.Graph,
    stages: Iterable[AlgorithmFactory],
    config: RunConfig,
    seed: int = 0,
    prepare: Callable[[CongestNetwork], None] | None = None,
) -> dict[str, Any]:
    """Stage-level parity check for bare ``NodeAlgorithm`` factories.

    Runs each factory back to back on an MPC network built from
    ``config`` and on an engine-v2 network (same graph, same seed), with
    ``prepare(network)`` seeding any required per-node state on each side
    first.  Asserts per-stage outputs, stats and traces are identical — at
    any ``compress`` window, since compression never touches the CONGEST
    ledger; returns a summary dict (stage count, rounds, the MPC ledger).
    """
    stages = list(stages)
    ref_net = CongestNetwork(graph, seed=seed, engine="v2")
    mpc_net = _mpc_network(graph, config, seed)
    for net in (ref_net, mpc_net):
        net.reset_state()
        if prepare is not None:
            prepare(net)
    rounds = 0
    for index, factory in enumerate(stages):
        ref = ref_net.run(factory, trace=True)
        mpc = mpc_net.run(factory, trace=True)
        for field in ("outputs", "by_id", "stats", "trace"):
            if getattr(ref, field) != getattr(mpc, field):
                raise ParityError(
                    f"stage {index} field {field!r} differs between the "
                    f"MPC compilation and engine v2"
                )
        rounds += ref.stats.rounds
    return {
        "parity": True,
        "stages": len(stages),
        "congest_rounds": rounds,
        "mpc": mpc_net.mpc_summary(),
    }


def _solve_on_mpc(
    solver: Callable[..., Any],
    graph: nx.Graph,
    config: RunConfig,
    seed: int,
    check_parity: bool,
    collector: Any | None = None,
    tracer: Any = None,
):
    """Shared scaffolding of the compiled solver entry points.

    Runs ``solver(network=...)`` on a fresh MPC network built from
    ``config`` — with the live engine-v2 shadow when ``check_parity`` —
    and returns the result together with the machine-side ledger payload
    (including the parity report when one was produced).  A metrics
    ``collector`` is hooked into the MPC network's round and shuffle
    streams and handed the final MPC ledger.
    """
    if check_parity:
        result, net, report = solve_with_parity(
            solver, graph, config, seed=seed, collector=collector,
            tracer=tracer,
        )
    else:
        net = _mpc_network(graph, config, seed, collector, tracer)
        result = solver(network=net)
        report = {"parity": False}
    # The sweep/CLI payload is mpc_summary() verbatim — the worker count
    # never enters it, so payload digests stay byte-identical across
    # worker counts; the metrics collector gets it as a variant-section
    # extra (timing-adjacent provenance, like jobs for the sweep).
    payload = net.mpc_summary()
    payload.update(report)
    # The fault/recovery report rides outside mpc_summary(): it is
    # deterministic given (plan, seed) — safe in sweep payload digests —
    # but must never enter the parity-compared ledger itself.
    fault_report = net.fault_report()
    if fault_report is not None:
        payload["faults"] = fault_report
    if collector is not None:
        collector.record_mpc({**net.mpc_summary(), "workers": net.workers})
        if fault_report is not None:
            collector.record_faults(fault_report)
    return result, payload


def solve_mvc_mpc(
    graph: nx.Graph,
    epsilon: float,
    config: RunConfig,
    seed: int = 0,
    check_parity: bool = False,
    collector: Any | None = None,
    tracer: Any = None,
):
    """Algorithm 1 ((1+eps)-MVC of G^2) compiled onto the MPC backend.

    ``config`` (model ``mpc``) carries ``alpha``, ``compress``,
    ``workers`` and ``faults``.  Returns ``(DistributedCoverResult,
    mpc_payload)`` where the payload is the machine-side ledger (plus the
    parity report when requested).
    """
    from repro.core.mvc_congest import approx_mvc_square

    def solver(network):
        return approx_mvc_square(graph, epsilon, network=network)

    return _solve_on_mpc(
        solver, graph, config, seed, check_parity, collector, tracer
    )


def solve_mds_mpc(
    graph: nx.Graph,
    config: RunConfig,
    seed: int = 0,
    samples: int | None = None,
    check_parity: bool = False,
    collector: Any | None = None,
    tracer: Any = None,
):
    """Theorem 28 (O(log Delta)-MDS of G^2) compiled onto the MPC backend."""
    from repro.core.mds_congest import approx_mds_square

    def solver(network):
        return approx_mds_square(graph, network=network, samples=samples)

    return _solve_on_mpc(
        solver, graph, config, seed, check_parity, collector, tracer
    )
