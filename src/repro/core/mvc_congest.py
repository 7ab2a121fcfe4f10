"""Algorithm 1: deterministic (1+eps)-approximate G^2-MVC in CONGEST.

Reproduces Theorem 1 of the paper.  The algorithm runs in O(n/eps) rounds:

* **Phase I** (:class:`PhaseOneAlgorithm`): repeatedly, any node ``c`` that
  still has more than ``1/eps`` neighbors outside the cover adds its whole
  neighborhood to the cover.  ``N(c) cap R`` induces a clique in ``G^2``, so
  the optimum pays at least ``|N(c) cap R| - 1`` where we pay
  ``|N(c) cap R|`` — Lemma 5's (1+eps) accounting.  Symmetry is broken by
  maximum identifier among candidates within two hops (as the paper
  prescribes), which our implementation realizes in four communication
  rounds per iteration: status exchange, candidate announcement, 2-hop max
  relay, winner announcement.  Each iteration with a surviving candidate
  has a winner removing more than ``1/eps`` vertices, so
  ``floor(eps * n) + 1`` iterations always suffice.

* **Phase II**: the leader (maximum id — identifiers are common knowledge)
  builds a BFS tree, every node pipelines its at most ``1/eps`` incident
  edges of ``F = {{u, v} in E : u in U}`` upwards (Lemma 2), the leader
  reconstructs ``H = G^2[U]`` from ``F`` alone (Lemma 3), solves MVC on
  ``H`` locally (CONGEST allows unbounded local computation) and pipelines
  the solution back down.

Every bit of the above crosses a metered simulator edge; the returned
statistics are honest CONGEST costs.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from typing import Any

import networkx as nx

from repro.congest.algorithm import Inbox, NodeAlgorithm, NodeView, Outbox
from repro.congest.network import CongestNetwork, RunStats
from repro.congest.primitives import (
    BfsTreeAlgorithm,
    BroadcastAlgorithm,
    ConvergecastAlgorithm,
)
from repro.core.results import DistributedCoverResult
from repro.exact.vertex_cover import minimum_vertex_cover

_TAG_STATUS = 10
_TAG_CAND = 11
_TAG_RELAY = 12
_TAG_WIN = 13

LocalSolver = Callable[[nx.Graph, set[frozenset[int]]], set[int]]


def normalized_epsilon(epsilon: float) -> tuple[int, float]:
    """Return ``(l, eps')`` with ``eps' = 1/l`` and ``l = ceil(1/eps)``.

    Lemma 5 requires ``1/eps`` to be an integer; Theorem 1's proof rounds
    ``eps`` down to ``1/ceil(1/eps)``.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    l = max(1, math.ceil(1.0 / epsilon))
    return l, 1.0 / l


class PhaseOneAlgorithm(NodeAlgorithm):
    """Phase I of Algorithm 1 (and of its weighted/clique variants).

    Runs ``iterations`` rounds of the candidate/winner protocol with
    candidacy threshold ``|N(c) cap R| > threshold``.  On completion each
    node records in its stage state:

    * ``in_S`` — whether the node joined the cover during Phase I,
    * ``in_R`` — whether it is still uncovered (``U = V minus S``),
    * ``u_neighbors`` — its neighbors inside ``U``,
    * ``tokens`` — the convergecast tokens encoding its incident ``F``
      edges (pairs ``(v, u)``) plus the self-marker ``(v, v)`` if
      ``v in U``.
    """

    def __init__(self, node: NodeView, threshold: int, iterations: int) -> None:
        super().__init__(node)
        self.threshold = threshold
        self.iterations = iterations
        self.iteration = 0
        self.step = 0  # 0=sent status, 1=sent cand, 2=sent relay, 3=sent win
        self.in_R = True
        self.in_C = True
        self.in_S = False
        self.r_neighbors: set[int] = set()
        self.is_candidate = False
        self.local_max = -1
        self.final_status = False
        #: Iteration at which this node joined S (None if it never did).
        #: Model-level and engine-independent, so drivers may derive
        #: deterministic convergence curves from it.
        self.join_iteration: int | None = None

    # -- candidacy ---------------------------------------------------------

    def _active_candidate(self) -> bool:
        return self.in_C and len(self.r_neighbors) > self.threshold

    def _finalize(self, inbox: Inbox) -> None:
        u_neighbors = sorted(
            sender for sender, msg in inbox.items() if msg[1] == 1
        )
        me = self.node.id
        tokens = [(me, u) for u in u_neighbors]
        if self.in_R:
            tokens.append((me, me))
        self.node.state["in_S"] = self.in_S
        self.node.state["in_R"] = self.in_R
        self.node.state["u_neighbors"] = u_neighbors
        self.node.state["tokens"] = tokens
        self.finish(
            {
                "in_S": self.in_S,
                "in_R": self.in_R,
                "join_iteration": self.join_iteration,
            }
        )

    # -- protocol ----------------------------------------------------------

    def on_start(self) -> Outbox:
        if self.iterations == 0:
            self.final_status = True
        return self.broadcast((_TAG_STATUS, 1 if self.in_R else 0))

    def on_round(self, inbox: Inbox) -> Outbox:
        if self.final_status:
            self._finalize(inbox)
            return None
        if self.step == 0:
            # Statuses arrived; announce candidacy.
            self.r_neighbors = {
                sender for sender, msg in inbox.items() if msg[1] == 1
            }
            self.is_candidate = self._active_candidate()
            self.step = 1
            if self.is_candidate:
                return self.broadcast((_TAG_CAND,))
            return None
        if self.step == 1:
            # Candidate announcements arrived; relay the 1-hop max.
            heard = [sender for sender in inbox]
            self.local_max = max(
                heard + ([self.node.id] if self.is_candidate else [-1])
            )
            self.step = 2
            return self.broadcast((_TAG_RELAY, self.local_max))
        if self.step == 2:
            # 2-hop maxima arrived; winners announce.
            two_hop_max = max(
                [msg[1] for msg in inbox.values()] + [self.local_max]
            )
            self.step = 3
            if self.is_candidate and self.node.id >= two_hop_max:
                self.in_C = False  # the winner leaves the candidate set
                return self.broadcast((_TAG_WIN,))
            return None
        # step == 3: winner announcements arrived; neighbors join the cover.
        if self.in_R and any(msg[0] == _TAG_WIN for msg in inbox.values()):
            self.in_R = False
            self.in_S = True
            self.join_iteration = self.iteration
        self.iteration += 1
        self.step = 0
        if self.iteration >= self.iterations:
            self.final_status = True
        return self.broadcast((_TAG_STATUS, 1 if self.in_R else 0))

    def wants_wake(self) -> bool:
        # Guaranteed-traffic cadence (see NodeAlgorithm.wants_wake): every
        # live neighbor broadcasts STATUS at each cycle start and RELAY at
        # step 1, and all nodes advance in lockstep, so the invocations
        # that *process* those broadcasts (steps 0 and 2, and the final
        # finalize round) are always traffic-woken.  Steps 1 and 3 must
        # self-wake: the node broadcasts RELAY/STATUS there even when its
        # own inbox was empty (no candidate or no winner nearby).  An
        # isolated node never receives traffic and must always self-wake.
        return self.step in (1, 3) or not self.node.neighbors


def residual_graph_from_tokens(tokens: Iterable[tuple[int, int]]) -> nx.Graph:
    """Reconstruct ``H = G^2[U]`` from the leader's tokens (Lemma 3).

    Tokens are pairs ``(v, u)`` meaning "``{v, u}`` is an edge of ``G`` and
    ``u in U``", plus self-markers ``(v, v)`` meaning ``v in U``.  Following
    the paper: ``F' = F cup F'_1`` where ``F'_1`` joins two ``U``-vertices
    with a common ``F``-neighbor.
    """
    members: set[int] = set()
    adjacency: dict[int, set[int]] = {}
    for v, u in tokens:
        members.add(u)
        if v != u:
            adjacency.setdefault(v, set()).add(u)
            adjacency.setdefault(u, set()).add(v)
    residual = nx.Graph()
    residual.add_nodes_from(members)
    for v, partners in adjacency.items():
        in_u = [p for p in partners if p in members]
        if v in members:
            residual.add_edges_from((v, p) for p in in_u)
        # Two U-vertices sharing the F-neighbor v are G^2-adjacent.
        for i, a in enumerate(in_u):
            for b in in_u[i + 1:]:
                residual.add_edge(a, b)
    return residual


def red_edges_from_tokens(
    tokens: Iterable[tuple[int, int]]
) -> set[frozenset[int]]:
    """The ``F`` edges with both endpoints in ``U`` (the 'red' edges of H)."""
    members = {u for _, u in tokens}
    return {
        frozenset((v, u))
        for v, u in tokens
        if v != u and v in members and u in members
    }


def _default_local_solver(
    residual: nx.Graph, red: set[frozenset[int]]
) -> set[int]:
    return minimum_vertex_cover(residual)


def _trivial_cover_result(graph: nx.Graph, word_bits: int) -> DistributedCoverResult:
    """eps > 1: all vertices form a 2 <= (1+eps) approximation (Lemma 6)."""
    return DistributedCoverResult(
        cover=set(graph.nodes),
        stats=RunStats(word_bits=word_bits),
        detail={"mode": "trivial", "iterations": 0},
    )


def approx_mvc_square(
    graph: nx.Graph,
    epsilon: float,
    network: CongestNetwork | None = None,
    local_solver: LocalSolver | None = None,
    seed: int = 0,
) -> DistributedCoverResult:
    """Run Algorithm 1 end to end on the CONGEST simulator.

    Parameters
    ----------
    graph:
        Connected communication network ``G``; the returned set covers
        ``G^2``.
    epsilon:
        Approximation slack; the cover is at most ``(1+eps) * OPT(G^2)``.
    network:
        Optionally a pre-built network (e.g. with a metered cut or custom
        word limit); defaults to a fresh :class:`CongestNetwork`.
    local_solver:
        How the leader solves the residual instance ``H = G^2[U]``.
        Defaults to exact branch and bound; Corollary 17 plugs in the
        centralized 5/3-approximation instead.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("graph must be non-empty")
    if not nx.is_connected(graph):
        raise ValueError("CONGEST algorithms require a connected graph")
    if network is None:
        network = CongestNetwork(graph, seed=seed)
    if local_solver is None:
        local_solver = _default_local_solver
    if epsilon > 1:
        return _trivial_cover_result(graph, network.word_bits)

    n = network.n
    l, _eps_prime = normalized_epsilon(epsilon)
    iterations = n // (l + 1) + 1
    network.reset_state()
    total = RunStats(word_bits=network.word_bits)

    # Phase I.
    phase_one = network.run(
        lambda view: PhaseOneAlgorithm(view, threshold=l, iterations=iterations),
        label="phase1",
    )
    total = total + phase_one.stats

    # Phase II: BFS tree, upcast F, local solve, broadcast solution.
    leader = n - 1
    bfs = network.run(lambda view: BfsTreeAlgorithm(view, leader), label="bfs")
    total = total + bfs.stats

    gather = network.run(lambda view: ConvergecastAlgorithm(view), label="upcast")
    total = total + gather.stats
    tokens = gather.by_id[leader]

    residual = residual_graph_from_tokens(tokens)
    red = red_edges_from_tokens(tokens)
    r_star = set(local_solver(residual, red))
    unknown = r_star - set(residual.nodes)
    if unknown:
        raise ValueError(f"local solver returned foreign vertices: {unknown}")

    network.node_state[leader]["bcast_tokens"] = [(v,) for v in sorted(r_star)]
    spread = network.run(lambda view: BroadcastAlgorithm(view), label="broadcast")
    total = total + spread.stats

    s_vertices = {
        network.id_of(label)
        for label, out in phase_one.outputs.items()
        if out["in_S"]
    }
    cover_ids = s_vertices | r_star
    cover = {network.label_of(v) for v in cover_ids}

    collector = getattr(network, "collector", None)
    if collector is not None:
        # Deterministic convergence curves from the join stamps: cover
        # growth per Phase I iteration (closed by the final cover once
        # the leader's residual solution lands) and the shrinking
        # uncovered set |R|.  Derived from model state, never engine
        # scheduling, so the curves are engine- and backend-invariant.
        joins = sorted(
            out["join_iteration"]
            for out in phase_one.outputs.values()
            if out["in_S"]
        )
        cover_curve = []
        joined = 0
        for i in range(iterations):
            while joined < len(joins) and joins[joined] <= i:
                joined += 1
            cover_curve.append(joined)
        collector.record_convergence(
            "cover_size", cover_curve + [len(cover_ids)]
        )
        collector.record_convergence(
            "uncovered_nodes", [n - c for c in cover_curve]
        )

    return DistributedCoverResult(
        cover=cover,
        stats=total,
        detail={
            "mode": "congest",
            "iterations": iterations,
            "threshold": l,
            "phase_one_cover": {network.label_of(v) for v in s_vertices},
            "residual_vertices": {
                network.label_of(v) for v in residual.nodes
            },
            "leader_solution": {network.label_of(v) for v in r_star},
            "phase_rounds": {
                "phase1": phase_one.stats.rounds,
                "bfs": bfs.stats.rounds,
                "upcast": gather.stats.rounds,
                "broadcast": spread.stats.rounds,
            },
        },
    )
