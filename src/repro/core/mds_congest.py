"""Theorem 28: O(log Delta)-approximate G^2-MDS in polylog CONGEST rounds.

We simulate the [CD18] greedy-by-density dominating set algorithm on
``G^2`` while communicating on ``G``.  Each phase runs six sub-stages, all
genuine message-passing algorithms:

1. **density estimation** — every vertex estimates how many uncovered
   vertices it would newly cover (:class:`~repro.core.estimation.
   EstimationStage`, Lemma 29; exact counting is impossible under
   congestion because 2-hop counts double-count across relays);
2. **density flooding** — rounded densities (powers of two, shipped as
   exponents) flood four hops so each vertex knows the max over its
   ``G^2`` 2-neighborhood; local maxima become *candidates*;
3. **ranking and voting** — candidates draw ranks in ``[n^4]``; every
   uncovered vertex votes for the best-ranked candidate within two hops
   (two rounds of minimum propagation);
4. **vote estimation** — per-candidate exponential minima estimate each
   candidate's vote count (the candidates partition the voters, so the
   per-candidate relays share edges without exceeding the word budget);
5. **winners** — a candidate whose vote estimate reaches an eighth of its
   density estimate joins the dominating set; coverage propagates two hops;
6. **termination check** — a convergecast-OR over a BFS tree asks whether
   any vertex remains uncovered (honestly charged to the round budget).

Each phase costs ``O(log n)`` rounds (the two estimation stages dominate)
and the potential argument of [CD18]/[JRS02] gives ``O(log n log Delta)``
phases w.h.p.; a local fallback adds any still-uncovered vertex to the set
if the phase cap is ever hit, so the returned set is always dominating.
"""

from __future__ import annotations

import math
from typing import Any

import networkx as nx

from repro.congest.algorithm import Inbox, NodeAlgorithm, NodeView, Outbox
from repro.congest.network import CongestNetwork, RunStats
from repro.congest.primitives import BFS_STATE, BfsTreeAlgorithm
from repro.core.estimation import EstimationStage, default_samples
from repro.core.results import DistributedCoverResult

_TAG_RHO = 50
_TAG_RANK = 51
_TAG_RANKMIN = 52
_TAG_VW = 53
_TAG_VWMIN = 54
_TAG_WINNER = 55
_TAG_WINREL = 56
_TAG_OR_UP = 57
_TAG_OR_DOWN = 58

_INF = float("inf")


class RhoFloodAlgorithm(NodeAlgorithm):
    """Flood rounded densities four hops; local maxima become candidates."""

    def __init__(self, node: NodeView) -> None:
        super().__init__(node)
        density = node.state.get("density_estimate", 0.0)
        if density > 0:
            self.rho_exp = max(0, math.ceil(math.log2(density)))
        else:
            self.rho_exp = -1
        self.current_max = self.rho_exp
        self.hops = 0

    def on_start(self) -> Outbox:
        return self.broadcast((_TAG_RHO, self.current_max))

    def on_round(self, inbox: Inbox) -> Outbox:
        for msg in inbox.values():
            if msg[1] > self.current_max:
                self.current_max = msg[1]
        self.hops += 1
        if self.hops >= 4:
            is_candidate = self.rho_exp >= 0 and self.rho_exp == self.current_max
            self.node.state["is_candidate"] = is_candidate
            self.finish(is_candidate)
            return None
        return self.broadcast((_TAG_RHO, self.current_max))

    def wants_wake(self) -> bool:
        # Every live neighbor broadcasts its running maximum every round
        # until the lockstep hop counter finishes, so each of the four hop
        # rounds is traffic-woken; only an isolated node must self-wake to
        # run down its hop counter.
        return not self.node.neighbors


class RankVoteAlgorithm(NodeAlgorithm):
    """Candidates draw ranks; uncovered vertices vote for the 2-hop best.

    'Best' is the lexicographic minimum of ``(rank, id)``, matching the
    paper's step 4 tie-break.  Each node also records which neighbors are
    candidates — the vote-estimation stage routes per-candidate minima
    along exactly those edges.
    """

    def __init__(self, node: NodeView) -> None:
        super().__init__(node)
        self.is_candidate = bool(node.state.get("is_candidate", False))
        self.rank = (
            node.rng.randrange(node.n ** 4) if self.is_candidate else -1
        )
        self.step = 0
        self.local_best: tuple[int, int] | None = None
        self.candidate_neighbors: set[int] = set()

    def on_start(self) -> Outbox:
        if self.is_candidate:
            return self.broadcast((_TAG_RANK, self.rank))
        return None

    def on_round(self, inbox: Inbox) -> Outbox:
        if self.step == 0:
            pairs = []
            for sender, msg in inbox.items():
                if msg[0] == _TAG_RANK:
                    self.candidate_neighbors.add(sender)
                    pairs.append((msg[1], sender))
            if self.is_candidate:
                pairs.append((self.rank, self.node.id))
            self.local_best = min(pairs) if pairs else None
            self.node.state["candidate_neighbors"] = self.candidate_neighbors
            self.step = 1
            if self.local_best is not None:
                return self.broadcast(
                    (_TAG_RANKMIN, self.local_best[0], self.local_best[1])
                )
            return None
        # Relayed minima arrived; the vote is the 2-hop best candidate.
        pairs = [
            (msg[1], msg[2]) for msg in inbox.values() if msg[0] == _TAG_RANKMIN
        ]
        if self.local_best is not None:
            pairs.append(self.local_best)
        voted_for = -1
        if self.node.state.get("in_U", False) and pairs:
            voted_for = min(pairs)[1]
        self.node.state["voted_for"] = voted_for
        self.finish(voted_for)
        return None

    # wants_wake: default (always).  Rank traffic is sparse — only
    # candidates broadcast — so neither protocol round is guaranteed any
    # inbound message, yet both advance node state (candidate bookkeeping,
    # the vote, the finish).  Sleeping would desynchronize the two-round
    # state machine; this stage is inherently round-counting.


class VoteEstimationAlgorithm(NodeAlgorithm):
    """Estimate per-candidate vote counts with exponential minima.

    Per sample: voters broadcast ``(candidate, W)``; every node folds a
    per-candidate minimum over its neighborhood and forwards each
    candidate's minimum only to that candidate (one message per edge, so
    the word budget holds no matter how many candidates exist).  The
    candidate inverts the empirical mean of its 2-hop minima.
    """

    def __init__(self, node: NodeView, samples: int) -> None:
        super().__init__(node)
        self.samples = samples
        self.is_candidate = bool(node.state.get("is_candidate", False))
        self.voted_for = int(node.state.get("voted_for", -1))
        self.is_voter = self.voted_for >= 0 and bool(node.state.get("in_U", False))
        self.candidate_neighbors: set[int] = set(
            node.state.get("candidate_neighbors", ())
        )
        self.step = 0  # 0: emitted VW, 1: emitted VWMIN
        self.sample_index = 0
        self.own_w: float | None = None
        self.direct_min = _INF  # candidate-local min for the current sample
        self.minima: list[float] = []

    def _emit_sample(self) -> Outbox:
        self.step = 0
        self.direct_min = _INF
        if self.is_voter:
            self.own_w = self.node.rng.expovariate(1.0)
            return self.broadcast((_TAG_VW, self.voted_for, self.own_w))
        self.own_w = None
        return None

    def _finish_if_done(self) -> Outbox:
        if self.sample_index >= self.samples:
            if any(math.isinf(m) for m in self.minima):
                estimate = 0.0
            else:
                total = sum(self.minima)
                estimate = self.samples / total if total > 0 else 0.0
            self.node.state["vote_estimate"] = estimate
            self.finish(estimate)
            return None
        return self._emit_sample()

    def on_start(self) -> Outbox:
        return self._emit_sample()

    def on_round(self, inbox: Inbox) -> Outbox:
        if self.step == 0:
            # VW messages arrived: fold per-candidate minima.
            groups: dict[int, float] = {}
            if self.is_voter and self.own_w is not None:
                groups[self.voted_for] = self.own_w
            for msg in inbox.values():
                if msg[0] != _TAG_VW:
                    continue
                candidate, value = msg[1], msg[2]
                if value < groups.get(candidate, _INF):
                    groups[candidate] = value
            if self.is_candidate and self.node.id in groups:
                self.direct_min = groups[self.node.id]
            self.step = 1
            outbox = {
                c: (_TAG_VWMIN, groups[c])
                for c in sorted(self.candidate_neighbors)
                if c in groups
            }
            return outbox or None
        # VWMIN messages arrived: candidates close the sample.
        sample_min = self.direct_min
        for msg in inbox.values():
            if msg[0] == _TAG_VWMIN and msg[1] < sample_min:
                sample_min = msg[1]
        if self.is_candidate:
            self.minima.append(sample_min)
        else:
            self.minima.append(_INF)
        self.sample_index += 1
        return self._finish_if_done()

    # wants_wake: default (always).  VW traffic exists only where voters
    # are and VWMIN flows only to candidates, so no round of the sample
    # cadence has guaranteed traffic for a given node — but every node
    # advances its sample counter each round to stay in lockstep with the
    # voters.  A round-counting stage cannot sleep.


class WinnerAlgorithm(NodeAlgorithm):
    """Successful candidates join the set; coverage propagates two hops."""

    def __init__(self, node: NodeView) -> None:
        super().__init__(node)
        self.is_candidate = bool(node.state.get("is_candidate", False))
        votes = float(node.state.get("vote_estimate", 0.0))
        density = float(node.state.get("density_estimate", 0.0))
        self.success = (
            self.is_candidate and density > 0 and votes >= density / 8.0
        )
        self.step = 0
        self.saw_winner = self.success

    def on_start(self) -> Outbox:
        if self.success:
            self.node.state["in_DS"] = True
        if self.success:
            return self.broadcast((_TAG_WINNER,))
        return None

    def on_round(self, inbox: Inbox) -> Outbox:
        if self.step == 0:
            if any(msg[0] == _TAG_WINNER for msg in inbox.values()):
                self.saw_winner = True
            self.step = 1
            return self.broadcast((_TAG_WINREL, 1 if self.saw_winner else 0))
        covered = self.saw_winner or any(
            msg[0] == _TAG_WINREL and msg[1] == 1 for msg in inbox.values()
        )
        if covered:
            self.node.state["in_U"] = False
        self.finish(
            {
                "in_DS": bool(self.node.state.get("in_DS", False)),
                "in_U": bool(self.node.state.get("in_U", False)),
            }
        )
        return None

    def wants_wake(self) -> bool:
        # The step-0 round must run regardless of inbox (every node
        # broadcasts WINREL there, winner nearby or not); the step-1 round
        # is traffic-woken because every live neighbor broadcast WINREL in
        # lockstep.  Isolated nodes self-wake throughout.
        return self.step == 0 or not self.node.neighbors


class GlobalOrAlgorithm(NodeAlgorithm):
    """Convergecast-OR of a state bit over the BFS tree, decision broadcast.

    Every node finishes with the global OR; costs O(depth) rounds.  This is
    the honest termination check between phases.
    """

    def __init__(self, node: NodeView, bit_key: str = "in_U") -> None:
        super().__init__(node)
        tree = node.state.get(BFS_STATE)
        if tree is None:
            raise ValueError("GlobalOrAlgorithm requires a BFS tree in state")
        self.parent: int = tree["parent"]
        self.pending: set[int] = set(tree["children"])
        self.children: tuple[int, ...] = tree["children"]
        self.value = 1 if node.state.get(bit_key, False) else 0
        self.reported = False

    def _maybe_report(self) -> Outbox:
        if self.pending or self.reported:
            return None
        self.reported = True
        if self.parent < 0:
            # Root: decision made; inform children and finish.
            self.finish(bool(self.value))
            if not self.children:
                return None
            return self.send_many(self.children, (_TAG_OR_DOWN, self.value))
        return {self.parent: (_TAG_OR_UP, self.value)}

    def on_start(self) -> Outbox:
        return self._maybe_report()

    def on_round(self, inbox: Inbox) -> Outbox:
        for sender, msg in inbox.items():
            if msg[0] == _TAG_OR_UP:
                self.pending.discard(sender)
                self.value |= msg[1]
            elif msg[0] == _TAG_OR_DOWN:
                decision = msg[1]
                self.finish(bool(decision))
                if not self.children:
                    return None
                return self.send_many(self.children, (_TAG_OR_DOWN, decision))
        return self._maybe_report()

    def wants_wake(self) -> bool:
        # Purely reactive: progress happens only when an OR_UP or OR_DOWN
        # arrives — the report fires in the same invocation that drains the
        # last pending child, and an empty-inbox call is a strict no-op.
        # This is the stage where the activity engine's sleeping genuinely
        # pays: during the O(depth) convergecast only the moving frontier
        # runs, not all n nodes every round.
        return False


def approx_mds_square(
    graph: nx.Graph,
    network: CongestNetwork | None = None,
    seed: int = 0,
    samples: int | None = None,
    max_phases: int | None = None,
) -> DistributedCoverResult:
    """Run the Theorem 28 algorithm end to end.

    Returns a dominating set of ``G^2`` (always feasible); w.h.p. the set is
    an O(log Delta)-approximation computed in polylog rounds.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("graph must be non-empty")
    if not nx.is_connected(graph):
        raise ValueError("CONGEST algorithms require a connected graph")
    if network is None:
        network = CongestNetwork(graph, seed=seed)
    n = network.n
    if samples is None:
        samples = default_samples(n)
    if max_phases is None:
        max_phases = 50 * (int(math.log2(max(n, 2))) + 2)

    network.reset_state()
    total = RunStats(word_bits=network.word_bits)

    bfs = network.run(lambda view: BfsTreeAlgorithm(view, n - 1), label="bfs")
    total = total + bfs.stats
    for node_id in network.ids():
        network.node_state[node_id]["in_U"] = True
        network.node_state[node_id]["in_DS"] = False

    phases = 0
    cleanup: set[int] = set()
    ds_curve: list[int] = []
    u_curve: list[int] = []
    while True:
        phases += 1
        for stage_label, stage in (
            ("estimate", lambda view: EstimationStage(view, samples)),
            ("rho-flood", RhoFloodAlgorithm),
            ("rank-vote", RankVoteAlgorithm),
            ("vote-estimate", lambda view: VoteEstimationAlgorithm(view, samples)),
            ("winner", WinnerAlgorithm),
        ):
            result = network.run(stage, label=stage_label)
            total = total + result.stats
        check = network.run(
            lambda view: GlobalOrAlgorithm(view, "in_U"), label="global-or"
        )
        total = total + check.stats
        # Per-phase convergence points, straight from the model state the
        # driver already reads (|DS| grows, |U| shrinks): deterministic
        # given the seed, identical across engines and backends.
        ds_curve.append(
            sum(
                1
                for node_id in network.ids()
                if network.node_state[node_id].get("in_DS", False)
            )
        )
        u_curve.append(
            sum(
                1
                for node_id in network.ids()
                if network.node_state[node_id].get("in_U", False)
            )
        )
        any_uncovered = next(iter(check.outputs.values()))
        if not any_uncovered:
            break
        if phases >= max_phases:
            # Local fallback: uncovered vertices join the set themselves
            # (zero communication); keeps the output always dominating.
            cleanup = {
                node_id
                for node_id in network.ids()
                if network.node_state[node_id].get("in_U", False)
            }
            break

    ds_ids = {
        node_id
        for node_id in network.ids()
        if network.node_state[node_id].get("in_DS", False)
    } | cleanup
    dominating = {network.label_of(v) for v in ds_ids}

    collector = getattr(network, "collector", None)
    if collector is not None:
        collector.record_convergence(
            "dominating_set_size", ds_curve + [len(ds_ids)]
        )
        collector.record_convergence("uncovered_nodes", u_curve)

    return DistributedCoverResult(
        cover=dominating,
        stats=total,
        detail={
            "mode": "congest-mds",
            "phases": phases,
            "samples": samples,
            "cleanup": {network.label_of(v) for v in cleanup},
        },
    )
