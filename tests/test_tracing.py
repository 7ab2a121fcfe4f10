"""Tests for the per-round traffic trace: the recorded RoundEvent list."""

from __future__ import annotations

import networkx as nx
from conftest import record_events

from repro.congest.network import CongestNetwork
from repro.congest.primitives import BfsTreeAlgorithm
from repro.core.mvc_congest import PhaseOneAlgorithm


def test_trace_disabled_by_default():
    net = CongestNetwork(nx.path_graph(5))
    assert net.on_round is None
    result = net.run(lambda view: BfsTreeAlgorithm(view, 4))
    assert not hasattr(result, "trace")


def test_trace_counts_sum_to_stats():
    net = CongestNetwork(nx.cycle_graph(8))
    events = record_events(net)
    result = net.run(lambda view: BfsTreeAlgorithm(view, 0))
    assert events
    assert sum(rec.messages for rec in events) == result.stats.messages
    assert sum(rec.words for rec in events) == result.stats.total_words


def test_trace_round_indices_sequential():
    net = CongestNetwork(nx.path_graph(6))
    events = record_events(net)
    result = net.run(lambda view: BfsTreeAlgorithm(view, 0))
    indices = [rec.round_index for rec in events]
    assert indices == list(range(len(indices)))
    assert indices[-1] == result.stats.rounds


def test_trace_alive_monotone_for_bfs():
    # Nodes finish as the wave passes: alive counts never increase.
    net = CongestNetwork(nx.path_graph(10))
    events = record_events(net)
    net.run(lambda view: BfsTreeAlgorithm(view, 0))
    alive = [rec.alive for rec in events]
    assert all(a >= b for a, b in zip(alive, alive[1:]))
    assert alive[-1] == 0


def test_trace_shows_phase_one_cadence():
    # Phase I broadcasts statuses every 4th round: traffic peaks repeat.
    g = nx.cycle_graph(12)
    net = CongestNetwork(g)
    events = record_events(net)
    net.run(lambda view: PhaseOneAlgorithm(view, threshold=2, iterations=3))
    status_rounds = [rec for rec in events if rec.round_index % 4 == 0]
    # Every status round is a full broadcast: 2 * |E| messages.
    for rec in status_rounds[:3]:
        assert rec.messages == 2 * g.number_of_edges()
