"""Shared fixtures for the test-suite."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.congest.network import CongestNetwork, RoundEvent
from repro.graphs.generators import gnp_graph, random_geometric, random_tree


def record_events(network: CongestNetwork) -> list[RoundEvent]:
    """Subscribe a fresh list to ``network``'s round events; return it."""
    events: list[RoundEvent] = []
    network.subscribe(events.append)
    return events


@pytest.fixture
def path5() -> nx.Graph:
    return nx.path_graph(5)


@pytest.fixture
def star6() -> nx.Graph:
    return nx.star_graph(5)  # 6 vertices


@pytest.fixture
def small_connected() -> nx.Graph:
    return gnp_graph(14, 0.25, seed=3)


@pytest.fixture
def medium_connected() -> nx.Graph:
    return gnp_graph(24, 0.15, seed=5)


@pytest.fixture(params=["v1", "v2"], ids=["engine-v1", "engine-v2"])
def engine_name(request) -> str:
    """Simulator engine under test.

    Parametrizes the parity/invariant suites over both execution engines so
    every property is checked on the reference loop and on the
    activity-scheduled runtime.
    """
    return request.param


@pytest.fixture(params=["gnp", "tree", "geometric"])
def workload(request) -> nx.Graph:
    if request.param == "gnp":
        return gnp_graph(16, 0.2, seed=11)
    if request.param == "tree":
        return random_tree(16, seed=11)
    return random_geometric(16, seed=11)
