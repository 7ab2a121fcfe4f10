"""Property-based cross-checks: congest solvers vs the exact solvers.

For random seeded instances, the distributed solver outputs must be
*feasible* (checked through :mod:`repro.graphs.validation`) and *within the
paper's approximation factor* of the corresponding exact optimum.  The
``engine_name`` fixture runs every property on both execution engines, so
these double as behavioral invariants of the engine-v2 rewrite.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.congest.network import CongestNetwork
from repro.core.mds_congest import approx_mds_square
from repro.core.mvc_congest import approx_mvc_square
from repro.core.mwvc_congest import approx_mwvc_square
from repro.exact.dominating_set import minimum_dominating_set
from repro.exact.vertex_cover import (
    minimum_vertex_cover,
    minimum_weighted_vertex_cover,
)
from repro.graphs.generators import gnp_graph, random_weights
from repro.graphs.power import square
from repro.graphs.validation import (
    WEIGHT,
    cover_weight,
    is_dominating_set,
    is_vertex_cover,
)

_ENGINE_FIXTURE_OK = [HealthCheck.function_scoped_fixture]


@settings(
    max_examples=8, deadline=None, suppress_health_check=_ENGINE_FIXTURE_OK
)
@given(
    n=st.integers(6, 13),
    seed=st.integers(0, 50),
    eps=st.sampled_from([1.0, 0.5, 0.34]),
)
def test_mvc_congest_feasible_and_within_factor(engine_name, n, seed, eps):
    """Theorem 1: the returned set covers G^2 at cost <= (1+eps) * OPT."""
    graph = gnp_graph(n, 0.3, seed=seed)
    sq = square(graph)
    network = CongestNetwork(graph, seed=seed, engine=engine_name)
    result = approx_mvc_square(graph, eps, network=network)
    assert is_vertex_cover(sq, result.cover)
    opt = len(minimum_vertex_cover(sq))
    assert len(result.cover) <= (1 + eps) * opt + 1e-9


@settings(
    max_examples=8, deadline=None, suppress_health_check=_ENGINE_FIXTURE_OK
)
@given(n=st.integers(6, 12), seed=st.integers(0, 50))
def test_mwvc_congest_feasible_and_within_factor(engine_name, n, seed):
    """Theorem 7: weighted cover of G^2 at weight <= (1+eps) * OPT_w."""
    eps = 0.5
    graph = random_weights(gnp_graph(n, 0.3, seed=seed), high=12, seed=seed)
    sq = square(graph)
    for v in sq.nodes:
        sq.nodes[v][WEIGHT] = graph.nodes[v][WEIGHT]
    network = CongestNetwork(graph, seed=seed, engine=engine_name)
    result = approx_mwvc_square(graph, eps, network=network)
    assert is_vertex_cover(sq, result.cover)
    weights = {v: graph.nodes[v][WEIGHT] for v in graph.nodes}
    opt_cover = minimum_weighted_vertex_cover(sq, weights)
    opt = sum(weights[v] for v in opt_cover)
    assert cover_weight(sq, result.cover) <= (1 + eps) * opt + 1e-9


@settings(
    max_examples=6, deadline=None, suppress_health_check=_ENGINE_FIXTURE_OK
)
@given(n=st.integers(6, 11), seed=st.integers(0, 40))
def test_mds_congest_feasible_and_bounded(engine_name, n, seed):
    """Theorem 28: always a dominating set of G^2; O(log Delta) quality.

    The approximation guarantee is with-high-probability, so the factor
    check uses the (generous) explicit greedy bound ``ln(Delta^2 + 1) + 2``
    that the [CD18] potential argument yields at these sizes.
    """
    graph = gnp_graph(n, 0.3, seed=seed)
    sq = square(graph)
    network = CongestNetwork(graph, seed=seed, engine=engine_name)
    result = approx_mds_square(graph, network=network)
    assert is_dominating_set(sq, result.cover)
    opt = len(minimum_dominating_set(sq))
    max_degree = max(dict(sq.degree).values()) if sq.number_of_edges() else 0
    factor = math.log(max_degree * max_degree + 1) + 2
    assert len(result.cover) <= max(1.0, factor) * opt + 1e-9
