"""The sweep task registry: named cell evaluators.

Each task is a function ``(cell: Cell) -> dict`` mapping one grid cell to a
JSON-serializable payload.  Payloads must be *deterministic* — a function of
the cell alone, with no wall-clock or machine-dependent values — because the
runner's parity guarantee (serial and parallel evaluation of the same grid
merge byte-identically) rests on it.  Timing lives in the runner's
:class:`~repro.sweep.runner.CellResult`, never in the payload.

Conventions shared by the built-in tasks:

* ``stats`` — the simulator :class:`~repro.congest.network.RunStats` as a
  plain dict (see :func:`stats_to_json`); the runner re-aggregates these
  with ``RunStats.__add__`` per word size.
* ``signature`` — a short hex digest of the solution, used by differential
  checks (engine v1 vs v2 parity at benchmark scale) without shipping the
  full solution between processes.
* per-cell run options — ``RunConfig.from_cell`` reads ``cell.engine``
  and the MPC params and builds the cell's network, so one grid can mix
  ``v1`` and ``v2`` cells or compression windows.

New tasks register with :func:`register_task`; the registry is module-level
state, so tasks defined in test or benchmark modules are visible to
``multiprocessing`` workers under the default ``fork`` start method (and to
``spawn`` workers as long as the defining module is imported on both sides).
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from collections.abc import Callable, Iterable
from typing import Any

from repro.config import RunConfig
from repro.congest.network import CongestNetwork, RunStats
from repro.sweep.spec import Cell

TaskFn = Callable[[Cell], dict[str, Any]]

_REGISTRY: dict[str, TaskFn] = {}

#: Tasks that build their workload graph through :func:`_cell_graph` and
#: therefore benefit from the shared graph cache (see below).
_GRAPH_TASKS: set[str] = set()

#: ``graph_cache_key -> built graph``.  Populated by
#: :func:`prewarm_graph_cache` in the sweep parent before any cell runs;
#: pool workers receive it once (inherited under ``fork``, shipped through
#: the pool initializer under ``spawn``), so repeated cells stop paying
#: graph-generation cost.  Cached graphs are shared read-only: tasks must
#: not mutate the graph they are handed (none of the built-ins do — they
#: derive new graphs like ``square(graph)`` instead).
_GRAPH_CACHE: dict[tuple[Any, ...], Any] = {}


def register_task(
    name: str, *, graph_cache: bool = False
) -> Callable[[TaskFn], TaskFn]:
    """Decorator registering ``fn`` as the evaluator for task ``name``.

    ``graph_cache=True`` declares that the task builds its graph via
    :func:`_cell_graph`, letting the sweep runner prewarm the shared graph
    cache for its cells.
    """

    def deco(fn: TaskFn) -> TaskFn:
        if name in _REGISTRY:
            raise ValueError(f"task {name!r} already registered")
        _REGISTRY[name] = fn
        if graph_cache:
            _GRAPH_TASKS.add(name)
        return fn

    return deco


def get_task(name: str) -> TaskFn:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep task {name!r}; known tasks: {task_names()}"
        ) from None


def task_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def stats_to_json(stats: RunStats) -> dict[str, int]:
    return {
        "rounds": stats.rounds,
        "messages": stats.messages,
        "total_words": stats.total_words,
        "max_words_per_edge_round": stats.max_words_per_edge_round,
        "cut_words": stats.cut_words,
        "word_bits": stats.word_bits,
    }


def stats_from_json(data: dict[str, int]) -> RunStats:
    return RunStats(**data)


def signature_of(items: Iterable[Any]) -> str:
    """Order-independent digest of a solution set."""
    canon = ",".join(sorted(repr(x) for x in items))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


#: Tasks that honor the ``metrics`` cell param by embedding a
#: :class:`repro.metrics.MetricsCollector` document in their payload.
METRICS_TASKS: frozenset[str] = frozenset(
    {"mvc-congest", "mds-congest", "mpc-mvc", "mpc-mds", "mpc-matching"}
)


#: Cell coordinates that select a backend variant rather than a workload;
#: they must stay out of the metrics label, which sits inside the
#: deterministic section and therefore must be byte-identical across
#: engines, compression windows, worker counts and fault plans on the
#: same workload.
_VARIANT_PARAMS = frozenset(
    {"compress", "parity", "metrics", "mpc_workers", "faults"}
)


def _metrics_label(cell: Cell) -> str:
    parts = [cell.task, cell.graph, f"n={cell.n}", f"seed={cell.seed}"]
    if cell.eps is not None:
        parts.append(f"eps={cell.eps:g}")
    parts.extend(
        f"{k}={v}" for k, v in cell.params if k not in _VARIANT_PARAMS
    )
    return "/".join(parts)


def _cell_collector(cell: Cell):
    """The cell's metrics collector (``metrics`` param), or ``None``."""
    if not cell.param("metrics"):
        return None
    from repro.metrics import MetricsCollector

    return MetricsCollector(label=_metrics_label(cell))


def graph_cache_key(cell: Cell) -> tuple[Any, ...] | None:
    """Cache key of the graph a cell would build, or None if uncacheable.

    Keys are exactly the :func:`~repro.graphs.generators.build_graph`
    coordinates — ``(kind, n, seed, params)`` — so two cells that differ
    only in solver-side axes (engine, eps, samples, replicate-independent
    seeds with an explicit ``graph_seed``) share one built graph.
    """
    if cell.task not in _GRAPH_TASKS:
        return None
    return (
        cell.graph,
        cell.n,
        cell.param("graph_seed", cell.seed),
        cell.param("gnp_p"),
    )


def prewarm_graph_cache(cells: Iterable[Cell]) -> int:
    """Build (once) every distinct graph the given cells will request.

    Returns the number of graphs *newly built* into the cache.  Called by
    the sweep runner in the parent process before evaluation starts, so
    pool workers never regenerate a graph the parent already built.  A
    kind the generator rejects is skipped silently — the owning cell will
    raise the real error (captured per cell) when it actually runs — but
    a :class:`TimeoutError` propagates: it means the runner's prewarm
    budget expired, not that a cell is unbuildable.
    """
    from repro.graphs.generators import build_graph

    built = 0
    for cell in cells:
        key = graph_cache_key(cell)
        if key is None or key in _GRAPH_CACHE:
            continue
        kind, n, seed, p = key
        try:
            _GRAPH_CACHE[key] = build_graph(kind, n, seed=seed, p=p)
        except TimeoutError:
            raise
        except Exception:
            continue
        built += 1
    return built


def export_graph_cache() -> dict[tuple[Any, ...], Any]:
    """Snapshot of the graph cache, for shipping to ``spawn`` workers."""
    return dict(_GRAPH_CACHE)


def install_graph_cache(graphs: dict[tuple[Any, ...], Any]) -> None:
    """Install a parent-exported cache in this (worker) process."""
    _GRAPH_CACHE.update(graphs)


def clear_graph_cache() -> None:
    """Drop all cached graphs (tests and memory-conscious callers)."""
    _GRAPH_CACHE.clear()


def _cell_graph(cell: Cell):
    from repro.graphs.generators import build_graph

    key = graph_cache_key(cell)
    if key is not None:
        graph = _GRAPH_CACHE.get(key)
        if graph is not None:
            return graph
    p = cell.param("gnp_p")
    graph_seed = cell.param("graph_seed", cell.seed)
    graph = build_graph(cell.graph, cell.n, seed=graph_seed, p=p)
    if key is not None:
        _GRAPH_CACHE[key] = graph
    return graph


# -- cover / dominating-set solvers ---------------------------------------


def _cover_payload(
    cell: Cell,
    result: Any,
    collector: Any = None,
    exact: Callable[[], int] | None = None,
    **extra: Any,
) -> dict[str, Any]:
    """The payload every cover task shares, plus task-specific ``extra``.

    An ``mpc`` ledger's fault/recovery report moves to the top level
    (matching ``mpc-matching``), keeping ``mpc`` the parity-compared
    ledger.  ``exact`` computes the optimum for cells with the ``exact``
    param.
    """
    payload: dict[str, Any] = {
        "cover_size": len(result.cover),
        "stats": stats_to_json(result.stats),
        "signature": signature_of(result.cover),
        **extra,
    }
    if "faults" in extra.get("mpc", ()):
        payload["faults"] = extra["mpc"].pop("faults")
    if collector is not None:
        payload["metrics"] = collector.to_json()
    if exact is not None and cell.param("exact"):
        opt = exact()
        payload["opt"] = opt
        payload["ratio"] = len(result.cover) / opt
    return payload


@register_task("mvc-congest", graph_cache=True)
def _mvc_congest(cell: Cell) -> dict[str, Any]:
    """Algorithm 1 ((1+eps)-MVC of G^2) on the CONGEST simulator."""
    from repro.core.mvc_congest import approx_mvc_square
    from repro.exact.vertex_cover import minimum_vertex_cover
    from repro.graphs.power import square
    from repro.graphs.validation import assert_vertex_cover

    eps = 0.5 if cell.eps is None else cell.eps
    graph = _cell_graph(cell)
    collector = _cell_collector(cell)
    network = RunConfig.from_cell(cell).network(
        graph, cell.seed, collector=collector
    )
    result = approx_mvc_square(graph, eps, network=network)
    sq = square(graph)
    assert_vertex_cover(sq, result.cover)
    return _cover_payload(
        cell, result, collector, lambda: len(minimum_vertex_cover(sq))
    )


@register_task("mvc-clique-det", graph_cache=True)
def _mvc_clique_det(cell: Cell) -> dict[str, Any]:
    """Deterministic congested-clique MVC (Theorem 24)."""
    from repro.core.mvc_clique import approx_mvc_square_clique_deterministic
    from repro.graphs.power import square
    from repro.graphs.validation import assert_vertex_cover

    eps = 0.5 if cell.eps is None else cell.eps
    graph = _cell_graph(cell)
    config = RunConfig.from_cell(cell, "clique-det")
    result = approx_mvc_square_clique_deterministic(
        graph, eps, network=config.network(graph, cell.seed)
    )
    assert_vertex_cover(square(graph), result.cover)
    return _cover_payload(cell, result)


@register_task("mds-congest", graph_cache=True)
def _mds_congest(cell: Cell) -> dict[str, Any]:
    """Theorem 28 (O(log Delta)-MDS of G^2) on the CONGEST simulator."""
    from repro.core.mds_congest import approx_mds_square
    from repro.exact.dominating_set import minimum_dominating_set
    from repro.graphs.power import square
    from repro.graphs.validation import assert_dominating_set

    graph = _cell_graph(cell)
    collector = _cell_collector(cell)
    network = RunConfig.from_cell(cell).network(
        graph, cell.seed, collector=collector
    )
    result = approx_mds_square(graph, network=network)
    sq = square(graph)
    assert_dominating_set(sq, result.cover)
    return _cover_payload(
        cell, result, collector, lambda: len(minimum_dominating_set(sq)),
        phases=result.detail["phases"],
        max_degree=max(d for _, d in graph.degree),
    )


@register_task("mds-estimator", graph_cache=True)
def _mds_estimator(cell: Cell) -> dict[str, Any]:
    """Lemma 29 two-hop-size estimator concentration on one graph."""
    from repro.core.estimation import estimate_neighborhood_sizes
    from repro.graphs.power import two_hop_neighbors

    graph = _cell_graph(cell)
    samples = int(cell.param("samples", 32))
    net = RunConfig.from_cell(cell).network(graph, cell.seed)
    estimates, result = estimate_neighborhood_sizes(
        net, members=list(graph.nodes), samples=samples
    )
    truth = {
        v: len(two_hop_neighbors(graph, v) | {v}) for v in graph.nodes
    }
    errors = [abs(estimates[v] - truth[v]) / truth[v] for v in graph.nodes]
    return {
        "samples": samples,
        "max_rel_err": max(errors),
        "mean_rel_err": sum(errors) / len(errors),
        "stats": stats_to_json(result.stats),
        "signature": signature_of(sorted(estimates.items())),
    }


# -- low-space MPC backend tasks ------------------------------------------


@register_task("mpc-mvc", graph_cache=True)
def _mpc_mvc(cell: Cell) -> dict[str, Any]:
    """Algorithm 1 compiled onto the MPC backend.

    One shuffle per CONGEST round classically; with a ``compress`` param
    ``> 1`` the compiler batches up to that many rounds behind each
    prefetch shuffle (adaptively, falling back where the frontier exceeds
    the window budget).  With ``params=(("parity", True),)`` the cell also
    runs an engine-v2 shadow and asserts word-for-word metering parity
    (outputs, RunStats, per-round event stream).  The congest-level
    ``stats`` payload is byte-identical to the ``mvc-congest`` task's on
    the same cell coordinates — at every ``compress`` — which is what
    ``bench_mpc.py`` checks.
    """
    from repro.graphs.power import square
    from repro.graphs.validation import assert_vertex_cover
    from repro.mpc.compile_congest import solve_mvc_mpc

    eps = 0.5 if cell.eps is None else cell.eps
    graph = _cell_graph(cell)
    collector = _cell_collector(cell)
    result, mpc = solve_mvc_mpc(
        graph,
        eps,
        RunConfig.from_cell(cell),
        seed=cell.seed,
        check_parity=bool(cell.param("parity", False)),
        collector=collector,
    )
    assert_vertex_cover(square(graph), result.cover)
    return _cover_payload(cell, result, collector, mpc=mpc)


@register_task("mpc-mds", graph_cache=True)
def _mpc_mds(cell: Cell) -> dict[str, Any]:
    """Theorem 28 MDS compiled onto the MPC backend (see ``mpc-mvc``)."""
    from repro.graphs.power import square
    from repro.graphs.validation import assert_dominating_set
    from repro.mpc.compile_congest import solve_mds_mpc

    graph = _cell_graph(cell)
    collector = _cell_collector(cell)
    result, mpc = solve_mds_mpc(
        graph,
        RunConfig.from_cell(cell),
        seed=cell.seed,
        check_parity=bool(cell.param("parity", False)),
        collector=collector,
    )
    assert_dominating_set(square(graph), result.cover)
    return _cover_payload(
        cell, result, collector, phases=result.detail["phases"], mpc=mpc
    )


@register_task("mpc-matching", graph_cache=True)
def _mpc_matching(cell: Cell) -> dict[str, Any]:
    """Native MPC greedy maximal matching, oracle-verified.

    The cell fails (captured by the runner) unless the output is a valid
    maximal matching within the 2-approximation band of the centralized
    greedy oracle.
    """
    from repro.exact.matching import deterministic_maximal_matching
    from repro.mpc.matching import (
        assert_maximal_matching,
        mpc_maximal_matching,
    )

    config = RunConfig.from_cell(cell)
    graph = _cell_graph(cell)
    collector = _cell_collector(cell)
    result = mpc_maximal_matching(
        graph, alpha=config.alpha, seed=cell.seed, workers=config.workers,
        faults=config.faults, collector=collector,
    )
    assert_maximal_matching(graph, result.matching)
    oracle = deterministic_maximal_matching(graph)
    if oracle and not (
        len(oracle) / 2 <= len(result.matching) <= 2 * len(oracle)
    ):
        raise AssertionError(
            f"matching size {len(result.matching)} outside the maximal band "
            f"[{len(oracle) / 2:g}, {2 * len(oracle)}] of the oracle"
        )
    payload: dict[str, Any] = {
        "matching_size": len(result.matching),
        "oracle_size": len(oracle),
        "phases": result.phases,
        "signature": signature_of(
            tuple(sorted(tuple(sorted(map(repr, e))) for e in result.matching))
        ),
        "mpc": result.summary(),
    }
    if result.faults is not None:
        payload["faults"] = result.faults
    if collector is not None:
        payload["metrics"] = collector.to_json()
    return payload


@register_task("mpc-parity", graph_cache=True)
def _mpc_parity(cell: Cell) -> dict[str, Any]:
    """Round-compilation trust-but-check: stage parity plus matching.

    Runs the Phase I MVC protocol and the Lemma 29 estimator as bare
    stages on the MPC runtime against an engine-v2 shadow (outputs, stats
    and round events must be identical), then the native matching with its
    maximality oracle.  The CLI ``verify --model mpc`` fans these cells
    out over seeds.
    """
    from repro.core.estimation import EstimationStage
    from repro.core.mvc_congest import PhaseOneAlgorithm
    from repro.exact.matching import deterministic_maximal_matching
    from repro.mpc.compile_congest import run_stage_parity
    from repro.mpc.matching import (
        assert_maximal_matching,
        mpc_maximal_matching,
    )

    config = RunConfig.from_cell(cell)
    graph = _cell_graph(cell)

    def prepare(network: CongestNetwork) -> None:
        for node_id in network.ids():
            network.node_state[node_id]["in_U"] = True

    report = run_stage_parity(
        graph,
        [
            lambda view: PhaseOneAlgorithm(view, threshold=2, iterations=4),
            lambda view: EstimationStage(view, samples=6),
        ],
        config,
        seed=cell.seed,
        prepare=prepare,
    )
    matching = mpc_maximal_matching(
        graph, alpha=config.alpha, seed=cell.seed, workers=config.workers,
        faults=config.faults,
    )
    assert_maximal_matching(graph, matching.matching)
    oracle = deterministic_maximal_matching(graph)
    return {
        "ok": True,
        "stages": report["stages"],
        "congest_rounds": report["congest_rounds"],
        "matching_size": len(matching.matching),
        "oracle_size": len(oracle),
        "mpc": report["mpc"],
    }


# -- engine-scaling primitives (sparse-activity workloads) ----------------


@register_task("pipeline-path")
def _pipeline_path(cell: Cell) -> dict[str, Any]:
    """BFS + convergecast of a token batch along a path.

    The canonical sparse-activity workload: outside the token front almost
    every node is idle almost every round, which is where the activity
    engine's wake scheduling pays off.
    """
    from repro.congest.primitives import convergecast_tokens
    from repro.graphs.generators import path_graph

    tokens_per_node = int(cell.param("tokens", 16))
    net = RunConfig.from_cell(cell).network(path_graph(cell.n), cell.seed)
    tokens = {0: [(i, i) for i in range(tokens_per_node)]}
    collected, combined = convergecast_tokens(net, tokens)
    return {
        "collected": len(collected),
        "stats": stats_to_json(combined.stats),
        "signature": signature_of(collected),
    }


@register_task("broadcast-star")
def _broadcast_star(cell: Cell) -> dict[str, Any]:
    """BFS + token broadcast on a high-degree star."""
    from repro.congest.primitives import broadcast_tokens
    from repro.graphs.generators import star_graph

    tokens_per_node = int(cell.param("tokens", 16))
    net = RunConfig.from_cell(cell).network(star_graph(cell.n), cell.seed)
    result, _bfs = broadcast_tokens(
        net, [(i,) for i in range(tokens_per_node)]
    )
    return {
        "received": len(result.outputs[0]),
        "stats": stats_to_json(result.stats),
        "signature": signature_of(result.outputs[0]),
    }


# -- lower-bound family verification (the CLI `verify` cells) -------------


def _verify_family(cell: Cell, family: str) -> dict[str, Any]:
    from repro.exact.dominating_set import (
        minimum_dominating_set,
        minimum_weighted_dominating_set,
    )
    from repro.exact.vertex_cover import minimum_vertex_cover
    from repro.graphs.power import square
    from repro.lowerbounds.bcd19 import bcd19_threshold, build_bcd19_mds
    from repro.lowerbounds.ckp17 import build_ckp17_mvc, ckp17_threshold
    from repro.lowerbounds.disjointness import disj, random_instance
    from repro.lowerbounds.mds_square_gap import (
        GapConstructionParams,
        build_gap_family,
    )

    k = int(cell.param("k", 2))
    x, y = random_instance(k, seed=cell.seed)
    if family == "ckp17":
        fam = build_ckp17_mvc(x, y, k)
        value = len(minimum_vertex_cover(fam.graph))
        tight = value == ckp17_threshold(k)
    elif family == "bcd19":
        fam = build_bcd19_mds(x, y, k)
        value = len(minimum_dominating_set(fam.graph))
        tight = value <= bcd19_threshold(k)
    else:
        params = GapConstructionParams()
        small_x = frozenset(p for p in x if p[0] <= 3 and p[1] <= 3)
        small_y = frozenset(p for p in y if p[0] <= 3 and p[1] <= 3)
        weighted = family == "gap-weighted"
        fam = build_gap_family(small_x, small_y, params, weighted=weighted)
        sq = square(fam.graph)
        if weighted:
            weights = fam.extra["weights"]
            ds = minimum_weighted_dominating_set(sq, weights)
            value = sum(weights[v] for v in ds)
        else:
            value = len(minimum_dominating_set(sq))
        tight = value <= fam.threshold
    expected = not disj(fam.x, fam.y)
    return {
        "value": value,
        "threshold": fam.threshold,
        "intersecting": expected,
        "ok": tight == expected,
    }


for _family in ("ckp17", "bcd19", "gap-weighted", "gap-unweighted"):
    def _make(family: str) -> TaskFn:
        def _task(cell: Cell) -> dict[str, Any]:
            return _verify_family(cell, family)

        _task.__doc__ = f"Exact verification of one {family} instance."
        return _task

    _REGISTRY[f"verify-{_family}"] = _make(_family)


# -- self-test tasks (failure / timeout plumbing) -------------------------


@register_task("selftest-ok")
def _selftest_ok(cell: Cell) -> dict[str, Any]:
    """Trivial succeeding task; exercises runner plumbing in tests."""
    return {"n": cell.n, "seed": cell.seed, "signature": f"ok-{cell.n}"}


@register_task("selftest-fail")
def _selftest_fail(cell: Cell) -> dict[str, Any]:
    """Always raises; exercises worker-failure capture."""
    raise RuntimeError(f"selftest-fail cell n={cell.n} seed={cell.seed}")


@register_task("selftest-sleep")
def _selftest_sleep(cell: Cell) -> dict[str, Any]:
    """Sleeps ``params['sleep']`` seconds; exercises timeout capture."""
    time.sleep(float(cell.param("sleep", 1.0)))  # repro: allow[DET002] selftest task exists to exercise timeout capture
    return {"slept": float(cell.param("sleep", 1.0))}


@register_task("selftest-kill")
def _selftest_kill(cell: Cell) -> dict[str, Any]:
    """SIGKILLs its own process — simulates an OOM-killed pool worker.

    The runner must record a per-cell error (``BrokenProcessPool``) rather
    than hang waiting for a result that will never arrive.  Never run this
    serially: in-process it kills the caller, which is the simulated
    disaster, not a test harness.

    With a ``marker`` param (a file path), the kill happens only while
    the marker does not exist — the first attempt creates it and dies,
    any retry succeeds.  That is the pool-level transient the runner's
    fresh-worker retry path exists for.
    """
    marker = cell.param("marker")
    if marker is not None:
        from pathlib import Path

        path = Path(str(marker))
        if path.exists():
            return {"n": cell.n, "signature": f"kill-recovered-{cell.n}"}
        path.write_text("killed once\n")
    os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("unreachable")  # pragma: no cover


@register_task("selftest-flaky")
def _selftest_flaky(cell: Cell) -> dict[str, Any]:
    """Fails transiently on the first attempt, succeeds afterwards.

    Uses a ``marker`` param (a file path) as cross-attempt state: while
    the marker does not exist the task creates it and raises
    :class:`~repro.mpc.parallel.WorkerCrashError` — the canonical
    transient the retry loop is allowed to retry.  Without a marker the
    task always succeeds.
    """
    marker = cell.param("marker")
    if marker is not None:
        from pathlib import Path

        from repro.mpc.parallel import WorkerCrashError

        path = Path(str(marker))
        if not path.exists():
            path.write_text("failed once\n")
            raise WorkerCrashError(
                f"selftest-flaky first attempt n={cell.n} seed={cell.seed}"
            )
    return {"n": cell.n, "seed": cell.seed, "signature": f"flaky-{cell.n}"}
