"""Closed-loop solve benchmark for the CONGEST and MPC backends.

One process runs solves back to back on seeded connected G(n, p)
instances and times each from outside the program.  The first instance
is solved twice in a row, and the ledger-digest check compares the two.
A traced run solves every instance twice, and one of the two solves
carries the layer wrappers of :mod:`layertrace`, so the same comparison
proves the wrappers are pure observers.  On MPC workloads each solve
also gets an engine-v2 twin on the same instance, timed back to back
with it, which supplies both the parity check and the
``slowdown_vs_congest`` ratio.

Correctness checks run outside the timed regions.  A solve fails when
its answer is not a vertex cover (or dominating set) of ``square(G)``,
when an MPC answer or ``RunStats`` differs from its engine-v2 twin, or
when its ledger digest differs from the other solve of its instance.

Host speed on shared machines drifts by tens of percent within minutes,
and each CPU drifts on its own.  So every timed solve (and every twin)
runs between two calls of :func:`reference_seconds`, a fixed pure-Python
kernel that uses no ``repro`` code, run at once on every CPU, and the
end-to-end times are reported host-normalised: wall time scaled by
``REFERENCE_S`` over the mean of the two reference times, i.e. seconds
on a host on which the kernel takes ``REFERENCE_S``.  The raw wall
medians are printed too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import resource
import statistics
import struct
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import networkx as nx

from repro.congest.network import CongestNetwork, RunStats
from repro.core.mds_congest import approx_mds_square
from repro.core.mvc_congest import approx_mvc_square
from repro.graphs.generators import gnp_graph
from repro.graphs.power import square
from repro.graphs.validation import is_dominating_set, is_vertex_cover
from repro.mpc.compile_congest import MPCCongestNetwork

from layertrace import LayerTrace

#: Approximation slack of Algorithm 1 on the MVC workloads (ROADMAP E01).
EPSILON = 0.5

#: Separates the instance streams of different ``--seed`` values.
SEED_STRIDE = 1_000_003

#: Nominal duration of one :func:`reference_seconds` kernel, about what
#: it takes on an idle 2-CPU Xeon host; the unit of host-normalised time.
REFERENCE_S = 0.025

_REF_N = 3000
_REF_NEIGHBORS = tuple(
    tuple((v + d) % _REF_N for d in (1, 2, 3, -1, -2, -3)) for v in range(_REF_N)
)


def _kernel_seconds() -> float:
    """Time a fixed mailbox loop shaped like a simulator round.

    Four rounds of max-flooding on a 6-regular ring lattice through
    dict-of-dict inboxes: the same mix of tuple building, dict inserts
    and small-object churn as the engines, with no ``repro`` code, so
    that a change to the program never changes this yardstick.  The
    cyclic collector is off while it runs: a collection would scan the
    caller's whole heap and tie the yardstick to what the caller holds.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        state = list(range(_REF_N))
        for r in range(4):
            inbox: dict[int, dict[int, tuple[int, int]]] = {
                v: {} for v in range(_REF_N)
            }
            for v, neighbors in enumerate(_REF_NEIGHBORS):
                payload = (state[v], r)
                for u in neighbors:
                    inbox[u][v] = payload
            for v in range(_REF_N):
                state[v] = max(p[0] for p in inbox[v].values())
        return time.perf_counter() - start
    finally:
        gc.enable()


def reference_seconds(slowest: bool = False) -> float:
    """Kernel time with the kernel running at once on every CPU.

    Each CPU of a shared host drifts on its own.  A serial solve runs on
    any of them, so its yardstick is the mean over all CPUs; shard
    workers meet at a barrier every round, so a parallel solve is paced
    by the slowest CPU and ``slowest=True`` returns the maximum.  The
    extra kernels run in forked children because only a fork starts them
    at once without a fresh interpreter; this process has no threads,
    and every child is waited for.
    """
    children = []
    for _ in range(len(os.sched_getaffinity(0)) - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            try:
                os.write(write_fd, struct.pack("d", _kernel_seconds()))
            finally:
                os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    times = [_kernel_seconds()]
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read(8)
        os.waitpid(pid, 0)
        if len(data) != 8:
            raise RuntimeError("a reference-kernel child died before reporting")
        times.append(struct.unpack("d", data)[0])
    return max(times) if slowest else sum(times) / len(times)


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a solver, a backend and an instance size."""

    name: str
    #: ``"mvc"`` (Algorithm 1) or ``"mds"`` (Theorem 28).
    problem: str
    n: int
    #: Expected average degree of the G(n, p) instances.
    degree: float
    #: ``MPCCongestNetwork`` keyword arguments; ``None`` runs engine v2.
    mpc: dict[str, Any] | None = None

    def graph(self, index: int, seed: int) -> nx.Graph:
        """Instance ``index`` of the stream that ``seed`` selects."""
        return gnp_graph(
            self.n, self.degree / (self.n - 1), seed=seed * SEED_STRIDE + index
        )

    @property
    def parallel(self) -> bool:
        """Whether solves run on more than one shard worker."""
        return self.mpc is not None and self.mpc.get("workers", 1) > 1

    def network(self, graph: nx.Graph) -> CongestNetwork:
        if self.mpc is None:
            return CongestNetwork(graph, engine="v2")
        return MPCCongestNetwork(graph, **self.mpc)


# The instance sizes and MPC settings are the ROADMAP's fixed points.
# ``MPCCongestNetwork`` + ``approx_*_square(network=...)`` is what
# ``solve_mvc_mpc`` / ``solve_mds_mpc`` run; the benchmark makes that
# split itself so that network construction lands in ``setup_s``.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("congest-mvc", "mvc", n=480, degree=6.0),
        Workload("congest-mds", "mds", n=160, degree=5.0),
        Workload(
            "mpc-mvc", "mvc", n=240, degree=6.0,
            mpc={"alpha": 0.8, "compress": 1, "workers": 1},
        ),
        Workload(
            "mpc-mvc-par", "mvc", n=240, degree=6.0,
            mpc={"alpha": 0.8, "compress": "auto", "workers": 2},
        ),
    )
}


def default_solve(
    workload: Workload,
    graph: nx.Graph,
    network: CongestNetwork,
    local_solver: Callable[..., set[int]] | None = None,
):
    """Run the workload's solver on a prebuilt network."""
    if workload.problem == "mvc":
        return approx_mvc_square(
            graph, EPSILON, network=network, local_solver=local_solver
        )
    return approx_mds_square(graph, network=network)


def ledger_digest(result: Any, network: CongestNetwork) -> str:
    """sha256 of the answer and every simulated count of one solve."""
    ledger: dict[str, Any] = {
        "cover": sorted(repr(v) for v in result.cover),
        "stats": dataclasses.asdict(result.stats),
    }
    if isinstance(network, MPCCongestNetwork):
        ledger["mpc"] = network.mpc_summary()
    blob = json.dumps(ledger, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def feasibility_error(workload: Workload, squared: nx.Graph, cover) -> str | None:
    if workload.problem == "mvc":
        ok = is_vertex_cover(squared, cover)
        what = "vertex cover"
    else:
        ok = is_dominating_set(squared, cover)
        what = "dominating set"
    return None if ok else f"not a {what} of square(G)"


@dataclass
class Solve:
    """The measurements of one timed solve (the network is not kept)."""

    stats: RunStats
    #: MPC shuffles, or CONGEST rounds on engine v2: a synchronous round
    #: is the barrier that a k=1 compilation turns into one shuffle.
    shuffles: int
    digest: str
    wall_s: float
    setup_s: float
    #: Mean :func:`reference_seconds` just before and just after the solve.
    reference_s: float
    #: The engine-v2 twin's host-normalised time (MPC workloads only).
    twin_s: float | None = None
    layers: dict[str, float] | None = None

    @property
    def scale(self) -> float:
        """Factor that turns this solve's wall times host-normalised."""
        return REFERENCE_S / self.reference_s


def _bracketed(
    call: Callable[[], Any], slowest: bool = False
) -> tuple[Any, float, float]:
    """Time ``call()`` between two :func:`reference_seconds` calls.

    Returns the result, the wall seconds of the call and the mean of
    the two reference times.
    """
    before = reference_seconds(slowest)
    gc.collect()
    start = time.perf_counter()
    result = call()
    wall_s = time.perf_counter() - start
    return result, wall_s, (before + reference_seconds(slowest)) / 2


def _timed_solve(
    workload: Workload,
    index: int,
    seed: int,
    solve: Callable[..., Any],
    trace: LayerTrace | None = None,
) -> tuple[Any, Solve]:
    start = time.perf_counter()
    graph = workload.graph(index, seed)
    built = time.perf_counter()
    network = workload.network(graph)
    ready = time.perf_counter()
    kwargs: dict[str, Any] = {}
    if trace is not None:
        trace.begin(network)
        if workload.problem == "mvc":
            kwargs["local_solver"] = trace.local_solver
    with trace.pool_wrappers() if trace is not None else contextlib.nullcontext():
        result, wall_s, reference_s = _bracketed(
            lambda: solve(workload, graph, network, **kwargs),
            slowest=workload.parallel,
        )
    if isinstance(network, MPCCongestNetwork):
        shuffles = network.runtime.stats.shuffles
    else:
        shuffles = result.stats.rounds
    run = Solve(
        result.stats, shuffles, ledger_digest(result, network), wall_s,
        ready - start, reference_s,
    )
    if trace is not None:
        run.layers = trace.end(wall_s)
        run.layers["setup.graph_s"] = built - start
        run.layers["setup.network_s"] = ready - built
    return result, run


def _twin(workload: Workload, graph: nx.Graph) -> tuple[Any, float]:
    """Solve ``graph`` on engine v2: the twin an MPC solve is paired with.

    Returns the result and its host-normalised time.
    """
    network = CongestNetwork(graph, engine="v2")
    result, wall_s, reference_s = _bracketed(
        lambda: default_solve(workload, graph, network)
    )
    return result, wall_s * REFERENCE_S / reference_s


def _check(
    workload: Workload,
    squared: nx.Graph,
    result: Any,
    twin: Any,
    digest: str,
    first_digest: str,
) -> list[str]:
    errors = []
    error = feasibility_error(workload, squared, result.cover)
    if error:
        errors.append(error)
    if twin is not None:
        if result.cover != twin.cover:
            errors.append("MPC cover differs from engine v2")
        if result.stats != twin.stats:
            errors.append("MPC RunStats differ from engine v2")
    if digest != first_digest:
        errors.append("ledger digest differs from the first solve")
    return errors


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    solve: Callable[..., Any] = default_solve,
) -> dict[str, Any]:
    """Run the closed loop for ``seconds`` and return the raw report.

    The loop solves at least two instances and starts no instance that
    the mean instance time so far says would end past ``seconds``.
    ``solve`` replaces the solver of the timed solves (the smoke tests
    hand in a broken one to prove that the gate fires); twins always use
    the real solver.
    """
    solves: list[Solve] = []
    traced_solves: list[Solve] = []
    failures: list[str] = []
    digests: dict[int, str] = {}
    start = time.perf_counter()
    index = 0
    while True:
        graph = workload.graph(index, seed)
        squared = square(graph)
        # A traced run solves every instance twice, once wrapped; an
        # untraced run repeats only the first instance, so that its time
        # goes to covering more instances.  Alternate which solve carries
        # the wrappers, and which side of an MPC/twin pair runs first, so
        # that neither side always runs on a warmer cache.
        for repeat in range(2 if traced or index == 0 else 1):
            wrapped = traced and repeat == index % 2
            twin = twin_s = None
            mpc_first = (index + repeat) % 2 == 0
            if workload.mpc is not None and not mpc_first:
                twin, twin_s = _twin(workload, graph)
            result, run = _timed_solve(
                workload, index, seed, solve, LayerTrace() if wrapped else None
            )
            if workload.mpc is not None and mpc_first:
                twin, twin_s = _twin(workload, graph)
            run.twin_s = twin_s
            errors = _check(
                workload, squared, result, twin, run.digest,
                digests.setdefault(index, run.digest),
            )
            if errors:
                failures.append(
                    f"{workload.name} instance {index} solve {repeat}: "
                    + "; ".join(errors)
                )
            (traced_solves if wrapped else solves).append(run)
        index += 1
        # Stop before an instance that would overrun the time budget.
        elapsed = time.perf_counter() - start
        if index >= 2 and elapsed * (index + 1) / index > seconds:
            break
    return {
        "attempted": len(solves) + len(traced_solves),
        "failures": failures,
        "solves": solves,
        "traced_solves": traced_solves,
        "digests": {str(i): d for i, d in sorted(digests.items())},
        "instances": index,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(report: dict[str, Any]) -> dict[str, dict[str, Any]]:
    solves: list[Solve] = report["solves"]
    if solves[0].twin_s is None:
        slowdown = [1.0]  # a CONGEST solve is its own CONGEST baseline
    else:
        slowdown = [s.wall_s * s.scale / s.twin_s for s in solves]
    attempted = report["attempted"]
    passed = attempted - len(report["failures"])
    median = statistics.median
    values = {
        "solve_s": (median(s.wall_s * s.scale for s in solves), "s"),
        "msgs_per_s": (
            median(s.stats.messages / (s.wall_s * s.scale)
                   for s in solves),
            "1/s",
        ),
        "slowdown_vs_congest": (median(slowdown), "x"),
        "shuffles": (median(s.shuffles for s in solves), "count"),
        "setup_s": (median(s.setup_s * s.scale for s in solves), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "pass_frac": (passed / attempted, "frac"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def per_layer_metrics(report: dict[str, Any]) -> dict[str, dict[str, Any]]:
    traced: list[Solve] = report["traced_solves"]
    metrics = {
        name: {
            "value": statistics.median(s.layers[name] for s in traced),
            "unit": LayerTrace.UNITS[name],
        }
        for name in sorted(LayerTrace.UNITS)
        if name != "trace.overhead_frac"
    }
    plain = statistics.median(s.wall_s * s.scale for s in report["solves"])
    wrapped = statistics.median(s.wall_s * s.scale for s in traced)
    metrics["trace.overhead_frac"] = {
        "value": wrapped / plain - 1.0, "unit": "frac",
    }
    return metrics


def provenance(report: dict[str, Any]) -> dict[str, Any]:
    """Sample counts, raw wall medians and ledger digests of one run."""
    solves: list[Solve] = report["solves"]
    return {
        "instances": report["instances"],
        "samples": {
            "solves": len(solves),
            "traced_solves": len(report["traced_solves"]),
        },
        "wall_solve_s": statistics.median(s.wall_s for s in solves),
        "wall_setup_s": statistics.median(s.setup_s for s in solves),
        "reference_s": statistics.median(s.reference_s for s in solves),
        "ledger_digests": report["digests"],
    }
