"""Per-layer timers and counters, attached to one solve from outside.

Every number here comes from wrapping a public entry point of a layer or
from a public observation hook; nothing under ``src/`` is edited and no
wrapper changes an argument or a return value:

* ``repro.core`` stages: the network instance's ``run``, keyed by the
  ``label=`` every solver stage passes;
* ``repro.exact``: the ``local_solver=`` handed to ``approx_mvc_square``;
* ``repro.congest``: the network's ``on_round`` ``RoundEvent`` hook;
* ``repro.mpc.runtime``: the runtime instance's ``shuffle`` and its
  ``on_shuffle`` hook;
* ``repro.mpc.compile_congest``: the network's ``planner_stats``;
* ``repro.mpc.parallel``: ``ForkShardPool.__init__``, ``step`` and
  ``close``, patched on the class only while a traced solve runs.
"""

from __future__ import annotations

import contextlib
import time
from collections.abc import Iterator
from typing import Any

import networkx as nx

from repro.exact.vertex_cover import minimum_vertex_cover
from repro.mpc import parallel

#: Every ``label=`` the MVC and MDS drivers pass to ``network.run``.
STAGES = (
    "phase1", "bfs", "upcast", "broadcast", "estimate", "rho-flood",
    "rank-vote", "vote-estimate", "winner", "global-or",
)

POOL_METHODS = {
    "__init__": ("pool.forks", "pool.fork_s"),
    "step": ("pool.steps", "pool.step_s"),
    "close": (None, "pool.close_s"),
}


class LayerTrace:
    """Collects one solve's per-layer split; create one per solve."""

    #: Unit of every per-layer metric of BENCHMARK.json.
    UNITS: dict[str, str] = {
        "setup.graph_s": "s",
        "setup.network_s": "s",
        **{f"stage.{label}_s": "s" for label in STAGES},
        "stage.driver_s": "s",
        "exact.local_solve_s": "s",
        "congest.rounds": "count",
        "congest.messages": "count",
        "congest.words": "count",
        "congest.ns_per_message": "ns",
        "congest.awake_frac": "frac",
        "mpc.shuffle_s": "s",
        "mpc.shuffle_words": "count",
        "mpc.words_per_congest_word": "ratio",
        "mpc.rounds_per_shuffle": "ratio",
        "mpc.loop_s": "s",
        "mpc.windows_planned": "count",
        "pool.forks": "count",
        "pool.fork_s": "s",
        "pool.steps": "count",
        "pool.step_s": "s",
        "pool.close_s": "s",
        "trace.overhead_frac": "frac",
    }

    def __init__(self) -> None:
        self.stage_s = dict.fromkeys(STAGES, 0.0)
        self.local_solve_s = 0.0
        self.rounds = 0
        self.messages = 0
        self.words = 0
        self.awake = 0
        self.shuffles = 0
        self.shuffle_words = 0
        self.shuffle_s = 0.0
        self.pool: dict[str, float] = {
            name: 0 for pair in POOL_METHODS.values() for name in pair if name
        }
        self.network: Any = None

    # -- attaching -----------------------------------------------------------

    def begin(self, network: Any) -> None:
        """Wrap ``network`` (and its MPC runtime, if any) for one solve."""
        self.network = network
        run = network.run

        def timed_run(*args: Any, label: str | None = None, **kwargs: Any):
            start = time.perf_counter()
            try:
                return run(*args, label=label, **kwargs)
            finally:
                self.stage_s[label] += time.perf_counter() - start

        network.run = timed_run
        network.on_round = self._on_round
        runtime = getattr(network, "runtime", None)
        if runtime is not None:
            shuffle = runtime.shuffle

            def timed_shuffle(*args: Any, **kwargs: Any):
                start = time.perf_counter()
                try:
                    return shuffle(*args, **kwargs)
                finally:
                    self.shuffle_s += time.perf_counter() - start

            runtime.shuffle = timed_shuffle
            runtime.on_shuffle = self._on_shuffle

    def local_solver(self, residual: nx.Graph, red: Any) -> set[int]:
        """Algorithm 1's default leader solve, timed."""
        start = time.perf_counter()
        try:
            return minimum_vertex_cover(residual)
        finally:
            self.local_solve_s += time.perf_counter() - start

    @contextlib.contextmanager
    def pool_wrappers(self) -> Iterator[None]:
        """Time every ``ForkShardPool`` fork, barrier and shutdown."""
        cls = parallel.ForkShardPool
        originals = {name: cls.__dict__[name] for name in POOL_METHODS}
        for name, (count, seconds) in POOL_METHODS.items():
            setattr(cls, name, self._timed(originals[name], count, seconds))
        try:
            yield
        finally:
            for name, original in originals.items():
                setattr(cls, name, original)

    def _timed(self, original: Any, count: str | None, seconds: str) -> Any:
        pool = self.pool

        def wrapper(*args: Any, **kwargs: Any):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                pool[seconds] += time.perf_counter() - start
                if count is not None:
                    pool[count] += 1

        return wrapper

    def _on_round(self, event: Any) -> None:
        self.messages += event.messages
        self.words += event.words
        if event.round_index > 0:
            self.rounds += 1
            self.awake += event.awake

    def _on_shuffle(self, record: Any) -> None:
        self.shuffles += 1
        self.shuffle_words += record.words

    # -- reporting -----------------------------------------------------------

    def end(self, solve_s: float) -> dict[str, float]:
        """The solve's layer metrics, given its traced wall time."""
        staged = sum(self.stage_s.values())
        metrics: dict[str, float] = {
            f"stage.{label}_s": value for label, value in self.stage_s.items()
        }
        metrics["stage.driver_s"] = solve_s - staged
        metrics["exact.local_solve_s"] = self.local_solve_s
        metrics["congest.rounds"] = self.rounds
        metrics["congest.messages"] = self.messages
        metrics["congest.words"] = self.words
        metrics["congest.ns_per_message"] = solve_s * 1e9 / self.messages
        metrics["congest.awake_frac"] = self.awake / (
            self.network.n * self.rounds
        )
        is_mpc = getattr(self.network, "runtime", None) is not None
        pool_s = sum(v for k, v in self.pool.items() if k.endswith("_s"))
        metrics["mpc.shuffle_s"] = self.shuffle_s
        metrics["mpc.shuffle_words"] = self.shuffle_words
        metrics["mpc.words_per_congest_word"] = (
            self.shuffle_words / self.words if is_mpc else 0.0
        )
        metrics["mpc.rounds_per_shuffle"] = (
            self.rounds / self.shuffles if self.shuffles else 0.0
        )
        metrics["mpc.loop_s"] = staged - self.shuffle_s - pool_s if is_mpc else 0.0
        metrics["mpc.windows_planned"] = (
            self.network.planner_stats["windows_planned"] if is_mpc else 0
        )
        metrics.update(self.pool)
        return metrics
