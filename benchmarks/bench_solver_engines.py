"""Solver engine sweep: batched outboxes + event-driven stages vs baselines.

PR 1's activity engine won 2-5x, but only on the BFS/convergecast/broadcast
primitives; the real solver benchmarks (E01 MVC, E12 MDS) still paid one
dict write and one metering call per (sender, target) pair and ran every
node every round.  This benchmark measures what the batched-outbox fast
path plus the solvers' ``wants_wake`` cadences recover on those workloads,
against two baselines evaluated on *the same cells*:

* ``v2-dict`` — the activity engine with the batch fast path disabled,
  i.e. the engine exactly as of the pre-batching revision; and
* ``v1`` — the reference every-node-every-round loop.

The (task, n, engine) cells live in
:func:`repro.sweep.grids.solver_engines_grid`.  Every (task, n) point is a
**parity cell**: the three engine configurations must produce byte-identical
payloads (outputs signature, ``RunStats``, phase counts).  The small points
additionally re-run the solver stages with a round-event recorder
subscribed and compare the full ``RoundEvent`` lists with ``==`` — the
per-round half of the parity contract, which the sweep payloads cannot
carry.  The n >= 200 points are the **timing cells**
behind the headline claim.

Usage::

    PYTHONPATH=src python benchmarks/bench_solver_engines.py [--quick]
        [--repeats R] [--json PATH] [--check] [--check-smoke]

``--check`` exits nonzero unless v2 (batched) achieves >= 1.5x over
``v2-dict`` on the E01 and E12 timing cells at n >= 200.  ``--check-smoke``
is the CI regression gate for the quick grid: parity must hold exactly and
v2 (batched) must not fall behind v1 by more than the jitter tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import print_table

from repro.congest.network import CongestNetwork
from repro.core.estimation import EstimationStage
from repro.core.mds_congest import GlobalOrAlgorithm, WinnerAlgorithm
from repro.core.mvc_congest import PhaseOneAlgorithm
from repro.congest.primitives import BfsTreeAlgorithm
from repro.graphs.generators import gnp_graph
from repro.sweep import run_sweep
from repro.sweep.grids import SOLVER_ENGINES, solver_engines_grid

#: Wall-clock tolerance for the CI smoke gate: timing on shared runners
#: jitters, so "not slower than v1" is enforced with this slack factor.
SMOKE_TOLERANCE = 0.8

#: The headline requirement checked by ``--check``.
CHECK_SPEEDUP = 1.5


def run_traced_stage_parity(n: int = 40, seed: int = 11) -> list[str]:
    """Per-round event parity across all three engine configurations.

    Runs representative solver stages — the Phase I status protocol (self
    -waking on its send steps), the Lemma 29 estimator (guaranteed-traffic
    cadence), the winner/coverage stage and the convergecast-OR (fully
    reactive sleeper) — with a recorder subscribed to the round events and
    asserts outputs, stats and the stage's ``RoundEvent`` list are
    identical (``==``: every field but ``awake``).  Returns the names of
    the stages checked.
    """
    graph = gnp_graph(n, 0.12, seed=seed)

    def run_stages(engine: str):
        net = CongestNetwork(graph, seed=seed, engine=engine)
        net.reset_state()
        results = {}

        def run(stage, factory):
            events = []
            net.on_round = events.append
            result = net.run(factory)
            results[stage] = {
                "outputs": result.outputs,
                "by_id": result.by_id,
                "stats": result.stats,
                "events": events,
            }

        run(
            "phase1", lambda v: PhaseOneAlgorithm(v, threshold=2, iterations=4)
        )
        for node_id in net.ids():
            net.node_state[node_id]["in_U"] = True
        run("estimation", lambda v: EstimationStage(v, samples=6))
        run("winner", WinnerAlgorithm)
        run("bfs", lambda v: BfsTreeAlgorithm(v, net.n - 1))
        run("global-or", lambda v: GlobalOrAlgorithm(v, "in_U"))
        return results

    reference = run_stages(SOLVER_ENGINES[0])
    for engine in SOLVER_ENGINES[1:]:
        candidate = run_stages(engine)
        for stage, expected in reference.items():
            got = candidate[stage]
            for field in ("outputs", "by_id", "stats", "events"):
                if expected[field] != got[field]:
                    raise AssertionError(
                        f"trace parity violated: stage {stage!r} field "
                        f"{field!r} differs between "
                        f"{SOLVER_ENGINES[0]} and {engine}"
                    )
    return sorted(reference)


def run_solver_sweep(quick: bool, repeats: int):
    """Evaluate the grid; verify payload parity; compute speedups."""
    grid = solver_engines_grid(quick=quick)
    sweep = run_sweep(grid, jobs=1, repeats=repeats)
    sweep.ok_payloads()  # raises with details if any cell failed

    by_point: dict[tuple[str, int], dict[str, object]] = {}
    for result in sweep:
        cell = result.cell
        point = by_point.setdefault((cell.task, cell.n), {})
        point[cell.engine] = result.payload
        point[f"{cell.engine}-seconds"] = result.seconds
        point[f"{cell.engine}-max-rss-kb"] = result.max_rss_kb

    rows = []
    points = []
    for (task, n), point in sorted(by_point.items()):
        payloads = [point[engine] for engine in SOLVER_ENGINES]
        if not all(p == payloads[0] for p in payloads[1:]):
            raise AssertionError(
                f"engine parity violated on {task} n={n}: "
                + " vs ".join(repr(point[e]) for e in SOLVER_ENGINES)
            )
        stats = payloads[0]["stats"]
        v1_s = point["v1-seconds"]
        dict_s = point["v2-dict-seconds"]
        batch_s = point["v2-seconds"]
        points.append(
            {
                "task": task,
                "n": n,
                "messages": stats["messages"],
                "rounds": stats["rounds"],
                "signature": payloads[0]["signature"],
                "v1_seconds": v1_s,
                "v2_dict_seconds": dict_s,
                "v2_seconds": batch_s,
                "speedup_vs_dict": dict_s / batch_s,
                "speedup_vs_v1": v1_s / batch_s,
                "max_rss_kb": point["v2-max-rss-kb"],
            }
        )
        rows.append(
            (
                task,
                n,
                stats["rounds"],
                stats["messages"],
                v1_s * 1e3,
                dict_s * 1e3,
                batch_s * 1e3,
                dict_s / batch_s,
                v1_s / batch_s,
            )
        )
    return rows, points


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke subset")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--json",
        default=str(Path(__file__).parent / "BENCH_solver_engines.json"),
        metavar="PATH",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"fail unless batched >= {CHECK_SPEEDUP}x over v2-dict on the "
        "E01 and E12 timing cells (n >= 200)",
    )
    parser.add_argument(
        "--check-smoke",
        action="store_true",
        help="CI gate: parity exact, batched not slower than v1 beyond "
        f"a {SMOKE_TOLERANCE}x jitter tolerance",
    )
    args = parser.parse_args(argv)
    repeats = max(1, min(args.repeats, 2) if args.quick else args.repeats)

    traced = run_traced_stage_parity()
    print(f"trace parity: identical timelines on stages {', '.join(traced)}")

    rows, points = run_solver_sweep(args.quick, repeats)
    print_table(
        "Solver engines: v1 vs v2-dict vs v2 (batched outboxes)",
        [
            "task", "n", "rounds", "messages",
            "v1 ms", "dict ms", "batch ms", "x dict", "x v1",
        ],
        rows,
    )
    print("\nparity: identical payloads on every cell, all three engines")

    payload = {
        "grid": "solver-engines-quick" if args.quick else "solver-engines",
        "repeats": repeats,
        "available_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "trace_parity_stages": traced,
        "payload_parity": True,
        "points": points,
    }
    Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.json}")

    failures = []
    if args.check:
        for task in ("mvc-congest", "mds-congest"):
            timing = [
                p for p in points if p["task"] == task and p["n"] >= 200
            ]
            if not timing:
                failures.append(f"no timing cell with n >= 200 for {task}")
                continue
            best = max(p["speedup_vs_dict"] for p in timing)
            if best < CHECK_SPEEDUP:
                failures.append(
                    f"{task}: best batched-vs-dict speedup {best:.2f}x "
                    f"< {CHECK_SPEEDUP}x"
                )
    if args.check_smoke:
        for p in points:
            if p["speedup_vs_v1"] < SMOKE_TOLERANCE:
                failures.append(
                    f"{p['task']} n={p['n']}: batched engine fell to "
                    f"{p['speedup_vs_v1']:.2f}x of v1 "
                    f"(tolerance {SMOKE_TOLERANCE}x)"
                )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
