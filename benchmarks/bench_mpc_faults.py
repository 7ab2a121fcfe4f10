"""Crash-recovery benchmark: fault-free vs crash-recovered MPC runs.

Runs fixed MPC workloads (compiled MVC/MDS and the native matching)
three ways — serial fault-free, parallel fault-free, parallel with an
injected crash schedule — asserts the ledger and outputs are
byte-identical across all three (the recovery contract of
:mod:`repro.faults`), and records wall-clock numbers plus the recovery
overhead in a machine-readable BENCH json.

Usage::

    PYTHONPATH=src python benchmarks/bench_mpc_faults.py
        [--json benchmarks/BENCH_mpc_faults.json]
        [--check | --check-smoke]

``--check`` fails unless every scenario's digests match, at least one
crash was injected (and recovered) per faulted run, and the recovery
overhead stays under ``OVERHEAD_GATE``x the fault-free parallel
wall-clock.  ``--check-smoke`` is the CI form: parity and
crash-injection enforced, no overhead gate (CI containers time too
noisily for a wall-clock bound).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import print_table

import networkx as nx

from repro.config import RunConfig
from repro.mpc import mpc_maximal_matching, solve_mds_mpc, solve_mvc_mpc
from repro.mpc.parallel import fork_available

#: Recovery overhead bound: a crash-recovered run must finish within
#: this factor of the fault-free parallel wall-clock (1 crash per run
#: costs one respawn + at most one replayed barrier of local work).
OVERHEAD_GATE = 2.5
WORKERS = 2


def _digest(payload) -> str:
    """Deterministic fingerprint of a scenario's ledger + outputs."""
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _strip_faults(payload: dict) -> dict:
    """Drop the fault report: it records recovery, not computation."""
    return {k: v for k, v in payload.items() if k != "faults"}


def _mvc_scenario(n: int, p: float, alpha: float, crash_spec: str):
    graph = nx.gnp_random_graph(n, p, seed=7)

    def run(workers: int, faults: str | None):
        result, payload = solve_mvc_mpc(
            graph, 0.5,
            RunConfig("mpc", alpha=alpha, workers=workers, faults=faults),
            seed=0,
        )
        return {
            "mpc": _strip_faults(payload),
            "cover": sorted(map(repr, result.cover)),
            "stats": repr(result.stats),
        }, payload.get("faults")

    return run, crash_spec


def _mds_scenario(n: int, p: float, alpha: float, crash_spec: str):
    graph = nx.gnp_random_graph(n, p, seed=11)

    def run(workers: int, faults: str | None):
        result, payload = solve_mds_mpc(
            graph,
            RunConfig("mpc", alpha=alpha, workers=workers, faults=faults),
            seed=1,
        )
        return {
            "mpc": _strip_faults(payload),
            "cover": sorted(map(repr, result.cover)),
            "stats": repr(result.stats),
        }, payload.get("faults")

    return run, crash_spec


def _matching_scenario(n: int, p: float, alpha: float, crash_spec: str):
    graph = nx.gnp_random_graph(n, p, seed=3)

    def run(workers: int, faults: str | None):
        result = mpc_maximal_matching(
            graph, alpha=alpha, seed=0, workers=workers, faults=faults
        )
        return {
            "matching": sorted(
                tuple(sorted(map(repr, edge))) for edge in result.matching
            ),
            "phases": result.phases,
            "machines": result.machines,
            "stats": repr(result.stats),
        }, result.faults

    return run, crash_spec


def _scenarios(smoke: bool):
    if smoke:
        return {
            "mvc-crash": _mvc_scenario(24, 0.15, 0.8, "crash@2"),
            "mds-crash": _mds_scenario(20, 0.18, 0.8, "crash@3"),
            "matching-crash": _matching_scenario(24, 0.15, 0.8, "crash@1"),
        }
    return {
        "mvc-crash": _mvc_scenario(90, 0.06, 0.7, "crash@3"),
        "mds-crash": _mds_scenario(80, 0.07, 0.7, "crash@4"),
        "matching-crash": _matching_scenario(110, 0.05, 0.7, "crash@2"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        default=str(Path(__file__).parent / "BENCH_mpc_faults.json"),
        metavar="PATH",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"fail on any digest mismatch, any faulted run without a "
        f"recovered crash, or recovery overhead >= {OVERHEAD_GATE}x",
    )
    parser.add_argument(
        "--check-smoke",
        action="store_true",
        help="CI mode: small workloads, parity and crash-injection "
        "enforced, no overhead gate",
    )
    args = parser.parse_args(argv)
    smoke = args.check_smoke

    if not fork_available():  # pragma: no cover - platform-specific
        report = {
            "bench": "mpc-faults",
            "skipped": "fork start method unavailable; crash recovery "
            "requires fork-inherited shard workers",
        }
        Path(args.json).write_text(
            json.dumps(report, indent=2, sort_keys=True)
        )
        print("skipped: fork start method unavailable")
        return 0

    rows = []
    runs = []
    parity_ok = True
    crashes_ok = True
    worst_overhead = 0.0
    for name, (scenario, crash_spec) in _scenarios(smoke).items():
        timings = {}
        digests = {}
        report_for = None
        for mode, workers, faults in (
            ("serial", 1, None),
            ("parallel", WORKERS, None),
            ("recovered", WORKERS, crash_spec),
        ):
            start = time.perf_counter()
            payload, fault_report = scenario(workers, faults)
            timings[mode] = time.perf_counter() - start
            digests[mode] = _digest(payload)
            if mode == "recovered":
                report_for = fault_report
        identical = len(set(digests.values())) == 1
        parity_ok = parity_ok and identical
        injected = (report_for or {}).get("injected", {}).get("crash", 0)
        recoveries = (report_for or {}).get("recoveries", 0)
        crashes_ok = crashes_ok and injected >= 1 and recoveries >= 1
        overhead = timings["recovered"] / timings["parallel"]
        worst_overhead = max(worst_overhead, overhead)
        runs.append(
            {
                "scenario": name,
                "crash_spec": crash_spec,
                "wall_seconds": dict(timings),
                "digests": dict(digests),
                "byte_identical": identical,
                "crashes_injected": injected,
                "recoveries": recoveries,
                "recovery_overhead": overhead,
            }
        )
        rows.append(
            (name, crash_spec, timings["parallel"], timings["recovered"],
             f"{overhead:.2f}x", injected, "yes" if identical else "NO")
        )

    gate_applies = args.check
    if gate_applies:
        gate = (
            "passed"
            if parity_ok and crashes_ok and worst_overhead < OVERHEAD_GATE
            else "FAILED"
        )
    elif smoke:
        gate = "smoke (parity + crash injection only)"
    else:
        gate = "not requested"
    report = {
        "bench": "mpc-faults",
        "mode": "smoke" if smoke else "full",
        "workers": WORKERS,
        "overhead_gate": OVERHEAD_GATE,
        "runs": runs,
        "byte_identical": parity_ok,
        "crashes_recovered_everywhere": crashes_ok,
        "worst_recovery_overhead": worst_overhead,
        "gate": gate,
        "note": (
            "digests compare {serial fault-free, parallel fault-free, "
            "parallel crash-recovered} with the fault report stripped; "
            "they must match on any machine — overhead is the only "
            "machine-dependent number here"
        ),
    }
    Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True))

    print_table(
        f"MPC crash recovery ({WORKERS} shard workers)",
        ["scenario", "faults", "clean s", "recov s", "overhead",
         "crashes", "parity"],
        rows,
    )
    print(f"\nBENCH json written to {args.json}")

    if not parity_ok:
        print(
            "FAIL: recovered-run digests differ from fault-free digests",
            file=sys.stderr,
        )
        return 1
    if (args.check or smoke) and not crashes_ok:
        print(
            "FAIL: a faulted run injected or recovered no crash",
            file=sys.stderr,
        )
        return 1
    if args.check and worst_overhead >= OVERHEAD_GATE:
        print(
            f"FAIL: recovery overhead {worst_overhead:.2f}x >= "
            f"{OVERHEAD_GATE}x gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
