"""Solve benchmark for the CONGEST and MPC backends.

Usage (from the repository root)::

    python3 perfbench/run.py --workload congest-mvc --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop for ``--seconds`` seconds and prints,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones.  Earlier lines hold a readable table and a
``provenance`` JSON line (seed, host, versions, commit, sample counts,
ledger digests).  The exit code is 1 when a correctness check failed
and 2 when the repository's ``src/`` tree is missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_file = root / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = root / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def parse_args(argv: list[str] | None, names: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, workloads=None, solve=None) -> int:
    """Run the benchmark; ``workloads`` and ``solve`` are test seams."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: {src} holds no repro package to benchmark", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import solvebench

    table = solvebench.WORKLOADS if workloads is None else workloads
    args = parse_args(argv, sorted(table))
    if args.seconds < 0:
        print("error: --seconds must be non-negative", file=sys.stderr)
        return 2
    workload = table[args.workload]
    traced = bool(args.trace)
    report = solvebench.run_workload(
        workload, args.seed, args.seconds, traced,
        solve=solvebench.default_solve if solve is None else solve,
    )
    if traced:
        metrics = solvebench.per_layer_metrics(report)
    else:
        metrics = solvebench.end_to_end_metrics(report)
    failed = len(report["failures"])

    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:>16.6g} {metric['unit']}")
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "available_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "networkx": _version("networkx"),
        "numpy": _version("numpy"),
        "commit": git_commit(ROOT),
        **solvebench.provenance(report),
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
