"""Smoke-size tests of the solve benchmark.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.  Every
workload runs at a few dozen vertices, so the whole file takes seconds.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import solvebench  # noqa: E402
from repro.graphs.power import square  # noqa: E402
from repro.analysis.cli import main as analysis_main  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_N = {"congest-mvc": 40, "congest-mds": 24, "mpc-mvc": 30, "mpc-mvc-par": 30}
SMOKE = {
    name: dataclasses.replace(w, n=SMOKE_N[name])
    for name, w in solvebench.WORKLOADS.items()
}


def _run(capsys, name: str, trace: int, solve=None) -> tuple[int, dict]:
    argv = ["--workload", name, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    code = bench.main(argv, workloads=SMOKE, solve=solve)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_workload_table_matches_benchmark_json():
    assert sorted(solvebench.WORKLOADS) == sorted(
        w["name"] for w in SPEC["workloads"]
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMOKE))
def test_every_workload_prints_its_metrics(capsys, name, trace):
    code, out = _run(capsys, name, trace)
    assert code == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 3
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in out["metrics"].items()
    }


@pytest.mark.parametrize("name", ["congest-mvc", "mpc-mvc"])
def test_dropping_a_cover_vertex_fails_the_gate(capsys, name):
    def drop_one(workload, graph, network, **kwargs):
        result = solvebench.default_solve(workload, graph, network, **kwargs)
        # Drop a vertex that covers some edge of G^2 on its own, so the
        # broken answer is infeasible and not merely a smaller cover.
        squared = square(graph)
        result.cover.discard(min(
            v for v in result.cover
            if any(u not in result.cover for u in squared[v])
        ))
        return result

    code, out = _run(capsys, name, 0, solve=drop_one)
    assert code == 1
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] >= 3
    assert out["metrics"]["pass_frac"]["value"] == 0.0


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_ledgers_equal_untraced(name):
    plain = solvebench.run_workload(SMOKE[name], 5, 0, traced=False)
    traced = solvebench.run_workload(SMOKE[name], 5, 0, traced=True)
    assert not plain["failures"] and not traced["failures"]
    common = plain["digests"].keys() & traced["digests"].keys()
    assert common
    for index in common:
        assert plain["digests"][index] == traced["digests"][index]


def test_without_the_source_tree_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "congest-mvc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_files_pass_the_determinism_analyzer():
    assert analysis_main([str(HERE), "--no-baseline"]) == 0
