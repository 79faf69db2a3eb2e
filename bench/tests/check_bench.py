"""Self-checks of the benchmark harness (not part of the library's tests).

    python3 -m pytest -q bench/tests/check_bench.py

Smoke runs of every workload at a tiny size, traced and untraced; exact
repetition of the work counters across two traced runs with one seed; a
deliberately wrong expected answer showing up as failed ops; and the
benchmark refusing to run without the library's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Metrics that count work rather than time it; they must repeat exactly.
WORK_UNITS = {"count", "windows/result", "ratio"}
TIMING = {"trace.overhead_ratio"}


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke(workload):
    code, stdout = bench(workload, seed=3, trace=0)
    assert code == 0, stdout
    result = result_of(stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first, second = (result_of(bench(workload, seed=5, trace=1)[1]) for _ in range(2))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    counters = {k for k, unit in want.items() if unit in WORK_UNITS and k not in TIMING}
    assert any(first["metrics"][k]["value"] for k in counters)
    for name in counters:
        assert first["metrics"][name] == second["metrics"][name], name


def test_wrong_expected_answer_counts_as_failed(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    workloads = run.import_library()
    real_rows = workloads.golden_rows
    monkeypatch.setattr(
        workloads, "golden_rows",
        lambda root: [dict(row, dim=row["dim"] + 1) for row in real_rows(root)],
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.untraced_run(workloads.WORKLOADS["golden-grid"], seed=1, seconds=1)
    result = result_of(out.getvalue())
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = bench(WORKLOADS[0], seed=1, trace=0, cwd=tmp_path)
    assert code != 0
    assert '"metrics"' not in stdout
