"""Smoke test of the benchmark itself: tiny inputs, every workload, both
modes, plus the refusal to run without a lexitree checkout.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(BENCH.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # corpus plants one two-group entry per block of 10 at smoke size; its
    # round trip fails while that encoding limit stands, and nothing else does
    if workload == "corpus":
        assert result["failed"] * 10 == result["attempted"]
    else:
        assert result["failed"] == 0


def test_refuses_without_a_checkout():
    bare = BENCH / "work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("work", "__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        proc = run_bench(bare, "corpus", 0)
        assert proc.returncode != 0
        assert not proc.stdout.strip().endswith("}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
