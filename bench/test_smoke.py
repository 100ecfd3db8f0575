"""The benchmark's own test: every workload at its smallest sizes.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("decide", "construct", "cli-verify")


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--seconds", "0.2",
         *args], cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("seed", ["1", "2"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_checks_pass(workload, seed):
    out = result(run("--workload", workload, "--seed", seed))
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] > 0
    units = {k: v["unit"] for k, v in out["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    out = result(run("--workload", workload, "--trace", "1"))
    assert out["correct"] is True
    units = {k: v["unit"] for k, v in out["metrics"].items()}
    assert units == declared("per_layer")
    assert out["metrics"]["linalg.RankTracker.add.calls"]["value"] > 0


def test_digest_mismatch_fails_the_run():
    with _checkout_copy("digest", with_src=True) as copy:
        (copy / "bench" / "digests.json").write_text("{}", encoding="utf-8")
        out = result(run("--workload", "construct", "--seed", "1", cwd=copy))
    assert out["correct"] is False and out["failed"] == 0


def test_slow_op_is_a_failure_and_the_run_goes_on():
    out = result(run("--workload", "decide", "--seed", "1",
                     "--op-timeout", "0.000001"))
    assert out["correct"] is False
    assert out["failed"] > 0 and out["attempted"] > 1


def test_missing_library_exits_nonzero_without_result():
    with _checkout_copy("empty", with_src=False) as copy:
        proc = run("--workload", "decide", cwd=copy)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@contextlib.contextmanager
def _checkout_copy(name: str, with_src: bool):
    """A copy of BENCHMARK.json and bench/ (and src/ if asked) inside
    bench/out, which .gitignore excludes; removed afterwards."""
    dest = BENCH / "out" / f"checkout-{name}"
    shutil.rmtree(dest, ignore_errors=True)
    ignore = shutil.ignore_patterns("out", "__pycache__", "test_*.py")
    try:
        shutil.copytree(BENCH, dest / "bench", ignore=ignore)
        shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
        if with_src:
            shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
        yield dest
    finally:
        shutil.rmtree(dest, ignore_errors=True)
