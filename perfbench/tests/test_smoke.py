"""Tiny-world smoke of every workload, every check, both run kinds.

Each run goes through ``run.py`` exactly as the benchmark command does,
on the seconds-long ``tiny`` worlds, and must pass all of its checks
and report every metric ``BENCHMARK.json`` names.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"),
         "--workload", workload, "--seed", "3", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_passes_every_check(workload, trace):
    lines, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0
    assert result["attempted"] >= 40
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        if not trace:
            assert got["value"] > 0, metric["name"]
    assert any(line.startswith("ops arrival: attempted=") for line in lines)
    assert any("blas_threads=" in line for line in lines)


def test_missing_program_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_text(
                open(os.path.join(BENCH, name)).read())
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload",
         "paper_stream", "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
