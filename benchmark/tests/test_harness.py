"""Tiny-size self-test of the benchmark harness.

Every metric named in BENCHMARK.json must be emitted with its unit on
every workload, every output must check out, and every count must
repeat exactly across two traced runs, in one process and in two.
Run from the repository root:

    python -m pytest benchmark/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "collapse-sweep": lambda: workloads.CollapseSweep(
        max_worlds=1, max_domain=1, depth=2, control=(2, 1, 2)),
    "validity-queries": lambda: workloads.ValidityQueries(quotas={
        "mono": {(True, 2): 1, (False, 2): 2},
        "mixed": {(True, 1): 1, (False, 3): 1},
        "quantified": {(True, 2): 1, (False, 1): 1},
    }),
    "separate-tables": lambda: workloads.SeparateTables(full_arity=2, sample=6),
    "fuzz-suites": lambda: workloads.FuzzSuites(batches=3, trials=5),
}


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def emitted(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in ("s", "ratio")}


def test_spec_lists_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
def test_metrics_emitted_and_counts_repeat(name):
    _, timed = run.run(TINY[name](), seed=3, seconds=1, trace=False)
    assert timed["correct"] and timed["failed"] == 0 and timed["attempted"] >= 1
    assert emitted(timed) == units("end_to_end")
    assert all(m["value"] > 0 for m in timed["metrics"].values())

    traced = [run.run(TINY[name](), seed=3, seconds=1, trace=True)[1] for _ in range(2)]
    for result in traced:
        assert result["correct"]
        assert emitted(result) == units("per_layer")
    assert counts(traced[0]) == counts(traced[1])


def test_counts_repeat_across_processes():
    """Set order follows string hashing, which the harness pins, so counts
    repeat in fresh processes too."""
    def traced_run():
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "validity-queries", "--seed", "3",
             "--seconds", "1", "--trace", "1"],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=180,
        )
        return json.loads(proc.stdout.splitlines()[-1])

    assert counts(traced_run()) == counts(traced_run())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fuzz-suites", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
