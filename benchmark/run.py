#!/usr/bin/env python3
"""Run one cdkripke benchmark workload and print its metrics.

    python3 benchmark/run.py --workload collapse-sweep --seed 20240682 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy. Each run sets up (imports the
package and builds the inputs) several times and reports the median,
then repeats timed passes over the inputs for --seconds, then checks
every output. Every time is reported at a reference speed of the
machine, sampled throughout the run (see speed.py). With --trace 1 it
instead times a few untraced passes, wraps the package's public
functions and runs one traced pass, and reports per-layer metrics. The
last line of standard output is one JSON object; the line before it
records the run's details. Spans and the full record go to .bench_out/
in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 20240682  # the criterion-7 corpus seed
HELD_OUT_SEED = 5  # kept for checking claims made with the default seed
SETUP_REPEATS = 15

WORKLOADS = {
    w.name: w
    for w in (workloads.CollapseSweep, workloads.ValidityQueries,
              workloads.SeparateTables, workloads.FuzzSuites)
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_program(src: Path) -> dict:
    """A fresh import of every cdkripke module from src."""
    for name in [n for n in sys.modules if n == "cdkripke" or n.startswith("cdkripke.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("cdkripke")
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: cdkripke was imported from {package.__file__}, not {src}")
    importlib.import_module("cdkripke.cli")  # pulls in every module
    return {
        name.partition(".")[2] or name: module
        for name, module in sys.modules.items()
        if name == "cdkripke" or name.startswith("cdkripke.")
    }


def tail_percentile(samples: list):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond); the maximum when there are
    fewer than eleven samples."""
    ordered = sorted(samples)
    i = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "cpu": cpu, "nproc": nproc}


class Verdicts:
    """Checks the first pass against the oracle and every later pass
    against the first. Only a hash per item is kept, so that retained
    outputs do not slow the collector in later passes."""

    def __init__(self, workload, m, inputs):
        self.workload, self.m, self.inputs = workload, m, inputs
        self.reference = None
        self.failed = 0
        self.problems: list = []
        self.facts: dict = {}

    def add(self, p):
        if self.reference is None:
            oks, self.problems, self.facts = self.workload.check(self.m, self.inputs, p.outputs)
            self.reference = [hash(out) if ok else None for out, ok in zip(p.outputs, oks)]
            self.failed += oks.count(False) + len(p.outputs) - len(oks)
        else:
            self.failed += sum(1 for h, out in zip(self.reference, p.outputs)
                               if h is None or h != hash(out))
            self.failed += abs(len(p.outputs) - len(self.reference))
        p.outputs = None


def run(workload, seed: int, seconds: float, trace: bool):
    """One run of a workload: returns the record line and the result."""
    root = HERE.parent
    src = (root / "src").resolve()
    if not (src / "cdkripke" / "__init__.py").is_file():
        raise SystemExit(f"error: no cdkripke source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    with speed.Speedometer() as speedometer:
        mark = speedometer.mark
        setups = []
        for _ in range(SETUP_REPEATS):
            modules = inputs = None
            gc.collect()
            start = mark()
            modules = import_program(src)
            inputs = workload.prepare(seed, out_dir)
            setups.append((start, mark()))
        m = SimpleNamespace(**modules)
        facts, problems = workload.control(m)
        verdicts = Verdicts(workload, m, inputs)

        # passes run while the next one is expected to end within the
        # budget; checking is not counted. A pass's items are scaled once
        # it is checked, so that what a run keeps grows by one float per
        # item and pass, and peak memory barely follows the pass count
        walls, item_times = [], []
        budget = seconds / 2 if trace else seconds
        while not walls or sum(walls) + walls[-1] <= budget:
            p = workload.run_pass(m, inputs, None, mark)
            verdicts.add(p)
            walls.append(p.wall)
            item_times.append(array("d", (speedometer.scaled(*span) for span in p.item_spans)))
        if trace:
            tracer = tracing.Tracer()
            tracing.instrument(modules, tracer, tracing.hooks(m, tracer))
            traced = workload.run_pass(m, inputs, tracer, mark)
            verdicts.add(traced)

    scaled = speedometer.scaled
    wall = statistics.median(map(sum, item_times))
    if trace:
        start, end = traced.span
        # span times include the sampler and drift with the machine, as the
        # untraced passes' do before scaling
        factor = scaled(start, end) / (end.clock - start.clock)
        walls.append(traced.wall)
        item_times.append(array("d", (scaled(*span) for span in traced.item_spans)))
        metrics = tracing.layer_metrics(tracer, factor, sum(item_times[-1]) / wall)
        tracer.write(out_dir, workload.name)
    else:
        tails = [tail_percentile(times) for times in item_times]
        facts["item_tail"] = {"percentile": tails[0][1], "samples_beyond": tails[0][2],
                              "samples_per_pass": len(item_times[0])}
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(scaled(*span) for span in setups),
            "item_p50_ms": statistics.median(t for times in item_times for t in times) * 1e3,
            "item_tail_ms": statistics.median(t[0] for t in tails) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    problems += verdicts.problems
    facts.update(verdicts.facts)
    attempted = sum(map(len, item_times))
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "env": environment(),
        "passes": len(walls),
        "pass_walls_s": walls,
        "pass_walls_at_reference_s": [sum(times) for times in item_times],
        "setups_s": [end.busy - start.busy for start, end in setups],
        "reference_samples": len(speedometer.samples),
        "reference_median_s": statistics.median(speedometer.samples),
        "failed_frac": verdicts.failed / attempted,
        "problems": problems,
        "facts": facts,
    }
    (out_dir / f"{workload.name}.trace{int(trace)}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1) + "\n")
    result = {
        "correct": verdicts.failed == 0 and not problems,
        "attempted": attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }
    return record, result


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing orders the program's sets, and with them how much
        # work a sequent check does: pin it so every run does the same work
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, sys.orig_argv)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed; {HELD_OUT_SEED} is held out for checking claims")
    parser.add_argument("--seconds", type=int, default=25, help="time budget of the passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        # every workload untraced and traced, each in a fresh process
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(trace)]).returncode
            for name in WORKLOADS for trace in (0, 1)
        ]
        return max(codes)
    record, result = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
