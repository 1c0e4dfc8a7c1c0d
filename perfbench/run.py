"""gffpin benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload var-scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Each repetition starts a set-up
probe and then a fresh, untraced `python -m gffpin.cli` process, one at a
time, until the window is used (at least MIN_REPS repetitions). Every CLI
run passes the correctness gate (gate.py) before its numbers count.

--trace 0 reports the end-to-end metrics: medians over the repetitions.
--trace 1 adds one traced CLI run (child.py trace) after the untraced ones
and reports the per-layer metrics from its spans; its calls must match the
counts the workload's config implies, and its outputs pass the same gate.

The last line of stdout is the result JSON; the lines above it print each
metric with its unit, median, quartiles and sample count, and the
environment record. The full record also goes to
.perfbench/results/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

import gate
import harness
import tracing
from workloads import CHECKED_COUNTS, WORKLOADS, cli_seed

MIN_REPS = 3
RUN_LIMIT_S = 150.0  # hard stop for starting work, inside the 180 s budget
CHILD_TIMEOUT_S = 60.0
BENCHMARK_JSON = os.path.join(harness.ROOT, "BENCHMARK.json")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _describe(values):
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


class Run:
    """State of one benchmark run: samples, failures and gate results."""

    def __init__(self, workload, seed, work_dir, reference):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.reference = reference
        self.t_start = time.perf_counter()
        self.samples = {"wall_s": [], "setup_s": [], "cpu_s": [],
                        "peak_rss_mb": []}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.points = 0
        self.failed_points = 0
        self.se_ratios = []
        self.repetitions = 0

    def remaining(self):
        return self.t_start + RUN_LIMIT_S - time.perf_counter()

    def _timeout(self):
        return max(1.0, min(CHILD_TIMEOUT_S, self.remaining()))

    def repetition(self, traced=False):
        """Set-up probe plus one CLI run; returns (CLI process, spans path)."""
        rep = self.repetitions
        self.repetitions += 1
        seed = cli_seed(self.seed, rep)
        rep_dir = os.path.join(self.work_dir, f"rep{rep}")
        config_path = harness.write_inputs(self.workload, seed, rep_dir)
        label = f"repetition {rep} (CLI seed {seed}{', traced' if traced else ''})"
        spans_path = None
        if traced:
            spans_path = os.path.join(self.work_dir, "spans.json")
        else:
            setup = harness.run_setup(self.workload, config_path, rep_dir,
                                      self._timeout())
            if setup.exit_code == 0:
                self.samples["setup_s"].append(setup.wall_s)
            else:
                self.problems.append(
                    f"{label}: set-up probe exit {setup.exit_code}: "
                    f"{setup.stderr.strip()}")
        out_dir = os.path.join(rep_dir, "out")
        proc = harness.run_cli(self.workload, config_path, out_dir, rep_dir,
                               self._timeout(), spans_path)
        self.attempted += 1
        result = gate.check_run(self.workload.command, proc.exit_code, out_dir,
                                self.reference)
        if proc.timed_out:
            result.problems.insert(0, "timed out")
        if self.workload.command == "mass-scan":
            # a scan that fails as a whole counts all of its points as failed
            points = len(self.workload.config["eps_list"].split())
            self.points += points
            self.failed_points += (result.failed_points if result.ok
                                   else points)
        self.se_ratios += result.se_ratios
        if result.ok:
            if not traced:
                self.samples["wall_s"].append(proc.wall_s)
                self.samples["cpu_s"].append(proc.cpu_s)
                self.samples["peak_rss_mb"].append(proc.peak_rss_mb)
        else:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in result.problems]
            if proc.stderr.strip():
                self.problems.append(f"{label}: stderr: {proc.stderr.strip()}")
        shutil.rmtree(rep_dir)
        return proc, spans_path

    def untraced_loop(self, seconds, reserve):
        """Repeat until the window (less `reserve` repetitions) is used."""
        while True:
            t0 = time.perf_counter()
            self.repetition()
            took = time.perf_counter() - t0
            elapsed = time.perf_counter() - self.t_start
            if self.repetitions >= MIN_REPS and \
                    elapsed + took * (1 + reserve) > seconds:
                return
            if took > self.remaining():
                return

    def end_to_end(self):
        return {name: _describe(values) for name, values in self.samples.items()
                if values}

    def traced(self):
        """One traced repetition; returns per-layer metrics and call counts."""
        proc, spans_path = self.repetition(traced=True)
        if not os.path.isfile(spans_path):
            self.problems.append("traced run wrote no spans")
            return {}, {}, proc
        with open(spans_path) as fh:
            dump = json.load(fh)
        counts = tracing.counts(dump)
        for name in CHECKED_COUNTS:
            want = self.workload.expected_counts.get(name, 0)
            got = counts.get(name, 0)
            if got != want:
                self.problems.append(
                    f"traced run: {name} saw {got} calls, the config implies "
                    f"{want}")
        return tracing.summarize(dump), counts, proc

    def finish_checks(self):
        problem = gate.pooled_se_problem(self.se_ratios)
        if problem:
            self.problems.append(problem)
        if not self.samples["setup_s"]:
            self.problems.append("no set-up probe succeeded")


def _metric_units():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _print_table(metrics, units, described):
    for name, unit in units.items():
        value = metrics.get(name)
        line = f"{name:34s} {'n/a' if value is None else f'{value:.6g}':>14s} {unit}"
        d = described.get(name)
        if d:
            line += (f"   median of {d['n']}, quartiles "
                     f"{d['q1']:.6g} .. {d['q3']:.6g}")
        print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not harness.sources_present():
        print(f"gffpin sources not found under {harness.SRC}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units = _metric_units()
    workload = WORKLOADS[args.workload]
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-",
                                dir=harness.ensure_work_root())
    try:
        run = Run(workload, args.seed, work_dir, gate.load_reference(workload.name))
        env = harness.environment_record(work_dir)
        run.untraced_loop(args.seconds, reserve=args.trace)
        described = run.end_to_end()
        record = {"workload": workload.name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": env, "end_to_end": described}
        if args.trace:
            layers, counts, proc = run.traced()
            wall = described.get("wall_s", {}).get("median")
            layers["trace_overhead_frac"] = (proc.wall_s / wall - 1.0
                                             if wall else None)
            record["traced_counts"] = counts
            record["traced_wall_s"] = proc.wall_s
        run.finish_checks()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    e2e = {name: d["median"] for name, d in described.items()}
    if args.trace:
        layers["fail_frac"] = run.failed / run.attempted
        layers["point_fail_frac"] = (run.failed_points / run.points
                                     if run.points else 0.0)
        metrics, units = layers, layer_units
    else:
        metrics, units = e2e, e2e_units
    missing = sorted(n for n in units if metrics.get(n) is None)
    if missing:
        run.problems.append(f"metrics not measured: {', '.join(missing)}")
    record.update(attempted=run.attempted, failed=run.failed,
                  problems=run.problems, se_ratios=run.se_ratios,
                  points=run.points, failed_points=run.failed_points,
                  metrics=metrics)
    results_dir = os.path.join(harness.WORK_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{workload.name}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in run.problems:
        print(f"GATE: {problem}", file=sys.stderr)
    _print_table(e2e, e2e_units, described)
    if args.trace:
        _print_table(layers, layer_units, {})
    print("environment " + json.dumps(env))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
