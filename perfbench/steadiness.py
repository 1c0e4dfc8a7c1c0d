"""Repeat run.py over seeds and record how much each metric spreads.

    python3 perfbench/steadiness.py --workload var-scan --seeds 1-10 [--trace 0]

Runs `run.py --workload W --seed s --seconds <run_seconds> --trace t` for
each seed, one at a time, and writes perfbench/steadiness/<W>-trace<t>.json
with every run's result line, and per metric the median, the quartiles and
the spread (q3 - q1) / median next to the metric's bound. A bound holds
with margin when the spread stays below a third of it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import harness

OUT_DIR = os.path.join(harness.HERE, "steadiness")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="inclusive range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", default="",
                        help="suffix of the output file name")
    args = parser.parse_args(argv)
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(harness.HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace",
               str(args.trace)]
        proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True,
                              text=True, timeout=180)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(seed=seed, exit=proc.returncode)
        runs.append(result)
        print(seed, json.dumps({k: v["value"]
                                for k, v in result["metrics"].items()}),
              "correct" if result["correct"] else "INCORRECT", flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None,
                         "bound": bounds.get(name)}
    report = {"workload": args.workload, "trace": args.trace,
              "run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "all_correct": all(r["correct"] for r in runs),
              "summary": summary, "runs": runs}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}"
                        f"{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:34s} median {s['median']:.6g}  spread {spread}"
              f"  bound {s['bound']}")
    return 0 if report["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
