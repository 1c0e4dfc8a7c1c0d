"""Record perfbench/reference.json, the values the correctness gate checks.

    python3 perfbench/record_reference.py [--runs 40] [--workers 2]

Runs each workload's CLI config untraced once per reference seed
(workloads.REFERENCE_SEEDS, disjoint from the seeds benchmark runs use) and
stores, per output value:

* deterministic values: the value, which must repeat exactly across seeds;
* Monte Carlo values: the mean over runs ("mean"), the root mean square of
  the stderr one run reports ("se"), and the spread between runs ("sd"),
  kept to show that the reported stderr is honest.

Calibration records, per workload, the largest |z| and stderr ratio the
gate would have seen on the reference runs themselves. The raw runs go to
.perfbench/reference-runs-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import gate
import harness
from workloads import REFERENCE_SEEDS, WORKLOADS


def _one(workload, seed, work_dir):
    rep_dir = os.path.join(work_dir, f"{workload.name}-{seed}")
    config_path = harness.write_inputs(workload, seed, rep_dir)
    out_dir = os.path.join(rep_dir, "out")
    proc = harness.run_cli(workload, config_path, out_dir, rep_dir, 600.0)
    try:
        if proc.exit_code != 0 or gate.check_manifest(workload.command, out_dir):
            return {"seed": seed, "exit": proc.exit_code, "stderr": proc.stderr}
        det, mc, points, failed = gate.parse_outputs(workload.command, out_dir)
        return {"seed": seed, "exit": 0, "det": det, "mc": mc,
                "points": points, "failed_points": failed}
    finally:
        shutil.rmtree(rep_dir)


def _reference(runs):
    done = [r for r in runs if r["exit"] == 0]
    det = {}
    for key, value in done[0]["det"].items():
        values = {r["det"][key] for r in done}
        if len(values) != 1:
            raise RuntimeError(f"deterministic output {key} varies: {values}")
        det[key] = value
    mc = {}
    for key in sorted({k for r in done for k in r["mc"]}):
        pairs = [r["mc"][key] for r in done if key in r["mc"]]
        values = [v for v, _ in pairs]
        mc[key] = {
            "mean": statistics.fmean(values),
            "se": math.sqrt(statistics.fmean(se * se for _, se in pairs)),
            "sd": statistics.stdev(values),
            "n": len(pairs),
        }
    return {"deterministic": det, "monte_carlo": mc}


def _calibration(reference, runs):
    z_max = ratio_max = 0.0
    for r in runs:
        if r["exit"] != 0:
            continue
        result = gate.GateResult()
        gate.check_values(reference, r["det"], r["mc"], result)
        z_max = max([z_max, *map(abs, result.z_scores)])
        ratio_max = max([ratio_max, *result.se_ratios])
    return {
        "runs": len(runs),
        "nonzero_exits": sorted(r["seed"] for r in runs if r["exit"] != 0),
        "points": sum(r.get("points", 0) for r in runs),
        "fit_failed_points": sum(r.get("failed_points", 0) for r in runs),
        "max_abs_z": z_max,
        "max_se_ratio": ratio_max,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=40)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="record only these (default: all)")
    args = parser.parse_args(argv)
    if not harness.sources_present():
        print("gffpin sources not found", file=sys.stderr)
        return 2
    env_dir = tempfile.mkdtemp(dir=harness.ensure_work_root())
    try:
        env = harness.environment_record(env_dir)
    finally:
        shutil.rmtree(env_dir)
    existing = {}
    if os.path.isfile(gate.REFERENCE_PATH):
        with open(gate.REFERENCE_PATH) as fh:
            existing = json.load(fh)["workloads"]
    out = dict(existing)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        # deterministic workloads need one run
        seeds = REFERENCE_SEEDS[:args.runs if workload.command != "renewal1d" else 1]
        work_dir = tempfile.mkdtemp(prefix="reference-",
                                    dir=harness.ensure_work_root())
        try:
            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                runs = list(pool.map(lambda s: _one(workload, s, work_dir), seeds))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        with open(os.path.join(harness.WORK_ROOT,
                               f"reference-runs-{name}.json"), "w") as fh:
            json.dump(runs, fh)
        reference = _reference(runs)
        reference["calibration"] = _calibration(reference, runs)
        out[name] = reference
        print(name, json.dumps(reference["calibration"]))
    with open(gate.REFERENCE_PATH, "w") as fh:
        json.dump({"environment": env, "seeds": "workloads.REFERENCE_SEEDS",
                   "workloads": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
