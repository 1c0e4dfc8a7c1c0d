"""The four benchmark workloads: CLI inputs and expected call counts.

Each workload is one fixed `gffpin` CLI configuration. The benchmark seed
only picks the CLI `seed` of each repetition, so the work done per run is
fixed apart from what the Monte Carlo itself decides (the surrogate's
pilot-fitted path length). `expected_counts` are the calls the traced run
must see for one CLI run; they follow from the config and the code at the
commit that defined the benchmark, and a missed wrapper shows as a
mismatch. Why each workload exists is recorded in BENCHMARK.json and
NOTES.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SRW2_LAZY = "dim 2\nlazify 1\n1 0 1\n-1 0 1\n0 1 1\n0 -1 1\n"
SRW3 = "dim 3\n1 0 0 1\n-1 0 0 1\n0 1 0 1\n0 -1 0 1\n0 0 1 1\n0 0 -1 1\n"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict  # CLI keys other than seed and kernel_file
    kernel: str | None  # kernel file text, if the command takes one
    jobs: int
    expected_counts: dict = field(default_factory=dict)

    def config_text(self, cli_seed: int, kernel_path: str | None) -> str:
        lines = [f"{k} = {v}" for k, v in self.config.items()]
        if kernel_path is not None:
            lines.append(f"kernel_file = {kernel_path}")
        lines.append(f"seed = {cli_seed}")
        return "\n".join(lines) + "\n"


def cli_seed(bench_seed: int, repetition: int) -> int:
    """CLI seed of one repetition; disjoint from REFERENCE_SEEDS below."""
    return bench_seed * 1000 + repetition


# seeds of the runs that recorded reference.json
REFERENCE_SEEDS = tuple(range(900_000_000, 900_000_100))

_VAR_EPS = (0.3, 0.1, 0.05)  # policy boxes R = 8, 11, 21
_VAR_BUDGET = 12
_VAR_REPLICAS = 4
_VAR_PER = math.ceil(_VAR_BUDGET / _VAR_REPLICAS)  # recorded sweeps per chain

_PIN_EPS = (0.3, 0.2, 0.1)  # boxes R = 10, 10, 13
_PIN_SAMPLES = 4
_PIN_CHAINS = len(_PIN_EPS) * 5 * 4  # points x distances x replicas
_PIN_PER = math.ceil(_PIN_SAMPLES / 4)

_SUR_EPS = (0.3, 0.2, 0.1, 0.07, 0.05)
_SUR_BUDGET = 6000
_SUR_PILOT = max(_SUR_BUDGET // 4, 4000)

_REN_EPS = (0.1, 0.01, 0.005)


def _fmt(values):
    return " ".join(repr(v) for v in values)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="var-scan",
        command="variance-scan",
        config={"eps_list": _fmt(_VAR_EPS), "budget": _VAR_BUDGET,
                "replicas": _VAR_REPLICAS},
        kernel=SRW2_LAZY,
        jobs=1,
        expected_counts={
            "cli.run": 1,
            "green.region_build": len(_VAR_EPS),
            "pinning.chain_init": len(_VAR_EPS) * _VAR_REPLICAS,
            "pinning.sweep": len(_VAR_EPS) * _VAR_REPLICAS * 2 * _VAR_PER,
            "pinning.observable": len(_VAR_EPS) * _VAR_REPLICAS * _VAR_PER,
            "walk.dp_pmf": len(_VAR_EPS),
        },
    ),
    Workload(
        name="mass-pinned",
        command="mass-scan",
        config={"eps_list": _fmt(_PIN_EPS), "budget": 1,
                "mode": "pinning-exact", "samples": _PIN_SAMPLES},
        kernel=SRW2_LAZY,
        # --jobs 2 threads spread wall time +-18% run to run here (GIL
        # hand-offs on 2 cores) against +-2.5% at --jobs 1: too wide to gate
        jobs=1,
        expected_counts={
            "cli.run": 1,
            "green.region_build": len(_PIN_EPS),
            "pinning.chain_init": _PIN_CHAINS,
            "pinning.sweep": _PIN_CHAINS * 2 * _PIN_PER,
            "pinning.observable": _PIN_CHAINS * _PIN_PER,
        },
    ),
    Workload(
        name="mass-surrogate",
        command="mass-scan",
        config={"eps_list": _fmt(_SUR_EPS), "budget": _SUR_BUDGET},
        kernel=SRW3,
        jobs=1,
        expected_counts={
            "cli.run": 1,
            "scaling.survival": 2 * len(_SUR_EPS),  # pilot and fit pass
            "scaling.paths": len(_SUR_EPS) * (_SUR_PILOT + _SUR_BUDGET),
        },
    ),
    Workload(
        name="renewal",
        command="renewal1d",
        config={"eps_list": _fmt(_REN_EPS)},
        kernel=None,
        jobs=1,
        expected_counts={
            "cli.run": 1,
            "renewal1d.tilt": len(_REN_EPS),
            # renewal_mean is called directly and again inside variance_1d
            "renewal1d.moments": 3 * len(_REN_EPS),
        },
    ),
)}

# every counter checked on every workload; absent from expected_counts means 0
CHECKED_COUNTS = (
    "cli.run", "green.region_build", "pinning.chain_init", "pinning.sweep",
    "pinning.observable", "walk.dp_pmf", "scaling.survival", "scaling.paths",
    "renewal1d.tilt", "renewal1d.moments",
)
