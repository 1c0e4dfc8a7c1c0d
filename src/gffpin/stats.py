"""Monte Carlo bookkeeping: estimates and deterministic seeding.

Every sampling operation in the toolkit derives its generators through
``replica_rng`` so that results are a pure function of (master seed, replica
index), independent of the order in which replicas run. The module loads
numpy only when a generator is made, so the CLI can read `REPLICAS` without
it.
"""

from __future__ import annotations

from dataclasses import dataclass

REPLICAS = 4  # chains per Monte Carlo estimate where no config sets them


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo mean, its standard error and its sample count."""

    mean: float
    stderr: float
    n: int


def _flatten_seed(seed, out):
    if isinstance(seed, (tuple, list)):
        for s in seed:
            _flatten_seed(s, out)
    else:
        out.append(int(seed))


def replica_rng(seed, *index):
    """Counter-derived numpy Generator: deterministic in (seed, index),
    collision-free across distinct indices. `seed` may be an int or a nested
    tuple of ints."""
    import numpy as np

    entropy: list[int] = []
    _flatten_seed(seed, entropy)
    _flatten_seed(index, entropy)
    return np.random.default_rng(np.random.SeedSequence(entropy))
