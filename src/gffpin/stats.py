"""Monte Carlo bookkeeping: estimates, deterministic seeding, binomial bounds.

Every sampling operation in the toolkit derives its generators through
``replica_rng`` so that results are a pure function of (master seed, replica
index), independent of the order in which replicas run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo statistic with its provenance."""

    mean: float
    stderr: float
    n: int
    seed: object = None  # int or tuple of ints

    def within(self, target: float, k: float = 3.0) -> bool:
        """True if `target` lies within k standard errors of the mean."""
        return abs(self.mean - target) <= k * self.stderr


def _flatten_seed(seed, out):
    if isinstance(seed, (tuple, list)):
        for s in seed:
            _flatten_seed(s, out)
    else:
        out.append(int(seed))


def replica_rng(seed, *index) -> np.random.Generator:
    """Counter-derived generator: deterministic in (seed, index), collision-free
    across distinct indices. `seed` may be an int or a nested tuple of ints."""
    entropy: list[int] = []
    _flatten_seed(seed, entropy)
    _flatten_seed(index, entropy)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def estimate_from_samples(samples, seed=None) -> Estimate:
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n == 0:
        raise ValueError("no samples")
    se = float(x.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return Estimate(mean=float(x.mean()), stderr=se, n=n, seed=seed)


def binom_upper(successes: int, trials: int, conf: float = 0.95) -> float:
    """Clopper-Pearson upper bound at two-sided confidence `conf`: the
    1 - alpha/2 quantile of Beta(successes + 1, trials - successes).

    With zero successes this reduces to 1 - (alpha/2)**(1/n), the textbook
    rule-of-3.7 bound.
    """
    alpha = 1.0 - conf
    if successes >= trials:
        return 1.0
    return float(betaincinv(successes + 1, trials - successes, 1.0 - alpha / 2.0))

