"""Brute-force enumeration oracles, independent of the library's fast paths."""

import itertools
import math

import numpy as np
import scipy.sparse.linalg as spla
from scipy.special import gamma, gammaincc

from gffpin.stats import replica_rng


def iter_paths(kernel, n):
    """Yield (probability, positions) over all length-n paths from 0."""
    steps = [tuple(int(c) for c in s) for s in kernel.steps]
    probs = [float(p) for p in kernel.probs]
    d = kernel.d
    for choice in itertools.product(range(len(steps)), repeat=n):
        prob = 1.0
        pos = (0,) * d
        path = [pos]
        for idx in choice:
            prob *= probs[idx]
            pos = tuple(a + b for a, b in zip(pos, steps[idx]))
            path.append(pos)
        yield prob, path


def exact_range_mean(kernel, n):
    """E|X_[0,n]| by full enumeration."""
    total = 0.0
    for prob, path in iter_paths(kernel, n):
        total += prob * len(set(path))
    return total


def exact_bridge_range_mean(kernel, n, x):
    """E(|X_[0,n]| | X_n = x) by full enumeration; None if unreachable."""
    x = tuple(int(c) for c in x)
    num = den = 0.0
    for prob, path in iter_paths(kernel, n):
        if path[-1] == x:
            num += prob * len(set(path))
            den += prob
    return num / den if den > 0 else None


def exact_pmf(kernel, n):
    """p_n as a dict site -> probability."""
    out = {}
    for prob, path in iter_paths(kernel, n):
        out[path[-1]] = out.get(path[-1], 0.0) + prob
    return out


def exact_sausage_green(kernel, p, x, n_max):
    """sum_{n<=n_max} E[1(X_n=x) (1-p)^{|X_[0,n]|}] by enumeration."""
    x = tuple(int(c) for c in x)
    total = 0.0
    for n in range(n_max + 1):
        for prob, path in iter_paths(kernel, n):
            if path[-1] == x:
                total += prob * (1.0 - p) ** len(set(path))
    return total


def exact_survival(kernel, p, x, n_max):
    """E[(1-p)^{|X_[0,T_x]|}; T_x <= n_max] by enumeration."""
    x = tuple(int(c) for c in x)
    total = 0.0
    # sum over first-hit paths: no earlier visit to x
    for n in range(n_max + 1):
        for prob, path in iter_paths(kernel, n):
            if path[-1] == x and x not in path[:-1]:
                total += prob * (1.0 - p) ** len(set(path))
    return total


def exact_plane_survival(kernel, p, r, n_max):
    """E[(1-p)^{|X_[0,T]|}; T <= n_max], T the first passage to {x_1 >= r},
    by enumeration."""
    total = 0.0
    # sum over first-passage paths: every earlier x_1 below r
    for n in range(n_max + 1):
        for prob, path in iter_paths(kernel, n):
            if path[-1][0] >= r and all(y[0] < r for y in path[:-1]):
                total += prob * (1.0 - p) ** len(set(path))
    return total


def exact_first_returns(kernel, L):
    """q_l for l = 1..L by enumeration (origin avoided strictly between)."""
    out = np.zeros(L + 1)
    origin = (0,) * kernel.d
    for n in range(1, L + 1):
        for prob, path in iter_paths(kernel, n):
            if path[-1] == origin and origin not in path[1:-1]:
                out[n] += prob
    return out


def direct_renewal_sums(eps, lam, k_max):
    """Truncated direct sums of the 1D renewal chain at tilt lam over
    k = 1..k_max, with w_k = e^{-lam k} / sqrt(2 pi k):
    (eps sum w_k, sum k w_k, sum w_k (k^2 - 1)/6), and for each a bound on
    its omitted tail k > k_max.

    Once k^a e^{-lam k} decreases (k_max >= a/lam), the integral comparison
    sum_{k>K} k^a e^{-lam k} <= Gamma(a+1, lam K) / lam^{a+1} bounds the
    tails; a = -1/2 is the erfc bound sqrt(pi/lam) erfc(sqrt(lam K)).
    """
    if k_max < 1.5 / lam:
        raise ValueError("k_max below the decreasing range of k^{3/2} e^{-lam k}")
    k = np.arange(1, k_max + 1, dtype=float)
    w = np.exp(-lam * k) / np.sqrt(2.0 * math.pi * k)
    sums = (eps * w.sum(), (k * w).sum(), (w * (k * k - 1.0) / 6.0).sum())

    def tail(a):
        return (gamma(a + 1.0) * gammaincc(a + 1.0, lam * k_max)
                / lam ** (a + 1.0) / math.sqrt(2.0 * math.pi))

    tails = (eps * tail(-0.5), tail(0.5), tail(1.5) / 6.0)
    return sums, tails


def scalar_heat_bath(region, eps, sweeps, seed, burnin):
    """Pin rows after each post-burn-in sweep of the exact heat bath, one
    site at a time: each conditional variance from a fresh sparse solve of
    the precision on the unpinned sites plus the visited one, and one
    scalar uniform per site."""
    rng = replica_rng(seed, 0)
    n = region.n_alive
    pinned = np.zeros(n, dtype=bool)
    rows = []
    for sweep in range(sweeps):
        for i in range(n):
            keep = np.flatnonzero(~pinned | (np.arange(n) == i))
            sub = region.matrix[np.ix_(keep, keep)].tocsc()
            rhs = np.zeros(len(keep))
            pos = int(np.searchsorted(keep, i))
            rhs[pos] = 1.0
            var = float(spla.spsolve(sub, rhs)[pos])
            g = math.sqrt(region.beta / (2.0 * math.pi * var))
            pinned[i] = rng.random() < eps * g / (1.0 + eps * g)
        if sweep >= burnin:
            rows.append(pinned.astype(np.uint8))
    return np.array(rows).reshape(sweeps - burnin, n)
