"""Test oracles, independent of the library's fast paths.

- Path enumeration: exact pmfs, first returns, free and bridge range means
  and plane-survival weights of short walks.
- Position-based path ensembles: the same seeded chunks as
  `gffpin.scaling._ensemble_chunks`, drawn with `Generator.choice`, kept as
  full positions, with ranges from a stable argsort of site codes.
- Exact identities on `gffpin.walk.pmf_series`: first returns by the renewal
  recursion and the tied-down range of the bridge.
- A saddle-point pmf from the Legendre rate function, an independent
  large-deviation check of the exact n-step pmf.
- (I - P) of a Region as a CSR matrix, from the library's one gather, and
  as a dense array built one site and one step at a time, its reference.
- Hitting probabilities by one SuperLU solve on a Region, checked against
  `green_killed` through the last-exit identity.
- The Green diagonal of a Region by unit-column SuperLU solves, the
  reference of the diagonal of `Region.columns`, one column or a batch.
- Dense small-box oracles of the pinned field: the Green function given
  every pin subset, the heat-bath pin probability from a fresh Region, an
  exact Gaussian field draw given the pins, and a scalar heat bath.
- The Gaussian return density f(k) and truncated direct sums of the 1D
  renewal chain with bounded tails.
- Closed forms of the pinned chain of the nearest-neighbour 1D kernel at
  critical sizes: pin density, variance and two-point function.
- Batch-means standard errors for autocorrelated chain output, and the
  k-standard-error agreement test `within`.
- The pin marginal and the empty-set probability of an exact enumeration
  table.
- `write_kernel_file`, the inverse of `gffpin.walk.kernel_from_file`, and
  `simple_random_walk`, the nearest-neighbour kernel in d dimensions.
- The numpy form of `gffpin.renewal1d._polylogs`, the reference of its
  plain-float sums.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import gamma, gammaincc

from gffpin.errors import NumericalError, ValidationError
from gffpin.green import Region, _generator_triplets
from gffpin.renewal1d import (
    _GAMMA,
    _S,
    _ZETA_TABLE,
    DIRECT_SPAN,
    LAM_SERIES,
    SERIES_TERMS,
    renewal_mean,
    renewal_model,
    variance_1d,
)
from gffpin.scaling import _CHUNK
from gffpin.stats import Estimate, replica_rng
from gffpin.walk import make_kernel, pmf_origin_series, pmf_series


def simple_random_walk(d=2, lazify=False, beta=1.0):
    """Nearest-neighbour walk with weight 1/(2d) per direction."""
    spec = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        spec.append((tuple(e), 1.0))
        spec.append((tuple(-c for c in e), 1.0))
    return make_kernel(spec, d, lazify=lazify, beta=beta)


def write_kernel_file(path, support, d, lazify=False, beta=1.0):
    """Write (vector, weight) pairs in the plain-text kernel format."""
    with open(path, "w") as fh:
        fh.write(f"dim {d}\n")
        fh.write(f"lazify {1 if lazify else 0}\n")
        fh.write(f"beta {beta!r}\n")
        for vec, w in support:
            fh.write(" ".join(str(int(c)) for c in vec) + f" {w!r}\n")


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


def exact_first_returns(kernel, L):
    """q_l for l = 1..L by enumeration (origin avoided strictly between)."""
    out = np.zeros(L + 1)
    origin = (0,) * kernel.d
    for n in range(1, L + 1):
        for prob, path in iter_paths(kernel, n):
            if path[-1] == origin and origin not in path[1:-1]:
                out[n] += prob
    return out


def exact_pmf(kernel, n):
    """p_n as a dict site -> probability."""
    out = {}
    for prob, path in iter_paths(kernel, n):
        out[path[-1]] = out.get(path[-1], 0.0) + prob
    return out


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


def path_positions(kernel, n, b, rng):
    """(b, n + 1, d) positions of b walks of n steps from the origin."""
    idx = rng.choice(len(kernel.probs), size=(b, n), p=kernel.probs)
    steps = kernel.steps[idx]
    pos = np.zeros((b, n + 1, kernel.d), dtype=np.int64)
    np.cumsum(steps, axis=1, out=pos[:, 1:, :])
    return pos


def site_codes(positions, span):
    """Lexicographic codes in [0, (2 span + 1)^d) of sites with
    |coordinate| <= span."""
    mult = 2 * span + 1
    code = positions[..., 0].astype(np.int64) + span
    for ax in range(1, positions.shape[-1]):
        code = code * mult + (positions[..., ax].astype(np.int64) + span)
    return code


def range_profile(codes):
    """Cumulative number of distinct sites along each row of site codes, by
    a stable argsort."""
    order = np.argsort(codes, axis=1, kind="stable")
    sorted_codes = np.take_along_axis(codes, order, axis=1)
    first_sorted = np.ones_like(codes, dtype=bool)
    first_sorted[:, 1:] = np.diff(sorted_codes, axis=1) != 0
    is_first = np.empty_like(first_sorted)
    np.put_along_axis(is_first, order, first_sorted, axis=1)
    return np.cumsum(is_first, axis=1)


def ensemble_chunks(kernel, n_max, reps, seed):
    """Reference of `gffpin.scaling._ensemble_chunks`: per chunk, the
    (b, n_max + 1, d) positions and the (b, n_max + 1) range profile, which
    the walk's blocks of that chunk give when joined."""
    span = n_max * kernel.max_step
    for c, start in enumerate(range(0, reps, _CHUNK)):
        b = min(_CHUNK, reps - start)
        pos = path_positions(kernel, n_max, b, replica_rng(seed, c))
        yield pos, range_profile(site_codes(pos, span))


def f_pmf(k) -> float:
    """Return-height density f(k) = 1/sqrt(2 pi k) for the Gaussian step."""
    k = np.asarray(k)
    if np.any(k < 1):
        raise ValidationError("k must be >= 1")
    return 1.0 / np.sqrt(2.0 * np.pi * k)


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


def numpy_polylogs(lam):
    """`gffpin.renewal1d._polylogs` in its numpy form: the zeta series as a
    (3, SERIES_TERMS) table times the powers (-lam)^n below LAM_SERIES, and
    the direct sum over k <= DIRECT_SPAN / lam as array sums above."""
    s = np.array(_S)
    if lam < LAM_SERIES:
        n = np.arange(SERIES_TERMS)
        li = (np.array(_GAMMA) + lam ** (1.0 - s)
              * (np.array(_ZETA_TABLE) @ (-lam) ** n)).tolist()
        return li[0], li[1], li[2] - lam * lam * li[0]
    k = np.arange(1.0, math.ceil(DIRECT_SPAN / lam) + 1.0)
    w = np.exp(-lam * k) / np.sqrt(k)
    li = np.stack([w, k * w, (k * k - 1.0) * w]).sum(axis=1).tolist()
    return math.sqrt(lam) * li[0], lam ** 1.5 * li[1], lam ** 2.5 * li[2]


@dataclass(frozen=True)
class PinnedChain1D:
    """Infinite-volume closed forms of the pinned field of the
    nearest-neighbour 1D kernel; see `pinned_chain_1d`."""

    lam: float  # the tilt, the inverse correlation length
    big_m: float  # M = sum_n n e^{-lam n} f(n)
    density: float
    variance: float

    def covariance(self, r) -> float:
        """C(r) = (2/M) sum_{n>r} e^{-lam n} f(n) (n-r)((n-r)^2 - 1)/(6n).
        Only a gap of length n > r holds both 0 and r, at a and a + r for
        n - r - 1 offsets a; the bridge covariance a (n - a - r)/n summed
        over them gives the last factor. Summed directly over
        n <= r + 45/lam, past which e^{-lam n} drops below e^{-45}."""
        n = np.arange(r + 1, r + math.ceil(45.0 / self.lam) + 1, dtype=float)
        g = n - r
        terms = np.exp(-self.lam * n) * f_pmf(n) * g * (g * g - 1.0) / (6.0 * n)
        return 2.0 / self.big_m * float(terms.sum())


def pinned_chain_1d(kernel, eps) -> PinnedChain1D:
    """The pinned field of the nearest-neighbour 1D kernel, whose pinned
    set is `renewal1d`'s renewal process.

    The field's increments have variance 2, so its heights are sqrt(2)
    times those of the unit-variance chain, and a pin of weight eps per
    unit height weighs eps' = eps / sqrt(2) per unit of the rescaled
    height. So the pin density is 1/(eps' M), the mean gap being eps' M,
    and the variance is twice `variance_1d` at eps'. Refuses every other
    kernel: longer steps, or another edge weight beta_eff (1 - p0)."""
    if (kernel.d != 1 or kernel.max_step != 1
            or not math.isclose(kernel.beta_eff * (1.0 - kernel.p0), 1.0)):
        raise ValidationError("the 1D chain closed forms need the "
                              "nearest-neighbour 1D kernel at beta = 1")
    eps1 = eps / math.sqrt(2.0)
    model = renewal_model(eps1)
    big_m = renewal_mean(model)
    return PinnedChain1D(lam=model.lam, big_m=big_m,
                         density=1.0 / (eps1 * big_m),
                         variance=2.0 * variance_1d(model))


def scalar_heat_bath(region, eps, sweeps, seed, burnin):
    """Pin rows after each post-burn-in sweep of the exact heat bath, one
    site at a time: each conditional variance from a fresh sparse solve of
    the precision on the unpinned sites plus the visited one, and one
    scalar uniform per site."""
    rng = replica_rng(seed, 0)
    n = region.n_alive
    pinned = np.zeros(n, dtype=bool)
    mat = sparse_generator(region)
    rows = []
    for sweep in range(sweeps):
        for i in range(n):
            keep = np.flatnonzero(~pinned | (np.arange(n) == i))
            sub = mat[np.ix_(keep, keep)].tocsc()
            rhs = np.zeros(len(keep))
            pos = int(np.searchsorted(keep, i))
            rhs[pos] = 1.0
            var = float(spla.spsolve(sub, rhs)[pos])
            g = math.sqrt(region.beta / (2.0 * math.pi * var))
            pinned[i] = rng.random() < eps * g / (1.0 + eps * g)
        if sweep >= burnin:
            rows.append(pinned.astype(np.uint8))
    return np.array(rows).reshape(sweeps - burnin, n)


def subset_green_table(region, probes):
    """G_{A^c}(x, y)/beta for every pin subset A of the alive sites and each
    probe (x, y) of site coordinates, from one dense inverse and a Schur
    complement per subset. Returns (2^n, n_probes), rows in bitmask order."""
    n = region.n_alive
    sigma = np.linalg.inv(dense_generator(region))
    pr_idx = [(region.site_index(x), region.site_index(y)) for x, y in probes]
    out = np.empty((1 << n, len(pr_idx)))
    for mask in range(1 << n):
        a_idx = [k for k in range(n) if (mask >> k) & 1]
        if a_idx:
            block = np.linalg.inv(sigma[np.ix_(a_idx, a_idx)])
        for p, (ix, iy) in enumerate(pr_idx):
            if ix in a_idx or iy in a_idx:
                out[mask, p] = 0.0
            elif a_idx:
                out[mask, p] = (sigma[ix, iy]
                                - sigma[ix, a_idx] @ block @ sigma[a_idx, iy])
            else:
                out[mask, p] = sigma[ix, iy]
    return out / region.beta


def gibbs_pin_prob(region, pins, x, eps):
    """Heat-bath probability that x is pinned given the other pins:
    eps*g/(1 + eps*g) with g the conditional density of phi_x at 0, from a
    fresh Region with the other pins dead."""
    if eps == 0:
        return 0.0
    ix = region.site_index(x)
    others = [tuple(region.sites[region.site_index(p)])
              for p in pins if region.site_index(p) != ix]
    sub = Region(region.kernel, region.lo, region.hi, pins=others)
    rhs = np.zeros(sub.n_alive)
    rhs[sub.site_index(x)] = 1.0
    g_vec = lu_solve(sub, rhs)
    sigma2 = float(g_vec[sub.site_index(x)]) / region.beta
    g = 1.0 / math.sqrt(2.0 * math.pi * sigma2)
    return eps * g / (1.0 + eps * g)


def sample_field(region, pins, seed):
    """Exact Gaussian draw given the pin set (a bool array over the region's
    sites or a list of sites), by a dense Cholesky factor of the precision;
    zero on pins and outside. Returns an array over the full box shape."""
    pin_sites = [tuple(map(int, region.sites[i]))
                 for i in np.flatnonzero(np.asarray(pins, dtype=bool))] \
        if isinstance(pins, np.ndarray) else [tuple(map(int, p)) for p in pins]
    sub = Region(region.kernel, region.lo, region.hi, pins=pin_sites)
    out = np.zeros(region.shape)
    if sub.n_alive == 0:
        return out
    chol = np.linalg.cholesky(dense_generator(sub))
    z = replica_rng(seed).standard_normal(sub.n_alive)
    phi = sla.solve_triangular(chol.T, z, lower=False) / math.sqrt(region.beta)
    for val, site in zip(phi, sub.sites):
        out[tuple(int(c - l) for c, l in zip(site, region.lo))] = val
    return out


def estimate_from_samples(samples) -> Estimate:
    """Mean and standard error of i.i.d. samples."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n == 0:
        raise ValueError("no samples")
    se = float(x.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return Estimate(mean=float(x.mean()), stderr=se, n=n)


def within(est, target, k=3.0) -> bool:
    """True if `target` lies within k standard errors of `est`'s mean."""
    return abs(est.mean - target) <= k * est.stderr


def marginal(probs, site_index) -> float:
    """nu(site pinned) from the table of `pinning.exact_pin_measure`."""
    masks = np.arange(len(probs), dtype=np.uint64)
    return float(probs[(masks >> int(site_index)) & 1 == 1].sum())


def empty_probability(probs, site_indices) -> float:
    """nu(no pin on the sites) from the table of `pinning.exact_pin_measure`."""
    bits = sum(1 << int(s) for s in set(site_indices))
    masks = np.arange(len(probs), dtype=np.uint64)
    return float(probs[(masks & np.uint64(bits)) == 0].sum())


def batch_stderr(values, batches=20):
    """Batch-means standard error for autocorrelated sequences."""
    x = np.asarray(values, dtype=float)
    b = min(batches, x.size)
    if b < 2:
        return float("inf")
    cut = (x.size // b) * b
    means = x[:cut].reshape(b, -1).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(b))


def first_return_pmf(kernel, L, origin_series=None):
    """First-return probabilities q_1..q_L from the renewal recursion
    p_n(0) = sum_{l<=n} q_l p_{n-l}(0). Entry 0 of the result is unused."""
    if L < 1:
        raise ValidationError("L must be >= 1")
    p0 = origin_series if origin_series is not None else pmf_origin_series(kernel, L)
    q = np.zeros(L + 1)
    for n in range(1, L + 1):
        s = float(np.dot(q[1:n], p0[n - 1:0:-1]))
        q[n] = max(p0[n] - s, 0.0)
    return q


def tied_down_range_mean(kernel, n, x):
    """Exact expected range of the bridge from 0 to x in n steps, from the
    first returns and the n-step pmf at x."""
    x = tuple(int(c) for c in x)
    series = pmf_series(kernel, n, points=[(0,) * kernel.d, x])
    px = series[x]
    if px[n] <= 0.0:
        raise ValidationError(f"p_{n}({x}) = 0: conditioning undefined")
    if n == 0:
        return 1.0
    q = first_return_pmf(kernel, n, origin_series=series[(0,) * kernel.d])
    ls = np.arange(1, n + 1)
    correction = float(np.sum((n - ls + 1) * q[1:] * px[n - ls] / px[n]))
    return n + 1 - correction


def sparse_generator(region):
    """(I - P)|alive as a CSR matrix, from `green._generator_triplets`, the
    gather that `dense_generator` checks entry for entry."""
    n, rows, cols, vals = _generator_triplets(region)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def lu_solve(region, rhs):
    """Solve (I - P)|alive g = rhs with SuperLU, a factor that shares
    nothing with the slab factor of `Region.columns`."""
    return spla.splu(sparse_generator(region).tocsc()).solve(
        np.asarray(rhs, float))


def block_solve_green_diag(region, block=32):
    """diag((I - P)|alive^{-1}), beta = 1, from SuperLU solves of `block`
    unit columns at a time."""
    n = region.n_alive
    lu = spla.splu(sparse_generator(region).tocsc())
    out = np.empty(n)
    for start in range(0, n, block):
        cols = np.arange(start, min(start + block, n))
        rhs = np.zeros((n, len(cols)))
        rhs[cols, np.arange(len(cols))] = 1.0
        out[cols] = lu.solve(rhs)[cols, np.arange(len(cols))]
    return out


def dense_generator(region):
    """(I - P)|alive as a dense array, built one site and one step at a
    time: a step that leaves the alive set, by leaving the box or landing on
    a pin, adds nothing. The reference for `sparse_generator`."""
    sites = [tuple(int(c) for c in x) for x in region.sites]
    where = {x: i for i, x in enumerate(sites)}
    out = np.zeros((len(sites), len(sites)))
    for i, x in enumerate(sites):
        for s, p in zip(region.kernel.steps, region.kernel.probs):
            j = where.get(tuple(c + int(t) for c, t in zip(x, s)))
            if j is not None:
                out[i, j] -= p
        out[i, i] += 1.0
    return out


def hitting_prob(region, target, x):
    """P_x(hit target before dying), Dirichlet outside the alive set: one
    solve on the region with the target sites dead."""
    tgt = {region.site_index(t) for t in target}
    if not tgt:
        raise ValidationError("empty target")
    if any(t < 0 for t in tgt):
        raise ValidationError("target sites must be alive in the region")
    ix = region.site_index(x)
    if ix < 0:
        raise ValidationError("x must be alive")
    if ix in tgt:
        return 1.0
    tcols = sorted(tgt)
    dead = np.vstack([np.argwhere(~region.alive) + region.lo,
                      region.sites[tcols]])
    sub = Region(region.kernel, region.lo, region.hi, pins=dead)
    keep = region.index[sub.alive]
    # mass stepping from kept sites directly into the target
    mat = sparse_generator(region)
    rhs = -np.asarray(mat[keep][:, tcols].sum(axis=1)).ravel()
    h = lu_solve(sub, rhs)
    return float(h[sub.site_index(x)])


@dataclass(frozen=True)
class RateFunctionPoint:
    velocity: np.ndarray
    tilt: np.ndarray
    rate: float
    tilted_cov: np.ndarray


def rate_function(kernel, xi, tol=1e-10, max_iter=50):
    """Solve grad log z(lambda) = xi by damped Newton; returns the Legendre
    rate I(xi) = (lambda, xi) - log z(lambda) and the tilted covariance."""
    xi = np.asarray(xi, dtype=float)
    steps = kernel.steps.astype(float)
    probs = kernel.probs

    def moments(lam):
        expo = steps @ lam
        shift = expo.max()
        w = probs * np.exp(expo - shift)
        z = w.sum()
        mean = steps.T @ w / z
        cov = (steps.T * w) @ steps / z - np.outer(mean, mean)
        return np.log(z) + shift, mean, cov

    lam = np.linalg.solve(kernel.cov, xi)
    logz, mean, cov = moments(lam)
    res = np.linalg.norm(mean - xi)
    for _ in range(max_iter):
        if res <= tol:
            break
        try:
            delta = np.linalg.solve(cov, xi - mean)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular tilted covariance") from exc
        t = 1.0
        while t > 1e-14:
            cand = lam + t * delta
            logz_c, mean_c, cov_c = moments(cand)
            res_c = np.linalg.norm(mean_c - xi)
            if np.isfinite(res_c) and res_c < res:
                lam, logz, mean, cov, res = cand, logz_c, mean_c, cov_c, res_c
                break
            t /= 2.0
        else:
            raise NumericalError(f"Newton stalled at residual {res:.3e}: "
                                 f"velocity {tuple(xi)} outside the domain")
    else:
        raise NumericalError(f"Newton did not converge in {max_iter} "
                             f"iterations: velocity {tuple(xi)} outside the domain")
    rate = float(lam @ xi - logz)
    return RateFunctionPoint(velocity=xi, tilt=lam, rate=rate, tilted_cov=cov)


def saddle_pmf_approx(kernel, n, x):
    """Saddle-point approximation of p_n(x); requires an aperiodic kernel."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not kernel.aperiodic:
        raise ValidationError("saddle-point pmf uses the aperiodic local CLT")
    x = np.asarray(x, dtype=float)
    rf = rate_function(kernel, x / n)
    det = np.linalg.det(rf.tilted_cov)
    if det <= 0:
        raise NumericalError("tilted covariance not positive definite")
    return float(np.exp(-n * rf.rate)
                 / ((2.0 * np.pi * n) ** (kernel.d / 2.0) * np.sqrt(det)))
