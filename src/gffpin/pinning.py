"""The delta-pinning measure: exact enumeration, Gibbs sampling and
domination diagnostics.

The law of the pinned set A on a box L is nu(A) ~ eps^|A| Z_{L\\A}, with Z the
Gaussian partition function given zeros on A and on the exterior. The sampler
is a systematic-scan heat bath whose single-site odds eps*g/(1+eps*g), with
g the conditional density of the field at zero height, match the exact
single-flip ratio of nu, so detailed balance holds by construction.

The chain holds the covariance given A in low-rank form,
G_A = G0 - G0[:, A] K^{-1} G0[A, :] with K = G0[A, A] and G0 the Green
matrix of the box. It keeps K^{-1} and the site of each slot, so its memory
is O(|A|^2) beyond the n-length `pinned` and `slot`, and no Green column:
G0 is symmetric, so G0[A, i] is rows A of G0[:, i], a column of the batch
that a sweep solves over the sites it may pin or audit. A visit costs one
O(|A|^2) Schur solve, K^{-1} G0[A, i] and G_A(i, i), which gives the odds
and is handed to the pin; there is no diag(G_A) vector. No odds exceed
p_hi, the odds with all other sites pinned, so a sweep computes the odds
only at the sites whose uniform is below p_hi, about p_hi * n of them. The
pinned set is sparse at small eps, which is what makes large boxes
reachable. Exact enumeration stays dense: it serves the FKG check and is
the small-box oracle of the sampler.

Every heat-bath run goes through one driver, `recorded`: it runs a chain's
burn-in sweeps, then yields the chain after each recorded sweep, and no other
code sweeps a chain. `sample_pins` records the pin rows through it, and
`chain_mean` averages an observable of the chain over `replicas` chains,
replica r seeded by `replica_rng(seed, r)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ResourceError
from .green import Region, _generator_triplets, check_bytes
from .stats import Estimate, replica_rng

ENUM_LIMIT = 16  # subsets are enumerated for at most 2^16 pinnable sites
PAIR_LIMIT = 9  # exhaustive lattice-condition pair checks
AUDIT_TOL = 1e-2
_AUDIT_VISITS = (1, 13, 137, 1371, 13711, 137111, 1371111)


# ---------------------------------------------------------------------------
# heat-bath chain


def _odds(eps, beta, var) -> float:
    """Heat-bath pin probability eps*g/(1 + eps*g) of a site whose
    conditional variance is var at beta = 1, with g = (2 pi var/beta)^{-1/2}
    the density of the field there at zero height."""
    g = 1.0 / math.sqrt(2.0 * math.pi * (var / beta))
    return eps * g / (1.0 + eps * g)


class GibbsChain:
    """Exact systematic-scan heat bath for the pinned-site law on a region.

    State, all at beta = 1: the pin set A, one slot per pin, the site `at`
    of each slot and K^{-1} = G0[A, A]^{-1} over the slots; no Green column.
    An unpinned site i, handed its column g0 = G0[:, i], has the conditional
    variance G0(i, i) - c^T K^{-1} c with c = g0[at] = G0[A, i], as G0 is
    symmetric; a pinned site a has 1 / K^{-1}[a, a]. A visit computes
    K^{-1} c and the variance once (`_schur`), and `_pin` is handed them; a
    pin and an unpin cost O(|A|^2), and an unpin frees its slot for the
    next pin (a free slot has zero rows in K^{-1}). A scheduled audit reads
    its site's column from the sweep's batch and compares the variance with
    `Region.pinned_variance`, computed from its own fresh Green columns and
    a fresh Cholesky factor, sharing nothing with the chain's K^{-1}.
    """

    def __init__(self, region: Region, eps: float, seed: int, replica: int = 0):
        self.region = region
        self.eps = float(eps)
        self.rng = replica_rng(seed, replica)
        self.beta = region.beta
        # the odds with all other sites pinned: no odds are larger
        self.p_hi = _odds(self.eps, self.beta, 1.0 / (1.0 - region.kernel.p0))
        n = region.n_alive
        self.pinned = np.zeros(n, dtype=bool)
        self.slot = np.full(n, -1, dtype=np.int64)  # slot of each pin
        self.at = np.empty(0, dtype=np.int64)  # site of each of the k slots
        self.kinv = np.empty((0, 0))  # K^{-1}, zero past the first k slots
        self.k = 0  # slots ever used
        self.free = []  # slots below k that no pin holds
        self._visits = 0
        self.audit_max_rel_err = 0.0

    # -- conditional variance -----------------------------------------------

    def _schur(self, i, g0):
        """(K^{-1} c, v), v the conditional variance at site i, beta = 1:
        the visit's one O(|A|^2) solve at an unpinned i, handed its column
        g0 = G0[:, i] (c = g0[at]); (None, v) at a pinned one."""
        p, k = self.slot[i], self.k
        if p >= 0:
            kb, v = None, 1.0 / self.kinv[p, p]
        else:
            c = g0[self.at[:k]]
            kb = self.kinv[:k, :k] @ c  # zero at free slots
            v = g0[i] - c @ kb
        if not v > 0:
            raise NumericalError(
                f"variance {v!r} at site {i} is not positive; audit the chain")
        return kb, float(v)

    def raw_variance(self, i, g0) -> float:
        """Conditional variance at site i given the other pins, beta = 1,
        with g0 = G0[:, i] its Green column (unread if i is pinned)."""
        return self._schur(i, g0)[1]

    def _audit(self, i, g0):
        s = self.raw_variance(i, g0)
        fresh = self.region.pinned_variance(self.pinned, i)
        rel = abs(s - fresh) / fresh
        if not rel <= AUDIT_TOL:  # a NaN fails too
            raise NumericalError(
                f"audit failed at site {i}: chain {s!r} vs fresh {fresh!r}"
            )
        self.audit_max_rel_err = max(self.audit_max_rel_err, rel)

    # -- state changes ------------------------------------------------------

    def _grow(self):
        cap = min(len(self.pinned), max(8, 2 * len(self.at)))
        check_bytes(8 * cap * (cap + 1), f"K^-1 of {self.k + 1} pins")
        k = len(self.at)  # zeros: new slots hold no pin
        at, kinv = np.zeros(cap, dtype=np.int64), np.zeros((cap, cap))
        at[:k], kinv[:k, :k] = self.at, self.kinv
        self.at, self.kinv = at, kinv

    def _pin(self, i, kb, s):
        """Pin site i, given kb = K^{-1} G0[A, i] and s = G_A(i, i) from
        `_schur`; a refused pin changes nothing."""
        k = self.k
        if not s > 0:
            raise NumericalError("lost positive definiteness; audit the chain")
        p = self.free.pop() if self.free else k
        if p == len(self.at):
            self._grow()
        self.k = max(k, p + 1)
        # bordered inverse of K with the new site in slot p
        kinv = self.kinv
        kinv[:k, :k] += np.outer(kb, kb) / s
        kinv[p, :k] = kinv[:k, p] = -kb / s
        kinv[p, p] = 1.0 / s
        self.at[p] = i
        self.slot[i] = p
        self.pinned[i] = True

    def _unpin(self, i):
        p = int(self.slot[i])
        kinv = self.kinv[:self.k, :self.k]
        kp = kinv[:, p].copy()
        if not kp[p] > 0:
            raise NumericalError("lost positive definiteness; audit the chain")
        kinv -= np.outer(kp, kp) / kp[p]  # Schur complement of slot p
        kinv[p] = kinv[:, p] = 0.0  # slot p is free
        self.free.append(p)
        self.slot[i] = -1
        self.pinned[i] = False

    # -- public surface -----------------------------------------------------

    def sweep(self):
        """One lexicographic heat-bath scan; exactly one uniform per site.

        The n uniforms of a sweep come from one draw, the same stream as n
        scalar draws. No odds exceed p_hi, so a site whose uniform is not
        below p_hi ends its visit unpinned in any state: the scan is thinned
        (Lewis and Shedler 1979). It computes the odds only at the sites
        whose uniform is below p_hi, about p_hi * n of them, and unpins
        the remaining pins without their odds. A pin can land only there, so
        the sweep first solves the Green columns of D - A and of the sites
        it audits in one `Region.columns` call, which gives the odds and
        each new pin their G0(i, i) and G0[A, i], and which refuses a batch
        over COLUMN_BYTES_CAP before it allocates it (ResourceError).
        """
        n = len(self.pinned)
        u = self.rng.random(n)
        # with every neighbour pinned the odds meet p_hi to within rounding
        low = u < self.p_hi * (1.0 + 1e-9)
        first = self._visits
        self._visits += n
        audits = [t - first - 1 for t in _AUDIT_VISITS
                  if first < t <= first + n]
        want = low & ~self.pinned
        want[audits] = True
        batch = np.flatnonzero(want)
        g0, _ = self.region.columns(batch)
        pos = np.empty(n, dtype=np.int64)  # column of each batch site
        pos[batch] = np.arange(len(batch))
        for i in np.flatnonzero(low | self.pinned):
            while audits and audits[0] <= i:
                a = audits.pop(0)
                self._audit(a, g0[:, pos[a]])
            pinned, pin = self.pinned[i], False
            if low[i]:
                kb, s = self._schur(i, None if pinned else g0[:, pos[i]])
                pin = u[i] < _odds(self.eps, self.beta, s)
            if pin and not pinned:
                self._pin(i, kb, s)
            elif pinned and not pin:
                self._unpin(i)
        for a in audits:
            self._audit(a, g0[:, pos[a]])

    def covariance(self, i, j, gi, gj) -> float:
        """G_{A^c}(i, j)/beta for the current pin set, given the Green
        columns gi = G0[:, i] and gj = G0[:, j]; zero if either is pinned."""
        if self.pinned[i] or self.pinned[j]:
            return 0.0
        if i == j:
            return self.raw_variance(i, gi) / self.beta
        k = self.k
        ci, cj = gi[self.at[:k]], gj[self.at[:k]]
        return float(gj[i] - ci @ (self.kinv[:k, :k] @ cj)) / self.beta


def recorded(chain, burnin, sweeps):
    """Sweep `chain` `burnin` times, then yield it after each of `sweeps`
    more sweeps. The burn-in runs even when nothing is recorded."""
    for t in range(burnin + sweeps):
        chain.sweep()
        if t >= burnin:
            yield chain


def sample_pins(region, eps, sweeps, seed, burnin):
    """The pin set after each post-burn-in sweep of an exact heat-bath run,
    one uint8 row per sweep, and the run's largest audit error.
    Deterministic in the seed."""
    check_bytes((sweeps - burnin) * region.n_alive,  # a byte per site
                f"{sweeps - burnin} recorded sweeps of {region.n_alive} sites")
    chain = GibbsChain(region, eps, seed)
    rows = np.empty((sweeps - burnin, region.n_alive), dtype=np.uint8)
    for r, _ in enumerate(recorded(chain, burnin, sweeps - burnin)):
        rows[r] = chain.pinned
    return rows, chain.audit_max_rel_err


# ---------------------------------------------------------------------------
# exact enumeration


def _mask_members(mask, n):
    return np.array([k for k in range(n) if (mask >> k) & 1], dtype=np.int64)


def _logsumexp(logw) -> float:
    """log sum exp(logw), formed as scipy's logsumexp forms it: the terms
    at the maximum are counted, the rest summed relative to it in log1p."""
    top = logw.max()
    at = logw == top
    rest = np.exp(np.where(at, -np.inf, logw) - top).sum() / at.sum()
    return float(np.log1p(rest) + np.log(at.sum()) + top)


def exact_pin_measure(region, eps) -> np.ndarray:
    """nu(A) over all pin sets A of the alive sites, by enumeration, as a
    (2^n,) array indexed by bitmask over site order. Weights:
    eps^|A| (2 pi)^{|A^c|/2} det(beta (I-P)|_{A^c})^{-1/2}."""
    n = region.n_alive
    if n > ENUM_LIMIT:
        raise ResourceError(f"box too large: 2^{n} subsets exceed 2^{ENUM_LIMIT}")
    _, rows, cols, vals = _generator_triplets(region)
    mat = np.zeros((n, n))
    mat[rows, cols] = vals
    sign, logdet_m = np.linalg.slogdet(mat)
    if sign <= 0:
        raise NumericalError("precision matrix is not positive definite")
    sigma = np.linalg.inv(mat)
    log2pi = math.log(2.0 * math.pi)
    logbeta = math.log(region.beta)
    logeps = math.log(eps)
    logw = np.empty(1 << n)
    for mask in range(1 << n):
        a_idx = _mask_members(mask, n)
        k = len(a_idx)
        if k:
            s, ld = np.linalg.slogdet(sigma[np.ix_(a_idx, a_idx)])
            if s <= 0:
                raise NumericalError("subset covariance not positive definite")
        else:
            ld = 0.0
        logz = ((n - k) / 2.0) * (log2pi - logbeta) - 0.5 * (logdet_m + ld)
        logw[mask] = k * logeps + logz
    logz_total = _logsumexp(logw)
    probs = np.exp(logw - logz_total)
    probs /= probs.sum()
    return probs


# ---------------------------------------------------------------------------
# FKG lattice condition


@dataclass(frozen=True)
class LatticeCheck:
    min_ratio: float
    argmin_pair: tuple
    pairs_checked: int


def check_lattice_condition(region, eps) -> LatticeCheck:
    """Exhaustive check of nu(AuB) nu(AnB) >= nu(A) nu(B) over all pairs."""
    n = region.n_alive
    if n > PAIR_LIMIT:
        raise ResourceError(f"box too large: need at most {PAIR_LIMIT} sites")
    lw = np.log(exact_pin_measure(region, eps))
    masks = np.arange(1 << n, dtype=np.uint32)
    orm = masks[:, None] | masks[None, :]
    andm = masks[:, None] & masks[None, :]
    diff = lw[orm] + lw[andm] - lw[masks][:, None] - lw[masks][None, :]
    i, j = np.unravel_index(int(np.argmin(diff)), diff.shape)
    return LatticeCheck(min_ratio=float(np.exp(diff[i, j])),
                        argmin_pair=(int(masks[i]), int(masks[j])),
                        pairs_checked=diff.size)


# ---------------------------------------------------------------------------
# Monte Carlo estimators over pin samples


def chain_mean(region, eps, observable, samples, seed,
               replicas) -> tuple[Estimate, float]:
    """Mean of `observable(chain)` over `replicas` heat-bath chains, each
    burning in ceil(samples / replicas) sweeps and recording as many, and
    the largest audit error of the chains. The error bar of the Estimate is
    the spread of the replica means."""
    per = int(math.ceil(samples / replicas))
    means, audit = [], 0.0
    for r in range(replicas):
        # bound first: a loop variable alone would keep the last replica's
        # chain alive through this one's burn-in
        chain = GibbsChain(region, eps, seed, replica=r)
        acc = 0.0
        for chain in recorded(chain, per, per):
            acc += observable(chain)
        means.append(acc / per)
        audit = max(audit, chain.audit_max_rel_err)
    means = np.asarray(means)
    return Estimate(mean=float(means.mean()),
                    stderr=float(means.std(ddof=1) / math.sqrt(replicas)),
                    n=per * replicas), audit


def covariance(region, eps, x, y, samples, seed,
               replicas) -> tuple[Estimate, float]:
    """mu(phi_x phi_y) as the chain average of G_{A^c}(x,y)/beta, as an
    Estimate with the largest audit error of its chains; the columns of x
    and y are solved in one batch, and every replica reads them."""
    ix, iy = region.site_index(x), region.site_index(y)
    sites = sorted({ix, iy})
    g, _ = region.columns(sites)
    gx, gy = (g[:, sites.index(i)] for i in (ix, iy))
    return chain_mean(region, eps, lambda ch: ch.covariance(ix, iy, gx, gy),
                      samples, seed, replicas=replicas)


def domination_densities(region, eps, sites) -> tuple[float, float]:
    """Model-fitted Bernoulli densities (p_lo, p_hi) bracketing every
    conditional pin probability on `sites`.

    The conditional variance given other pins is largest with no pins and
    smallest with everything else pinned, so the heat-bath odds at those
    extremes bound the conditionals uniformly; the sandwich constants are
    fitted from the model rather than asserted.
    """
    idx = sorted({region.site_index(s) for s in sites})
    g, _ = region.columns(idx)  # one batch; G0(j, j) is its diagonal
    sigma_max = g[idx, np.arange(len(idx))].max()
    return (_odds(eps, region.beta, sigma_max),
            _odds(eps, region.beta, 1.0 / (1.0 - region.kernel.p0)))
