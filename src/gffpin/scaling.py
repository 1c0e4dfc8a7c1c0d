"""Critical-behavior estimators: seeded path ensembles, Bernoulli-environment
survival weights, exponential mass fits, and parameter scans for the
variance and the mass.

A scan returns its report as a `ScanResult`: the rows of its points and fit
CSVs and its manifest entries, already in output order, so that the CLI
only writes them.

This module owns the seeded path ensembles. Seeding goes by chunk: paths
come in chunks of `_CHUNK`, and chunk c is one (paths, steps) array of
uniforms from `replica_rng(seed, c)`, row by row. A uniform u becomes step
j, the number of entries of the normalised step CDF (cumsum(probs) / its
last entry) at or below u, which is the map of
`Generator.choice(len(probs), p=probs)`. Asking for fewer paths leaves
every leading whole chunk unchanged. Walking goes by block: a chunk is
walked `_block_rows(n_max)` rows at a time, at most `_BLOCK_VISITS` visits,
through buffers allocated once per ensemble, so memory follows one block
and not the path count or the chunk. The block size changes no output, and
a yielded block is overwritten when the next one is walked. A walk keeps
only one integer key per visit, site code and time, from which come both
its first coordinate and its range.

The Bernoulli surrogate replaces the pinned-site law by independent traps of
density p(eps); a walk surviving among annealed traps carries the weight
(1-p)^{number of distinct sites visited}, and the decay rate of the weighted
hitting probability plays the role of the inverse correlation length.

The surrogate mass is the decay rate in r of E[(1-p)^{|X_[0,T]|}; T < inf],
T the first passage to the plane {x_1 >= r}. This point-to-plane exponent is
the minimum of the point-to-point exponent (a norm) over the plane {x_1 = 1}
(Zerner 1998, Ann. Appl. Probab. 8; Flury 2007, Stoch. Proc. Appl. 117).
For a kernel invariant under x_j -> -x_j for every j >= 2 that norm is even
in the transverse coordinates, so by convexity its minimum sits on the axis:
the plane rate equals the rate of hitting (r, 0, ...). The CLI rejects
other kernels. The plane is reached by far more paths than the site.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ResourceError, ValidationError
from .green import box_region, check_bytes, green_nstep, nstep_torus_radius
from .stats import REPLICAS, replica_rng
from . import pinning

_CHUNK = 256  # paths per sub-seeded replica chunk; part of the seeding scheme
_BLOCK_VISITS = 1 << 15  # visits walked per block; changes no output
POLICY_C = 1.5  # variance-scan's box radius >= POLICY_C eps^-1/2 |log eps|
MIN_RADIUS = 8  # and >= MIN_RADIUS
ETA = 3.0  # its Green cross-check takes |log eps|^ETA / eps steps
POLICY = f"radius >= {POLICY_C} * eps^-1/2 |log eps|"


# ---------------------------------------------------------------------------
# path ensembles with range tracking


def _code_weights(d, span):
    """Multipliers (2 span + 1)^{d-1-axis}: x @ weights is one integer per
    site of the cube |x_j| <= span, lexicographic and without collisions."""
    return (2 * span + 1) ** np.arange(d - 1, -1, -1, dtype=np.int64)


def _block_rows(n_max):
    """Paths walked per block: at most `_BLOCK_VISITS` visits, and at least
    one path."""
    return max(1, min(_CHUNK, _BLOCK_VISITS // (n_max + 1)))


def _range_profile(keys, site, first):
    """Cumulative number of distinct sites along each row of keys
    code * (n+1) + t, t the column and code the site code, written to and
    returned as `site`; sorts `keys` in place. `site` (int64) and `first`
    (bool) are scratch of the shape of `keys`.

    The keys of one row are distinct, so a plain sort orders them by site
    and then by time, and the first key of each site holds the time of its
    first visit."""
    b, n1 = keys.shape
    keys.sort(axis=1)
    np.floor_divide(keys, n1, out=site)
    first[:, 0] = True
    np.not_equal(site[:, 1:], site[:, :-1], out=first[:, 1:])
    # keys - (site - row) * (n+1) = t + row * (n+1), the flat index of the
    # visit; `site` then takes the first-visit flags and their running sum
    site -= np.arange(b)[:, None]
    site *= n1
    keys -= site
    site.reshape(-1)[keys.reshape(-1)] = first.reshape(-1)
    return np.cumsum(site, axis=1, out=site)


def _key_layout(kernel, n_max, reps):
    """(w, h) of the site keys of `reps` paths of `n_max` steps, computed in
    Python ints; ResourceError when `check_bytes` refuses one block's
    buffers or a key could overflow int64.

    Only a block is charged: at path lengths past `_BLOCK_VISITS` a block
    is one path, so the cap bounds the length of a single path, whatever
    `reps` is."""
    span = n_max * kernel.max_step
    n1 = n_max + 1
    # per visit: the uniforms' buffer, the keys and x1 (8 bytes each), the
    # step indices, the comparison mask and survival_samples' passage mask
    visit_bytes = 3 * 8 + 2 + np.min_scalar_type(len(kernel.probs) - 1).itemsize
    rows = min(_block_rows(n_max), reps)
    check_bytes(visit_bytes * rows * n1, f"{rows} paths of {n_max} steps")
    # code = x_1 w + (a part in [-h, h]), w = (2 span + 1)^{d-1} and
    # h = (w - 1) / 2, so x1 = (key + h (n+1)) // (w (n+1)); |code| is at
    # most (2 span + 1) w // 2. Sized in Python ints, before any int64
    w = (2 * span + 1) ** (kernel.d - 1)
    h = (w - 1) // 2
    top = ((2 * span + 1) * w // 2 + h) * n1 + n_max  # largest key + h (n+1)
    if top > np.iinfo(np.int64).max:
        raise ResourceError(
            f"site keys of {n_max}-step paths in d = {kernel.d} need values "
            f"up to {top}, beyond int64")
    return w, h


def _ensemble_chunks(kernel, n_max, reps, seed):
    """Per block of at most `_block_rows(n_max)` paths, in path order,
    (x1, ranges): the first coordinate X_t[0] and the range |X_[0,t]|, both
    (b, n_max + 1) int64.

    Chunk c, paths [c _CHUNK, (c+1) _CHUNK), is drawn from
    replica_rng(seed, c), and the walk takes it one block of rows at a
    time, drawing each block's uniforms from that generator in turn: the
    rows are those of one (paths, n_max) draw, whatever the block size.
    Every array lives in a buffer allocated once per call, so a yielded
    block is valid only until the next one is asked for; copy it to keep
    it. `_key_layout` checks the sizes before anything is allocated.

    The walk accumulates one key per visit, code * (n_max+1) + t with code
    the site's `_code_weights` code, and x1 is read back off the key."""
    span = n_max * kernel.max_step
    n1 = n_max + 1
    w, h = _key_layout(kernel, n_max, reps)
    # the key increment of each step, then a 0 for the origin's column: one
    # take over a block's (b, n_max + 1) step indices gives its increments
    key_steps = np.zeros(len(kernel.probs) + 1, dtype=np.int64)
    key_steps[:-1] = kernel.steps @ _code_weights(kernel.d, span) * n1 + 1
    cdf = np.cumsum(kernel.probs)
    cdf /= cdf[-1]
    rows = _block_rows(n_max)
    size = min(rows, reps) * n1
    # one buffer per array, shared by arrays never alive at once: the
    # uniforms, then (as int64) the key increments, the site codes and the
    # range profile; the comparison mask, then the first-visit flags
    real = np.empty(size)
    ints = real.view(np.int64)
    mask = np.empty(size, dtype=bool)
    idx = np.empty(size, dtype=np.min_scalar_type(len(cdf) - 1))
    keys = np.empty(size, dtype=np.int64)
    x1 = np.empty(size, dtype=np.int64)
    for c, start in enumerate(range(0, reps, _CHUNK)):
        rng = replica_rng(seed, c)
        b = min(_CHUNK, reps - start)
        for first_row in range(0, b, rows):
            r = min(rows, b - first_row)
            m, e = r * n_max, r * n1
            # u >= cdf[j] counted over j is rng.choice(len(probs), p=probs)
            # on the same uniforms; u < 1 = cdf[-1], so the last never counts
            u = rng.random(out=real[:m])
            steps = idx[:m]
            steps.fill(0)
            for v in cdf[:-1]:
                steps += np.greater_equal(u, v, out=mask[:m])
            k = keys[:e].reshape(r, n1)
            k[:, 0] = len(cdf)  # the index of the 0 in key_steps
            k[:, 1:] = steps.reshape(r, n_max)
            np.take(key_steps, keys[:e], out=ints[:e], mode="clip")
            np.cumsum(ints[:e].reshape(r, n1), axis=1, out=k)
            xs = x1[:e].reshape(r, n1)
            np.add(k, h * n1, out=xs)
            xs //= w * n1
            yield xs, _range_profile(k, ints[:e].reshape(r, n1),
                                     mask[:e].reshape(r, n1))


def survival_samples(kernel, p, targets, reps, n_max, seed) -> np.ndarray:
    """Per-path weights (1-p)^{|X_[0,T]|} 1(T <= n_max), one column per
    target distance r, T the first passage to the plane {x_1 >= r}; `>=`
    scores long jumps that overshoot the plane. p = 0 reduces each column to
    the plain hitting indicator. Each r must be >= 1: a plane at r <= 0
    holds the origin. The weights' bytes, 8 per path and target, are
    checked against COLUMN_BYTES_CAP before they are allocated
    (ResourceError), and so are the path ensemble's."""
    tg = np.asarray(targets, dtype=np.int64).reshape(-1)
    check_bytes(8 * reps * len(tg),
                f"survival weights of {reps} paths at {len(tg)} targets")
    out = np.zeros((reps, len(tg)))
    pos = 0
    passed = None
    for x1, ranges in _ensemble_chunks(kernel, n_max, reps, seed):
        b = x1.shape[0]
        if passed is None:  # the first block is the largest
            passed = np.empty(x1.shape, dtype=bool)
        hit = passed[:b]
        rows = np.arange(b)
        for t, target in enumerate(tg):
            np.greater_equal(x1, target, out=hit)
            # the first passage; on a row that never passes, argmax is 0
            # and the mask there is False
            t_hit = np.argmax(hit, axis=1)
            out[pos:pos + b, t] = np.where(hit[rows, t_hit],
                                           (1.0 - p) ** ranges[rows, t_hit],
                                           0.0)
        pos += b
    return out


# ---------------------------------------------------------------------------
# exponential fits


@dataclass(frozen=True)
class MassFit:
    mass: float
    stderr: float
    chi2: float
    dof: int
    monotone_ok: bool


def _wls_line(x, y, sigma):
    """Weighted least squares line: (slope, its stderr, chi2, dof)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.all(sigma == 0.0):
        w = np.ones_like(x)
        exact = True
    elif np.any(sigma <= 0.0):
        raise ValidationError("mixed zero and positive error bars")
    else:
        w = 1.0 / sigma**2
        exact = False
    sw = w.sum()
    xbar = (w * x).sum() / sw
    ybar = (w * y).sum() / sw
    sxx = (w * (x - xbar) ** 2).sum()
    if sxx == 0.0:
        raise ValidationError("degenerate abscissa")
    slope = (w * (x - xbar) * (y - ybar)).sum() / sxx
    intercept = ybar - slope * xbar
    resid = y - intercept - slope * x
    chi2 = float((w * resid**2).sum())
    dof = len(x) - 2
    if exact:
        var = chi2 / dof / sxx if dof > 0 else 0.0
    else:
        var = 1.0 / sxx
    return float(slope), float(math.sqrt(max(var, 0.0))), chi2, dof


def mass_fit(r, values, stderr) -> MassFit:
    """Weighted least squares of -log C(r) against r; slope is the mass. The
    distances r must increase."""
    r = np.asarray(r, dtype=float)
    c = np.asarray(values, dtype=float)
    s = np.asarray(stderr, dtype=float)
    if not (c > 0).all():
        raise ValidationError("non-positive curve values in the fit window")
    if len(r) < 3:
        raise ValidationError("need at least 3 points in the fit window")
    y = -np.log(c)
    sy = s / c
    slope, se, chi2, dof = _wls_line(r, y, sy)
    monotone = True
    prev_m, prev_se = None, None
    for j in range(3, len(r) + 1):
        m_j, se_j, _, _ = _wls_line(r[:j], y[:j], sy[:j])
        if prev_m is not None and m_j < prev_m - 2.0 * (se_j + prev_se):
            monotone = False
        prev_m, prev_se = m_j, se_j
    return MassFit(mass=slope, stderr=se, chi2=chi2, dof=dof,
                   monotone_ok=monotone)


# ---------------------------------------------------------------------------
# scans


@dataclass
class ScanResult:
    """What a scan reports, ready to write: nothing else is carried."""

    points: list  # one dict per epsilon, keyed by CSV column in column order
    fit: list  # (key, value) rows of the fit CSV, in order
    notes: dict  # manifest entries; a list holds one entry per epsilon


def surrogate_density(eps, d, mapping) -> float:
    """Trap density for the Bernoulli surrogate; the paper-style mapping uses
    eps/sqrt|log eps| in d = 2 (constants set to 1 and recorded)."""
    if mapping == "direct" or d >= 3:
        return float(eps)
    return float(eps / math.sqrt(abs(math.log(eps))))


_MIN_HITS = 50  # drop fit points supported by fewer surviving paths
_JACK_GROUPS = 10
_FIT_LO = 3.0  # fit window, in units of the guessed correlation length
_FIT_HI = 6.0


def _survival_curve(kernel, p, rs, budget, n_max, seed):
    # score the first passage to the plane {x_1 >= r}, not hits of the site
    # (r, 0, ...): under the mirror symmetry both decay at the axis rate, and
    # the plane is reached by far more paths, without the r^{-(d-1)/2}
    # transverse prefactor that biases the local slope of point hits upward
    weights = survival_samples(kernel, p, rs, budget, n_max, seed)
    vals = weights.mean(axis=0)
    errs = weights.std(axis=0, ddof=1) / math.sqrt(budget)
    counts = (weights > 0).sum(axis=0)
    return weights, vals, errs, counts


def _window_ends(m, lo=_FIT_LO, hi=_FIT_HI):
    """First and last fit distance, Python ints: at tiny eps the last is
    past int64, so it is sized here before numpy sees it."""
    r_lo = max(2, math.ceil(lo / m))
    return r_lo, max(r_lo + 4, math.ceil(hi / m))


def _window(r_lo, r_hi, points):
    return np.unique(np.round(np.linspace(r_lo, r_hi, points)).astype(int))


def _steps_needed(m, sigma1, r_hi):
    # cover 3x the saddle arrival time r/(m sigma1^2) at the far target;
    # 20/m alone undershoots it badly at small trap density
    return int(math.ceil(max(20.0 / m, 3.0 * r_hi / (m * sigma1))))


def _surrogate_point(kernel, eps, budget, seed, mapping, point_index):
    p = surrogate_density(eps, kernel.d, mapping)
    sigma1 = float(kernel.cov[0, 0])
    m_guess = math.sqrt(p / sigma1)
    if m_guess == 0.0:
        raise ResourceError(f"trap density underflows to 0 at eps={eps!r}: "
                            "the paths would need unbounded steps")
    # pilot pass: recenter the fit window on the measured decay rate; its
    # steps bound its radii, and both are checked before any numpy call
    ends = _window_ends(m_guess, hi=8.0)
    n0 = _steps_needed(m_guess, sigma1, ends[1])
    pilot = max(budget // 4, 4000)
    _key_layout(kernel, n0, pilot)
    rs0 = _window(*ends, points=5)
    _, v0, e0, c0 = _survival_curve(kernel, p, rs0, pilot, n0,
                                    (seed, point_index, 0))
    keep0 = (c0 >= _MIN_HITS) & (v0 > 0)
    if keep0.sum() >= 3:
        m_guess = max(mass_fit(rs0[keep0], v0[keep0], e0[keep0]).mass, 1e-3)
    ends = _window_ends(m_guess)
    rs = _window(*ends, points=6)
    n_max = _steps_needed(m_guess, sigma1, ends[1])
    weights, vals, errs, counts = _survival_curve(
        kernel, p, rs, budget, n_max, (seed, point_index, 1))
    keep = (counts >= _MIN_HITS) & (vals > 0)
    if keep.sum() < 3:
        raise NumericalError(
            f"only {int(keep.sum())} usable distances at eps={eps}")
    fit = mass_fit(rs[keep], vals[keep], errs[keep])
    # jackknife over path groups: the distances share one ensemble, so the
    # plain WLS slope error understates the mass uncertainty
    groups = np.array_split(np.arange(weights.shape[0]), _JACK_GROUPS)
    jack = []
    for g in groups:
        rest = np.ones(weights.shape[0], dtype=bool)
        rest[g] = False
        v = weights[rest].mean(axis=0)
        e = weights[rest].std(axis=0, ddof=1) / math.sqrt(rest.sum())
        ok = keep & (v > 0)
        if ok.sum() >= 3:
            jack.append(mass_fit(rs[ok], v[ok], e[ok]).mass)
    if len(jack) >= 3:
        jack = np.asarray(jack)
        g = len(jack)
        se = math.sqrt((g - 1) / g * ((jack - jack.mean()) ** 2).sum())
        fit = replace(fit, stderr=max(fit.stderr, se))
    return p, n_max, fit


def mass_scan(kernel, eps_grid, mode, budget, seed, mapping, region_radius,
              samples) -> ScanResult:
    """Mass versus epsilon, with the fitted log-log exponent.

    Modes: "bernoulli-surrogate" simulates annealed traps of density p(eps)
    and scores the first passage to {x_1 >= r}; it needs a kernel invariant
    under x_j -> -x_j for every j >= 2. "pinning-exact" measures the pinned
    two-point function on a box. A point whose fit fails is reported with
    its reason and left out of the exponent fit.
    """
    # every box is built before the first chain, so that one over the cap
    # fails first; each, with its slab factor, is released after its point
    regions = [box_region(kernel, max(10, math.ceil(4 / math.sqrt(e)))
                          if region_radius is None else region_radius)
               if mode == "pinning-exact" else None for e in eps_grid]
    points, fits, audits, seconds = [], [], [], []
    for i, e in enumerate(eps_grid):
        t0 = time.perf_counter()
        region, regions[i] = regions[i], None
        point = {"epsilon": e, "value": math.nan, "stderr": math.inf,
                 "n_used": 0, "flags": "", "density": None, "n_max": None}
        try:
            if mode == "bernoulli-surrogate":
                p, n_max, fit = _surrogate_point(kernel, e, budget, seed,
                                                 mapping, i)
                point.update(n_used=budget, density=p, n_max=n_max)
            else:
                fit, point["n_used"] = _pinned_mass_point(
                    region, e, seed, i, samples, audits)
            point.update(value=fit.mass, stderr=fit.stderr)
        except (ValidationError, NumericalError) as exc:
            fit, point["flags"] = None, f"fit-failed: {exc}"
        points.append(point)
        fits.append(fit)
        seconds.append(round(time.perf_counter() - t0, 6))
    ok = [q for q in points if np.isfinite(q["value"]) and q["value"] > 0]
    if len(ok) < 3:
        raise NumericalError("fewer than 3 usable scan points")
    eps = np.array([q["epsilon"] for q in ok], dtype=float)
    m = np.array([q["value"] for q in ok])
    sy = np.array([q["stderr"] for q in ok]) / m
    slope, se, chi2, dof = _wls_line(np.log(eps), np.log(m), sy)
    fit_rows = [("exponent", slope), ("exponent_stderr", se), ("mode", mode),
                ("mapping", mapping), ("chi2", chi2), ("dof", dof)]
    if kernel.d == 2:
        ratio = m / np.sqrt(eps)
        # a negative log-power correction makes m/sqrt(eps) grow with eps
        monotone = bool(np.all(np.diff(ratio) < 0))
        fit_rows += [("m_over_sqrt_eps", ratio.tolist()),
                     ("log_correction_monotone", monotone)]
    # per-point fit diagnostics, None where the fit failed, and wall time
    notes = {"monotone_ok": [f and f.monotone_ok for f in fits],
             "point_chi2": [f and f.chi2 for f in fits],
             "point_dof": [f and f.dof for f in fits],
             "point_seconds": seconds}
    if mode == "pinning-exact":  # every usable point ran chains
        notes["audit_max_rel_err"] = max(audits)
    return ScanResult(points, fit_rows, notes)


def _pinned_mass_point(region, eps, seed, point_index, samples, audits):
    """Mass fit of the pinned two-point function along the first axis of a
    centred box, and the sweeps per distance; each distance's largest audit
    error goes to `audits` at once, so that a failed fit keeps them."""
    kernel, radius = region.kernel, int(region.hi[0])
    rs = np.unique(np.round(np.linspace(2, max(6, radius - 2), 5)).astype(int))
    vals, errs = [], []
    for r in rs:
        est, audit = pinning.covariance(
            region, eps, (0,) * kernel.d, (int(r),) + (0,) * (kernel.d - 1),
            samples, (seed, point_index, int(r)), REPLICAS)
        audits.append(audit)
        vals.append(est.mean)
        errs.append(est.stderr)
    vals = np.asarray(vals)
    errs = np.asarray(errs)
    keep = vals > 0
    if keep.sum() < 3:
        raise NumericalError("pinned covariance curve has too few positive points")
    return mass_fit(rs[keep], vals[keep], errs[keep]), est.n


def variance_slope_reference(kernel) -> float:
    """(2 pi sqrt(det Q))^{-1} at the beta = 1 normalization; invariant under
    lazification because beta_eff doubles while det Q drops by 2^d/..."""
    return 1.0 / (2.0 * math.pi * kernel.beta_eff * kernel.sqrt_det_cov)


def variance_box_policy(eps) -> int:
    """Box radius floor max(MIN_RADIUS, POLICY_C * eps^{-1/2} |log eps|),
    keeping the finite-volume error subdominant."""
    return max(MIN_RADIUS, math.ceil(POLICY_C * abs(math.log(eps)) / math.sqrt(eps)))


def _green_steps(kernel, eps) -> int:
    """n0 = ceil(|log eps|^ETA / eps), the steps of the Green cross-check;
    ResourceError when n0 overflows a float or its torus is over the cap."""
    try:  # in Python floats, which overflow to inf without a warning
        n0 = math.ceil(abs(math.log(eps)) ** ETA / float(eps))
    except OverflowError:
        raise ResourceError(f"n0 = |log eps|^{ETA!r} / eps overflows "
                            f"at eps={float(eps)!r}") from None
    nstep_torus_radius(kernel, n0)
    return n0


def variance_scan(kernel, eps_grid, budget, seed, replicas,
                  box_radius) -> ScanResult:
    """Variance at the origin versus |log eps|, with the fitted slope and the
    n0-step Green cross-check value per point."""
    radii = [variance_box_policy(e) if box_radius is None else box_radius
             for e in eps_grid]
    n0 = [_green_steps(kernel, e) for e in eps_grid]  # fail before any chain
    regions = [box_region(kernel, r) for r in radii]  # and every box

    origin = (0,) * kernel.d
    values, gn0, audits, chain_audits, seconds = [], [], [], [], []
    for i, e in enumerate(eps_grid):
        t0 = time.perf_counter()
        region, regions[i] = regions[i], None
        # Rao-Blackwellized mu(phi_0^2): no field draws
        est, audit = pinning.covariance(region, e, origin, origin, budget,
                                        (seed, i), replicas)
        values.append(est)
        chain_audits.append(audit)
        g, audit = green_nstep(kernel, n0[i])
        gn0.append(g)
        audits.append(audit)
        seconds.append(round(time.perf_counter() - t0, 6))
    reference = variance_slope_reference(kernel)
    lx = np.abs(np.log(np.asarray(eps_grid, dtype=float)))
    ly = np.array([v.mean for v in values])
    slope, se, chi2, dof = _wls_line(lx, ly, [v.stderr for v in values])
    offsets = (ly - reference * lx).tolist()
    points = [{"epsilon": e, "value": v.mean, "stderr": v.stderr,
               "n_used": v.n, "flags": "", "box_radius": r, "n0": n,
               "gn0": g / kernel.beta_eff, "offset": off}
              for e, v, r, n, g, off in zip(eps_grid, values, radii, n0, gn0,
                                            offsets)]
    fit = [("slope", slope), ("slope_stderr", se),
           ("slope_reference", reference), ("chi2", chi2), ("dof", dof),
           ("policy", POLICY)]
    notes = {"gn0_audit_max_rel_err": max(audits),
             "audit_max_rel_err": max(chain_audits),
             "point_seconds": seconds}
    return ScanResult(points, fit, notes)
