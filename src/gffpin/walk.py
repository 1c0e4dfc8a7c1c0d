"""Lattice step kernels and exact return probabilities.

A kernel is a symmetric finite-support step law on Z^d. The n-step pmf at
chosen points comes from an exact dynamic-programming convolution on a
window that grows until it holds all but 1e-12 of the mass; it is the
reference that `green.green_nstep` audits its closed form against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResourceError, ValidationError

MASS_TOL = 1e-12
WINDOW_CELL_CAP = 80_000_000  # cells of a DP window or a Fourier torus
_TAIL_SIGMAS = 10.0  # DP window half-width in units of sigma*sqrt(n)


# ---------------------------------------------------------------------------
# kernels


@dataclass(frozen=True, eq=False)
class StepKernel:
    """Symmetric finite-support step distribution on Z^d."""

    d: int
    steps: np.ndarray  # (k, d) int64 support vectors
    probs: np.ndarray  # (k,) probabilities, sum 1
    cov: np.ndarray  # (d, d) second-moment matrix Q
    lazy: bool
    beta_eff: float
    aperiodic: bool

    @cached_property  # read on every Green solve
    def max_step(self) -> int:
        return int(np.abs(self.steps).max(initial=0))

    @cached_property
    def p0(self) -> float:
        at0 = np.all(self.steps == 0, axis=1)
        return float(self.probs[at0].sum())

    @property
    def sqrt_det_cov(self) -> float:
        return float(np.sqrt(np.linalg.det(self.cov)))

    @property
    def sigma_max(self) -> float:
        return float(np.sqrt(np.linalg.eigvalsh(self.cov).max()))

    def support(self):
        """List of (vector, probability) pairs."""
        return [(tuple(int(c) for c in s), float(p))
                for s, p in zip(self.steps, self.probs)]


def _int_det(mat):
    """Exact integer determinant (fraction-free Bareiss)."""
    a = [[int(v) for v in row] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _generates_lattice(steps) -> bool:
    # Subgroup generated by the (symmetric) support is Z^d iff the gcd of all
    # dxd minors of the support matrix is 1.
    vecs = [tuple(v) for v in steps if any(v)]
    if not vecs:
        return False
    d = len(vecs[0])
    g = 0
    for comb in itertools.combinations(vecs, d):
        g = math.gcd(g, abs(_int_det(comb)))
        if g == 1:
            return True
    return False


def _is_aperiodic(steps, probs) -> bool:
    # Symmetric irreducible walks have period 1 or 2; period 2 iff some
    # parity functional v in {0,1}^d is odd on every support point.
    at0 = np.all(steps == 0, axis=1)
    if probs[at0].sum() > 0:
        return True
    d = steps.shape[1]
    offsets = steps % 2
    for bits in itertools.product((0, 1), repeat=d):
        if not any(bits):
            continue
        v = np.array(bits)
        if np.all((offsets @ v) % 2 == 1):
            return False
    return True


def make_kernel(spec, d, lazify=False, beta=1.0) -> StepKernel:
    """Build a StepKernel from (vector, weight) pairs.

    Parameters
    ----------
    spec : iterable of (vector, weight)
        Finite support; weights nonnegative, not all zero. Must be symmetric
        under negation.
    d : int
        Lattice dimension.
    lazify : bool
        Apply the aperiodicity transform: move mass 1/2 to the origin and
        double the temperature multiplier. Leaves the field model unchanged.
    beta : float
        Temperature multiplier of the model before lazification.
    """
    if beta <= 0:
        raise ValidationError("beta must be positive")
    acc: dict[tuple, float] = {}
    for vec, w in spec:
        v = tuple(int(c) for c in vec)
        if len(v) != d:
            raise ValidationError(f"support vector {v} is not {d}-dimensional")
        if w < 0:
            raise ValidationError("weights must be nonnegative")
        acc[v] = acc.get(v, 0.0) + float(w)
    total = sum(acc.values())
    if total <= 0:
        raise ValidationError("zero total weight")
    for v, w in acc.items():
        neg = tuple(-c for c in v)
        if not math.isclose(w, acc.get(neg, 0.0), rel_tol=1e-12, abs_tol=1e-15):
            raise ValidationError(
                f"support is not symmetric under negation at {v}")
    probs = {v: w / total for v, w in acc.items()}
    beta_eff = float(beta)
    if lazify:
        probs = {v: w / 2.0 for v, w in probs.items()}
        probs[(0,) * d] = probs.get((0,) * d, 0.0) + 0.5
        beta_eff *= 2.0

    items = sorted(probs.items())
    steps = np.array([v for v, _ in items], dtype=np.int64)
    pvec = np.array([p for _, p in items], dtype=float)
    keep = pvec > 0
    steps, pvec = steps[keep], pvec[keep]

    if not _generates_lattice(steps):
        raise ValidationError("support does not generate the full lattice")

    cov = (steps.T * pvec) @ steps.astype(float)
    if np.linalg.eigvalsh(cov).min() <= 0:
        raise ValidationError("covariance matrix is not positive definite")

    return StepKernel(
        d=d,
        steps=steps,
        probs=pvec,
        cov=cov,
        lazy=bool(lazify),
        beta_eff=beta_eff,
        aperiodic=_is_aperiodic(steps, pvec),
    )


def kernel_from_file(path) -> StepKernel:
    """Parse the plain-text kernel format: header keys dim/lazify/beta, then
    one `x1 ... xd weight` line per support point."""
    header = {"lazify": "0", "beta": "1.0"}
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if tokens[0] in ("dim", "lazify", "beta"):
                if len(tokens) != 2:
                    raise ValidationError(f"{path}:{lineno}: bad header line")
                header[tokens[0]] = tokens[1]
            else:
                rows.append((lineno, tokens))
    if "dim" not in header:
        raise ValidationError(f"{path}: missing 'dim' header")
    d = int(header["dim"])
    spec = []
    for lineno, tokens in rows:
        if len(tokens) != d + 1:
            raise ValidationError(
                f"{path}:{lineno}: expected {d} coordinates and a weight"
            )
        spec.append((tuple(int(t) for t in tokens[:d]), float(tokens[-1])))
    return make_kernel(
        spec, d, lazify=header["lazify"].lower() in ("1", "true", "yes"),
        beta=float(header["beta"]),
    )


# ---------------------------------------------------------------------------
# exact n-step distributions


def _shifted_add(dst, src, shift, weight):
    # dst[x + shift] += weight * src[x], zero flux through the boundary
    dsl, ssl = [], []
    for ax, s in enumerate(shift):
        n = src.shape[ax]
        s = int(s)
        if abs(s) >= n:
            return
        if s >= 0:
            dsl.append(slice(s, n))
            ssl.append(slice(0, n - s))
        else:
            dsl.append(slice(0, n + s))
            ssl.append(slice(-s, n))
    dst[tuple(dsl)] += weight * src[tuple(ssl)]


def _auto_radius(kernel, n):
    exact = n * kernel.max_step
    # math.sqrt, unlike np.sqrt, takes Python ints past int64
    clt = math.ceil(_TAIL_SIGMAS * kernel.sigma_max * math.sqrt(max(n, 1))) + kernel.max_step
    return max(kernel.max_step, min(exact, clt))


def _dp_run(kernel, n, radius, record=None):
    """Convolve forward n steps on the centered cube of given radius.

    record: optional list of lattice points whose per-step values are kept.
    Returns (mass left in the cube after n steps,
    {point: np.ndarray of length n+1}).
    """
    side = 2 * radius + 1
    if side**kernel.d > WINDOW_CELL_CAP:
        raise ResourceError(f"DP window {side}^{kernel.d} too large")
    cur = np.zeros((side,) * kernel.d)
    cur[(radius,) * kernel.d] = 1.0
    rec_idx = {}
    series = {}
    if record:
        for pt in record:
            key = tuple(int(c) for c in pt)
            rec_idx[key] = tuple(c + radius for c in key)
            series[key] = np.zeros(n + 1)
            if all(0 <= i < side for i in rec_idx[key]):
                series[key][0] = cur[rec_idx[key]]
    for m in range(1, n + 1):
        nxt = np.zeros_like(cur)
        for s, p in zip(kernel.steps, kernel.probs):
            _shifted_add(nxt, cur, s, p)
        cur = nxt
        for key, idx in rec_idx.items():
            if all(0 <= i < side for i in idx):
                series[key][m] = cur[idx]
    return float(cur.sum()), series


def pmf_series(kernel, n_max, points=((0,),)) -> dict:
    """p_m(x) for m = 0..n_max at each requested lattice point, exact DP."""
    pts = [tuple(int(c) for c in p) for p in points]
    if any(len(p) != kernel.d for p in pts):
        raise ValidationError("point dimension mismatch")
    radius = _auto_radius(kernel, n_max)
    need = max((max(abs(c) for c in p) for p in pts), default=0)
    radius = max(radius, need + kernel.max_step)
    while True:
        mass, series = _dp_run(kernel, n_max, radius, record=pts)
        if mass >= 1.0 - MASS_TOL or radius >= n_max * kernel.max_step:
            return series
        radius = min(max(radius + 1, int(radius * 1.5)), n_max * kernel.max_step)


def pmf_origin_series(kernel, n_max) -> np.ndarray:
    origin = (0,) * kernel.d
    return pmf_series(kernel, n_max, points=[origin])[origin]
