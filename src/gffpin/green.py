"""Exact Green functions of the killed walk on finite regions.

A Region is a box with a dead-site mask (exterior plus any pinned sites);
Green values solve (I - P) restricted to the alive sites, so they are
simultaneously the covariances of the free field given the dead set, after
the 1/beta_eff scaling. All solves run at beta = 1 internally.

There is one solve path: a sparse LU factor of (I - P)|alive, built on first
use and cached on the Region, serves every `Region.solve` and the diagonal
of the Green matrix. A Region is immutable, so every chain and every probe
on one Region shares that factor.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError, ValidationError
from .walk import StepKernel, pmf_origin_series

RESIDUAL_TARGET = 1e-10
_DIAG_BLOCK = 32  # unit columns per block solve of the Green diagonal


class Region:
    """Box [lo, hi] with dead sites; immutable once built.

    Everything outside the box is dead (the walk is killed on any step that
    leaves it, so multi-cell jumps cannot escape), and the optional ``pins``
    are dead sites inside the box, each given by its d coordinates.
    """

    def __init__(self, kernel: StepKernel, lo, hi, pins=()):
        self.kernel = kernel
        self.lo = np.asarray(lo, dtype=np.int64)
        self.hi = np.asarray(hi, dtype=np.int64)
        if self.lo.shape != (kernel.d,) or np.any(self.hi < self.lo):
            raise ValidationError("bad box bounds")
        self.beta = float(kernel.beta_eff)
        shape = tuple(int(h - l + 1) for l, h in zip(self.lo, self.hi))
        alive = np.ones(shape, dtype=bool)
        for pin in pins:
            if len(pin) != kernel.d:
                raise ValidationError(
                    f"pin {tuple(pin)} must hold {kernel.d} coordinates")
            idx = tuple(int(c) - int(l) for c, l in zip(pin, self.lo))
            if any(i < 0 or i >= s for i, s in zip(idx, shape)):
                raise ValidationError(f"pin {tuple(pin)} outside the box")
            alive[idx] = False
        self.shape = shape
        self.alive = alive
        self.index = np.full(shape, -1, dtype=np.int64)
        self.sites = np.argwhere(alive) + self.lo  # lexicographic order
        self.index[alive] = np.arange(len(self.sites))
        self.n_alive = len(self.sites)
        self._matrix = self._build_matrix()
        self._lock = threading.Lock()
        self._lu = None
        self._green_diag = None

    def site_index(self, x) -> int:
        idx = tuple(int(c) - int(l) for c, l in zip(x, self.lo))
        if any(i < 0 or i >= s for i, s in zip(idx, self.shape)):
            return -1
        return int(self.index[idx])

    def _build_matrix(self):
        n = self.n_alive
        grid = self.index
        rows, cols, vals = [], [], []
        for s, p in zip(self.kernel.steps, self.kernel.probs):
            if not np.any(s):
                continue
            src_sl, dst_sl = [], []
            ok = True
            for ax, sh in enumerate(s):
                sh = int(sh)
                size = self.shape[ax]
                if abs(sh) >= size:
                    ok = False
                    break
                if sh >= 0:
                    src_sl.append(slice(0, size - sh))
                    dst_sl.append(slice(sh, size))
                else:
                    src_sl.append(slice(-sh, size))
                    dst_sl.append(slice(0, size + sh))
            if not ok:
                continue
            a = grid[tuple(src_sl)].ravel()
            b = grid[tuple(dst_sl)].ravel()
            mask = (a >= 0) & (b >= 0)
            rows.append(a[mask])
            cols.append(b[mask])
            vals.append(np.full(mask.sum(), -p))
        rows = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        cols = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
        vals = np.concatenate(vals) if vals else np.empty(0)
        diag = np.full(n, 1.0 - self.kernel.p0)
        m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        m += sp.diags(diag)
        return m.tocsr()

    @property
    def matrix(self):
        """(I - P) restricted to alive sites, beta = 1."""
        return self._matrix

    @property
    def factor(self):
        """Sparse LU factor of `matrix`, built once and shared."""
        with self._lock:
            if self._lu is None:
                # symmetric positive definite: a symmetric fill-reducing
                # order needs no pivoting
                self._lu = spla.splu(self._matrix.tocsc(),
                                     permc_spec="MMD_AT_PLUS_A",
                                     diag_pivot_thresh=0.0,
                                     options={"SymmetricMode": True})
            return self._lu

    @property
    def green_diag(self) -> np.ndarray:
        """diag((I - P)|alive^{-1}), beta = 1, by block solves; read-only."""
        lu = self.factor
        with self._lock:
            if self._green_diag is None:
                n = self.n_alive
                out = np.empty(n)
                for start in range(0, n, _DIAG_BLOCK):
                    cols = np.arange(start, min(start + _DIAG_BLOCK, n))
                    block = np.zeros((n, len(cols)))
                    block[cols, np.arange(len(cols))] = 1.0
                    out[cols] = lu.solve(block)[cols, np.arange(len(cols))]
                out.flags.writeable = False
                self._green_diag = out
            return self._green_diag

    def solve(self, rhs):
        """Solve (I - P)|alive g = rhs; returns (g, relative residual)."""
        rhs = np.asarray(rhs, dtype=float)
        g = self.factor.solve(rhs)
        scale = float(np.linalg.norm(rhs))
        resid = float(np.linalg.norm(self._matrix @ g - rhs)) / (scale or 1.0)
        if resid > RESIDUAL_TARGET:
            raise NumericalError(f"solve residual {resid:.3e} above target")
        return g, resid


def box_region(kernel, radius, pins=()) -> Region:
    """Centered cube of side 2*radius + 1."""
    r = int(radius)
    return Region(kernel, [-r] * kernel.d, [r] * kernel.d, pins=pins)


@dataclass(frozen=True)
class GreenProbe:
    x: tuple
    y: tuple
    value: float
    residual: float


def green_killed(region: Region, x, y) -> GreenProbe:
    """Field covariance G(x, y)/beta_eff for the walk killed on dead sites."""
    ix, iy = region.site_index(x), region.site_index(y)
    if ix < 0 or iy < 0:
        raise ValidationError("x and y must both be alive in the region")
    rhs = np.zeros(region.n_alive)
    rhs[iy] = 1.0
    g, resid = region.solve(rhs)
    return GreenProbe(tuple(map(int, x)), tuple(map(int, y)),
                      float(g[ix]) / region.beta, resid)


def green_nstep(kernel: StepKernel, n: int) -> float:
    """n-step Green function at the origin, sum_{m<=n} p_m(0), exact."""
    if n < 0:
        raise ValidationError("n must be >= 0")
    return float(pmf_origin_series(kernel, n).sum())
