"""Exact Green functions of the killed walk on finite regions.

A Region is a box whose dead sites are its exterior and any pins: a step
that leaves the box, or lands on a pin, reads -1 in its index grid. Green
values solve (I - P) restricted to the alive sites, so they are
simultaneously the covariances of the free field given the dead set, after
the 1/beta_eff scaling. All solves run at beta = 1 internally.

There are two solvers. The Region's one factor is the inverse Schur
complement of every slab of the box, built on first use and kept: it gives
the diagonal of the Green matrix by block-tridiagonal selected inversion,
and every `Region.solve` by block forward and back substitution. A Region is
immutable, so every chain and every probe on one Region shares that factor.
A chain audit's reference does not touch it: the pinned system is gathered
from the same bordered grid, with the other pins dead, and solved by a
banded Cholesky; each reference is cached on the Region, and so are the
Green columns that chains read. The n-step Green function at the origin is
a Fourier sum on a torus, audited against the exact DP pmf of `walk`.

Importing this module loads only numpy: scipy.sparse loads when the first
Region builds its matrix, and scipy.linalg at the first audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ResourceError
from .walk import WINDOW_CELL_CAP, StepKernel, _auto_radius, pmf_origin_series

RESIDUAL_TARGET = 1e-10
COLUMN_BYTES_CAP = 1 << 30  # bytes of dense blocks per chain, sweep or
# Region, and of the buffers of one path-ensemble block
NSTEP_AUDIT_STEPS = 16  # the exact DP checks green_nstep at min(n, 16) steps
NSTEP_AUDIT_TOL = 1e-10


class Region:
    """Box [lo, hi] with dead sites; immutable once built.

    The index grid has a dead border of width max_step around the box, and
    the optional ``pins`` are dead sites inside it, each given by its d
    coordinates. Dead sites read -1, so a step that leaves the box, however
    long, or lands on a pin adds no entry to (I - P): the walk is killed.
    The slab factor, the Green diagonal and columns, and the audit
    references are built on first use and kept for the Region's life.
    """

    def __init__(self, kernel: StepKernel, lo, hi, pins=()):
        self.kernel = kernel
        # sized in Python ints, before a corner can overflow int64
        shape = tuple(int(h) - int(l) + 1 for l, h in zip(lo, hi))
        if math.prod(shape) > WINDOW_CELL_CAP:
            raise ResourceError(f"box {shape} holds more than "
                                f"{WINDOW_CELL_CAP} cells")
        self.lo = np.asarray(lo, dtype=np.int64)
        self.hi = np.asarray(hi, dtype=np.int64)
        self.beta = float(kernel.beta_eff)
        alive = np.ones(shape, dtype=bool)
        for pin in pins:
            alive[tuple(int(c) - int(l) for c, l in zip(pin, self.lo))] = False
        self.shape = shape
        self.alive = alive
        w = kernel.max_step
        grid = np.full(tuple(s + 2 * w for s in shape), -1, dtype=np.int64)
        self.index = grid[(slice(w, -w),) * kernel.d]
        self.sites = np.argwhere(alive) + self.lo  # lexicographic order
        self.index[alive] = np.arange(len(self.sites))
        self.n_alive = len(self.sites)
        self._grid = grid
        self._matrix = self._build_matrix()
        self._slabs = None
        self._green_diag = None
        self._columns = {}  # site -> G0[:, site]
        self._pinned_variances = {}  # (site, kept-site mask bytes) -> value

    def site_index(self, x) -> int:
        idx = tuple(int(c) - int(l) for c, l in zip(x, self.lo))
        if any(i < 0 or i >= s for i, s in zip(idx, self.shape)):
            return -1
        return int(self.index[idx])

    def _build_matrix(self):
        """(I - P)|alive: one gather of the bordered grid per step."""
        import scipy.sparse as sp

        n, rows, cols, vals = _generator_triplets(self.kernel, self._grid)
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    @property
    def matrix(self):
        """(I - P) restricted to alive sites, beta = 1."""
        return self._matrix

    @property
    def green_diag(self) -> np.ndarray:
        """diag((I - P)|alive^{-1}), beta = 1, by selected inversion over the
        slab factor: G_kk = g_k + X G_{k+1,k+1} X^T with X = g_k A_{k,k+1}
        (Erisman and Tinney 1975); read-only."""
        if self._green_diag is None:
            slabs = self._slab_factor()
            out = np.empty(self.n_alive)
            g = slabs[-1][2]
            out[slabs[-1][0]:] = np.diagonal(g)
            for (a, b, inv, *_), nxt in zip(slabs[-2::-1], slabs[:0:-1]):
                x = inv @ nxt[4]
                g = inv + x @ g @ x.T
                out[a:b] = np.diagonal(g)
            out.flags.writeable = False
            self._green_diag = out
        return self._green_diag

    def green_column(self, j) -> np.ndarray:
        """G0[:, j], beta = 1, solved once per Region."""
        if j not in self._columns:
            self._columns[j] = self.solve(np.eye(1, self.n_alive, j)[0])[0]
        return self._columns[j]

    def pinned_variance(self, pinned, i) -> float:
        """Variance at site i given zeros on the other sites of the bool mask
        `pinned`, beta = 1: the reference a chain audit checks against,
        independent of the slab factor.

        The other pins read -1 in a copy of the bordered grid and the kept
        sites are renumbered in order, so the gathered (I - P) is a
        symmetric positive definite band, solved by LAPACK's banded
        Cholesky. The band's size is checked against COLUMN_BYTES_CAP before
        it is allocated (ResourceError), and a failed factor is a
        NumericalError. Memoized per (i, pin set), since the chains on one
        Region audit at the same visits and often see the same state."""
        keep = ~pinned
        keep[i] = True
        key = (i, keep.tobytes())
        if key not in self._pinned_variances:
            import scipy.linalg as sla

            order = np.cumsum(keep) - 1  # new index of each kept site
            grid = self._grid.copy()
            grid[grid >= 0] = np.where(keep, order, -1)
            n, rows, cols, vals = _generator_triplets(self.kernel, grid)
            up = cols >= rows
            rows, cols, vals = rows[up], cols[up], vals[up]
            bw = int((cols - rows).max())
            need = 8 * n * (bw + 1)
            if need > COLUMN_BYTES_CAP:
                raise ResourceError(
                    f"audit band of {n} sites and half-width {bw} needs "
                    f"{need} bytes, above the {COLUMN_BYTES_CAP}-byte cap")
            # upper form, a[r, c] at [bw + r - c, c]; Fortran order lets
            # LAPACK factor it in place
            band = np.zeros((bw + 1, n), order="F")
            band[bw + rows - cols, cols] = vals
            pos = int(order[i])
            rhs = np.zeros(n)
            rhs[pos] = 1.0
            try:
                g = sla.solveh_banded(band, rhs, overwrite_ab=True,
                                      check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"banded Cholesky of the audit system at site {i} "
                    f"failed: {exc}") from exc
            self._pinned_variances[key] = float(g[pos])
        return self._pinned_variances[key]

    def _slab_factor(self):
        """The Region's one factor, built once: per non-empty slab of
        thickness max_step along axis 0, its index range a:b (sites are in
        lexicographic order), g_k = S_k^{-1} and its couplings A_{k,k-1}
        and A_{k-1,k} to the slab before (None for the first). No step joins
        slabs that are not neighbours, so the Schur complements are
        S_k = D_k - A_{k,k-1} g_{k-1} A_{k-1,k}. The g_k share one buffer,
        checked against COLUMN_BYTES_CAP before it is allocated."""
        if self._slabs is None:
            slab = (self.sites[:, 0] - self.lo[0]) // self.kernel.max_step
            cuts = np.flatnonzero(np.diff(slab)) + 1
            edges = np.concatenate(([0], cuts, [self.n_alive]))
            sizes = np.diff(edges)
            need = 8 * int((sizes**2).sum())
            if need > COLUMN_BYTES_CAP:
                raise ResourceError(
                    f"slab inverses of the Green factor need {need} bytes, "
                    f"above the {COLUMN_BYTES_CAP}-byte cap")
            # one buffer holds every g_k: freed as one block it leaves the
            # process, where separately allocated blocks can stay resident
            store = np.empty(need // 8)
            starts = np.cumsum(sizes**2) - sizes**2
            m, slabs = self._matrix, []
            for a, b, o in zip(edges[:-1], edges[1:], starts):
                s = m[a:b, a:b].toarray()
                lower = upper = None
                if slabs:
                    prev = slabs[-1][0]
                    lower, upper = m[a:b, prev:a], m[prev:a, a:b]
                    s -= lower @ (slabs[-1][2] @ upper)
                inv = store[o:o + (b - a) ** 2].reshape(b - a, b - a)
                inv[...] = np.linalg.inv(s)
                slabs.append((a, b, inv, lower, upper))
            self._slabs = slabs
        return self._slabs

    def solve(self, rhs):
        """Solve (I - P)|alive g = rhs, for one right-hand side or a matrix
        of them, by block forward and back substitution through the slab
        factor; returns (g, the largest relative residual of a column)."""
        rhs = np.asarray(rhs, dtype=float)
        slabs = self._slab_factor()
        g = rhs.copy()
        # forward: g_k <- S_k^{-1} (r_k - A_{k,k-1} g_{k-1})
        for a, b, inv, lower, _ in slabs:
            if lower is not None:
                g[a:b] -= lower @ g[a - lower.shape[1]:a]
            g[a:b] = inv @ g[a:b]
        # back: g_k <- g_k - S_k^{-1} A_{k,k+1} g_{k+1}
        for (a, b, inv, *_), (c, d, *_, upper) in zip(slabs[-2::-1],
                                                      slabs[:0:-1]):
            g[a:b] -= inv @ (upper @ g[c:d])
        scale = np.linalg.norm(rhs, axis=0)
        r = self._matrix @ g
        r -= rhs  # squared in place: three n-by-m arrays at most
        resid = float(np.max(np.sqrt(np.square(r, out=r).sum(axis=0))
                             / np.where(scale > 0, scale, 1.0)))
        if resid > RESIDUAL_TARGET:
            raise NumericalError(f"solve residual {resid:.3e} above target")
        return g, resid


def _generator_triplets(kernel: StepKernel, grid):
    """(n, rows, cols, values) of (I - P) over a bordered index grid whose
    alive cells read 0 ... n-1 in grid order and every other cell -1; the
    border is at least max_step wide. Each non-zero step reads its
    neighbours with one gather, and a neighbour that reads -1 adds nothing."""
    flat = grid.ravel()
    at = np.flatnonzero(flat >= 0)  # grid positions, in index order
    n = len(at)
    strides = np.array(grid.strides) // grid.itemsize
    own = np.arange(n)
    rows, cols, vals = [own], [own], [np.full(n, 1.0 - kernel.p0)]
    for s, p in zip(kernel.steps, kernel.probs):
        if np.any(s):
            nb = flat[at + s @ strides]
            ok = nb >= 0
            rows.append(own[ok])
            cols.append(nb[ok])
            vals.append(np.full(ok.sum(), -p))
    return (n, *map(np.concatenate, (rows, cols, vals)))


def box_region(kernel, radius, pins=()) -> Region:
    """Centered cube of side 2*radius + 1."""
    r = int(radius)
    return Region(kernel, [-r] * kernel.d, [r] * kernel.d, pins=pins)


@dataclass(frozen=True)
class GreenProbe:
    value: float
    residual: float


def green_killed(region: Region, x, y) -> GreenProbe:
    """Field covariance G(x, y)/beta_eff for the walk killed on dead sites."""
    ix, iy = region.site_index(x), region.site_index(y)
    g, resid = region.solve(np.eye(1, region.n_alive, iy)[0])
    return GreenProbe(float(g[ix]) / region.beta, resid)


def nstep_torus_radius(kernel: StepKernel, n: int) -> int:
    """Radius of the torus `green_nstep(kernel, n)` sums on; ResourceError
    when the torus holds more than WINDOW_CELL_CAP cells."""
    radius = _auto_radius(kernel, n)
    side = 2 * radius + 1
    if side**kernel.d > WINDOW_CELL_CAP:
        raise ResourceError(f"Fourier torus {side}^{kernel.d} too large")
    return radius


def _torus_green(kernel: StepKernel, n: int) -> float:
    """sum_{m<=n} p_m(0) = 1 + L^-d sum_theta phi (1 - phi^n) / (1 - phi) on
    the torus of side L = 2 * _auto_radius(kernel, n) + 1, the theta = 0
    term being n.

    No path of n steps wraps the torus when the radius is n * max_step, so
    the sum is then exact; on the CLT window the wrapped mass is below the
    DP's 1e-12 tolerance. 1 - phi = sum_s 2 p_s sin^2(theta.s / 2), with
    theta.s reduced mod 2 pi first, stays accurate near theta = 0, and so
    do 1 - phi^n = -expm1(n log1p(phi - 1)), used where phi > 0, and
    phi / (1 - phi) = 1 / (1 - phi) - 1.
    """
    radius = nstep_torus_radius(kernel, n)
    side = 2 * radius + 1
    k = np.arange(-radius, radius + 1)
    axes = [k.reshape((-1,) + (1,) * (kernel.d - 1 - ax))
            for ax in range(kernel.d)]
    omp = np.zeros((side,) * kernel.d)  # 1 - phi
    for s, p in zip(kernel.steps, kernel.probs):
        if np.any(s):
            ks = sum(axes[ax] * int(c) for ax, c in enumerate(s) if c)
            ks = (ks + radius) % side - radius
            omp += 2.0 * p * np.sin(np.pi / side * ks) ** 2
    origin = (radius,) * kernel.d
    omp[origin] = 1.0  # placeholder: the theta = 0 term is set below
    near = omp < 1.0  # phi > 0
    tail = np.zeros_like(omp)  # 1 - phi^n, in place to bound memory
    np.log1p(-omp, out=tail, where=near)
    tail *= n
    np.expm1(tail, out=tail)
    np.negative(tail, out=tail)
    far = np.logical_not(near, out=near)
    tail[far] = 1.0 - (1.0 - omp[far]) ** n
    np.reciprocal(omp, out=omp)
    omp -= 1.0  # phi / (1 - phi)
    tail *= omp
    tail[origin] = n
    return 1.0 + float(tail.sum()) / side**kernel.d


def green_nstep(kernel: StepKernel, n: int) -> tuple[float, float]:
    """n-step Green function at the origin, sum_{m<=n} p_m(0), exact, and
    the relative error of its audit.

    The Fourier sum of `_torus_green`, audited against the exact DP pmf at
    min(n, 16) steps: a relative gap above NSTEP_AUDIT_TOL raises
    NumericalError, and the gap is returned with the value.
    """
    value = _torus_green(kernel, n)
    n_a = min(n, NSTEP_AUDIT_STEPS)
    ref = float(pmf_origin_series(kernel, n_a).sum())
    audit = value if n_a == n else _torus_green(kernel, n_a)
    err = abs(audit - ref) / ref
    if not err <= NSTEP_AUDIT_TOL:
        raise NumericalError(
            f"n-step Green audit at n = {n_a}: closed form {audit!r} vs "
            f"DP {ref!r}, relative gap {err:.3e}")
    return value, err
