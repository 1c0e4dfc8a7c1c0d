"""Exact Green functions of the killed walk on finite regions.

A Region is a box whose dead sites are its exterior and any pins: a step
that leaves the box, or lands on a pin, reads -1 in its index grid. Green
values solve (I - P) restricted to the alive sites, so they are
simultaneously the covariances of the free field given the dead set, after
the 1/beta_eff scaling. All solves run at beta = 1 internally.

There is one solve path: a sparse LU factor of (I - P)|alive, built on first
use and cached on the Region, serves every `Region.solve`. A Region is
immutable, so every chain and every probe on one Region shares that factor.
The diagonal of the Green matrix comes from block-tridiagonal selected
inversion over slabs of the box and is cached like the factor. A chain
audit's reference does not touch the factor: the pinned system is gathered
from the same bordered grid, with the other pins dead, and solved by a
banded Cholesky; each reference is cached on the Region too. The n-step
Green function at the origin is a Fourier sum on a torus, audited against
the exact DP pmf of `walk`.

Importing this module loads only numpy: scipy.sparse loads when the first
Region builds its matrix, scipy.sparse.linalg at the first factor, and
scipy.linalg with it or at the first audit, whichever comes first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ResourceError
from .walk import WINDOW_CELL_CAP, StepKernel, _auto_radius, pmf_origin_series

RESIDUAL_TARGET = 1e-10
COLUMN_BYTES_CAP = 1 << 30  # bytes of dense blocks per chain or Region,
# and of the arrays of one path-ensemble chunk
NSTEP_AUDIT_STEPS = 16  # the exact DP checks green_nstep at min(n, 16) steps
NSTEP_AUDIT_TOL = 1e-10


class Region:
    """Box [lo, hi] with dead sites; immutable once built.

    The index grid has a dead border of width max_step around the box, and
    the optional ``pins`` are dead sites inside it, each given by its d
    coordinates. Dead sites read -1, so a step that leaves the box, however
    long, or lands on a pin adds no entry to (I - P): the walk is killed.
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
        self._lu = None
        self._green_diag = None
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
    def factor(self):
        """Sparse LU factor of `matrix`, built once and shared."""
        if self._lu is None:
            import scipy.sparse.linalg as spla

            # symmetric positive definite: a symmetric fill-reducing
            # order needs no pivoting
            self._lu = spla.splu(self._matrix.tocsc(),
                                 permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.0,
                                 options={"SymmetricMode": True})
        return self._lu

    @property
    def green_diag(self) -> np.ndarray:
        """diag((I - P)|alive^{-1}), beta = 1, by selected inversion over
        slabs of the box; read-only."""
        if self._green_diag is None:
            out = _slab_green_diag(self._matrix, self._slab_edges())
            out.flags.writeable = False
            self._green_diag = out
        return self._green_diag

    def pinned_variance(self, pinned, i) -> float:
        """Variance at site i given zeros on the other sites of the bool mask
        `pinned`, beta = 1: the reference a chain audit checks against,
        independent of the shared factor.

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

    def _slab_edges(self):
        """Index bounds of the non-empty slabs of thickness max_step along
        axis 0. Sites are in lexicographic order, so each slab is one index
        range, and no step joins two slabs that are not neighbours."""
        slab = (self.sites[:, 0] - self.lo[0]) // self.kernel.max_step
        cuts = np.flatnonzero(np.diff(slab)) + 1
        return np.concatenate(([0], cuts, [self.n_alive]))

    def solve(self, rhs):
        """Solve (I - P)|alive g = rhs; returns (g, relative residual)."""
        rhs = np.asarray(rhs, dtype=float)
        g = self.factor.solve(rhs)
        scale = float(np.linalg.norm(rhs))
        resid = float(np.linalg.norm(self._matrix @ g - rhs)) / (scale or 1.0)
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
    rhs = np.zeros(region.n_alive)
    rhs[iy] = 1.0
    g, resid = region.solve(rhs)
    return GreenProbe(float(g[ix]) / region.beta, resid)


def _slab_green_diag(m, edges) -> np.ndarray:
    """diag(m^{-1}) for a symmetric positive definite sparse m that is block
    tridiagonal over the index ranges edges[k]:edges[k+1].

    Forward Schur complements S_k = D_k - A_{k-1,k}^T S_{k-1}^{-1} A_{k-1,k}
    with g_k = S_k^{-1}, then backward G_kk = g_k + X G_{k+1,k+1} X^T with
    X = g_k A_{k,k+1} (Erisman and Tinney 1975). The g_k are the only blocks
    kept, and their size is checked before any is allocated.
    """
    sizes = np.diff(edges)
    need = 8 * int((sizes**2).sum())
    if need > COLUMN_BYTES_CAP:
        raise ResourceError(
            f"slab inverses of the Green diagonal need {need} bytes, above "
            f"the {COLUMN_BYTES_CAP}-byte cap")
    out = np.empty(edges[-1])
    # one buffer holds every g_k: freed as one block it leaves the process,
    # where separately allocated blocks can stay resident on the heap
    store = np.empty(need // 8)
    starts = np.cumsum(sizes**2) - sizes**2
    inv = [store[o:o + b * b].reshape(b, b) for o, b in zip(starts, sizes)]
    spans = list(zip(edges[:-1], edges[1:]))
    for k, (a, b) in enumerate(spans):
        s = m[a:b, a:b].toarray()
        if k:
            up = m[spans[k - 1][0]:a, a:b]
            s -= up.T @ (inv[k - 1] @ up)
        inv[k][...] = np.linalg.inv(s)
    g = inv[-1]
    out[spans[-1][0]:] = np.diagonal(g)
    for k in range(len(spans) - 2, -1, -1):
        a, b = spans[k]
        x = inv[k] @ m[a:b, b:spans[k + 1][1]]
        g = inv[k] + x @ g @ x.T
        out[a:b] = np.diagonal(g)
    return out


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
