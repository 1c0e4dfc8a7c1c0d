"""Exact Green functions of the killed walk on finite regions.

A Region is a box whose dead sites are its exterior and any pins: a step
that leaves the box, or lands on a pin, reads -1 in its index grid. Green
values solve (I - P) restricted to the alive sites, so they are
simultaneously the covariances of the free field given the dead set, after
the 1/beta_eff scaling. All solves run at beta = 1 internally.

Every Green value comes from one algorithm over the Region's one factor,
the inverse Schur complement of every slab of the box, built on first use
and kept: the unit columns G0[:, sites] of `Region.columns`, by block
forward and back substitution, each checked by its own residual norm
against (I - P) applied over shifted slices of a zero-bordered grid. A
Region is immutable, so every chain and every probe on one Region shares
that factor; the audit references are kept on it as floats, and no Green
column: a column lives with the caller that asked for it, a chain's sweep
batch or an observable's columns. `green_killed` answers a whole set of
probes with one `columns` call.
The n-step Green function at the origin is a Fourier sum on a torus,
audited against the exact DP pmf of `walk`.

This module, and with it every command, loads numpy and no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ResourceError
from .walk import WINDOW_CELL_CAP, StepKernel, _auto_radius, pmf_origin_series

RESIDUAL_TARGET = 1e-10
COLUMN_BYTES_CAP = 1 << 30  # bytes of dense blocks per chain, sweep or
# Region, of the buffers of one path-ensemble block and of the survival
# weights; `check_bytes` is the only comparison with it
SLAB_SITES = 32  # a slab is whole layers of thickness max_step, and at
# least this many cells of the box
RESIDUAL_BLOCK_BYTES = 1 << 18  # bordered grids of one block of columns:
# a cache-sized block checks faster than one pass over the whole batch
NSTEP_AUDIT_STEPS = 16  # the exact DP checks green_nstep at min(n, 16) steps
NSTEP_AUDIT_TOL = 1e-10


def check_bytes(need, what):
    """Refuse, before it is allocated, memory that `what` need: a
    ResourceError when `need` bytes exceed COLUMN_BYTES_CAP."""
    if need > COLUMN_BYTES_CAP:
        raise ResourceError(f"{what} need {need} bytes, above the "
                            f"{COLUMN_BYTES_CAP}-byte cap")


class Region:
    """Box [lo, hi] with dead sites; immutable once built.

    The index grid has a dead border of width max_step around the box, and
    the optional ``pins`` are dead sites inside it, each given by its d
    coordinates. Dead sites read -1, so a step that leaves the box, however
    long, or lands on a pin adds no entry to (I - P): the walk is killed.
    The slab factor's bytes are checked against COLUMN_BYTES_CAP before
    anything is allocated (ResourceError). The slab factor and the audit
    references, as floats, are built on first use and kept for the
    Region's life; no Green column is kept.
    """

    def __init__(self, kernel: StepKernel, lo, hi, pins=()):
        self.kernel = kernel
        # sized in Python ints, before a corner can overflow int64
        shape = tuple(int(h) - int(l) + 1 for l, h in zip(lo, hi))
        # slabs are the fewest whole layers of thickness max_step that hold
        # SLAB_SITES cells; pins only shrink them, so the unpinned box
        # bounds the bytes of the slab inverses; a whole slab of b cells
        # costs 8 b >= 8 SLAB_SITES bytes per cell, so this check alone
        # keeps a box to about COLUMN_BYTES_CAP / (8 SLAB_SITES) cells
        w = kernel.max_step
        cross = math.prod(shape[1:])
        self._thick = thick = w * -(-SLAB_SITES // (w * cross))
        whole, rest = divmod(shape[0], thick)
        check_bytes(8 * (whole * (thick * cross) ** 2 + (rest * cross) ** 2),
                    "slab inverses of the Green factor")
        self.lo = np.asarray(lo, dtype=np.int64)
        self.hi = np.asarray(hi, dtype=np.int64)
        self.beta = float(kernel.beta_eff)
        alive = np.ones(shape, dtype=bool)
        for pin in pins:
            alive[tuple(int(c) - int(l) for c, l in zip(pin, self.lo))] = False
        self.shape = shape
        self.alive = alive
        grid = np.full(tuple(s + 2 * w for s in shape), -1, dtype=np.int64)
        self.index = grid[(slice(w, -w),) * kernel.d]
        self.sites = np.argwhere(alive) + self.lo  # lexicographic order
        self.index[alive] = np.arange(len(self.sites))
        self.n_alive = len(self.sites)
        self._grid = grid
        # columns whose bordered grids fill RESIDUAL_BLOCK_BYTES, and the
        # slices of the bordered grid that each non-zero step reads
        self._block = max(1, RESIDUAL_BLOCK_BYTES // (8 * grid.size))
        self._stencil = [
            (p, (slice(None), *(slice(w + int(c), w + int(c) + n)
                                for c, n in zip(s, shape))))
            for s, p in zip(kernel.steps, kernel.probs) if np.any(s)]
        self._slabs = None
        self._pinned_variances = {}  # (site, mask of A + {site}) -> value

    def site_index(self, x) -> int:
        idx = tuple(int(c) - int(l) for c, l in zip(x, self.lo))
        if any(i < 0 or i >= s for i, s in zip(idx, self.shape)):
            return -1
        return int(self.index[idx])

    def pinned_variance(self, pinned, i) -> float:
        """Variance at site i given zeros on the other sites of the bool mask
        `pinned`, beta = 1: the reference a chain audit checks against.

        With A the other pins, it is G0(i, i) - c^T K^{-1} c with
        K = G0[A, A] and c = G0[A, i], from one fresh `columns(A + {i})`
        call, whose residuals certify the slab factor, and a fresh Cholesky
        factor of K; it reads none of a chain's state. Its bytes are checked
        against COLUMN_BYTES_CAP before they are allocated (ResourceError),
        and a failed factor is a NumericalError. Memoized per (i, pin set),
        since the chains on one Region audit at the same visits and often
        see the same state."""
        both = pinned.copy()
        both[i] = True
        key = (i, both.tobytes())
        if key not in self._pinned_variances:
            sites = np.flatnonzero(both)
            m = len(sites)
            check_bytes(self._columns_bytes(m) + 8 * m * m,
                        f"audit columns of {m} sites on {self.n_alive}")
            gb = self.columns(sites)[0][sites]  # G0[A + {i}, A + {i}]
            pos = int(np.searchsorted(sites, i))
            others = np.arange(m) != pos
            try:
                chol = np.linalg.cholesky(gb[np.ix_(others, others)])
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"Cholesky factor of the audit system at site {i} "
                    f"failed: {exc}") from exc
            y = np.linalg.solve(chol, gb[others, pos])
            self._pinned_variances[key] = float(gb[pos, pos] - y @ y)
        return self._pinned_variances[key]

    def _slab_factor(self):
        """The Region's one factor, built once: per non-empty slab, its
        index range a:b (sites are in lexicographic order), g_k = S_k^{-1}
        and its coupling A_{k,k-1} to the slab before as runs (empty for the
        first; see `_slab_runs`). A slab is the fewest whole layers of
        thickness max_step along axis 0 that hold SLAB_SITES cells of the
        box, so no step joins slabs that are not neighbours, pins may empty
        a slab, and (I - P) is symmetric: the Schur complements are
        S_k = D_k - A_{k,k-1} g_{k-1} A_{k,k-1}^T. The g_k share one buffer,
        whose bytes the Region checked when it was built; a singular S_k is
        a NumericalError."""
        if self._slabs is None:
            slab = (self.sites[:, 0] - self.lo[0]) // self._thick
            cuts = np.flatnonzero(np.diff(slab)) + 1
            edges = np.concatenate(([0], cuts, [self.n_alive]))
            sizes = np.diff(edges)
            # one buffer holds every g_k: freed as one block it leaves the
            # process, where separately allocated blocks can stay resident
            store = np.empty(int((sizes**2).sum()))
            starts = np.cumsum(sizes**2) - sizes**2
            slabs = []
            for k, (a, b, diag, runs) in enumerate(_slab_runs(self, edges)):
                s = diag
                if k:
                    t = _times_upper(slabs[-1][2], runs, b - a)
                    for rows, cols, v in runs:
                        s[rows] -= v * t[cols]
                inv = store[starts[k]:starts[k] + (b - a) ** 2]
                inv = inv.reshape(b - a, b - a)
                try:
                    inv[...] = np.linalg.inv(s)
                except np.linalg.LinAlgError as exc:
                    raise NumericalError(
                        f"Schur complement of slab {k} of the Green factor "
                        f"is singular: {exc}") from exc
                slabs.append((a, b, inv, runs))
            self._slabs = slabs
        return self._slabs

    def _columns_bytes(self, m) -> int:
        """Bytes `columns` allocates for m columns: the columns, and for one
        block of them the bordered grid, the residual and a temporary."""
        return 8 * (self.n_alive * m + 3 * self._grid.size
                    * min(m, self._block))

    def columns(self, sites):
        """G0[:, sites], beta = 1, for sorted site indices, and the residual
        norm of each column, by block forward and back substitution through
        the slab factor. Column j's forward pass starts at the slab of its
        site, where its right-hand side e_j starts; one search over the slab
        edges finds each slab's columns. Its bytes (the columns, and the
        residual check of one block of them) are checked against
        COLUMN_BYTES_CAP before they are allocated (ResourceError); unless
        every residual norm is at most RESIDUAL_TARGET * max(1, |g_j|_inf),
        the normwise relative residual of a backward-stable solve, a NaN
        included, it is a NumericalError."""
        sites = np.asarray(sites, dtype=np.int64)
        check_bytes(self._columns_bytes(len(sites)),
                    f"{len(sites)} Green columns of {self.n_alive} sites")
        slabs = self._slab_factor()
        g = np.zeros((self.n_alive, len(sites)), order="F")
        if not len(sites):
            return g, np.zeros(0)
        # forward: g_k <- S_k^{-1} (e_k - A_{k,k-1} g_{k-1}), over the
        # columns whose site lies in slab k or before it
        prev = None
        bounds = np.searchsorted(sites, [a for a, *_ in slabs]
                                 + [self.n_alive])
        for (a, b, inv, runs), old, live in zip(slabs, bounds, bounds[1:]):
            cur = g[a:b]
            if old:
                for rows, cols, v in runs:
                    cur[rows, :old] -= v * prev[cols, :old]
                cur[:, :old] = inv @ cur[:, :old]
            if live > old:
                cur[:, old:live] = inv[:, sites[old:live] - a]
            prev = cur
        # back: g_k <- g_k - S_k^{-1} A_{k,k+1} g_{k+1}
        for (a, b, inv, _), (c, d, _, runs) in zip(slabs[-2::-1],
                                                   slabs[:0:-1]):
            nxt, y = g[c:d], np.zeros((b - a, len(sites)))
            for rows, cols, v in runs:
                y[cols] += v * nxt[rows]
            g[a:b] -= inv @ y
        resid = self._residual(g, sites)
        # |g_j| grows like n in d = 1; within RESIDUAL_TARGET needs no scale
        for j in np.flatnonzero(~(resid <= RESIDUAL_TARGET)):  # NaN too
            scale = max(1.0, np.abs(g[:, j]).max())
            if not resid[j] <= RESIDUAL_TARGET * scale:
                raise NumericalError(
                    f"solve residual {resid[j]:.3e} above target")
        return g, resid

    def _residual(self, g, sites) -> np.ndarray:
        """||(I - P) g_j - e_{sites[j]}|| of each column j, (I - P) applied
        one block of columns at a time over shifted slices of a
        zero-bordered copy of the grid: a step that leaves the alive set
        reads a zero."""
        w = self.kernel.max_step
        m, block = len(sites), self._block
        inner = (slice(None),) + (slice(w, -w),) * self.kernel.d
        full = self.n_alive == self.alive.size
        # column-major g: each column's grid is contiguous in g.T
        pad = np.zeros((min(m, block),) + self._grid.shape)
        out = np.empty((min(m, block),) + self.shape)
        tmp = np.empty_like(out)
        norms = np.empty(m)
        for c0 in range(0, m, block):
            k = min(block, m - c0)
            box, r, t = pad[:k], out[:k], tmp[:k]
            part = g.T[c0:c0 + k]
            if full:
                box[inner] = part.reshape(r.shape)
            else:
                box[inner][:, self.alive] = part
            np.multiply(box[inner], 1.0 - self.kernel.p0, out=r)
            for p, at in self._stencil:
                r -= np.multiply(box[at], p, out=t)
            r = r.reshape(k, -1) if full else r[:, self.alive]
            r[np.arange(k), sites[c0:c0 + k]] -= 1.0
            norms[c0:c0 + k] = np.einsum("ij,ij->i", r, r)
        return np.sqrt(norms)


def _times_upper(x, runs, width):
    """x A_{k,k+1}, of width b_{k+1}, for x with the columns of slab k and
    `runs` the coupling A_{k+1,k}, whose transpose is A_{k,k+1}."""
    out = np.zeros((x.shape[0], width))
    for rows, cols, v in runs:
        out[:, rows] += v * x[:, cols]
    return out


def _slab_runs(region, edges):
    """Per slab a:b of consecutive `edges`, (a, b, the dense block D_k of
    (I - P), its coupling A_{k,k-1}): the coupling is a list of runs
    (rows, cols, v), two slices of slab k and slab k-1 and the value of
    every entry A[rows.start + t, cols.start + t]. A run is one step's
    entries at consecutive sites with consecutive neighbours, so without
    pins a step couples two slabs by one run per line along the last axis,
    or fewer."""
    _, rows, cols, vals = _generator_triplets(region)
    of = np.repeat(np.arange(len(edges) - 1), np.diff(edges))
    order = np.argsort(of[rows], kind="stable")  # keeps each step's order
    rows, cols, vals = rows[order], cols[order], vals[order]
    bounds = np.searchsorted(of[rows], np.arange(len(edges)))
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        r, c, v = (x[bounds[k]:bounds[k + 1]] for x in (rows, cols, vals))
        inside = (c >= a) & (c < b)
        diag = np.zeros((b - a, b - a))
        diag[r[inside] - a, c[inside] - a] = v[inside]
        low = c < a
        r, c, v = r[low] - a, c[low] - edges[max(k - 1, 0)], v[low]
        split = np.flatnonzero((np.diff(r) != 1) | (np.diff(c) != 1)
                               | (np.diff(v) != 0)) + 1
        runs = [(slice(int(r[s]), int(r[e - 1]) + 1),
                 slice(int(c[s]), int(c[e - 1]) + 1), float(v[s]))
                for s, e in zip(np.r_[0, split], np.r_[split, len(r)])
                if e > s]
        yield a, b, diag, runs


def _generator_triplets(region):
    """(n, rows, cols, values) of (I - P) over the Region's bordered index
    grid, whose alive cells read 0 ... n-1 in grid order and every other
    cell -1; the border is max_step wide. Each non-zero step reads its
    neighbours with one gather, and a neighbour that reads -1 adds nothing."""
    kernel, grid = region.kernel, region._grid
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


def green_killed(region: Region, pairs):
    """Field covariances G(x, y)/beta_eff of the walk killed on dead sites,
    one per pair (x, y) of `pairs`, and the residual norm of the column each
    was read from: one `Region.columns` call over the distinct y sites."""
    ix = [region.site_index(x) for x, _ in pairs]
    iy = [region.site_index(y) for _, y in pairs]
    sites, at = np.unique(np.asarray(iy, dtype=np.int64), return_inverse=True)
    g, resid = region.columns(sites)
    return g[ix, at] / region.beta, resid[at]


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
