import math

import numpy as np
import pytest

from gffpin import green
from gffpin.errors import NumericalError, ResourceError, ValidationError
from gffpin.green import (
    Region,
    box_region,
    green_killed,
    green_nstep,
    nstep_torus_radius,
)
from gffpin.walk import _auto_radius, make_kernel, pmf_origin_series

from oracles import (
    block_solve_green_diag,
    dense_generator,
    hitting_prob,
    sparse_generator,
)

# the conftest kernel fixtures these tests run on, by name
KERNELS = ("srw1", "srw2", "srw2_lazy", "srw3", "knight")


def _spy_columns(monkeypatch):
    """The sites of each `Region.columns` call, in call order."""
    calls, real = [], Region.columns

    def spy(region, sites):
        calls.append(list(sites))
        return real(region, sites)

    monkeypatch.setattr(Region, "columns", spy)
    return calls


def _slab_of_sites(region):
    """The slab of each alive site: the fewest whole layers of thickness
    max_step along axis 0 that hold SLAB_SITES cells of the box."""
    w = region.kernel.max_step
    layer = w * math.prod(region.shape[1:])
    thick = w * math.ceil(green.SLAB_SITES / layer)
    return (region.sites[:, 0] - region.lo[0]) // thick


def _scale(inv):
    inv *= 1.01


def _nan(inv):
    # the back pass multiplies this entry by a non-zero coupling term
    inv[0, -1] = np.nan


class TestGreenKilled:
    def test_singleton_unit_value(self, srw2):
        region = Region(srw2, (0, 0), (0, 0))
        values, resid = green_killed(region, [((0, 0), (0, 0))])
        assert math.isclose(values[0], 1.0, abs_tol=1e-12)
        assert resid[0] <= 1e-10

    def test_singleton_lazy_invariant(self, srw2_lazy):
        # holding time doubles, beta doubles: the covariance is unchanged
        region = Region(srw2_lazy, (0, 0), (0, 0))
        assert math.isclose(green_killed(region, [((0, 0), (0, 0))])[0][0],
                            1.0, abs_tol=1e-12)

    def test_probes_solved_in_one_call(self, srw2_lazy, monkeypatch):
        # k probes over fewer distinct y sites: one batch of unit columns,
        # each probe with the residual of its own column
        region = box_region(srw2_lazy, 4, pins=[(1, 1)])
        inv = np.linalg.inv(dense_generator(region))
        pairs = [((0, 0), (2, -3)), ((-4, 4), (0, 0)), ((2, -3), (0, 0)),
                 ((3, 3), (-4, 4)), ((0, 0), (0, 0)), ((1, 0), (2, -3))]
        calls = _spy_columns(monkeypatch)
        values, resid = green_killed(region, pairs)
        ys = sorted({region.site_index(y) for _, y in pairs})
        assert calls == [ys]
        assert values.shape == resid.shape == (len(pairs),)
        for (x, y), value, r in zip(pairs, values, resid):
            ref = inv[region.site_index(x), region.site_index(y)] / region.beta
            assert abs(value - ref) <= 1e-12 * ref
            assert 0.0 < r <= green.RESIDUAL_TARGET

    def test_single_columns_match_dense_inverse(self, srw2_lazy):
        # 120 sites, one of the 4 slabs of three rows holding a pin
        region = box_region(srw2_lazy, 5, pins=[(1, 1)])
        n = region.n_alive
        inv = np.linalg.inv(dense_generator(region))
        before = dict(vars(region))
        diag = [region.columns([i])[0][i, 0] for i in range(n)]
        assert np.abs(diag - np.diag(inv)).max() <= 1e-12
        # the solves leave nothing on the Region but its slab factor: no
        # column and no Green value
        after = vars(region)
        assert {k for k in after if after[k] is not before[k]} == {"_slabs"}
        assert not region._pinned_variances
        # the slab factor is built once and kept: solves reuse it
        slabs = region._slabs
        green_killed(region, [((0, 0), (2, -3))])
        assert region._slab_factor() is slabs

    @pytest.mark.parametrize("name, radius, pins, empty", [
        ("srw2_lazy", 21, [], []),
        ("knight", 6, [(1, -2)], []),
        ("srw3", 4, [(0, 0, 1), (-4, 2, 2)], []),
        # slabs of three rows: whole rows pinned empty the first slab, and
        # one splitting the box
        ("srw2_lazy", 7, [(x, y) for x in (-7, -6, -5, -1, 0, 1)
                          for y in range(-7, 8)], [0, 2]),
        # knight slabs are the rows {-8, -7}, {-6, -5}, ..., {8}
        ("knight", 8, [(x, y) for x in (0, 1) for y in range(-8, 9)], [4]),
        ("aniso", 6, [(2, -1), (-3, 4)], []),
        # a 1D box: slabs of SLAB_SITES sites, the last one shorter
        ("srw1", 50, [(7,)], []),
    ], ids=["srw2-lazy-R21", "max-step-2", "d3", "empty-slabs",
            "empty-slab-max-step-2", "aniso", "d1"])
    def test_columns_match_oracles(self, request, name, radius, pins,
                                   empty):
        # the diagonal of every unit column, and of single columns at some
        # sites, against SuperLU unit-column solves and the dense inverse,
        # and unit columns, one and several, against the dense inverse
        region = box_region(request.getfixturevalue(name), radius, pins=pins)
        slab = _slab_of_sites(region)
        assert sorted(set(range(slab.max() + 1)) - set(slab)) == empty
        n = region.n_alive
        diag = np.diagonal(region.columns(np.arange(n))[0])
        ref = block_solve_green_diag(region)
        assert np.abs(diag - ref).max() <= 1e-12 * diag.max()
        inv = np.linalg.inv(dense_generator(region))
        assert np.abs(diag - np.diag(inv)).max() <= 1e-12 * diag.max()
        picks = np.random.default_rng(4).choice(n, 5, replace=False)
        for i in (0, n - 1, int(np.argmax(ref)), *picks.tolist()):
            gii = region.columns([i])[0][i, 0]
            assert abs(gii - ref[i]) <= 1e-12 * ref[i]
            assert abs(gii - inv[i, i]) <= 1e-12 * inv[i, i]
        for sites in ([n // 2], [0, n - 1], sorted(picks)):
            g, resid = region.columns(sites)
            ref = inv[:, sites]
            assert g.shape == (n, len(sites))
            assert resid.shape == (len(sites),)
            assert np.all(resid <= green.RESIDUAL_TARGET)
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("name, lo, hi, count", [
        ("srw1", (-203,), (203,), 13), ("srw2", (-8, -8), (8, 8), 9),
        ("knight", (-4, -4), (4, 4), 3), ("srw3", (-2, -2, -2), (2, 2, 2), 3),
        ("srw2", (0, 0), (3, 39), 4),
    ], ids=["d1", "srw2-R8", "knight", "srw3", "wide-rows"])
    def test_slabs_are_whole_layers(self, request, name, lo, hi, count):
        # a 1D box of 407 sites is 13 slabs, not 407, and every slab but
        # the last holds at least SLAB_SITES sites
        region = Region(request.getfixturevalue(name), lo, hi)
        sizes = np.bincount(_slab_of_sites(region))
        assert [b - a for a, b, *_ in region._slab_factor()] == \
            sizes.tolist()
        assert len(sizes) == count
        assert sizes[:-1].min() >= green.SLAB_SITES

    @pytest.mark.parametrize("spoil", [_scale, _nan], ids=["scaled", "nan"])
    def test_scaled_slab_inverse_fails_the_residual(self, srw2_lazy, spoil):
        # the residual of every column certifies the slab factor, and a NaN
        # residual is no pass
        region = box_region(srw2_lazy, 5)
        region.columns([3, 60])
        spoil(region._slab_factor()[2][2])
        with pytest.raises(NumericalError, match="residual"):
            region.columns([100])

    @pytest.mark.parametrize("name, radius, pins, sites", [
        # lazy srw2, R = 7: 5 slabs of three rows of 15 sites
        ("srw2_lazy", 7, [], [0, 7, 44]),  # the first slab only
        ("srw2_lazy", 7, [], [180, 200, 224]),  # the last slab only
        ("srw2_lazy", 7, [], [3, 100, 200]),  # slabs 0, 2 and 4
        # the rows of slab 1 pinned: 4 slabs left, columns on each side
        ("srw2_lazy", 7, [(x, y) for x in (-4, -3, -2)
                          for y in range(-7, 8)], [0, 44, 45, 179]),
        ("srw2_lazy", 7, [], []),  # no column
        ("srw1", 50, [], [97, 100]),  # the last, short slab of 1D
        ("srw1", 50, [], [0, 70]),
    ], ids=["first-slab", "last-slab", "skipped-slabs", "pinned-slab",
            "empty", "d1-last-slab", "d1-skipped-slab"])
    def test_columns_by_slab_match_dense_inverse(self, request, name, radius,
                                                 pins, sites):
        # one search over the slab edges gives each slab its columns
        region = box_region(request.getfixturevalue(name), radius, pins=pins)
        inv = np.linalg.inv(dense_generator(region))
        g, resid = region.columns(sites)
        assert g.shape == (region.n_alive, len(sites))
        assert resid.shape == (len(sites),)
        if sites:
            ref = inv[:, sites]
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_d1_residual_scales_with_the_column(self, srw1):
        # in d = 1, |g| grows like n: at 30,001 sites the centre column's
        # residual, about 1.2e-10, is 8e-15 of its G0(0, 0) = 15001
        region = box_region(srw1, 15000)
        g, resid = region.columns([15000])
        assert abs(g[15000, 0] - 15001.0) <= 1e-9 * 15001.0
        assert resid[0] <= green.RESIDUAL_TARGET * np.abs(g).max()

    @pytest.mark.parametrize("name, radius, site", [
        ("srw1", 15000, 15000), ("srw2_lazy", 5, 100),
    ], ids=["d1", "d2"])
    def test_slightly_scaled_slab_inverse_fails_the_residual(
            self, request, name, radius, site):
        # the scaled target still catches a slab inverse off by 1e-6: the
        # column through it fails by orders of magnitude
        region = box_region(request.getfixturevalue(name), radius)
        inv = next(slab for slab in region._slab_factor()
                   if slab[0] <= site < slab[1])[2]
        inv *= 1.0 + 1e-6
        with pytest.raises(NumericalError, match="residual"):
            region.columns([site])

    def test_slab_factor_size_checked_before_allocation(self, srw2,
                                                        monkeypatch):
        # one slab of 10^6 sites: 8 TB of slab inverse, far beyond memory;
        # the Region refuses it before it allocates its alive mask or grid
        made = []
        for name in ("ones", "full", "empty", "zeros"):
            real = getattr(np, name)
            monkeypatch.setattr(
                np, name,
                lambda *a, _real=real, **k: made.append(a) or _real(*a, **k))
        with pytest.raises(ResourceError, match="cap"):
            Region(srw2, (0, 0), (0, 10**6 - 1))
        # 10^8 cells, above WINDOW_CELL_CAP: refused by the factor's bytes,
        # 8 * 10^12, which bound every box to about 4 * 10^6 cells
        with pytest.raises(ResourceError, match="cap"):
            Region(srw2, (0, 0), (9999, 9999))
        assert made == []
        # the bound is of the unpinned box: 13 slabs of three rows of 11
        # and a last row, 8 * (13 * 33^2 + 11^2) bytes
        need = 8 * (13 * 33**2 + 11**2)
        monkeypatch.setattr(green, "COLUMN_BYTES_CAP", need)
        Region(srw2, (0, 0), (39, 10))
        monkeypatch.setattr(green, "COLUMN_BYTES_CAP", need - 1)
        with pytest.raises(ResourceError, match="cap"):
            Region(srw2, (0, 0), (39, 10), pins=[(0, 0)])

    def test_symmetry(self, srw2):
        region = box_region(srw2, 3, pins=[(2, 2)])
        pairs = [((0, 0), (1, -1)), ((-2, 1), (3, 0)), ((1, 1), (-1, -2))]
        forth, _ = green_killed(region, pairs)
        back, _ = green_killed(region, [(y, x) for x, y in pairs])
        for a, b in zip(forth, back):
            assert abs(a - b) <= 1e-10

    def test_agrees_with_dense_inverse(self, srw2_lazy):
        region = box_region(srw2_lazy, 3)  # 7x7
        inv = np.linalg.inv(dense_generator(region))
        pairs = [((0, 0), (0, 0)), ((1, 2), (-1, 0)), ((3, 3), (3, 3))]
        for (x, y), val in zip(pairs, green_killed(region, pairs)[0]):
            ix, iy = region.site_index(x), region.site_index(y)
            assert abs(val - inv[ix, iy] / region.beta) <= 1e-10

    def test_domain_monotonicity(self, srw2):
        rng = np.random.default_rng(3)
        base = box_region(srw2, 3)
        sites = [tuple(s) for s in base.sites if tuple(s) != (0, 0)]
        picks = [sites[i] for i in rng.choice(len(sites), 6, replace=False)]
        values = []
        for k in range(len(picks) + 1):
            region = box_region(srw2, 3, pins=picks[:k])
            values.append(green_killed(region, [((0, 0), (0, 0))])[0][0])
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_lazification_invariance_on_probes(self, srw2, srw2_lazy):
        ra, rb = box_region(srw2, 2), box_region(srw2_lazy, 2)
        pairs = [((0, 0), (0, 0)), ((0, 0), (1, 1)), ((-2, 0), (2, 0))]
        for a, b in zip(green_killed(ra, pairs)[0], green_killed(rb, pairs)[0]):
            assert abs(a - b) <= 1e-10


class TestRegionMatrix:
    @pytest.mark.parametrize("name, lo, hi, pins", [
        ("srw1", (-6,), (6,), [(2,)]),
        ("srw2", (-3, -3), (3, 3), [(2, 2), (-3, 0)]),
        ("srw2_lazy", (-4, -4), (4, 4), [(0, 1)]),  # a zero step
        ("srw3", (-2, -2, -2), (2, 2, 2), [(0, 0, 1)]),
        ("knight", (0, 0), (1, 1), []),  # steps longer than the box
        ("aniso", (-2, -2), (1, 1), [(0, 0)]),
        ("srw2", (0, 0), (0, 39), []),
    ], ids=["srw1", "srw2-pins", "srw2-lazy", "srw3", "knight-2x2", "aniso",
            "strip-1x40"])
    def test_matches_dense_oracle(self, request, name, lo, hi, pins):
        region = Region(request.getfixturevalue(name), lo, hi, pins=pins)
        m = sparse_generator(region)
        assert m.has_sorted_indices
        assert (m.toarray() == dense_generator(region)).all()

    def test_zero_weight_steps_are_dropped(self, srw2):
        spec = [((1, 0), 1.0), ((-1, 0), 1.0), ((0, 1), 1.0), ((0, -1), 1.0),
                ((2, 0), 0.0), ((-2, 0), 0.0)]
        kernel = make_kernel(spec, 2)
        assert kernel.max_step == 1 and len(kernel.steps) == 4
        a = sparse_generator(box_region(kernel, 3))
        b = sparse_generator(box_region(srw2, 3))
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))


class TestPinnedVariance:
    """The audit reference, G0(i, i) - c^T K^{-1} c from fresh unit columns
    and a fresh Cholesky factor, against the dense inverse of the pinned
    system."""

    @pytest.mark.parametrize("name, radius", [
        ("srw2_lazy", 4), ("aniso", 4), ("knight", 4), ("srw3", 2)])
    def test_matches_dense_inverse(self, request, monkeypatch, name, radius):
        kernel = request.getfixturevalue(name)
        region = box_region(kernel, radius)
        n = region.n_alive
        mat = dense_generator(region)
        calls = _spy_columns(monkeypatch)
        # no pins: one column, of the audited site
        region.pinned_variance(np.zeros(n, dtype=bool), 0)
        assert calls == [[0]]
        rng = np.random.default_rng(7)
        for density in (0.1, 0.3, 0.6):
            pinned = rng.random(n) < density
            pins, free = np.flatnonzero(pinned), np.flatnonzero(~pinned)
            # audited sites both off and on the pin set
            for i in (*rng.choice(free, 3), *rng.choice(pins, 3)):
                keep = ~pinned
                keep[i] = True
                inv = np.linalg.inv(mat[keep][:, keep])
                pos = int(keep[:i].sum())
                ref = inv[pos, pos]
                del calls[:]
                region._pinned_variances.clear()
                got = region.pinned_variance(pinned, int(i))
                assert abs(got - ref) <= 1e-12 * ref
                # the columns of the other pins and of i, in one call
                assert calls == [sorted({*pins.tolist(), int(i)})]

    def test_columns_size_checked_before_allocation(self, srw2_lazy,
                                                    monkeypatch):
        # 49 sites in a bordered grid of 81 cells: one audit column, its
        # residual check and the 1 x 1 system need 8 * (49 + 3 * 81 + 1)
        region = box_region(srw2_lazy, 3)
        region._slab_factor()  # slabs of 35 and 14 sites: 11,368 bytes
        pinned = np.zeros(region.n_alive, dtype=bool)
        calls = _spy_columns(monkeypatch)
        need = 8 * (49 + 3 * 81 + 1)
        monkeypatch.setattr(green, "COLUMN_BYTES_CAP", need)
        region.pinned_variance(pinned, 0)
        monkeypatch.setattr(green, "COLUMN_BYTES_CAP", need - 1)
        with pytest.raises(ResourceError, match="cap"):
            region.pinned_variance(pinned, 1)
        assert calls == [[0]]

    def test_failed_factor_is_numerical_error(self, srw2_lazy, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("not positive definite")

        region = box_region(srw2_lazy, 2)
        monkeypatch.setattr(np.linalg, "cholesky", fail)
        pinned = np.zeros(region.n_alive, dtype=bool)
        pinned[[0, 7]] = True
        with pytest.raises(NumericalError, match="Cholesky"):
            region.pinned_variance(pinned, 3)
        assert not region._pinned_variances


def _green_box_origin(kernel, radius):
    """G_B(0, 0) on the centered box of the given radius."""
    origin = (0,) * kernel.d
    return green_killed(box_region(kernel, radius), [(origin, origin)])[0][0]


class TestGreenBoxOrigin:
    def test_singleton_box(self, srw2):
        assert math.isclose(_green_box_origin(srw2, 0), 1.0, abs_tol=1e-12)

    def test_monotone_in_radius(self, srw2):
        vals = [_green_box_origin(srw2, r) for r in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_log_increment(self, srw2):
        g16 = _green_box_origin(srw2, 16)
        g32 = _green_box_origin(srw2, 32)
        target = math.log(2.0) / (math.pi * srw2.sqrt_det_cov)
        assert abs((g32 - g16) - target) <= 0.05


class TestGreenOneObstacle:
    def test_schur_identity_for_pinned_box(self, srw2):
        x, radius = (4, 0), 16
        free = box_region(srw2, radius)
        pinned = box_region(srw2, radius, pins=[x])
        lhs = green_killed(pinned, [((0, 0), (0, 0))])[0][0]
        g00, g0x, gxx = green_killed(
            free, [((0, 0), (0, 0)), ((0, 0), x), (x, x)])[0]
        assert abs(lhs - (g00 - g0x**2 / gxx)) <= 1e-10


class TestGreenNStep:
    def test_zero_steps(self, srw2):
        assert green_nstep(srw2, 0)[0] == 1.0

    def test_log_increment_lazy(self, srw2_lazy):
        g512, _ = green_nstep(srw2_lazy, 512)
        g1024, _ = green_nstep(srw2_lazy, 1024)
        target = math.log(2.0) / (2.0 * math.pi * srw2_lazy.sqrt_det_cov)
        assert abs((g1024 - g512) - target) <= 0.05

    @pytest.mark.parametrize("name, n", [
        (name, n) for name in KERNELS for n in (0, 1, 2, 7, 16, 100, 400)
        if name != "srw3" or n <= 100])  # the d = 3 DP is slow beyond
    def test_matches_dp(self, request, name, n):
        kernel = request.getfixturevalue(name)
        exact = float(pmf_origin_series(kernel, n).sum())
        value, audit_rel_err = green_nstep(kernel, n)
        assert abs(value - exact) <= 1e-12 * exact
        assert 0.0 <= audit_rel_err <= 1e-12

    def test_torus_size_checked_before_allocation(self, srw2):
        # a 1.4e6^2 torus is 16 TB, far beyond memory
        with pytest.raises(ResourceError, match="too large"):
            green_nstep(srw2, 10**10)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_torus_radius_is_the_auto_radius(self, request, name):
        kernel = request.getfixturevalue(name)
        for n in (0, 1, 7, 100, 1000):
            radius = nstep_torus_radius(kernel, n)
            assert radius == _auto_radius(kernel, n)
            assert radius >= kernel.max_step

    def test_torus_radius_past_int64_is_resource_error(self, srw2):
        # n0 of a variance scan can pass 2**63; the cap check must see it
        with pytest.raises(ResourceError, match="too large"):
            nstep_torus_radius(srw2, 10**25)

    def test_audit_failure_is_numerical_error(self, srw2_lazy, monkeypatch):
        def off(kernel, n):
            return pmf_origin_series(kernel, n) * (1.0 + 1e-8)

        monkeypatch.setattr(green, "pmf_origin_series", off)
        with pytest.raises(NumericalError, match="audit"):
            green_nstep(srw2_lazy, 50)

    def test_lazification_identity(self, srw2, srw2_lazy):
        # G-lazy^n(0,0) = sum_k w_{n,k} p_k(0) with w the binomial thinning
        # weights; both sides exact
        n = 60
        p0 = pmf_origin_series(srw2, n)
        lazy, _ = green_nstep(srw2_lazy, n)
        total = 0.0
        for k in range(n + 1):
            t = 0.5**k  # C(k,k) 2^-k
            w = t
            for m in range(k + 1, n + 1):
                t *= 0.5 * m / (m - k)
                w += t
            total += w * p0[k]
        assert abs(lazy - total) <= 1e-12


class TestHittingProb:
    def test_in_target(self, srw2):
        region = box_region(srw2, 4)
        assert hitting_prob(region, [(1, 1)], (1, 1)) == 1.0

    def test_empty_target(self, srw2):
        region = box_region(srw2, 4)
        with pytest.raises(ValidationError):
            hitting_prob(region, [], (0, 0))

    def test_disconnected_target(self, srw2):
        # a pinned wall the walk cannot jump across separates x from target
        wall = [(1, y) for y in range(-4, 5)]
        region = Region(srw2, (-4, -4), (4, 4), pins=wall)
        h = hitting_prob(region, [(3, 0)], (0, 0))
        assert h == 0.0

    def test_probability_bounds_and_monotonicity(self, srw2):
        region = box_region(srw2, 8)
        h_near = hitting_prob(region, [(0, 0)], (1, 0))
        h_far = hitting_prob(region, [(0, 0)], (5, 5))
        assert 0.0 < h_far < h_near < 1.0

    def test_log_scaled_product_stable(self, srw2):
        products = []
        for radius in (64, 128):
            region = box_region(srw2, radius)
            h = hitting_prob(region, [(0, 0)], (16, 0))
            products.append(h * math.log(radius))
        assert all(p > 0.5 for p in products)
        assert min(products) / max(products) >= 0.5

    @pytest.mark.parametrize("radius, pins, target, x", [
        (3, [(1, 1), (-2, 0)], (1, 0), (2, -1)),  # 47 sites: dense solve
        (24, [], (3, -2), (10, -7)),  # 2401 sites: CG
    ])
    def test_last_exit_identity(self, srw2, radius, pins, target, x):
        # G(x, t) = P_x(T_t < inf) G(t, t): strong Markov property at T_t
        region = box_region(srw2, radius, pins=pins)
        h = hitting_prob(region, [target], x)
        g, _ = green_killed(region, [(x, target), (target, target)])
        ratio = g[0] / g[1]
        assert math.isclose(h, ratio, rel_tol=1e-12)
