import copy
import math

import numpy as np
import pytest

from gffpin import green, pinning
from gffpin.errors import NumericalError, ResourceError, ValidationError
from gffpin.green import Region, box_region, green_killed
from gffpin.pinning import (
    AUDIT_TOL,
    GibbsChain,
    check_lattice_condition,
    covariance,
    domination_densities,
    exact_pin_measure,
    recorded,
    sample_pins,
)
from gffpin.stats import REPLICAS
from gffpin.walk import make_kernel
from oracles import (
    batch_stderr,
    dense_generator,
    empty_probability,
    gibbs_pin_prob,
    marginal,
    pinned_chain_1d,
    sample_field,
    scalar_heat_bath,
    simple_random_walk,
    subset_green_table,
    within,
)

EPS = 0.5


def _pin(chain, i):
    """Pin site i of `chain` with its Green column from `Region.columns`."""
    chain._pin(i, chain.region.columns([i])[0][:, 0])


def _all_columns(region):
    """G0 of `region`, every unit column from one `Region.columns` call."""
    return region.columns(np.arange(region.n_alive))[0]


def _float_arrays(value):
    """Every float array in `value`, through dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _float_arrays(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _float_arrays(v)


@pytest.fixture(scope="module")
def box3(srw2_lazy):
    return box_region(srw2_lazy, 1)


@pytest.fixture(scope="module")
def table3(box3):
    return exact_pin_measure(box3, EPS)


@pytest.fixture(scope="module", params=["srw2_lazy", "aniso", "knight"])
def any_box3(request):
    """The 3x3 box under each kernel, with its exact pin measure."""
    region = box_region(request.getfixturevalue(request.param), 1)
    return region, exact_pin_measure(region, EPS)


class TestExactPinMeasure:
    def test_single_site_closed_form(self, srw2):
        region = Region(srw2, (0, 0), (0, 0))
        probs = exact_pin_measure(region, 1.0)
        expected = 1.0 / (1.0 + math.sqrt(2.0 * math.pi))
        assert math.isclose(probs[1], expected, rel_tol=1e-12)

    def test_probabilities_sum_to_one(self, table3):
        assert len(table3) == 512
        assert abs(table3.sum() - 1.0) <= 1e-10
        assert np.all(table3 > 0)

    def test_huge_eps_concentrates_on_full_pinning(self, box3):
        probs = exact_pin_measure(box3, 1e6)
        assert probs[-1] >= 0.99

    def test_lazification_invariance(self, srw2, srw2_lazy):
        ra = box_region(srw2, 1)
        rb = box_region(srw2_lazy, 1)
        ta = exact_pin_measure(ra, 0.7)
        tb = exact_pin_measure(rb, 0.7)
        assert np.abs(ta - tb).max() <= 1e-10

    def test_logsumexp_matches_scipy(self, box3, monkeypatch):
        from scipy.special import logsumexp

        seen, original = [], pinning._logsumexp

        def record(logw):
            seen.append(logw.copy())
            return original(logw)

        monkeypatch.setattr(pinning, "_logsumexp", record)
        for eps in (1e-3, EPS, 1e6):
            exact_pin_measure(box3, eps)
        assert len(seen) == 3
        for logw in seen:
            tied = logw.copy()
            tied[:3] = tied.max()  # a three-way tie at the maximum
            for w in (logw, tied, np.full(4, logw[0])):
                assert original(w) == float(logsumexp(w))

    def test_box_too_large(self, srw2):
        with pytest.raises(ResourceError):
            exact_pin_measure(box_region(srw2, 2), 0.5)

    def test_restricted_window(self, box3, table3):
        # nu conditioned on no pins off the origin has a one-site window;
        # it agrees with the Gibbs conditional at the empty environment
        i = box3.site_index((0, 0))
        p_empty, p_origin = table3[0], table3[1 << i]
        pr = gibbs_pin_prob(box3, [], (0, 0), EPS)
        assert math.isclose(p_origin / (p_empty + p_origin), pr, rel_tol=1e-10)


class TestSingleFlipBalance:
    def test_matches_exact_ratios(self, box3, table3):
        rng = np.random.default_rng(1)
        for _ in range(25):
            mask = int(rng.integers(0, 512))
            w = int(rng.integers(0, 9))
            if (mask >> w) & 1:
                continue
            ratio = table3[mask | (1 << w)] / table3[mask]
            pins = [tuple(box3.sites[i]) for i in range(9) if (mask >> i) & 1]
            pr = gibbs_pin_prob(box3, pins, tuple(box3.sites[w]), EPS)
            assert abs(ratio - pr / (1.0 - pr)) <= 1e-10

    def test_eps_zero(self, box3):
        assert gibbs_pin_prob(box3, [], (0, 0), 0.0) == 0.0

    def test_single_site_value(self, srw2):
        region = Region(srw2, (0, 0), (0, 0))
        pr = gibbs_pin_prob(region, [], (0, 0), 1.0)
        assert math.isclose(pr, 1.0 / (1.0 + math.sqrt(2.0 * math.pi)),
                            rel_tol=1e-12)

    def test_monotone_in_conditional_variance(self, box3):
        # pinning the neighbours shrinks the variance and raises the odds
        far = gibbs_pin_prob(box3, [], (0, 0), EPS)
        near = gibbs_pin_prob(box3, [(0, 1), (0, -1), (1, 0), (-1, 0)],
                              (0, 0), EPS)
        assert near > far

    def test_uniform_eps_bound(self, box3, table3):
        # strong-domination ceiling: conditional odds never exceed
        # eps * g at the minimal conditional variance
        g_max = math.sqrt(box3.beta * (1.0 - box3.kernel.p0) / (2.0 * math.pi))
        cap = EPS * g_max / (1.0 + EPS * g_max)
        for mask in range(0, 512, 7):
            for w in range(9):
                if (mask >> w) & 1:
                    continue
                num = table3[mask | (1 << w)]
                pr = num / (num + table3[mask])
                assert pr <= cap + 1e-12


class TestSampler:
    def test_deterministic(self, box3):
        a, _ = sample_pins(box3, EPS, 500, seed=11, burnin=250)
        b, _ = sample_pins(box3, EPS, 500, seed=11, burnin=250)
        assert np.array_equal(a, b)

    def test_huge_eps_pins_everything(self, box3):
        samples, _ = sample_pins(box3, 1e6, 100, seed=3, burnin=50)
        assert samples.mean() >= 0.99

    def test_marginals_match_exact_table(self, box3, table3):
        samples, _ = sample_pins(box3, EPS, 20000, seed=44, burnin=1000)
        emp = samples.mean(axis=0)
        for i in range(9):
            se = batch_stderr(samples[:, i])
            assert abs(emp[i] - marginal(table3, i)) <= 3.0 * se

    def test_corner_symmetry(self, box3):
        samples, _ = sample_pins(box3, EPS, 20000, seed=7, burnin=1000)
        corners = [box3.site_index(c) for c in
                   [(-1, -1), (-1, 1), (1, -1), (1, 1)]]
        freqs = samples[:, corners].mean(axis=0)
        ses = [batch_stderr(samples[:, c]) for c in corners]
        for f, s in zip(freqs, ses):
            assert abs(f - freqs.mean()) <= 3.0 * (s + max(ses))

    def test_subset_law_total_variation(self, any_box3):
        region, table = any_box3
        samples, _ = sample_pins(region, EPS, 60000, seed=2024, burnin=1000)
        codes = samples.astype(np.int64) @ (1 << np.arange(9, dtype=np.int64))
        emp = np.bincount(codes, minlength=512) / len(codes)
        tv = 0.5 * np.abs(emp - table).sum()
        assert tv <= 0.03  # acceptance run uses 1e5 sweeps and 0.02

    def test_incremental_matches_fresh_inverse(self, srw2_lazy):
        region = box_region(srw2_lazy, 2)
        chain = GibbsChain(region, 0.8, seed=9)
        mat = dense_generator(region)
        rng = np.random.default_rng(0)
        for _ in range(150):
            i = int(rng.integers(region.n_alive))
            if not chain.pinned[i] and (~chain.pinned).sum() > 1:
                _pin(chain, i)
            elif chain.pinned[i]:
                chain._unpin(i)
        keep = np.flatnonzero(~chain.pinned)
        true = np.linalg.inv(mat[np.ix_(keep, keep)])
        g = _all_columns(region)
        raw = [chain.raw_variance(i, g[:, i]) for i in keep]
        assert np.abs(raw - np.diag(true)).max() <= 1e-9
        cov = np.array([[chain.covariance(i, j, g[:, i], g[:, j])
                         for j in keep] for i in keep])
        assert np.abs(cov * region.beta - true).max() <= 1e-9
        pins = np.flatnonzero(chain.pinned)
        assert len(pins) >= 3
        for a in pins:
            back = np.append(keep, a)
            fresh = np.linalg.inv(mat[np.ix_(back, back)])[-1, -1]
            assert abs(chain.raw_variance(a, g[:, a]) - fresh) <= 1e-9


class TestLowRankChain:
    @pytest.mark.parametrize("name, radius, eps, seed", [
        ("srw2_lazy", 2, 0.5, 1), ("srw2_lazy", 3, 0.3, 2),
        ("srw2_lazy", 4, 0.1, 3), ("srw2_lazy", 2, 3.0, 4),
        ("srw3", 2, 0.5, 5), ("knight", 3, 0.5, 6),
        # most uniforms are above p_hi = 0.107, so most visits are skipped
        ("srw2_lazy", 6, 0.3, 7)])
    def test_sweep_matches_scalar_oracle(self, request, name, radius, eps,
                                         seed):
        region = box_region(request.getfixturevalue(name), radius)
        rows, _ = sample_pins(region, eps, 8, seed, burnin=0)
        assert np.array_equal(rows, scalar_heat_bath(region, eps, 8, seed, 0))
        if eps == 3.0:  # the last site of a sweep flips
            assert np.any(np.diff(np.r_[0, rows[:, -1]]) != 0)

    @pytest.mark.parametrize("name, radius", [
        ("srw2_lazy", 3), ("srw3", 1), ("knight", 3)])
    def test_odds_bounded_by_p_hi(self, request, name, radius):
        # with alternate sites pinned each free site has all its
        # neighbours pinned (every move of these kernels changes the parity
        # of the coordinate sum, and the box sides are odd): the odds there
        # meet the bound the thinned sweep relies on, to within the rounding
        # its 1e-9 margin covers (one ulp here)
        region = box_region(request.getfixturevalue(name), radius)
        chain = GibbsChain(region, 0.3, seed=1)
        for i in range(0, region.n_alive, 2):
            _pin(chain, i)
        g = _all_columns(region)
        odds = np.array([pinning._odds(chain.eps, chain.beta,
                                       chain.raw_variance(i, g[:, i]))
                         for i in range(region.n_alive)])
        assert np.all(odds <= chain.p_hi * (1.0 + 1e-9))
        assert np.all(odds[1::2] >= chain.p_hi * (1.0 - 1e-9))
        origin = (0,) * region.kernel.d
        assert chain.p_hi == domination_densities(region, 0.3, [origin])[1]

    def test_sweep_computes_odds_only_below_p_hi(self, srw2_lazy,
                                                 monkeypatch):
        region = box_region(srw2_lazy, 6)
        n = region.n_alive
        chain = GibbsChain(region, 0.3, seed=7)
        seen, raw = [], GibbsChain.raw_variance
        monkeypatch.setattr(
            GibbsChain, "raw_variance",
            lambda ch, i, g0: seen.append(int(i)) or raw(ch, i, g0))
        audit_sites = {t - 1 for t in (1, 13, 137)}  # the first sweep's
        skipped = 0  # pins whose uniform is not below p_hi
        for sweep in range(4):
            u = copy.deepcopy(chain.rng).random(n)
            low = set(np.flatnonzero(u < chain.p_hi * (1.0 + 1e-9)).tolist())
            skipped += len(set(np.flatnonzero(chain.pinned).tolist()) - low
                           - audit_sites)
            seen.clear()
            chain.sweep()
            assert low <= set(seen) <= low | audit_sites
            assert len(seen) < n // 4
            audit_sites = set()
        assert skipped

    def test_audits_fire_at_fixed_visits(self, srw2_lazy, monkeypatch):
        region = box_region(srw2_lazy, 10)
        n = region.n_alive
        seen = []
        fresh = Region.pinned_variance

        def record(region, pinned, i):
            seen.append(sweep * n + i + 1)
            return fresh(region, pinned, i)

        monkeypatch.setattr(Region, "pinned_variance", record)
        chain = GibbsChain(region, 0.3, seed=5)
        for sweep in range(4):
            chain.sweep()
        assert seen == [1, 13, 137, 1371]
        assert 0.0 < chain.audit_max_rel_err <= AUDIT_TOL

    def test_audit_references_shared_on_region(self, srw2_lazy, monkeypatch):
        # chains on one Region audit at the same visits (1 and 13 in a sweep
        # of 49 sites); a state seen before is not solved again, and every
        # audit error is the one the chain gets on a Region of its own
        solves = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: solves.append(1) or cholesky(a))

        def audit_errors(regions):
            out = []
            for replica, region in enumerate(regions):
                chain = GibbsChain(region, 0.3, seed=5, replica=replica)
                chain.sweep()
                out.append(chain.audit_max_rel_err)
            return out

        shared = audit_errors([box_region(srw2_lazy, 3)] * 3)
        # 3 chains x 2 audits, and every chain's visit-1 audit sees the
        # empty pin set
        assert 1 <= len(solves) <= 4
        assert shared == audit_errors([box_region(srw2_lazy, 3)
                                       for _ in range(3)])

    def test_drift_fails_the_audit(self, srw2_lazy):
        # the first sweep audits site 0 at visit 1; it is pinned, so the
        # chain reads its variance as 1 / K^{-1}[a, a] from a K^{-1} that
        # has drifted 5% from G0[A, A]^{-1}
        region = box_region(srw2_lazy, 3)
        chain = GibbsChain(region, 0.3, seed=5)
        for i in (0, 10, 24):
            _pin(chain, i)
        chain.kinv *= 1.05
        with pytest.raises(NumericalError, match="audit failed at site 0"):
            chain.sweep()

    def test_nan_reference_fails_the_audit(self, srw2_lazy, monkeypatch):
        # a NaN relative error is no pass, and is not kept as the maximum
        region = box_region(srw2_lazy, 3)
        monkeypatch.setattr(region, "pinned_variance",
                            lambda pinned, i: math.nan)
        chain = GibbsChain(region, 0.3, seed=5)
        with pytest.raises(NumericalError, match="audit failed"):
            for _ in range(3):
                chain.sweep()
        assert chain.audit_max_rel_err == 0.0

    def test_nan_flip_is_numerical_error(self, srw2_lazy):
        region = box_region(srw2_lazy, 3)
        with pytest.raises(NumericalError, match="positive definiteness"):
            GibbsChain(region, 0.3, seed=5)._pin(
                0, np.full(region.n_alive, math.nan))
        chain = GibbsChain(region, 0.3, seed=5)
        _pin(chain, 1)
        chain.kinv[chain.slot[1], chain.slot[1]] = math.nan
        with pytest.raises(NumericalError, match="positive definiteness"):
            chain._unpin(1)

    def test_refused_pin_takes_no_slot(self, srw2_lazy):
        # a pin refused on a NaN column leaves the chain as it was: the next
        # pin takes slot 0 and reads no NaN
        region = box_region(srw2_lazy, 3)
        chain = GibbsChain(region, 0.3, seed=5)
        with pytest.raises(NumericalError, match="positive definiteness"):
            chain._pin(0, np.full(region.n_alive, math.nan))
        _pin(chain, 1)
        assert chain.k == 1 and chain.free == [] and chain.slot[1] == 0
        assert np.flatnonzero(chain.pinned).tolist() == [1]
        assert chain.at[0] == 1 and np.isfinite(chain.kinv).all()

    def test_non_positive_variance_is_numerical_error(self, srw2_lazy):
        # a zero Green column gives G0(i, i) = 0 and c = 0
        region = box_region(srw2_lazy, 3)
        chain = GibbsChain(region, 0.3, seed=5)
        _pin(chain, 10)
        for i in (0, 24):
            with pytest.raises(NumericalError, match="not positive"):
                chain.raw_variance(i, np.zeros(region.n_alive))

    def test_kinv_cap(self, srw2_lazy, monkeypatch):
        # the ninth pin doubles K^{-1} and the slot sites to 16 slots,
        # 8 * 16 * 17 bytes, refused one byte under that before they are
        # allocated; no n-length column is sized
        region = box_region(srw2_lazy, 3)
        chain = GibbsChain(region, 0.3, seed=5)
        for i in range(8):
            _pin(chain, i)
        g = region.columns([8])[0][:, 0]
        monkeypatch.setattr(green, "COLUMN_BYTES_CAP", 8 * 16 * 17 - 1)
        with pytest.raises(ResourceError, match="K\\^-1 of 9 pins need 2176"):
            chain._pin(8, g)
        assert chain.kinv.shape == (8, 8) and chain.at.shape == (8,)
        assert chain.pinned.sum() == 8 and chain.k == 8
        monkeypatch.setattr(green, "COLUMN_BYTES_CAP", 8 * 16 * 17)
        chain._pin(8, g)
        assert chain.kinv.shape == (16, 16) and chain.at.shape == (16,)
        assert chain.pinned.sum() == 9 and chain.k == 9

    @staticmethod
    def _spy_columns(monkeypatch):
        """The shape of each `Region.columns` result outside a chain
        audit."""
        shapes, audits = [], []
        columns, audit = Region.columns, GibbsChain._audit

        def spy(region, sites):
            g = columns(region, sites)
            if not audits:
                shapes.append(g[0].shape)
            return g

        def audited(chain, i, g0):
            audits.append(i)
            try:
                return audit(chain, i, g0)
            finally:
                audits.pop()

        monkeypatch.setattr(Region, "columns", spy)
        monkeypatch.setattr(GibbsChain, "_audit", audited)
        return shapes

    def test_sweep_batch_cap(self, srw2_lazy, monkeypatch):
        # the sweep's one batch of columns, with the bordered grid, residual
        # and temporary of its residual check (81 cells each), is checked
        # against the cap before it is allocated; it holds the sites below
        # p_hi and the first sweep's audited sites, 0 and 12
        region = box_region(srw2_lazy, 3)
        n = region.n_alive
        chain = GibbsChain(region, 0.3, seed=5)
        u = copy.deepcopy(chain.rng).random(n)
        low = u < chain.p_hi * (1.0 + 1e-9)
        m = int(low.sum()) + int(not low[0]) + int(not low[12])
        assert low.any() and m > low.sum()
        need = 8 * m * (n + 3 * 81)
        shapes = self._spy_columns(monkeypatch)
        monkeypatch.setattr(green, "COLUMN_BYTES_CAP", need - 1)
        with pytest.raises(ResourceError,
                           match=f"{m} Green columns of {n} sites need {need} "
                                 "bytes, above the .*cap"):
            chain.sweep()
        assert shapes == [] and not chain.pinned.any()
        monkeypatch.setattr(green, "COLUMN_BYTES_CAP", need)
        GibbsChain(region, 0.3, seed=5).sweep()
        assert shapes == [(n, m)]

    def test_sweep_solves_once(self, srw2_lazy, monkeypatch):
        region = box_region(srw2_lazy, 6)
        chain = GibbsChain(region, 0.3, seed=7)
        shapes = self._spy_columns(monkeypatch)
        for _ in range(6):
            before = len(shapes)
            chain.sweep()
            assert len(shapes) - before == 1
        assert chain.pinned.any()

    def test_covariance_columns_solved_once(self, srw2_lazy, monkeypatch):
        # `pinning.covariance` solves the observable's two columns in one
        # call, outside every sweep, and each replica reads those columns
        region = box_region(srw2_lazy, 3)
        inv = np.linalg.inv(dense_generator(region))
        i, j = region.site_index((0, 0)), region.site_index((1, 2))
        sweeping, outside, reads = [], [], []
        columns, sweep, read = (Region.columns, GibbsChain.sweep,
                                GibbsChain.covariance)

        def spy(region, sites):
            if not sweeping:
                outside.append(list(sites))
            return columns(region, sites)

        def swept(chain):
            sweeping.append(chain)
            try:
                return sweep(chain)
            finally:
                sweeping.pop()

        monkeypatch.setattr(Region, "columns", spy)
        monkeypatch.setattr(GibbsChain, "sweep", swept)
        monkeypatch.setattr(
            GibbsChain, "covariance",
            lambda ch, a, b, ga, gb: reads.append((ch, ga, gb))
            or read(ch, a, b, ga, gb))
        covariance(region, 0.3, (0, 0), (1, 2), samples=6, seed=1,
                   replicas=3)
        assert outside == [[i, j]]
        assert len(reads) == 6 and len({id(ch) for ch, _, _ in reads}) == 3
        gi, gj = reads[0][1:]
        assert all(ga is gi and gb is gj for _, ga, gb in reads)
        assert np.abs(gi - inv[:, i]).max() <= 1e-12 * inv[i, i]
        assert np.abs(gj - inv[:, j]).max() <= 1e-12 * inv[j, j]

    def test_region_keeps_no_green_column(self, srw2_lazy):
        # chains and their observable leave no Green column on the Region:
        # only its slab factor and the audit references, as floats
        region = box_region(srw2_lazy, 3)
        n = region.n_alive
        covariance(region, 0.3, (0, 0), (1, 2), samples=6, seed=1,
                   replicas=2)
        assert region._pinned_variances
        assert all(type(v) is float for v in region._pinned_variances.values())
        held = [a.shape for a in _float_arrays(vars(region))]
        assert held and not [s for s in held if s[0] == n]

    def test_chain_keeps_no_green_column(self, srw2_lazy):
        # after sweeps that pin sites, the chain holds K^{-1} and the site
        # of each slot, and no float array with a row per site
        region = box_region(srw2_lazy, 6)
        n = region.n_alive
        chain = GibbsChain(region, 0.3, seed=7)
        for _ in range(6):
            chain.sweep()
            state = {k: v for k, v in vars(chain).items() if k != "region"}
            held = [a.shape for a in _float_arrays(state)]
            assert held and not [s for s in held if s[0] == n]
        assert chain.pinned.any()
        pins = np.flatnonzero(chain.pinned)
        assert sorted(chain.at[chain.slot[pins]]) == pins.tolist()


class TestFieldSampling:
    def test_all_pinned_is_zero(self, box3):
        field = sample_field(box3, np.ones(9, dtype=bool), seed=1)
        assert np.all(field == 0.0)

    def test_singleton_variance(self, srw2):
        region = Region(srw2, (0, 0), (0, 0))
        draws = np.array([sample_field(region, [], seed=(4, i))[0, 0]
                          for i in range(4000)])
        se = draws.std(ddof=1) ** 2 * math.sqrt(2.0 / (len(draws) - 1))
        assert abs(draws.var(ddof=1) - 1.0) <= 3.0 * se

    def test_covariance_matches_green(self, srw2_lazy):
        region = box_region(srw2_lazy, 2)
        pins = [(0, 0)]
        n = 6000
        a, b = (1, 1), (-1, 0)
        va = np.empty(n)
        vb = np.empty(n)
        for i in range(n):
            f = sample_field(region, pins, seed=(8, i))
            va[i] = f[tuple(np.array(a) - region.lo)]
            vb[i] = f[tuple(np.array(b) - region.lo)]
        pinned = box_region(srw2_lazy, 2, pins=pins)
        target = green_killed(pinned, [(a, b)])[0][0]
        cov = np.cov(va, vb)[0, 1]
        se = math.sqrt((np.var(va) * np.var(vb) + cov**2) / n)
        assert abs(cov - target) <= 3.0 * se


class TestLatticeCondition:
    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 10.0])
    def test_2x2_box(self, srw2_lazy, eps):
        region = Region(srw2_lazy, (0, 0), (1, 1))
        res = check_lattice_condition(region, eps)
        assert res.min_ratio >= 1.0 - 1e-10

    def test_3x3_grid(self, box3):
        for eps in (0.1, 1.0, 10.0):
            res = check_lattice_condition(box3, eps)
            assert res.min_ratio >= 1.0 - 1e-10
            assert res.pairs_checked == 512 * 512

    def test_comparable_pairs_exact_unity(self, box3):
        # A subset of B gives ratio exactly 1; the minimum over all pairs is
        # therefore never above 1
        res = check_lattice_condition(box3, 0.5)
        assert res.min_ratio <= 1.0 + 1e-12

    def test_too_large_box(self, srw2_lazy):
        with pytest.raises(ResourceError):
            check_lattice_condition(box_region(srw2_lazy, 2), 0.5)


class TestEmptyProbability:
    # the Monte Carlo side is `domination-check`'s, tested in test_cli.py
    def test_bernoulli_curves_bracket_exact(self, any_box3):
        region, table = any_box3
        for sites in ([(0, 0)], [(0, 0), (1, 0)], [(-1, -1), (1, 1)]):
            idx = [region.site_index(s) for s in sites]
            exact = empty_probability(table, idx)
            p_lo, p_hi = domination_densities(region, EPS, sites)
            b = len(sites)
            assert (1.0 - p_hi) ** b - 1e-12 <= exact <= (1.0 - p_lo) ** b + 1e-12
            assert 0.0 < p_lo <= p_hi < 1.0

    @pytest.mark.parametrize("name, lo, hi, sites", [
        ("srw2_lazy", (-1, -1), (1, 1), [(0, 0), (1, 1)]),
        ("aniso", (-2, -1), (1, 1), [(1, 0), (-2, 1)]),
        ("knight", (-1, -1), (2, 1), [(2, -1), (0, 1)]),
        ("srw3", (0, 0, 0), (1, 1, 2), [(1, 0, 2), (0, 1, 1)]),
    ], ids=["srw2-lazy", "aniso", "knight", "srw3"])
    def test_sandwich_constants_across_eps(self, request, name, lo, hi,
                                           sites):
        # implied per-site density sits between the fitted extremes for the
        # whole grid: the functional sandwich, constants fitted not asserted;
        # p_lo is the odds at the largest G0(j, j) over the off-centre
        # targets, from the dense inverse
        region = Region(request.getfixturevalue(name), lo, hi)
        idx = [region.site_index(s) for s in sites]
        top = np.diag(np.linalg.inv(dense_generator(region)))[idx].max()
        for eps in (0.1, 0.3):
            exact = empty_probability(exact_pin_measure(region, eps), idx)
            p_lo, p_hi = domination_densities(region, eps, sites)
            assert (1.0 - p_hi) ** 2 - 1e-12 <= exact <= (1.0 - p_lo) ** 2 + 1e-12
            assert 0.0 < p_lo <= p_hi
            ref = pinning._odds(eps, region.beta, top)
            assert abs(p_lo - ref) <= 1e-12 * ref


class TestRaoBlackwellEstimators:
    def test_single_site_closed_form(self, srw2):
        region = Region(srw2, (0, 0), (0, 0))
        est, _ = covariance(region, 1.0, (0, 0), (0, 0), samples=4000, seed=5,
                            replicas=REPLICAS)
        expected = math.sqrt(2 * math.pi) / (1.0 + math.sqrt(2 * math.pi))
        assert within(est, expected, k=3.0)

    def test_exact_mixture_value(self, box3, table3):
        # oracle: sum over subsets of nu(A) G_{A^c}(0,0)
        gvals = subset_green_table(box3, [((0, 0), (0, 0))])
        exact = float(table3 @ gvals[:, 0])
        est, _ = covariance(box3, EPS, (0, 0), (0, 0), samples=6000, seed=31,
                            replicas=6)
        assert within(est, exact, k=3.0)

    def test_consistent_with_field_sampler(self, box3):
        est, _ = covariance(box3, EPS, (0, 0), (0, 0), samples=3000, seed=3,
                            replicas=REPLICAS)
        n = 4000
        vals = np.empty(n)
        for i in range(n):
            samples, _ = sample_pins(box3, EPS, 30, seed=(77, i), burnin=15)
            # the pin set after the last sweep
            f = sample_field(box3, samples[-1], seed=(78, i))
            vals[i] = f[1, 1] ** 2
        naive = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(est.mean - naive) <= 3.0 * (se + est.stderr)


class TestOneDimensionalOracle:
    """In d = 1 the pinned set is a renewal process, so the chain has exact
    answers at critical sizes, far above the enumeration boxes."""

    def test_two_point_function_at_zero_is_variance(self):
        exact = pinned_chain_1d(simple_random_walk(1), 0.7)
        assert math.isclose(exact.covariance(0), exact.variance,
                            rel_tol=1e-12)

    def test_refuses_longer_steps(self):
        with pytest.raises(ValidationError):
            pinned_chain_1d(make_kernel([((1,), 1.0), ((2,), 1.0)], 1), 0.7)

    def test_chain_matches_closed_forms(self):
        # box R = 15/lam, so boundary effects are below e^-7 in the interior
        # half; replicas start from one seed fixed before the first run
        kernel, eps, replicas, per = simple_random_walk(1), 0.7, 8, 50
        exact = pinned_chain_1d(kernel, eps)
        radius = math.ceil(15.0 / exact.lam)
        assert radius == 203
        region = box_region(kernel, radius)
        origin = region.site_index((0,))
        probes = [region.site_index((r,)) for r in (0, 5, 10, 20)]
        g, _ = region.columns(probes)
        interior = np.abs(region.sites[:, 0]) <= radius // 2
        means = []
        for rep in range(replicas):
            acc = np.zeros(5)
            for chain in recorded(GibbsChain(region, eps, seed=1, replica=rep),
                                  per, per):
                acc += [chain.pinned[interior].mean()] + [
                    chain.covariance(origin, j, g[:, 0], g[:, t])
                    for t, j in enumerate(probes)]
            means.append(acc / per)
        means = np.array(means)
        est = means.mean(axis=0)
        err = means.std(axis=0, ddof=1) / math.sqrt(replicas)
        want = [exact.density, exact.variance] + [
            exact.covariance(r) for r in (5, 10, 20)]
        assert np.all(np.abs(est - want) <= 4.0 * err), (est, want, err)
