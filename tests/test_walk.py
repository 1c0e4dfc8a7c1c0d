import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gffpin.errors import NumericalError, ValidationError
from gffpin.walk import (
    _dp_run,
    kernel_from_file,
    make_kernel,
    pmf_origin_series,
    pmf_series,
)

from oracles import (
    exact_bridge_range_mean,
    exact_first_returns,
    exact_pmf,
    first_return_pmf,
    rate_function,
    saddle_pmf_approx,
    tied_down_range_mean,
    write_kernel_file,
)

SRW_SPEC = [((1, 0), 1.0), ((-1, 0), 1.0), ((0, 1), 1.0), ((0, -1), 1.0)]


class TestMakeKernel:
    def test_srw_covariance(self):
        k = make_kernel(SRW_SPEC, 2)
        assert np.allclose(k.cov, np.diag([0.5, 0.5]))
        assert math.isclose(np.linalg.det(k.cov), 0.25)
        assert not k.lazy and k.beta_eff == 1.0

    def test_lazified_srw(self):
        k = make_kernel(SRW_SPEC, 2, lazify=True)
        assert math.isclose(k.p0, 0.5)
        off = {v: p for v, p in k.support() if any(v)}
        assert all(math.isclose(p, 0.125) for p in off.values())
        assert np.allclose(k.cov, np.diag([0.25, 0.25]))
        assert k.beta_eff == 2.0
        assert k.aperiodic

    def test_single_point_support_rejected(self):
        with pytest.raises(ValidationError):
            make_kernel([((0, 0), 1.0)], 2)

    def test_sublattice_support_rejected(self):
        # steps of +-2 generate 2Z, not Z
        with pytest.raises(ValidationError):
            make_kernel([((2,), 1.0), ((-2,), 1.0)], 1)

    def test_asymmetric_support_needs_flag(self):
        spec = [((1, 0), 2.0), ((-1, 0), 1.0), ((0, 1), 1.0), ((0, -1), 1.0)]
        with pytest.raises(ValidationError, match="not symmetric"):
            make_kernel(spec, 2)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValidationError):
            make_kernel([((1, 0), 0.0), ((-1, 0), 0.0)], 2)

    def test_periodicity_detection(self):
        assert not make_kernel(SRW_SPEC, 2).aperiodic
        assert make_kernel(SRW_SPEC, 2, lazify=True).aperiodic
        # diagonal+axis steps make odd loops possible
        spec = SRW_SPEC + [((1, 1), 1.0), ((-1, -1), 1.0)]
        assert make_kernel(spec, 2).aperiodic

    @given(st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                  st.floats(0.1, 3.0)),
        min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_symmetrized_kernels_are_normalized(self, raw):
        spec = [((a, b), w) for a, b, w in raw]
        spec.append(((1, 0), 1.0))
        spec.append(((0, 1), 1.0))
        # close the support under negation, half the weight on each side
        spec = [(tuple(sign * c for c in v), w / 2.0)
                for v, w in spec for sign in (1, -1)]
        k = make_kernel(spec, 2)
        assert math.isclose(float(k.probs.sum()), 1.0, abs_tol=1e-12)
        assert np.allclose(k.cov, k.cov.T)
        # negation symmetry of the stored support
        sup = dict(k.support())
        for v, p in sup.items():
            assert math.isclose(sup[tuple(-c for c in v)], p, rel_tol=1e-12)

    def test_kernel_file_roundtrip(self, tmp_path):
        path = tmp_path / "k.kernel"
        write_kernel_file(path, SRW_SPEC, 2, lazify=True, beta=1.5)
        k = kernel_from_file(path)
        assert k.lazy and math.isclose(k.beta_eff, 3.0)
        assert math.isclose(k.p0, 0.5)


    @pytest.mark.parametrize("name", ["srw2", "srw2_lazy", "aniso",
                                      "knight"])
    def test_scalars_cached_on_frozen_kernel(self, request, name):
        # p0 and max_step are computed on first read and kept; the kernel
        # stays frozen
        k = request.getfixturevalue(name)
        p0 = float(k.probs[np.all(k.steps == 0, axis=1)].sum())
        assert (k.p0, k.max_step) == (p0, int(np.abs(k.steps).max()))
        assert vars(k)["p0"] == p0 and k.p0 is vars(k)["p0"]
        assert vars(k)["max_step"] == k.max_step
        for field in ("d", "p0"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(k, field, 0)


class TestStepPmf:
    def test_zero_steps(self, srw2):
        series = pmf_series(srw2, 0, points=[(0, 0), (1, 0)])
        assert series[(0, 0)][0] == 1.0
        assert series[(1, 0)][0] == 0.0

    def test_two_steps_origin(self, srw2):
        assert math.isclose(pmf_series(srw2, 2, points=[(0, 0)])[(0, 0)][2],
                            0.25)

    def test_matches_enumeration(self, srw2):
        exact = exact_pmf(srw2, 4)
        series = pmf_series(srw2, 4, points=list(exact))
        for site, p in exact.items():
            assert math.isclose(series[site][4], p, abs_tol=1e-14)

    def test_local_clt_normalization(self, srw2_lazy):
        # aperiodic local limit: p_n(0) ~ (2 pi n sqrt(det Q))^-1
        p0 = pmf_series(srw2_lazy, 200, points=[(0, 0)])[(0, 0)][200]
        val = p0 * 2.0 * np.pi * srw2_lazy.sqrt_det_cov * 200
        assert abs(val - 1.0) <= 0.05

    def test_window_too_small_reports_mass(self, srw2):
        # the DP kills mass at the window edge and reports what it kept;
        # pmf_series grows the window until that is all but 1e-12
        mass, _ = _dp_run(srw2, 10, 2)
        assert 0.0 < mass < 1.0 - 1e-12
        full, _ = _dp_run(srw2, 10, 10)
        assert math.isclose(full, 1.0, abs_tol=1e-12)

    def test_chapman_kolmogorov(self, srw2_lazy):
        # p_{m+n}(0) = sum_y p_m(y) p_n(-y), y over every site in reach
        for m, n in [(3, 5), (7, 9), (10, 10)]:
            r = min(m, n)
            ys = list(itertools.product(range(-r, r + 1), repeat=2))
            series = pmf_series(srw2_lazy, m + n, points=ys)
            conv = sum(series[y][m] * series[(-y[0], -y[1])][n] for y in ys)
            assert abs(conv - series[(0, 0)][m + n]) <= 1e-12


class TestFirstReturns:
    def test_srw_small_orders(self, srw2):
        q = first_return_pmf(srw2, 6)
        assert q[1] == 0.0
        assert math.isclose(q[2], 0.25, abs_tol=1e-15)
        exact = exact_first_returns(srw2, 6)
        assert np.abs(q - exact).max() <= 1e-12

    def test_lazy_first_step(self, srw2_lazy):
        q = first_return_pmf(srw2_lazy, 3)
        assert math.isclose(q[1], 0.5, abs_tol=1e-15)

    def test_renewal_identity_to_n200(self, srw2_lazy):
        n = 200
        p0 = pmf_origin_series(srw2_lazy, n)
        q = first_return_pmf(srw2_lazy, n, origin_series=p0)
        for m in range(1, n + 1):
            lhs = float(np.dot(q[1:m + 1], p0[m - 1::-1]))
            assert abs(lhs - p0[m]) <= 1e-12
        assert q[1:].sum() <= 1.0

    def test_taboo_trend_diagnostic(self, srw2_lazy):
        # q_l * l * (log l)^2 should drift upward toward its constant;
        # checked as a coarse monotone trend over dyadic l
        q = first_return_pmf(srw2_lazy, 1024)
        ls = np.array([64, 256, 1024])
        vals = q[ls] * ls * np.log(ls) ** 2
        assert np.all(vals > 0)
        assert vals[2] > vals[0]


class TestRateFunction:
    def test_zero_velocity(self, srw2):
        rf = rate_function(srw2, (0.0, 0.0))
        assert rf.rate == 0.0
        assert np.allclose(rf.tilt, 0.0)
        assert np.allclose(rf.tilted_cov, srw2.cov)

    def test_small_velocity_quadratic(self, srw2):
        for xi in [(0.05, 0.0), (0.03, 0.04)]:
            rf = rate_function(srw2, xi)
            quad = 0.5 * np.asarray(xi) @ np.linalg.solve(srw2.cov, xi)
            assert abs(rf.rate - quad) <= 0.15 * quad

    def test_boundary_velocity(self, srw2):
        # the hull corner has finite rate -log p(e1) = log 4; the solver may
        # reach it with a huge tilt or report divergence
        try:
            rf = rate_function(srw2, (1.0, 0.0))
        except NumericalError:
            return
        assert rf.rate >= 0.9 * math.log(4.0)
        assert np.linalg.norm(rf.tilt) > 10.0

    def test_outside_hull_fails(self, srw2):
        with pytest.raises(NumericalError):
            rate_function(srw2, (1.5, 0.0))

    def test_near_boundary_flag_or_converge(self, srw2):
        # either outcome is acceptable this close to the maximum speed
        try:
            rf = rate_function(srw2, (0.99, 0.0))
        except NumericalError:
            return
        assert rf.rate > 0.0
        assert np.linalg.norm(rf.tilt) > 3.0

    def test_symmetry_and_convexity_on_ray(self, srw2_lazy):
        xs = np.linspace(0.02, 0.4, 12)
        rates = [rate_function(srw2_lazy, (x, 0.0)).rate for x in xs]
        second = np.diff(rates, 2)
        assert np.all(second >= -1e-8)
        plus = rate_function(srw2_lazy, (0.2, 0.1)).rate
        minus = rate_function(srw2_lazy, (-0.2, -0.1)).rate
        assert math.isclose(plus, minus, rel_tol=1e-9)


class TestSaddlePmf:
    def test_origin_specialization(self, srw2_lazy):
        n = 400
        val = saddle_pmf_approx(srw2_lazy, n, (0, 0))
        ref = 1.0 / (2.0 * np.pi * n * srw2_lazy.sqrt_det_cov)
        assert math.isclose(val, ref, rel_tol=1e-9)

    def test_against_exact_dp(self, srw2_lazy):
        n, x = 100, (10, 0)
        approx = saddle_pmf_approx(srw2_lazy, n, x)
        exact = pmf_series(srw2_lazy, n, points=[x])[x][n]
        assert abs(approx - exact) <= 0.10 * exact

    def test_outside_domain(self, srw2_lazy):
        with pytest.raises(NumericalError):
            saddle_pmf_approx(srw2_lazy, 10, (20, 0))

    def test_periodic_kernel_refused(self, srw2):
        with pytest.raises(ValidationError):
            saddle_pmf_approx(srw2, 10, (2, 0))


class TestTiedDownRange:
    def test_bridge_two_steps(self, srw2):
        assert math.isclose(tied_down_range_mean(srw2, 2, (0, 0)), 2.0,
                            abs_tol=1e-12)

    def test_empty_walk(self, srw2):
        assert tied_down_range_mean(srw2, 0, (0, 0)) == 1.0

    def test_unreachable_endpoint(self, srw2):
        with pytest.raises(ValidationError):
            tied_down_range_mean(srw2, 2, (1, 0))  # parity mismatch

    def test_matches_bridge_enumeration(self, srw2):
        for n in range(2, 7):
            for x in [(0, 0), (2, 0), (1, 1), (n % 2, (n + 1) % 2 + 1)]:
                oracle = exact_bridge_range_mean(srw2, n, x)
                if oracle is None:
                    continue
                val = tied_down_range_mean(srw2, n, x)
                assert abs(val - oracle) <= 1e-12

    @given(st.sampled_from([1, 2]), st.integers(2, 6))
    @settings(max_examples=12, deadline=None)
    def test_matches_enumeration_on_small_kernels(self, style, n):
        if style == 1:
            spec = [((1,), 1.0), ((-1,), 1.0), ((2,), 0.5), ((-2,), 0.5)]
            k = make_kernel(spec, 1)
            x = (n % 2,)
        else:
            # the axis steps make the diagonal support generate Z^2
            spec = [((1, 1), 1.0), ((-1, -1), 1.0), ((1, -1), 1.0),
                    ((-1, 1), 1.0), ((1, 0), 1.0), ((-1, 0), 1.0),
                    ((0, 0), 1.0)]
            k = make_kernel(spec, 2)
            x = (0, 0)
        oracle = exact_bridge_range_mean(k, n, x)
        if oracle is None:
            return
        assert abs(tied_down_range_mean(k, n, x) - oracle) <= 1e-12
