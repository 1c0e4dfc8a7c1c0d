import math

import numpy as np
import pytest
from oracles import direct_renewal_sums, f_pmf, numpy_polylogs

from gffpin import renewal1d
from gffpin.errors import NumericalError, ValidationError
from gffpin.renewal1d import (
    LAM_SERIES,
    RenewalModel,
    SERIES_TERMS,
    _GAMMA,
    _S,
    _ZETA_HALF_INTEGERS,
    _ZETA_TABLE,
    _normalizer,
    _polylogs,
    renewal_mean,
    renewal_model,
    solve_lambda,
    variance_1d,
)

GRID = (1.0, 0.3, 0.1, 0.03, 0.01)
ZETA_HALF = -1.4603545088095868  # zeta(1/2)


class TestReturnDensity:
    def test_unit_value(self):
        assert math.isclose(f_pmf(1), 1.0 / math.sqrt(2.0 * math.pi),
                            rel_tol=1e-15)

    def test_gaussian_scaling(self):
        assert math.isclose(f_pmf(4), f_pmf(1) / 2.0, rel_tol=1e-15)

    def test_algebraic_identity(self):
        k = np.arange(1, 50)
        assert np.allclose(k * f_pmf(k) ** 2, 1.0 / (2.0 * math.pi))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            f_pmf(0)


class TestTiltSolve:
    def test_small_eps_expansion(self):
        # Li_{1/2}(e^-lam) = sqrt(pi/lam) + zeta(1/2) + O(lam) (DLMF 25.12(ii))
        # turns eps Li_{1/2}(e^-lam) / sqrt(2 pi) = 1 into
        # 1/sqrt(lam) = sqrt(2)/eps - zeta(1/2)/sqrt(pi) + O(eps)
        eps = 0.1
        two_term = (math.sqrt(2.0) / eps - ZETA_HALF / math.sqrt(math.pi)) ** -2
        assert abs(solve_lambda(eps) - two_term) <= 1e-3 * two_term

    def test_collapse_at_eps_001(self):
        lam = solve_lambda(0.01)
        assert 0.9 <= 2.0 * lam / 0.01**2 <= 1.1

    @pytest.mark.parametrize("eps", GRID)
    def test_defining_equation_residual(self, eps):
        model = renewal_model(eps)
        assert abs(_normalizer(eps, model.lam) - 1.0) <= 1e-10

    def test_monotone_in_eps(self):
        lams = [solve_lambda(e) for e in GRID]
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_collapse_is_monotone(self):
        ratios = [2.0 * solve_lambda(e) / e**2 for e in GRID]
        gaps = [abs(r - 1.0) for r in ratios]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_unreachable_tol_reports_residual(self, monkeypatch):
        monkeypatch.setattr(renewal1d, "TOL", 1e-30)
        with pytest.raises(NumericalError, match="residual"):
            solve_lambda(0.1)


class TestSeriesConstants:
    """The tabulated series constants are scipy.special's, bit for bit, so
    the CSVs do not change with the tabulation."""

    def test_zeta_literals(self):
        from scipy.special import zeta

        assert len(_ZETA_HALF_INTEGERS) == 26
        for j, value in enumerate(_ZETA_HALF_INTEGERS):
            assert value == float(zeta(0.5 - j)), j

    def test_gamma_closed_forms(self):
        from scipy.special import gamma

        assert list(_GAMMA) == gamma(1.0 - np.array(_S)).tolist()

    def test_zeta_table(self):
        from scipy.special import factorial, zeta

        n = np.arange(SERIES_TERMS)
        assert np.shape(_ZETA_TABLE) == (3, 24)
        assert [list(row) for row in _ZETA_TABLE] == (
            zeta(np.array(_S)[:, None] - n) / factorial(n)).tolist()


class TestClosedForm:
    """Polylogarithm forms against truncated direct sums with bounded tails."""

    def _check(self, model):
        sums, tails = direct_renewal_sums(model.eps, model.lam,
                                          math.ceil(60.0 / model.lam) + 3)
        assert all(t <= 1e-14 * v for t, v in zip(tails, sums))
        norm, big_m, num = sums
        mean = renewal_mean(model)
        assert math.isclose(_normalizer(model.eps, model.lam), norm, rel_tol=1e-12)
        assert math.isclose(mean, big_m, rel_tol=1e-12)
        assert math.isclose(variance_1d(model) * mean, num, rel_tol=1e-12)

    # 1e3 puts the root above LAM_SERIES, on the direct-sum side
    @pytest.mark.parametrize("eps", (1.0, 0.3, 0.1, 0.03, 1e3))
    def test_matches_direct_sums(self, eps):
        self._check(renewal_model(eps))

    @pytest.mark.parametrize("lam", (1e-3, 0.5, 0.999, 1.0, 2.5, 10.0, 40.0))
    def test_off_root_tilts(self, lam):
        self._check(RenewalModel(eps=1.0, lam=lam, k_max=0))

    def test_crossover_sides_agree(self):
        # the series one ulp below LAM_SERIES, the direct sum at it: the
        # scaled Li_{1/2}, Li_{-1/2} and variance numerator
        below = _polylogs(np.nextafter(LAM_SERIES, 0.0))
        for lo, hi in zip(below, _polylogs(LAM_SERIES)):
            assert abs(lo - hi) <= 1e-13 * abs(hi)

    def test_matches_numpy_form(self):
        # the plain-float sums against the array form they replace, on both
        # sides of LAM_SERIES: the same terms, summed in another order
        lams = np.concatenate([np.logspace(-12, 0, 120, endpoint=False),
                               np.logspace(0, math.log10(40.0), 60),
                               [np.nextafter(LAM_SERIES, 0.0)]])
        for lam in lams.tolist():
            for got, ref in zip(_polylogs(lam), numpy_polylogs(lam)):
                assert abs(got - ref) <= 1e-14 * abs(ref), lam

    def test_k_max_is_eps_free(self):
        assert max(renewal_model(e).k_max for e in (1e-4, 0.1, 10.0)) < 100


class TestRenewalMean:
    def test_cubic_scaling(self):
        model = renewal_model(0.01)
        assert 0.8 <= renewal_mean(model) * 0.01**3 <= 1.2

    def test_finite_at_eps_one(self):
        m = renewal_mean(renewal_model(1.0))
        assert 0.0 < m < math.inf

    def test_increases_as_eps_shrinks(self):
        means = [renewal_mean(renewal_model(e)) for e in (0.3, 0.1, 0.03)]
        assert means[0] < means[1] < means[2]


class TestVariance:
    def test_quadratic_scaling(self):
        model = renewal_model(0.01)
        assert 0.8 <= variance_1d(model) * 2.0 * 0.01**2 <= 1.2

    def test_collapse_monotone(self):
        vals = [variance_1d(renewal_model(e)) * 2.0 * e * e for e in GRID]
        gaps = [abs(v - 1.0) for v in vals]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_eps_halving_ratio(self):
        v1 = variance_1d(renewal_model(0.1))
        v2 = variance_1d(renewal_model(0.05))
        assert abs(v2 / v1 - 4.0) <= 0.15 * 4.0


class TestMass:
    def test_equals_tilt(self):
        # the mass the CLI reports is the model's tilt
        assert renewal_model(0.05).lam == solve_lambda(0.05)

    def test_expansion_window(self):
        lam = solve_lambda(0.01)
        assert 0.9 <= 2.0 * lam / 0.01**2 <= 1.1
