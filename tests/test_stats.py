import math

import pytest
from scipy import stats

from gffpin.stats import binom_upper

PAIRS = [(0, 10), (3, 50), (0, 1000), (7, 8), (49, 50), (0, 1)]


class TestBinomUpper:
    @pytest.mark.parametrize("successes, trials", PAIRS)
    def test_equals_beta_quantile(self, successes, trials):
        expected = stats.beta.ppf(0.975, successes + 1, trials - successes)
        assert binom_upper(successes, trials) == expected

    @pytest.mark.parametrize("trials", [1, 10, 1000])
    def test_zero_successes_closed_form(self, trials):
        assert math.isclose(binom_upper(0, trials), 1.0 - 0.025 ** (1.0 / trials),
                            rel_tol=1e-12)

    def test_all_successes(self):
        assert binom_upper(5, 5) == 1.0
