"""The one-dimensional pinned chain via renewal theory.

Pinned sites form a renewal process with spacing law eps e^{-lam k} f(k),
k >= 1, f(k) = 1/sqrt(2 pi k) the return density of the Gaussian walk. The
tilt lam(eps) normalizing it is the mass of the chain; between pins the field
is a Gaussian bridge with E(S_m^2 | S_n = 0) = m (n - m)/n. The sums over
gaps are polylogarithms at e^{-lam}, summed in closed form by `_polylogs`.
Its series constants, Gamma(1 - s) and zeta at half-integers, are tabulated
here and checked against scipy in the tests, and its sums run in Python
floats, so the module loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalError

TOL = 1e-12  # |residual| at which the tilt's Newton iteration stops
ZETA_HALF = -1.4603545088095868  # zeta(1/2)
LAM_SERIES = 1.0    # zeta series below, direct sum at and above
SERIES_TERMS = 24   # series error below 1e-15 relative for lam < 1
DIRECT_SPAN = 45.0  # e^{-45} ~ 3e-20 relative to the first term

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)
_S = (0.5, -0.5, -1.5)

# zeta(1/2 - j), j = 0..25: the repr of scipy's zeta at each point
_ZETA_HALF_INTEGERS = (
    -1.4603545088095866, -0.2078862249773546, -0.025485201889833053,
    0.00851692877785033, 0.004441011335479434, -0.0030916692472158364,
    -0.002671458019899229, 0.0027467679395368704, 0.0032690395726002216,
    -0.004416032873004892, -0.00667217229646665, 0.011146122473942834,
    0.020396978715942822, -0.040574967481194636, -0.08717525590621737,
    0.20117404938422698, 0.4962712199120593, -1.3032292507051177,
    -3.6297592997745847, 10.68732706902202, 33.16832578569471,
    -108.21747505877623, -370.3018783754793, 1326.0458117490175,
    4959.598315043067, -19338.9419883747,
)
# Gamma(1 - s) for the three s of `_polylogs`: Gamma(1/2), Gamma(3/2) and
# Gamma(5/2) in closed form (math.gamma is an ulp off at 3/2 and 5/2)
_GAMMA = (_SQRT_PI, _SQRT_PI / 2.0, 0.75 * _SQRT_PI)
# zeta(s - n) / n!, n < SERIES_TERMS; s - n = 1/2 - (row + n)
_ZETA_TABLE = tuple(
    tuple(_ZETA_HALF_INTEGERS[row + n] / float(math.factorial(n))
          for n in range(SERIES_TERMS))
    for row in range(len(_S)))


def _polylogs(lam):
    """lam^{1/2} Li_{1/2}, lam^{3/2} Li_{-1/2}, lam^{5/2} (Li_{-3/2} - Li_{1/2})
    at z = e^{-lam}, Li_s(z) = sum_k k^{-s} z^k; the scaling keeps them O(1)
    as lam -> 0. Normalizer, mean gap and variance numerator are
    eps Li_{1/2}, Li_{-1/2} and (Li_{-3/2} - Li_{1/2}) / 6, over sqrt(2 pi).
    For 0 < lam < 2 pi (DLMF 25.12(ii)) Li_s(e^{-lam}) = Gamma(1-s) lam^{s-1}
    + sum_{n>=0} zeta(s-n) (-lam)^n / n!, terms falling like (lam / 2 pi)^n:
    used below LAM_SERIES, the direct sum over k <= DIRECT_SPAN / lam above."""
    if lam < LAM_SERIES:
        powers = [(-lam) ** n for n in range(SERIES_TERMS)]
        li = [g + lam ** (1.0 - s) * sum(z * p for z, p in zip(row, powers))
              for g, s, row in zip(_GAMMA, _S, _ZETA_TABLE)]
        return li[0], li[1], li[2] - lam * lam * li[0]
    li = [0.0, 0.0, 0.0]
    for k in range(1, math.ceil(DIRECT_SPAN / lam) + 1):
        w = math.exp(-lam * k) / math.sqrt(k)
        li[0] += w
        li[1] += k * w
        # (k^2 - 1) termwise: at large lam the two polylogs agree to a part
        # e^{-lam}
        li[2] += (k * k - 1) * w
    return math.sqrt(lam) * li[0], lam ** 1.5 * li[1], lam ** 2.5 * li[2]


def _normalizer(eps, lam) -> float:
    return eps * _polylogs(lam)[0] / (_SQRT_2PI * math.sqrt(lam))


def solve_lambda(eps) -> float:
    """Unique lambda > 0 with eps Li_{1/2}(e^{-lambda}) / sqrt(2 pi) = 1: the
    tilt, which is also the 1D mass. Newton on g = left side - 1,
    g' = -eps Li_{-1/2} / sqrt(2 pi), from the two-term root or
    log(eps / sqrt(2 pi)) if larger (Li_{1/2}(z) >= z). The two-term root
    follows from Li_{1/2}(e^{-lam}) = sqrt(pi/lam) + zeta(1/2) + O(lam):
    1/sqrt(lam) = sqrt(2)/eps - zeta(1/2)/sqrt(pi) + O(eps); lam ~ eps^2/2 is
    10.7% off at eps = 0.1, the two-term form 7e-5 off. g is convex and
    decreasing, so after the first step the iterates rise to the root; a
    step to lam <= 0 halves lam instead. Stops at |g| <= TOL, else raises
    NumericalError with the residual."""
    lam = (math.sqrt(2.0) / eps - ZETA_HALF / math.sqrt(math.pi)) ** -2
    # checked before the log: at the smallest eps, eps / sqrt(2 pi) is 0
    if lam < 1e-300:
        raise NumericalError(f"epsilon {eps!r} is too small: the tilt underflows")
    lam = max(lam, math.log(eps / _SQRT_2PI))
    for _ in range(100):
        g = _normalizer(eps, lam) - 1.0
        if abs(g) <= TOL:
            return lam
        step = lam + g * _SQRT_2PI * lam * math.sqrt(lam) / (eps * _polylogs(lam)[1])
        lam = step if step > 0.0 else 0.5 * lam
    raise NumericalError(
        f"tilt Newton iteration reached residual {abs(g):.3g}, above tol {TOL:.3g}")


@dataclass(frozen=True)
class RenewalModel:
    eps: float
    lam: float
    k_max: int  # terms of the series or direct sum evaluated at lam


def renewal_model(eps) -> RenewalModel:
    lam = solve_lambda(eps)
    k_max = SERIES_TERMS if lam < LAM_SERIES else math.ceil(DIRECT_SPAN / lam)
    return RenewalModel(eps=float(eps), lam=lam, k_max=k_max)


def renewal_mean(model: RenewalModel) -> float:
    """Size-biased normalizer M = sum_j j e^{-lam j} f(j)
    = Li_{-1/2}(e^{-lam}) / sqrt(2 pi) ~ 1/eps^3; NumericalError where it
    overflows (eps below about 5e-103)."""
    big_m = _polylogs(model.lam)[1] / _SQRT_2PI / model.lam / math.sqrt(model.lam)
    if big_m == math.inf:
        raise NumericalError(f"mean gap M overflows at epsilon {model.eps!r}")
    return big_m


def variance_1d(model: RenewalModel) -> float:
    """Height variance at the origin: (1/M) sum_n e^{-lam n} f(n) (n^2 - 1)/6,
    from the bridge moments E(S_m^2 | S_n = 0) = m (n - m)/n summed over m < n.
    The numerator is formed times lam^{5/2}: finite wherever M is."""
    lam, big_m = model.lam, renewal_mean(model)
    return _polylogs(lam)[2] / (6.0 * _SQRT_2PI * lam * big_m * lam ** 1.5)
