"""mpmath reference values for Q_{eta,mu}(x, y); shares no code with nuttallq.

    Q_{eta,mu}(x, y) = e^{-x} sum_n x^n/n! Gamma(eta+mu+n)/Gamma(mu+n)
                       Q(eta+mu+n, y)

with every regularized upper incomplete gamma ratio Q(a, y) taken from
``mpmath.gammainc`` and every term summed at 40 significant digits.  All
terms are positive, so the sum loses no digits to cancellation.
"""

from __future__ import annotations

import mpmath

DPS = 40
_MAX_TERMS = 10_000


def nuttall_q(eta: float, mu: float, x: float, y: float) -> float:
    with mpmath.workdps(DPS):
        eta, mu, x, y = (mpmath.mpf(v) for v in (eta, mu, x, y))
        weight = mpmath.exp(-x)
        ratio = mpmath.gamma(eta + mu) / mpmath.gamma(mu)
        total = mpmath.mpf(0)
        cutoff = mpmath.mpf(10) ** (5 - DPS)
        for n in range(_MAX_TERMS):
            term = weight * ratio * mpmath.gammainc(eta + mu + n, y,
                                                    regularized=True)
            total += term
            if n > x and term <= total * cutoff:
                return float(total)
            weight *= x / (n + 1)
            ratio *= (eta + mu + n) / (mu + n)
    raise ArithmeticError(f"reference series did not settle at "
                          f"{(eta, mu, x, y)}")


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)
