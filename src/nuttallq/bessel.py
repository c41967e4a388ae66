"""Modified Bessel function of the first kind: scaled values and ratios.

The evaluators downstream only ever need the exponentially scaled form
Itilde_mu(z) = exp(-z) I_mu(z), which stays inside [0, 1], and the neighbor
ratio I_{mu+1}(z)/I_mu(z).  No raw I value leaves this module, so none can
overflow on the way out.  Where the scaled form underflows, and past z =
700, ``log_poisson_pair_sum`` at a = b = z/2 gives its logarithm as a sum
of products of Poisson probabilities.

All routines accept real (not just integer) order >= 0 and argument >= 0.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError
from .incgamma import log_q_increment
from .logscale import exp_clipped

# Modified Lentz parameters for the ratio continued fraction.
_LENTZ_TOL = 1e-15
_LENTZ_MAX_ITER = 10_000

# The plain-float power series is used while exp(arg) and the power/gamma
# prefactor stay comfortably inside double range and the prefactor's
# O(order) product stays short; beyond that ``log_poisson_pair_sum`` takes
# over (as accurate, and ~sqrt(z) terms instead of ~z).
_LINEAR_MAX_ARG = 700.0
_LINEAR_MAX_ORDER = 20_000.0

_SERIES_CUTOFF = 5e-18
_SERIES_MAX_TERMS = 100_000
# Terms per separately summed block of a Poisson-pair sum: only sums with
# z past ~5e4 run that long, so shorter ones are summed as a plain loop.
_SUM_BLOCK = 1000


def _validate(order: float, arg: float) -> None:
    if not order >= 0.0 or math.isinf(order):
        raise DomainError(f"Bessel order must be finite and >= 0, got {order!r}")
    if not arg >= 0.0 or math.isinf(arg):
        raise DomainError(f"Bessel argument must be finite and >= 0, got {arg!r}")


def _power_over_gamma(order: float, arg: float) -> float:
    """(arg/2)**order / Gamma(order+1) as a plain float product.

    The integer part of the order is handled by a running product, so no
    large log is ever exponentiated; progressive underflow to 0.0 is fine
    because Itilde <= this prefactor, and the product stops there, as no
    later factor can move it from 0.0.
    """
    half = 0.5 * arg
    m = int(order)
    f = order - m
    if f > 0.0:
        p = half**f / math.gamma(f + 1.0)
    else:
        p = 1.0
    for k in range(1, m + 1):
        p *= half / (f + k)
        if p == 0.0:
            break
    return p


def _series_sum(order: float, q: float,
                groups: list[tuple[float, float, float, float]]) -> float:
    """S(q) = sum_n q^n / (n! (order+1)_n), q = z^2/4, four terms per stop
    test.  ``groups`` holds the step factors 1/(n (order+n)) in tuples of
    four, n = 1, 2, ...; past its end they are formed as the sum needs them
    and appended to it.  The terms fall once n (order+n) > q, so a test on
    the last of each four stops at most three terms late."""
    cutoff = _SERIES_CUTOFF
    term = total = 1.0
    for r0, r1, r2, r3 in groups:
        t0 = term * q * r0
        t1 = t0 * q * r1
        t2 = t1 * q * r2
        term = t2 * q * r3
        total += t0 + t1 + t2 + term
        if term < total * cutoff:
            return total
    n = 4 * len(groups)
    while n < _SERIES_MAX_TERMS:
        r0 = 1.0 / ((n + 1) * (order + (n + 1)))
        r1 = 1.0 / ((n + 2) * (order + (n + 2)))
        r2 = 1.0 / ((n + 3) * (order + (n + 3)))
        r3 = 1.0 / ((n + 4) * (order + (n + 4)))
        groups.append((r0, r1, r2, r3))
        t0 = term * q * r0
        t1 = t0 * q * r1
        t2 = t1 * q * r2
        term = t2 * q * r3
        total += t0 + t1 + t2 + term
        if term < total * cutoff:
            return total
        n += 4
    raise ConvergenceError(
        f"Bessel series did not converge for order={order}, q={q}")


class FixedOrderSeries:
    """``_series_sum`` at one order and many arguments, on one table of step
    factors that the sums extend as they need: I_order(z) = (z/2)^order
    S(z^2/4) / Gamma(order+1) (DLMF 10.25.2).  ``log_gamma`` is ln
    Gamma(order+1), from the product of ``_power_over_gamma`` while 1/Gamma
    stays a normal float (there it is within 6e-14 of the true value,
    math.lgamma within 1.7e-13).
    """

    def __init__(self, order: float) -> None:
        _validate(order, 0.0)
        self.order = order
        self.log_gamma = (-math.log(_power_over_gamma(order, 2.0))
                          if order < 170.0 else math.lgamma(order + 1.0))
        self._groups: list[tuple[float, float, float, float]] = []

    def log_scaled(self, q: float, z: float) -> float:
        """ln(e^{-z} S(q)) for z = 2 sqrt(q) >= 0.

        For z <= 700, S(q) <= I_0(z) < 1.5e302 and e^{-z} S(q) >= e^{-700}
        stay normal floats, so the product is formed before the log.
        Beyond that it is formed from ``log_poisson_pair_sum`` at a = b =
        z/2, which raises DomainError for an infinite z.
        """
        if z > _LINEAR_MAX_ARG:
            half = 0.5 * z
            return (log_poisson_pair_sum(self.order, half, half)
                    + self.log_gamma - self.order * math.log(half))
        return math.log(math.exp(-z)
                        * _series_sum(self.order, q, self._groups))


def _runs_past_the_cap(order: float, n0: float) -> bool:
    """Whether the upward sum of ``log_poisson_pair_sum`` from its peak n0
    >= 1 surely runs past _SERIES_MAX_TERMS terms before its stop test.

    Step j >= 1 above the peak multiplies the term by c / ((n0+j)
    (n0+j+order)), where n0 (n0+order) < c <= (n0+1) (n0+1+order).  As
    x / (1 + x) <= ln(1 + x) <= x, its log lies in [-j kappa, -(j-1)
    kappa_k] for j <= k, kappa = 1/n0 + 1/(n0+order) and kappa_k = 1/(n0+k)
    + 1/(n0+k+order).  So the term k steps up is at least e^{-kappa
    k(k+1)/2} of the peak's, and the k+1 terms summed by then add up to
    less than 2 + sqrt(pi / (2 kappa_k)) of it.  Where the first stays
    above twice _SERIES_CUTOFF times the second at k = _SERIES_MAX_TERMS,
    no term up to there passes the stop test, by a margin that covers the
    rounding of the running product.
    """
    k = _SERIES_MAX_TERMS
    kappa = 1.0 / n0 + 1.0 / (n0 + order)
    kappa_k = 1.0 / (n0 + k) + 1.0 / (n0 + k + order)
    return (0.5 * kappa * k * (k + 1) <= -math.log(
        2.0 * _SERIES_CUTOFF * (2.0 + math.sqrt(0.5 * math.pi / kappa_k))))


def log_poisson_pair_sum(order: float, a: float, b: float) -> float:
    """ln sum_n p(n; a) p(n+order; b), p(k; m) = m^k e^{-m} / Gamma(k+1).

    The sum is (b/a)^{order/2} e^{-a-b} I_order(2 sqrt(ab)), so exp(-z)
    I_order(z) at a = b = z/2.  Its terms lie in [0, 1] and are summed as
    plain floats outward from the largest, at the first n where ab <= (n+1)
    (n+order+1), whose log comes from ``log_q_increment`` (p(0; m) = e^{-m}).
    The terms go into blocks of ``_SUM_BLOCK`` that are summed on their own
    and then added up, so the tail terms of a long sum, each below half an
    ulp of the whole, are not rounded away one by one.
    """
    _validate(order, a)
    _validate(order, b)
    c = a * b
    # n0 + 1 = ceil(m), m (m + order) = c.  Where c overflows, m is not
    # finite and the terms from n = 0 on would run out of the term cap.
    m = 2.0 * c / (math.sqrt(order * order + 4.0 * c) + order) if c else 0.0
    n = n0 = max(0, math.ceil(m) - 1) if m < math.inf else 0
    if not m < math.inf or n0 and _runs_past_the_cap(order, n0):
        raise ConvergenceError(
            f"Bessel series did not converge for order={order}, a={a}, b={b}")
    peak = ((log_q_increment(n0, a) if n0 else -a)
            + (log_q_increment(n0 + order, b) if n0 + order else -b))
    # total is the open block; done holds the blocks closed before it.
    done = 0.0
    total = term = 1.0
    close = n0 + _SUM_BLOCK
    for _ in range(_SERIES_MAX_TERMS):
        n += 1
        term *= c / (n * (n + order))
        total += term
        if term < (done + total) * _SERIES_CUTOFF:
            break
        if n == close:
            done += total
            total = 0.0
            close += _SUM_BLOCK
    else:
        raise ConvergenceError(
            f"Bessel series did not converge for order={order}, a={a}, b={b}")
    # The terms below the peak fall at least as fast as those above it.
    term = 1.0
    close = n0 - _SUM_BLOCK
    while n0 > 0 and term >= (done + total) * _SERIES_CUTOFF:
        term *= n0 * (n0 + order) / c
        n0 -= 1
        total += term
        if n0 == close:
            done += total
            total = 0.0
            close -= _SUM_BLOCK
    return peak + math.log(done + total)


def bessel_i_scaled(order: float, arg: float) -> float:
    """Exponentially scaled modified Bessel function exp(-z) I_order(z).

    Bounded by [0, 1].  Past z = 700 it is exp of ``log_poisson_pair_sum``
    at a = b = z/2, which raises ConvergenceError from z ~ 6.6e8 (over
    100,000 terms), at once from z ~ 6.8e8.
    """
    _validate(order, arg)
    if arg <= _LINEAR_MAX_ARG and order <= _LINEAR_MAX_ORDER:
        p = _power_over_gamma(order, arg)
        if p == 0.0:
            # Itilde <= prefactor (the series sum times exp(-z) is <= 1).
            return 0.0
        # p * sum is I_order(arg) <= I_0(700) ~ 1.5e302, so it cannot
        # overflow; exp(-arg) * p first could underflow to a false 0.0.
        return math.exp(-arg) * (p * _series_sum(order, arg * arg * 0.25, []))
    half = 0.5 * arg
    return exp_clipped(log_poisson_pair_sum(order, half, half))


def bessel_ratio(order: float, arg: float) -> float:
    """I_{order+1}(arg) / I_order(arg) by continued fraction.

    Uses the modified Lentz algorithm on

        r = 1 / (2(order+1)/z + 1 / (2(order+2)/z + ...))

    which follows from the three-term recurrence of I.  The fraction has no
    leading term, so its first step is done in closed form (f = D =
    z/(2(order+1)), C infinite) rather than from a floor value that would
    swamp a tiny ratio; every later denominator is positive.  The value
    lies in [0, 1), tends to z/(2(order+1)) as z -> 0, and arg == 0
    returns exactly 0.
    """
    _validate(order, arg)
    if arg == 0.0:
        return 0.0
    f = d = arg / (2.0 * (order + 1.0))
    c = math.inf
    for j in range(2, _LENTZ_MAX_ITER + 1):
        b = 2.0 * (order + j) / arg
        d = 1.0 / (b + d)
        c = b + 1.0 / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _LENTZ_TOL:
            return f
    raise ConvergenceError(
        f"Bessel ratio continued fraction stalled for order={order}, arg={arg}")
