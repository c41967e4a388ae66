"""Modified Bessel function of the first kind: scaled values and ratios.

The evaluators downstream only ever need the exponentially scaled form
Itilde_mu(z) = exp(-z) I_mu(z), which stays inside [0, 1], and the neighbor
ratio I_{mu+1}(z)/I_mu(z).  No raw I value leaves this module, so none can
overflow on the way out.  Where the scaled form underflows, and past z =
700, ``log_poisson_pair_sum`` at a = b = z/2 gives its logarithm as a sum
of products of Poisson probabilities.

Quadrature's nodes need that factor at one order and many arguments, and
take it from ``FixedOrderSeries``: by the power series below the switch
max(21, (4 order^2 - 1)/16), by Hankel's asymptotic expansion (DLMF
10.40.1) from there to z = 700, where it ends in a few dozen terms while
the power series needs O(z), and by the Poisson-pair sum past 700.  The
switch is a rule of the order alone; ``FixedOrderSeries`` says why.
``bessel_i_scaled``, which the recurrences use, keeps the power series up
to z = 700.  The power series and Hankel's expansion run one loop,
``_four_term_sum``, each with its own steps; only quadrature forms
Hankel's.

All routines accept real (not just integer) order >= 0 and argument >= 0.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import ConvergenceError, DomainError
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
# Hankel's expansion replaces the power series from this argument on, or
# from (4 order^2 - 1)/16 where that is larger (see ``FixedOrderSeries``).
# Past that switch no sum needed more than 40 terms; the cap guards the
# loop.
_HANKEL_MIN_ARG = 21.0
_HANKEL_MAX_TERMS = 64
_TWO_PI = 2.0 * math.pi
# Four steps of a sum of ``_four_term_sum``, the terms between stop tests.
_Steps = tuple[float, float, float, float]


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


def _four_term_sum(w: float, groups: list[_Steps],
                   steps: Callable[[float, float, int], _Steps],
                   order: float, arg: float) -> float:
    """sum_k t_k, t_0 = 1 and t_k = t_{k-1} w s_k, four terms per stop
    test: the power series S(q) = sum_n q^n / (n! (order+1)_n) with w =
    arg = q and ``_series_steps``, or Hankel's expansion H(z) with w = 1/z,
    arg = z and ``_hankel_steps``.

    ``groups`` holds the steps s_k in tuples of four, k = 1, 2, ...; past
    its end ``steps(order, arg, n)`` forms s_{n+1} to s_{n+4} as the sum
    needs them, and they are appended to it.  The builder raises
    ConvergenceError past its term cap, naming arg.  The sum stops once
    the last term of a four lies within _SERIES_CUTOFF of it in size;
    written as two comparisons, the test of a positive term costs one
    while it fails."""
    cutoff = _SERIES_CUTOFF
    term = total = 1.0
    for s0, s1, s2, s3 in groups:
        t0 = term * w * s0
        t1 = t0 * w * s1
        t2 = t1 * w * s2
        term = t2 * w * s3
        total += t0 + t1 + t2 + term
        if term < total * cutoff and -term < total * cutoff:
            return total
    while True:
        s0, s1, s2, s3 = group = steps(order, arg, 4 * len(groups))
        groups.append(group)
        t0 = term * w * s0
        t1 = t0 * w * s1
        t2 = t1 * w * s2
        term = t2 * w * s3
        total += t0 + t1 + t2 + term
        if term < total * cutoff and -term < total * cutoff:
            return total


def _series_steps(order: float, q: float, n: int) -> _Steps:
    """The power series' steps 1/(k (order+k)), k = n+1 to n+4.  Its terms
    fall once k (order+k) > q, so a stop test on the last of each four
    stops at most three terms late.

    No public caller reaches the ConvergenceError: ``FixedOrderSeries``
    and ``bessel_i_scaled`` take the power series at z <= 700, so q <=
    122,500, and there the sum ends after 472 terms at order 0 and sooner
    at a higher order, far below the cap of _SERIES_MAX_TERMS.  The raise
    stays as the loop's guard."""
    if n >= _SERIES_MAX_TERMS:
        raise ConvergenceError(
            f"Bessel series did not converge for order={order}, q={q}")
    return (1.0 / ((n + 1) * (order + (n + 1))),
            1.0 / ((n + 2) * (order + (n + 2))),
            1.0 / ((n + 3) * (order + (n + 3))),
            1.0 / ((n + 4) * (order + (n + 4))))


def _hankel_steps(order: float, z: float, n: int) -> _Steps:
    """Hankel's steps ((2k-1)^2 - 4 order^2)/(8k), k = n+1 to n+4, of the
    expansion e^{-z} I_order(z) ~ H(z) / sqrt(2 pi z) (DLMF 10.40.1):
    term k of H is term k-1 times the step over z.

    The expansion diverges: its terms fall only while (2k-1)^2 / (8k)
    stays below about z.  ``FixedOrderSeries`` takes it where z >= max(21,
    (4 order^2 - 1)/16); there no term exceeds 2 in size, and the terms
    fall below _SERIES_CUTOFF of the sum before they turn, within
    _HANKEL_MAX_TERMS.  The raise stays as the loop's guard."""
    if n >= _HANKEL_MAX_TERMS:
        raise ConvergenceError(
            f"Bessel Hankel expansion did not converge for order={order}, z={z}")
    m = 4.0 * order * order
    return (((2 * n + 1) ** 2 - m) / (8 * (n + 1)),
            ((2 * n + 3) ** 2 - m) / (8 * (n + 2)),
            ((2 * n + 5) ** 2 - m) / (8 * (n + 3)),
            ((2 * n + 7) ** 2 - m) / (8 * (n + 4)))


class FixedOrderSeries:
    """ln(e^{-z} S(z^2/4)) at one order and many arguments z, with
    I_order(z) = (z/2)^order S(z^2/4) / Gamma(order+1) (DLMF 10.25.2), by
    one of three sums:

    - below ``hankel_from``, the power series;
    - from ``hankel_from`` = max(21, (4 order^2 - 1)/16) to z = 700,
      Hankel's expansion;
    - past z = 700, ``log_poisson_pair_sum``.

    The first two run the one loop ``_four_term_sum``, each on its own
    table of steps (``_series_steps``, ``_hankel_steps``), which the loop
    extends as the sums need; the ladder's ``bessel_i_scaled`` runs the
    same loop on the power series' steps.

    The switch to Hankel's expansion is fixed per order, not searched per
    call or per integral.  On the positive real axis the expansion leaves
    out a part of relative size about e^{-2z}, 5.7e-19 at z = 21.  Its
    first step (4 order^2 - 1)/(8z) is at most 2 from (4 order^2 - 1)/16
    on, and each later step is smaller until the terms turn, so no term
    exceeds 2 and the alternating sum loses at most a few bits.  Past the
    switch, at every order up to 52.9 and every argument up to ten times
    the switch or 700, the terms fall below _SERIES_CUTOFF of the sum
    before they turn; with 20 in place of 21 they do not (order 8
    converges only from z ~ 20.45).

    The Hankel value is formed as the float H / (sqrt(2 pi z) (z/2)^order
    / Gamma(order+1)) and its log taken once, as the power series' value
    is.  The sum of logs ln Gamma(order+1) - order ln(z/2) - ln(2 pi z)/2
    + ln H cancels terms of about order ln order, and was up to twice as
    far from mpmath (``CHANGES.md`` records both).

    ``log_gamma`` is ln Gamma(order+1), from the product of
    ``_power_over_gamma`` while 1/Gamma stays a normal float (there it is
    within 6e-14 of the true value, math.lgamma within 1.7e-13).
    """

    def __init__(self, order: float) -> None:
        _validate(order, 0.0)
        self.order = order
        # 1/Gamma(order+1); past order 170 it underflows, and there
        # hankel_from lies past z = 700, so the Hankel branch never reads it.
        self._inv_gamma = (_power_over_gamma(order, 2.0) if order < 170.0
                           else 0.0)
        self.log_gamma = (-math.log(self._inv_gamma) if order < 170.0
                          else math.lgamma(order + 1.0))
        self._groups: list[_Steps] = []
        self.hankel_from = max(_HANKEL_MIN_ARG,
                               (4.0 * order * order - 1.0) / 16.0)
        self._hankel_groups: list[_Steps] = []

    def log_scaled(self, q: float, z: float) -> float:
        """ln(e^{-z} S(q)) for z = 2 sqrt(q) >= 0.

        For z <= 700, S(q) <= I_0(z) < 1.5e302 and e^{-z} S(q) >= e^{-700}
        stay normal floats, so the product is formed before the log; on
        the Hankel branch, (z/2)^order and Gamma(order+1) stay below 1e135
        as order <= 52.9 there.  Beyond that it is formed from ``log_poisson_pair_sum`` at a = b =
        z/2, which raises DomainError for an infinite z.
        """
        if z > _LINEAR_MAX_ARG:
            half = 0.5 * z
            return (log_poisson_pair_sum(self.order, half, half)
                    + self.log_gamma - self.order * math.log(half))
        if z >= self.hankel_from:
            return math.log(
                _four_term_sum(1.0 / z, self._hankel_groups, _hankel_steps,
                               self.order, z)
                / (self._inv_gamma * math.sqrt(_TWO_PI * z)
                   * (0.5 * z) ** self.order))
        return math.log(math.exp(-z) * _four_term_sum(
            q, self._groups, _series_steps, self.order, q))


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
    The terms are added once, by ``math.fsum``, so the tail terms of a long
    sum, each below half an ulp of the whole, are not rounded away one by
    one; the running float ``total`` serves only the stop tests.
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
    # Imported here, the one use in this module, so that quadrature below
    # z = 700 runs without compiling the incomplete gamma kernel.
    from .incgamma import log_q_increment
    peak = ((log_q_increment(n0, a) if n0 else -a)
            + (log_q_increment(n0 + order, b) if n0 + order else -b))
    terms = [1.0]
    total = term = 1.0
    for _ in range(_SERIES_MAX_TERMS):
        n += 1
        term *= c / (n * (n + order))
        terms.append(term)
        total += term
        if term < total * _SERIES_CUTOFF:
            break
    else:
        raise ConvergenceError(
            f"Bessel series did not converge for order={order}, a={a}, b={b}")
    # The terms below the peak fall at least as fast as those above it.
    term = 1.0
    while n0 > 0 and term >= total * _SERIES_CUTOFF:
        term *= n0 * (n0 + order) / c
        n0 -= 1
        terms.append(term)
        total += term
    return peak + math.log(math.fsum(terms))


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
        q = arg * arg * 0.25
        return math.exp(-arg) * (p * _four_term_sum(q, [], _series_steps,
                                                    order, q))
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
