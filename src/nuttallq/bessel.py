"""Modified Bessel function of the first kind: scaled values and ratios.

The evaluators downstream only ever need the exponentially scaled form
Itilde_mu(z) = exp(-z) I_mu(z), which stays inside [0, 1], and the neighbor
ratio I_{mu+1}(z)/I_mu(z).  No raw I value leaves this module, so none can
overflow on the way out.  Past the power series, z > 700 or order >
20,000, ``log_scaled_asymptotic`` gives the log of the scaled form in a
bounded number of terms: Hankel's expansion (DLMF 10.40.1) in log form
from the switch max(21, (4 order^2 - 1)/16) on, and Debye's uniform
expansion (DLMF 10.41.3) below it.

Quadrature's nodes need that factor at one order and many arguments, and
take it from ``FixedOrderSeries``: by the power series below the switch,
by Hankel's expansion from there to z = 700, where it ends in a few dozen
terms while the power series needs O(z), and by ``log_scaled_asymptotic``
past 700.  The switch is a rule of the order alone; ``FixedOrderSeries``
says why.  ``bessel_i_scaled``, which the recurrences use, keeps the power
series up to z = 700 and order 20,000.  The power series and Hankel's
expansion run one loop, ``_four_term_sum``, each with its own steps.

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
# O(order) product stays short; beyond that ``log_scaled_asymptotic`` takes
# over, in a bounded number of terms where the series needs ~z.
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
# U_0 to U_11 of Debye's expansion, which ``_debye_polynomials`` builds
# on first use.
_DEBYE_U: list[list[float]] = []
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
    needs them, and they are appended to it: one body walks the table as
    it stands, then each group appended, so a cached table and a fresh
    one give the same sum bit for bit.  The builder raises
    ConvergenceError past its term cap, naming arg.  The sum stops once
    the last term of a four lies within _SERIES_CUTOFF of it in size;
    written as two comparisons, the test of a positive term costs one
    while it fails."""
    cutoff = _SERIES_CUTOFF
    term = total = 1.0
    walk = groups
    while True:
        for s0, s1, s2, s3 in walk:
            t0 = term * w * s0
            t1 = t0 * w * s1
            t2 = t1 * w * s2
            term = t2 * w * s3
            total += t0 + t1 + t2 + term
            if term < total * cutoff and -term < total * cutoff:
                return total
        groups.append(steps(order, arg, 4 * len(groups)))
        walk = groups[-1:]


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
    stays below about z.  ``FixedOrderSeries`` and
    ``log_scaled_asymptotic`` take it where z >= max(21, (4 order^2 -
    1)/16); there no term exceeds 2 in size, and the terms fall below
    _SERIES_CUTOFF of the sum before they turn, within _HANKEL_MAX_TERMS.
    The raise stays as the loop's guard."""
    if n >= _HANKEL_MAX_TERMS:
        raise ConvergenceError(
            f"Bessel Hankel expansion did not converge for order={order}, z={z}")
    m = 4.0 * order * order
    return (((2 * n + 1) ** 2 - m) / (8 * (n + 1)),
            ((2 * n + 3) ** 2 - m) / (8 * (n + 2)),
            ((2 * n + 5) ** 2 - m) / (8 * (n + 3)),
            ((2 * n + 7) ** 2 - m) / (8 * (n + 4)))


def _hankel_switch(order: float) -> float:
    """max(21, (4 order^2 - 1)/16), the least argument at which Hankel's
    expansion serves at this order (see ``FixedOrderSeries``)."""
    return max(_HANKEL_MIN_ARG, (4.0 * order * order - 1.0) / 16.0)


class FixedOrderSeries:
    """ln(e^{-z} S(z^2/4)) at one order and many arguments z, with
    I_order(z) = (z/2)^order S(z^2/4) / Gamma(order+1) (DLMF 10.25.2), by
    one of three sums:

    - below ``hankel_from``, the power series;
    - from ``hankel_from`` = max(21, (4 order^2 - 1)/16) to z = 700,
      Hankel's expansion;
    - past z = 700, ``log_scaled_asymptotic``: Hankel's expansion in log
      form up to order 52.9, Debye's expansion above it.

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
    within 6e-14 of the true value, math.lgamma within 1.7e-13), and inf
    where it passes the double range; the ladder's forcing term builds the
    series at any finite order.
    """

    def __init__(self, order: float) -> None:
        _validate(order, 0.0)
        self.order = order
        # 1/Gamma(order+1); past order 170 it underflows, and there
        # hankel_from lies past z = 700, so the Hankel branch never reads it.
        self._inv_gamma = (_power_over_gamma(order, 2.0) if order < 170.0
                           else 0.0)
        try:
            self.log_gamma = (-math.log(self._inv_gamma) if order < 170.0
                              else math.lgamma(order + 1.0))
        except OverflowError:  # from order ~2.6e305 it is past the range
            self.log_gamma = math.inf
        self._groups: list[_Steps] = []
        self.hankel_from = _hankel_switch(order)
        self._hankel_groups: list[_Steps] = []

    def log_scaled(self, q: float, z: float) -> float:
        """ln(e^{-z} S(q)) for z = 2 sqrt(q) >= 0.

        For z <= 700, S(q) <= I_0(z) < 1.5e302 and e^{-z} S(q) >= e^{-700}
        stay normal floats, so the product is formed before the log; on
        the Hankel branch, (z/2)^order and Gamma(order+1) stay below 1e135
        as order <= 52.9 there.  Beyond that it is formed from
        ``log_scaled_asymptotic``, for a finite z.
        """
        if z > _LINEAR_MAX_ARG:
            return (log_scaled_asymptotic(self.order, z) + self.log_gamma
                    - self.order * math.log(0.5 * z))
        if z >= self.hankel_from:
            return math.log(
                _four_term_sum(1.0 / z, self._hankel_groups, _hankel_steps,
                               self.order, z)
                / (self._inv_gamma * math.sqrt(_TWO_PI * z)
                   * (0.5 * z) ** self.order))
        return math.log(math.exp(-z) * _four_term_sum(
            q, self._groups, _series_steps, self.order, q))


def _debye_polynomials() -> list[list[float]]:
    """U_0(p) to U_11(p) of Debye's expansion, each as its coefficients of
    p^0, p^1, ..., from U_0 = 1 and the recursion (DLMF 10.41.10)

        U_{k+1}(p) = p^2 (1 - p^2) U_k'(p) / 2
                     + int_0^p (1 - 5 t^2) U_k(t) dt / 8,

    in exact fractions, each coefficient rounded once.  They are built on
    the first call and kept: ``fractions`` takes a few ms to import, which
    no run inside the power series' range pays.  The list is filled by one
    slice assignment, so a call from another thread meanwhile sees it empty
    or whole."""
    if not _DEBYE_U:
        from fractions import Fraction
        u, polys = [Fraction(1)], []
        for _ in range(12):
            polys.append([float(c) for c in u])
            step = [Fraction(0)] * (len(u) + 3)
            for i, c in enumerate(u):
                step[i + 1] += c * i / 2 + c / (8 * (i + 1))
                step[i + 3] -= c * i / 2 + 5 * c / (8 * (i + 3))
            u = step
        _DEBYE_U[:] = polys
    return _DEBYE_U


def log_scaled_asymptotic(order: float, z: float) -> float:
    """ln(e^{-z} I_order(z)) past the power series: for z > 700, or for an
    order above 20,000 and z > 0.

    From the Hankel switch max(21, (4 order^2 - 1)/16) on, which past z =
    700 holds every order up to 52.9, it is Hankel's expansion in log form,
    ln H(z) - ln(2 pi z)/2 (DLMF 10.40.1, ``_hankel_steps``).  Below the
    switch, where the order is above 52.9, it is Debye's expansion (DLMF
    10.41.3) with t = z/order, s = sqrt(1 + t^2) and p = 1/s:

        order (1/(s + t) - asinh(1/t)) - ln(2 pi order s)/2
        + ln sum_k U_k(p) / order^k,

    summed over the twelve U_k of ``_debye_polynomials``.  Neither branch
    has a term cap to run past: Hankel's terms fall below the stop test
    within a few dozen from the switch on, and Debye's sum has twelve
    terms, which fall faster the larger the order.  On 300 seeded points
    with order in [53, 1e4] and z in [700, 2e4] below the switch, the
    Debye value was within 0.7 of max(2e-14, 4 eps |log|) of 40-digit
    mpmath.
    """
    if z >= _hankel_switch(order):
        h = _four_term_sum(1.0 / z, [], _hankel_steps, order, z)
        return math.log(h / math.sqrt(_TWO_PI) / math.sqrt(z))
    t = z / order
    s = math.hypot(1.0, t)
    total = 0.0
    for coeffs in reversed(_debye_polynomials()):
        u = 0.0
        for c in reversed(coeffs):
            u = u / s + c  # Horner's rule in p = 1/s
        total = u + total / order
    return (order * (1.0 / (s + t) - math.asinh(order / z))
            + math.log(total / math.sqrt(_TWO_PI * s) / math.sqrt(order)))


def bessel_i_scaled(order: float, arg: float) -> float:
    """Exponentially scaled modified Bessel function exp(-z) I_order(z).

    Bounded by [0, 1].  Past z = 700, or past order 20,000 at z > 0, it is
    exp of ``log_scaled_asymptotic``.
    """
    _validate(order, arg)
    # At arg = 0 the power series gives the value at every order.
    if arg <= _LINEAR_MAX_ARG and order <= _LINEAR_MAX_ORDER or arg == 0.0:
        p = _power_over_gamma(order, arg)
        if p == 0.0:
            # Itilde <= prefactor (the series sum times exp(-z) is <= 1).
            return 0.0
        # p * sum is I_order(arg) <= I_0(700) ~ 1.5e302, so it cannot
        # overflow; exp(-arg) * p first could underflow to a false 0.0.
        q = arg * arg * 0.25
        return math.exp(-arg) * (p * _four_term_sum(q, [], _series_steps,
                                                    order, q))
    return exp_clipped(log_scaled_asymptotic(order, arg))


def bessel_ratio(order: float, arg: float) -> float:
    """I_{order+1}(arg) / I_order(arg) by continued fraction.

    Uses the modified Lentz algorithm on

        r = 1 / (2(order+1)/z + 1 / (2(order+2)/z + ...))

    which follows from the three-term recurrence of I.  The fraction has no
    leading term, so its first step is done in closed form (f = D =
    z/(2(order+1)), C infinite) rather than from a floor value that would
    swamp a tiny ratio; every later denominator is positive.  The value
    lies in [0, 1), tends to z/(2(order+1)) as z -> 0, and arg == 0
    returns exactly 0.  Where a denominator 2(order+j)/z overflows, the
    rest of the fraction would move f by about z^2/(4(order+1)(order+2))
    relative, far below an ulp, so f is returned as it stands; carried on,
    inf times 0 would give nan, which never passes the stop test.
    """
    _validate(order, arg)
    if arg == 0.0:
        return 0.0
    f = d = arg / (2.0 * (order + 1.0))
    c = math.inf
    for j in range(2, _LENTZ_MAX_ITER + 1):
        b = 2.0 * (order + j) / arg
        if b == math.inf:
            return f
        d = 1.0 / (b + d)
        c = b + 1.0 / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _LENTZ_TOL:
            return f
    raise ConvergenceError(
        f"Bessel ratio continued fraction stalled for order={order}, arg={arg}")
