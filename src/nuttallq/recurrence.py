"""The recurrences in mu: the scaled inhomogeneous ladder and the
homogeneous three-term recurrence, which build a ``RecurrenceTable``.

* ``nuttall_q_ladder`` - the inhomogeneous recurrence in mu, written with the
  scaled Bessel function so the forcing term never forms e^{-x-y} I_mu
  directly, fills each row from its first entry.  Only Q_{0,mu} comes from
  the series; every later row starts from the row below by the relation in
  eta, Q_{e,mu} = (e-1+mu) Q_{e-1,mu} + x Q_{e-1,mu+1} + y^{e-1} (x
  T_{mu+1} + mu T_mu), from shifting n by one in the series (derived at
  the function), and from the series again where a factor leaves the
  normal float range.  All right-hand terms of both relations are
  positive, hence stable forward.
* ``nuttall_q_homogeneous`` - the three-term recurrence whose coefficient is
  a Bessel-function ratio, so no raw Bessel magnitudes appear at all;
  ``homogeneous_table`` drives it row by row, row 0 included.

Both tables are built by one row loop, ``_table``.  Each row takes its
columns 0 and 1 from the ladder's step in eta and along the row; the ladder
steps on to the row's end, and the homogeneous table fills the rest by its
recurrence.  The two tables thus share their one series call, their
forcing terms, their ratio sweep and, bit for bit, columns 0 and 1, so
their agreement checks the two recurrences in mu, not the boundary.

Both recurrences take their Bessel data along the columns from one sweep of
ratios r_mu = I_{mu+1}/I_mu at z = 2 sqrt(xy) (``_ratio_sweep``): one
continued fraction at the top order, then a stable backward recurrence.
The homogeneous coefficient is sqrt(y/x) r_mu, and the ladder carries its
forcing term along a row as a running product with the same factor.  At
x = 0 the recurrences hold unchanged, with the limits y/(mu+1) of that
coefficient and y^mu e^{-y}/Gamma(mu+1) of the forcing term T_mu.

``consistency_deviation`` rearranges the recurrence into a ratio whose
distance from 1 measures the joint accuracy of the series and the forcing
term; it is the library's internal accuracy metric.

Both recurrences couple eta to eta-1 down to the Marcum base case and
therefore require integer eta.  They take their series values from
``nuttall.series_value``.  With quadrature, this is the route that loads
``bessel``; the series does not.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .bessel import (FixedOrderSeries, bessel_i_scaled, bessel_ratio,
                     log_scaled_asymptotic)
from .errors import DomainError
from .incgamma import log_q_increment
from .logscale import exp_clipped
from .nuttall import series_value
from .query import MomentQuery

# The smallest normal double.
_TINY = sys.float_info.min
# Below this the ladder's carried forcing term is seeded again from its
# closed form, as the series re-seeds its increment.
_INC_RESEED = 1e-300
# Entries (eta_max + 1) * n_cols above which a table is refused before it is
# built.
MAX_TABLE_ENTRIES = 10**6
# A ladder entry's sum s + t rounds to s where t is below half an ulp of s,
# which is above 2^-54 s; a term bounded at or below this times s is not
# derived, and half of 2^-54 leaves room for the rounding of that bound.
_NEGLIGIBLE = 2.0**-55
# 2^27 + 1: Veltkamp's constant, which splits a double into two 26-bit halves.
_SPLIT = 134217729.0


class RecurrenceTable(namedtuple("RecurrenceTable",
                                 "eta_max mu_start n_cols values")):
    """Grid of Q_{e, mu_start+m} values built by a recurrence in mu.

    Row e=0 holds Marcum Q values (in [0, 1]); ``values[e][m]`` is
    Q_{e, mu_start+m}, a tuple of eta_max + 1 rows of n_cols floats.

    A named tuple: it unpacks and indexes, and it compares equal to a plain
    tuple of the same values, even to a record of another type.
    """

    __slots__ = ()

    def entry(self, eta: int, col: int) -> float:
        return self.values[eta][col]


def _is_integer(v: float) -> bool:
    # An int is tested as it is: float() of one past 1e308 would overflow.
    return isinstance(v, int) or float(v).is_integer()


def _check_table_args(what: str, eta_max: int, mu_start: float, n_cols: int,
                      x: float, y: float) -> tuple[int, int]:
    """Validate the arguments the table builders and the row filler share,
    with the checks of ``MomentQuery`` on (eta_max, mu_start, x, y); return
    eta_max and n_cols as ints.  More than MAX_TABLE_ENTRIES entries
    (eta_max + 1) * n_cols are refused before anything is built."""
    if not _is_integer(eta_max):
        raise DomainError(f"{what} requires integer eta, got {eta_max!r}")
    eta_max = int(eta_max)
    if not (_is_integer(n_cols) and n_cols >= 1):
        raise DomainError(f"n_cols must be an integer >= 1, got {n_cols!r}")
    n_cols = int(n_cols)
    entries = (eta_max + 1) * n_cols
    if entries > MAX_TABLE_ENTRIES:
        raise DomainError(f"{what} needs (eta + 1) * n_cols = {entries} "
                          f"entries, over the limit of {MAX_TABLE_ENTRIES}")
    MomentQuery(eta_max, mu_start, x, y)
    return eta_max, n_cols


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """(p, err) with p = fl(a b) and a b = p + err exactly (Dekker's
    product, by Veltkamp splitting), barring overflow and underflow."""
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """(s, err) with s = fl(a + b) and a + b = s + err exactly (Knuth)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _gap_square(x: float, y: float) -> tuple[float, float]:
    """(sqrt x - sqrt y)^2 as hi + lo, |lo| at most half an ulp of hi.

    Each square root is its rounded value plus a residual (x - s^2)/(2 s),
    with x - s^2 exact from ``_two_prod``; the difference of the rounded
    roots is a ``_two_sum``, and its square a ``_two_prod``.  The plain
    (sqrt x - sqrt y)^2 is rounded twice over before it is squared, which
    at an exponent of -467 leaves e^{-gap^2} 6.7e-14 off."""
    sx, sy = math.sqrt(x), math.sqrt(y)
    p, err = _two_prod(sx, sx)
    res_x = ((x - p) - err) / (2.0 * sx)
    p, err = _two_prod(sy, sy)
    res_y = ((y - p) - err) / (2.0 * sy)
    d, d_lo = _two_sum(sx, -sy)
    d_lo += res_x - res_y
    sq, sq_lo = _two_prod(d, d)
    return _two_sum(sq, sq_lo + (2.0 * d + d_lo) * d_lo)


def _log_forcing(mu: float, x: float, y: float) -> float:
    """ln T_mu, T_mu = (y/x)^{mu/2} e^{-(sqrt x - sqrt y)^2} Itilde_mu(z)
    with z = 2 sqrt(xy), the log of the Poisson-pair sum sum_n p(n; x)
    p(n+mu; y), p(k; m) = m^k e^{-m} / Gamma(k+1).

    - Past z = 700 it is (mu/2) ln(y/x) - (sqrt x - sqrt y)^2 +
      ``log_scaled_asymptotic(mu, z)``, with y/x under one log where it is
      a normal float: a difference of two logs was 3.7e-14 off at mu =
      30.5, x = 8e7, y = 8.0015e7.
    - Up to z = 700 it is ln(y^mu e^{-y}/Gamma(mu+1)) + z - x + ln(e^{-z}
      S(xy)), the first term from ``log_q_increment(mu, y)`` and the last
      from ``FixedOrderSeries(mu)`` (-y at mu = 0, where the shape of
      ``log_q_increment`` is 0).  At x = 0 the other two are 0, and the
      log is that of the limit y^mu e^{-y}/Gamma(mu+1) of T_mu.
    """
    z = 2.0 * math.sqrt(x) * math.sqrt(y)  # x y underflows at subnormal x
    if z <= 700.0:  # FixedOrderSeries forms e^{-z} S before its log here
        return ((log_q_increment(mu, y) if mu else -y) + (z - x)
                + FixedOrderSeries(mu).log_scaled(x * y, z))
    l_ratio = (math.log(y / x) if _TINY <= y / x < math.inf
               else math.log(y) - math.log(x))
    gap_hi, gap_lo = _gap_square(x, y)
    return 0.5 * mu * l_ratio - gap_hi - gap_lo + log_scaled_asymptotic(mu, z)


def _inhom_term(eta: float, mu: float, x: float, y: float) -> float:
    """(y/x)^{mu/2} y^eta e^{-(sqrt x - sqrt y)^2} Itilde_mu(2 sqrt(xy)).

    The raw e^{-x-y} I_mu product is never formed; the plain-float product
    is used while each factor, y/x included, and each partial product stays
    a normal float.  Its exponent comes as a two-part sum hi + lo from
    ``_gap_square``, and e^{-lo} enters as the factor 1 - lo.  Otherwise
    y^eta T_mu is exponentiated from its log, with ln T_mu from
    ``_log_forcing``.
    """
    if y == 0.0:
        return 0.0
    z = 2.0 * math.sqrt(x) * math.sqrt(y)  # x y underflows at subnormal x
    i_scaled = bessel_i_scaled(mu, z)
    log_y = math.log(y)
    l_y = eta * log_y
    if i_scaled >= _TINY:  # so x > 0: Itilde_mu(0) is 0.0
        l_ratio = log_y - math.log(x)
        l_pow = 0.5 * mu * l_ratio
        gap_hi, gap_lo = _gap_square(x, y)
        # The last two factors are <= 1, so the partial products after the
        # second fall to the value, and a normal value bounds them below.
        if abs(l_ratio) < 700.0 and abs(l_pow) < 680.0 and abs(l_y) < 680.0 \
                and gap_hi < 700.0 and l_pow + l_y < 700.0:
            v = ((y / x) ** (0.5 * mu) * y**eta
                 * (math.exp(-gap_hi) * (1.0 - gap_lo)) * i_scaled)
            if v >= _TINY:
                return v
    return exp_clipped(l_y + _log_forcing(mu, x, y))


def _ratio_sweep(mu_lo: float, n: int, x: float, y: float) -> list[float]:
    """[c_nu] with c_nu = sqrt(y/x) r_nu, r_nu = I_{nu+1}(z)/I_nu(z) and z =
    2 sqrt(xy), at nu = mu_lo, mu_lo+1, ..., mu_lo+n-1: the homogeneous
    coefficients, which are also the steps T_{nu+1}/T_nu of the ladder's
    forcing term.  At z = 0 each is its limit y/(nu+1): 0 at y = 0, and at
    x = 0 the step of T_nu = y^nu e^{-y}/Gamma(nu+1).

    One ``bessel_ratio`` continued fraction at the top order, then the
    backward recurrence r_{nu-1} = 1/(2 nu/z + r_nu), from I_{nu-1} -
    I_{nu+1} = (2 nu/z) I_nu.  The ratios belong to the minimal solution
    and every term is positive, so the recurrence is stable (Gautschi 1967):
    each step multiplies the relative error by r_{nu-1} r_nu < 1.
    """
    z = 2.0 * math.sqrt(x) * math.sqrt(y)  # x y underflows at subnormal x
    if n <= 0 or z == 0.0:
        return [y / (mu_lo + (k + 1)) for k in range(n)]  # [] for n <= 0
    out = [0.0] * n
    r = out[n - 1] = bessel_ratio(mu_lo + (n - 1), z)
    for k in range(n - 2, -1, -1):
        r = out[k] = 1.0 / (2.0 * (mu_lo + (k + 1)) / z + r)
    root = math.sqrt(y) / math.sqrt(x)
    return [root * r for r in out]


def _table(what: str, eta_max: int, mu_start: float, n_cols: int,
           x: float, y: float, homogeneous: bool) -> RecurrenceTable:
    """The row loop of ``nuttall_q_ladder`` and, with ``homogeneous`` set,
    of ``homogeneous_table``; ``what`` names the builder in its errors.

    Each row takes column 0 from the step in eta, or from the series, and
    column 1 from the ladder's step along the row: the columns that the
    next row's step in eta reads.  The ladder steps on to the row's end,
    and the homogeneous table fills the rest by ``_homogeneous_row``.  One
    ``_ratio_sweep`` gives both the forcing term's steps and the
    homogeneous coefficients."""
    eta_max, n_cols = _check_table_args(what, eta_max, mu_start, n_cols, x, y)
    width = max(n_cols, 3) if eta_max else n_cols
    # Columns stepped by the ladder, and forcing terms carried: the eta
    # step needs T at mu_start and mu_start+1.
    cols, n_forcing = ((min(width, 2), min(width - 1, 2)) if homogeneous
                       else (width, width - 1))

    steps = _ratio_sweep(mu_start, width - 2, x, y)
    forcing = []
    t = 0.0  # forces a seed in the first column
    for k in range(n_forcing):
        if k:
            t *= steps[k - 1]
        if not _INC_RESEED <= t < math.inf:
            t = _inhom_term(0, mu_start + k, x, y)
        forcing.append(t)

    # The forcing part of the eta step, over y^{e-1}: x T_{mu+1} + mu T_mu.
    lift = 0.0
    if eta_max and forcing[0] >= _TINY and forcing[1] >= _TINY:
        lift = x * forcing[1] + mu_start * forcing[0]

    rows: list[list[float]] = []
    prev = [0.0] * width
    y_below = 1.0  # y^{e-1}
    for e in range(eta_max + 1):
        try:
            y_e = y**e
        except OverflowError:
            y_e = math.inf
        carry = _TINY <= y_e < math.inf
        seed = math.nan
        if e and lift > 0.0 and _TINY <= y_below < math.inf:
            seed = ((e - 1 + mu_start) * prev[0] + x * prev[1]
                    + y_below * lift)
        if not _TINY <= seed < math.inf:
            seed = series_value(e, mu_start, x, y)
        # A forcing term that is not a normal product is below this.
        bound = _TINY * max(1.0, y_e)
        row = [seed]
        for m in range(1, cols):
            t0 = forcing[m - 1]
            t = t0 * y_e
            if not (carry and t0 >= _TINY and _TINY <= t < math.inf):
                s = row[m - 1] + e * prev[m]
                t = (_inhom_term(e, mu_start + (m - 1), x, y)
                     if bound > _NEGLIGIBLE * s else 0.0)
            row.append(row[m - 1] + e * prev[m] + t)
        if homogeneous:
            row = _homogeneous_row(e, prev, row[0], row[-1], steps)
        prev = [min(v, 1.0) for v in row] if e == 0 else row
        rows.append(prev)
        y_below = y_e
    return RecurrenceTable(eta_max, mu_start, n_cols,
                           tuple(tuple(r[:n_cols]) for r in rows))


def nuttall_q_ladder(eta_max: int, mu_start: float, n_cols: int,
                     x: float, y: float) -> RecurrenceTable:
    """Build the table Q_{e, mu_start+m} by the scaled inhomogeneous ladder.

        Q_{eta,mu+1} = Q_{eta,mu} + eta Q_{eta-1,mu+1} + y^eta T_mu,
        T_mu = (y/x)^{mu/2} e^{-(sqrt x - sqrt y)^2} Itilde_mu(2 sqrt(xy))

    fills each row left to right from its first entry.  Only the first entry
    of row 0, the Marcum value Q_{0,mu_start}, comes from the series; row e
    >= 1 starts from the row below by the relation in eta

        Q_{e,mu} = (e-1+mu) Q_{e-1,mu} + x Q_{e-1,mu+1}
                   + y^{e-1} (x T_{mu+1} + mu T_mu),   mu = mu_start.

    In the series, write (mu+n)_e = (mu+n)_{e-1} (e-1+mu+n) and Q_{e+mu+n}(y)
    = Q_{e-1+mu+n}(y) + y^{e-1+mu+n} e^{-y}/Gamma(e+mu+n).  The factor
    e-1+mu gives (e-1+mu) Q_{e-1,mu}, the factor n shifts n by one into
    x Q_{e-1,mu+1}, and the increments sum to y^e T_{mu-1}; y T_{mu-1} = x
    T_{mu+1} + mu T_mu by I_{nu-1} = I_{nu+1} + (2 nu/z) I_nu, so no
    negative order is needed.  Every right-hand term of both relations is
    positive, so filling bottom to top and left to right is stable.  The
    eta step reads columns 0 and 1 of the row below and T at mu_start and
    mu_start+1, so a table with rows above 0 is built at least three
    columns wide and only the first n_cols are returned.  Row 0 is clipped
    to 1 like marcum_q.

    The forcing term T comes from ``_inhom_term`` at mu_start, which takes
    its own scaled Bessel value, and is carried along the columns by
    T_{mu+1} = T_mu c_mu, with the coefficients c_mu = sqrt(y/x) r_mu of one
    ``_ratio_sweep``.  Where the running product falls below 1e-300 or
    overflows, or y^e T leaves the normal float range, that entry is seeded
    again from ``_inhom_term``, as the series re-seeds its increment, but
    only where the seed can change the entry.  A fresh T below the normal
    range is below the least normal double, and T <= 1, so a term that is
    not a normal product is below that double times max(1, y^e).  Where
    this bound is at most 2^-55 of the entry's other part s = Q_{e,mu} + e
    Q_{e-1,mu+1}, below half an ulp of s, s + y^e T rounds to s, and the
    entry is s, the same float, with no term derived.  The bound comes from
    y^e, not from the product: where T is 0 or subnormal, the product says
    nothing of y^e T at y^e near 1e300.  Where
    y^{e-1}, T_mu, T_{mu+1} or the stepped entry is not a normal float, the
    row's first entry comes from the series instead.  A series that does
    not converge raises ConvergenceError.  At x = 0, T_mu and c_mu are
    their limits y^mu e^{-y}/Gamma(mu+1) and y/(mu+1), and both relations
    still hold.
    """
    return _table("ladder", eta_max, mu_start, n_cols, x, y, False)


def nuttall_q_homogeneous(eta: int, prev_row: list[float], seed0: float,
                          seed1: float, x: float, y: float, mu_start: float,
                          n_cols: int) -> list[float]:
    """Fill one eta row by the homogeneous three-term recurrence.

        Q_{eta,mu+2} = (1+c) Q_{eta,mu+1} - c Q_{eta,mu}
                       + eta Q_{eta-1,mu+2} - eta c Q_{eta-1,mu+1},
        c = sqrt(y/x) I_{mu+1}(2 sqrt(xy)) / I_mu(2 sqrt(xy))

    The Bessel ratios come from one ``_ratio_sweep`` per call (one continued
    fraction at the top order, none for n_cols <= 2), so no raw Bessel
    magnitudes appear.  ``prev_row`` holds Q_{eta-1, mu_start+m};
    ``seed0``/``seed1`` are Q_{eta, mu_start} and Q_{eta, mu_start+1}.  The
    row is row eta of a table, and the table's size limit holds for it.
    """
    eta, n_cols = _check_table_args("homogeneous recurrence", eta, mu_start,
                                    n_cols, x, y)
    if eta < 1:
        raise DomainError(f"homogeneous recurrence requires eta >= 1, got {eta!r}")
    if len(prev_row) != n_cols:
        raise DomainError(
            f"prev_row has {len(prev_row)} entries, expected n_cols={n_cols}")

    return _homogeneous_row(eta, prev_row, seed0, seed1,
                            _ratio_sweep(mu_start, n_cols - 2, x, y))


def _homogeneous_row(eta: int, prev_row: list[float], seed0: float,
                     seed1: float, coeffs: list[float]) -> list[float]:
    """The row of ``nuttall_q_homogeneous``, len(prev_row) long, with the
    ``_ratio_sweep`` coefficients."""
    out = [seed0]
    if len(prev_row) == 1:
        return out
    out.append(seed1)
    for m in range(2, len(prev_row)):
        c = coeffs[m - 2]
        out.append((1.0 + c) * out[m - 1] - c * out[m - 2]
                   + eta * prev_row[m] - eta * c * prev_row[m - 1])
    # Past the double range the step forms (1+c) inf - c inf.  Entries grow
    # along a row and up the columns, so one that meets inf is inf; a nan
    # carries to the end of the row, so its last entry shows it.
    if math.isnan(out[-1]):
        out = [math.inf if math.isnan(v) else v for v in out]
    return out


def homogeneous_table(eta_max: int, mu_start: float, n_cols: int,
                      x: float, y: float) -> RecurrenceTable:
    """Build the table Q_{e, mu_start+m} by the homogeneous recurrence.

    The counterpart of ``nuttall_q_ladder``, with the same arguments and
    checks, built in the ladder's row loop.  Columns 0 and 1 of each row
    come from the ladder's steps in eta and along the row, so they equal
    the ladder's bit for bit, and a table takes one series call, at (0,
    mu_start).  The rest of every row, row 0 with eta = 0 and a row of
    zeros below it included, is filled by the recurrence of
    ``nuttall_q_homogeneous`` from the row below; row 0 is clipped to 1
    like marcum_q.  The coefficients depend on the column alone and are
    the steps of the ladder's forcing term, so the table takes one ratio
    sweep.  A series that does not converge raises ConvergenceError.
    """
    return _table("homogeneous table", eta_max, mu_start, n_cols, x, y, True)


def consistency_deviation(q: MomentQuery) -> float:
    """Distance from 1 of the rearranged-recurrence ratio.

        | 1 - Q_{eta,mu+1} / (Q_{eta,mu} + eta Q_{eta-1,mu+1} + y^eta T_mu) |

    with T the scaled-Bessel forcing term, at every x >= 0: at x = 0, T_mu
    is its limit y^mu e^{-y}/Gamma(mu+1).  The relation holds for real eta,
    as Gamma(eta+mu+n+1)/Gamma(mu+n+1) = Gamma(eta+mu+n)/Gamma(mu+n) + eta
    Gamma(eta+mu+n)/Gamma(mu+n+1); its middle term drops at eta = 0, and
    for 0 < eta < 1 it would need Q_{eta-1}, outside the domain.  All four
    constituents are produced by the series path; the result is the
    library's internal accuracy metric (expected at or below ~1e-12 over
    the working region), and inf where the denominator underflows to 0 or
    both sides overflow.
    """
    eta, mu, x, y = q
    if 0.0 < eta < 1.0:
        raise DomainError(
            f"consistency check requires eta = 0 or eta >= 1, got {eta!r}")
    num = series_value(eta, mu + 1.0, x, y)
    lower = eta * series_value(eta - 1.0, mu + 1.0, x, y) if eta else 0.0
    den = series_value(eta, mu, x, y) + lower + _inhom_term(eta, mu, x, y)
    dev = abs(1.0 - num / den) if den else math.inf
    return math.inf if math.isnan(dev) else dev
