"""Moments of the partial non-central chi-squared distribution.

The eta-th moment (Nuttall Q-function)

    Q_{eta,mu}(x, y) = x^{(1-mu)/2} int_y^inf t^{eta+(mu-1)/2}
                       e^{-t-x} I_{mu-1}(2 sqrt(x t)) dt

is evaluated three ways (what they share is listed below):

* ``nuttall_q_series`` - the expansion in incomplete gamma function ratios,
      e^{-x} sum_n x^n/n! * Gamma(eta+mu+n)/Gamma(mu+n) * Q_{eta+mu+n}(y),
  with every per-term factor produced incrementally: one multiply for the
  Poisson weight, one for the gamma ratio, and for the Q factor one add of
  the increment y^a e^{-y}/Gamma(a+1), itself kept as a running product.
  Its first value comes with Q_{eta+mu}(y) from one incomplete-gamma
  prefactor, and it is re-seeded from its log form whenever it drops below
  1e-300.  One loop adds the positive terms to a running sum four at a
  time, with one stop test per block of four, and stops updating the Q
  factor once it has reached its last bit; after that a block adds its
  weights' sum times that factor.  For integer eta the rest of the sum is
  then closed-form: the weights sum to
  M(eta+mu; mu; x), which Kummer's transformation turns into e^x times a
  polynomial of degree eta.  Where Q_{eta+mu}(y) is below the normal
  range, the Q factors and the sum are carried times an exact power of
  two, taken from its log and applied once at the end.
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
  ``homogeneous_table`` drives it row by row, row 0 included, from the
  first two columns of the ladder's table.  The two tables then share their
  one series call and their forcing terms, so their agreement checks the
  two recurrences in mu, not the boundary.

Both recurrences take their Bessel data along the columns from one sweep of
ratios r_mu = I_{mu+1}/I_mu at z = 2 sqrt(xy) (``_ratio_sweep``): one
continued fraction at the top order, then a stable backward recurrence.
The homogeneous coefficient is sqrt(y/x) r_mu, and the ladder carries its
forcing term along a row as a running product with the same factor.  At
x = 0 the recurrences hold unchanged, with the limits y/(mu+1) of that
coefficient and y^mu e^{-y}/Gamma(mu+1) of the forcing term T_mu.

``consistency_deviation`` rearranges the recurrence into a ratio whose
distance from 1 measures the joint accuracy of everything above; it is the
library's internal accuracy metric.

``evaluate`` takes a route by its name and gives an ``Evaluation``; it is
the one place that turns a method name into a route call, and the CLI's
``eval`` and ``sweep`` print through it.

The routes are not wholly independent, so their agreement does not check
what they share:

* quadrature nodes past z = 700 take e^{-z} I from
  ``bessel.log_poisson_pair_sum``, whose peak log comes from
  ``incgamma.log_q_increment`` and its ``_log_gamma_prefactor``, the
  functions behind the series' Q factors;
* the ladder's forcing term and the quadrature kernel both take the
  Bessel power series ``bessel._series_sum`` and ``_power_over_gamma``;
* the ladder and the homogeneous table share their one series seed, their
  forcing terms and their ratio sweep.

The series accepts real eta >= 0.  Both recurrences couple eta to eta-1 down
to the Marcum base case and therefore require integer eta.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .bessel import bessel_i_scaled, bessel_ratio, log_poisson_pair_sum
from .errors import ConvergenceError, DomainError
from .incgamma import log_pochhammer, log_q_increment, q_with_log_increment
from .logscale import exp_clipped

# Relative contribution below which a series term counts as quiet.
_SERIES_TOL = 1e-14
# Terms after which the series gives up and reports non-convergence.
_MAX_TERMS = 2000
# The steps of a block of four series terms, which the stop test reads once.
_BLOCK = range(4)
# Running-term scale that triggers a renormalization of the partial sums.
_FOLD_LIMIT = 1e250
# Below this the running Q increment is re-seeded from its log form, since a
# multiply cannot climb back out of underflow or recover subnormal digits.
_INC_RESEED = 1e-300
# Below this ln Q_{eta+mu}(y), rounded to ~|ln Q| eps, keeps under ten
# digits, and 2^eq of the same size no longer splits exactly against the
# two-part ln 2; a series with x > 0 reports non-convergence there.
_LOG_Q_MIN = -1e6
# A Q factor carried times 2^eq that passes 2^_Q_SCALE_BITS hands that
# power of two to eq.
_Q_SCALE_BITS = 64
_Q_SCALE_MAX = 2.0 ** _Q_SCALE_BITS
# The smallest normal and the largest finite double.
_TINY = sys.float_info.min
_HUGE = sys.float_info.max
# An increment below this fraction of the Q factor is below half its ulp.
_SATURATED = 2.0 ** -60
# Entries (eta_max + 1) * n_cols above which a table is refused before it is
# built.
MAX_TABLE_ENTRIES = 10**6
# Rising products longer than this take their log from log_pochhammer.
_PRODUCT_MAX_FACTORS = 20_000
# ln 2 = _LN2_HI + _LN2_LO as in fdlibm: the high part ends in 21 zero bits.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# 2^27 + 1: Veltkamp's constant, which splits a double into two 26-bit halves.
_SPLIT = 134217729.0


def _require_finite(name: str, v: float) -> None:
    # A comparison, not math.isfinite, which raises OverflowError for an int
    # past the double range; such an int is not shown in full.
    if not -_HUGE <= v <= _HUGE:
        shown = ("an int past the double range" if isinstance(v, int)
                 else repr(v))
        raise DomainError(f"{name} must be finite, got {shown}")


class MomentQuery(namedtuple("MomentQuery", "eta mu x y")):
    """Parameter 4-tuple (eta, mu, x, y) for one moment evaluation.

    eta: moment order, >= 0 (integer required by the recurrence methods);
    mu:  degrees-of-freedom parameter, > 0;
    x:   non-centrality, >= 0;
    y:   lower integration limit, >= 0.

    A named tuple: it unpacks and indexes, and it compares equal to a plain
    tuple of the same values, even to a record of another type.
    """

    __slots__ = ()

    def __new__(cls, eta: float, mu: float, x: float, y: float) -> MomentQuery:
        huge = _HUGE
        if not (0.0 <= eta <= huge and 0.0 < mu <= huge
                and 0.0 <= x <= huge and 0.0 <= y <= huge):
            for name, v in zip(cls._fields, (eta, mu, x, y)):
                _require_finite(name, v)
            if eta < 0.0:
                raise DomainError(f"eta must be >= 0, got {eta!r}")
            if mu <= 0.0:
                raise DomainError(f"mu must be > 0, got {mu!r}")
            if x < 0.0:
                raise DomainError(f"x must be >= 0, got {x!r}")
            if y < 0.0:
                raise DomainError(f"y must be >= 0, got {y!r}")
        return tuple.__new__(cls, (eta, mu, x, y))

    @classmethod
    def _make(cls, iterable) -> MomentQuery:
        # namedtuple's own _make, which _replace calls, builds the tuple
        # without __new__; build through it, so a replaced field is checked.
        return cls(*iterable)


class SeriesOutcome(namedtuple("SeriesOutcome",
                               "value terms_used est_error converged")):
    """Series value plus convergence metadata.

    value:      Q_{eta,mu}(x, y);
    terms_used: terms summed, n = 0 included: 1, or a multiple of four
                once the series has summed a block of four; a closed-form
                tail (see ``nuttall_q_series``) counts none;
    est_error:  relative contribution of the last term summed, the last of
                its block, floored at 1e-16; 1e-16 where a closed-form
                tail ended the sum, and 0.0 for the exact eta = 0, y = 0
                value 1;
    converged:  True where the stop rule or a closed-form tail ended the
                sum, False where 2000 terms ran out first, or where x > 0
                and ln Q_{eta+mu}(y) is below -1e6, too low to keep ten
                digits.

    A named tuple, ``value, terms, err, ok = nuttall_q_series(q)``: it
    compares equal to a plain tuple of the same values, even to a record of
    another type.
    """

    __slots__ = ()


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


# The routes ``evaluate`` takes by name.
METHODS = ("series", "ladder", "homogeneous", "quadrature")


class Evaluation(namedtuple("Evaluation",
                            "value method terms est_error converged")):
    """One value by a named route, as ``evaluate`` gives it.

    value:     Q_{eta,mu}(x, y);
    method:    the route, one of ``METHODS``;
    terms:     the series' ``terms_used`` or the quadrature's ``nodes``;
               None for the recurrences, which count no work;
    est_error: the series' or the quadrature's ``est_error``; None for the
               recurrences, which estimate none;
    converged: the series' flag; True for the other routes, which raise
               ConvergenceError where they fail.

    A named tuple: it unpacks and indexes, and it compares equal to a plain
    tuple of the same values, even to a record of another type.
    """

    __slots__ = ()


def _gamma_ratio_parts(eta: float, base: float) -> tuple[float, float]:
    """Gamma(eta+base)/Gamma(base) as (mantissa, log_offset).

    value = mantissa * exp(log_offset).  The integer part m of eta uses the
    rising product base (base+1) ... (base+m-1), folding into the offset
    only when the running product threatens double range; that keeps the
    mantissa accurate to a few ulp instead of the ~|log| * eps an
    exp(lgamma-difference) costs.  A fractional part f multiplies in
    Gamma(c+f)/Gamma(c), c = base+m, from ``log_pochhammer``, whose log is
    of the size of f ln c.  Past 20,000 factors the whole ratio is the
    offset ``log_pochhammer(base, eta)``.
    """
    if eta > _PRODUCT_MAX_FACTORS:
        return 1.0, log_pochhammer(base, eta)
    m = math.floor(eta)
    mant = 1.0
    offset = 0.0
    for k in range(m):
        mant *= base + k
        if mant > 1e280:
            offset += math.log(mant)
            mant = 1.0
    frac = eta - m
    if frac:
        log_frac = log_pochhammer(base + m, frac)
        if abs(log_frac) < 64.0:
            mant *= math.exp(log_frac)
        else:
            offset += log_frac
    return mant, offset


def _times_exp(m: float, e: int, log_scale: float) -> float:
    """m 2^e e^log_scale for m in [1/4, 1), inf where it overflows.

    e^log_scale is split as 2^k e^r with k = round(log_scale / ln 2), and r
    = log_scale - k ln 2 is formed with fdlibm's two-part ln 2, whose high
    part times k is exact for |k| < 2^21.  So m e^r stays within [0.17,
    1.5], however far out of double range 2^e and e^log_scale are, and only
    the final ``ldexp`` rounds to a subnormal or to zero where the value
    itself is that small.  Values far past either end of the double range
    return inf or 0.0 at once.  That also keeps |k| below 2^21, as e is
    the sum of two doubles' exponents and the series' power-of-two scale,
    which ``_LOG_Q_MIN`` keeps below 1.45e6 in size.
    """
    log_value = log_scale + e * math.log(2.0)
    if log_value > 712.0:
        return math.inf
    if log_value < -747.0:
        return 0.0
    k = round(log_scale / math.log(2.0))
    r = (log_scale - k * _LN2_HI) - k * _LN2_LO
    try:
        return math.ldexp(m * math.exp(r), e + k)
    except OverflowError:
        return math.inf


def _kummer_polynomial(eta: float, mu: float, x: float) -> float:
    """L = sum_{j=0}^{eta} C(eta, j) x^j / (mu)_j, a sum of positive terms.

    By Kummer's transformation (DLMF 13.2.39), e^x L = M(eta+mu; mu; x) =
    sum_n x^n/n! (eta+mu)_n/(mu)_n, the sum of the series' weights.  The
    sum stops where the terms left add less than 2^-60 of it.
    """
    sat = _SATURATED
    term = total = 1.0
    k, j = float(eta), 0.0  # float counters: no int-to-float conversions
    while j < k:
        ratio = (k - j) * x / ((j + 1.0) * (mu + j))
        term *= ratio
        total += term
        if term <= sat * total and ratio <= 0.5:
            # The ratios fall with j, so the rest sums to at most term.
            break
        j += 1.0
    return total


def _scaled_value(total: float, mant: float, e: int, log_scale: float
                  ) -> float:
    """total mant 2^e e^log_scale, also where a factor leaves double range.

    total * mant can overflow before e^log_scale brings the value back into
    range (119! times 7.6e111 at (119, 1, 100, 400)), and e^log_scale can
    underflow, or lose digits as a subnormal, where total * mant would bring
    it back.  There, and wherever e is not 0, both keep their own binary
    exponents, and only log_scale is exponentiated: ln(total) + ln(mant)
    would add two more logs of up to ~700, each rounded to ~700 eps.
    """
    factor = 0.0 if e else exp_clipped(log_scale)  # 2^e: the exact way
    value = total * mant * factor
    if total > 0.0 and not (factor >= _TINY and _TINY <= value < math.inf):
        m_total, e_total = math.frexp(total)
        m_mant, e_mant = math.frexp(mant)
        value = _times_exp(m_total * m_mant, e_total + e_mant + e, log_scale)
    return value if total else 0.0  # not 0 * inf


def nuttall_q_series(q: MomentQuery) -> SeriesOutcome:
    """Evaluate Q_{eta,mu}(x, y) by the incomplete-gamma-ratio expansion.

    The Q_{eta+mu+n}(y) factors come from one direct evaluation at n=0
    followed by the forward recurrence Q_{a+1}(y) = Q_a(y) + inc_a with
    inc_a = y^a e^{-y}/Gamma(a+1), a = eta+mu+n.  The n = 0 evaluation and
    the first increment share one prefactor e^{E(a, y)}, E = -y + a ln y -
    ln Gamma(a), as inc_a = e^{E(a, y)}/a (``q_with_log_increment``).  The
    increment is then a running product, inc_{a+1} = inc_a * y/(a+1),
    re-seeded from its log form (``log_q_increment``) whenever it falls
    below 1e-300, where multiplies lose digits.  The terms go into one
    running sum against a floating log offset, which is applied once at the
    end.  They are positive, so the sum's rounding is at most (n-1) eps of
    it for n terms (Higham 2002, section 4.2), as much as each term carries
    from its running products: an exact sum would gain nothing.

    The terms are summed in blocks of four, n = 0-3, 4-7, ..., and every
    check below runs once per block.  Once a + 2 > 2y and the increment is
    below 2^-60 of the Q factor at the end of a block, every later
    increment is at most half the one before and below half an ulp of the
    factor: the factor has saturated and is no longer updated, while the
    same loop goes on stepping the weights.  For integer eta with
    Q_{eta+mu}(y) >= 1/2, the rest of the series is then known in closed
    form: the weights sum to e^x L (``_kummer_polynomial``), so the terms
    not yet summed add Q * (e^x L - the weights summed so far), and the sum
    stops there.  The guard keeps the whole sum at e^x L / 2 or more, so
    that subtraction costs at most one bit.  This needs no fold of the
    weights yet, and e^x L in double range.

    Otherwise a block ends the sum where each of its last three terms is
    at most 1e-14 of the sum, after the term peak near n ~ x has been
    passed: the rule of three consecutive quiet terms, read once per
    block, so it stops at most three terms after a test on every term
    would.  If that has not happened within 2000 terms (x beyond ~1500),
    the outcome says so explicitly; it is never a silent value.

    Where Q_{eta+mu}(y) is below the normal range, the Q factors, their
    increments and the running sum are carried times 2^eq, an exact power
    of two: the integer eq comes once from the larger of ln Q_{eta+mu}(y)
    and the log of its first increment, and eq ln 2 is taken off each log
    before it is exponentiated, with fdlibm's two-part ln 2.  The increment
    is re-seeded wherever its value inc 2^eq is below 1e-300, as elsewhere.
    Each time the carried factor passes 2^64, that power of two moves from
    it, the increment and the sum into eq, which the final value takes
    unrounded through ``_times_exp``.
    Where ln Q_{eta+mu}(y) is below -1e6, too low to keep ten digits, the
    outcome reports non-convergence.  At x = 0 only the n = 0 term is
    left, and a Q_{eta+mu}(y) below the normal range enters by its log
    alone.  ln Q_{eta+mu}(y) comes from the same ``q_with_log_increment``
    call as Q_{eta+mu}(y) and its first increment, so a series call runs
    the continued fraction at most once.

    The re-seed, the move of powers of two into eq and the fold of the
    weights run per term, so a value near overflow or a first step at mu
    near 0 is folded where it arises.  Once the Q factor has saturated, a
    block whose weights cannot reach the fold adds their sum times the
    fixed factor.
    """
    eta, mu, x, y = q.eta, q.mu, q.x, q.y

    mant, offset = _gamma_ratio_parts(eta, mu)

    if eta == 0.0 and y == 0.0:
        # Integral over the whole half-line: exactly 1.
        return SeriesOutcome(1.0, 1, 0.0, True)

    # Q_{eta+mu}(y), its log and the log of its first increment, from one
    # prefactor.
    q0, q_log, log_inc = q_with_log_increment(eta + mu, y)
    eq = 0  # the power of two the Q factors and the sum are carried times
    if x == 0.0:
        # Only the n=0 term survives: Gamma(eta+mu, y) / Gamma(mu); one that
        # underflowed, or lost digits as a subnormal, enters by its log.
        running, shift = (q0, 0.0) if q0 >= _TINY else (1.0, q_log)
        n, contrib, converged = 0, 0.0, True
    else:
        if (x + _MAX_TERMS) * (eta + mu + _MAX_TERMS) > _HUGE:
            # Past this a term ratio's numerator or denominator overflows.
            raise DomainError(f"the series cannot take x = {x!r} with "
                              f"eta + mu = {eta + mu!r}")
        tol, max_terms, fold_limit = _SERIES_TOL, _MAX_TERMS, _FOLD_LIMIT
        em, two_y, sat = eta + mu, 2.0 * y, _SATURATED
        q_cur = q0
        if q0 < _TINY and q_log > _LOG_Q_MIN:
            # The larger of Q_{eta+mu}(y) and its increment lands near 1.
            eq = round(max(q_log, log_inc) / math.log(2.0))
            q_cur = exp_clipped((q_log - eq * _LN2_HI) - eq * _LN2_LO)
        inc = exp_clipped((log_inc - eq * _LN2_HI) - eq * _LN2_LO)
        # 1e-300 2^-eq; past 2^1900 every carried increment is below it.
        reseed_at = math.ldexp(_INC_RESEED, min(-eq, 1900))
        closed_tail = (q0 >= 0.5 and float(eta).is_integer()
                       and eta <= _MAX_TERMS)
        saturated = y == 0.0  # no later increment can change q_cur
        u = 1.0       # running x^n/n! * ratio-growth, relative to the n=0 term
        u_sum = 1.0   # the u of the terms summed so far
        shift = 0.0   # log of the scale of u and running
        running = t1 = t2 = t3 = q_cur  # the sum and its three newest terms
        n = 0.0  # index of the newest term, which is t3 (a float counter)
        steps = range(3)  # term 0 starts the first block
        converged = False

        while True:
            if saturated and closed_tail:
                closed_tail = False
                if shift == 0.0:
                    weights = exp_clipped(x) * _kummer_polynomial(eta, mu, x)
                    if weights < math.inf:
                        running += q_cur * max(0.0, weights - u_sum)
                        t3, converged = 0.0, True  # no term is left out
                        break
            lim = tol * running
            if t1 <= lim and t2 <= lim and t3 <= lim and n > x:
                converged = True
                break
            if n + 5.0 > max_terms:
                break  # the next block would end past term max_terms - 1
            if saturated and steps is _BLOCK:
                r = x * (em + n) / ((n + 1.0) * (mu + n))
                # The step ratios fall with n, so no weight of the block
                # passes u r^4 (u itself where r <= 1, and u is below the
                # fold); past the fold the block takes the steps below,
                # which fold it.
                if u * (r * r) * (r * r) <= fold_limit:
                    n1, n2, n3 = n + 1.0, n + 2.0, n + 3.0
                    u1 = u * r
                    u2 = u1 * (x * (em + n1) / (n2 * (mu + n1)))
                    u3 = u2 * (x * (em + n2) / (n3 * (mu + n2)))
                    n += 4.0
                    u = u3 * (x * (em + n3) / (n * (mu + n3)))
                    w = u1 + u2 + u3 + u
                    running += q_cur * w
                    u_sum += w
                    t1, t2, t3 = q_cur * u2, q_cur * u3, q_cur * u
                    continue
            for _ in steps:
                u *= x * (em + n) / ((n + 1.0) * (mu + n))
                if not saturated:
                    if inc < reseed_at:
                        inc = exp_clipped((log_q_increment(em + n, y)
                                           - eq * _LN2_HI) - eq * _LN2_LO)
                    q_cur += inc
                    inc *= y / (em + n + 1.0)
                    if q_cur > _Q_SCALE_MAX:
                        # Only a factor carried times 2^eq grows past 1.  As
                        # at a fold, the newest terms keep their old scale,
                        # which can only put the stop off by a block.
                        q_cur, inc = q_cur / _Q_SCALE_MAX, inc / _Q_SCALE_MAX
                        running /= _Q_SCALE_MAX
                        eq += _Q_SCALE_BITS
                        reseed_at = math.ldexp(_INC_RESEED, min(-eq, 1900))
                n += 1.0
                if u > fold_limit:
                    # Rescale by 1/u; the closed tail needs shift == 0, so
                    # u_sum, which only it reads, is left as it is.
                    running *= 1.0 / u
                    # Only a first step x (eta+mu)/mu can overflow, with mu
                    # near 0; term 0 is then below 1e-308 of term 1, and
                    # drops out.
                    shift += (math.log(u) if u < math.inf or n > 1.0
                              else math.log(x * em) - math.log(mu))
                    u = 1.0
                t1, t2, t3 = t2, t3, u * q_cur
                running += t3
                u_sum += u
            steps = _BLOCK
            if not saturated:
                saturated = inc <= sat * q_cur and em + n + 1.0 > two_y
        contrib = t3 / running if running > 0.0 else 0.0
        converged = converged and q_log > _LOG_Q_MIN
    value = _scaled_value(running, mant, eq, offset + shift - x)
    if eta == 0.0:
        value = min(value, 1.0)
    est_error = max(contrib, 1e-16)
    return SeriesOutcome(value, int(n) + 1, est_error, converged)


def marcum_q(mu: float, x: float, y: float) -> float:
    """Generalized Marcum Q-function: the moment of order eta = 0.

    Shares the series code path bit for bit.  The complementary cumulative
    P is available as 1 - marcum_q; no separate algorithm exists for it.
    """
    return _series_value(0.0, mu, x, y)


def _series_value(eta: float, mu: float, x: float, y: float) -> float:
    """The series value of Q_{eta,mu}(x, y); ConvergenceError if it stalls."""
    out = nuttall_q_series(MomentQuery(eta, mu, x, y))
    if not out.converged:
        raise ConvergenceError(
            f"series did not converge at eta={eta}, mu={mu}, x={x}, y={y}")
    return out.value


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


def _inhom_term(eta: float, mu: float, x: float, y: float) -> float:
    """(y/x)^{mu/2} y^eta e^{-(sqrt x - sqrt y)^2} Itilde_mu(2 sqrt(xy)).

    The raw e^{-x-y} I_mu product is never formed; the plain-float product
    is used while each factor, y/x included, and each partial product stays
    a normal float.  Its exponent comes as a two-part sum hi + lo from
    ``_gap_square``, and e^{-lo} enters as the factor 1 - lo.  Otherwise
    y^eta T_mu is exponentiated from its log, with ln T_mu =
    ``log_poisson_pair_sum(mu, x, y)``.  At x = 0 that log is exactly
    ln(y^mu e^{-y}/Gamma(mu+1)), the limit of T_mu: its sum is the one term
    n = 0, whose log is ``log_q_increment(mu, y)``.
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
    return exp_clipped(l_y + log_poisson_pair_sum(mu, x, y))


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
    again from ``_inhom_term``, as the series re-seeds its increment.  Where
    y^{e-1}, T_mu, T_{mu+1} or the stepped entry is not a normal float, the
    row's first entry comes from the series instead.  A series that does
    not converge raises ConvergenceError.  At x = 0, T_mu and c_mu are
    their limits y^mu e^{-y}/Gamma(mu+1) and y/(mu+1), and both relations
    still hold.
    """
    eta_max, n_cols = _check_table_args("ladder", eta_max, mu_start, n_cols,
                                        x, y)
    width = max(n_cols, 3) if eta_max else n_cols

    steps = _ratio_sweep(mu_start, width - 2, x, y)
    forcing = []
    t = 0.0  # forces a seed in the first column
    for k in range(width - 1):
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
            seed = _series_value(e, mu_start, x, y)
        row = [seed]
        for m in range(1, width):
            t0 = forcing[m - 1]
            t = t0 * y_e
            if not (carry and t0 >= _TINY and _TINY <= t < math.inf):
                t = _inhom_term(e, mu_start + (m - 1), x, y)
            row.append(row[m - 1] + e * prev[m] + t)
        prev = [min(v, 1.0) for v in row] if e == 0 else row
        rows.append(prev)
        y_below = y_e
    return RecurrenceTable(eta_max, mu_start, n_cols,
                           tuple(tuple(r[:n_cols]) for r in rows))


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
    return out


def homogeneous_table(eta_max: int, mu_start: float, n_cols: int,
                      x: float, y: float) -> RecurrenceTable:
    """Build the table Q_{e, mu_start+m} by the homogeneous recurrence.

    The counterpart of ``nuttall_q_ladder``, with the same arguments and
    checks.  Its boundary, column 0 of every row and column 1 where n_cols
    > 1, is the first min(n_cols, 2) columns of the ladder's table, so a
    table takes one series call, at (0, mu_start).  Every row, row 0 with
    eta = 0 and a row of zeros below it included, is then filled by the
    recurrence of ``nuttall_q_homogeneous`` from the row below; row 0 is
    clipped to 1 like marcum_q.  The coefficients depend on the column
    alone, so every row takes them from one ratio sweep per table.  A
    series that does not converge raises ConvergenceError.
    """
    eta_max, n_cols = _check_table_args("homogeneous table", eta_max,
                                        mu_start, n_cols, x, y)
    edge = nuttall_q_ladder(eta_max, mu_start, min(n_cols, 2), x, y).values
    coeffs = _ratio_sweep(mu_start, n_cols - 2, x, y)
    rows = []
    prev = [0.0] * n_cols
    for e, seeds in enumerate(edge):
        row = _homogeneous_row(e, prev, seeds[0], seeds[-1], coeffs)
        prev = [min(v, 1.0) for v in row] if e == 0 else row
        rows.append(tuple(prev))
    return RecurrenceTable(eta_max, mu_start, n_cols, tuple(rows))


def evaluate(q: MomentQuery, method: str) -> Evaluation:
    """Q_{eta,mu}(x, y) by the route ``method`` names, one of ``METHODS``.

    The recurrences build a table of eta + 1 rows and n_cols = ceil(mu)
    columns, at least one, where mu up to 1e-12 above an integer counts as
    that integer.  It starts at mu_start = mu - (n_cols - 1), in (0, 1] up
    to that slack, and its last entry is the value; the builders check eta
    and the table's size.  An unknown method raises DomainError, and a
    route's own failures raise as the route raises them.
    """
    if method == "series":
        out = nuttall_q_series(q)
        return Evaluation(out.value, method, out.terms_used, out.est_error,
                          out.converged)
    if method == "quadrature":
        from .quadrature import tanh_rule_integrate
        out = tanh_rule_integrate(q)
        return Evaluation(out.value, method, out.nodes, out.est_error, True)
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}")
    n_cols = max(1, math.ceil(q.mu - 1e-12))
    build = nuttall_q_ladder if method == "ladder" else homogeneous_table
    table = build(q.eta, q.mu - (n_cols - 1), n_cols, q.x, q.y)
    return Evaluation(table.entry(table.eta_max, n_cols - 1), method, None,
                      None, True)


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
    num = _series_value(eta, mu + 1.0, x, y)
    lower = eta * _series_value(eta - 1.0, mu + 1.0, x, y) if eta else 0.0
    den = _series_value(eta, mu, x, y) + lower + _inhom_term(eta, mu, x, y)
    dev = abs(1.0 - num / den) if den else math.inf
    return math.inf if math.isnan(dev) else dev
