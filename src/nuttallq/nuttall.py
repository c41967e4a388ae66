"""Moments of the partial non-central chi-squared distribution.

The eta-th moment (Nuttall Q-function)

    Q_{eta,mu}(x, y) = x^{(1-mu)/2} int_y^inf t^{eta+(mu-1)/2}
                       e^{-t-x} I_{mu-1}(2 sqrt(x t)) dt

is evaluated three ways, each in its own module (the package docstring
maps them and lists what they share).  This module holds the first:

* ``nuttall_q_series`` - the expansion in incomplete gamma function ratios,
      e^{-x} sum_n x^n/n! * Gamma(eta+mu+n)/Gamma(mu+n) * Q_{eta+mu+n}(y),
  with every per-term factor produced incrementally: the Poisson weight
  and the gamma ratio as one running product, stepped by x/(n+1) times
  (eta+mu+n)/(mu+n), or by x/(n+1) alone at eta = 0, where the gamma ratio
  is 1; and for the Q factor one add of the increment y^a
  e^{-y}/Gamma(a+1), itself kept as a running product.
  Its first value comes with Q_{eta+mu}(y) from one incomplete-gamma
  prefactor, and it is re-seeded from its log form whenever it drops below
  1e-300.  One loop adds the positive terms to a running sum four at a
  time, with one stop test per block of four, and stops updating the Q
  factor once it has reached its last bit; after that a block adds its
  weights' sum times that factor.  For integer eta the rest of the sum is
  then closed-form: the weights sum to
  M(eta+mu; mu; x), which Kummer's transformation turns into e^x times a
  polynomial of degree eta.  The sum keeps one scale, an exact power of
  two applied once at the end: that of the gamma ratio's rising product,
  that of the weights, moved out of them whenever they pass 1e250, and,
  where Q_{eta+mu}(y) is below the normal range, that of the Q factors,
  taken from its log.

``marcum_q`` is the series at eta = 0, and ``series_value`` the series'
value or ConvergenceError, as the recurrences in ``recurrence`` take it.
The series accepts real eta >= 0.

The series takes its point as a ``MomentQuery``, from ``query``, which also
holds ``evaluate``: that module imports this one only where it runs the
series, so a command that runs another route compiles no line of it, nor
of ``incgamma``.

The two recurrence builders that lived here, ``nuttall_q_ladder`` and
``nuttall_q_homogeneous``, still resolve from this module, as the
benchmark's workloads call them: the first access loads ``recurrence``
and binds the name here.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import ConvergenceError
from .incgamma import log_pochhammer, log_q_increment, q_with_log_increment
from .logscale import exp_clipped
from .query import MomentQuery

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
# two-part ln 2; the series reports non-convergence there, at x = 0 too,
# where that log enters the value.
_LOG_Q_MIN = -1e6
# A Q factor carried times 2^eq that passes 2^_Q_SCALE_BITS hands that
# power of two to eq.
_Q_SCALE_BITS = 64
_Q_SCALE_MAX = 2.0 ** _Q_SCALE_BITS
# The smallest normal double.
_TINY = sys.float_info.min
# Half an ulp of q is more than 2^-54 q, so an increment of at most this
# fraction of q rounds away in q + inc, and later ones that halve do too.
_SATURATED = 2.0 ** -55
# Rising products longer than this take their log from log_pochhammer.
_PRODUCT_MAX_FACTORS = 20_000
# ln 2 = _LN2_HI + _LN2_LO as in fdlibm: the high part ends in 21 zero bits.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


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
                sum, False where 2000 terms ran out first, or where
                ln Q_{eta+mu}(y) is below -1e6, too low to keep ten
                digits.

    A named tuple, ``value, terms, err, ok = nuttall_q_series(q)``: it
    compares equal to a plain tuple of the same values, even to a record of
    another type.
    """

    __slots__ = ()


def _gamma_ratio_parts(eta: float, base: float) -> tuple[float, int, float]:
    """Gamma(eta+base)/Gamma(base) as (mantissa, exponent, log_offset).

    value = mantissa * 2^exponent * exp(log_offset).  The integer part m of
    eta uses the rising product base (base+1) ... (base+m-1), whose binary
    exponent moves into ``exponent``, an exact rescale, wherever it passes
    1e280, or 1e300 over base + m where that is lower, so that no multiply
    leaves the range (at base = 1.2e31, eta = 10 the tenth would); a
    subnormal base enters it by its mantissa and exponent.  So the mantissa
    keeps the few ulp of its multiplies, where an exp(lgamma-difference) or
    a log of the product costs ~|log| eps, and a multiply into the
    subnormal range loses digits (3.0e-5 of the series' value at mu =
    3e-320, eta = 2.5).
    A fractional part f multiplies in Gamma(c+f)/Gamma(c), c = base+m, from
    ``log_pochhammer``, whose log is of the size of f ln c, and goes into
    the offset where that log is 64 or more in size.  At c near 0 the log
    is about ln(c/(c+f)) instead, and the ratio goes in as c/(c+f) times
    e^{ln (c+1)_f}, with c's binary exponent in ``exponent`` and the rest
    in the mantissa: at c = 1e-300, f = 1e-20 the log of -644.7 would carry
    5e-14 of rounding into the value.  Past 20,000 factors the whole ratio
    is the offset ``log_pochhammer(base, eta)``.
    """
    if eta > _PRODUCT_MAX_FACTORS:
        return 1.0, 0, log_pochhammer(base, eta)
    m = math.floor(eta)
    frac = eta - m
    mant, exponent, offset = 1.0, 0, 0.0
    if m and base < _TINY:
        # (b)_m = b (b+1)_{m-1}: a subnormal b enters by its mantissa and
        # exponent, where a multiply into the subnormal range drops digits.
        (mant, exponent), base, m = math.frexp(base), base + 1.0, m - 1
    limit = min(1e280, 1e300 / (base + m))  # base + m passes every factor
    for k in range(m):
        mant *= base + k
        if mant > limit:
            mant, e = math.frexp(mant)
            exponent += e
    if frac:
        c = base + m
        log_frac = log_pochhammer(c, frac)
        if abs(log_frac) < 64.0:
            mant *= math.exp(log_frac)
        elif c < 1.0:
            # (c)_f = c/(c+f) (c+1)_f: the first factor, which holds all of
            # a log this far below 0, enters unrounded by a log, as c's
            # mantissa over c+f, so a subnormal c keeps its digits too.
            m_c, e = math.frexp(c)
            mant *= m_c / (c + frac) * math.exp(log_pochhammer(c + 1.0, frac))
            exponent += e
        else:
            offset += log_frac
    return mant, exponent, offset


def _times_exp(m: float, e: int, log_scale: float) -> float:
    """m 2^e e^log_scale for m in [1/4, 1), inf where it overflows.

    e^log_scale is split as 2^k e^r with k = round(log_scale / ln 2), and r
    = log_scale - k ln 2 is formed with fdlibm's two-part ln 2, whose high
    part times k is exact for |k| < 2^21.  So m e^r stays within [0.17,
    1.5], however far out of double range 2^e and e^log_scale are, and only
    the final ``ldexp`` rounds to a subnormal or to zero where the value
    itself is that small.  Values far past either end of the double range
    return inf or 0.0 at once.

    The series passes log_scale = offset - x, its logs that arrive as logs
    less x.  At x = 0 an underflowed ln Q_{eta+mu}(y) is in the offset, and
    a gamma exponent e past 2^21 (mu from ~4e31 at 20,000 factors) can bring
    that value back into range with |k| past 2^21.  So k's nearest multiple
    of 2^21 is taken off first, its product with the high part exact too:
    r keeps fdlibm's accuracy to |k| < 2^31, past any e the series can
    reach (below 2^25 in size).
    """
    log_value = log_scale + e * math.log(2.0)
    if log_value > 712.0:
        return math.inf
    if log_value < -747.0:
        return 0.0
    k = round(log_scale / math.log(2.0))
    k_hi = (k + (1 << 20)) >> 21 << 21  # 0 wherever |k| < 2^20
    r = ((log_scale - k_hi * _LN2_HI) - (k - k_hi) * _LN2_HI) - k * _LN2_LO
    try:
        return math.ldexp(m * math.exp(r), e + k)
    except OverflowError:
        return math.inf


def _kummer_polynomial(eta: float, mu: float, x: float) -> float:
    """L = sum_{j=0}^{eta} C(eta, j) x^j / (mu)_j, a sum of positive terms.

    By Kummer's transformation (DLMF 13.2.39), e^x L = M(eta+mu; mu; x) =
    sum_n x^n/n! (eta+mu)_n/(mu)_n, the sum of the series' weights.  The
    sum stops at a term of at most 2^-55 of it where the ratios have fallen
    to 1/2: each later term is at most half the one before, so together
    they add at most that term, less than half an ulp of the sum, and the
    sum is the one that adding them would give.
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
    running sum, carried times an exact power of two 2^(scale + eq) and a
    factor e^(offset - x), both applied once at the end: scale holds the
    binary exponents moved out of the gamma ratio (``_gamma_ratio_parts``)
    and of the weights, eq those of the Q factors, and offset only logs
    that arrive as logs, the gamma ratio's ``log_pochhammer`` parts and,
    at x = 0, an underflowed ln Q_{eta+mu}(y).  No running product is
    rescaled by its log.  The terms are positive, so the sum's rounding is
    at most (n-1) eps of it for n terms (Higham 2002, section 4.2), as much
    as each term carries from its running products: an exact sum would
    gain nothing.

    The terms are summed in blocks of four, n = 0-3, 4-7, ..., and every
    check below runs once per block.  Once a + 2 > 2y and the increment is
    at most 2^-55 of the Q factor at the end of a block, that increment is
    below half an ulp of the factor, which is more than 2^-54 of it, and
    every later one is at most half the one before: adding them leaves the
    factor as it is, bit for bit.  The factor has saturated and is no
    longer updated, while the same loop goes on stepping the weights.  For
    integer eta with Q_{eta+mu}(y) >= 1/2, the rest of the series is then
    known in closed form: the weights sum to e^x L (``_kummer_polynomial``),
    so the terms not yet summed add Q * (e^x L - the weights summed so
    far), and the sum stops there.  The guard keeps the whole sum at e^x L
    / 2 or more, so that subtraction costs at most one bit.  This needs no
    fold of the weights yet, and e^x L in double range.

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

    The weights x^n/n! (eta+mu)_n/(mu)_n, each term's factor relative to n
    = 0, are one running product, stepped by x/(n+1) times
    (eta+mu+n)/(mu+n).  Past 1e250 the weights and the sum move the
    weight's binary exponent into scale, which ends the closed-form tail:
    its weights' sum would need it too.  The fold takes the new weight's
    mantissa and exponent from those of the old weight and of the step's
    factors, as the weight, or the step itself, can overflow: at n = 0 with
    mu near 0 by (eta+mu)/mu, and at x near the double max.  A fused step x
    (eta+mu+n) / ((n+1)(mu+n)) would underflow in its numerator at mu near
    0 and drop every term after n = 0.  At eta = 0 the second quotient is 1
    and is not formed, and neither is the gamma ratio.

    The re-seed, the move of powers of two into eq and the fold of the
    weights run per term, so a value near overflow or a first step at mu
    near 0 is folded where it arises.  Once the Q factor has saturated, a
    block whose weights cannot reach the fold adds their sum times the
    fixed factor.
    """
    eta, mu, x, y = q

    # The gamma ratio, mant 2^scale e^offset; scale takes the weights' folds.
    if eta == 0.0:
        if y == 0.0:
            # Integral over the whole half-line: exactly 1.
            return SeriesOutcome(1.0, 1, 0.0, True)
        mant, scale, offset = 1.0, 0, 0.0  # Gamma(mu)/Gamma(mu)
    else:
        mant, scale, offset = _gamma_ratio_parts(eta, mu)

    # Q_{eta+mu}(y), its log and the log of its first increment, from one
    # prefactor.
    q0, q_log, log_inc = q_with_log_increment(eta + mu, y)
    eq = 0  # the power of two the Q factors are carried times
    if x == 0.0:
        # Only the n=0 term survives: Gamma(eta+mu, y) / Gamma(mu); one that
        # underflowed, or lost digits as a subnormal, enters by its log.
        running, offset = ((q0, offset) if q0 >= _TINY
                           else (1.0, offset + q_log))
        n, contrib, converged = 0, 0.0, True
    else:
        tol, max_terms, fold_limit = _SERIES_TOL, _MAX_TERMS, _FOLD_LIMIT
        em, two_y, sat = eta + mu, 2.0 * y, _SATURATED
        q_cur, reseed_at = q0, _INC_RESEED
        if q0 < _TINY and q_log > _LOG_Q_MIN:
            # The larger of Q_{eta+mu}(y) and its increment lands near 1.
            eq = round(max(q_log, log_inc) / math.log(2.0))
            q_cur = exp_clipped((q_log - eq * _LN2_HI) - eq * _LN2_LO)
            # 1e-300 2^-eq; past 2^1900 every carried increment is below it.
            reseed_at = math.ldexp(_INC_RESEED, min(-eq, 1900))
        inc = exp_clipped((log_inc - eq * _LN2_HI) - eq * _LN2_LO)
        closed_tail = (q0 >= 0.5 and float(eta).is_integer()
                       and eta <= _MAX_TERMS)
        saturated = y == 0.0  # no later increment can change q_cur
        u = 1.0       # running x^n/n! * ratio-growth, relative to the n=0 term
        u_sum = 1.0   # the u of the terms summed so far
        running = t1 = t2 = t3 = q_cur  # the sum and its three newest terms
        n = 0.0  # index of the newest term, which is t3 (a float counter)
        steps = range(3)  # term 0 starts the first block
        converged = False

        while True:
            if saturated and closed_tail:
                closed_tail = False
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
                n1, n2, n3 = n + 1.0, n + 2.0, n + 3.0
                r = x / n1
                if eta:
                    r *= (em + n) / (mu + n)
                # The step ratios fall with n, so no weight of the block
                # passes u r^4 (u itself where r <= 1, and u is below the
                # fold); past the fold the block takes the steps below,
                # which fold it.
                if u * (r * r) * (r * r) <= fold_limit:
                    u1 = u * r
                    n += 4.0
                    if eta:
                        u2 = u1 * (x / n2 * ((em + n1) / (mu + n1)))
                        u3 = u2 * (x / n3 * ((em + n2) / (mu + n2)))
                        u = u3 * (x / n * ((em + n3) / (mu + n3)))
                    else:
                        u2 = u1 * (x / n2)
                        u3 = u2 * (x / n3)
                        u = u3 * (x / n)
                    w = u1 + u2 + u3 + u
                    running += q_cur * w
                    u_sum += w
                    t1, t2, t3 = q_cur * u2, q_cur * u3, q_cur * u
                    continue
            for _ in steps:
                u_prev = u
                if eta:
                    u *= x / (n + 1.0) * ((em + n) / (mu + n))
                else:
                    u *= x / (n + 1.0)
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
                    # Rescale the sum by 2^-k, exactly, with k the binary
                    # exponent of the new u, which keeps its mantissa.
                    # Both come from those of the old u and of the step's
                    # factors, so no product leaves the range where u, or
                    # the step itself, overflowed: (eta+mu)/mu at mu near
                    # 0, which x brings back, or x near the double max.
                    # Term 0 is rescaled too, and drops out only where it
                    # is below the range.
                    j = n - 1.0  # the step's index
                    (m0, e0), (mx, ex), (me, ee), (mm, e_mu) = map(
                        math.frexp, (u_prev, x / n, em + j, mu + j))
                    u, k = m0 * mx * me / mm, e0 + ex + ee - e_mu
                    running, scale = math.ldexp(running, -k), scale + k
                    # u_sum, which only the closed tail reads, keeps the
                    # old scale, so the closed tail is off.
                    closed_tail = False
                t1, t2, t3 = t2, t3, u * q_cur
                running += t3
                u_sum += u
            steps = _BLOCK
            if not saturated:
                saturated = inc <= sat * q_cur and em + n + 1.0 > two_y
        contrib = t3 / running if running > 0.0 else 0.0
    converged = converged and q_log > _LOG_Q_MIN
    value = _scaled_value(running, mant, scale + eq, offset - x)
    if eta == 0.0:
        value = min(value, 1.0)
    est_error = max(contrib, 1e-16)
    return SeriesOutcome(value, int(n) + 1, est_error, converged)


def marcum_q(mu: float, x: float, y: float) -> float:
    """Generalized Marcum Q-function: the moment of order eta = 0.

    Shares the series code path bit for bit.  The complementary cumulative
    P is available as 1 - marcum_q; no separate algorithm exists for it.
    """
    return series_value(0.0, mu, x, y)


def series_value(eta: float, mu: float, x: float, y: float) -> float:
    """The series value of Q_{eta,mu}(x, y); ConvergenceError if it stalls."""
    out = nuttall_q_series(MomentQuery(eta, mu, x, y))
    if not out.converged:
        raise ConvergenceError(
            f"series did not converge at eta={eta}, mu={mu}, x={x}, y={y}")
    return out.value


# The recurrence builders still served from here (see the docstring).
_MOVED = frozenset({"nuttall_q_homogeneous", "nuttall_q_ladder"})


def __getattr__(name: str):
    """A name of ``_MOVED``, from ``recurrence`` on its first access (PEP
    562), then bound here; any other missing name raises AttributeError."""
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import recurrence
    value = globals()[name] = getattr(recurrence, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MOVED)
