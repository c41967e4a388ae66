"""Incomplete gamma function ratio Q and its forward-step increment.

Q_mu(y) = Gamma(mu, y) / Gamma(mu) is evaluated by the classical pair:
a Taylor series for the complementary ratio P when y - mu < 1, and a
Legendre-type continued fraction for Q otherwise.  On the P side at shapes
below 1/2, where 1 - P cancels, Q comes from its own series instead.  The unnormalized
Gamma(mu, y) is never formed; only the ratio and log-scaled products leave
this module, so nothing overflows even where the raw values reach 1e89.
Q and the increment also leave it as logarithms (``q_with_log_increment``,
``log_q_increment``), which stay finite where the values underflow.

Both branches scale one prefactor e^{E(a, y)}, E = -y + a ln y - ln Gamma(a),
whose cancellations are grouped as in DiDonato & Morris (ACM TOMS 12, 1986):
a ln(y/a) + a - y enters as a (log(1+u) - u), u = (y-a)/a, summed near u = 0
by the atanh series of log(1+u), and ln Gamma(a) by Stirling's series
beyond a = 8.  The first forward-step increment is e^{E(a, y)}/a, so
``q_with_log_increment`` returns Q, ln Q and the increment's log from one
branch choice and the same prefactor.  ``log_pochhammer`` applies the same
Stirling grouping to Gamma(c+f)/Gamma(c).
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError
from .logscale import exp_clipped

_TOL = 1e-15
# The P series stops where its unsummed tail is below this fraction of Q.
_Q_TOL = 2.0 ** -56
_MAX_ITER = 10_000
_FPMIN = 1e-300

# Stirling-series coefficients B_{2n} / (2n (2n-1)) for the lgamma remainder.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)
_STIRLING_MIN = 8.0

# Below this shape, Q on the P-series side is formed without 1 - P.
_SMALL_SHAPE = 0.5
# zeta(k) - 1, k = 2, 3, ..., 27: the Taylor coefficients of ln Gamma(2+a).
_ZETA_M1 = (
    0.6449340668482264, 0.2020569031595943, 0.08232323371113819,
    0.03692775514336993, 0.01734306198444914, 0.008349277381922827,
    0.00407735619794434, 0.0020083928260822143, 0.0009945751278180853,
    0.0004941886041194645, 0.0002460865533080483, 0.00012271334757848915,
    6.124813505870483e-05, 3.058823630702049e-05, 1.528225940865187e-05,
    7.637197637899763e-06, 3.81729326499984e-06, 1.908212716553939e-06,
    9.539620338727962e-07, 4.769329867878064e-07, 2.38450502727733e-07,
    1.1921992596531106e-07, 5.960818905125948e-08, 2.980350351465228e-08,
    1.4901554828365043e-08, 7.45071178983543e-09,
)
_EULER_GAMMA = 0.5772156649015329


def _validate(shape: float, lower_cut: float) -> None:
    if not shape > 0.0 or math.isinf(shape):
        raise DomainError(f"shape must be finite and > 0, got {shape!r}")
    if not lower_cut >= 0.0 or math.isinf(lower_cut):
        raise DomainError(f"lower_cut must be finite and >= 0, got {lower_cut!r}")


def _stirling_correction(a: float) -> float:
    """theta(a) = lgamma(a) - [(a - 1/2) ln a - a + ln(2 pi)/2], for a >= 8."""
    inv = 1.0 / a
    z = inv * inv
    c0, c1, c2, c3, c4, c5, c6, c7 = _STIRLING
    return (c0 + z * (c1 + z * (c2 + z * (c3 + z * (c4 + z * (c5 + z * (
        c6 + z * c7))))))) * inv


def _log1pmx(u: float) -> float:
    """log(1+u) - u, accurate near u = 0.

    For |u| <= 0.4 it sums log(1+u) = 2 atanh(s), s = u/(2+u), as
    2 (s^3/3 + s^5/5 + ...) - u s: |s| <= 1/4 there, so about 13 terms.
    The sum stops at a term that adds nothing, which s = 0 reaches at once.
    """
    if abs(u) > 0.4:
        return math.log1p(u) - u
    s = u / (2.0 + u)
    s2 = s * s
    power = s * s2
    total = 0.0
    k = 3.0
    while True:
        t = power / k
        total += t
        if abs(t) <= 1e-17 * abs(total):
            return 2.0 * total - u * s
        power *= s2
        k += 2.0


def _log_gamma_prefactor(a: float, y: float) -> float:
    """E(a, y) = -y + a ln y - lgamma(a) with the cancellations grouped.

    This exponent carries the whole magnitude of both incomplete-gamma
    branches and of the forward-recurrence increment, so it is assembled
    from ln(1+u) - u, u = (y-a)/a, and the Stirling remainder instead of
    raw lgamma once a is large enough for that to pay off.
    """
    if a < _STIRLING_MIN:
        return -y + a * math.log(y) - math.lgamma(a)
    u = (y - a) / a
    if u <= -1.0:
        # y/a underflowed; deep left tail, nothing cancels in the plain form.
        # E < a (ln(y/a) + 1) < -35 a there, so where lgamma(a) would
        # overflow E lies far below the double range of e^E.
        if a > 1e305:
            return -math.inf
        return -y + a * math.log(y) - math.lgamma(a)
    # 1 + u = y/a rounds away the digits of a small y/a: take its log whole.
    lx = math.log(y / a) - u if u < -0.5 else _log1pmx(u)
    return (a * lx
            + 0.5 * math.log(a / (2.0 * math.pi))
            - _stirling_correction(a))


def log_pochhammer(base: float, step: float) -> float:
    """ln (base)_step = ln Gamma(base+step)/Gamma(base), base > 0, step >= 0.

    With c = base shifted up to 8 or more by Gamma(c+1) = c Gamma(c), the
    Stirling grouping of ``_log_gamma_prefactor`` gives

        (c - 1/2) log1p(step/c) + step ln(c+step) - step
        + theta(c+step) - theta(c),

    whose terms are of the size of the result, about step ln c, where
    lgamma(base+step) - lgamma(base) cancels two values of size c ln c.
    """
    if not (0.0 < base < math.inf and 0.0 <= step < math.inf):
        raise DomainError("log_pochhammer needs finite base > 0 and step"
                          f" >= 0, got {base!r}, {step!r}")
    shift = 0.0
    if base < _STIRLING_MIN:
        num = den = 1.0
        factors = 0
        while base < _STIRLING_MIN:
            num *= base
            den *= base + step
            base += 1.0
            factors += 1
        ratio = num / den
        # Below 1e-300 (base itself near underflow, or den past the double
        # range) take the two logs apart.  den overflows only where step >
        # 1e38, and there base + step rounds to step.
        shift = (math.log(ratio) if ratio >= _FPMIN
                 else math.log(num) - (math.log(den) if den < math.inf
                                       else factors * math.log(step)))
    return (shift + (base - 0.5) * math.log1p(step / base)
            + step * math.log(base + step) - step
            + (_stirling_correction(base + step) - _stirling_correction(base)))


def _small_shape_q(a: float, y: float) -> tuple[float, float]:
    """(Q(a, y) / a, v), v = a ln y - ln Gamma(1+a), for a < 0.5, y - a < 1.

    There P tends to 1 as a does to 0, so 1 - P cancels.  Instead
    (DiDonato & Morris, ACM TOMS 12, 1986)

        Q = -expm1(v) - a e^v sum_{n>=1} (-y)^n / (n! (a+n)),

    whose sum has y < 1.5, so that 29 terms take it below 1e-25.  The
    log-gamma term enters as ln Gamma(1+a)/a, from the Taylor series of ln
    Gamma(2+a) over a, -log1p(a)/a + 1 - gamma + sum_k (zeta(k) - 1) (-1)^k
    a^{k-1}/k, k = 2, ..., 27: math.lgamma(1 + a) would take a as 1 + a
    rounds it, 1e-6 off at a = 1e-10.  Q is returned over a, so that a
    subnormal a rounds neither v nor Q.
    """
    log_gamma = (a * sum(c * (-a) ** j / (j + 2.0)
                         for j, c in enumerate(_ZETA_M1))
                 + 1.0 - _EULER_GAMMA - math.log1p(a) / a)
    w = math.log(y) - log_gamma
    v = a * w
    tail = sum((-y) ** n / (math.factorial(n) * (a + n)) for n in range(1, 30))
    # -expm1(v)/a = -w expm1(v)/v, and expm1(v)/v is 1 where v underflows.
    return -w * (math.expm1(v) / v if v else 1.0) - math.exp(v) * tail, v


def _p_series(a: float, y: float, pref: float) -> float:
    """P(a, y) = 1 - Q(a, y) by its Taylor series, with pref = e^{E(a, y)};
    requires y - a < 1, and a >= 1/2, where Q >= 0.08.

    The sum stops where a bound of its whole unsummed tail is below 2^-56
    of Q = 1 - P, the value the caller keeps.  The step ratios y/(a+k) fall
    with k and, as y < a + 1, are all below 1, so the terms after the
    newest one, term, add at most term (r + r^2 + ...) = term r / (1 - r),
    r = y/(ap+1) the next ratio.  Q then lies within 2^-56 of itself before
    rounding, and ln Q = log1p(-P) within about 2^-56 absolute.  Where P is
    far below Q this ends the sum within a few terms.  The terms are summed
    four per stop test, so a test on the last of each four stops at most
    three terms after a test on every term would."""
    if pref == 0.0:
        return 0.0
    term = total = 1.0 / a
    ap = a
    for _ in range(_MAX_ITER // 4):
        a1 = ap + 1.0
        a2 = a1 + 1.0
        a3 = a2 + 1.0
        ap = a3 + 1.0
        t1 = term * (y / a1)
        t2 = t1 * (y / a2)
        t3 = t2 * (y / a3)
        term = t3 * (y / ap)
        total += t1 + t2 + t3 + term
        r = y / (ap + 1.0)
        # The bound times 1 - r: where a + 1 rounds to a, r can round to 1,
        # and that sum then runs into the stall below.
        if pref * term * r < _Q_TOL * (1.0 - pref * total) * (1.0 - r):
            return pref * total
    raise ConvergenceError(f"P series stalled for shape={a}, y={y}")


def _cont_frac(a: float, y: float) -> float:
    """Q(a, y) / e^{E(a, y)} by the Legendre continued fraction (modified
    Lentz); requires y - a >= 1, which keeps y + 1 - a > 0 also where a + 1
    rounds to a.

    No denominator needs a floor, and C starts infinite, as in
    ``bessel_ratio``.  With w = y - a >= 1, the fraction has b_i = w + 1 +
    2i and a_i = -i (i - a), and both denominators, D_i = b_i + a_i /
    D_{i-1} from D_0 = b_0 and C_i = b_i + a_i / C_{i-1} from C_1 = b_1,
    stay at or above b_i/2 >= 1 by induction: where a_i >= 0 they are at
    least b_i, and where a_i < 0, b_i - 2|a_i| / b_{i-1} >= b_i/2 holds, as
    b_i b_{i-1} = (w + 2i)^2 - 1 >= 4i^2 + 4i >= 4i (i - a).
    """
    b = y + 1.0 - a
    c = math.inf
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _TOL:
            return h
    raise ConvergenceError(f"Q continued fraction stalled for shape={a}, y={y}")


def q_with_log_increment(shape: float, lower_cut: float
                         ) -> tuple[float, float, float]:
    """(Q_shape(y), ln Q_shape(y), ln inc), inc = y^shape e^{-y} /
    Gamma(shape+1), y = lower_cut, from one branch choice, where Q_shape(y)
    = Gamma(shape, y)/Gamma(shape) is the incomplete gamma function ratio.

    Q lies in [0, 1], with relative accuracy ~1e-13 or better for shape in
    (0, 200] and lower_cut in [0, 200].

    Q and inc share one prefactor e^{E(shape, y)}: the P series or the
    continued fraction scales it to Q, and inc = e^{E(shape, y)} / shape, so
    a caller that steps Q forward pays for E once.  ln Q stays finite
    however deep Q lies below double range:

    * on the continued-fraction side it is the log of the prefactor plus
      the log of the fraction, the two never multiplied;
    * on the Taylor-series side below shape 1/2 it is ln shape plus the log
      of ``_small_shape_q``'s Q/shape, finite also where Q underflows at a
      subnormal shape, and the increment's log comes from its v;
    * above shape 1/2 on that side Q >= Q(1/2, 3/2) = 0.08, and ln Q is
      log1p(-P).  The P series leaves out less than 2^-56 of Q, so ln Q
      carries an absolute error of about 2^-56 there, which is what
      e^{ln Q} needs: where P is far below Q, ln Q ~ -P keeps fewer
      digits than P.

    On the continued-fraction side below shape 1/2, E(shape, y) holds
    lgamma(shape) ~ -ln shape, which would cancel against ln shape, so
    ln inc is -y + shape ln y - lgamma(1 + shape) there.  lower_cut == 0
    gives (1.0, 0.0, -inf).
    """
    _validate(shape, lower_cut)
    if lower_cut == 0.0:
        return 1.0, 0.0, -math.inf
    p_side = lower_cut - shape < 1.0
    if p_side and shape < _SMALL_SHAPE:
        ratio, v = _small_shape_q(shape, lower_cut)
        # Where P lies below an ulp of 1, rounding can put Q/shape an ulp
        # above 1/shape, and so Q above 1 and ln Q above 0.
        return (min(1.0, shape * ratio),
                min(0.0, math.log(shape) + math.log(ratio)), v - lower_cut)
    log_pref = _log_gamma_prefactor(shape, lower_cut)
    pref = exp_clipped(log_pref)
    if p_side:
        p = _p_series(shape, lower_cut, pref)
        return 1.0 - p, math.log1p(-p), log_pref - math.log(shape)
    frac = _cont_frac(shape, lower_cut)
    log_inc = (log_pref - math.log(shape) if shape >= _SMALL_SHAPE
               else (-lower_cut + shape * math.log(lower_cut)
                     - math.lgamma(1.0 + shape)))
    return pref * frac, log_pref + math.log(frac), log_inc


def log_q_increment(shape: float, lower_cut: float) -> float:
    """ln of the forward-step increment y^shape e^{-y} / Gamma(shape+1).

    Finite wherever lower_cut > 0, also where the increment itself lies
    below double range; lower_cut == 0 gives -inf.
    """
    _validate(shape, lower_cut)
    if lower_cut == 0.0:
        return -math.inf
    return (_log_gamma_prefactor(shape + 1.0, lower_cut)
            - math.log(lower_cut))
