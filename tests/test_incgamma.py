"""Tests for the incomplete gamma ratio, its forward ladder, and gamma ratios."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuttallq import (ConvergenceError, DomainError, MomentQuery,
                      log_q_increment, nuttall_q_series)
from nuttallq import incgamma
from nuttallq.incgamma import log_pochhammer, q_with_log_increment

from oracles import gamma_q_half_integer, gamma_q_integer, rising_product_int


def _shape_ratio(eta, base):
    """Gamma(eta+base)/Gamma(base): the moment at x = 0, y = 0."""
    return nuttall_q_series(MomentQuery(eta, base, 0.0, 0.0)).value


def test_closed_form_points():
    assert q_with_log_increment(1.0, 1.5)[0] == pytest.approx(
        math.exp(-1.5), rel=1e-15, abs=0.0)
    assert q_with_log_increment(3.0, 0.0)[0] == 1.0
    assert q_with_log_increment(2.0, 1.0)[0] == pytest.approx(
        2.0 * math.exp(-1.0), rel=1e-15, abs=0.0)


def test_integer_shape_grid_vs_oracle():
    for k in (1, 2, 3, 5, 8, 12, 20, 40):
        for y in (0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 60.0):
            ref = gamma_q_integer(k, y)
            if ref < 1e-280:
                continue
            assert q_with_log_increment(float(k), y)[0] == pytest.approx(
                ref, rel=5e-14, abs=0.0), (k, y)


# Q(n, n + 1/2), n = 1, ..., 60, from mpmath at 40 digits: the P side
# (y - n < 1), half a step below where the continued fraction takes over.
P_SIDE_INTEGER_SHAPES = (
    2.231301601484298289332805e-1, 2.872974951836457830933504e-1,
    3.208471988621340703602294e-1, 3.422959558345910689124103e-1,
    3.575180024279255273735931e-1, 3.690406835506195755654998e-1,
    3.781546943234693151402541e-1, 3.855971018271526103491879e-1,
    3.918234825449395211807346e-1, 3.971325993508106528088605e-1,
    4.017296104299147968468625e-1, 4.057606888114827470231826e-1,
    4.093331771230742732392788e-1, 4.125279173822872302102112e-1,
    4.154071101477916939828476e-1, 4.180195006078754318817087e-1,
    4.204039036649941269970722e-1, 4.225916622196788034520459e-1,
    4.246084003495385192837096e-1, 4.264752985794355823879289e-1,
    4.28210037950905868034446e-1, 4.298275099724423833634399e-1,
    4.313403581116528993035893e-1, 4.327593961190783701666993e-1,
    4.340939349810636769897879e-1, 4.353520411884483408780317e-1,
    4.365407427469878147383168e-1, 4.376661949833611689619569e-1,
    4.387338151023017218499607e-1, 4.39748392224784103868205e-1,
    4.407141780183714924796837e-1, 4.416349618396191061842482e-1,
    4.425141334223963219757096e-1, 4.433547354803029166214726e-1,
    4.441595080865088051026687e-1, 4.449309263081064427388243e-1,
    4.456712322741244370371236e-1, 4.463824626247387113557872e-1,
    4.470664721078510264624613e-1, 4.477249539462040026489459e-1,
    4.483594574847163539954767e-1, 4.489714035371044494250381e-1,
    4.495620977780755911866516e-1, 4.501327424685992584379868e-1,
    4.506844467540410313494535e-1, 4.51218235736005377363407e-1,
    4.517350584868095375545787e-1, 4.522357951492183690589423e-1,
    4.527212632423214169192806e-1, 4.531922232763685429942698e-1,
    4.536493837643154285993896e-1, 4.540934057052190603676225e-1,
    4.545249066040275975581781e-1, 4.549444640833754338006958e-1,
    4.553526191354366741024218e-1, 4.557498790554759902247544e-1,
    4.561367200932749557674873e-1, 4.56513589853948834460245e-1,
    4.568809094756753553991695e-1, 4.572390756084275506619573e-1,
)


def test_p_series_stops_at_its_tolerance():
    # 1 - P at integer shapes 1..60 on the P side: within 3.4e-15 of the
    # 40-digit values.  A P series that stops where its tail is below 1e-13
    # of Q, in place of 2^-56, is 9.9e-14 off at n = 55.
    for n, ref in enumerate(P_SIDE_INTEGER_SHAPES, 1):
        y = n + 0.5
        assert q_with_log_increment(float(n), y)[0] == pytest.approx(
            ref, rel=2e-14, abs=0.0), (n, y)


# (shape, y, Q, ln Q) from mpmath at 40 digits, at both ends of the P
# series' range: four points where P is far below Q, so that the sum ends
# within a few terms, and three at y = shape + 0.99, next to the continued
# fraction's side, where it sums longest.
P_SERIES_ENDS = (
    (50.0, 5.0, 9.999999999999999999999999999999781894079e-1,
     -2.181059214078488759501715248479872941809e-32),
    (120.0, 20.0, 1.0, -4.905027004477119248442865357104544657775e-52),
    (20.0, 10.0, 9.965456580241431923178337419472015797956e-1,
     -3.460321990414991110998954954935846706871e-3),
    (7.3, 3.0, 9.751441737721456437197215002726609766673e-1,
     -2.516994838052587688949806331137457712343e-2),
    (0.5, 1.49, 8.429927240325933718012162986079868940149e-2,
     -2.473382045052389432238925206093288535503),
    (7.3, 8.29, 3.179342548932066281696668594466348717065e-1,
     -1.145910663195628905799818541335345654765),
    (60.0, 60.99, 4.324642877912178079949602157617237006438e-1,
     -8.382555276004229932891392712948306609145e-1),
)


@pytest.mark.parametrize("shape, y, q_ref, log_q_ref", P_SERIES_ENDS)
def test_p_series_stop_keeps_q_and_its_log(shape, y, q_ref, log_q_ref):
    # The unsummed tail is below 2^-56 of Q; the prefactor's few ulp of P
    # enter Q = 1 - P, and ln Q, as absolute errors.  Here both are within
    # 6.3e-16 in Q.  A series stopping one group of four early is 1.4e-14
    # off at (7.3, 3) and 2.0e-15 at (7.3, 8.29).
    q, log_q, _ = q_with_log_increment(shape, y)
    assert abs(q - q_ref) <= 1e-15
    assert abs(log_q - log_q_ref) <= 1e-15 / q_ref


def test_half_integer_shape_grid_vs_oracle():
    for k in (0, 1, 2, 4, 8, 15):
        for y in (0.2, 1.0, 3.0, 7.5, 20.0):
            ref = gamma_q_half_integer(k, y)
            got = q_with_log_increment(k + 0.5, y)[0]
            assert got == pytest.approx(ref, rel=5e-13, abs=0.0), (k, y)


def test_bounds_and_limits():
    for shape in (0.3, 1.0, 7.7, 50.0, 200.0):
        assert q_with_log_increment(shape, 0.0)[0] == 1.0
        assert q_with_log_increment(shape, 200.0)[0] < 1e-10 or shape > 100.0
        for y in (0.01, 1.0, 30.0, 200.0):
            v = q_with_log_increment(shape, y)[0]
            assert 0.0 <= v <= 1.0


def test_monotonic_grid():
    # Strict monotonicity away from the Q == 1.0 saturation plateau, where
    # equality is the correct double-precision outcome.
    mus = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 70.0, 100.0]
    ys = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 70.0, 100.0]
    for mu in mus:
        vals = [q_with_log_increment(mu, y)[0] for y in ys]
        assert all(a > b or a == b == 1.0 for a, b in zip(vals, vals[1:])), \
            f"not decreasing in y at mu={mu}"
        assert vals[0] > vals[-1]
    for y in ys:
        vals = [q_with_log_increment(mu, y)[0] for mu in mus]
        assert all(a < b or a == b == 1.0 for a, b in zip(vals, vals[1:])), \
            f"not increasing in mu at y={y}"
        assert vals[0] < vals[-1]


def test_forward_step_closed_forms():
    inc = math.exp(log_q_increment(1.0, 1.0))
    assert math.exp(-1.0) + inc == pytest.approx(
        2.0 * math.exp(-1.0), rel=1e-15, abs=0.0)
    assert 1.0 + math.exp(log_q_increment(7.5, 0.0)) == 1.0


def test_increment_closed_forms():
    assert math.exp(log_q_increment(1.0, 1.0)) == pytest.approx(
        math.exp(-1.0), rel=1e-15, abs=0.0)
    assert math.exp(log_q_increment(3.0, 2.0)) == pytest.approx(
        8.0 * math.exp(-2.0) / 6.0, rel=1e-14, abs=0.0)
    assert math.exp(log_q_increment(7.5, 0.0)) == 0.0


@pytest.mark.parametrize("shape,y,log_q,log_inc", [
    # Q and the increment far below double range, and one pair inside it.
    # 25 digits of ln Gamma(shape, y)/Gamma(shape) and of
    # shape ln y - y - ln Gamma(shape+1) from mpmath at 40 digits.
    (301.0, 2000.0, -1134.472696810451888106801, -1132.741319887650073472554),
    (2.5, 900.0, -890.07942452229522864262, -884.1949866940362973477498),
    (50.0, 40.0, -0.07293104448422514210843451, -4.033794246076216924914409),
])
def test_logs_of_q_and_increment(shape, y, log_q, log_inc):
    # Both logs are rounded at their own magnitude, ~1e3 here.
    assert q_with_log_increment(shape, y)[1] == pytest.approx(log_q, rel=0.0,
                                                              abs=5e-13)
    assert log_q_increment(shape, y) == pytest.approx(log_inc, rel=0.0,
                                                      abs=5e-13)
    assert math.exp(log_q_increment(shape, y)) == pytest.approx(
        math.exp(log_inc), rel=1e-12, abs=0.0)
    assert q_with_log_increment(shape, 0.0)[1] == 0.0
    assert log_q_increment(shape, 0.0) == -math.inf


def test_prefactor_far_above_the_shape_takes_the_whole_log():
    # At y = 7.9 a, a (log1p(u) - u) of the rounded u = (y-a)/a left E
    # 1.8e-13 and ln Q 1.5e-13 off; a ln(y/a) - y + a, summed exactly, keeps
    # them within 6.6e-14 and 3.6e-14.  Against the rounded references that
    # is at most an ulp of ~870 (1.14e-13), where E was two ulps off.  25
    # digits of -y + a ln y - ln Gamma(a) and of ln Q from mpmath at 40
    # digits, a and y taken as the doubles they are.
    a, y = 180.22282718518625, 1423.5379946309617
    assert incgamma._log_gamma_prefactor(a, y) == pytest.approx(
        -869.1697679643207928405457, rel=0.0, abs=1.2e-13)
    assert q_with_log_increment(a, y)[1] == pytest.approx(
        -876.2962240897540269157216, rel=0.0, abs=1.2e-13)


@pytest.mark.parametrize("shape,y,log_inc", [
    # y far below shape: 25 digits of shape ln y - y - ln Gamma(shape+1)
    # from mpmath at 40 digits, y taken as the double it is.
    (196.0, 0.3, -1078.347563889583882476207),
    (50.0, 0.01, -378.7462762511775994287104),
    (42.0, 0.035, -258.6079845344394491839761),
    (8.0, 1e-3, -65.86764513460234647833639),
])
def test_log_increment_where_y_is_far_below_shape(shape, y, log_inc):
    assert log_q_increment(shape, y) == pytest.approx(log_inc, rel=0.0,
                                                      abs=1e-12)


# (u, log(1+u) - u) from mpmath at 40 digits, u taken as the double it is:
# u = 0 and +-1e-300 (where s = u/(2+u) squares to 0), and both sides of
# the switch to log1p at |u| = 0.4.
LOG1PMX_POINTS = [
    (0.0, 0.0),
    (1e-300, 0.0),
    (-1e-300, 0.0),
    (1e-8, -4.9999999666666671258922708757e-17),
    (-1e-8, -5.00000003333333379255894572687e-17),
    (0.1, -4.68982019567514046069470609431e-3),
    (-0.1, -5.36051565782630184429155007551e-3),
    (0.4, -6.35277633787870758395381590696e-2),
    (-0.4, -1.10825623765990698008487757972e-1),
    (0.4000000000000001, -6.35277633787870916998670822861e-2),
    (-0.4000000000000001, -1.10825623765990735015921912144e-1),
]


@pytest.mark.parametrize("u,ref", LOG1PMX_POINTS)
def test_log1pmx_against_reference(u, ref):
    assert incgamma._log1pmx(u) == pytest.approx(ref, rel=5e-16, abs=0.0)


@pytest.mark.parametrize("shape,y,log_inc", [
    # 25 digits of shape ln y - y - ln Gamma(shape+1) from mpmath at 40
    # digits, y taken as the double it is.
    (1.0, 1.5, -1.094534891891835618021987),
    (7.5, 3.0, -4.309675092290175026272801),
    (50.0, 40.0, -4.033794246076216924914409),
    (12.0, 30.0, -9.172845915716021644558522),
    (301.0, 2000.0, -1132.741319887650073472554),
    (2.5, 900.0, -884.1949866940362973477498),
    (196.0, 0.3, -1078.347563889583882476207),
    (0.3, 1e-5, -3.345712829983207904600558),
])
def test_q_with_log_increment(shape, y, log_inc):
    # Q, ln Q, and the increment's log from the same prefactor, E(shape, y)
    # - ln shape.
    q, log_q, got = q_with_log_increment(shape, y)
    assert got == pytest.approx(log_inc, rel=5e-16, abs=0.0)
    assert q_with_log_increment(shape, 0.0) == (1.0, 0.0, -math.inf)
    # ln Q is the log of Q wherever Q is a normal float: on the
    # small-shape branch (0.3, 1e-5), the P side (7.5, 3) and the
    # continued-fraction side (12, 30).  Both are rounded at the size of
    # ln Q and of the logs summed (ln 0.3 + ln(Q/0.3) on the first).
    if q >= sys.float_info.min:
        assert log_q == pytest.approx(math.log(q), rel=4e-16, abs=1e-15)


def test_log_increment_at_a_subnormal_shape():
    # The continued-fraction side below shape 1/2: -y + a ln y - lgamma(1+a)
    # keeps the digits that ln e^{E(a, y)} - ln a cancels (1.6e-14 off
    # here).  40 digits from mpmath, y taken as the double it is.
    ref = -1.399999999999999911182158029987476766109
    log_inc = q_with_log_increment(5e-324, 1.4)[2]
    assert log_inc == pytest.approx(ref, rel=1e-16, abs=0.0)


# (base, step, ln Gamma(base+step)/Gamma(base)) from mpmath loggamma, 25
# digits: bases below 8 (shifted up), at 8 and above, near underflow, and
# far above double range for lgamma's digits.
LOG_POCHHAMMER_POINTS = [
    (0.5, 0.5, -0.5723649429247000870717137),
    (3.0, 2.5, 3.264666787058770984460169),
    (7.9, 0.3, 0.6066632379015406680489095),
    (8.0, 0.5, 1.024105896235583411571609),
    (30.3, 0.4, 1.360494505404743545829394),
    (82.176, 0.848, 3.737932910391433492596429),
    (1e6, 0.75, 10.36163282472321339058389),
    (1e300, 0.5, 345.3877639491068526289511),
    (1e-300, 0.5, -690.2031629552890050932666),
    (5e-324, 0.999, -744.4394938828483709338691),
]


@pytest.mark.parametrize("base,step,ref", LOG_POCHHAMMER_POINTS)
def test_log_pochhammer_against_reference(base, step, ref):
    assert log_pochhammer(base, step) == pytest.approx(ref, rel=1e-15,
                                                       abs=0.0)


@pytest.mark.parametrize("base,step", [
    (0.0, 0.5), (-1.0, 0.5), (-math.inf, 0.5), (math.inf, 0.5),
    (math.nan, 0.5), (2.0, -0.5), (2.0, math.nan), (2.0, math.inf)])
def test_log_pochhammer_domain_errors(base, step):
    with pytest.raises(DomainError):
        log_pochhammer(base, step)


def test_forward_chain_50_vs_direct():
    y = 1.5
    q = q_with_log_increment(1.0, y)[0]
    for s in range(1, 51):
        q = q + math.exp(log_q_increment(float(s), y))
    assert q == pytest.approx(q_with_log_increment(51.0, y)[0], rel=1e-13,
                              abs=0.0)


def test_forward_chain_100_vs_direct():
    # A stressed chain that actually crosses the y ~ shape transition.
    for mu0, y in ((0.7, 80.0), (1.0, 1.5), (2.5, 30.0)):
        q = q_with_log_increment(mu0, y)[0]
        shape = mu0
        for step in range(1, 101):
            q = q + math.exp(log_q_increment(shape, y))
            shape += 1.0
            if step % 10 == 0:
                assert q == pytest.approx(
                    q_with_log_increment(shape, y)[0], rel=1e-12, abs=0.0), \
                    (mu0, y, step)


def test_forward_step_large_shape_no_overflow():
    v = math.exp(log_q_increment(1e4, 150.0))
    assert math.isfinite(v)


def test_shape_ratio_trivial_and_integer():
    assert _shape_ratio(0.0, 7.3) == 1.0
    assert _shape_ratio(2.0, 3.0) == pytest.approx(12.0, rel=1e-15, abs=0.0)


def test_shape_ratio_vs_exact_integer_product():
    for eta, base in ((5, 60), (1, 3), (12, 7), (50, 30), (30, 97)):
        ref = rising_product_int(eta, base)
        got = _shape_ratio(float(eta), float(base))
        assert got == pytest.approx(float(ref), rel=1e-13, abs=0.0), (eta, base)


def test_shape_ratio_real_eta_against_lgamma():
    for eta, base in ((1.5, 4.0), (0.25, 10.0), (7.75, 33.0)):
        ref = math.exp(math.lgamma(eta + base) - math.lgamma(base))
        assert _shape_ratio(eta, base) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_shape_ratio_large_base_asymptotic():
    # Gamma(b+eta)/Gamma(b) ~ b^eta for large b; kept as a cross-check only.
    for eta in (1.0, 2.0, 3.0):
        base = 1e6
        ratio = _shape_ratio(eta, base) / base**eta
        assert abs(ratio - 1.0) < 1e-5
    # Real eta where lgamma(base) ~ 7e302 rounds the difference to 0.  The
    # ratio's log, 345.4, is exponentiated once: ~345 eps.
    assert _shape_ratio(0.5, 1e300) == pytest.approx(1e150, rel=1e-13,
                                                     abs=0.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        q_with_log_increment(0.0, 1.0)[0]
    with pytest.raises(DomainError):
        q_with_log_increment(-2.0, 1.0)[0]
    with pytest.raises(DomainError):
        q_with_log_increment(2.0, -1.0)[0]
    with pytest.raises(DomainError):
        _shape_ratio(2.0, 0.0)
    with pytest.raises(DomainError):
        _shape_ratio(-1.0, 2.0)
    with pytest.raises(DomainError):
        log_q_increment(0.0, 1.0)
    with pytest.raises(DomainError):
        log_q_increment(1.0, -1.0)


@settings(max_examples=200, deadline=None)
@given(shape=st.floats(0.01, 200.0), y=st.floats(0.0, 200.0))
def test_q_in_unit_interval(shape, y):
    v = q_with_log_increment(shape, y)[0]
    assert 0.0 <= v <= 1.0


# (shape, y, Q_shape(y)) from mpmath.gammainc at 40 digits.  At these small
# shapes P is within Q of 1, and 1 - P returned -4.4e-16 at the first point
# and was 9.2e-7, 1.6e-9 and 4.5e-14 off at the others.
SMALL_SHAPE_POINTS = [
    (1e-300, 1e-12, 2.7053805451028016046e-299),
    (1e-10, 1e-12, 2.705380541451484362e-9),
    (1e-6, 0.5, 5.5977388815563453362e-7),
    (1e-3, 1e-3, 0.0063123532911397099038),
]


@pytest.mark.parametrize("shape,y,ref", SMALL_SHAPE_POINTS)
def test_small_shape_q_matches_reference(shape, y, ref):
    q, log_q, _ = q_with_log_increment(shape, y)
    assert q == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert log_q == pytest.approx(math.log(ref), rel=1e-13, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(log_shape=st.floats(-323.0, math.log10(0.999)),
       y=st.floats(0.0, 2.0))
# P ~ e^-118 here, far below an ulp of 1: Q was 1 + 2.2e-16 and ln Q 2.2e-16.
@example(log_shape=-0.75, y=3.156637528402768e-289)
def test_small_shape_q_is_never_negative(log_shape, y):
    shape = max(10.0 ** log_shape, 5e-324)
    q, log_q, _ = q_with_log_increment(shape, y)
    assert 0.0 <= q <= 1.0
    assert log_q <= 0.0


def test_shape_past_one_plus_shape_is_a_convergence_error():
    # 1e150 + 1 rounds to 1e150: the point stays on the P side, whose terms
    # never fall, where the continued fraction divided by y + 1 - a = 0.
    with pytest.raises(ConvergenceError):
        q_with_log_increment(1e150, 1e150)


def test_continued_fraction_stall_is_a_convergence_error():
    # Far past the box (shape <= 200), at y = shape + 1 the fraction needs
    # more than its 10,000 terms from shape ~ 1e10; at 1e9 it still
    # converges, within 1e-14 of mpmath.
    q, _, _ = q_with_log_increment(1e9, 1e9 + 1)
    assert q == pytest.approx(0.4999831791165293, rel=1e-14, abs=0.0)
    with pytest.raises(ConvergenceError,
                       match=r"^Q continued fraction stalled for shape="):
        q_with_log_increment(1e10, 1e10 + 1)


@pytest.mark.parametrize("func,value", [
    pytest.param(lambda a, y: q_with_log_increment(a, y)[0], 1.0,
                 id="q_with_log_increment_q-1.0"),
    pytest.param(lambda a, y: q_with_log_increment(a, y)[1], 0.0,
                 id="q_with_log_increment_log_q-0.0"),
    pytest.param(q_with_log_increment, (1.0, 0.0, -math.inf),
                 id="q_with_log_increment-triple"),
    (log_q_increment, -math.inf),
])
def test_largest_shape_at_the_smallest_cut(func, value):
    # lgamma(1.7e308) overflows; e^E lies far below the double range.
    assert func(1.7e308, 5e-324) == value
