"""Tests for the series evaluator, the Marcum base case, and the errRR metric."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuttallq import (ConvergenceError, DomainError, MomentQuery,
                      consistency_deviation, evaluate, log_q_increment,
                      marcum_q, nuttall_q_ladder, nuttall_q_series)
from nuttallq import incgamma, nuttall
from nuttallq.incgamma import q_with_log_increment
from nuttallq.cli import TABLE1

from oracles import NCX2_SF_POINTS, rising_product_int

@pytest.mark.parametrize("eta,mu,x,y,val_dp,val_ref", TABLE1)
def test_golden_table1(eta, mu, x, y, val_dp, val_ref):
    out = nuttall_q_series(MomentQuery(eta, mu, x, y))
    assert out.converged
    assert out.value == pytest.approx(val_dp, rel=5e-14, abs=0.0)
    assert out.value == pytest.approx(val_ref, rel=5e-14, abs=0.0)


# (eta, mu, x, y, value) with y far above eta + mu, so the Q increment
# y^a e^{-y}/Gamma(a+1) starts deep in the log range: below 1e-300 at the
# first, third and fourth points, which re-seeds it, and subnormal at the
# fourth, where a product carried on from the subnormal seed is off by 5e-7.
# Values: the incomplete-gamma series summed at 40 digits with
# mpmath.gammainc.
DEEP_INCREMENT_POINTS = [
    (0.0, 1.0, 5.0, 700.0, 6.483260420441983e-257),
    (2.0, 3.0, 10.0, 600.0, 1.8124967783724893e-192),
    (1.0, 1.0, 0.5, 720.0, 1.7918329198680487e-295),
    (0.0, 1.0, 5.0, 740.0, 7.597504556869282e-273),
]


@pytest.mark.parametrize("eta,mu,x,y,ref", DEEP_INCREMENT_POINTS)
def test_running_increment_deep_in_log_range(eta, mu, x, y, ref):
    out = nuttall_q_series(MomentQuery(eta, mu, x, y))
    assert out.converged
    assert out.value == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("y,terms,ref", [
    # At x = 1000 the running term passes 1e250 near its peak at n ~ 1000
    # and folds.  30 digits from mpmath at 50 digits, where the series and
    # mpmath.quad of the defining integral agree to 1e-48.
    (1000.0, 1252, 632121.430504892267664997620336),
    # At y = 500 the terms before the fold carry weight: the value is the
    # whole-line moment mu(mu+1) + 2(mu+1)x + x^2 = 1022110 to 35 digits.
    (500.0, 1252, 1022110.0),
])
def test_fold_heavy_points_match_reference(y, terms, ref):
    out = nuttall_q_series(MomentQuery(2.0, 10.0, 1000.0, y))
    assert out.converged and out.terms_used == terms
    assert out.value == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_summed_terms_times_gamma_ratio_past_double_range():
    # At (119, 1, 100, 400) the summed terms (7.6e111) times Gamma(120) =
    # 119! (5.6e196) overflow before e^-100 brings the value back into
    # range.  30 digits from mpmath at 45 digits, where the series and
    # mpmath.quad of the defining integral agree to 1e-45.
    out = nuttall_q_series(MomentQuery(119.0, 1.0, 100.0, 400.0))
    assert out.converged
    assert out.value == pytest.approx(1.56610899166125971860775223998e265,
                                      rel=1e-13, abs=0.0)
    # The ladder steps its first column up in eta from row 0; at row 120,
    # where y^119 overflows, that entry comes from the series instead.
    table = nuttall_q_ladder(120, 1.0, 6, 100.0, 400.0)
    assert all(math.isfinite(v) for row in table.values[119:] for v in row)


@pytest.mark.parametrize("eta,mu,x,y,ref", [
    # Values near 1e270 whose summed terms times Gamma(eta+mu)/Gamma(mu)
    # overflow.  Taking that product through ln(total) + ln(mant), logs of
    # up to ~700, left them 1.19e-13 and 9.3e-14 off.  40 digits from the
    # series of perfbench/reference.py at 60 digits, which agrees with the
    # same sum at 50 digits to 6e-46.
    (110.0, 20.0, 200.0, 300.0, 1.175510197573831782864934003260827456236e+274),
    (119.0, 1.0, 150.0, 500.0, 4.46296181480789686232535444204349830919e+275),
])
def test_overflowing_product_keeps_its_digits(eta, mu, x, y, ref):
    out = nuttall_q_series(MomentQuery(eta, mu, x, y))
    assert out.converged
    assert out.value == pytest.approx(ref, rel=5e-14, abs=0.0)


@pytest.mark.parametrize("eta,mu,x,y,ref", [
    # Q_{eta+mu}(y) underflows to 0 while Gamma(eta+mu)/Gamma(mu) leaves
    # double range (0 * inf gave nan), at x = 0 and at small x > 0.
    # Values: the mpmath series of perfbench/reference.py at 40 digits.
    (300.0, 1.0, 0.0, 2000.0, 6.174061470234286e121),
    (200.5, 1.0, 0.0, 1500.0, 2.6720100756585208e-15),
    (300.0, 1.0, 1e-3, 2000.0, 2.624541662518707e122),
    # e^{log offset} underflows where the gamma ratio's mantissa brings the
    # value back into range (nan as well before).
    (300.0, 1.0, 0.0, 3000.0, 1.98916284951640171917506310065e-260),
    # Q factors subnormal at the terms that carry the sum: half the value
    # was lost to their missing digits.  30 digits from the series summed
    # at 50 digits with mpmath.gammainc.
    (35.0, 0.0715, 0.00507, 891.55, 5.46798083616269277268860733457e-286),
])
def test_underflowed_q_factor_is_carried_by_its_log(eta, mu, x, y, ref):
    out = nuttall_q_series(MomentQuery(eta, mu, x, y))
    assert out.converged
    assert out.value == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_q_factors_below_the_log_range_are_no_converged_zero():
    # Every Q factor underflows, and ln Q_{eta+mu}(y) = -1.17e6 lies below
    # the range where it keeps ten digits and where a power of two can
    # carry the factors.  The value is 3.379147236901578e-267 (the
    # series summed at 30 digits with mpmath.gammainc, 108 terms); 0.0 is
    # not it, so the outcome says that the series did not converge.
    eta, mu, x, y = 109999.0, 1.0, 1e-3, 1.57e6
    out = nuttall_q_series(MomentQuery(eta, mu, x, y))
    assert not out.converged
    with pytest.raises(ConvergenceError):
        nuttall.series_value(eta, mu, x, y)


# (eta, mu, x, y, value) with y far above x: the sum runs 180-610 terms,
# and its first Q factors Q_{eta+mu+n}(y) lie below the double range, so
# they are carried times a power of two taken from ln Q_{eta+mu}(y).  The
# series is 1.3e-13 off at y = 900, so the bound here is 2e-13.  The last
# three rows were 3.3e-13 to 4.0e-13 off while the sum was taken once in
# plain floats and again relative to Q_{eta+mu}(y).  Values:
# perfbench/reference.py at 40 digits (the same at 60).
DEEP_TAIL_POINTS = [
    (0.0, 1.0, 100.0, 900.0, 4.6758721592315245e-176),
    (0.0, 1.0, 100.0, 950.0, 1.2132546903677065e-190),
    (0.0, 1.0, 100.0, 1050.0, 2.3524055023198373e-220),
    (0.0, 1.0, 100.0, 1100.0, 1.865079743586069e-235),
    (0.0, 3.0, 50.0, 800.0, 1.56605524476685e-196),
    (1.0, 5.0, 200.0, 1200.0, 2.9808785834556024e-180),
    (56.0, 16.36808187858616, 135.28184860020087, 1757.2305443424295,
     1.1799983867689512e-210),
    (17.0, 0.7740687102409236, 13.21747082039406, 980.9613183070655,
     1.857325934752736e-284),
    (48.11363096924225, 98.99818972597103, 85.82301142984046,
     1480.5177744436596, 8.262903303790879e-163),
]


@pytest.mark.parametrize("eta,mu,x,y,ref", DEEP_TAIL_POINTS)
def test_deep_tail_matches_reference(eta, mu, x, y, ref):
    out = nuttall_q_series(MomentQuery(eta, mu, x, y))
    assert out.converged
    assert out.value == pytest.approx(ref, rel=2e-13, abs=0.0)


# (eta, mu, x, y, value): integer eta and Q_{eta+mu}(y) >= 1/2, so the sum
# ends in the closed-form tail once the Q factor saturates.  Values: the
# series summed at 50 digits with mpmath.gammainc, to 30 digits; in the last
# two rows, the double nearest the 40-digit value of perfbench/reference.py.
CLOSED_TAIL_POINTS = [
    (0.0, 4.0, 6.0, 2.5, 0.993833653648206570611433038045),  # L = 1
    (0.0, 30.0, 2.0, 1.0, 1.0),  # 1 - 2e-34
    (1.0, 8.0, 20.0, 5.0, 27.9999968684538203828632645943),
    (50.0, 10.0, 20.0, 15.0, 5.70867624487505265485765174828e+89),
    (2.0, 0.5, 10.0, 1.0, 130.749418739691456905514536941),  # tables' mu0
    (3.0, 50.0, 8.0, 30.0, 206743.648804685282068488481863),
    (5.0, 2.5, 20.0, 0.0, 11961213.90625),  # y = 0: the tail from n = 0
    # Q_5(y) = 1/2 at y = 4.670908882795984: just above 1/2 the tail ends
    # the sum; just below, the guard leaves every term to the loop.
    (2.0, 3.0, 5.0, 4.669908882795983, 74.7485587934246404484005673129),
    (2.0, 3.0, 5.0, 4.671908882795984, 74.7443186164361850219113913397),
    # Q_5(9) = 0.055: the sum stops before its Q factor saturates.
    (2.0, 3.0, 6.0, 9.0, 73.0858793033661),
    # eta + mu = y: the incomplete-gamma prefactor takes log(1+u) - u at
    # u = 0, where its atanh series must end at once.
    (2.0, 10.0, 3.0, 12.0, 144.14000814259214),
]


@pytest.mark.parametrize("eta,mu,x,y,ref", CLOSED_TAIL_POINTS)
def test_closed_tail_matches_reference(eta, mu, x, y, ref):
    out = nuttall_q_series(MomentQuery(eta, mu, x, y))
    assert out.converged
    assert out.value == pytest.approx(ref, rel=1e-14, abs=0.0)
    if eta == 0.0:
        assert 0.0 <= out.value <= 1.0


# (eta, mu, x, y, value) at real eta in the benchmark's box, where
# Gamma(eta+mu)/Gamma(mu) from exp(lgamma - lgamma) left the series 7e-14 to
# 9.7e-14 off: the first point, then the 22 worst of the real-eta points of
# pass 0 of seeds 1-3 of series-points.  Values: the series summed at 40
# digits with mpmath.gammainc, to 30 digits.
REAL_ETA_POINTS = [
    (34.848, 48.176,
     0.523, 12.76,
     1.50637223457522570859060678111e+63),
    (44.254439144485175, 43.76063644767285,
     11.748175386988535, 16.93067076632093,
     1.54685886552803034095986492088e+84),
    (44.21624815838907, 32.365255682913286,
     4.531832029543979, 2.017318153891584,
     2.40412383284248216654740502717e+78),
    (24.251893385494235, 43.451831336112065,
     18.740291804662995, 2.271325962370978,
     4.9440235181243508535209288761e+45),
    (38.85572905392361, 47.45537915979272,
     10.759597913194227, 9.61943857818297,
     6.35303372320319662693159753433e+73),
    (40.507076913314364, 46.575589812848804,
     7.493020951659645, 5.412732490046488,
     1.02436587522583456612273084774e+76),
    (46.14806780830353, 38.4768455628705,
     18.59698043664877, 2.585546856578455,
     7.82258474119717563961455221815e+88),
    (44.18322962622165, 35.390962942775886,
     9.0337535822343, 9.512306613834095,
     1.13160568093437485448860325673e+81),
    (42.28193384084317, 37.97689862091088,
     10.494512184405263, 1.988339249443543,
     2.82164176824987211641983678986e+78),
    (43.025634066380064, 26.596576351565353,
     12.994118512069281, 10.094581308166735,
     7.30732567611650156438361852046e+77),
    (21.205548040557243, 38.80107406347048,
     9.810290778290211, 9.156230696484474,
     5.49628338852408807834253667131e+37),
    (45.36422362852653, 39.79754406610416,
     17.888000677440363, 17.3184030328502,
     2.3347178889725000762489507356e+87),
    (32.05341757122438, 44.94723717210917,
     11.708549468206241, 12.482373407925138,
     9.67945704962642859177745956233e+59),
    (37.687913026796046, 41.75249885006487,
     0.0834728373357046, 15.699644745217462,
     6.27269250341047264026146952305e+66),
    (22.942504522691472, 49.57745987646565,
     14.461637521848822, 16.241094785724776,
     1.88691615916895223034429534936e+43),
    (38.06112524606404, 30.165719331688926,
     10.904390431724401, 8.334393795384598,
     2.24751282222238971172692775452e+68),
    (45.63696598943578, 38.57156651513471,
     10.167845136320917, 0.1279684131198557,
     1.58553388458927963916774193879e+85),
    (49.572718276629956, 39.24653983711382,
     7.338457615760441, 5.45290299486513,
     1.69316433718976887748315639124e+92),
    (29.473365740991035, 40.303891454724734,
     5.567377633290741, 10.842343960856981,
     4.21330685516021290445843541725e+52),
    (41.08131678295476, 48.13809895472199,
     18.705635953578163, 6.699366117763679,
     2.75145918440269864641899682765e+80),
    (20.304836086855403, 47.61658656181006,
     3.7679876793483107, 1.44277815911988,
     2.04277208714592369979115263228e+36),
    (38.9777694547334, 43.95960573811951,
     1.449970825076789, 1.5503659089066915,
     2.42288871647781680197737671601e+70),
    (37.17000160254667, 45.68870087136494,
     3.0992702848306726, 18.862023298901022,
     7.58231034973047316514424651853e+67),
    # y = 0: a sum saturated from the start, 72 terms.  The double nearest
    # the 40-digit value of perfbench/reference.py.
    (2.5, 1.0, 20.0, 0.0, 2379.447521093276),
]


@pytest.mark.parametrize("eta,mu,x,y,ref", REAL_ETA_POINTS)
def test_real_eta_matches_reference(eta, mu, x, y, ref):
    out = nuttall_q_series(MomentQuery(eta, mu, x, y))
    assert out.converged
    assert out.value == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("eta,mu,x,y", [row[:4] for row in TABLE1])
def test_series_forms_one_incomplete_gamma_prefactor(monkeypatch, eta, mu,
                                                     x, y):
    # Q_{eta+mu}(y) and the first increment of the Q factor come from the
    # same prefactor E(eta+mu, y).
    calls = []
    prefactor = incgamma._log_gamma_prefactor

    def counted(a, y):
        calls.append(a)
        return prefactor(a, y)

    monkeypatch.setattr(incgamma, "_log_gamma_prefactor", counted)
    assert nuttall_q_series(MomentQuery(eta, mu, x, y)).converged
    assert calls == [eta + mu]


@pytest.mark.parametrize("eta,mu,x,y", [
    # x = 0 exit: Q_1(712) = e^-712 is subnormal and enters by its log.
    (0.0, 1.0, 0.0, 712.0),
    # Q factors subnormal where they carry the sum: they are carried times
    # a power of two taken from ln Q_{eta+mu}(y).
    (35.0, 0.0715, 0.00507, 891.55),
])
def test_series_runs_the_continued_fraction_once(monkeypatch, eta, mu, x, y):
    # ln Q_{eta+mu}(y) comes from the call that gives Q_{eta+mu}(y), on
    # either path where the series needs it.
    if x == 0.0:
        assert 0.0 < q_with_log_increment(eta + mu, y)[0] < sys.float_info.min
    fractions = []
    cont_frac = incgamma._cont_frac

    def counted_fraction(*args):
        fractions.append(args)
        return cont_frac(*args)

    monkeypatch.setattr(incgamma, "_cont_frac", counted_fraction)
    assert nuttall_q_series(MomentQuery(eta, mu, x, y)).converged
    assert len(fractions) == 1


def test_closed_tail_work_counts():
    # Saturated in the first block of four: 4 terms summed, 48 without the
    # closed tail.
    out = nuttall_q_series(MomentQuery(3.0, 40.0, 10.0, 5.0))
    assert out.converged and out.terms_used == 4
    assert out.value == pytest.approx(134140.0, rel=1e-14, abs=0.0)
    # y = 0: saturated from the start, 1 term summed, 72 without it.
    assert nuttall_q_series(MomentQuery(5.0, 2.5, 20.0, 0.0)).terms_used == 1
    # Real eta, and integer eta with Q_{eta+mu}(y) < 1/2 (y > eta + mu):
    # no closed tail, and the sum runs to the stop rule.
    assert nuttall_q_series(MomentQuery(2.5, 3.0, 6.0, 4.0)).terms_used == 40
    assert nuttall_q_series(MomentQuery(2.0, 3.0, 6.0, 9.0)).terms_used == 40


@pytest.mark.parametrize("eta,mu,x,y,terms", [
    (3.0, 2.0, 5.0, 0.0, 1),     # closed tail at y = 0, before any stop test
    (12.5, 7.0, 6.0, 3.0, 44),   # real eta: runs on after saturation
    (4.0, 12.5, 7.0, 9.0, 32),   # closed tail after the Q factor saturates
    (2.5, 1.0, 20.0, 0.0, 72),   # real eta, saturated from the start
])
def test_one_loop_work_counts(eta, mu, x, y, terms):
    # The terms come in blocks of four, n = 0-3, 4-7, ...: the Q factor's
    # step stops at the end of the block where it saturates, and the closed
    # tail is tried once, before the next block.  A stop on the last quiet
    # term of a block, not three, takes (2.5, 1, 20, 0) to 68 terms.
    out = nuttall_q_series(MomentQuery(eta, mu, x, y))
    assert out.converged and out.terms_used == terms


# (m, e, log_scale, m 2^e e^log_scale) from seeded draws, valued by mpmath at
# 40 digits; in the last three, valued at 50 digits, k = round(log_scale /
# ln 2) is past 3.03e6, where k times the 32-bit high part of ln 2 needs
# more than 53 bits: one such product left 2.3e-10, 2.3e-10 and 1.6e-9.
TIMES_EXP_POINTS = [
    (0.5211420811855564, 1836, -1576.7266996843657, 4.408826816685029e-133),
    (0.4199835124244499, -2053, 1295.0845716822491, 1.1395521971744463e-56),
    (0.7432793697957031, 20, -384.5360988748739, 7.759721922639531e-162),
    (0.41682256018814645, 329, -507.95963210434616, 1.1343694912631064e-122),
    (0.5012975130232893, -938, 1288.8583684355187, 1.1968424475645643e+277),
    (0.7015809527231841, -1919, 1739.1434750859912, 2.950737517020909e+177),
    (0.967153777942759, -24, -661.5663557031656, 2.7935596037126504e-295),
    (0.3654698681513042, -1876, 1250.470170324584, 7.996030969225599e-23),
    (0.699015633911353, 326, 460.44174735898287, 8.862894740529911e+297),
    (0.8369885476853149, 863, -940.0465544197881, 2.8482260685368445e-149),
    (0.8408689093921731, 749, -527.2373362825376, 0.00026298395138983453),
    (0.6375574188848343, -689, 1111.6018177967371, 1.4367719278457927e+275),
    (0.4697664971207576, -1740, 898.9491947403865, 1.9425149605245672e-134),
    (0.31270382646045025, -2050, 1454.0011457133542, 70520656844442.31),
    (0.4261002903239047, -835, 308.5221650508636, 1.8152618358379615e-118),
    (0.48730593059704996, 1615, -1733.4965106345578, 1.0075711576423949e-267),
    (0.7744639151669321, -1993, 1303.8587437969982, 1.566308992746028e-34),
    (0.8982191448558043, -1986, 1968.7330585195114, 1.311337782468296e+257),
    (0.6063086671698829, -1093, 692.9416500243642, 4.98475023250629e-29),
    (0.709770484332854, 1989, -1160.4302058987114, 4.27901939861145e+94),
    (0.9760628834959999, -198, 730.4621995497891, 4.1806244888208807e+257),
    (0.9225747252027443, -1830, 1323.916558752851, 1.1214126586233799e+24),
    (0.7445247135134414, 1176, -668.3457428619247, 4.210036785551248e+63),
    (0.6081075790028408, -1520, 668.7030148775808, 4.289596085508492e-168),
    (0.75, 3_100_001, -2148756.652883011, 1.012394105786002387772411),
    (0.75, -4_000_037, 2772614.168685462, 0.6140480647498477032756213),
    (0.75, 30_000_001, -20794416.009945538, 0.8288781901709743801616016),
]


def test_times_exp_stays_in_range_on_the_way():
    # 2^1500 overflows and e^{-1500 ln 2} underflows; their product is ~1.
    assert nuttall._times_exp(0.75, 1500, -1500.0 * math.log(2.0)) == \
        pytest.approx(0.75, rel=1e-12, abs=0.0)
    assert nuttall._times_exp(0.75, -1500, 1500.0 * math.log(2.0)) == \
        pytest.approx(0.75, rel=1e-12, abs=0.0)
    assert nuttall._times_exp(0.5, 0, 1e300) == math.inf
    assert nuttall._times_exp(0.5, 0, -1e300) == 0.0
    assert nuttall._times_exp(0.5, 1030, 0.0) == math.inf
    # Its log, 710.5, passes the early return, and only ldexp overflows.
    assert nuttall._times_exp(0.99, 1025, 0.0) == math.inf
    # m in [1/4, 1), e in [-2100, 2100] or far past it, and log_scale such
    # that the value is a normal float: within 2.5e-16 of m 2^e e^log_scale
    # from mpmath.
    for m, e, log_scale, ref in TIMES_EXP_POINTS:
        assert nuttall._times_exp(m, e, log_scale) == pytest.approx(
            ref, rel=2.5e-16, abs=0.0), (m, e, log_scale)


def test_reseed_points_start_below_the_reseed_threshold():
    assert math.exp(log_q_increment(1.0, 700.0)) < 1e-300
    assert math.exp(log_q_increment(2.0, 720.0)) < 1e-300
    assert 0.0 < math.exp(log_q_increment(1.0, 740.0)) < sys.float_info.min


def test_trivial_whole_half_line():
    out = nuttall_q_series(MomentQuery(0.0, 2.0, 3.0, 0.0))
    assert out.value == 1.0 and out.converged


def test_trivial_x_zero_single_term():
    out = nuttall_q_series(MomentQuery(2.0, 1.0, 0.0, 1.0))
    assert out.value == pytest.approx(5.0 * math.exp(-1.0), rel=1e-14, abs=0.0)
    assert out.terms_used == 1


def test_outcome_metadata_contract():
    out = nuttall_q_series(MomentQuery(3.0, 4.0, 6.0, 2.0))
    assert out.converged
    assert out.est_error <= 1e-12
    assert out.terms_used <= 500


def test_non_convergence_is_explicit(monkeypatch):
    monkeypatch.setattr(nuttall, "_MAX_TERMS", 4)
    out = nuttall_q_series(MomentQuery(2.0, 2.0, 15.0, 3.0))
    assert not out.converged
    assert out.terms_used <= 4
    with pytest.raises(ConvergenceError):
        marcum_q(2.0, 15.0, 3.0)


def test_continued_fraction_stall_reaches_the_caller():
    # Q_{eta+mu}(y) at shape 1e10 and y = shape + 1 stalls (see
    # test_continued_fraction_stall_is_a_convergence_error); the series
    # raises it, not a value.
    with pytest.raises(ConvergenceError,
                       match=r"^Q continued fraction stalled for shape="):
        nuttall_q_series(MomentQuery(0.0, 1e10, 0.0, 1e10 + 1))


def test_marcum_trivial_points():
    assert marcum_q(4.0, 7.0, 0.0) == 1.0
    assert marcum_q(1.0, 0.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15, abs=0.0)


def test_marcum_equals_series_eta0_bitwise():
    for mu, x, y in ((1.0, 0.5, 2.0), (3.5, 4.0, 1.0), (10.0, 12.0, 18.0)):
        assert marcum_q(mu, x, y) == nuttall_q_series(MomentQuery(0.0, mu, x, y)).value


@pytest.mark.parametrize("mu,x,y,ref", NCX2_SF_POINTS)
def test_marcum_matches_scipy_ncx2_up_to_x_1500(mu, x, y, ref):
    # Measured worst over these 20 points: 1.5734e-13 relative, at
    # (165.18025996881596, 1051.2766741143453, 1450.8586202531158).
    assert marcum_q(mu, x, y) == pytest.approx(ref, rel=2e-13, abs=0.0)


def test_marcum_at_half_matches_the_erfc_closed_form():
    # Q_{0,1/2}(x, y) = (erfc(sqrt y - sqrt x) + erfc(sqrt y + sqrt x))/2,
    # the tail of (Z + sqrt(2x))^2 past 2y, which shares no code with the
    # package.  The grid runs the P series at shape 1/2 and the sum before
    # its Q factor saturates; the worst error was 9.3e-15, at (0.2, 22.25).
    for i in range(96):
        x = 0.2 * i
        for j in range(121):
            y = 0.25 * j
            if x == 0.0 and y == 0.0:
                continue
            ref = 0.5 * (math.erfc(math.sqrt(y) - math.sqrt(x))
                         + math.erfc(math.sqrt(y) + math.sqrt(x)))
            assert marcum_q(0.5, x, y) == pytest.approx(
                ref, rel=2e-14, abs=0.0), (x, y)


def test_marcum_reduction_full_half_line():
    for mu in (1.0, 2.5, 10.0, 40.0):
        for x in (0.3, 2.0, 11.0, 20.0):
            assert abs(marcum_q(mu, x, 0.0) - 1.0) <= 1e-14


def test_marcum_stays_in_unit_interval():
    for mu in (0.5, 1.0, 5.0, 20.0):
        for x in (0.0, 1.0, 10.0, 20.0):
            for y in (0.0, 0.5, 5.0, 40.0):
                v = marcum_q(mu, x, y)
                assert 0.0 <= v <= 1.0


def test_small_x_limit_matches_closed_form():
    # For x -> 0+ the value tends to Gamma(eta+mu, y)/Gamma(mu).
    for eta, mu, y in ((3.0, 2.0, 1.5), (1.0, 1.0, 4.0), (10.0, 5.0, 8.0)):
        closed = (rising_product_int(int(eta), int(mu))
                  * q_with_log_increment(eta + mu, y)[0])
        got = nuttall_q_series(MomentQuery(eta, mu, 1e-8, y)).value
        assert got == pytest.approx(closed, rel=1e-6, abs=0.0)


def test_monotone_in_y_and_x():
    # eta + mu kept small enough that y resolves strictly in doubles.
    ys = [0.1, 1.0, 3.0, 7.0, 12.0, 20.0]
    xs = [0.1, 1.0, 3.0, 7.0, 12.0, 20.0]
    for eta, mu in ((1.0, 1.0), (4.0, 2.5), (2.0, 5.0)):
        for x in (0.5, 5.0, 15.0):
            vals = [nuttall_q_series(MomentQuery(eta, mu, x, y)).value for y in ys]
            assert all(v >= 0.0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:])), (eta, mu, x)
        for y in (0.5, 5.0, 15.0):
            vals = [nuttall_q_series(MomentQuery(eta, mu, x, y)).value for x in xs]
            assert all(a <= b * (1 + 1e-13) for a, b in zip(vals, vals[1:])), (eta, mu, y)


def test_real_eta_supported():
    out = nuttall_q_series(MomentQuery(1.5, 2.5, 3.0, 4.0))
    assert out.converged and out.value > 0.0


def test_consistency_deviation_reference_points():
    assert consistency_deviation(MomentQuery(1.0, 1.0, 0.1, 1.5)) <= 1e-12
    assert consistency_deviation(MomentQuery(5.0, 10.0, 5.0, 10.0)) <= 1e-12


def test_consistency_deviation_vanishing_forcing_term():
    # At y = 0 both sides reduce to the same analytic value.
    assert consistency_deviation(MomentQuery(1.0, 2.0, 2.0, 0.0)) <= 1e-14


def test_consistency_deviation_at_x_zero_eta_zero_and_real_eta():
    # The identity holds at x = 0 (T_mu is its limit y^mu e^{-y}/Gamma(mu+1)),
    # at eta = 0 (Marcum) and at real eta >= 1, over the working region.
    for eta in (0.0, 1.0, 1.5, 2.5, 7.25, 13.0, 30.7, 49.0, 50.0):
        for mu in (0.5, 1.0, 3.3, 17.0, 50.0):
            for x in (0.0, 5e-324, 1e-8, 0.1, 5.0, 20.0):
                for y in (0.0, 0.1, 1.0, 7.5, 20.0):
                    dev = consistency_deviation(MomentQuery(eta, mu, x, y))
                    assert dev <= 1e-12, (eta, mu, x, y, dev)


def test_series_cannot_take_a_shape_past_one_plus_shape():
    # eta + mu = 1e300 = y: the P series, whose terms never fall, stalls.
    with pytest.raises(ConvergenceError):
        nuttall_q_series(MomentQuery(1e300, 1e150, 1e-300, 1e300))


def test_consistency_past_the_double_range_is_inf():
    # Both sides overflow, so the deviation is inf; lgamma(1.7e308) raised
    # OverflowError in the incomplete-gamma prefactor before.
    assert consistency_deviation(MomentQuery(20, 1.7e308, 0.5, 1e5)) \
        == math.inf


def test_series_at_a_small_shape_is_not_negative():
    # Q_{1e-300}(1e-12) was formed as 1 - P and came out as -4.4e-16.  The
    # value is the whole sum, not term 0 alone (2.7053805451028016e-299),
    # which x (eta + mu) = 1e-600 underflowing in the step left.
    out = nuttall_q_series(MomentQuery(0, 1e-300, 1e-300, 1e-12))
    assert out.converged
    assert out.value == pytest.approx(2.80538054510270160707256251112e-299,
                                      rel=1e-13, abs=0.0)


# (eta, mu, x, y, value) with mu near 0, where x (eta + mu) lies below the
# normal range: a step that formed it dropped or truncated every term after
# n = 0 (0.0 at the first point, 4.89e-202 at the second, 5.8e-6 and
# 1.2e-6 off at the third and fourth, 4.0e-7 at the last).  Values: 30
# digits of the sum of ``perfbench/reference.py`` at 40 digits.
SMALL_MU_POINTS = [
    (0.0, 5e-324, 0.5, 1.0, 0.180690027274838589684394948454),
    (0.0, 1e-200, 3e-150, 2.0, 4.06005849709838096598405155556e-151),
    (0.0, 1e-160, 1e-160, 0.5, 1.1663042544887942220974691785e-160),
    (0.0, 2e-308, 1e-10, 1e-5, 9.99990000000000869758931618511e-11),
    (1e-20, 1e-300, 1e-300, 1e-12, 2.8053805451027016066912376875e-299),
]


@pytest.mark.parametrize("eta,mu,x,y,ref", SMALL_MU_POINTS)
def test_series_at_mu_near_zero_keeps_every_term(eta, mu, x, y, ref):
    out = nuttall_q_series(MomentQuery(eta, mu, x, y))
    assert out.converged
    assert out.value == pytest.approx(ref, rel=1e-13, abs=0.0)


# (eta, mu, x, y, value) with real eta and mu near 0, where Gamma(eta+mu)/
# Gamma(mu) ~ mu/eta is far below 1: its log of ~-645 and ~-460, rounded,
# put 5.4e-14, 4.7e-14 and 1.4e-14 of error into the value.  Values: 30
# digits of the reference sum of ``perfbench/reference.py`` at 40 digits,
# which 60 digits confirm to 1e-41.  At (0.5, 1e-300, 0.5, 1) the first
# weight step x ((eta+mu)/mu) = 2.5e299 passes the fold too, whose log of
# ~690 put 2.7e-14 of error into the value; its value is the mu -> 0 sum
# of ``test_series_at_a_subnormal_mu``, which mu = 1e-300 moves by ~1e-300.
# In the last two rows the rising product starts at a subnormal mu, whose
# lost digits left the values 2.0e-8 and 3.0e-5 off.
TINY_BASE_POINTS = [
    (1e-20, 1e-300, 1e-300, 1e-12, 2.8053805451027016066912376875e-299),
    (0.3, 1e-300, 1e-300, 1e-12, 3.88820238851669817193672590161e-300),
    (1e-20, 1e-200, 0.0, 1e-12, 2.70538054510280148796592427276e-199),
    (0.5, 1e-300, 0.5, 1.0, 0.26299068361878620923),
    (1.75, 1.3e-316, 0.7, 1.1, 1.3162147800894708136316576266),
    (2.5, 3e-320, 2.0, 1.5, 17.8879305045877565056791734027),
]


@pytest.mark.parametrize("eta,mu,x,y,ref", TINY_BASE_POINTS)
def test_series_at_a_tiny_base_keeps_the_gamma_ratio_in_its_mantissa(
        eta, mu, x, y, ref):
    out = nuttall_q_series(MomentQuery(eta, mu, x, y))
    assert out.converged
    assert out.value == pytest.approx(ref, rel=1e-15, abs=0.0)


def test_recurrences_at_mu_near_zero_take_the_series_value():
    # One column at mu = 1e-200: both tables are seeded by the series.
    q = MomentQuery(0.0, 1e-200, 3e-150, 2.0)
    value = nuttall_q_series(q).value
    assert value == pytest.approx(SMALL_MU_POINTS[1][4], rel=1e-13, abs=0.0)
    for method in ("ladder", "homogeneous"):
        assert evaluate(q, method).value == value


def test_marcum_step_matches_the_general_step():
    # At eta = 1e-300, eta + mu rounds to mu, so the general step
    # x/(n+1) ((eta+mu+n)/(mu+n)) and its gamma ratio are the eta = 0 ones
    # times 1.0; only the closed tail (integer eta) and the clip at 1 tell
    # the two apart.  Worst here 1.2e-15 (1102 of 2000 values differ).
    rng = random.Random(45)
    worst = 0.0
    for _ in range(2000):
        mu = rng.uniform(1e-3, 50.0)
        x, y = rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)
        ref = nuttall_q_series(MomentQuery(1e-300, mu, x, y)).value
        worst = max(worst, abs(marcum_q(mu, x, y) - ref) / ref)
    assert worst <= 3e-15


def test_series_at_a_subnormal_mu():
    # The first step x ((eta+mu)/mu) overflows; term 0, below 1e-308 of
    # term 1, adds nothing, against the 40-digit sum from n = 1 at mu = 0.
    # The rescale is the exact power of two of the step's factors, and the
    # gamma ratio's mu/(mu+eta) keeps mu's exponent apart: 6.3e-16 off,
    # where logs of ~745 for both left 6.1e-14.
    out = nuttall_q_series(MomentQuery(0.5, 5e-324, 0.5, 1.0))
    assert out.converged
    assert out.value == pytest.approx(0.26299068361878620923, rel=2e-15,
                                      abs=0.0)


def test_series_fold_at_a_tiny_mu_keeps_a_small_sum_normal():
    # mu = 1e-300 puts ~1.8e-300 in the gamma ratio's mantissa and the
    # first step's ~2.5e299 in the fold; with Q_{1/2}(50) ~ 1e-23 their
    # product with the sum was subnormal before the fold's e^{690} brought
    # it back, 9.8e-7 off.  Its power of two now joins the others: 1.4e-15.
    # Value: 30 digits of a 40-digit sum, which 60 digits confirm.
    out = nuttall_q_series(MomentQuery(0.5, 1e-300, 0.5, 50.0))
    assert out.converged
    assert out.value == pytest.approx(2.4398853737470073682434888131e-19,
                                      rel=5e-15, abs=0.0)


def test_series_with_a_rising_gamma_product_past_1e280():
    # Gamma(180)/Gamma(30) ~ 2.6e299: the rising product moves its binary
    # exponent out exactly past 1e280, where a log of ~645 left 1.2e-14 of
    # error.  Value: 30 digits of a 50-digit sum, which 70 digits confirm.
    out = nuttall_q_series(MomentQuery(150.0, 30.0, 1.0, 1.0))
    assert out.converged
    assert out.value == pytest.approx(1.25750391142133938847512896815e298,
                                      rel=2e-15, abs=0.0)


def test_gamma_ratio_folds_before_a_multiply_leaves_the_range():
    # At base = 1.2e31 nine factors make 5.2e279, below 1e280, and the
    # tenth carried the product to inf.  The fold limit is 1e300 over
    # base + m there, so the ratio keeps its value, and with Q_{mu+10}(y) ~
    # 2.7e-6 so does the moment, 1.7e305: within a few ulp of the exact
    # rising product times the package's own Q (mpmath's Q is out of reach
    # at a shape of 1.2e31).
    mu = 1.2e31
    exact = rising_product_int(10, int(mu))
    mant, exponent, offset = nuttall._gamma_ratio_parts(10.0, mu)
    assert offset == 0.0
    assert math.ldexp(mant, exponent - 1100) == pytest.approx(
        exact / 2**1100, rel=1e-15, abs=0.0)
    y = (mu + 10.0) + 4.5 * math.sqrt(mu + 10.0)
    out = nuttall_q_series(MomentQuery(10.0, mu, 0.0, y))
    q = q_with_log_increment(mu + 10.0, y)[0]
    assert out.converged
    assert out.value == pytest.approx(math.ldexp(exact / 2**1100 * q, 1100),
                                      rel=1e-15, abs=0.0)


def test_series_weight_step_past_the_range_folds_exactly():
    # At x = 1.7e308 the weight step at n = 1, 8.5e307 * 11, overflows by
    # itself.  The fold takes the new weight from the old one and the
    # step's factors, so nothing becomes inf or NaN: the outcome is that
    # of x = 1e307, 2000 terms that stop short of the peak at n ~ x, their
    # sum with e^{-x} far below the range (where an inf weight made the
    # value inf, or 0.0 with est_error NaN), reported as not converged.
    out = nuttall_q_series(MomentQuery(20.0, 1.0, 1.7e308, 1.0))
    assert out == nuttall_q_series(MomentQuery(20.0, 1.0, 1e307, 1.0))
    assert out == (0.0, 2000, 1.0, False)


def test_series_first_step_past_the_range_keeps_term_0():
    # (eta+mu)/mu = 100/5e-324 overflows, but the first step x ((eta+mu)/mu)
    # is 200, so term 0 is 1/200 of term 1 and must stay in the sum.  Its
    # mantissa and power of two from the factors' own leave 6.5e-16 here;
    # ln x + ln(eta+mu) - ln mu, two logs of ~744 that cancel, was 7.4e-14
    # off.  Value: 30 digits of the 40-digit sum.
    out = nuttall_q_series(MomentQuery(100.0, 5e-324, 1e-323, 1.0))
    assert out.converged
    assert out.value == pytest.approx(9.2679646583535486577535892591e-166,
                                      rel=1e-14, abs=0.0)


def test_series_past_the_double_range_at_both_ends():
    # Gamma(720)/Gamma(20) ~ e^3890 times Q_720(1e150) ~ e^-1e150 is 0.0, not
    # 0 * inf; Gamma(1.7e308 + 1e5)/Gamma(1.7e308) overflows, past lgamma.
    assert nuttall_q_series(MomentQuery(700.0, 20.0, 1e-12, 1e150)).value == 0.0
    assert nuttall_q_series(MomentQuery(1e5, 1.7e308, 0.0, 0.0)).value \
        == math.inf
    # x (eta + mu + n) past the double range: the steps do not form it, as
    # one that did overflowed there and gave NaN.
    out = nuttall_q_series(MomentQuery(0.0, 1.7e308, 20.0, 1.0))
    assert (out.value, out.converged) == (1.0, True)
    assert nuttall_q_series(MomentQuery(20.0, 1.7e308, 0.5, 1e5)).value \
        == math.inf


def test_consistency_domain_errors():
    # Only 0 < eta < 1 is refused; x = 0 and eta = 0 are ordinary points.
    assert consistency_deviation(MomentQuery(1.0, 1.0, 0.0, 1.0)) <= 1e-12
    with pytest.raises(DomainError):
        consistency_deviation(MomentQuery(0.5, 1.0, 1.0, 1.0))
    assert consistency_deviation(MomentQuery(0.0, 1.0, 1.0, 1.0)) <= 1e-12


def test_query_validation():
    with pytest.raises(DomainError):
        MomentQuery(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        MomentQuery(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        MomentQuery(1.0, 1.0, -0.1, 1.0)
    with pytest.raises(DomainError):
        MomentQuery(1.0, 1.0, 1.0, -0.1)
    with pytest.raises(DomainError):
        MomentQuery(1.0, math.inf, 1.0, 1.0)
    # Non-finite values of every field fall through the fast check of valid
    # input to the per-field checks, whose message names the field.
    for i, name in enumerate(("eta", "mu", "x", "y")):
        for bad in (math.nan, math.inf, -math.inf):
            args = [1.0, 1.0, 1.0, 1.0]
            args[i] = bad
            with pytest.raises(DomainError, match=f"^{name} must be finite"):
                MomentQuery(*args)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("field", ["eta", "mu", "x", "y"])
def test_query_rejects_an_int_past_the_double_range(field, sign):
    # Not OverflowError from a float conversion, in the checks or later in
    # the series.
    args = {"eta": 1.0, "mu": 1.0, "x": 1.0, "y": 1.0, field: sign * 10**400}
    with pytest.raises(DomainError, match=(
            f"^{field} must be finite, got an int past the double range$")):
        MomentQuery(**args)


def test_records_are_frozen_named_tuples():
    q = MomentQuery(eta=5, mu=10, x=1.2, y=5)
    assert q == (5, 10, 1.2, 5)
    # ConvergenceError messages, and the benchmark's, embed {q}.
    shown = "MomentQuery(eta=1.0, mu=2.0, x=3.0, y=4.0)"
    assert repr(MomentQuery(1.0, 2.0, 3.0, 4.0)) == shown
    assert f"{MomentQuery(1.0, 2.0, 3.0, 4.0)}" == shown
    with pytest.raises(AttributeError):
        q.eta = 6.0
    assert hash(MomentQuery(1.0, 2.0, 3.0, 4.0)) == hash(
        MomentQuery(1.0, 2.0, 3.0, 4.0))
    # _replace checks its fields as the constructor does.
    with pytest.raises(DomainError, match="^mu must be > 0"):
        q._replace(mu=0.0)
    value, terms, err, ok = nuttall_q_series(q)
    assert (value, terms, err, ok) == nuttall_q_series(q)
    assert ok and terms > 0


@settings(max_examples=150, deadline=None)
@given(eta=st.floats(0.0, 30.0), mu=st.floats(0.1, 30.0),
       x=st.floats(0.0, 20.0), y=st.floats(0.0, 20.0))
def test_series_positive_and_converged(eta, mu, x, y):
    out = nuttall_q_series(MomentQuery(eta, mu, x, y))
    assert out.converged
    assert out.value >= 0.0
    assert math.isfinite(out.value)


@settings(max_examples=100, deadline=None)
@given(mu=st.floats(0.2, 40.0), x=st.floats(0.0, 20.0),
       y=st.floats(0.0, 30.0), dy=st.floats(0.1, 10.0))
def test_series_decreasing_in_y(mu, x, y, dy):
    a = nuttall_q_series(MomentQuery(2.0, mu, x, y)).value
    b = nuttall_q_series(MomentQuery(2.0, mu, x, y + dy)).value
    assert b <= a * (1.0 + 1e-12)
