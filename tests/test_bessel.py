"""Tests for the modified Bessel evaluators: scaled values and ratios."""

import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuttallq import (ConvergenceError, DomainError, bessel_i_scaled,
                      bessel_ratio)
from nuttallq import bessel
from nuttallq.bessel import FixedOrderSeries, log_poisson_pair_sum

from oracles import bessel_ratio_by_series, maclaurin_bessel_i


def test_scaled_at_zero_argument():
    assert bessel_i_scaled(0.0, 0.0) == 1.0
    assert bessel_i_scaled(3.0, 0.0) == 0.0


def test_scaled_order_one_matches_series_oracle():
    # e^{-2} I_1(2), with the oracle summed to machine precision.
    expected = math.exp(-2.0) * maclaurin_bessel_i(1.0, 2.0)
    assert bessel_i_scaled(1.0, 2.0) == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("order,arg,ref", [
    # exp(-z) I_order(z) from mpmath.besseli at 40 digits.
    (1000.0, 700.0, 6.1984596126116589987e-278),
    (1000.0, 650.0, 4.8428136276875677843e-295),
])
def test_scaled_small_value_does_not_underflow(order, arg, ref):
    assert bessel_i_scaled(order, arg) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_half_integer_closed_form():
    # I_{1/2}(z) = sqrt(2/(pi z)) sinh(z)
    for z in (0.25, 1.0, 3.0, 12.0):
        ref = math.sqrt(2.0 / (math.pi * z)) * math.sinh(z)
        assert bessel_i_scaled(0.5, z) * math.exp(z) == pytest.approx(
            ref, rel=1e-13, abs=0.0)


def test_order_two_partial_sums_doubled():
    # Doubling the term count must not move the oracle, and the library
    # value must match it.
    s1 = maclaurin_bessel_i(2.0, 10.0, n_terms=60)
    s2 = maclaurin_bessel_i(2.0, 10.0, n_terms=120)
    assert s1 == pytest.approx(s2, rel=1e-15, abs=0.0)
    assert bessel_i_scaled(2.0, 10.0) * math.exp(10.0) == pytest.approx(
        s2, rel=1e-13, abs=0.0)


def test_ratio_trivial_points():
    assert bessel_ratio(0.0, 0.0) == 0.0
    # leading order z / (2 (order+1))
    assert abs(bessel_ratio(0.0, 1e-8) - 5e-9) < 1e-20


def test_ratio_at_reference_recurrence_point():
    z = 2.0 * math.sqrt(6.0)  # the x=2, y=3 coefficient point
    assert bessel_ratio(2.0, z) == pytest.approx(
        bessel_ratio_by_series(2.0, z), rel=1e-14, abs=0.0)


def test_ratio_cf_vs_series_quotient_region():
    # Quotient of independently summed series, z <= 30, order <= 60.
    worst = 0.0
    for mu in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0):
        for z in (1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
            ref = bessel_ratio_by_series(mu, z)
            got = bessel_ratio(mu, z)
            worst = max(worst, abs(got / ref - 1.0))
    assert worst <= 1e-14


# (order, z) with z/(2(order+1)) below 1e-15: where a floor value in the
# continued fraction would swamp the ratio.  z^2/(4(order+1)(order+2)), the
# relative size of the next term, is below 1e-17 at every point.
TINY_RATIO_POINTS = [(0.0, 1e-16), (0.0, 1e-20), (40.0, 1e-14),
                     (0.5, 1e-200), (1e300, 1.0)]


@pytest.mark.parametrize("order,z", TINY_RATIO_POINTS)
def test_ratio_tiny_values_keep_full_precision(order, z):
    got = bessel_ratio(order, z)
    assert got == pytest.approx(z / (2.0 * (order + 1.0)), rel=1e-15, abs=0.0)
    assert got == pytest.approx(bessel_ratio_by_series(order, z), rel=1e-15,
                                abs=0.0)


def test_ratio_monotonic_grid():
    mus = [0.5 * k for k in range(61)]          # 0 .. 30
    zs = [0.1 + 39.9 * k / 19 for k in range(20)]  # 0.1 .. 40
    for mu in mus:
        vals = [bessel_ratio(mu, z) for z in zs]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:])), f"not increasing in z at mu={mu}"
    for z in zs:
        vals = [bessel_ratio(mu, z) for mu in mus]
        assert all(a > b for a, b in zip(vals, vals[1:])), f"not decreasing in mu at z={z}"


def test_scaled_bounds_and_peak():
    for mu in (0.0, 0.5, 1.0, 3.0, 10.0, 40.0):
        for z in (0.0, 0.1, 1.0, 5.0, 20.0, 100.0, 500.0, 2000.0):
            v = bessel_i_scaled(mu, z)
            assert 0.0 <= v <= 1.0
            assert (v == 1.0) == (mu == 0.0 and z == 0.0)


def test_three_term_identity_scaled():
    # Itilde_{mu-1} - Itilde_{mu+1} = (2 mu / z) Itilde_mu
    for mu in (1.0, 2.0, 3.5, 5.0, 8.0, 12.0, 20.0, 30.0, 60.0):
        for z in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0):
            lhs = bessel_i_scaled(mu - 1.0, z) - bessel_i_scaled(mu + 1.0, z)
            rhs = (2.0 * mu / z) * bessel_i_scaled(mu, z)
            assert abs(lhs - rhs) <= 1e-13 * rhs


def _log_scaled(order, z):
    """ln(exp(-z) I_order(z)) as the pair sum at a = b = z/2."""
    return log_poisson_pair_sum(order, 0.5 * z, 0.5 * z)


def test_log_helper_matches_scaled():
    for mu, z in ((0.0, 3.0), (4.0, 17.0), (25.5, 80.0)):
        assert _log_scaled(mu, z) == pytest.approx(
            math.log(bessel_i_scaled(mu, z)), rel=1e-14, abs=0.0)
    assert _log_scaled(2.0, 0.0) == -math.inf


@pytest.mark.parametrize("z,ref", [
    # ln(exp(-z) I_7(z)) from mpmath.besseli at 50 digits.  z^2/4 underflows
    # to 0.0 at both points.
    (1e-162, -2624.50868708023283746387221088),
    (1e-300, -4848.80588691248096772845456788),
])
def test_log_helper_below_the_underflow_of_z_squared(z, ref):
    assert _log_scaled(7.0, z) == pytest.approx(ref, rel=1e-14, abs=0.0)


# (order, z, ln(exp(-z) I_order(z))) at 12 seeded points with z in
# [700, 3000] and order in [0, 1000], from mpmath.besseli at 50 digits.
LARGE_ARG_POINTS = [
    (0.0, 1489.01, -4.57178793088944688261653382345),
    (321.191, 1874.74, -32.1416296224586495497068809206),
    (731.21, 2651.86, -105.064116657671866780729402934),
    (458.424, 2626.35, -44.7708939635283748640185781915),
    (115.169, 2731.76, -7.30304851573993740816766892051),
    (390.71, 2952.63, -30.7315035551789689162742704019),
    (674.202, 714.823, -303.322381063066264340408957056),
    (80.5939, 1315.3, -6.97908113839847041232797013422),
    (795.003, 1027.45, -298.926401603752594870473850633),
    (191.892, 1334.42, -18.2956697484988618361884415481),
    (233.988, 1898.77, -19.0962901785182222572315026612),
    (985.504, 2202.09, -221.857730394530923918025224811),
]


@pytest.mark.parametrize("order,z,ref", LARGE_ARG_POINTS)
def test_log_helper_past_the_power_series(order, z, ref):
    assert abs(_log_scaled(order, z) - ref) <= 3e-13
    assert bessel_i_scaled(order, z) == pytest.approx(math.exp(ref),
                                                      rel=3e-13, abs=0.0)


# (order, a, b, ln sum_n p(n; a) p(n+order; b)) from mpmath.besseli at 50
# digits, each checked against the directly summed terms to 1e-25: the
# ladder's forcing terms at (x, y) = (1000, 1200) and at the two
# UNDERFLOWED_FORCING points of tests/test_recurrences.py, where e^{-z}
# I_order(z) underflows.
PAIR_SUM_POINTS = [
    (1.0, 1000.0, 1200.0, -13.7837505554901017866666354199),
    (0.0, 3.0, 0.5, -2.34766084241708184289835420318),
    (60.0, 1e-06, 200.0, -70.7291291521009526418485751989),
    (95.0, 1e-06, 200.0, -37.4749079654022225501420297861),
    (100.0, 1e-12, 400.0, -164.592920844762331060995674258),
    (159.0, 1e-12, 400.0, -97.7668199054846033376205683904),
    (2.5, 900.0, 40.0, -568.31482170485954676807090227),
]


@pytest.mark.parametrize("order,a,b,ref", PAIR_SUM_POINTS)
def test_poisson_pair_sum_at_unequal_arguments(order, a, b, ref):
    assert abs(log_poisson_pair_sum(order, a, b) - ref) <= 3e-13


# ln sum_n p(n; a) p(n+order; b) for long sums, about 2.5e4 to 1.5e5 terms:
# rows (order, a, b, value), 40 digits of ln((b/a)^{order/2} e^{-a-b}
# I_order(2 sqrt(ab))) from mpmath.besseli at 40 digits, which agrees with
# the same at 60 digits to 4e-33.  Added up term by term, each tail term
# below half an ulp of the sum was rounded away on its own, and the sum was
# up to 1.2e-13 off at z = 3e8.
LONG_PAIR_SUMS = [
    (0.0, 5e6, 5e6, -8.977986346183832010843234723624069525256),
    (2.5, 1e7, 1.0005e7, -9.948904022695713609831705072343025685134),
    (0.0, 3e7, 3e7, -9.873866091214526785555093761138612560043),
    (7.0, 2e7, 2.0004e7, -9.870464216048841885642491059185976160085),
    (1.0, 5e7, 5e7, -10.12927890893085549660229571920557593717),
    (30.5, 8e7, 8.0015e7, -11.06453047917522858655656588332663597632),
    (0.0, 1e8, 1e8, -10.47585249483582813099841160773414137027),
    (3.0, 1.5e8, 1.5e8, -10.67858506409824368118880702535973614242),
    (0.5, 1.2e8, 1.2001e8, -10.77533792708766912039562140467379041305),
    (100.0, 1.5e8, 1.5e8, -10.67860171576493810047903082397139313721),
    (12.0, 1.4e8, 1.4003e8, -12.24982754590319927988165126655835672204),
]


@pytest.mark.parametrize("order,a,b,ref", LONG_PAIR_SUMS)
def test_poisson_pair_sum_keeps_its_tail_terms(order, a, b, ref):
    assert abs(log_poisson_pair_sum(order, a, b) - ref) <= 2.5e-14


def test_poisson_pair_sum_matches_the_power_series_in_its_box():
    for order, z in itertools.product((0.0, 0.5, 3.0, 40.0, 250.0),
                                      (0.01, 1.0, 30.0, 400.0, 700.0)):
        if order < 250.0 or z >= 30.0:  # else e^{-z} I_250(z) underflows
            got = log_poisson_pair_sum(order, 0.5 * z, 0.5 * z)
            assert abs(got - math.log(bessel_i_scaled(order, z))) <= 1e-13
    assert log_poisson_pair_sum(3.0, 2.0, 0.0) == -math.inf
    assert log_poisson_pair_sum(0.0, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("z", [1e9, 1e200, 1.7e308])
def test_scaled_past_the_term_cap_is_a_convergence_error(z):
    with pytest.raises(ConvergenceError, match="Bessel series did not converge"):
        bessel_i_scaled(2.0, z)


def test_power_series_past_its_term_cap_is_a_convergence_error():
    # No public caller gets here: both stop at z <= 700, q <= 122,500.  At
    # q = 1e12 the terms still rise at the cap of 100,000.
    with pytest.raises(ConvergenceError) as exc:
        bessel._four_term_sum(1e12, [], bessel._series_steps, 0.0, 1e12)
    assert str(exc.value) == ("Bessel series did not converge for "
                              "order=0.0, q=1000000000000.0")


def _raise_time(z):
    """The error raised at e^{-z} I_0(z) and the least time of five calls."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError) as exc:
            log_poisson_pair_sum(0.0, 0.5 * z, 0.5 * z)
        best = min(best, time.perf_counter() - start)
    return str(exc.value), best


@pytest.mark.parametrize("z", [6.9e8, 7.5e8])
def test_poisson_pair_sum_past_its_term_cap_raises_at_once(z, monkeypatch):
    # The upward sum from the peak needs more than its 100,000 terms from z
    # ~ 6.63e8 on; from 6.79e8 the peak's width proves it before the loop,
    # which took about 20 ms to reach the same error.
    message, seconds = _raise_time(z)
    assert seconds < 1e-3
    monkeypatch.setattr(bessel, "_runs_past_the_cap", lambda *_: False)
    with pytest.raises(ConvergenceError) as exc:
        log_poisson_pair_sum(0.0, 0.5 * z, 0.5 * z)
    assert str(exc.value) == message


def test_poisson_pair_sum_just_inside_its_term_cap_converges():
    # e^{-z} I_0(z) = e^{-1/2 ln(2 pi z)} (1 + 1/(8z) + 9/(128 z^2) + ...)
    # (DLMF 10.40.1); the terms left out are below 1e-26 here.
    z = 6.6e8
    ref = -0.5 * math.log(2.0 * math.pi * z) + math.log1p(
        1.0 / (8.0 * z) + 9.0 / (128.0 * z * z))
    assert abs(log_poisson_pair_sum(0.0, 0.5 * z, 0.5 * z) - ref) <= 1e-12


@pytest.mark.parametrize("order,z,ref", [
    # ln(e^{-z} S(z^2/4)) = ln(e^{-z} I_order(z)) + ln Gamma(order+1) - order
    # ln(z/2), from mpmath.besseli at 40 digits.  The Hankel branch takes
    # every point but (20, 99.93): the floor of 21 binds at (8, 21) and (9,
    # 21), (4 order^2 - 1)/16 = 99.9375 lies between 99.93 and 99.94,
    # (48.2146, 586.697) lies just above it at order 48, (0, 700) is the
    # branch's last argument, and at order 1/2 the expansion ends after
    # its first term.
    (8.0, 21.0, -12.1831868432558541705712329059),
    (9.0, 21.0, -12.7403865633004478927703524161),
    (20.0, 99.93, -41.1154775466539281640313650927),
    (20.0, 99.94, -41.1173287549975659826132555868),
    (20.0, 100.0, -41.1284325326087658435390598237),
    (48.2146, 586.697, -138.504862490122200208429912563),
    (0.0, 700.0, -4.19430000155655092319714355836),
    (0.5, 21.0, -3.73766961828336830649278232825),
])
def test_fixed_order_log_matches_mpmath_on_both_sides_of_the_hankel_switch(
        order, z, ref):
    # The power series' own error at these points is at most an ulp of the
    # value (at (20, 100) and (0.5, 21)), and so is the bound.
    got = FixedOrderSeries(order).log_scaled(0.25 * z * z, z)
    assert abs(got - ref) <= math.ulp(ref)


@pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 8.0, 9.0, 20.0, 30.5, 41.7,
                                   48.2146, 52.9])
def test_hankel_branch_meets_the_power_series_at_its_switch(order):
    # Just below hankel_from the series gives the value and just above it
    # Hankel's expansion; the same object with its switch moved past z
    # gives the other branch at the same z.  Against 40-digit mpmath the
    # series is up to two ulps off at these points (2.84e-14 at order 41.7,
    # ~6e-14 in absolute terms at order 48 elsewhere, so no fixed bound
    # fits every order), and the Hankel branch at most one.
    series = FixedOrderSeries(order)
    switch = series.hankel_from
    assert switch == max(21.0, (4.0 * order * order - 1.0) / 16.0) <= 700.0
    for z in (switch * (1.0 - 2.0**-40), switch * (1.0 + 2.0**-40)):
        got = series.log_scaled(0.25 * z * z, z)
        series.hankel_from = 0.0 if z < switch else math.inf
        other = series.log_scaled(0.25 * z * z, z)
        series.hankel_from = switch
        assert abs(got - other) <= 2.0 * math.ulp(got), (order, z)


def test_hankel_switch_rule_converges_with_terms_at_most_two():
    # Orders 0 to 52.9, where the switch lies at or below z = 700, and
    # arguments from the switch up to ten times it, capped at 700: every sum
    # stops before its term cap, and no term, 1 being the first, exceeds 2
    # in size.  That is what the divisor 16 buys; the floor of 21 keeps the
    # dropped e^{-2z} part below 5.7e-19.  The sum itself, sqrt(2 pi z)
    # e^{-z} I_order(z), lies near e^{-order^2 / (2z)} >= e^{-2}, so its
    # alternating terms lose at most a few bits.
    for i in range(0, 530, 7):
        order = 0.1 * i
        switch = max(21.0, (4.0 * order * order - 1.0) / 16.0)
        for j in range(5):
            z = switch + (min(700.0, 10.0 * switch) - switch) * j / 4
            steps = []
            total = bessel._four_term_sum(1.0 / z, steps,
                                          bessel._hankel_steps, order, z)
            term, largest = 1.0, 1.0
            for step in itertools.chain.from_iterable(steps):
                term *= step / z
                largest = max(largest, abs(term))
            assert largest <= 2.0 and 0.13 < total < 1.01, (order, z)


def test_hankel_sum_past_its_switch_is_a_convergence_error():
    # No caller gets here: at order 8 the expansion converges only from z
    # ~ 20.45, and below it its terms turn before they reach the cutoff.
    with pytest.raises(ConvergenceError) as exc:
        bessel._four_term_sum(1.0 / 20.0, [], bessel._hankel_steps, 8.0,
                              20.0)
    assert str(exc.value) == ("Bessel Hankel expansion did not converge for "
                              "order=8.0, z=20.0")


def test_largest_order_at_a_tiny_argument():
    # lgamma(1.7e308 + 1) overflows; the value lies far below double range.
    assert bessel_i_scaled(1.7e308, 1e-300) == 0.0


def test_domain_errors():
    with pytest.raises(DomainError):
        bessel_i_scaled(-1.0, 2.0)
    with pytest.raises(DomainError):
        bessel_i_scaled(0.5, -3.0)
    with pytest.raises(DomainError):
        bessel_ratio(-0.5, 1.0)
    with pytest.raises(DomainError):
        bessel_i_scaled(math.nan, 1.0)


@settings(max_examples=200, deadline=None)
@given(order=st.floats(0.0, 80.0), arg=st.floats(0.0, 200.0))
def test_scaled_always_in_unit_interval(order, arg):
    v = bessel_i_scaled(order, arg)
    assert 0.0 <= v <= 1.0
    assert math.isfinite(v)


@settings(max_examples=200, deadline=None)
@given(order=st.floats(0.0, 80.0),
       arg=st.floats(1e-6, 150.0))
def test_ratio_always_in_unit_interval(order, arg):
    r = bessel_ratio(order, arg)
    assert 0.0 < r < 1.0
