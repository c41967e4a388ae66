"""Tests for the modified Bessel evaluators: scaled values and ratios."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuttallq import DomainError, bessel_i_scaled, bessel_ratio
from nuttallq.bessel import log_bessel_i_scaled

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


def test_log_helper_matches_scaled():
    for mu, z in ((0.0, 3.0), (4.0, 17.0), (25.5, 80.0)):
        assert log_bessel_i_scaled(mu, z) == pytest.approx(
            math.log(bessel_i_scaled(mu, z)), rel=1e-14, abs=0.0)
    assert log_bessel_i_scaled(2.0, 0.0) == -math.inf


@pytest.mark.parametrize("z,ref", [
    # ln(exp(-z) I_7(z)) from mpmath.besseli at 50 digits.  z^2/4 underflows
    # to 0.0 at every point, and z/2 too at the smallest subnormal.
    (5e-324, -5224.45769507465386766483724501),
    (1e-162, -2624.50868708023283746387221088),
    (1e-300, -4848.80588691248096772845456788),
])
def test_log_helper_below_the_underflow_of_z_squared(z, ref):
    assert log_bessel_i_scaled(7.0, z) == pytest.approx(ref, rel=1e-14, abs=0.0)


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
