"""Tests for the truncated tanh-rule quadrature oracle."""

import decimal
import math
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuttallq import (ConvergenceError, DomainError, MomentQuery,
                      QuadratureOutcome, QuadratureSpec, marcum_q,
                      moment_by_quadrature, nuttall_q_series,
                      tanh_rule_integrate, truncation_bounds)
from nuttallq import quadrature
from nuttallq.bessel import FixedOrderSeries

from oracles import EDGE_POINTS, log_scaled_bessel_i, naive_integrand


def _profile(gamma_exp, x, t):
    return t**gamma_exp * math.exp(-((math.sqrt(t) - math.sqrt(x)) ** 2))


def _map_t(spec, u):
    """t at u under the map over the window of spec, clamped to the window:
    lower + W v^p with W the window's width, v = (1 + tanh u)/2 = 1/(1 +
    e^{-2u}) and p = 20, v^p formed as e^{-p log1p(e^{-2u})}."""
    a, b = spec.lower, spec.upper
    t = a + (b - a) * math.exp(-20.0 * math.log1p(math.exp(-2.0 * u)))
    return min(b, max(a, t))


def _node_t(q, spec, u):
    """t at u under the map of spec's window: t = u^2 on a free window
    (lower > y), the power map of ``_map_t`` on a cut one."""
    return u * u if spec.lower > q.y else _map_t(spec, u)


def _node_log(k, t):
    """ln f(t) as a node computes it."""
    return quadrature._log_integrand(k, t, t - k.x)


def pass_points(k, free=False):
    """Points of pass k of a window's nested grids, pass 0 its first grid:
    (n0 - 1) 2^k + 1, n0 the first grid of a cut window, or of a free one
    where free is true."""
    n0 = quadrature._FREE_FIRST_GRID if free else quadrature._FIRST_GRID
    return (n0 - 1) * 2**k + 1


def test_integrand_trivial_origin():
    # mu=1, eta=0, t -> 0: x^0 t^0 e^{-x} I_0(0) = e^{-x}; no node reaches
    # t = 0, so the limit is taken at the least positive t.
    k = quadrature._NodeKernel(MomentQuery(0.0, 1.0, 2.5, 0.0))
    assert math.exp(_node_log(k, math.ulp(0.0))) == pytest.approx(
        math.exp(-2.5), rel=1e-15, abs=0.0)


def test_integrand_rejects_mu_below_one():
    with pytest.raises(DomainError):
        moment_by_quadrature(MomentQuery(1.0, 0.5, 1.0, 0.0))


def test_profile_peak_location_by_scan():
    # Grid-scan argmax of the peak-estimate profile must land within one
    # cell of the closed-form peak.
    q = MomentQuery(1.0, 1.0, 5.0, 10.0)
    spec = truncation_bounds(q)
    gamma_exp = q.eta + 0.5 * (q.mu - 1.0)
    lo, hi = 1e-9, 3.0 * spec.peak
    n = 1000
    cell = (hi - lo) / (n - 1)
    ts = [lo + i * cell for i in range(n)]
    best = max(ts, key=lambda t: gamma_exp * math.log(t)
               - (math.sqrt(t) - math.sqrt(q.x)) ** 2)
    assert abs(best - spec.peak) <= cell


def test_integrand_scaled_matches_naive_form():
    # At a benign point the scaled form equals the raw formula.
    k = quadrature._NodeKernel(MomentQuery(1.0, 1.0, 0.1, 1.5))
    ref = naive_integrand(1.0, 1.0, 0.1, 1.5)
    assert math.exp(_node_log(k, 1.5)) == pytest.approx(
        ref, rel=1e-13, abs=0.0)


def _node_log_without_kernel(eta, mu, x, t):
    """ln f(t) by the per-node formula the kernel replaced, and the largest
    magnitude among its terms and those the kernel adds."""
    if x == 0.0:
        terms = [(eta + mu - 1.0) * math.log(t), -t, -math.lgamma(mu)]
    else:
        terms = [0.5 * (1.0 - mu) * math.log(x),
                 (eta + 0.5 * (mu - 1.0)) * math.log(t),
                 -(math.sqrt(t) - math.sqrt(x)) ** 2,
                 log_scaled_bessel_i(mu - 1.0, 2.0 * math.sqrt(x * t))]
    kernel_terms = [(eta + mu - 1.0) * math.log(t), math.lgamma(mu)]
    return sum(terms), max(abs(v) for v in terms + kernel_terms)


def _assert_kernel_matches(k, eta, mu, x, t):
    ref, big = _node_log_without_kernel(eta, mu, x, t)
    got = _node_log(k, t)
    # Each form adds terms of up to `big` (its logs reach ~2000 at mu =
    # 200), each good to a few ulp.  Where they cancel to |ln f| far below
    # `big`, that rounding is the floor of both forms: the old one is itself
    # up to 2.1e-13 off a 40-digit value at |ln f| < 3.
    assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref), big / 64.0), (
        eta, mu, x, t, got, ref)


def test_node_kernel_matches_the_per_node_formula():
    rng = random.Random(9)
    for _ in range(300):
        eta = rng.uniform(0.0, 50.0)
        mu = 1.0 if rng.random() < 0.25 else rng.uniform(1.0, 200.0)
        x = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-3.0, 4.0)
        k = quadrature._NodeKernel(MomentQuery(eta, mu, x, 0.0))
        # Several nodes per kernel, so later sums reuse and extend the step
        # table that earlier ones built; z spans both sides of 700.
        for _ in range(5):
            z = rng.uniform(0.0, 1000.0)
            t = z * z / (4.0 * x) if x > 0.0 else rng.uniform(1e-3, 1e3)
            if t > 0.0:
                _assert_kernel_matches(k, eta, mu, x, t)


@pytest.mark.parametrize("mu", [1.0, 3.0, 57.5, 200.0, 25000.5])
def test_node_kernel_across_the_series_switch(mu):
    # z = 2 sqrt(x t) = 700 at x = 1225, t = 100.  mu = 25000.5 lies above
    # order 20,000, where bessel_i_scaled leaves its linear sum.
    x = 1225.0
    ts = (100.0 * (1.0 - 1e-9), 100.0 * (1.0 + 1e-9))
    assert [2.0 * math.sqrt(x * t) <= 700.0 for t in ts] == [True, False]
    k = quadrature._NodeKernel(MomentQuery(2.0, mu, x, 0.0))
    for t in ts:
        _assert_kernel_matches(k, 2.0, mu, x, t)
    # At x = 0 the same formula runs with z = 0.
    k = quadrature._NodeKernel(MomentQuery(2.0, mu, 0.0, 0.0))
    for t in ts + (1e-3, mu):
        _assert_kernel_matches(k, 2.0, mu, 0.0, t)


@pytest.mark.parametrize("mu", [1.0, 12.5, 200.0])
def test_node_kernel_sums_past_its_table(mu):
    # The first node tabulates the few step factors its sum needs; the
    # second (z ~ 697.9) needs hundreds more and extends the table, the
    # third repeats it from the table alone, the fourth (z ~ 698.6) goes a
    # few terms past it again.
    x = 1225.0
    k = quadrature._NodeKernel(MomentQuery(0.0, mu, x, 0.0))
    values = []
    for t in (1e-3, 99.4, 99.4, 99.6):
        _assert_kernel_matches(k, 0.0, mu, x, t)
        values.append(_node_log(k, t))
    assert values[1] == values[2]


def test_node_log_is_the_documented_sum_bit_for_bit():
    # ln f(t) = (eta+mu-1) ln t - d^2 - ln Gamma(mu) + ln(e^{-z} S(x t)),
    # d = (t - x) / (sqrt t + sqrt x), summed left to right: the kernel's
    # cached parts change no node's arithmetic.  z spans both sides of 700,
    # and x = 0 takes the same sum with z = 0.
    rng = random.Random(17)
    for i in range(200):
        eta = rng.uniform(0.0, 50.0)
        mu = rng.uniform(1.0, 200.0)
        x = 0.0 if i % 5 == 0 else 10.0 ** rng.uniform(-2.0, 4.0)
        k = quadrature._NodeKernel(MomentQuery(eta, mu, x, 0.0))
        series = FixedOrderSeries(mu - 1.0)
        for _ in range(4):
            z = rng.uniform(0.0, 1400.0)
            t = z * z / (4.0 * x) if x > 0.0 else rng.uniform(1e-3, 1e3)
            d = (t - x) / (math.sqrt(t) + math.sqrt(x))
            q = x * t
            expected = ((eta + mu - 1.0) * math.log(t) - d * d
                        - series.log_gamma
                        + series.log_scaled(q, 2.0 * math.sqrt(q)))
            assert quadrature._log_integrand(k, t, t - x) == expected, (
                eta, mu, x, t)


def test_truncation_gamma_zero_peak_is_x_exactly():
    spec = truncation_bounds(MomentQuery(0.0, 1.0, 3.7, 0.0))
    assert spec.peak == 3.7


def test_truncation_peak_formula():
    spec = truncation_bounds(MomentQuery(1.0, 1.0, 1.2, 5.0))
    expected = (math.sqrt(1.2) + math.sqrt(1.2 + 4.0)) ** 2 / 4.0
    assert spec.peak == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert spec.lower == 5.0


def test_truncation_profile_below_eps_at_ends():
    q = MomentQuery(5.0, 10.0, 5.0, 10.0)
    spec = truncation_bounds(q)
    g = q.eta + 0.5 * (q.mu - 1.0)
    top = _profile(g, q.x, max(spec.peak, q.y))
    assert _profile(g, q.x, spec.upper) <= 1e-16 * top


def test_truncation_width_doubling_insensitive(monkeypatch):
    # The widened window is integrated over the full u-range, so this also
    # checks the u-range that truncation_bounds sized for the narrow one.
    q = MomentQuery(5.0, 10.0, 5.0, 10.0)
    spec = truncation_bounds(q)
    base = tanh_rule_integrate(q).value
    center = max(spec.peak, q.y)
    wide = spec._replace(upper=center + 2.0 * (spec.upper - center),
                         u_lo=quadrature._U_MAX, u_hi=quadrature._U_MAX)
    monkeypatch.setattr(quadrature, "truncation_bounds", lambda _: wide)
    assert tanh_rule_integrate(q).value == pytest.approx(base, rel=1e-12, abs=0.0)


def test_zero_width_window_integrates_to_zero():
    # At y = 1e300 the window's half-width is far below one ulp of its
    # centre, so lower == upper; the series gives 0.0 there too.
    q = MomentQuery(1.0, 1.0, 1.0, 1e300)
    spec = truncation_bounds(q)
    assert spec.lower == spec.upper == q.y
    assert tanh_rule_integrate(q) == QuadratureOutcome(0.0, 0, 0.0)
    assert nuttall_q_series(q).value == 0.0


def test_x_so_large_that_x_t_overflows_is_a_domain_error():
    # x = 1e300 puts the window's upper end near 1e300, so the node argument
    # x t overflows; the error names x and the route, and truncation_bounds
    # raises it before it sizes the u-range.
    q = MomentQuery(1.0, 2.0, 1e300, 1.0)
    for func in (truncation_bounds, tanh_rule_integrate):
        with pytest.raises(DomainError, match=r"^quadrature cannot take "
                           r"x = 1e\+300: the Bessel argument x t overflows"):
            func(q)


def test_nodes_past_z_700_match_the_reference():
    # Its window spans z = 6000 to 6833, all past the power series.
    got = tanh_rule_integrate(MomentQuery(2.0, 10.0, 3000.0, 3000.0)).value
    # perfbench/reference.py, a 40-digit mpmath gammainc series.
    assert got == pytest.approx(5159919.903182375, rel=5e-13, abs=0.0)


@pytest.mark.parametrize("x", [1e5, 1e6])
def test_large_x_nodes_give_the_closed_form(x):
    # The full first moment is x + mu = x + 2, and its part below y = 1 is
    # of order e^{-x}, far below one ulp.  The nodes reach z ~ 2e5 and 2e6.
    got = tanh_rule_integrate(MomentQuery(1.0, 2.0, x, 1.0)).value
    assert got == pytest.approx(x + 2.0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("x", [1e5, 1e6, 1e7])
def test_x_zero_profile_is_left_out_far_below_the_peak(x):
    # At y = 1 the x = 0 profile t^2 e^{-t} is near its top, but the
    # integrand there is ~e^{-x}.  The window is sized on the integrand's
    # own shape around its peak near x, for every x, so the profile of x =
    # 0 takes no part in it.
    q = MomentQuery(1.0, 2.0, x, 1.0)
    got = tanh_rule_integrate(q).value
    assert got == pytest.approx(x + 2.0, rel=2e-14, abs=0.0)


@pytest.mark.parametrize("x", [1e150])
def test_x_past_the_bessel_series_is_a_named_convergence_error(x):
    # x t stays finite, but the terms of the shape's log are so large that
    # an ulp of them exceeds its drop, and the query is refused before any
    # node.  The error names every parameter.
    q = MomentQuery(1.0, 2.0, x, 1.0)
    assert math.isfinite(q.x * quadrature._window(
        quadrature._Shape(q.eta, q.mu, q.x), q.y)[1])
    with pytest.raises(ConvergenceError, match=(
            rf"^quadrature cannot take eta = 1\.0, mu = 2\.0, "
            rf"x = {re.escape(repr(x))}, y = 1\.0: rounding leaves its "
            r"window .* unable to resolve")):
        tanh_rule_integrate(q)


def test_x_far_past_the_power_series_integrates():
    # The node arguments z = 2 sqrt(x t) lie near 2e12, where the sum of
    # Poisson products that once gave the nodes' Bessel factor ran past its
    # term cap and the integral raised; Hankel's expansion takes them.
    # Q_{1,2}(x, 1) is x + 2 less a part below t = 1 of order e^{-x}.
    out = tanh_rule_integrate(MomentQuery(1.0, 2.0, 1e12, 1.0))
    assert abs(out.value / (1e12 + 2.0) - 1.0) <= out.est_error < 1e-3


@pytest.mark.parametrize("k", range(5))
def test_far_x_at_mu_equal_to_x_integrates_to_one(k):
    # Q_{0,mu}(mu, 0) = 1, at mu = x from 1e8 to 1e10 by half-decades: the
    # nodes' Bessel order is mu - 1 and their arguments lie near 2 mu, far
    # below the Hankel switch, so Debye's expansion takes them.  At 1e8 the
    # sum of Poisson products that served there took over a second, and
    # from 3.2e8 on it ran past its term cap and raised.
    mu = 10.0 ** (8 + k / 2)
    start = time.perf_counter()
    out = tanh_rule_integrate(MomentQuery(0.0, mu, mu, 0.0))
    assert time.perf_counter() - start < 0.05
    assert abs(out.value - 1.0) <= out.est_error < 1e-3


def test_collapsed_window_on_the_peak_raises():
    # eta = 1e300 puts the peak near 1e300, where the window's half-width
    # above it rounds away, so the window [y, upper] ends at the peak.  The
    # integral there is not negligible (the series overflows to inf
    # unconverged), and 0.0 would be a silently wrong value: an ulp of the
    # shape's terms at the peak exceeds its drop, and truncation_bounds
    # refuses it.  eta put the peak there, so the message names every
    # parameter and blames none.
    q = MomentQuery(1e300, 1.0, 1.0, 1.0)
    for func in (truncation_bounds, tanh_rule_integrate):
        with pytest.raises(ConvergenceError, match=r"^quadrature cannot "
                           r"take eta = 1e\+300, mu = 1\.0, x = 1\.0, "
                           r"y = 1\.0: rounding leaves its window "
                           r"\[1\.0, 1e\+300\] unable to resolve"):
            func(q)
    assert not nuttall_q_series(q).converged


@pytest.mark.parametrize("eta,mu,x,y", [
    (0.0, 1.0, 1e35, 1e35), (1.0, 2.0, 1e35, 1e35), (0.0, 5.0, 1e40, 1e40)])
def test_collapsed_window_at_y_on_the_peak_is_refused(eta, mu, x, y):
    # The peak lies at or just above y = x, and the window around it is
    # narrower than an ulp of x, so it rounds to zero width at y.  The
    # integral there is about half of its value over the whole half-line
    # (about 1/2 at eta = 0), not 0.0.
    q = MomentQuery(eta, mu, x, y)
    assert quadrature._Shape(eta, mu, x).peak() >= y
    for func in (truncation_bounds, tanh_rule_integrate):
        with pytest.raises(ConvergenceError, match="^" + re.escape(
                f"quadrature cannot take eta = {eta!r}, mu = {mu!r}, "
                f"x = {x!r}, y = {y!r}: rounding leaves its window ")
                + r".* unable to resolve the integrand"):
            func(q)


@pytest.mark.parametrize("x", [1e34, 2e34])
def test_flat_shape_one_ulp_past_the_peak_is_refused(x, monkeypatch):
    # The window is a few ulps of y wide, and at the Newton step towards
    # the drop of the shape above y its slope rounds to 0: no step is
    # defined, and no u-range is sized.
    dropped = []
    drop = quadrature._drop

    def recording(*args):
        dropped.append(drop(*args))
        return dropped[-1]

    monkeypatch.setattr(quadrature, "_drop", recording)
    q = MomentQuery(0.0, 1.0, x, math.nextafter(x, math.inf))
    with pytest.raises(ConvergenceError, match=r"^quadrature cannot take "
                       rf"eta = .*, x = {re.escape(repr(x))}, .* unable to "
                       r"resolve"):
        truncation_bounds(q)
    assert len(dropped) == 1 and math.isnan(dropped[0])


def test_lower_cut_past_the_window_is_refused(monkeypatch):
    # ``_u_range`` refuses a lower cut outside (0, v_up) of its window; no
    # input is known to reach that exit, so a cut at the window's far end,
    # v = 1, stands in.
    q = MomentQuery(2.0, 5.0, 3.0, 10.0)
    spec = truncation_bounds(q)
    assert spec.lower == q.y  # a cut window, sized by ``_u_range``
    monkeypatch.setattr(quadrature, "_lower_cut",
                        lambda *args: spec.upper - q.y)
    with pytest.raises(ConvergenceError, match=r"^quadrature cannot take "
                       r"eta = 2\.0, mu = 5\.0, x = 3\.0, y = 10\.0: "):
        truncation_bounds(q)


def test_collapsed_window_one_ulp_past_the_peak_integrates_to_zero():
    # One ulp of y = 1e35 past the peak x = 1e35 is about 40 standard
    # deviations of the integrand, sqrt(2 x) wide, so the value is about
    # e^-812 and rounds to 0.0.
    y = math.nextafter(1e35, math.inf)
    q = MomentQuery(0.0, 1.0, 1e35, y)
    spec = truncation_bounds(q)
    assert spec.lower == spec.upper == y and spec.peak < y
    assert tanh_rule_integrate(q) == QuadratureOutcome(0.0, 0, 0.0)


CONVERGED_PASS_POINTS = [
    (1.0, 1.0, 0.1, 1.5), (5.0, 10.0, 5.0, 10.0), (50.0, 30.0, 1.2, 5.0),
    (2.0, 1.0, 0.0, 1.0),
]


@pytest.mark.parametrize("eta,mu,x,y", CONVERGED_PASS_POINTS)
def test_outcome_reports_the_converged_pass(eta, mu, x, y):
    q = MomentQuery(eta, mu, x, y)
    out = tanh_rule_integrate(q)
    assert out.value == moment_by_quadrature(q)
    # Nested grids: n0 points, then n -> 2n - 1, so (n0 - 1) 2^k + 1 after
    # k refinements (k >= 1: the first pass has nothing to compare against).
    free = truncation_bounds(q).lower > q.y
    k = ((out.nodes - 1) // (pass_points(0, free) - 1)).bit_length() - 1
    assert k >= 1 and out.nodes == pass_points(k, free)
    assert 0.0 <= out.est_error <= 1e-12


# (eta, mu, x, y, value): cut windows whose passes change by about 8e-2,
# 2e-5, 3e-15, so that the error's exponent grows about fourfold per
# halving of the spacing.  The squaring stop misses their third pass (d^2
# ~ 3e-10 to 6e-10), and without the rate stop they take the fourth; the
# value given here is that of a 129-point pass.
RATE_STOP_POINTS = [
    (2.6369724772923466, 24.603533322108103, 15.391002007309368,
     14.72977760619944, 18033.50855049661),
    (0.0, 37.67105371186827, 1.7102187038152676, 18.448031333288885,
     0.9999773673605432),
    (24.0, 13.900118893820583, 0.16777329389058088, 17.57299224708682,
     2.654433118612627e+33),
    # A box corner whose passes change by 7.5e-2, then 2.3e-5 (d^2 =
    # 5.5e-10, d^3 = 1.3e-14); its value is the 40-digit one of
    # BOX_EDGE_POINTS.
    (0.0, 50.0, 0.0, 20.0, 0.999999987541073920),
]


def _floor(q):
    """The least est_error at q: 4 r, r = 2^-52 max(g ln c, c) at the
    window's centre c = max(peak, y), g = eta + mu - 1, and at least
    2^-47."""
    c = max(truncation_bounds(q).peak, q.y)
    r = 2.0**-52 * max((q.eta + q.mu - 1.0) * math.log(c), c) if c else 0.0
    return max(4.0 * r, 2.0**-47)


def test_outcome_stops_on_the_first_pass_a_rule_accepts():
    # Replays the passes up to the one returned: no earlier pass meets any
    # stop rule, all at the module's one tolerance, and the returned one
    # reports d where two passes agree, d^2 where the error squares and
    # d^rho, rho = min(3, ln d / ln d_prev), where the passes show a faster
    # rate, each raised to the rounding floor of ``_floor``.  All three
    # rules occur here; (0, 5, 5, 0), whose value is 1, stops where two
    # passes agree.
    tol = quadrature._REL_TOL
    used = set()
    for eta, mu, x, y in (CONVERGED_PASS_POINTS
                          + [(4.0, 12.5, 7.0, 9.0), (0.0, 5.0, 5.0, 0.0)]
                          + [p[:4] for p in RATE_STOP_POINTS]):
        q = MomentQuery(eta, mu, x, y)
        out = tanh_rule_integrate(q)
        values = []
        spec = truncation_bounds(q)
        node_logs, first = quadrature._node_map(q, spec)
        for n, value in quadrature._nested_passes(node_logs, spec, first):
            values.append(value)
            if n == out.nodes:
                break
        d = [abs(b - a) / abs(b) for a, b in zip(values, values[1:])]

        def estimate(k):
            if d[k] <= tol:
                return "agree", d[k]
            if k and d[k] < d[k - 1] and d[k] ** 2 <= tol:
                return "square", d[k] ** 2
            if k and 0.0 < d[k] < d[k - 1] < 1.0:
                rate = d[k] ** min(3.0, math.log(d[k]) / math.log(d[k - 1]))
                if rate <= tol:
                    return "rate", rate
            return None

        assert [estimate(k) for k in range(len(d) - 1)] == [None] * (len(d) - 1)
        rule, est = estimate(len(d) - 1)
        assert (out.value, out.est_error) == (values[-1], max(est, _floor(q)))
        used.add(rule)
    assert used == {"agree", "square", "rate"}


@pytest.mark.parametrize("eta,mu,x,y,value", RATE_STOP_POINTS)
def test_rate_stop_accepts_pass_2(eta, mu, x, y, value):
    q = MomentQuery(eta, mu, x, y)
    out = tanh_rule_integrate(q)
    assert out.nodes == pass_points(2)
    assert out.value == pytest.approx(value, rel=2e-14, abs=0.0)
    assert out.value == pytest.approx(nuttall_q_series(q).value, rel=1e-13,
                                      abs=0.0)


# (eta, mu, x, y, bound): cut windows whose third pass a stop rule accepts
# within bound of the series.  At (1, 3, 400, 300) the nodes span z = 693
# to 1046, across the 700 switch of the Bessel series behind them, and the
# rate stop accepts (d^3 = 5.6e-15).  (0, 20, 5, 0) is a Marcum Q of
# exactly 1, where two passes agree.  At x = 0 the nodes take the same
# formula with z = 0, and the squaring stop accepts (d^2 = 6.8e-13).
CUT_PASS_2_STOPS = [
    (1.0, 3.0, 400.0, 300.0, 1e-13),
    (0.0, 20.0, 5.0, 0.0, 1e-14),
    (2.0, 5.0, 0.0, 3.0, 1e-13),
]


@pytest.mark.parametrize("eta,mu,x,y,bound", CUT_PASS_2_STOPS)
def test_cut_window_stops_at_pass_2(eta, mu, x, y, bound):
    q = MomentQuery(eta, mu, x, y)
    out = tanh_rule_integrate(q)
    assert truncation_bounds(q).lower == q.y and out.nodes == pass_points(2)
    assert out.value == pytest.approx(nuttall_q_series(q).value, rel=bound,
                                      abs=0.0)


def _stop_on_pass_sums(monkeypatch, sums):
    """``tanh_rule_integrate`` at a benign point of a cut window, with
    passes that sum to ``sums``, and no rounding floor, so that est_error
    is the stop rule's own estimate."""
    def passes(node_logs, spec, n):
        for value in sums:
            yield n, value
            n = 2 * n - 1

    monkeypatch.setattr(quadrature, "_nested_passes", passes)
    monkeypatch.setattr(quadrature, "_FLOOR_FACTOR", 0.0)
    monkeypatch.setattr(quadrature, "_FLOOR_MIN", 0.0)
    return tanh_rule_integrate(MomentQuery(1.0, 1.0, 0.1, 1.5))


def _sums_with_changes(changes):
    """Pass sums from 1.0 whose relative changes d are about ``changes``."""
    sums = [1.0]
    for d in changes:
        sums.append(sums[-1] / (1.0 - d))
    return sums


@pytest.mark.parametrize("d_prev,d", [(1e-1, 1e-5), (1e-2, 1e-5)])
def test_rate_stop_takes_d_to_the_measured_rate(monkeypatch, d_prev, d):
    # d^2 = 1e-10 misses the squaring stop.  rho = 5 is capped at 3, and
    # rho = 2.5 is taken as it is.
    sums = _sums_with_changes([d_prev, d])
    d_prev, d = (abs(b - a) / abs(b) for a, b in zip(sums, sums[1:]))
    rho = min(3.0, math.log(d) / math.log(d_prev))
    assert _stop_on_pass_sums(monkeypatch, sums) == (sums[-1], pass_points(2),
                                                     d ** rho)


@pytest.mark.parametrize("mu,x", [(mu, 0.0) for mu in (
    1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10)] + [(mu, mu) for mu in (
    1e3, 1e4, 1e5, 1e6)])
def test_est_error_bounds_the_error_where_mu_is_large(mu, x):
    # Q_{0,mu}(x, 0) = 1.  A node's log sums terms of about mu ln mu that
    # cancel, and their rounding, not the stop rule's estimate, sets the
    # error: at (0, 1e5, 0, 0) it is 3.1e-10, where the stop rule's
    # estimate is 2.7e-22.  est_error, at its floor here, lies 3x to 128x
    # above the error at these points, and above 1e-12 from mu = 1e3.
    q = MomentQuery(0.0, mu, x, 0.0)
    out = tanh_rule_integrate(q)
    assert out.est_error >= _floor(q) > 1e-12
    assert abs(out.value - 1.0) <= out.est_error


@pytest.mark.parametrize("eta,mu,x,y,ref", [
    # The points of the benchmark's box (eta in [0, 50], mu in [1, 50], x, y
    # in [0, 20]) whose error came nearest est_error, in 2000 seeded points
    # (pass 0 of seeds 1-20 of quadrature-points) and 200 with eta <= 3,
    # mu <= 3, x <= 2 and y <= 3.  30-digit values of the gammainc series
    # of ``perfbench/reference.py``, at 60 digits.
    (20.62943699782735, 1.6838419758586642, 18.421513611757916,
     5.839562990045114, 7.7852398853556326650212453087e+31),
    (11.0, 9.990499873780669, 19.978805344159145, 1.3519460124230824,
     214295192367481535.535862671661),
    (2.0, 2.832060037269674, 1.6916861210719774, 0.6421819321604064,
     26.6776343474891028443346428479),
    (1.0, 1.9926264434147944, 0.5103084801136217, 1.8788240959545908,
     2.02680450334952211693175851764),
])
def test_est_error_bounds_the_error_on_the_box(eta, mu, x, y, ref):
    # The error lay at most 0.32 of est_error on all 2200 points: where the
    # window's centre c is about 1, its rounding r is below an ulp, and the
    # floor of 2^-47 covers errors of up to 9 ulps.
    out = tanh_rule_integrate(MomentQuery(eta, mu, x, y))
    assert abs(out.value - ref) / ref <= out.est_error <= 1e-12


@pytest.mark.parametrize("sums", [
    # rho = 3.5 would give d^rho = 5.6e-13, but the cap of 3 gives 3.2e-11.
    _sums_with_changes([1e-1, 10.0**-3.5]),
    # d = 1e-5 after d = 1 (a first pass of 0): ln d_prev = 0 gives no rate.
    [0.0, 1.0, 1.0 / (1.0 - 1e-5)],
    # d does not fall: 1/2, then 1/2.
    [1.0, 2.0, 4.0],
])
def test_rate_stop_does_not_fire(monkeypatch, sums):
    with pytest.raises(ConvergenceError, match="did not converge"):
        _stop_on_pass_sums(monkeypatch, sums)


@pytest.mark.parametrize("eta,mu,x,y", CONVERGED_PASS_POINTS)
def test_each_node_is_evaluated_once(eta, mu, x, y, monkeypatch):
    evaluated = []
    log_integrand = quadrature._log_integrand

    def recording(k, t, dx):
        evaluated.append(t)
        return log_integrand(k, t, dx)

    monkeypatch.setattr(quadrature, "_log_integrand", recording)
    q = MomentQuery(eta, mu, x, y)
    out = tanh_rule_integrate(q)
    assert len(evaluated) == out.nodes
    # Every evaluation is a distinct node of the last grid.  Near the
    # window ends the map saturates and neighbouring nodes round to one t,
    # so the check is on multisets.
    spec = truncation_bounds(q)
    h = (spec.u_lo + spec.u_hi) / (out.nodes - 1)
    grid = Counter(_node_t(q, spec, -spec.u_lo + i * h)
                   for i in range(out.nodes))
    assert not Counter(evaluated) - grid


BOX_EDGE_POINTS = [
    # Corners and edges of the box eta in [0, 50], mu in [1, 50], x, y in
    # [0, 20].  30-digit values from mpmath at 45 digits, where a gammainc
    # series and mpmath.quad of the defining integral agree to 1e-45.
    (0.0, 50.0, 0.0, 20.0, 0.999999987541073920280620765173),
    (50.0, 50.0, 20.0, 0.0, 6.52551178815642645820680344876e+99),
    (2.5, 1.0, 0.5, 0.0, 8.27775820006730943303127284995),
    (49.9, 50.0, 20.0, 20.0, 4.00595771293275323151886179981e+99),
    (0.0, 1.0, 20.0, 0.1, 0.999999999535527336647645484602),
    (50.0, 1.0, 20.0, 0.1, 7.64559590257205552491511486050e+86),
    (0.0, 1.0, 20.0, 20.0, 0.531639139937617665131211120176),
]


# y ~ 0 with the integrand still rising as t^{eta+mu-1} next to the
# window's lower end.  Sizing that end by the profile at the window end
# itself, near 0 there, cuts it to u = 3 and drops that rising mass: the
# second point is then 9.9e-7 off in 32,257 nodes, the third 1.1e-10 off.
# The last entry is the grid a fixed u-range [-_U_MAX, _U_MAX] needs.
RISING_NEAR_ZERO_POINTS = [
    (0.0, 3.322093321712608, 0.0, 2.0738036364741006e-07, 505),
    (0.0, 4.9962344275158435, 0.0, 9.774383962105061e-05, 505),
    (7.083696485270758, 1.0, 3.9412894238407415e-09, 4.541608812390834e-07,
     1009),
]


@pytest.mark.parametrize("eta,mu,x,y,parent_nodes", RISING_NEAR_ZERO_POINTS)
def test_u_range_keeps_the_rising_mass_near_zero(eta, mu, x, y, parent_nodes):
    q = MomentQuery(eta, mu, x, y)
    out = tanh_rule_integrate(q)
    assert out.value == pytest.approx(nuttall_q_series(q).value, rel=1e-10,
                                      abs=0.0)
    assert out.nodes <= parent_nodes


def _wide_box_point(rng):
    """eta in [0, 50], mu in [1, 200], x in [0, 300] and y in [0, 400],
    with x down to 1e-12 and y down to 1e-8 on a log scale."""
    eta = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 50.0)
    mu = 1.0 if rng.random() < 0.1 else rng.uniform(1.0, 200.0)
    r = rng.random()
    x = (0.0 if r < 0.05 else 10.0 ** rng.uniform(-12.0, 0.0) if r < 0.35
         else rng.uniform(0.0, 300.0))
    r = rng.random()
    y = (0.0 if r < 0.05 else 10.0 ** rng.uniform(-8.0, 0.0) if r < 0.35
         else rng.uniform(0.0, 400.0))
    return MomentQuery(eta, mu, x, y)


# The box of the quadrature-points benchmark, exact zeros and integer eta
# drawn on purpose.
_box_eta = st.one_of(st.integers(0, 50).map(float), st.floats(0.0, 50.0))
_box_xy = st.one_of(st.just(0.0), st.floats(0.0, 20.0))


@settings(max_examples=200, deadline=None)
@given(eta=_box_eta, mu=st.floats(1.0, 50.0), x=_box_xy, y=_box_xy)
def test_quadrature_agrees_with_the_series_on_the_box(eta, mu, x, y):
    q = MomentQuery(eta, mu, x, y)
    try:
        value = moment_by_quadrature(q)
    except (DomainError, ConvergenceError):
        return
    ref = nuttall_q_series(q)
    assert ref.converged
    assert value == pytest.approx(ref.value, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("eta,mu,x,y,ref", EDGE_POINTS)
def test_quadrature_at_the_committed_edge_points(eta, mu, x, y, ref):
    q = MomentQuery(eta, mu, x, y)
    assert moment_by_quadrature(q) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_quadrature_vs_series_on_a_wide_box():
    rng = random.Random(13)
    for _ in range(100):
        q = _wide_box_point(rng)
        ref = nuttall_q_series(q)
        assert ref.converged, q
        assert tanh_rule_integrate(q).value == pytest.approx(
            ref.value, rel=1e-10, abs=0.0), q


def _past_box_point(rng):
    """eta 0, an integer in [1, 50] or a real in [0, 50], mu in [1, 200],
    and one of three strata past the box: x in [20, 800] with y in [x/4,
    4x]; x <= 20 with y in [20, 400]; x in [20, 300] with y <= 60."""
    eta = (0.0, float(rng.randint(1, 50)), rng.uniform(0.0, 50.0))[
        rng.randrange(3)]
    mu = rng.uniform(1.0, 200.0)
    stratum = rng.randrange(3)
    if stratum == 0:
        x = rng.uniform(20.0, 800.0)
        y = rng.uniform(x / 4.0, 4.0 * x)
    elif stratum == 1:
        x, y = rng.uniform(0.0, 20.0), rng.uniform(20.0, 400.0)
    else:
        x, y = rng.uniform(20.0, 300.0), rng.uniform(0.0, 60.0)
    return MomentQuery(eta, mu, x, y)


def test_cut_windows_past_the_box_agree_with_the_series_to_1e_12():
    # 60 seeded cut windows past the box, where the series converges to a
    # finite, nonzero value.  Nearly all stop at the third pass, on any of
    # the three rules; the worst of 3,000 such draws was 4.2e-13 from the
    # series.  From an 11-point first grid, one of these stopped at 41
    # points, 3.0e-12 off.
    rng = random.Random(7)
    points = []
    while len(points) < 60:
        q = _past_box_point(rng)
        if truncation_bounds(q).lower == q.y:
            ref = nuttall_q_series(q)
            if ref.converged and 0.0 < ref.value < math.inf:
                points.append((q, ref.value))
    third = 0
    for q, ref in points:
        out = tanh_rule_integrate(q)
        assert out.value == pytest.approx(ref, rel=1e-12, abs=0.0), q
        third += out.nodes == pass_points(2)
    assert third >= 0.9 * len(points), third


def _shape_log(q, t):
    """ln h(t) = (eta+mu-1) ln t - t + L(x t), with L(z) = r - nu - nu
    ln((nu + r) / (2 nu)), r = sqrt(nu^2 + 4 z), nu = mu - 1, the Debye
    form of ln 0F1(; mu; z); L(z) = 2 sqrt(z) at nu = 0."""
    nu = q.mu - 1.0
    r = math.sqrt(nu * nu + 4.0 * q.x * t)
    ell = r - nu
    if nu > 0.0:
        ell -= nu * math.log((nu + r) / (2.0 * nu))
    return (q.eta + nu) * math.log(t) - t + ell


def _shape_centre_top(q):
    """The centre c of the shape on [y, inf) and ln h(c), its top."""
    c = max(quadrature._Shape(q.eta, q.mu, q.x).peak(), q.y)
    return c, (_shape_log(q, c) if c > 0.0 else 0.0)


def test_u_range_ends_are_sized_by_the_outermost_node():
    # The outermost node t = t(u_hi) lies above the centre of the
    # integrand's shape h with h at or below _EPS of its top there, and
    # 0.05 less in u leaves h above that: u_hi sits at the drop, not past
    # it.  On a free window the same holds of the lowest node t(-u_lo) =
    # u_lo^2 below the centre, and 0.05 more in u.  A cut window's dropped
    # lower piece is checked in
    # test_cut_lower_end_drops_below_eps_of_the_integral, and its bound in
    # test_cut_end_is_the_closed_form_of_its_bound.
    free_ends = 0
    for eta, mu, x, y in CONVERGED_PASS_POINTS + [
            p[:4] for p in RISING_NEAR_ZERO_POINTS]:
        q = MomentQuery(eta, mu, x, y)
        spec = truncation_bounds(q)
        c, top = _shape_centre_top(q)

        def small_at(u, above=True):
            t = _node_t(q, spec, u)
            return ((t >= c) == above
                    and _shape_log(q, t) - top <= math.log(1e-16) + 1e-12)

        free = spec.lower > q.y
        if free:
            free_ends += 1
            assert 0.0 < -spec.u_lo < spec.u_hi, q
            assert small_at(-spec.u_lo, above=False), q
            assert not small_at(-spec.u_lo + 0.05, above=False), q
        else:
            assert -spec.u_lo < spec.u_hi < quadrature._U_MAX, q
        assert small_at(spec.u_hi), q
        assert not small_at(spec.u_hi - 0.05), q
    assert free_ends >= 1


def _points_where_x_t_nears_mu_squared():
    """Seeded points where x t nears mu^2, mu in [50, 200] and x in [1,
    100]: the integrand peaks above both t^{eta+mu-1} e^{-t} and t^{eta +
    (mu-1)/2} e^{-(sqrt t - sqrt x)^2}, and cutting the u-range where those
    fall to 1e-16 left these up to 9e-10 off the series."""
    rng = random.Random(19)
    return [MomentQuery(rng.uniform(0.0, 60.0), rng.uniform(50.0, 200.0),
                        rng.uniform(1.0, 100.0), rng.uniform(0.0, 20.0))
            for _ in range(60)]


def test_shape_peak_is_where_its_slope_vanishes():
    # A ternary search of the shape against the closed-form peak; at mu = 1
    # the peak is that of t^eta e^{-(sqrt t - sqrt x)^2}, and at x = 0 it is
    # eta + mu - 1.
    rng = random.Random(23)
    for _ in range(200):
        q = MomentQuery(rng.uniform(0.0, 60.0), rng.uniform(1.0, 300.0),
                        10.0 ** rng.uniform(-6.0, 4.0), 0.0)
        peak = quadrature._Shape(q.eta, q.mu, q.x).peak()
        lo, hi = 0.5 * peak, 2.0 * peak
        for _ in range(100):
            m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
            if _shape_log(q, m1) < _shape_log(q, m2):
                lo = m1
            else:
                hi = m2
        assert peak == pytest.approx(lo, rel=1e-6, abs=0.0), q
    for eta, x in ((2.0, 3.0), (0.0, 7.5), (40.0, 1e-3)):
        ref = (math.sqrt(x) + math.sqrt(x + 4.0 * eta)) ** 2 / 4.0
        assert quadrature._Shape(eta, 1.0, x).peak() == pytest.approx(
            ref, rel=1e-14, abs=0.0)
    assert quadrature._Shape(3.5, 20.0, 0.0).peak() == 22.5


def test_u_range_holds_the_integrand_above_1e_14_of_its_peak():
    # A scan of the integrand over [y, b], b the upper end of the cut
    # window: every t where it is above 1e-14 of the scan's largest value
    # lies inside [t(-u_lo), t(u_hi)], whether the window is cut or free.
    for q in _cut_points()[::5] + _points_where_x_t_nears_mu_squared():
        spec = truncation_bounds(q)
        k = quadrature._NodeKernel(q)
        a = q.y
        b = quadrature._window(quadrature._Shape(q.eta, q.mu, q.x), q.y)[1]
        ts = [a + (b - a) * (i + 0.5) / 400 for i in range(400)]
        logs = [_node_log(k, t) for t in ts]
        top = max(logs)
        inside = [t for t, v in zip(ts, logs) if v - top > math.log(1e-14)]
        assert (_node_t(q, spec, -spec.u_lo) <= min(inside)
                and max(inside) <= _node_t(q, spec, spec.u_hi)), q


def test_window_holds_the_mass_where_x_t_nears_mu_squared_at_large_mu():
    # Q_{0,mu}(x, 0) = 1.  The integrand peaks near t = 9735, past the
    # windows of t^{mu-1} e^{-t} and of t^{(mu-1)/2} e^{-(sqrt t - sqrt
    # x)^2}, whose union made this 0.96 in 16,385 nodes.  A node's log adds
    # terms of ~5.6e4 here, so rounding alone moves it by ~1e-12.
    out = tanh_rule_integrate(MomentQuery(0.0, 6055.0, 3681.0, 0.0))
    assert out.value == pytest.approx(1.0, rel=1e-10, abs=0.0)
    assert out.nodes == pass_points(2)


def test_quadrature_vs_series_where_x_t_nears_mu_squared():
    for q in _points_where_x_t_nears_mu_squared():
        assert tanh_rule_integrate(q).value == pytest.approx(
            nuttall_q_series(q).value, rel=1e-12, abs=0.0), q


def _cut_points():
    """Queries for the lower end the map cuts off at a + d: y in the
    integrand's mass, y ~ 0 with the integrand rising next to it, the box
    edges, and 300 seeded points of the box eta in [0, 50], mu in [1, 50],
    x, y in [0, 20]."""
    fixed = (CONVERGED_PASS_POINTS + [p[:4] for p in RISING_NEAR_ZERO_POINTS]
             + [p[:4] for p in BOX_EDGE_POINTS] + [(0.0, 1.0, 0.0, 0.0)])
    rng = random.Random(17)
    box = [(rng.uniform(0.0, 50.0), rng.uniform(1.0, 50.0),
            rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0))
           for _ in range(300)]
    return [MomentQuery(*p) for p in fixed + box]


def test_cut_lower_end_drops_below_eps_of_the_integral():
    # The map leaves out [lower, lower + d], d = W v(-u_lo)^20 with W
    # the window's width; d is often below an ulp of lower.  That piece, d
    # times the integrand's largest value on a scan of it, is below _EPS of
    # the integral.  Free windows are checked in
    # test_free_window_drops_below_eps_of_the_integral.
    points = [q for q in _cut_points() if truncation_bounds(q).lower == q.y]
    assert len(points) >= 60
    for q in points:
        spec = truncation_bounds(q)
        a = spec.lower
        d = (spec.upper - a) / (1.0 + math.exp(2.0 * spec.u_lo)) ** 20
        assert spec.u_lo < quadrature._U_MAX and d > 0.0, q
        k = quadrature._NodeKernel(q)
        # No node reaches t = 0; at a = 0 the integrand's limit there is its
        # value at the least positive t.
        top = max(_node_log(k, max(a + i * 0.01 * d, math.ulp(0.0)))
                  for i in range(101))
        value = tanh_rule_integrate(q).value
        assert value > 0.0, q
        assert (math.log(d) + top - math.log(value)
                <= math.log(quadrature._EPS)), q


def test_free_window_drops_below_eps_of_the_integral():
    # A free window leaves out [y, lower] and [upper, b], b the upper end
    # of the cut window, above which the integrand's shape is below _EPS^2
    # of its top.  Each piece, on a 400-point trapezoid scan in t, is below
    # _EPS of the integral.
    free = 0
    for q in _cut_points()[::2]:
        spec = truncation_bounds(q)
        if spec.lower == q.y:
            continue
        free += 1
        k = quadrature._NodeKernel(q)
        b = quadrature._window(quadrature._Shape(q.eta, q.mu, q.x), q.y)[1]
        value = tanh_rule_integrate(q).value
        for lo, hi in ((q.y, spec.lower), (spec.upper, b)):
            ts = [lo + (hi - lo) * i / 400 for i in range(401)]
            fs = [math.exp(_node_log(k, max(t, math.ulp(0.0)))) for t in ts]
            piece = (hi - lo) / 400 * (math.fsum(fs) - (fs[0] + fs[-1]) / 2)
            assert piece <= quadrature._EPS * value, (q, lo, hi)
    assert free >= 80, free


# (eta, mu, x, y): y = 0 lies below the mass, but the peak, near t = 18
# and 12, lies within _ROOT_DROP of 0 in sqrt t, so the curvature bound
# puts no drop of the shape below it at t > 0.  These take a cut window; a
# free window would start its search for the lower drop at t = 0, the
# branch point of t^{eta+mu-1}.
NEAR_ZERO_PEAK_POINTS = [
    (0.0, 2.9431713132297257, 16.428864422404455, 0.0),
    (0.0, 5.2707493379472945, 8.217039297972473, 0.0),
]


@pytest.mark.parametrize("eta,mu,x,y", NEAR_ZERO_PEAK_POINTS)
def test_free_window_stays_clear_of_t_zero(eta, mu, x, y):
    q = MomentQuery(eta, mu, x, y)
    assert tanh_rule_integrate(q).value == pytest.approx(
        nuttall_q_series(q).value, rel=1e-13, abs=0.0)


# (0, mu, 0, 0) at mu = 10^(3 + k/2): the value, 1 up to the rounding of
# node logs of about mu ln mu, and the pass of its cut window that the stop
# rule accepts (``pass_points``).
LARGE_MU_CUT_OUTCOMES = [
    (1.000000000000417, 2), (1.000000000001717, 2),
    (0.9999999999959809, 2), (0.9999999999946069, 2),
    (1.0000000003102596, 2), (0.9999999997076418, 2),
    (1.0000000004919687, 2), (0.9999999953150077, 2),
    (1.000000025341652, 2), (1.0000000496051966, 2),
    (0.9999998566143973, 2), (0.9999995270001254, 2),
    (1.0000009392403881, 2), (1.0000068336109147, 2),
    (1.000008152066575, 3), (0.9999038192499137, 3),
]


@pytest.mark.parametrize("k", range(26))
def test_large_mu_at_x_zero_keeps_its_cut_window(k):
    # The node logs round at 2^-52 mu ln mu, above the 1e-13 a free window
    # needs from mu ~ 70, so every half-decade from 1e3 to 3.2e15 keeps the
    # cut window.  The values and passes above run up to mu = 3.2e10.  From
    # 1e10 the passes differ by rounding near 1e-4, and the stop accepts
    # the first change at or below the rounding floor: at 3.2e10 that is
    # pass 3, where a change below 1e-12 came by chance after 12 passes
    # (28,673 nodes), and from 1e12, where it came not before the node cap,
    # passes 1 to 3.  Up to 3.2e13 the value lies within its est_error of
    # 1.  From 1e14 the floor (2.9 to 100) would accept any change, and the
    # integral is refused: there it gave 71.8 at 3.2e15.  A free window
    # there returned 0.93 at mu = 1e15 and 3.3e8 at 4.5e15.
    q = MomentQuery(0.0, 10.0 ** (3 + k / 2), 0.0, 0.0)
    assert truncation_bounds(q).lower == q.y
    if k >= 22:
        with pytest.raises(ConvergenceError, match=(
                r"^quadrature cannot take eta = 0\.0, mu = .*, x = 0\.0, "
                r"y = 0\.0: the rounding floor .* leaves the value no digit$")):
            tanh_rule_integrate(q)
        return
    out = tanh_rule_integrate(q)
    if k < len(LARGE_MU_CUT_OUTCOMES):
        value, k_pass = LARGE_MU_CUT_OUTCOMES[k]
        assert (out.value, out.nodes) == (value, pass_points(k_pass))
    assert out.nodes <= pass_points(3)
    assert abs(out.value - 1.0) <= out.est_error < 1.0


@pytest.mark.parametrize("eta,mu,x,y", [
    (0.0, 1e3, 0.0, 2e15), (0.0, 1.0, 0.0, 1.2e15), (3.0, 5.0, 2.0, 5e15),
    (0.0, 1e15, 0.0, 1.1e15),
])
def test_floor_past_one_still_gives_an_underflowed_integral(eta, mu, x, y):
    # y far past the mass: the rounding floor at y is 1.1 to 31, but every
    # node underflows, and the value 0.0 holds no rounding to refuse.
    out = tanh_rule_integrate(MomentQuery(eta, mu, x, y))
    assert out == (0.0, pass_points(1), 0.0)


@pytest.mark.parametrize("eta,mu,x,y", [
    (47.0, 36.541762543500596, 19.511900608372187, 19.78895311732377),
    (49.0, 34.65406010504813, 18.7813986540499, 0.0),
    (0.0, 87.41810628175409, 34.56075251169736, 6.241625241631289),
    # y lies below the mass, and the squaring stop accepts 33 points.
    (7.0, 48.8, 7.1, 1.85),
])
def test_free_window_first_grid_lets_no_pass_stop_before_33_points(
        eta, mu, x, y):
    # From a first grid of 5 points the 9- and 17-point passes of these
    # free windows changed little enough for the squaring stop to accept
    # 17 points, 2e-8 off; the first grid of 9 points takes them to 33.
    q = MomentQuery(eta, mu, x, y)
    out = tanh_rule_integrate(q)
    assert (truncation_bounds(q).lower > q.y
            and out.nodes == pass_points(2, free=True))
    assert out.value == pytest.approx(nuttall_q_series(q).value, rel=1e-13,
                                      abs=0.0)


def test_free_windows_past_z_700_stop_at_33_points():
    # Free windows whose top node t = upper takes its Bessel factor past
    # z = 2 sqrt(x t) = 700, off the power series: eta 0, an integer or
    # real up to 5, mu in [1, 5], x in [150, 420], y in [0, 100].  Each
    # stops at 33 nodes within 1e-13 of the series, as the ones below 700.
    rng = random.Random(5)
    points = []
    for _ in range(2000):
        kind = rng.randrange(3)
        eta = (0.0, float(rng.randint(1, 5)), rng.uniform(0.0, 5.0))[kind]
        q = MomentQuery(eta, rng.uniform(1.0, 5.0), rng.uniform(150.0, 420.0),
                        rng.uniform(0.0, 100.0))
        spec = truncation_bounds(q)
        if spec.lower > q.y and 2.0 * math.sqrt(q.x * spec.upper) > 700.0:
            points.append(q)
            if len(points) == 300:
                break
    assert len(points) == 300, len(points)
    for q in points:
        out = tanh_rule_integrate(q)
        assert out.nodes == pass_points(2, free=True), q
        assert out.value == pytest.approx(nuttall_q_series(q).value,
                                          rel=1e-13, abs=0.0), q


@pytest.mark.parametrize("eta,mu,x,y,free", [
    (4.0, 12.5, 7.0, 9.0, False),
    (7.0, 48.8, 7.1, 1.85, True),
])
def test_node_cap_raises(monkeypatch, eta, mu, x, y, free):
    # With the cap at 17 nodes, a cut window has its first pass and a free
    # one its 9- and 17-point passes, and neither stops there.
    q = MomentQuery(eta, mu, x, y)
    assert (truncation_bounds(q).lower > q.y) is free
    monkeypatch.setattr(quadrature, "_NODE_CAP", 17)
    with pytest.raises(ConvergenceError,
                       match="did not converge within 17 nodes"):
        tanh_rule_integrate(q)


def test_cut_end_is_the_closed_form_of_its_bound():
    # The dropped length d = W / (1 + e^{2U})^20 times the largest value of
    # the integrand's shape h on [a, a + d] is at most _EPS times the mass
    # bound e^top (b - c) (1 - e^{-delta}) / delta of h (c its centre,
    # delta its log drop from c to b), up to rounding, and 0.05 less in U
    # breaks it.  Where the window starts at the top of h, y past its peak,
    # h is at its top on [a, a + d], and U is the closed form of the bound.
    # Free windows take most points with y below the mass, where -u_lo
    # lies above 0; the low box eta in [0, 10], mu in [1, 20], x in [0, 10],
    # y in [0, 2] puts the peak below _ROOT_DROP^2, where they stay cut.
    rng = random.Random(43)
    low = [MomentQuery(rng.uniform(0.0, 10.0), rng.uniform(1.0, 20.0),
                       rng.uniform(0.0, 10.0), rng.uniform(0.0, 2.0))
           for _ in range(150)]
    closed, negative = 0, 0
    for q in _cut_points() + low:
        spec = truncation_bounds(q)
        if spec.lower > q.y:
            continue
        a, b = spec.lower, spec.upper
        c, top = _shape_centre_top(q)
        delta = top - _shape_log(q, b)
        need = (b - c) * -math.expm1(-delta) / delta

        def excess(v):
            """ln of d max h / (_EPS mass bound) at U = v."""
            d = (b - a) / (1.0 + math.exp(2.0 * v)) ** 20
            t = min(a + d, c)
            h = 0.0 if t >= c else _shape_log(q, t) - top
            return math.log(d / need) + h - math.log(1e-16)

        assert -spec.u_hi < spec.u_lo < quadrature._U_MAX, q
        assert excess(spec.u_lo) <= 1e-12, q
        assert excess(spec.u_lo - 0.05) > 0.0, q
        negative += spec.u_lo < 0.0
        if c == a:
            closed += 1
            u = 0.5 * math.log(math.expm1(
                math.log((b - a) / (1e-16 * need)) / 20))
            assert spec.u_lo == pytest.approx(u, rel=1e-12, abs=0.0), q
    assert closed >= 5 and negative >= 100, (closed, negative)


def test_most_cut_integrals_stop_within_pass_3():
    points = [q for q in _cut_points() if truncation_bounds(q).lower == q.y]
    short = [tanh_rule_integrate(q).nodes <= pass_points(3) for q in points]
    assert sum(short) >= 0.9 * len(points), (sum(short), len(points))


# Cut windows at y ~ 0, where t^{eta+mu-1} rises from the window's lower
# end; the other points of the test below take free windows.
HIGH_POWER_CUT_POINTS = [
    (44.0, 80.0, 4.87, 0.0), (0.0, 150.0, 7.66, 0.0),
    (47.1, 120.0, 11.0, 2.45), (2.0, 1.5, 0.3, 0.0),
]


@pytest.mark.parametrize("eta,mu,x,y", [
    (47.1, 46.0, 11.0, 2.45), (36.0, 33.2, 8.49, 0.0),
    (0.0, 34.4, 7.66, 0.0), (50.0, 21.9, 9.07, 8.72),
    (41.0, 38.4, 1.95, 8.25), (44.0, 40.9, 4.87, 0.0),
] + HIGH_POWER_CUT_POINTS)
def test_high_power_integrals_stop_within_pass_3(eta, mu, x, y):
    # t^{eta+mu-1} rises over tens of decades below the mass.  A lower end
    # left a doubling below the profile's drop (the integrand e^-140 to
    # e^-300 there) crowded a cut window's nodes where it is negligible,
    # and such integrals took 257 points; the cut windows here take 57.
    q = MomentQuery(eta, mu, x, y)
    out = tanh_rule_integrate(q)
    cut = (eta, mu, x, y) in HIGH_POWER_CUT_POINTS
    assert (truncation_bounds(q).lower == q.y) == cut, q
    assert out.nodes <= pass_points(3), q
    assert out.value == pytest.approx(nuttall_q_series(q).value, rel=1e-10,
                                      abs=0.0)


def _record_nodes(monkeypatch, spec, x, passes):
    """Drive ``_nested_passes`` over the window and u-range of spec, for a
    kernel at x, with a recording ``_log_integrand`` that puts ln f = 0 at
    every node: [(u, t, t - x)] of every node of the first ``passes``
    passes, u formed as the grid forms it, and the trapezoid sum of the
    last of them, which is then the integral of dt/du over the u-range."""
    seen = []

    def recording(k, t, dx):
        seen.append((t, dx))
        return 0.0

    monkeypatch.setattr(quadrature, "_log_integrand", recording)
    kernel = quadrature._NodeKernel(MomentQuery(1.0, 2.0, x, 1.0))
    node_logs = quadrature._power_map(kernel, spec)
    n = quadrature._FIRST_GRID
    h = (spec.u_lo + spec.u_hi) / (n - 1)
    us = [-spec.u_lo + i * h for i in range(n)]
    for k, (points, total) in enumerate(
            quadrature._nested_passes(node_logs, spec, n), 1):
        if k == passes:
            break
        n, h = 2 * n - 1, 0.5 * h
        us += [-spec.u_lo + i * h for i in range(1, n, 2)]
    assert points == n and len(seen) == len(us)
    return [(u,) + node for u, node in zip(us, seen)], total


def _decimal_node(spec, u):
    """a + W (1 + e^{-2u})^{-20} on the window [a, b] of spec, W = b - a,
    in 50-digit Decimal, u taken as the double it is."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        v20 = (1 + decimal.Decimal(-2.0 * u).exp()) ** -20
        return (decimal.Decimal(spec.lower)
                + decimal.Decimal(spec.upper - spec.lower) * v20)


def test_power_map_weight_is_dt_du(monkeypatch):
    # With ln f = 0 at every node, the trapezoid sum on the map's log
    # weight, ln(2 p W) - warp, integrates dt/du over the u-range, so it
    # must give the window's mapped width t(u_hi) - t(-u_lo).  The window
    # starts at 0, so that t keeps its digits down to u = -7, and u_hi is
    # the cap, where dt/du is 1e-12; the fifth pass is 2.2e-16 off.
    spec = QuadratureSpec(20.0, 0.0, 40.0, 7.0, quadrature._U_MAX)
    _, total = _record_nodes(monkeypatch, spec, 0.0, 5)
    width = _decimal_node(spec, spec.u_hi) - _decimal_node(spec, -spec.u_lo)
    assert total == pytest.approx(float(width), rel=1e-7, abs=0.0)


def _pass_sums(monkeypatch, spec, first, later, passes):
    """Trapezoid sums of the first ``passes`` passes of ``_nested_passes``
    on spec, with ln f = first at the nodes of the first pass and later at
    every node after them."""
    calls = []

    def stepped(k, t, dx):
        calls.append(t)
        return first if len(calls) <= quadrature._FIRST_GRID else later

    monkeypatch.setattr(quadrature, "_log_integrand", stepped)
    kernel = quadrature._NodeKernel(MomentQuery(1.0, 2.0, 0.0, 1.0))
    sums = []
    for _, total in quadrature._nested_passes(
            quadrature._power_map(kernel, spec), spec, quadrature._FIRST_GRID):
        sums.append(total)
        if len(sums) == passes:
            return sums


@pytest.mark.parametrize("later", [0.0, -500.0])
def test_stored_terms_follow_a_later_pass_far_above_the_first(monkeypatch,
                                                               later):
    # Every node is exponentiated once, against the largest log so far:
    # near -1000 after the first pass.  Stored against it, a node at 0 would
    # overflow, and the scale e^-1000 of a sum of nodes at -500 would
    # underflow; the rise rescales the stored terms.  The k-th pass then
    # sums e^later times the flat sums less the first pass's share, one
    # 2^k-th of the flat first pass.
    spec = QuadratureSpec(20.0, 0.0, 40.0, 7.0, quadrature._U_MAX)
    flat = _pass_sums(monkeypatch, spec, 0.0, 0.0, 3)
    sums = _pass_sums(monkeypatch, spec, -1000.0, later, 3)
    for k in (1, 2):
        assert sums[k] == pytest.approx(
            math.exp(later) * (flat[k] - flat[0] / 2 ** k), rel=1e-12,
            abs=0.0), k


# The u-range [4.48, 5.18] on the window [a, b] = [1, 1.0016e8] of a
# large-x integral puts the first grid's nodes at t within 1e5 of its peak
# near x = 1e8, where v is near 1.
NEAR_ONE_SPEC = QuadratureSpec(1e8, 1.0, 1.0016e8, -4.48, 5.18)


def test_power_map_node_keeps_its_digits_near_v_one(monkeypatch):
    # Within one ulp (1.5e-8) of the double nearest each 50-digit value; t
    # = a + W / (1 + e^{-2u})^20 rounds 1 + e^{-2u} first and is up to
    # 2.1e-7 off at these nodes.
    for u, t, _ in _record_nodes(monkeypatch, NEAR_ONE_SPEC, 1e8, 1)[0]:
        ref = float(_decimal_node(NEAR_ONE_SPEC, u))
        assert abs(t - ref) <= math.ulp(ref), u


def test_power_map_forms_t_minus_x_from_the_nearer_end(monkeypatch):
    # At the nodes above, t - x for x = 1e8 is within 5e-11 of the 50-digit
    # Decimal value; taken as t - x from the node t, which carries t's
    # rounding, it is up to 7.9e-9 off.
    x = 1e8
    for u, _, dx in _record_nodes(monkeypatch, NEAR_ONE_SPEC, x, 1)[0]:
        ref = _decimal_node(NEAR_ONE_SPEC, u) - decimal.Decimal(x)
        assert abs(decimal.Decimal(dx) - ref) <= 5e-11, u


@pytest.mark.parametrize("k", range(-2, 3))
def test_large_x_value_holds_as_the_u_range_moves(k, monkeypatch):
    # At x = 1e6 the nodes near the peak t ~ x carry 1.2e-10 of rounding in
    # t, next to the integrand's width 2 sqrt(x) = 2000; scaling u_lo by 1 +
    # 0.002 k moves every node.  With sqrt t - sqrt x formed from t, the
    # values moved by up to 2.5e-14 around x + 2; with t - x taken from the
    # nearer window end they stay within 1e-14.
    q = MomentQuery(1.0, 2.0, 1e6, 1.0)
    spec = truncation_bounds(q)
    moved = spec._replace(u_lo=spec.u_lo * (1.0 + 0.002 * k))
    monkeypatch.setattr(quadrature, "truncation_bounds", lambda _: moved)
    assert tanh_rule_integrate(q).value == pytest.approx(
        q.x + 2.0, rel=1e-14, abs=0.0)


def test_box_integrals_mostly_stop_at_the_first_squaring_pass():
    # 300 seeded points of the benchmark's box: the u-range cut to the
    # integrand at both ends lets the squaring or rate stop accept the
    # third pass of a cut window, and of a free one.  Before cut windows,
    # 102 nodes per integral were evaluated and almost every integral ran
    # to 129; with cut windows alone, about 65.
    rng = random.Random(31)
    outs = []
    for _ in range(300):
        q = MomentQuery(rng.uniform(0.0, 50.0), rng.uniform(1.0, 50.0),
                        rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0))
        out = tanh_rule_integrate(q)
        assert out.value == pytest.approx(nuttall_q_series(q).value,
                                          rel=1e-12, abs=0.0), q
        free = truncation_bounds(q).lower > q.y
        outs.append((out.nodes, pass_points(2, free), free))
    assert sum(nodes for nodes, _, _ in outs) / len(outs) <= 90.0
    assert sum(nodes == first for nodes, first, _ in outs) >= len(outs) / 2
    assert sum(free for _, _, free in outs) >= len(outs) / 3


def test_squaring_stop_at_its_looser_target_keeps_box_values_to_1e_13():
    # The squaring stop accepts a cut window's third pass where d^2 <=
    # 1e-12, where 1e-14 took about one integral in five on to the fourth
    # (measured on a 17-point first grid, at 65 and 129 points).  On 200
    # seeded points of the benchmark's box, eta = 0, integer or real and x,
    # y exactly 0 drawn on purpose, every value stays within 1e-13 of the
    # series, and at most 70 nodes per integral are evaluated.
    rng = random.Random(41)
    worst, nodes = 0.0, []
    for _ in range(200):
        r = rng.random()
        eta = (0.0 if r < 0.2 else float(rng.randint(1, 50)) if r < 0.6
               else rng.uniform(0.0, 50.0))
        x, y = (0.0 if rng.random() < 0.04 else rng.uniform(0.0, 20.0)
                for _ in range(2))
        q = MomentQuery(eta, rng.uniform(1.0, 50.0), x, y)
        out = tanh_rule_integrate(q)
        ref = nuttall_q_series(q)
        assert ref.converged, q
        worst = max(worst, abs(out.value / ref.value - 1.0))
        nodes.append(out.nodes)
    assert worst <= 1e-13
    assert sum(nodes) / len(nodes) <= 70.0


def test_golden_row_first_moment():
    q = MomentQuery(1.0, 1.0, 1.2, 5.0)
    assert moment_by_quadrature(q) == pytest.approx(
        0.5457546041478581, rel=1e-10, abs=0.0)


def test_golden_row_fifth_moment():
    q = MomentQuery(5.0, 10.0, 1.2, 5.0)
    assert moment_by_quadrature(q) == pytest.approx(
        419098.1927146542, rel=1e-10, abs=0.0)


def test_marcum_against_quadrature():
    q = MomentQuery(0.0, 10.0, 1.2, 5.0)
    assert moment_by_quadrature(q) == pytest.approx(
        marcum_q(10.0, 1.2, 5.0), rel=1e-10, abs=0.0)


def test_node_doubling_differences_shrink():
    for eta, mu, x, y in ((1.0, 1.0, 0.1, 1.5), (5.0, 10.0, 5.0, 10.0),
                          (50.0, 30.0, 1.2, 5.0)):
        q = MomentQuery(eta, mu, x, y)
        spec = truncation_bounds(q)
        results = []
        for n, value in quadrature._nested_passes(
                quadrature._node_map(q, spec)[0], spec, 64):
            results.append(value)
            if n > 2**13:
                break
        diffs = [abs(b - a) / abs(b) for a, b in zip(results, results[1:])]
        # Differences decrease until they hit the rounding floor.
        for d0, d1 in zip(diffs, diffs[1:]):
            if d0 < 1e-13:
                break
            assert d1 <= d0, (eta, mu, x, y, diffs)


def test_quadrature_vs_series_x_zero():
    q = MomentQuery(2.0, 1.0, 0.0, 1.0)
    assert moment_by_quadrature(q) == pytest.approx(
        nuttall_q_series(q).value, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("mu,y,ref", [
    # Q_{0,mu}(0, y) = Gamma(mu, y)/Gamma(mu), from mpmath.gammainc at 40
    # digits.  The x = 0 integrand t^{mu-1} e^{-t} peaks at t = mu - 1, far
    # above the x > 0 window centre for large mu.
    (45.95617295344748, 17.709579666678028, 0.9999999839045508),
    (50.0, 0.0, 1.0),
])
def test_x_zero_window_covers_the_upper_tail(mu, y, ref):
    q = MomentQuery(0.0, mu, 0.0, y)
    assert moment_by_quadrature(q) == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("eta,mu,x,y,ref", BOX_EDGE_POINTS)
def test_quadrature_at_the_box_edges(eta, mu, x, y, ref):
    q = MomentQuery(eta, mu, x, y)
    assert moment_by_quadrature(q) == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("eta,x,ref", [
    # Small x > 0 at mu = 50, y = 10: while x t is small next to mu^2 the
    # integrand follows the x = 0 shape t^{eta+mu-1} e^{-t}, whose upper
    # tail lies beyond the window of the x > 0 profile.  30-digit values
    # from mpmath at 45 digits, where the gammainc series and mpmath.quad of
    # the defining integral agree to 1e-45.
    (0.0, 0.5, 0.999999999999999999875984604753),
    (0.0, 0.125, 0.999999999999999999832279465618),
    (0.0, 0.01, 0.999999999999999999816014054191),
    (0.0, 1e-8, 0.999999999999999999814527313106),
    (10.0, 0.5, 251822759780435108.301757811505),
    (10.0, 0.125, 233754597808401661.427220329229),
    (10.0, 0.01, 228447924982709129.552602149836),
    (10.0, 1e-8, 227991539815567079.121506018894),
])
def test_small_x_window_covers_the_upper_tail(eta, x, ref):
    q = MomentQuery(eta, 50.0, x, 10.0)
    assert moment_by_quadrature(q) == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("q", [MomentQuery(0.0, 1.0, 0.0, 800.0),
                               MomentQuery(1.0, 2.0, 0.0, 1000.0),
                               MomentQuery(0.0, 1.0, 1.0, 900.0)])
def test_zero_first_two_passes_stop_at_zero(q):
    # Far past the mass, every node's term underflows: the first two passes
    # sum to 0.0, and the rule stops there, as the series' value is 0.0 too.
    out = tanh_rule_integrate(q)
    assert (out.value, out.nodes, out.est_error) == (0.0, pass_points(1), 0.0)
    assert nuttall_q_series(q).value == 0.0


@pytest.mark.parametrize("q", [
    MomentQuery(8.0, 48.824145004271145, 0.026622748927577745,
                981.0205852362354),
    MomentQuery(0.0, 127.86485320174184, 4.775028624845298,
                1174.194094774518),
])
def test_subnormal_pass_sums_round_once(q):
    # The value is below the normal range, and so is the scale of each pass.
    # Taking scale and sum in one exponential rounds once: the value is the
    # series' to its last digit, at the third pass.  Rounded twice, these
    # were 2e-4 off, and stopped at the second pass and at the fourth.
    out = tanh_rule_integrate(q)
    assert 0.0 < out.value < 1e-318
    assert (out.value, out.nodes) == (nuttall_q_series(q).value,
                                      pass_points(2))
