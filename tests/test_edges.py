"""Edge values through the entry points: a value or a named error, never
a bare exception, a negative value or a NaN."""

import itertools
import math
import random

import pytest

from nuttallq import (ConvergenceError, DomainError, MomentQuery,
                      bessel_i_scaled, bessel_ratio, log_q_increment,
                      nuttall_q_series, tanh_rule_integrate,
                      truncation_bounds)
from nuttallq import quadrature
from nuttallq.incgamma import log_pochhammer, q_with_log_increment

from test_quadrature import pass_points

EDGES = (0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 20.0, 700.0, 1e5, 1e150,
         1.7e308)


def _outcome(func, *args):
    """func(*args), or None where it raises DomainError or ConvergenceError."""
    try:
        return func(*args)
    except (DomainError, ConvergenceError):
        return None


def _log_lower_bound(eta, mu, x):
    """A lower bound on ln(e^{-x} Gamma(eta+mu)/Gamma(mu)), from lgamma or,
    where eta + mu rounds eta away, from psi(mu) > ln mu - 1/mu."""
    if mu > 1e6 * eta:
        return eta * (math.log(mu) - 1.0 / mu) - x
    try:
        return math.lgamma(eta + mu) - math.lgamma(mu) - x
    except OverflowError:
        return math.inf


def test_kernels_at_edge_values():
    # Every (shape, cut) of the incomplete gamma ratio and (order, argument)
    # of the Bessel functions.  Their values lie in [0, 1], the logs of Q
    # and of the increment y^a e^{-y}/Gamma(a+1) at or below 0.
    bad = []
    for a, b in itertools.product(EDGES, EDGES):
        for func in (bessel_i_scaled, bessel_ratio):
            v = _outcome(func, a, b)
            if not (v is None or 0.0 <= v <= 1.0):
                bad.append((func.__name__, a, b, v))
        v = _outcome(log_q_increment, a, b)
        if not (v is None or v <= 0.0):
            bad.append(("log_q_increment", a, b, v))
        triple = _outcome(q_with_log_increment, a, b)
        if not (triple is None or (0.0 <= triple[0] <= 1.0
                                   and triple[1] <= 0.0 and triple[2] <= 0.0)):
            bad.append(("q_with_log_increment", a, b, triple))
        v = _outcome(log_pochhammer, a, b)
        if v is not None and math.isnan(v):
            bad.append(("log_pochhammer", a, b, v))
    assert bad == []


def test_series_at_edge_values():
    # A seeded sample of the 11^4 edge points.  Gamma(eta+mu)/Gamma(mu) can
    # lie past the double range, so inf is a value where, for y <= eta + mu
    # (there Q_{eta+mu}(y) >= 0.3 at the shapes that overflow), the n = 0
    # term's lower bound already overflows; nowhere else.
    rng = random.Random(2028)
    points = list(itertools.product(EDGES, repeat=4))
    for eta, mu, x, y in rng.sample(points, 250):
        q = _outcome(MomentQuery, eta, mu, x, y)
        out = None if q is None else _outcome(nuttall_q_series, q)
        if out is None or not out.converged:
            continue
        assert out.value >= 0.0, (q, out)
        if out.value == math.inf:
            assert y <= eta + mu and _log_lower_bound(eta, mu, x) > 712.0, q


def _bad_spec(q, spec):
    if any(math.isnan(v) for v in spec):
        return True
    if spec.lower > q.y:
        # A free window, on the map t = u^2 over [sqrt lower, sqrt upper].
        return not (0.0 < -spec.u_lo < spec.u_hi
                    and spec.u_lo * spec.u_lo == spec.lower
                    and spec.u_hi * spec.u_hi == spec.upper)
    return not (q.y == spec.lower <= spec.upper and -spec.u_hi < spec.u_lo)


def test_truncation_bounds_at_edge_values():
    # Every edge point the quadrature takes (mu >= 1): a cut window with y
    # == lower <= upper and a u-range with -u_hi < u_lo, or a free window
    # with y < lower whose u-range [sqrt lower, sqrt upper] squares to its
    # ends, no field NaN, where
    # the peak of the integrand's shape, its log or the window's ends
    # overflow.
    bad = []
    for eta, mu, x, y in itertools.product(EDGES, repeat=4):
        q = _outcome(MomentQuery, eta, mu, x, y)
        spec = None if q is None or mu < 1.0 else _outcome(truncation_bounds, q)
        if spec is not None and _bad_spec(q, spec):
            bad.append((q, spec))
    assert bad == []


def _log_uniform(rng, special, lo, hi):
    """special with probability 0.1, else 10^U(lo, hi)."""
    return special if rng.random() < 0.1 else 10.0 ** rng.uniform(lo, hi)


def test_truncation_bounds_on_a_log_uniform_sweep():
    # 5000 seeded queries across the double range, with exact zeros and
    # mu = 1 drawn on purpose.  Where x t overflows on the window, or
    # rounding leaves the window unable to resolve the integrand's shape
    # (its slope rounds to 0, its drop or its lower cut lands outside the
    # window), truncation_bounds raises DomainError or
    # ConvergenceError, never a bare ZeroDivisionError or ValueError (33 of
    # these 5000 did); a spec it returns holds the invariants of the
    # edge-value test above.
    rng = random.Random(31)
    for _ in range(5000):
        q = MomentQuery(_log_uniform(rng, 0.0, -300.0, 300.0),
                        _log_uniform(rng, 1.0, 0.0, 300.0),
                        _log_uniform(rng, 0.0, -320.0, 308.0),
                        _log_uniform(rng, 0.0, -320.0, 308.0))
        try:
            spec = truncation_bounds(q)
        except (DomainError, ConvergenceError):
            continue
        assert not _bad_spec(q, spec), (q, spec)


def _counting_nodes(monkeypatch, cap):
    """Count the integrand's evaluations; more than cap fail the test at
    once, before a run to the node cap could take seconds."""
    calls = []
    log_integrand = quadrature._log_integrand

    def counted(*args):
        calls.append(args[1])
        assert len(calls) <= cap, f"more than {cap} node evaluations"
        return log_integrand(*args)

    monkeypatch.setattr(quadrature, "_log_integrand", counted)
    return calls


@pytest.mark.parametrize("mu", [1e16, 1e18, 1e30, 1e32, 1e33, 1e34])
def test_unresolvable_window_is_refused_before_the_nodes(mu, monkeypatch):
    # At eta = x = y = 0 the shape's log sums terms of about mu ln mu, whose
    # ulp exceeds the shape's drop to 1e-16 of its top from mu ~ 4.6e15, and
    # no u-range can be sized.  Integrating anyway runs to the node cap at
    # 1e16 and 1e30, raises a bare ValueError at 1e18 and 1e32, overflows
    # the double range at 1e33 and gives 2.3e18 for Q = 1 at 1e34.
    calls = _counting_nodes(monkeypatch, 0)
    with pytest.raises(ConvergenceError, match=r"^quadrature cannot take "
                       r"eta = 0\.0, mu = .*, x = 0\.0, y = 0\.0: .* unable "
                       r"to resolve the integrand"):
        tanh_rule_integrate(MomentQuery(0.0, mu, 0.0, 0.0))
    assert calls == []


@pytest.mark.parametrize("mu,error", [(1e3, 1e-12), (1e5, 1e-9),
                                      (1e8, 1e-6)])
def test_large_mu_below_the_refusal_still_integrates(mu, error):
    # The shape's terms at mu ln mu ~ 7e3 to 1.8e9 round far below its drop,
    # so the window is not refused.  The node logs cancel terms of that
    # size, so the value, exactly 1, is only as good as their rounding.
    out = tanh_rule_integrate(MomentQuery(0.0, mu, 0.0, 0.0))
    assert out.nodes == pass_points(2)
    assert out.value == pytest.approx(1.0, rel=error, abs=0.0)


def test_integral_past_the_double_range_is_refused_at_the_first_pass(
        monkeypatch):
    # Its series value is inf: every pass sums to inf, so the relative
    # change is nan and neither stop rule fires.  The first pass raises;
    # run on, every pass up to the 2^20-node cap would sum to inf, each in
    # about twice the time of the one before.
    calls = _counting_nodes(monkeypatch, pass_points(0))
    with pytest.raises(ConvergenceError, match=r"overflows the double range"):
        tanh_rule_integrate(MomentQuery(222.54, 283.74, 2766.97, 0.0))
    assert len(calls) == pass_points(0)
