"""Edge values through the entry points: a value or a named error, never
a bare exception, a negative value or a NaN."""

import itertools
import math
import random

from nuttallq import (ConvergenceError, DomainError, MomentQuery,
                      bessel_i_scaled, bessel_ratio, gamma_ratio_q,
                      log_gamma_ratio_q, log_q_increment, nuttall_q_series,
                      truncation_bounds)
from nuttallq.incgamma import log_pochhammer, q_with_log_increment

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
        for func in (gamma_ratio_q, bessel_i_scaled, bessel_ratio):
            v = _outcome(func, a, b)
            if not (v is None or 0.0 <= v <= 1.0):
                bad.append((func.__name__, a, b, v))
        for func in (log_gamma_ratio_q, log_q_increment):
            v = _outcome(func, a, b)
            if not (v is None or v <= 0.0):
                bad.append((func.__name__, a, b, v))
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


def test_truncation_bounds_at_edge_values():
    # Every edge point the quadrature takes (mu >= 1): a window with y <=
    # lower <= upper and a u-range with -u_hi < u_lo, no field NaN, where
    # the peak of the integrand's shape, its log or the window's ends
    # overflow.
    bad = []
    for eta, mu, x, y in itertools.product(EDGES, repeat=4):
        q = _outcome(MomentQuery, eta, mu, x, y)
        spec = None if q is None or mu < 1.0 else _outcome(truncation_bounds, q)
        if spec is None:
            continue
        if (any(math.isnan(v) for v in spec)
                or not y <= spec.lower <= spec.upper
                or not -spec.u_hi < spec.u_lo):
            bad.append((q, spec))
    assert bad == []
