"""Brute-force evaluation of the defining moment integral.

Cross-check for the series/recurrence evaluators (what it shares with them
is listed in the ``nuttallq`` package docstring).  With the
x^{(1-mu)/2} factor cancelled against the power series of I_{mu-1}, the
integrand is

    f(t) = t^{eta+mu-1} e^{-t-x} 0F1(; mu; x t) / Gamma(mu),

where 0F1(; mu; q) = sum_n q^n / (n! (mu)_n).  The improper integral is
truncated to a window that holds the mass of the integrand's shape h
below, and integrated with the trapezoidal rule on nested uniform u-grids
(n -> 2n - 1) until the estimated error of the last pass is small.  Where
y lies below that mass, the window is free: it spans the two drops of h
to 1e-16 of its top in s = sqrt t, and the rule runs in s, t = s^2, on
grids of 9, 17, 33, ... points.  Elsewhere the window is cut: it starts
at y and ends past the peak of h, and the rule runs on the power map
below, on grids of 15, 29, 57, ... points.  Each refinement halves the
spacing, so the earlier nodes stay on the grid and their values are
reused: no node is evaluated or exponentiated twice.  The integrand is
always evaluated through its logarithm, so values reaching 1e89 never
overflow a node, and by a kernel built once per integral that holds all
that depends only on (eta, mu, x).  Every node takes one formula, x = 0
and z = 2 sqrt(x t) > 700 included; no node reaches t = 0, as the power
map puts each at t >= a + 9.4e-307 W with a >= 0 and W >= 1, and a free
window starts above (sqrt c - 6.07)^2 > 0.

Refinement stops at pass k when the relative change d_k between passes k-1
and k satisfies, in this order,

    d_k <= max(1e-12, floor)               (two passes agree),
    d_k < d_{k-1} and d_k^2 <= 1e-12       (the error squares), or
    0 < d_k < d_{k-1} < 1 and d_k^rho <= 1e-12,
        rho = min(3, ln d_k / ln d_{k-1})  (the error's exponent grows
                                            at the measured rate).

Once the integrand is negligible at both ends of the u-range, the
trapezoidal rule converges exponentially, and halving the spacing roughly
squares its error (Trefethen & Weideman, SIAM Rev. 56, 2014).  Then d_k is
about the error of pass k-1, and d_k^2 estimates the error of pass k, so
the second condition accepts pass k without a confirming pass.  It needs
d_k to shrink, so it cannot fire before the third pass, at 33 points on
a free window and 57 on a cut one.  The estimate d_k^2 overstates the
error, so the integrals it accepts between a 1e-14 and a 1e-12 target
stay about as close to the series as with the tighter one (``CHANGES.md``
records the run).  So all rules share the one tolerance, except that
the first also accepts a change at the rounding floor of the node logs
(see ``QuadratureOutcome``), which no later pass can bring lower: at
(0, 10^10.5, 0, 0), where the floor is 6.8e-4, it accepts a change of
1.8e-5 at 113 points, where a change below 1e-12 came by chance at 28,673.
On the box the floor stays below 1e-12.  Where the floor reaches 1, any
change would pass and the value would hold no digit, so the second pass
raises ConvergenceError (at x = 0 from mu ~ 3.6e13), unless it and the
first both sum to 0, as where y lies far past the mass.  Each refusal is
raised at the pass that finds it: that one at the second pass, and the
overflow refusal at the first pass whose sum is not finite.  Passes that
run out without a stop have met the node cap, the third refusal.

Squaring is the rate of an integrand analytic in a strip about the real
u-axis, whose error is about e^{-2 pi s / h} for a strip of half-width s
and spacing h.  One that is entire and decays like a Gaussian in u has an
error of about e^{-pi^2 / h^2}, whose exponent grows fourfold per halving.
The passes measure the rate: rho = ln d_k / ln d_{k-1} is the growth of
the exponent from pass k-1 to pass k, and d_k^rho then estimates the
error of pass k.  The third condition takes it where it exceeds 2,
capped at 3, below the 4 of the Gaussian, so that an odd ratio of two
changes cannot claim more.  Passes that change by 7.5e-2, 2.3e-5 and
3.6e-15 give rho = 4.1 at 57 points, d^2 = 5.5e-10 and d^3 = 1.3e-14,
and the 113-point pass confirms the 57-point value to 3.6e-15.  How many
integrals of the benchmark stop where is recorded in ``CHANGES.md``.

A cut window's first grid has 15 points.  The rate stop then accepts
about half of the box's cut windows, most at 57 points, often after a
change that is still pre-asymptotic (d_{k-1} up to 0.1), on an estimate
up to 9.9e-13.  Their values lie within 4.4e-14 of the series, under a
twentieth of the tolerance: the margin comes from the 57-point pass's own
accuracy, not from the estimate.  From a first grid of 13 or 11
points the same stops accept passes of 49 and 41 points from changes up
to 0.17 and 0.3, and some values lie 2.7e-12 and 2.8e-9 off
(``CHANGES.md`` records the scan).

These estimates count truncation, not rounding.  The reported
``est_error`` is the accepted estimate or a rounding floor from the size
of the node logs' terms, whichever is larger (see ``QuadratureOutcome``).

The shape.  With nu = mu - 1 and g = eta + mu - 1, the window and the
u-range both come from

    ln h(t) = g ln t - t + L(x t),
    L(q) = r - nu - nu ln((nu + r) / (2 nu)),   r = sqrt(nu^2 + 4 q),

(L(q) = 2 sqrt q at nu = 0), the integrand's log up to a constant with ln
0F1(; mu; q) = ln(Gamma(mu) q^{-nu/2} I_nu(2 sqrt q)) in the leading term
of Debye's expansion of I_nu (DLMF 10.41.3) and Stirling's of Gamma.  It
follows the integrand where x t is small next to mu^2 (L(q) ~ q/nu), where
it is large (L(q) ~ 2 sqrt q - nu/2 ln q + ...), and between, where the
integrand peaks above both t^g e^{-t} and t^{eta + nu/2} e^{-(sqrt t - sqrt
x)^2}: sizing the u-range by those two left values up to 9e-10 off at mu
in [50, 200], x in [1, 100].  As L'(q) = 2 / (nu + r), ln h is concave in
t, and its slope g/t - 1 + 2x / (nu + r) vanishes where w = 2x / (nu + r)
solves eta w^2 + (x + nu) w - x = 0, that is at the peak

    t* = g / (1 - w) = eta + (x + nu + R) / 2,   R = sqrt((x + nu)^2 + 4 eta x),

which is g at x = 0, x + nu at eta = 0, and (sqrt x + sqrt(x + 4 eta))^2 / 4
at mu = 1.  In s = sqrt t, ln h(s^2) has curvature -2 - 2g/s^2 + 4 x nu /
(r (nu + r)) <= -2, as r^2 >= 4 x s^2 and g >= nu; ``_window`` puts the
cut window's upper end on that, for every x.

The free window.  With c the peak of h and e^T its top, an integral takes
the window [s_lo^2, s_hi^2] between the two drops of h to 1e-16 of its
top in s = sqrt t, dropping [y, s_lo^2] and [s_hi^2, inf), where all three
of these hold:

- y < c and sqrt c > _ROOT_DROP = sqrt(-ln 1e-16) ~ 6.07, so that the
  window stays clear of t = 0, the branch point of t^{eta+mu-1}: without
  it, s0 below is 0 at y = 0, and the search for the lower drop starts at
  t = 0, where ln t is not defined;
- ln h at s0 = max(sqrt y, sqrt c - _ROOT_DROP) is below T + ln 1e-16,
  so that y lies below the mass (the curvature bound puts h at or below
  that at sqrt c - _ROOT_DROP);
- 2^-52 max(g ln c, c) <= 1e-13: each node's log carries rounding of
  about that relative size, which the 33 points of a free window average
  less than the 57 of a cut one.  With 1e-12 in its place, more values
  lie over 1e-13 from the series, and where the rounding lies above 1e-13
  their root mean square error rises (``CHANGES.md`` records the run).
  At (0, mu, 0, 0) from mu ~ 1e15, where that rounding swamps the stop
  rule, a free window returned 0.93 for 1.

``_drop`` finds both ends by Newton steps in s, s_hi from sqrt c +
_ROOT_DROP and s_lo from s0, where h is at or below its drop: ln h is
concave in s, so the steps stay outside the drops, and h stays below
1e-16 of its top over both dropped pieces.  The rule runs on the u-range
[s_lo, s_hi] of the map t = u^2, whose log weight is ln 2u and which
forms t - x as (u - sqrt x)(u + sqrt x).  No end map is needed: in s, ln
h has curvature at most -2, so h falls like a Gaussian at both ends, and
the trapezoidal rule converges geometrically (Trefethen & Weideman).  The
first grid has 9 points, so that the squaring stop can accept the
33-point pass and no earlier one: from a first grid of 5 points, some
integrals stopped at 17 points, far from their value (``CHANGES.md``
records how many).

A cut window takes the map

    t = a + W v^p,  p = 20,  W = b - a,
    v = (1 + tanh u)/2 = 1/(1 + e^{-2u}),
    dt/du = 2 p W e^{-2u} / (1 + e^{-2u})^{p+1},

whose weight decays like e^{-2u} as u -> inf, as the tanh map's does, and
like e^{2pu} = e^{40u} as u -> -inf: at a it is a polynomial end map of
the kind of Sidi's sin^m transformations (Sidi 1993).  The lower end needs
that: the window starts at y, and wherever y lies in the integrand's mass,
or the integrand rises steeply as t^{eta+mu-1} next to y ~ 0, the
integrand is still large there, and a weight that decays only like e^{2u}
would put about half of all nodes within 0.5% of the window next to y.
The integrand is never singular at y (mu >= 1), so the rule on the u-grid
keeps its exponential convergence.  The node forms v^p as e^{-p
log1p(e^{-2u})}, so that t and its log weight share one log1p and t stays
within an ulp: (1 + e^{-2u})^p would round 1 + e^{-2u} first and put t up
to 16 ulp off as v -> 1, where the peak of a large-x integral lies.  Even
an ulp of t there is 1.5e-8 at t ~ 1e8, next to the integrand's width 2
sqrt x ~ 2e4, and sqrt t - sqrt x carries it into (sqrt t - sqrt x)^2.  So
the node also forms t - x from the nearer end of the window, (b - x) + W
(v^p - 1) or (a - x) + W v^p, and takes sqrt t - sqrt x as (t - x) /
(sqrt t + sqrt x).

Its u-range is [-U_lo, U_hi], both ends once per integral, in closed form
from two points of the window: the trapezoidal rule converges
exponentially once the integrand is negligible at both ends, so the
u-range stops where h is, and the window's outer part, where the map's
nodes would crowd, takes none.

The upper end.  Newton steps from above (``_drop``), which stay above it
as ln h is concave in sqrt t, find a point t_up above the centre c of h
on [y, inf) at or just above where h falls to 1e-16 of its top.  h is
unimodal, so it stays below that over the whole dropped piece [t_up, b],
and

    U_hi = 1/2 ln(v / (1 - v)),   v = ((t_up - a) / W)^{1/p}.

The window's upper end lies further out, where the curvature bound puts h
at 1e-32 of its top, so that v^p is not saturated at t_up: with the upper
end at the 1e-16 point of that bound, fewer integrals stop at their
third pass and more nodes are evaluated per integral (``CHANGES.md``
records the counts).

The lower end drops [a, a + d] with d = W v(-U)^p = W / (1 + e^{2U})^p.
As h is log-concave in t, on [c, b] it lies above the exponential chord
from its top e^T to h(b) = e^{T - delta}, so its mass is at least

    e^T need,   need = (b - c) (1 - e^{-delta}) / delta,

while its dropped piece is at most d times its largest value on [a, a +
d], h(min(a + d, c)).  ``_lower_cut`` finds the largest d with

    ln d + ln h(min(a + d, c)) - T <= ln(1e-16 need),

and U_lo = 1/2 ln((W / d)^{1/p} - 1), so the dropped piece is at most
1e-16 of the mass of h.  Where the window starts at the top of h (y past
its peak) that is d = 1e-16 need; where it starts below the peak, d grows
until h(a + d) d reaches 1e-16 need, however far below the mass y lies,
and -U_lo may lie above 0.

Rounding can leave a cut window unable to resolve h, where ln h sums terms
so large that their rounding swamps its drop to 1e-16 of its top, or where
the window is narrower than an ulp of its centre (beyond ~2e34) and rounds
to zero width.  ``truncation_bounds`` then raises ConvergenceError before
any node.  Where the window sits on the peak (y at or below it), one rule
states the cause: at the centre c, ln h sums g ln c and -c, and it refuses
where their ulp, 2^-52 max(|g ln c|, c), exceeds the drop -ln 1e-16 ~ 36.8
(at x = 0 from mu ~ 4.6e15).  From c ~ 1.7e17 that holds for every g and x,
so it takes in every window that rounds to zero width on the peak.  It
also refuses where h does not fall from the centre to b, where a Newton
step meets a slope that rounds to 0, or where t_up lies outside (a, b) or
a + d outside (a, t_up).  A u-range sized there would not hold the mass of
h.  A zero-width window at a y past the peak is not refused: an ulp of y
there spans many widths of h, so the integral rounds to 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterator
from math import fsum

from .bessel import FixedOrderSeries
from .errors import ConvergenceError, DomainError
from .logscale import exp_clipped
from .query import MomentQuery

_NODE_CAP = 2**20
# Two passes that agree to this relative change end the refinement, and so
# does a pass whose relative change d is below the change of the pass before
# with d^2 at or below it: halving the spacing roughly squares the error of
# the trapezoidal rule, so d^2 then estimates the error of the pass.
_REL_TOL = 1e-12
# Where the passes show the error's exponent growing faster, by the rate
# rho = ln d / ln d_prev, d^rho estimates it instead; rho is capped here,
# below the 4 of an integrand that is Gaussian in u.
_MAX_RATE = 3.0
# Drop of the shape, relative to its top, at which the u-range ends.
_EPS = 1e-16
_LOG_EPS = math.log(_EPS)
# Points of the first u-grid of a cut window, whose grids are 15, 29, 57,
# 113, ..., and of a free window, whose grids are 9, 17, 33, ...  From 15,
# the stop rule first meets the 57-point pass, which lies within 1e-13 of
# the series on the box (see the module docstring).
_FIRST_GRID = 15
_FREE_FIRST_GRID = 9
# A free window needs the relative rounding of the node logs at or below
# this (see the module docstring).
_FREE_ROUNDING = 1e-13
# Cap on each end of the u-range, where tanh u = 1 - 1e-15.
_U_MAX = math.atanh(1.0 - 1e-15)
# The integrand's shape is at or below _EPS of its top where sqrt t lies
# _ROOT_DROP or more above the root of its centre (see ``_window``).
_ROOT_DROP = math.sqrt(-_LOG_EPS)
# The window's upper end lies where that bound is at _EPS^2.
_ROOT_END = math.sqrt(-2.0 * _LOG_EPS)
# Newton steps that take the upper end of the u-range towards the shape's
# _EPS drop.
_NEWTON_STEPS = 3
# ``_lower_cut`` finds ln d to within this, and takes at most
# _CUT_ITERATIONS steps.
_CUT_TOL = 1e-3
_CUT_ITERATIONS = 50
# Power p of the map t = a + W v^p.
_POWER = 20
# Relative spacing of doubles: an ulp of m is at most _ULP m.
_ULP = 2.0**-52
# ``est_error`` is at least _FLOOR_FACTOR times the rounding r of the node
# logs' terms (``_rounding``), and at least _FLOOR_MIN, the rounding of the
# value's own few steps where r is below an ulp (see ``QuadratureOutcome``).
_FLOOR_FACTOR = 4.0
_FLOOR_MIN = 2.0**-47
# A floor at or above this leaves the value no digit: a nonzero integral
# is refused.
_FLOOR_LIMIT = 1.0
# The least normal double; below it a pass's scale has lost digits.
_MIN_NORMAL = 2.0**-1022
_LOG_HALF = math.log(0.5)


class QuadratureSpec(namedtuple("QuadratureSpec",
                                "peak lower upper u_lo u_hi")):
    """Truncation window for one integral, the peak of the integrand's
    shape h it was centred on, and the u-range [-u_lo, u_hi] of the map
    onto it (see the module docstring).

    ``truncation_bounds`` returns it, and ``tanh_rule_integrate`` integrates
    over the window and u-range it describes.  lower > y marks a free
    window, between the drops of h to 1e-16 of its top: its map is t =
    u^2, and its u-range is [sqrt lower, sqrt upper], -u_lo = sqrt lower >
    0 and u_hi = sqrt upper, each squared to give the end.  Otherwise the
    window is cut: lower is y, and its map is t = lower + (upper - lower)
    v^20, v = (1 + tanh u)/2.  lower <= upper always holds; lower == upper
    only where a cut window sits at a y past the peak that is so large
    (beyond ~2e34) that adding its half-width rounds away, and then both
    ends of the u-range are _U_MAX.  Otherwise they come in closed form
    from where h falls to 1e-16 of its top: -u_hi < u_lo <= _U_MAX and
    u_hi <= _U_MAX, with u_lo below 0 where y lies far enough below the
    peak.

    A named tuple: it unpacks and indexes, and it compares equal to a plain
    tuple of the same values, even to a record of another type.
    """

    __slots__ = ()


class _NodeKernel:
    """What the nodes of one integral share: everything in ln f(t) that
    depends only on (eta, mu, x), computed once.

    The x^{(1-mu)/2} factor cancels against the (z/2)^{mu-1} of I_{mu-1}(z),
    z = 2 sqrt(x t), so a node needs only the series S of
    ``FixedOrderSeries`` at order mu - 1:

        ln f(t) = (eta+mu-1) ln t - (sqrt t - sqrt x)^2 - ln Gamma(mu)
                  + ln(e^{-z} S(x t)),

    for every t > 0 and x >= 0 (at x = 0, z = 0 and S = 1).  The kernel
    holds ln Gamma(mu) and the bound ``log_scaled`` of that series in its
    own slots, so that a node reads each with one attribute lookup.
    """

    __slots__ = ("x", "sqrt_x", "power", "log_gamma", "log_scaled")

    def __init__(self, q: MomentQuery) -> None:
        self.x = q.x
        self.sqrt_x = math.sqrt(q.x)
        self.power = q.eta + q.mu - 1.0
        series = FixedOrderSeries(q.mu - 1.0)
        self.log_gamma = series.log_gamma
        self.log_scaled = series.log_scaled


_sqrt, _log = math.sqrt, math.log
# node_logs(u0, h, fresh) of ``_nested_passes``.
_NodeLogs = Callable[[float, float, range], list[float]]


def _log_integrand(k: _NodeKernel, t: float, dx: float) -> float:
    """ln f(t) of ``_NodeKernel``, given dx = t - x; finite at every node,
    where t > 0 and x t is finite.  sqrt t - sqrt x is formed as dx / (sqrt
    t + sqrt x), so that it keeps the digits of dx where t lies near x."""
    d = dx / (_sqrt(t) + k.sqrt_x)
    q = k.x * t
    return (k.power * _log(t) - d * d - k.log_gamma
            + k.log_scaled(q, 2.0 * _sqrt(q)))


class _Shape:
    """ln h(t) = g ln t - t + L(x t), g = eta + mu - 1, the log of the
    integrand up to a constant, with ln 0F1(; mu; q) in its Debye form

        L(q) = r - nu - nu ln((nu + r) / (2 nu)),   r = sqrt(nu^2 + 4 q),

    nu = mu - 1 (see the module docstring)."""

    __slots__ = ("eta", "g", "x", "nu")

    def __init__(self, eta: float, mu: float, x: float) -> None:
        self.eta = eta
        self.g = eta + mu - 1.0
        self.x = x
        self.nu = mu - 1.0

    def log_and_slope(self, t: float) -> tuple[float, float]:
        """(ln h(t), d ln h / dt) at t > 0; L'(q) = 2 / (nu + r)."""
        x, nu = self.x, self.nu
        q = x * t
        ell = rise = 0.0
        if q > 0.0:
            # r - nu = 4q / (nu + r), and (nu + r) / (2 nu) = 1 + 2q / (nu
            # (nu + r)), so that nothing cancels where q << nu^2.
            nu_r = nu + math.sqrt(nu * nu + 4.0 * q)
            ell = 4.0 * q / nu_r
            if nu > 0.0:
                ell -= nu * math.log1p(2.0 * q / (nu * nu_r))
            rise = 2.0 * x / nu_r
        return self.g * math.log(t) - t + ell, self.g / t - 1.0 + rise

    def peak(self) -> float:
        """Where d ln h / dt = 0: eta + (x + nu + R)/2, R = sqrt((x + nu)^2 +
        4 eta x) (see the module docstring), formed from halves so that no
        sum overflows before the peak itself does."""
        half = 0.5 * self.x + 0.5 * self.nu
        return self.eta + half + math.hypot(
            half, math.sqrt(self.eta) * math.sqrt(self.x))


def _drop(shape: _Shape, top: float, s: float) -> float:
    """Newton steps in s = sqrt t towards the point where h falls to _EPS
    of its top e^top, from an s on one side of its centre where it is at or
    below that: ln h is concave in s, so every step stays on that side of
    the drop, above it from above and below it from below.  They stop
    where rounding puts s at the drop, or where ln h is not finite (past
    the double range).  Where the slope rounds to 0 no step is defined and
    the result is nan, which refuses the window: there rounding has left h
    flat below its drop."""
    for _ in range(_NEWTON_STEPS):
        f, slope = shape.log_and_slope(s * s)
        f -= top + _LOG_EPS
        if not f < 0.0:
            break
        if slope == 0.0:
            return math.nan
        s -= f / (2.0 * s * slope)
    return s


def _window(shape: _Shape, y: float) -> tuple[float, float, float]:
    """(peak, upper, top): the peak of h, the upper end of the window [y,
    upper], above which h stays at or below _EPS^2 times its maximum e^top
    on [y, inf), and the log of that maximum.

    The maximum on [y, inf) lies at the centre c = max(peak, y).  As
    ln h(s^2) has slope 0 at the peak and curvature at most -2 in s = sqrt
    t (see the module docstring),

        ln h(t) - top <= -(sqrt t - sqrt c)^2

    for every t >= c, so h is at or below _EPS^2 of its top wherever sqrt t
    - sqrt c >= _ROOT_END = sqrt(-2 ln _EPS).  The upper end lies there,
    formed as an offset from c, so that a window too narrow for an ulp of c
    collapses to it.
    """
    peak = shape.peak()
    centre = max(peak, y)
    top = shape.log_and_slope(centre)[0] if centre > 0.0 else 0.0
    return peak, centre + _ROOT_END * (2 * math.sqrt(centre) + _ROOT_END), top


def _lower_cut(shape: _Shape, centre: float, top: float, a: float,
               need: float) -> float:
    """The largest d, to within a factor e^_CUT_TOL, with

        H(ln d) = ln d + ln h(min(a + d, c)) - top - ln(_EPS need) <= 0,

    c the centre and e^top the top of h on [y, inf): then d times the
    largest value of h on [a, a + d] is at most _EPS e^top need (see the
    module docstring).  H rises in s = ln d with slope 1 + d (ln h)'(a + d)
    >= 1, so H(s - H(s)) <= 0 wherever H(s) > 0; Newton steps in s, kept
    inside the bracket that the steps so far have found, close in on the
    root from its safe side.
    """
    start = _EPS * need
    if start >= centre - a:
        return start
    lo, hi = math.log(start), math.log(centre - a)
    log_cap = lo + top
    s = lo
    for _ in range(_CUT_ITERATIONS):
        d = math.exp(s)
        f, slope = shape.log_and_slope(a + d)
        excess = s + f - log_cap
        if excess <= 0.0:
            lo = s
        else:
            hi, lo = s, max(lo, s - excess)
        step = excess / (1.0 + d * slope)
        if abs(step) < _CUT_TOL or hi - lo < _CUT_TOL:
            break
        s -= step
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
    return math.exp(lo)


def _u_range(shape: _Shape, centre: float, top: float, a: float, b: float,
             t_up: float) -> tuple[float, float] | None:
    """(u_lo, u_hi) of the u-range [-u_lo, u_hi] of the map onto the window
    [a, b], as the module docstring derives them, for h with centre c and
    top e^top, and t_up the drop of h to _EPS of its top above c; None
    where the window cannot resolve h (see the module docstring)."""
    drop = top - shape.log_and_slope(b)[0]
    w = b - a
    # v^p = (t - a) / W at t_up.
    v_up = (t_up - a) / w
    if not (drop > 0.0 and 0.0 < v_up < 1.0):
        return None
    need = (b - centre) * -math.expm1(-drop) / drop
    v_cut = _lower_cut(shape, centre, top, a, need) / w
    if not 0.0 < v_cut < v_up:
        return None
    # u = 1/2 ln(v / (1 - v)); 1e-12 is taken off ln d, so that the
    # rounding of u_lo and of the map's nodes cannot take the dropped piece
    # past its bound.
    log_v = math.log(v_up) / _POWER
    u_hi = 0.5 * (log_v - math.log(-math.expm1(log_v)))
    log_v = (math.log(v_cut) - 1e-12) / _POWER
    u_lo = 0.5 * (math.log(-math.expm1(log_v)) - log_v)
    return min(_U_MAX, u_lo), min(_U_MAX, u_hi)


def _rounding(g: float, c: float) -> float:
    """r = 2^-52 max(g ln c, c), the rounding of the terms g ln t and -t of
    ln h at its centre c; c is 0 only at (eta, mu, x, y) = (0, 1, 0, 0),
    where r is 0."""
    return _ULP * max(g * math.log(c), c) if c > 0.0 else 0.0


def truncation_bounds(q: MomentQuery) -> QuadratureSpec:
    """Choose a finite window that holds the integrand's mass, and the
    u-range of the map onto it, both from the integrand's shape h (see the
    module docstring); ``peak`` is the peak of h.  With b the upper end of
    the cut window [y, b] of ``_window``, c the centre of h on [y, inf)
    and r = 2^-52 max(g ln c, c) the rounding of the terms of ln h there,
    the window is decided in this order:

    - one that rounds to zero width at a y past the peak is returned with
      both ends of its u-range at _U_MAX;
    - on the peak (peak >= y), one is refused where r exceeds the drop -ln
      1e-16 of h that the u-range ends at;
    - ``_drop`` finds s_hi, where h falls to 1e-16 of its top above c, in
      s = sqrt t;
    - where the three conditions of the module docstring hold (r <= 1e-13
      among them) and y lies below the lower drop s_lo^2 of h, the window
      is free, [s_lo^2, s_hi^2];
    - otherwise it is [y, b], with the u-range of ``_u_range`` up to t_up =
      s_hi^2, and it is refused where there is none.

    Raises DomainError where mu < 1 (the Bessel order mu - 1 is negative)
    and where the node argument x t overflows on the window [y, b], and
    ConvergenceError where the window is refused, as rounding leaves it
    unable to resolve h.  The DomainError for x t starts ``quadrature
    cannot take x = ...``, and the ConvergenceError ``quadrature cannot
    take eta = ...``, with mu, x and y after it.
    """
    if q.mu < 1.0:
        raise DomainError(
            f"quadrature oracle needs mu >= 1 (Bessel order mu-1 >= 0), got {q.mu!r}")
    shape = _Shape(q.eta, q.mu, q.x)
    peak, upper, top = _window(shape, q.y)
    if upper == q.y and peak < q.y:
        return QuadratureSpec(peak, q.y, upper, _U_MAX, _U_MAX)
    if not math.isfinite(q.x * upper):
        raise DomainError(
            f"quadrature cannot take x = {q.x!r}: the Bessel argument x t "
            f"overflows on its window up to t = {upper!r}")
    c = max(peak, q.y)
    root = math.sqrt(c)
    rounding = _rounding(shape.g, c)
    # On the peak, the window is refused where that rounding swamps the
    # drop of h to _EPS of its top.
    if not (peak >= q.y and rounding > -_LOG_EPS):
        s_hi = _drop(shape, top, root + _ROOT_DROP)
        s0 = max(math.sqrt(q.y), root - _ROOT_DROP)
        if (peak > q.y and root > _ROOT_DROP and rounding <= _FREE_ROUNDING
                and shape.log_and_slope(s0 * s0)[0] < top + _LOG_EPS):
            s_lo = _drop(shape, top, s0)
            if q.y < s_lo * s_lo:
                return QuadratureSpec(peak, s_lo * s_lo, s_hi * s_hi, -s_lo,
                                      s_hi)
        # t_up is s_hi ** 2, the pow that cut windows were validated with:
        # s_hi * s_hi can differ from it in the last bit.
        u_range = _u_range(shape, c, top, q.y, upper, s_hi ** 2)
        if u_range is not None:
            return QuadratureSpec(peak, q.y, upper, *u_range)
    raise ConvergenceError(
        f"quadrature cannot take eta = {q.eta!r}, mu = {q.mu!r}, "
        f"x = {q.x!r}, y = {q.y!r}: rounding leaves its window "
        f"[{q.y!r}, {upper!r}] unable to resolve the integrand")


def _power_map(kernel: _NodeKernel, spec: QuadratureSpec) -> _NodeLogs:
    """The node logs of a cut window [a, b] under the map t = a + W v^p, W =
    b - a (see ``_nested_passes``).

    A node at u takes v^p as e^{-p ln(1 + e^{-2u})}, on the one log1p that
    its log weight ln dt/du = ln(2 p W) - warp, warp = 2u + (p+1) ln(1 +
    e^{-2u}), takes too (see the module docstring), and t - x from the
    nearer end of the window: (b - x) + W expm1(-p ln(1 + e^{-2u})) where
    v^p > 1/2 and (a - x) + W v^p below, so that it does not inherit the
    rounding of t where t lies near x.
    """
    a, b = spec.lower, spec.upper
    w = b - a
    a_x, b_x = a - kernel.x, b - kernel.x
    # v^p > 1/2 where p ln(1 + e^{-2u}) < ln 2.
    upper_half = math.log(2.0) / _POWER
    scale = math.log(2.0 * _POWER * w)
    exp, log1p, expm1 = math.exp, math.log1p, math.expm1
    neg_power, warp_power = -_POWER, _POWER + 1

    def node_logs(u0: float, h: float, fresh: range) -> list[float]:
        logs = []
        for i in fresh:
            u = u0 + i * h
            log_inv_v = log1p(exp(-2.0 * u))
            log_vp = neg_power * log_inv_v
            rise = w * exp(log_vp)
            dx = (b_x + w * expm1(log_vp) if log_inv_v < upper_half
                  else a_x + rise)
            # rise >= 0, so only the upper end can round past the window.
            t = a + rise
            lf = _log_integrand(kernel, t if t < b else b, dx)
            logs.append(lf + scale - (2.0 * u + warp_power * log_inv_v))
        return logs
    return node_logs


def _root_map(kernel: _NodeKernel) -> _NodeLogs:
    """The node logs of a free window under the map t = s^2, whose log
    weight is ln dt/ds = ln 2s; t - x is formed as (s - sqrt x)(s + sqrt
    x)."""
    sqrt_x = kernel.sqrt_x

    def node_logs(s0: float, h: float, fresh: range) -> list[float]:
        logs = []
        for i in fresh:
            s = s0 + i * h
            lf = _log_integrand(kernel, s * s, (s - sqrt_x) * (s + sqrt_x))
            logs.append(lf + _log(2.0 * s))
        return logs
    return node_logs


def _node_map(q: MomentQuery, spec: QuadratureSpec) -> tuple[_NodeLogs, int]:
    """The node logs of the map onto the window of spec, and its first
    grid: t = s^2 from 9 points on a free window (lower > y), the power map
    from 15 on a cut one."""
    kernel = _NodeKernel(q)
    if spec.lower > q.y:
        return _root_map(kernel), _FREE_FIRST_GRID
    return _power_map(kernel, spec), _FIRST_GRID


def _nested_passes(node_logs: _NodeLogs, spec: QuadratureSpec,
                   n: int) -> Iterator[tuple[int, float]]:
    """(points, trapezoid sum) of the trapezoidal rule on the u-range
    [-u_lo, u_hi] of ``spec``, for nested grids of n, 2n - 1, 4n - 3, ...
    points, up to the node cap.  ``node_logs(u0, h, fresh)`` gives the log
    of each fresh node's u-space integrand, f(t) dt/du at u = u0 + i h for
    i in fresh; the first pass adds the trapezoid weight 1/2 to the logs of
    its endpoints, which no later pass evaluates again.

    Halving the spacing keeps the old nodes at the even indices of the new
    grid, so a pass evaluates only its midpoints; its sum is one exact
    ``fsum`` over every stored node.  Each node is exponentiated once, and
    stored as e^{ln term - ref}, ref the largest log so far: a pass whose
    largest log lies above ref moves ref there and rescales the stored
    terms by one factor.  So every stored term is at most 1 and their sum
    at least 1, and the scale e^{ref + ln h} of the sum lies within a
    factor of the node count of the value.  Where that scale is below the
    normal range, it has lost digits, and its product with the sum would
    round a second time; there the pass takes e^{ref + ln h + ln sum}
    instead, one rounding to the subnormal value.
    """
    u0 = -spec.u_lo
    exp = math.exp
    h = (spec.u_lo + spec.u_hi) / (n - 1)
    # Each node's u-space integrand without the spacing h, which every pass
    # changes, over e^ref.
    terms: list[float] = []
    ref = -math.inf
    fresh = range(n)
    while n <= _NODE_CAP:
        logs = node_logs(u0, h, fresh)
        if not terms:
            # The first pass: the trapezoid weight 1/2 at both ends.
            logs[0] += _LOG_HALF
            logs[-1] += _LOG_HALF
        top = max(logs)
        if top > ref:
            factor = exp(ref - top)
            terms = [v * factor for v in terms]
            ref = top
        terms.extend([exp(v - ref) for v in logs])
        log_size = ref + math.log(h)
        size = exp_clipped(log_size)
        # A scale below the normal range has lost digits: it is taken with
        # the sum in one exponential, so that the value rounds once.
        yield n, (size * fsum(terms) if size >= _MIN_NORMAL
                  else exp_clipped(log_size + math.log(fsum(terms))))
        fresh = range(1, 2 * n - 1, 2)
        n = 2 * n - 1
        h *= 0.5


class QuadratureOutcome(namedtuple("QuadratureOutcome",
                                   "value nodes est_error")):
    """Integral value plus the nodes of the last pass and its estimated
    relative error.  ``est_error`` is the larger of two parts:

    - the estimate the stop rule accepted the pass on: the change d from
      the pass before, its square d^2, or d^rho at the measured rate rho in
      (2, 3] (see the module docstring), each at most 1e-12, or d at most
      the rounding floor below;
    - the rounding floor max(4 r, 2^-47), r = 2^-52 max(g ln c, c) the
      rounding of the terms of the node logs at the window's centre c =
      max(peak, y), g = eta + mu - 1.  Past mu ~ 1e3 those terms of about
      mu ln mu cancel, and their rounding, not the rule's estimate, sets the
      error: at (0, 1e5, 0, 0), whose value is 1, the error is 3.1e-10
      where the rule's estimate is 2.7e-22.  Where c is about 1, r lies
      below an ulp, and 2^-47 covers the value's own roundings.  The factor
      4 and 2^-47 come from a measurement against a 40-digit reference
      (``CHANGES.md`` records it).

    On the box eta in [0, 50], mu in [1, 50], x, y in [0, 20] r stays near
    1e-13, so ``est_error`` stays at or below 1e-12; past it the floor is
    reported as it is, above 1e-12 from mu ~ 1e3 at x = 0, up to the limit
    of 1 where ``tanh_rule_integrate`` refuses.  A value of 0.0
    (every node underflowed) and a window that rounds to zero width report
    0.0.  The grids are nested and no node is evaluated twice, so ``nodes``
    is the number of integrand evaluations.

    A named tuple: it unpacks and indexes, and it compares equal to a plain
    tuple of the same values, even to a record of another type.
    """

    __slots__ = ()


def tanh_rule_integrate(q: MomentQuery) -> QuadratureOutcome:
    """Integrate the scaled integrand by the tanh rule.

    Takes the window [lower, upper] and the u-range [-u_lo, u_hi] from
    ``truncation_bounds(q)`` and applies the trapezoidal rule on nested
    uniform grids over the u-range.  On a free window (lower > y), whose
    ends lie where the integrand's shape h has fallen to 1e-16 of its top,
    the map is t = u^2 and the first grid has 9 points.  On a cut window
    the map is t = lower + (upper - lower) v^20, v = (1 + tanh u)/2, and the
    first grid has 15 points: the upper end of the u-range stops where h,
    and so over the whole piece it drops, is below 1e-16 of its top, and
    the lower end where its dropped piece is at most 1e-16 of the mass of
    h (see the module docstring).  Each refinement halves the spacing, n
    -> 2n - 1, so a pass evaluates only its n - 1 new midpoints and reuses
    the values of every earlier node; the squaring stop can first accept
    the pass of 33 points on a free window and of 57 on a cut one.
    Refinement stops when the relative change d between two passes is at
    most 1e-12 or the rounding floor of ``QuadratureOutcome``, or is below
    the change d_prev before it with d^2 <= 1e-12, or, where d_prev < 1,
    with d^rho <= 1e-12, rho = min(3, ln d / ln d_prev) (see the module
    docstring); ``est_error`` is d, d^2 or d^rho, or that floor where it
    is larger.
    Each refusal is a ConvergenceError raised at the pass that finds it:
    the first pass whose sum is not finite, where the integral overflows
    the double range, and the second pass where the rounding floor is 1 or
    more, which leaves the value no digit, unless both passes sum to 0.
    Only passes that reach the 2^20 node cap without a stop leave the loop,
    and raise the third.
    Node contributions are combined with exact summation, so results are
    reproducible.  A window that rounds to zero width, which
    ``truncation_bounds`` returns only at a y past the peak of h, gives
    QuadratureOutcome(0.0, 0, 0.0).  ``truncation_bounds`` raises before
    any node is evaluated (see there).
    """
    spec = truncation_bounds(q)
    if spec.upper == spec.lower:
        return QuadratureOutcome(0.0, 0, 0.0)
    floor = max(_FLOOR_FACTOR * _rounding(q.eta + q.mu - 1.0,
                                          max(spec.peak, q.y)), _FLOOR_MIN)
    # A change at the rounding floor is the nodes' own rounding: a later
    # pass cannot bring it lower.
    tol = max(_REL_TOL, floor)
    node_logs, n = _node_map(q, spec)
    prev = None
    # The squaring and rate stops need a change before the current one to
    # compare it with, so they cannot fire on the second pass.
    d_prev = 0.0
    for n, cur in _nested_passes(node_logs, spec, n):
        if not math.isfinite(cur):
            raise ConvergenceError(
                f"tanh-rule quadrature overflows the double range for {q}: "
                f"its {n}-point pass sums to {cur!r}")
        if prev is not None:
            if cur == 0.0 and prev == 0.0:
                return QuadratureOutcome(0.0, n, 0.0)
            if floor >= _FLOOR_LIMIT:
                raise ConvergenceError(
                    f"quadrature cannot take eta = {q.eta!r}, mu = {q.mu!r}, "
                    f"x = {q.x!r}, y = {q.y!r}: the rounding floor {floor!r} "
                    f"of its node logs leaves the value no digit")
            d = abs(cur - prev) / abs(cur) if cur != 0.0 else math.inf
            if d <= tol:
                return QuadratureOutcome(cur, n, max(d, floor))
            if d < d_prev:
                # The error squares, or its exponent grows at the rate the
                # two changes measure (d > tol > 0 here).
                est = d * d
                if est > _REL_TOL and d_prev < 1.0:
                    est = d ** min(_MAX_RATE, math.log(d) / math.log(d_prev))
                if est <= _REL_TOL:
                    return QuadratureOutcome(cur, n, max(est, floor))
            d_prev = d
        prev = cur
    raise ConvergenceError(
        f"tanh-rule quadrature did not converge within {_NODE_CAP} nodes for {q}")


def moment_by_quadrature(q: MomentQuery) -> float:
    """The value of ``tanh_rule_integrate(q)``."""
    return tanh_rule_integrate(q).value
