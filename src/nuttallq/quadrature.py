"""Brute-force evaluation of the defining moment integral.

Cross-check for the series/recurrence evaluators (what it shares with them
is listed in the ``nuttall`` module docstring).  With the
x^{(1-mu)/2} factor cancelled against the power series of I_{mu-1}, the
integrand is

    f(t) = t^{eta+mu-1} e^{-t-x} 0F1(; mu; x t) / Gamma(mu),

where 0F1(; mu; q) = sum_n q^n / (n! (mu)_n).  The improper integral is
truncated to a window [a, b] around the peak of the profile t^g
e^{-(sqrt t - sqrt x)^2}, mapped from the real line by the power map below,
and integrated with the trapezoidal rule on nested uniform u-grids of 33,
65, 129, ... points (n -> 2n - 1) until the estimated error of the last
pass is small.  For x > 0 the window is the union of two: one for g = eta +
(mu-1)/2, the integrand's large-t shape, and one for the x = 0 profile
t^{eta+mu-1} e^{-t}, which the integrand follows while x t is small next to
mu^2; at x = 0 only the second is needed.  Each refinement halves the
spacing, so the earlier nodes stay on the grid and their values are
reused: no node is evaluated twice.  The integrand is always evaluated
through its logarithm, so profiles reaching 1e89 never overflow a node,
and by a kernel built once per integral that holds all that depends only
on (eta, mu, x).  Every node takes one formula, x = 0 and z = 2 sqrt(x t) >
700 included; no node reaches t = 0, as the map below puts each at t >= a
+ 9.4e-307 W with a >= 0 and W >= 1.

Refinement stops at pass k when the relative change d_k between passes k-1
and k satisfies either

    d_k <= 1e-12                       (two passes agree), or
    d_k < d_{k-1} and d_k^2 <= 1e-14   (the error squares).

Once the integrand is negligible at both ends of the u-range, the
trapezoidal rule converges exponentially, and halving the spacing roughly
squares its error (Trefethen & Weideman, SIAM Rev. 56, 2014).  Then d_k is
about the error of pass k-1, and d_k^2 estimates the error of pass k, so
the second condition accepts pass k without a confirming pass.  It needs
d_k to shrink, so it cannot fire before the third pass, at 129 points.

Every integral takes the same map,

    t = a + W v^p,  p = 20,  W = b - a,
    v = (1 + tanh u)/2 = 1/(1 + e^{-2u}),
    dt/du = 2 p W e^{-2u} / (1 + e^{-2u})^{p+1},

whose weight decays like e^{-2u} as u -> inf, as the tanh map's does, and
like e^{2pu} = e^{40u} as u -> -inf: at a it is a polynomial end map of
the kind of Sidi's sin^m transformations (Sidi 1993).  The lower end needs
that: wherever y lies in the integrand's mass, or the integrand rises
steeply as t^{eta+mu-1} next to y ~ 0, the window ends at y while the
integrand is still large there, and a weight that decays only like e^{2u}
would put about half of all nodes within 0.5% of the window next to y.
The integrand is never singular at y (mu >= 1), so the rule on the u-grid
keeps its exponential convergence.  The crowding costs nodes wherever the
window reaches far below the integrand's mass: where a is small next to
t, ln t goes like ln W - 20 e^{-2u}, and the integrand's t^{eta+mu-1}
turns that into a double-exponential rise, steep for eta + mu ~ 90.  So
the window's lower end is not left where the doubling of its width
overshot, but bisected back to the profile's 1e-16 drop (``_window``).
The node forms v^p as e^{-p log1p(e^{-2u})}, so that t and its log weight
share one log1p and t stays within an ulp: (1 + e^{-2u})^p would round 1 +
e^{-2u} first and put t up to 16 ulp off as v -> 1, where the peak of a
large-x integral lies.

The u-range is [-U_lo, U_hi], each end chosen once per integral.  The
window already ends where its profiles are 1e-16 of their tops, so with
v^p saturating near u = 17.6 most nodes of a u-range that long would land
in the window's outer 0.5% next to b.  The trapezoidal rule converges
exponentially once the integrand is negligible at both ends.  So the
upper end starts at U = 3 and grows by 1 up to 17.6 (where tanh U = 1 -
1e-15) until its outermost node t = a + W v(U)^p lies above every window
profile's maximum with each profile at or below 1e-16 of it.  Each profile
is unimodal, so it stays below that bound over the whole dropped piece.

The lower end drops [a, a + d] with d = W v(-U)^p = W / (1 + e^{2U})^p.
Each profile p(t) is log-concave, since (g ln t - (sqrt t - sqrt x)^2)'' =
-g/t^2 - sqrt(x)/(2 t^{3/2}) <= 0.  So on [c, b], from its centre c to the
window's upper end, it lies above the exponential chord from its top e^T
to p(b) = e^{T - delta}, and its mass is at least e^T (b - c) (1 -
e^{-delta}) / delta, while its dropped piece is at most d e^T.  U_lo is
the U with

    d = 1e-16 need,   need = min over the profiles of
                             (b - c) (1 - e^{-delta}) / delta,

that is U_lo = 1/2 ln((W / (1e-16 need))^{1/p} - 1), so the dropped piece
is at most 1e-16 of each profile's mass, wherever a lies.  On the working
box that is U_lo ~ 0.96.

Most of a node's cost is the Bessel series, and after the first pass most
new nodes sit in tails that cannot reach the sum.  So from the second pass
on a node first bounds its log from above in closed form, and the series
runs only where that bound comes within 45 of the largest log stored by
the pass before; the other nodes are skipped.  For mu >= 1, which
``_check_oracle_query`` enforces, the series S(q) = sum_n q^n / (n!
(mu)_n), q = x t = z^2/4, obeys

    S(q) <= I_0(z) <= e^z     since (mu)_n >= n!, and
    S(q) <= e^{q/mu}          since (mu)_n >= mu^n,

so ln(e^{-z} S(q)) <= min(0, q/mu - z), and

    ln f(t) <= (eta+mu-1) ln t - (sqrt t - sqrt x)^2 - ln Gamma(mu)
               + min(0, x t / mu - 2 sqrt(x t)),

with equality at x = 0.  A node this skips adds less than e^-45 ~ 2.9e-20
of the largest term, so N skipped nodes move a pass's sum by less than
N * 2.9e-20 of itself: below half an ulp for N < ~3800, and at most
3.0e-14 at the 2^20 node cap.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterator
from math import fsum

from .bessel import FixedOrderSeries
from .errors import ConvergenceError, DomainError
from .logscale import exp_clipped
from .nuttall import MomentQuery

_NODE_CAP = 2**20
# Two passes that agree to this relative change end the refinement.
_REL_TOL = 1e-12
# Or a pass whose relative change d is below the change of the pass before
# with d^2 at or below this: halving the spacing roughly squares the error
# of the trapezoidal rule, so d^2 then estimates the error of the pass.
_SQUARED_TOL = 1e-14
# Profile drop, relative to its peak, at which the window ends.
_EPS = 1e-16
_LOG_EPS = math.log(_EPS)
# Points of the first u-grid; the grids are 33, 65, 129, 257, ...
_FIRST_GRID = 33
# Cap on each end of the u-range, where tanh u = 1 - 1e-15.
_U_MAX = math.atanh(1.0 - 1e-15)
# The upper end, which ``_u_end`` sizes, starts here and grows by _U_STEP
# up to _U_MAX.
_U_FIRST = 3.0
_U_STEP = 1.0
_WIDTH_DOUBLINGS = 400
# The window's lower end is bisected to within 1/1024 of the width the
# doublings reached, above where the profile drops below _EPS.
_LOWER_BISECTIONS = 10
# A node is skipped where its bound is below e^-45 ~ 2.9e-20 of the largest
# term of the pass before.
_SKIP_MARGIN = 45.0
# Power p of the map t = a + W v^p.
_POWER = 20


class QuadratureSpec(namedtuple("QuadratureSpec",
                                "peak lower upper u_lo u_hi")):
    """Truncation window for one integral, the peak of the profile t^g
    e^{-(sqrt t - sqrt x)^2} it was centred on, and the u-range [-u_lo,
    u_hi] of the map t = lower + (upper - lower) v^20, v = (1 + tanh u)/2,
    onto it (see the module docstring).  The profile's exponent g is eta +
    (mu-1)/2, or eta + mu - 1 at x = 0 (see ``truncation_bounds``).

    ``truncation_bounds`` returns it, and ``tanh_rule_integrate`` integrates
    over the window and u-range it describes.  y <= lower <= upper always
    holds; lower == upper only where the window's centre is so large
    (beyond ~1e272) that adding its half-width rounds away.  u_hi lies in
    [3, _U_MAX] (see ``_u_end``), and u_lo in (0.8, _U_MAX] from a closed
    form, about 0.96 on the working box (see ``_cut_end``).

    A named tuple: it unpacks and indexes, and it compares equal to a plain
    tuple of the same values, even to a record of another type.
    """

    __slots__ = ()


def _check_oracle_query(q: MomentQuery) -> None:
    if q.mu < 1.0:
        raise DomainError(
            f"quadrature oracle needs mu >= 1 (Bessel order mu-1 >= 0), got {q.mu!r}")


def _log_profile(gamma_exp: float, x: float, t: float) -> float:
    """ln of the peak-estimate profile t^g e^{-(sqrt t - sqrt x)^2}, t > 0."""
    return gamma_exp * math.log(t) - (math.sqrt(t) - math.sqrt(x)) ** 2


class _NodeKernel:
    """What the nodes of one integral share: everything in ln f(t) that
    depends only on (eta, mu, x), computed once.

    The x^{(1-mu)/2} factor cancels against the (z/2)^{mu-1} of I_{mu-1}(z),
    z = 2 sqrt(x t), so a node needs only the series S of
    ``FixedOrderSeries`` at order mu - 1:

        ln f(t) = (eta+mu-1) ln t - (sqrt t - sqrt x)^2 - ln Gamma(mu)
                  + ln(e^{-z} S(x t)),

    for every t > 0 and x >= 0 (at x = 0, z = 0 and S = 1).
    """

    __slots__ = ("x", "sqrt_x", "mu", "power", "series")

    def __init__(self, q: MomentQuery) -> None:
        self.x = q.x
        self.sqrt_x = math.sqrt(q.x)
        self.mu = q.mu
        self.power = q.eta + q.mu - 1.0
        self.series = FixedOrderSeries(q.mu - 1.0)


def _log_head(k: _NodeKernel, t: float) -> tuple[float, float]:
    """(head, bound) at t: the part of ln f(t) before its series term,

        head = (eta+mu-1) ln t - (sqrt t - sqrt x)^2 - ln Gamma(mu),

    and head + min(0, x t / mu - 2 sqrt(x t)), an upper bound on ln f(t)
    (see the module docstring).
    """
    sqrt_t = math.sqrt(t)
    d = sqrt_t - k.sqrt_x
    head = k.power * math.log(t) - d * d - k.series.log_gamma
    r = k.sqrt_x * sqrt_t
    gap = r * r / k.mu - 2.0 * r
    return head, (head + gap if gap < 0.0 else head)


def _log_integrand(k: _NodeKernel, t: float, head: float) -> float:
    """ln of the scaled integrand at t, given head = ``_log_head(k, t)[0]``;
    finite at every node, where t > 0 and x t is finite."""
    q = k.x * t
    return head + k.series.log_scaled(q, 2.0 * math.sqrt(q))


def _window(gamma_exp: float, x: float,
            y: float) -> tuple[float, float, float, float]:
    """(peak, lower, upper, top): the window in which the profile t^g
    e^{-(sqrt t - sqrt x)^2}, g = gamma_exp, stays above _EPS times its
    maximum on [y, inf), and the log of that maximum.

    The peak sits at t* = (sqrt x + sqrt(x + 4 g))^2 / 4, so the maximum on
    [y, inf) is at max(t*, y); the half-width w around it doubles until the
    profile at both window ends has dropped below _EPS times that maximum
    (the lower end needs no test once it hits y).  The lower end is then
    bisected back towards the centre, _LOWER_BISECTIONS times in (0, w],
    keeping that drop: the map crowds its nodes next to the lower end (see
    the module docstring), and an end up to a doubling below the drop left
    the mass with too few of them.  The upper end keeps its overshoot,
    which lets ``_u_end`` stop the u-range short of _U_MAX.
    """
    if gamma_exp == 0.0:
        peak = x
    else:
        s = 0.5 * (math.sqrt(x) + math.sqrt(x + 4.0 * gamma_exp))
        peak = s * s
    center = max(peak, y)
    g_top = _log_profile(gamma_exp, x, center) if center > 0.0 else 0.0

    def dropped(t: float) -> bool:
        return _log_profile(gamma_exp, x, t) - g_top <= _LOG_EPS

    w = max(1.0, math.sqrt(center))
    for _ in range(_WIDTH_DOUBLINGS - 1):
        if dropped(center + w) and (center - w <= y or dropped(center - w)):
            break
        w *= 2.0
    upper, inner = center + w, 0.0
    # The lower end's drop lies within w of the centre, or below y.
    for _ in range(_LOWER_BISECTIONS):
        mid = 0.5 * (inner + w)
        if center - mid <= y or dropped(center - mid):
            w = mid
        else:
            inner = mid
    return peak, max(y, center - w), upper, g_top


def _node_map(a: float, b: float) -> Callable[[float], tuple[float, float]]:
    """u -> (t, shape) under the map t = a + W v^p of the window [a, b], W =
    b - a, v = 1/(1 + e^{-2u}), with shape = 2u + (p+1) ln(1 + e^{-2u}) so
    that dt/du = 2 p W e^{-shape}.  v^p is formed as e^{-p ln(1 + e^{-2u})},
    on the one log1p that the shape takes too (see the module docstring).
    """
    w = b - a

    def node(u: float) -> tuple[float, float]:
        log_inv_v = math.log1p(math.exp(-2.0 * u))
        return (a + w * math.exp(-_POWER * log_inv_v),
                2.0 * u + (_POWER + 1) * log_inv_v)
    return node


def _u_end(profiles: list[tuple[float, float, float, float]],
           node: Callable[[float], tuple[float, float]]) -> float:
    """U for the upper end of the u-range: the first of 3, 4, ..., _U_MAX
    at which the outermost node t = node(U) lies at or above every
    profile's maximum and has each profile at or below _EPS times it (why
    that suffices: see the module docstring); _U_MAX where none does.

    ``profiles`` holds (g, x, centre, log top) per window profile, the
    centre being where the profile takes its top on [y, inf).
    """
    u = _U_FIRST
    while u < _U_MAX:
        t = node(u)[0]
        if all(t >= centre and _log_profile(g, x, t) - top <= _LOG_EPS
               for g, x, centre, top in profiles):
            return u
        u += _U_STEP
    return _U_MAX


def _cut_end(profiles: list[tuple[float, float, float, float]], a: float,
             b: float) -> float:
    """U for the lower end of the u-range: the U at which the dropped
    length W v(-U)^p = W / (1 + e^{2U})^p equals the least, over the
    profiles, of _EPS (b - c) (1 - e^{-delta}) / delta, with c the
    profile's centre and delta its drop in log from its top to b.  Then the
    dropped piece is at most _EPS of each profile's mass (see the module
    docstring).  In closed form U = 1/2 ln((W / (_EPS need))^{1/p} - 1),
    capped at _U_MAX; need <= W, so U >= 1/2 ln(expm1(ln(1e16) / p)) > 0.8.
    """
    need = math.inf
    for g, x, centre, top in profiles:
        drop = top - _log_profile(g, x, b)
        need = min(need, (b - centre) * -math.expm1(-drop) / drop
                   if drop > 0.0 else 0.0)
    if need <= 0.0:
        return _U_MAX
    return min(_U_MAX, 0.5 * math.log(
        math.expm1(math.log((b - a) / (_EPS * need)) / _POWER)))


def truncation_bounds(q: MomentQuery) -> QuadratureSpec:
    """Choose a finite window [a, b] that holds the integrand's mass, and
    the u-range of the map onto it.

    At x = 0 the integrand is exactly t^{eta+mu-1} e^{-t}, and the window
    is the one of that profile (g = eta + mu - 1, x = 0).  For x > 0 it is
    the union of that window and the one of the profile with g = eta +
    (mu-1)/2 at the given x, which matches the integrand's large-t
    behaviour; where x t is small next to mu^2 the integrand still follows
    the x = 0 shape, and the x > 0 window alone would cut off its upper
    tail for large mu.  ``peak`` is that of the x > 0 profile whenever
    x > 0.  Every window profile sizes both ends of the u-range: the upper
    one at its outermost node (``_u_end``), the lower one by its dropped
    piece (``_cut_end``).
    """
    _check_oracle_query(q)
    g_zero = q.eta + q.mu - 1.0
    peak, lower, upper, top0 = _window(g_zero, 0.0, q.y)
    profiles = [(g_zero, 0.0, max(peak, q.y), top0)]
    if q.x > 0.0:
        gamma_exp = q.eta + 0.5 * (q.mu - 1.0)
        peak, lower_x, upper_x, top = _window(gamma_exp, q.x, q.y)
        profiles.append((gamma_exp, q.x, max(peak, q.y), top))
        lower, upper = min(lower, lower_x), max(upper, upper_x)
    return QuadratureSpec(peak, lower, upper,
                          _cut_end(profiles, lower, upper),
                          _u_end(profiles, _node_map(lower, upper)))


def _nested_passes(kernel: _NodeKernel, spec: QuadratureSpec,
                   n: int) -> Iterator[tuple[int, float, int]]:
    """(points, trapezoid sum, skipped) of the trapezoidal rule on the
    window [a, b] of ``spec`` under the map (``_node_map``) for nested grids
    of n, 2n - 1, 4n - 3, ... points on its u-range [-u_lo, u_hi], up to the
    node cap; skipped counts the grid's points whose series never ran.

    Halving the spacing keeps the old nodes at the even indices of the new
    grid, so a pass visits only its midpoints; its sum is one exact
    ``fsum`` over every stored node, so reuse adds no rounding.  From the
    second pass on, a midpoint whose bound from ``_log_head``, plus its log
    weight, lies more than _SKIP_MARGIN below the largest log of the pass
    before is neither evaluated nor stored: it is below e^-45 of the
    largest term, and N such points move the sum by less than N * 2.9e-20
    of itself (see the module docstring).
    """
    a, b, u_lo = spec.lower, spec.upper, spec.u_lo
    node = _node_map(a, b)
    # ln dt/du = scale - shape.
    scale = math.log(2.0 * _POWER * (b - a))
    log_end_weight = math.log(0.5)
    h = (u_lo + spec.u_hi) / (n - 1)
    # ln of each node's u-space integrand without the spacing h, which every
    # pass changes; the endpoints carry their trapezoid weight 1/2.  The
    # first pass stores every node.
    logs: list[float] = []
    # Nodes whose bound falls below it are skipped; -inf in the first pass.
    floor = -math.inf
    skipped = 0
    fresh = range(n)
    while n <= _NODE_CAP:
        for i in fresh:
            t, shape = node(-u_lo + i * h)
            t = min(b, max(a, t))
            head, bound = _log_head(kernel, t)
            if bound + scale - shape < floor:
                skipped += 1
                continue
            lf = _log_integrand(kernel, t, head)
            if i == 0 or i == n - 1:
                lf += log_end_weight
            logs.append(lf + scale - shape)
        top = max(logs)
        floor = top - _SKIP_MARGIN
        yield n, (exp_clipped(top + math.log(h))
                  * fsum(math.exp(v - top) for v in logs)), skipped
        fresh = range(1, 2 * n - 1, 2)
        n = 2 * n - 1
        h *= 0.5


class QuadratureOutcome(namedtuple("QuadratureOutcome",
                                   "value nodes est_error skipped")):
    """Integral value plus the nodes of the last pass, the estimated
    relative error the stop rule accepted it on, and how many of those
    nodes were skipped.

    The grids are nested and no node is evaluated twice, so ``nodes -
    skipped`` is the number of integrand evaluations; ``skipped`` counts
    the nodes whose closed-form bound proved them negligible, so that the
    Bessel series never ran there.

    A named tuple: it unpacks and indexes, and it compares equal to a plain
    tuple of the same values, even to a record of another type.
    """

    __slots__ = ()


def tanh_rule_integrate(q: MomentQuery) -> QuadratureOutcome:
    """Integrate the scaled integrand by the tanh rule.

    Takes the window [lower, upper] and the u-range [-u_lo, u_hi] from
    ``truncation_bounds(q)``, maps the real line onto the window by t =
    lower + (upper - lower) v^20, v = (1 + tanh u)/2, and applies the
    trapezoidal rule on nested uniform grids over the u-range.  The upper
    end of the u-range stops where the profiles at its outermost node, and
    so over the whole piece it drops, are below 1e-16 of their tops; the
    lower end stops where its dropped piece is at most 1e-16 of each
    profile's mass (see the module docstring).  The first
    grid has 33 points, and each refinement halves the spacing, n -> 2n -
    1, so a pass visits only its n - 1 new midpoints and reuses the values
    of every earlier node; from the second pass on, it skips the midpoints
    that a closed-form bound proves negligible (see ``_nested_passes``).
    Refinement stops when the relative change d between two passes is at
    most 1e-12, or is below the change before it with d^2 <= 1e-14 (see the
    module docstring); ``est_error`` is d in the first case and d^2 in the
    second.  Non-convergence within the 2^20 node cap raises
    ConvergenceError.
    Node contributions are combined with exact summation, so results are
    reproducible.  A window that rounds to zero width gives
    QuadratureOutcome(0.0, 0, 0.0, 0) where it sits at y, past the
    profile's peak, and raises ConvergenceError where it sits on the peak:
    there the integral is not negligible, only unresolvable.  An x so
    large that the node argument x t overflows on the window raises
    DomainError; one large enough (from about x = 5e8) that the Bessel
    series of a node cannot converge raises ConvergenceError, and both
    messages name x and the quadrature route.
    """
    spec = truncation_bounds(q)
    if spec.upper == spec.lower:
        if spec.peak > q.y:
            raise ConvergenceError(
                f"tanh-rule window around the peak {spec.peak} rounds to "
                f"zero width for {q}")
        return QuadratureOutcome(0.0, 0, 0.0, 0)
    if not math.isfinite(q.x * spec.upper):
        raise DomainError(
            f"quadrature cannot take x = {q.x!r}: the Bessel argument x t "
            f"overflows on its window up to t = {spec.upper!r}")
    prev = None
    # The squaring stop needs a change before the current one to compare it
    # with, so it cannot fire on the second pass.
    d_prev = 0.0
    try:
        for n, cur, skipped in _nested_passes(_NodeKernel(q), spec,
                                              _FIRST_GRID):
            if prev is not None:
                if cur == 0.0 and prev == 0.0:
                    return QuadratureOutcome(0.0, n, 0.0, skipped)
                d = abs(cur - prev) / abs(cur) if cur != 0.0 else math.inf
                if d <= _REL_TOL:
                    return QuadratureOutcome(cur, n, d, skipped)
                if d < d_prev and d * d <= _SQUARED_TOL:
                    return QuadratureOutcome(cur, n, d * d, skipped)
                d_prev = d
            prev = cur
    except ConvergenceError as exc:
        # Only a node's Bessel series raises it here; its argument grows
        # with x, so say which x and route gave up.
        raise ConvergenceError(
            f"quadrature cannot take x = {q.x!r} on its window up to "
            f"t = {spec.upper!r}: {exc}") from exc
    raise ConvergenceError(
        f"tanh-rule quadrature did not converge within {_NODE_CAP} nodes for {q}")


def moment_by_quadrature(q: MomentQuery) -> float:
    """The value of ``tanh_rule_integrate(q)``."""
    return tanh_rule_integrate(q).value
