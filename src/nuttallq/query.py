"""The records every route takes and gives, and ``evaluate``.

``MomentQuery`` is the checked point (eta, mu, x, y) that each route takes,
and ``Evaluation`` one value by a named route.  ``evaluate`` takes a route
by its name; it is the one place that turns a method name into a route
call, and the CLI's ``eval`` and ``sweep`` print through it.  It imports
each route only in the branch that runs it: the series (``nuttall`` and
``incgamma``), the recurrences or the quadrature.  So this module holds no
numerical code, and a command that runs one route compiles no other.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import DomainError

# The largest finite double.
_HUGE = sys.float_info.max


def _require_finite(name: str, v: float) -> None:
    # A comparison, not math.isfinite, which raises OverflowError for an int
    # past the double range; such an int is not shown in full.
    if not -_HUGE <= v <= _HUGE:
        shown = ("an int past the double range" if isinstance(v, int)
                 else repr(v))
        raise DomainError(f"{name} must be finite, got {shown}")


class MomentQuery(namedtuple("MomentQuery", "eta mu x y")):
    """Parameter 4-tuple (eta, mu, x, y) for one moment evaluation.

    eta: moment order, >= 0 (integer required by the recurrence methods);
    mu:  degrees-of-freedom parameter, > 0;
    x:   non-centrality, >= 0;
    y:   lower integration limit, >= 0.

    A named tuple: it unpacks and indexes, and it compares equal to a plain
    tuple of the same values, even to a record of another type.
    """

    __slots__ = ()

    def __new__(cls, eta: float, mu: float, x: float, y: float) -> MomentQuery:
        huge = _HUGE
        if not (0.0 <= eta <= huge and 0.0 < mu <= huge
                and 0.0 <= x <= huge and 0.0 <= y <= huge):
            for name, v in zip(cls._fields, (eta, mu, x, y)):
                _require_finite(name, v)
            if eta < 0.0:
                raise DomainError(f"eta must be >= 0, got {eta!r}")
            if mu <= 0.0:
                raise DomainError(f"mu must be > 0, got {mu!r}")
            if x < 0.0:
                raise DomainError(f"x must be >= 0, got {x!r}")
            if y < 0.0:
                raise DomainError(f"y must be >= 0, got {y!r}")
        return tuple.__new__(cls, (eta, mu, x, y))

    @classmethod
    def _make(cls, iterable) -> MomentQuery:
        # namedtuple's own _make, which _replace calls, builds the tuple
        # without __new__; build through it, so a replaced field is checked.
        return cls(*iterable)


# The routes ``evaluate`` takes by name.
METHODS = ("series", "ladder", "homogeneous", "quadrature")


class Evaluation(namedtuple("Evaluation",
                            "value method terms est_error converged")):
    """One value by a named route, as ``evaluate`` gives it.

    value:     Q_{eta,mu}(x, y);
    method:    the route, one of ``METHODS``;
    terms:     the series' ``terms_used`` or the quadrature's ``nodes``;
               None for the recurrences, which count no work;
    est_error: the series' or the quadrature's ``est_error``; None for the
               recurrences, which estimate none;
    converged: the series' flag; True for the other routes, which raise
               ConvergenceError where they fail.

    A named tuple: it unpacks and indexes, and it compares equal to a plain
    tuple of the same values, even to a record of another type.
    """

    __slots__ = ()


def evaluate(q: MomentQuery, method: str) -> Evaluation:
    """Q_{eta,mu}(x, y) by the route ``method`` names, one of ``METHODS``.

    The recurrences build a table of eta + 1 rows and n_cols = ceil(mu)
    columns, at least one, where mu up to 1e-12 above an integer counts as
    that integer.  It starts at mu_start = mu - (n_cols - 1), in (0, 1] up
    to that slack, and its last entry is the value; the builders check eta
    and the table's size.  An unknown method raises DomainError, and a
    route's own failures raise as the route raises them.
    """
    if method == "series":
        from .nuttall import nuttall_q_series
        out = nuttall_q_series(q)
        return Evaluation(out.value, method, out.terms_used, out.est_error,
                          out.converged)
    if method == "quadrature":
        from .quadrature import tanh_rule_integrate
        out = tanh_rule_integrate(q)
        return Evaluation(out.value, method, out.nodes, out.est_error, True)
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}")
    from .recurrence import homogeneous_table, nuttall_q_ladder
    n_cols = max(1, math.ceil(q.mu - 1e-12))
    build = nuttall_q_ladder if method == "ladder" else homogeneous_table
    table = build(q.eta, q.mu - (n_cols - 1), n_cols, q.x, q.y)
    return Evaluation(table.entry(table.eta_max, n_cols - 1), method, None,
                      None, True)
