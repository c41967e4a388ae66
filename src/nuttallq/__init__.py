"""Moments of the partial non-central chi-squared distribution (Nuttall Q).

Three mutually validating evaluation routes for Q_{eta,mu}(x, y): a series
in incomplete gamma function ratios, stable recurrence ladders in mu, and a
truncated tanh-rule quadrature of the defining integral.

``import nuttallq`` loads the series and recurrence routes, the Bessel and
incomplete-gamma kernels and the errors.  The quadrature route,
``nuttallq.quadrature``, loads on first use: the first access to one of
its five public names (``QuadratureOutcome``, ``QuadratureSpec``,
``moment_by_quadrature``, ``tanh_rule_integrate``, ``truncation_bounds``)
imports it, so that a command that never integrates does not compile it.
"""

from .bessel import bessel_i_scaled, bessel_ratio
from .errors import ConvergenceError, DomainError
from .incgamma import log_q_increment
from .nuttall import (Evaluation, MomentQuery, RecurrenceTable,
                      SeriesOutcome, consistency_deviation, evaluate,
                      homogeneous_table, marcum_q, nuttall_q_homogeneous,
                      nuttall_q_ladder, nuttall_q_series)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "Evaluation",
    "MomentQuery",
    "QuadratureOutcome",
    "QuadratureSpec",
    "RecurrenceTable",
    "SeriesOutcome",
    "bessel_i_scaled",
    "bessel_ratio",
    "consistency_deviation",
    "evaluate",
    "homogeneous_table",
    "log_q_increment",
    "marcum_q",
    "moment_by_quadrature",
    "nuttall_q_homogeneous",
    "nuttall_q_ladder",
    "nuttall_q_series",
    "tanh_rule_integrate",
    "truncation_bounds",
]


def __getattr__(name: str):
    """A name of ``__all__`` not bound at import, from
    ``nuttallq.quadrature`` on its first access (PEP 562); any other
    missing name raises AttributeError."""
    if name in __all__:
        from . import quadrature
        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
