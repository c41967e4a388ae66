"""Moments of the partial non-central chi-squared distribution (Nuttall Q).

Three mutually validating evaluation routes for Q_{eta,mu}(x, y): a series
in incomplete gamma function ratios, stable recurrence ladders in mu, and a
truncated tanh-rule quadrature of the defining integral.
"""

from .bessel import bessel_i_scaled, bessel_ratio
from .errors import ConvergenceError, DomainError
from .incgamma import log_q_increment
from .nuttall import (MomentQuery, RecurrenceTable, SeriesOutcome,
                      consistency_deviation, homogeneous_table, marcum_q,
                      nuttall_q_homogeneous, nuttall_q_ladder,
                      nuttall_q_series)
from .quadrature import (QuadratureOutcome, QuadratureSpec,
                         moment_by_quadrature, tanh_rule_integrate,
                         truncation_bounds)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "MomentQuery",
    "QuadratureOutcome",
    "QuadratureSpec",
    "RecurrenceTable",
    "SeriesOutcome",
    "bessel_i_scaled",
    "bessel_ratio",
    "consistency_deviation",
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
