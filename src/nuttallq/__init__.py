"""Moments of the partial non-central chi-squared distribution (Nuttall Q).

Three mutually validating evaluation routes for Q_{eta,mu}(x, y), one
module each, with the records they take and give in a fourth:

* ``nuttallq.query`` - the records ``MomentQuery`` and ``Evaluation``, and
  ``evaluate``, which takes any route by name;
* ``nuttallq.nuttall`` - the series in incomplete gamma function ratios
  (``nuttall_q_series``, ``marcum_q``) and its record ``SeriesOutcome``;
* ``nuttallq.recurrence`` - the stable recurrence ladders in mu
  (``nuttall_q_ladder``, ``homogeneous_table``, ``nuttall_q_homogeneous``)
  and ``consistency_deviation``;
* ``nuttallq.quadrature`` - the truncated tanh-rule quadrature of the
  defining integral (``tanh_rule_integrate``, ``moment_by_quadrature``).

They rest on two kernel modules: ``incgamma`` (incomplete gamma function
ratios) and ``bessel`` (scaled Bessel functions and their ratios).  The
routes are not wholly independent, so their agreement does not check what
they share:

* quadrature nodes past z = 700 take e^{-z} I from
  ``bessel.log_poisson_pair_sum``, whose peak log comes from
  ``incgamma.log_q_increment`` and its ``_log_gamma_prefactor``, the
  functions behind the series' Q factors;
* the ladder's forcing term and the quadrature kernel both take
  ``bessel._power_over_gamma``, and the quadrature nodes below the switch
  to Hankel's expansion, z < max(21, (4 (mu-1)^2 - 1)/16), also the
  Bessel power series, the loop ``bessel._four_term_sum`` on the steps of
  ``bessel._series_steps``; the nodes from there to z = 700 run the same
  loop on Hankel's steps ``bessel._hankel_steps``, which only quadrature
  forms;
* the ladder and the homogeneous table share their one series seed, their
  forcing terms and their ratio sweep;
* both recurrences take their series values from ``nuttall.series_value``.

``import nuttallq`` loads the errors and ``query``.  The series, the
incomplete gamma kernel, the recurrences, the quadrature and the Bessel
kernel load on first use: the first access to one of their names in
``__all__`` imports the module that holds it (``_LAZY``), so that a command
that never runs a route does not compile it.  ``bessel`` imports
``incgamma`` only in ``log_poisson_pair_sum``, so quadrature compiles no
line of the series unless a node passes z = 700.
"""

from .errors import ConvergenceError, DomainError
from .query import Evaluation, MomentQuery, evaluate

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

# The names of ``__all__`` not bound at import, and the module of each.
_LAZY = {
    "SeriesOutcome": "nuttall",
    "marcum_q": "nuttall",
    "nuttall_q_series": "nuttall",
    "log_q_increment": "incgamma",
    "QuadratureOutcome": "quadrature",
    "QuadratureSpec": "quadrature",
    "moment_by_quadrature": "quadrature",
    "tanh_rule_integrate": "quadrature",
    "truncation_bounds": "quadrature",
    "RecurrenceTable": "recurrence",
    "consistency_deviation": "recurrence",
    "homogeneous_table": "recurrence",
    "nuttall_q_homogeneous": "recurrence",
    "nuttall_q_ladder": "recurrence",
    "bessel_i_scaled": "bessel",
    "bessel_ratio": "bessel",
}


def __getattr__(name: str):
    """A name of ``_LAZY``, from its module on its first access (PEP 562);
    any other missing name raises AttributeError."""
    if name in _LAZY:
        from importlib import import_module
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
