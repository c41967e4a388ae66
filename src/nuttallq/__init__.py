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

* the ladder's forcing term and the quadrature kernel share the Bessel
  kernel: its argument check ``bessel._validate``,
  ``bessel._power_over_gamma``, the power series (the loop
  ``bessel._four_term_sum`` on the steps of ``bessel._series_steps``),
  Hankel's steps ``bessel._hankel_steps`` from the order's switch
  ``bessel._hankel_switch`` and, past z = 700,
  ``bessel.log_scaled_asymptotic`` with its Debye polynomials
  ``bessel._debye_polynomials``.  The nodes take them through
  ``FixedOrderSeries`` at order mu - 1, with the power series below the
  switch to Hankel's expansion, z < max(21, (4 (mu-1)^2 - 1)/16); the
  forcing term through ``bessel_i_scaled``, and through
  ``FixedOrderSeries`` in its log form;
* the ladder and the homogeneous table share one row loop, and with it
  their one series seed, their forcing terms, their ratio sweep and
  columns 0 and 1 of every row;
* both recurrences take their series values from ``nuttall.series_value``,
  and the forcing term's log takes ``incgamma.log_q_increment`` where z <=
  700.

``import nuttallq`` loads the errors and ``query``.  The series, the
incomplete gamma kernel, the recurrences, the quadrature and the Bessel
kernel load on first use: the first access to one of their names in
``__all__`` imports the module that holds it (``_LAZY``), so that a command
that never runs a route does not compile it.  ``bessel`` imports nothing
from ``incgamma``, so quadrature compiles no line of the series at any
node.
"""

from .errors import ConvergenceError, DomainError
from .query import Evaluation, MomentQuery, evaluate

__version__ = "0.1.0"

# The names not bound at import, by the module that holds them.
_LAZY = {name: module for module, names in {
    "nuttall": ("SeriesOutcome", "marcum_q", "nuttall_q_series"),
    "incgamma": ("log_q_increment",),
    "quadrature": ("QuadratureOutcome", "QuadratureSpec",
                   "moment_by_quadrature", "tanh_rule_integrate",
                   "truncation_bounds"),
    "recurrence": ("RecurrenceTable", "consistency_deviation",
                   "homogeneous_table", "nuttall_q_homogeneous",
                   "nuttall_q_ladder"),
    "bessel": ("bessel_i_scaled", "bessel_ratio"),
}.items() for name in names}

__all__ = sorted(["ConvergenceError", "DomainError", "Evaluation",
                  "MomentQuery", "evaluate", *_LAZY])


def __getattr__(name: str):
    """A name of ``_LAZY``, from its module on its first access (PEP 562);
    any other missing name raises AttributeError."""
    if name in _LAZY:
        from importlib import import_module
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
