#!/usr/bin/env python3
"""Regenerate the golden reference tables and report deviations.

Table 1: nine moment values computed by the series expansion, compared
against the stored double-precision and 50-digit reference columns.
Table 2: relative error of the homogeneous recurrence against the series
at (eta=2, x=2, y=3) for N = 10 ... 60.

Usage: python scripts/reproduce_tables.py
"""

from nuttallq import (MomentQuery, homogeneous_table, moment_by_quadrature,
                      nuttall_q_series)
from nuttallq.cli import TABLE1


def main() -> None:
    print("table 1: series vs stored references (and the quadrature route)")
    print(f"{'eta':>4} {'mu':>4} {'x':>5} {'y':>5} {'value':>24} "
          f"{'vs_dp':>10} {'vs_ref':>10} {'vs_quad':>10}")
    for eta, mu, x, y, v_dp, v_ref in TABLE1:
        q = MomentQuery(eta, mu, x, y)
        s = nuttall_q_series(q).value
        quad = moment_by_quadrature(q)
        print(f"{eta:4.0f} {mu:4.0f} {x:5.2f} {y:5.2f} {s:24.17g} "
              f"{abs(s / v_dp - 1):10.2e} {abs(s / v_ref - 1):10.2e} "
              f"{abs(s / quad - 1):10.2e}")

    print()
    print("table 2: homogeneous recurrence vs series at eta=2, x=2, y=3")
    x, y = 2.0, 3.0
    row = homogeneous_table(2, 1.0, 60, x, y).values[2]
    print(f"{'N':>4} {'Q_rec':>24} {'E_r':>10}")
    for n in (10, 20, 30, 40, 50, 60):
        series = nuttall_q_series(MomentQuery(2.0, float(n), x, y)).value
        print(f"{n:4d} {row[n - 1]:24.17g} {abs(1 - series / row[n - 1]):10.2e}")


if __name__ == "__main__":
    main()
