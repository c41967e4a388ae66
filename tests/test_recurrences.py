"""Tests for the inhomogeneous ladder and the homogeneous three-term route."""

import math
import sys
from pathlib import Path

import pytest

from nuttallq import (ConvergenceError, DomainError, MomentQuery,
                      homogeneous_table, marcum_q, nuttall_q_homogeneous,
                      nuttall_q_ladder, nuttall_q_series)

# The benchmark's recurrence-tables workload fills homogeneous tables by its
# own sequence of public calls; homogeneous_table must reproduce it exactly.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import TableOp, _table  # noqa: E402


def _series(eta, mu, x, y):
    out = nuttall_q_series(MomentQuery(eta, mu, x, y))
    assert out.converged
    return out.value


def test_ladder_y_zero_eta0_row_exact():
    table = nuttall_q_ladder(0, 2.0, 6, 3.0, 0.0)
    assert table.values[0] == (1.0,) * 6


def test_ladder_y_zero_recurrence_identity():
    # Forcing term vanishes; each entry is the previous plus eta * row below.
    table = nuttall_q_ladder(2, 1.0, 5, 3.0, 0.0)
    for e in (1, 2):
        for m in range(1, 5):
            assert table.values[e][m] == pytest.approx(
                table.values[e][m - 1] + e * table.values[e - 1][m], rel=1e-15, abs=0.0)


def test_ladder_matches_series_reference_point():
    table = nuttall_q_ladder(2, 1.0, 10, 2.0, 3.0)
    assert table.entry(2, 9) == pytest.approx(_series(2.0, 10.0, 2.0, 3.0),
                                              rel=1e-13, abs=0.0)


def test_ladder_matches_series_along_rows():
    table = nuttall_q_ladder(3, 1.0, 25, 1.2, 5.0)
    for e in range(4):
        for m in (0, 4, 12, 24):
            ref = _series(float(e), 1.0 + m, 1.2, 5.0)
            assert table.entry(e, m) == pytest.approx(ref, rel=1e-12, abs=0.0), (e, m)


def test_ladder_seed_tag_and_shape():
    table = nuttall_q_ladder(2, 1.5, 4, 1.0, 2.0)
    assert table.eta_max == 2 and table.n_cols == 4
    assert table.mu_start == 1.5
    assert table.seed_method == "row0:marcum_q,col0:series"
    assert len(table.values) == 3 and all(len(r) == 4 for r in table.values)
    assert all(v >= 0.0 and math.isfinite(v) for r in table.values for v in r)
    assert all(0.0 <= v <= 1.0 for v in table.values[0])


def test_ladder_rejects_x_zero():
    with pytest.raises(DomainError):
        nuttall_q_ladder(2, 1.0, 5, 0.0, 3.0)


def test_ladder_rejects_bad_dimensions():
    with pytest.raises(DomainError):
        nuttall_q_ladder(-1, 1.0, 5, 1.0, 1.0)
    with pytest.raises(DomainError):
        nuttall_q_ladder(1, 1.0, 0, 1.0, 1.0)
    with pytest.raises(DomainError):
        nuttall_q_ladder(1, 0.0, 5, 1.0, 1.0)


def test_homogeneous_reference_errors():
    # eta=2, x=2, y=3: recurrence vs series at N = 10 ... 60.
    row2 = homogeneous_table(2, 1.0, 60, 2.0, 3.0).values[2]
    for n in (10, 20, 30, 40, 50, 60):
        e_r = abs(1.0 - _series(2.0, float(n), 2.0, 3.0) / row2[n - 1])
        assert e_r <= 1e-13, (n, e_r)


def test_homogeneous_y_zero_degenerates():
    # c = 0, so Q_{eta,mu+2} = Q_{eta,mu+1} + eta Q_{eta-1,mu+2}.
    row1 = homogeneous_table(1, 1.0, 10, 3.0, 0.0).values[1]
    for m in range(10):
        ref = _series(1.0, 1.0 + m, 3.0, 0.0)
        assert row1[m] == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_homogeneous_validation():
    prev = [1.0, 1.0, 1.0]
    with pytest.raises(DomainError):
        nuttall_q_homogeneous(0, prev, 1.0, 1.0, 1.0, 1.0, 1.0, 3)
    with pytest.raises(DomainError):
        nuttall_q_homogeneous(1, prev, 1.0, 1.0, 0.0, 1.0, 1.0, 3)
    with pytest.raises(DomainError):
        nuttall_q_homogeneous(1, prev, 1.0, 1.0, 1.0, 1.0, 1.0, 4)
    with pytest.raises(DomainError):
        nuttall_q_homogeneous(1.5, prev, 1.0, 1.0, 1.0, 1.0, 1.0, 3)


def test_homogeneous_short_rows():
    prev = [1.0]
    assert nuttall_q_homogeneous(1, prev, 0.25, 0.0, 1.0, 1.0, 1.0, 1) == [0.25]


@pytest.mark.parametrize("mu0", [0.5, 1.0])
@pytest.mark.parametrize("n_cols", [1, 2, 37])
@pytest.mark.parametrize("x,y", [(0.1, 1.5), (2.0, 3.0), (17.3, 0.4)])
def test_homogeneous_table_matches_benchmark_sequence(mu0, n_cols, x, y):
    table = homogeneous_table(3, mu0, n_cols, x, y)
    flat = [v for row in table.values for v in row]
    if n_cols == 1:
        # The benchmark always seeds two columns; its first column is the
        # same series value homogeneous_table seeds alone.
        ref = _table(TableOp("homogeneous", 3, mu0, 2, x, y))[0::2]
    else:
        ref = _table(TableOp("homogeneous", 3, mu0, n_cols, x, y))
    assert flat == ref


def test_homogeneous_table_seed_tag_and_shape():
    table = homogeneous_table(2, 1.5, 4, 1.0, 2.0)
    assert (table.eta_max, table.mu_start, table.n_cols) == (2, 1.5, 4)
    assert table.seed_method == "row0:marcum_q,col0-1:series"
    assert table.values[0] == nuttall_q_ladder(2, 1.5, 4, 1.0, 2.0).values[0]
    assert homogeneous_table(0, 1.0, 3, 1.0, 2.0).values == (
        nuttall_q_ladder(0, 1.0, 3, 1.0, 2.0).values)


def test_homogeneous_table_validation():
    with pytest.raises(DomainError):
        homogeneous_table(-1, 1.0, 5, 1.0, 1.0)
    with pytest.raises(DomainError):
        homogeneous_table(1, 1.0, 0, 1.0, 1.0)
    with pytest.raises(DomainError):
        homogeneous_table(1.5, 1.0, 5, 1.0, 1.0)
    with pytest.raises(DomainError):
        homogeneous_table(1, 0.0, 5, 1.0, 1.0)
    with pytest.raises(DomainError):
        homogeneous_table(1, 1.0, 5, 0.0, 1.0)


def test_homogeneous_table_seed_non_convergence_raises():
    # 46 terms converge the Marcum row 0 but not the eta = 1 seed.
    for m in range(3):
        marcum_q(1.0 + m, 10.0, 3.0, max_terms=46)
    with pytest.raises(ConvergenceError):
        homogeneous_table(1, 1.0, 3, 10.0, 3.0, max_terms=46)


def test_three_method_agreement_region_grid():
    # Pairwise series/ladder/homogeneous agreement across the working region.
    etas = list(range(2, 48, 5))          # 2, 7, ..., 47
    mu_cols = list(range(0, 46, 5))       # mu = 2, 7, ..., 47 with mu_start=2
    mu_start = 2.0
    n_cols = 46
    eta_top = max(etas)
    for x in (0.1, 5.0, 10.0, 15.0, 20.0):
        for y in (0.1, 5.0, 10.0, 15.0, 20.0):
            table = nuttall_q_ladder(eta_top, mu_start, n_cols, x, y)
            hom_table = homogeneous_table(eta_top, mu_start, n_cols, x, y)
            for eta in etas:
                for m in mu_cols:
                    s = _series(float(eta), mu_start + m, x, y)
                    lad = table.entry(eta, m)
                    hom = hom_table.entry(eta, m)
                    assert lad == pytest.approx(s, rel=1e-12, abs=0.0), (eta, m, x, y)
                    assert hom == pytest.approx(s, rel=1e-12, abs=0.0), (eta, m, x, y)
                    assert hom == pytest.approx(lad, rel=1e-12, abs=0.0), (eta, m, x, y)
