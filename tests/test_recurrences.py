"""Tests for the inhomogeneous ladder and the homogeneous three-term route."""

import math
import random
import sys
import time
from pathlib import Path

import pytest

from nuttallq import (ConvergenceError, DomainError, MomentQuery,
                      consistency_deviation, homogeneous_table, marcum_q,
                      nuttall_q_homogeneous, nuttall_q_ladder,
                      nuttall_q_series)
from nuttallq import nuttall
from nuttallq.bessel import bessel_ratio
from oracles import bessel_ratio_by_series

# The benchmark's recurrence-tables workload fills homogeneous tables by its
# own sequence of public calls, seeded by the series; homogeneous_table takes
# its boundary from the ladder and must stay within rounding of it.
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
    assert len(table.values) == 3 and all(len(r) == 4 for r in table.values)
    assert all(v >= 0.0 and math.isfinite(v) for r in table.values for v in r)
    assert all(0.0 <= v <= 1.0 for v in table.values[0])


def _series_calls(monkeypatch, build, eta_max, n_cols):
    """The (eta, mu) of every series call build makes for one table; a
    marcum_q call fails."""
    calls = []
    series = nuttall.nuttall_q_series

    def counted(*args, **kwargs):
        calls.append(args[0])
        return series(*args, **kwargs)

    def no_marcum(*args, **kwargs):
        raise AssertionError("tables must recur row 0, not call marcum_q")

    monkeypatch.setattr(nuttall, "nuttall_q_series", counted)
    monkeypatch.setattr(nuttall, "marcum_q", no_marcum)
    build(eta_max, 0.5, n_cols, 2.0, 3.0)
    return [(q.eta, q.mu) for q in calls]


@pytest.mark.parametrize("eta_max,n_cols", [(0, 1), (0, 30), (3, 2), (3, 30)])
def test_ladder_calls_the_series_once_per_table(monkeypatch, eta_max, n_cols):
    # Rows above 0 start from the row below by the relation in eta.
    assert _series_calls(monkeypatch, nuttall_q_ladder, eta_max,
                         n_cols) == [(0.0, 0.5)]


@pytest.mark.parametrize("x,y", [(2.0, 3.0), (0.1, 20.0), (20.0, 0.1)])
@pytest.mark.parametrize("n_cols", [1, 2, 3, 30])
def test_tables_take_one_ratio_sweep(monkeypatch, n_cols, x, y):
    # Inside the box: one continued fraction per homogeneous row call, and
    # one continued fraction and one scaled Bessel value per ladder, whose
    # eta step needs T at mu_start and mu_start+1 at any n_cols.
    calls = {"bessel_ratio": 0, "bessel_i_scaled": 0}

    def counted(name):
        kernel = getattr(nuttall, name)

        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(nuttall, name, counted(name))
    prev = [marcum_q(0.5 + m, x, y) for m in range(n_cols)]
    nuttall_q_homogeneous(1, prev, _series(1.0, 0.5, x, y),
                          _series(1.0, 1.5, x, y), x, y, 0.5, n_cols)
    assert calls == {"bessel_ratio": int(n_cols > 2), "bessel_i_scaled": 0}
    calls.update(bessel_ratio=0)
    nuttall_q_ladder(3, 0.5, n_cols, x, y)
    assert calls == {"bessel_ratio": 1, "bessel_i_scaled": 1}


# Q_{0, mu0+m}(x, y) at the corners of the working box.  30-digit values
# from a 45-digit mpmath gammainc series, which agrees with mpmath.quad of
# the defining integral to 1e-45.
MARCUM_ROW0_EDGES = (
    (0.5, 0.1, 20.0, 0, 2.09089590269041223880257997724e-09),
    (0.5, 0.1, 20.0, 1, 3.01404792784771045127698314337e-08),
    (0.5, 0.1, 20.0, 12, 0.0314250746834641984953198769295),
    (0.5, 0.1, 20.0, 49, 0.999999981304244186473702916123),
    (0.5, 20.0, 0.1, 0, 0.99999999792182581993781558002),
    (0.5, 20.0, 0.1, 1, 0.999999999905230881385437800642),
    (0.5, 20.0, 0.1, 12, 1.0),
    (0.5, 20.0, 0.1, 49, 1.0),
    (0.5, 20.0, 20.0, 0, 0.5),
    (0.5, 20.0, 20.0, 1, 0.563078313050504001206178738059),
    (0.5, 20.0, 20.0, 12, 0.971158864841499429683395554045),
    (0.5, 20.0, 20.0, 49, 0.99999999999993713000623395591),
    (0.5, 0.1, 0.1, 0, 0.685546684761348780256296851844),
    (0.5, 0.1, 0.1, 1, 0.979641663001324436407443332532),
    (0.5, 0.1, 0.1, 12, 0.999999999999999999999847399423),
    (0.5, 0.1, 0.1, 49, 1.0),
    (1.0, 0.1, 20.0, 0, 8.39514499268583811323641021673e-09),
    (1.0, 0.1, 20.0, 1, 9.77228469249450665119387966612e-08),
    (1.0, 0.1, 20.0, 12, 0.0417818724305457977020835050903),
    (1.0, 0.1, 20.0, 49, 0.999999988281362204586452625471),
    (1.0, 20.0, 0.1, 0, 0.999999999535527336647645484602),
    (1.0, 20.0, 0.1, 1, 0.999999999982165846308941651389),
    (1.0, 20.0, 0.1, 12, 1.0),
    (1.0, 20.0, 0.1, 49, 1.0),
    (1.0, 20.0, 20.0, 0, 0.531639139937617665131211120176),
    (1.0, 20.0, 20.0, 1, 0.59412136901205972587886388456),
    (1.0, 20.0, 20.0, 12, 0.975954560877019034056641072466),
    (1.0, 20.0, 20.0, 49, 0.999999999999962954451750441908),
    (1.0, 0.1, 0.1, 0, 0.913469275817164650076379662355),
    (1.0, 0.1, 0.1, 1, 0.995752399345976794822671537117),
    (1.0, 0.1, 0.1, 12, 0.999999999999999999999986747965),
    (1.0, 0.1, 0.1, 49, 1.0),
)


def test_ladder_row0_matches_mpmath_marcum_at_box_edges():
    tables = {}
    for mu0, x, y, m, ref in MARCUM_ROW0_EDGES:
        if (mu0, x, y) not in tables:
            tables[mu0, x, y] = nuttall_q_ladder(0, mu0, 50, x, y)
        got = tables[mu0, x, y].entry(0, m)
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0), (mu0, x, y, m)


def test_ladder_row0_stays_in_unit_interval():
    # Recurred without a clip, this row reaches 1.0000000000000058.
    row0 = nuttall_q_ladder(0, 1.0, 200, 1e-6, 30.0).values[0]
    assert all(0.0 <= v <= 1.0 for v in row0)


# Q_{e, mu0+m}(x, y) at the corners of the benchmark's table box, up to eta
# = 50, where the first column of every row above 0 is stepped up in eta.
# 40-digit values from a 70-digit mpmath gammainc series, which agrees with
# the same series at 50 digits to 1e-40.
ETA_STEP_EDGES = (
    (0.5, 0.1, 0.1, 50, 0, 1.019607013191799396706968975358797989779e+65),
    (0.5, 0.1, 0.1, 7, 3, 413892.3179616000035637132017892639932505),
    (0.5, 0.1, 20.0, 50, 0, 1.019607011806700555805229214248581449571e+65),
    (0.5, 0.1, 20.0, 25, 1, 304896207378026765361145715.3697059202177),
    (0.5, 20.0, 0.1, 50, 2, 2.406616762938205199481210032479949266731e+87),
    (0.5, 20.0, 0.1, 1, 0, 20.49999999989015576507255200151480199307),
    (0.5, 20.0, 20.0, 50, 0, 5.195712123950548784075794037285052449532e+86),
    (0.5, 20.0, 20.0, 12, 5, 2589706424896545969.693248717008908964625),
    (1.0, 0.1, 0.1, 50, 1, 1.021115959629210975884959527448459833877e+67),
    (1.0, 0.1, 20.0, 50, 0, 5.034142506287291470724377356882718393248e+65),
    (1.0, 20.0, 0.1, 33, 0, 2.27064968375660338809956606394750138866e+54),
    (1.0, 20.0, 20.0, 50, 4, 1.563272125114017821446160778161099626588e+88),
)


def test_ladder_eta_step_matches_mpmath_at_box_corners():
    tables = {}
    for mu0, x, y, e, m, ref in ETA_STEP_EDGES:
        if (mu0, x, y) not in tables:
            tables[mu0, x, y] = nuttall_q_ladder(50, mu0, 6, x, y)
        got = tables[mu0, x, y].entry(e, m)
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0), (mu0, x, y, e, m)


def test_ladder_eta_step_falls_back_to_the_series(monkeypatch):
    # y^e overflows from e = 103 on, so the step to row 104, which needs
    # y^103, leaves the normal range; that row's first entry is the series.
    calls = []
    series = nuttall.nuttall_q_series

    def counted(q):
        calls.append(q.eta)
        return series(q)

    monkeypatch.setattr(nuttall, "nuttall_q_series", counted)
    table = nuttall_q_ladder(104, 1.0, 6, 100.0, 1000.0)
    assert calls == [0.0, 104.0]
    assert table.entry(104, 0) == _series(104.0, 1.0, 100.0, 1000.0)
    assert all(math.isfinite(v) for row in table.values for v in row)


# Q_{e, mu0+m}(x, y) far outside the working box, where Itilde_mu(2 sqrt(xy))
# underflows to 0.0 or to a subnormal.  30-digit values from a 45-digit
# mpmath gammainc series, which agrees with itself at 70 digits to 1e-45.
UNDERFLOWED_FORCING = (
    (60.0, 1e-06, 200.0, 0, 0, 8.13578960895368881447404218287e-32),
    (60.0, 1e-06, 200.0, 0, 30, 9.2844665119235182779152591031e-19),
    (60.0, 1e-06, 200.0, 0, 35, 4.7181739699260617929102153087e-17),
    (60.0, 1e-06, 200.0, 0, 59, 2.35525090905362659475833636506e-10),
    (60.0, 1e-06, 200.0, 1, 0, 1.63863190798265076732284643441e-29),
    (60.0, 1e-06, 200.0, 1, 30, 1.87339439114543928707609176636e-16),
    (60.0, 1e-06, 200.0, 1, 35, 9.52397553697785643481217502023e-15),
    (60.0, 1e-06, 200.0, 1, 59, 4.76614397678014331626534450748e-08),
    (100.0, 1e-12, 400.0, 0, 0, 1.09437470873799596273631856143e-72),
    (100.0, 1e-12, 400.0, 0, 30, 2.62744102928574880256091544117e-56),
    (100.0, 1e-12, 400.0, 0, 35, 6.84095920795281685818410465077e-54),
    (100.0, 1e-12, 400.0, 0, 59, 2.27424274423771654331457159327e-43),
    (100.0, 1e-12, 400.0, 1, 0, 4.39201071758877263693849105697e-70),
    (100.0, 1e-12, 400.0, 1, 30, 1.05484119244250569840005422541e-53),
    (100.0, 1e-12, 400.0, 1, 35, 2.74663266062790768242169811074e-51),
    (100.0, 1e-12, 400.0, 1, 59, 9.1343639952394757365413296829e-41),
)


def test_ladder_forcing_term_survives_bessel_underflow():
    tables = {}
    for mu0, x, y, e, m, ref in UNDERFLOWED_FORCING:
        if (mu0, x, y) not in tables:
            tables[mu0, x, y] = nuttall_q_ladder(1, mu0, 60, x, y)
        got = tables[mu0, x, y].entry(e, m)
        assert got == pytest.approx(ref, rel=1e-10, abs=0.0), (mu0, x, y, e, m)
    assert consistency_deviation(MomentQuery(1, 118, 1e-6, 200)) <= 1e-12


@pytest.mark.parametrize("eta_max,mu0,x,y,ref", [
    # z = 2 sqrt(xy) = 2191 and 1549, past the power series; the values are
    # from perfbench/reference.py, a 40-digit mpmath gammainc series.
    (40, 1.0, 1000.0, 1200.0, 2.7971741986662927e118),
    (5, 20.0, 600.0, 1000.0, 7.623944383036999e-07),
])
def test_ladder_forcing_term_past_z_700(eta_max, mu0, x, y, ref):
    got = nuttall_q_ladder(eta_max, mu0, 3, x, y).entry(eta_max, 2)
    assert got == pytest.approx(ref, rel=2e-13, abs=0.0)


@pytest.mark.parametrize("x,y,ref", [
    # T_1 = (y/x)^{1/2} e^{-x-y} I_1(2 sqrt(xy)) from mpmath.besseli at 40
    # digits; its exponent -(sqrt x - sqrt y)^2 is -467.
    (100.0, 1000.0, 4.44789859038405777680606016951e-205),
    (1000.0, 100.0, 4.44789859038405777680606016951e-206),
])
def test_forcing_term_at_a_large_exponent(x, y, ref):
    # A plain exp of the rounded exponent is 6.7e-14 off here.
    got = nuttall._inhom_term(0, 1.0, x, y)
    assert got == pytest.approx(ref, rel=2e-14, abs=0.0)


# Q_{e, 1+m}(100, 1000), which the forcing term dominates, from
# perfbench/reference.py (a 40-digit mpmath gammainc series).
LARGE_EXPONENT_TABLE = (
    (2.0572265468543414e-205, 6.505125137238399e-205, 2.053726945216656e-204),
    (2.0602320703538943e-202, 6.514635785875191e-202, 2.0567317370255518e-201),
    (2.063246372811427e-199, 6.524174234767235e-199, 2.0597453184435906e-198),
)


@pytest.mark.parametrize("build", [nuttall_q_ladder, homogeneous_table])
def test_tables_at_a_large_forcing_exponent(build):
    table = build(2, 1.0, 3, 100.0, 1000.0)
    for e, row in enumerate(LARGE_EXPONENT_TABLE):
        for m, ref in enumerate(row):
            assert table.entry(e, m) == pytest.approx(
                ref, rel=2e-14, abs=0.0), (e, m)


# Ladder entries Q_{e, mu0+m}(x, y) where the carried forcing term must be
# seeded again from its closed form, keyed by (eta_max, mu0, n_cols, x, y):
# - at (800, 30) the eta = 0 forcing falls below 1e-300 at column 94 and
#   stays there (the entries are the full moments to 30 digits);
# - at (1e-3, 735) it starts subnormal and climbs out by column 9; rows
#   below 5 hold subnormal values and are not checked;
# - at (100, 1000), y^e overflows from e = 103 on.
# 30-digit values from a 45-digit mpmath gammainc series, which agrees with
# itself at 60 digits to 2e-40.
FORCING_RESEEDS = {
    (2, 1.0, 120, 800.0, 30.0): (
        (0, 93, 1.0),
        (0, 95, 1.0),
        (1, 94, 895.0),
        (2, 93, 800930.0),
        (2, 95, 804512.0),
        (2, 119, 848120.0),
    ),
    (8, 0.5, 12, 1e-3, 735.0): (
        (5, 1, 6.43886053571376426493559564876e-304),
        (5, 6, 3.05471772620732208436281187946e-292),
        (6, 4, 1.07859759240240903585098531331e-293),
        (8, 3, 2.9046833567582113513901880153e-290),
        (8, 11, 6.06306214205065501569869929452e-274),
    ),
    (104, 1.0, 6, 100.0, 1000.0): (
        (100, 5, 7.49922584756401398140503116074e+97),
        (102, 5, 7.52502277810460655188192699416e+103),
        (103, 1, 7.65598455962651315432529065285e+104),
        (103, 5, 7.53798774758261801123117488361e+106),
        (104, 5, 7.55099735776243846634010269109e+109),
    ),
}


@pytest.mark.parametrize("key", sorted(FORCING_RESEEDS))
def test_ladder_reseeds_its_forcing_term(key):
    table = nuttall_q_ladder(*key)
    for e, m, ref in FORCING_RESEEDS[key]:
        assert table.entry(e, m) == pytest.approx(ref, rel=1e-12, abs=0.0), (e, m)


# Q_{e, 6}(x, y) at subnormal x, where y/x overflows and x y underflows.
# There the values depend on x by less than 1e-300 relative, so one 30-digit
# value per (y, e) holds at every x; from a 50-digit mpmath gammainc series,
# which agrees with itself to 40 digits across the three x.
SUBNORMAL_X_ROWS = {
    0.1: (0.999999998725101307770208115019, 5.99999999989091966358758093605,
          41.9999999999904688268096998188),
    1.0: (0.999405815182418307001172908939, 5.99950055310427186135366681838,
          41.9995695337396650488222970934),
    20.0: (7.19088405284289259827997393361e-05,
           0.00153073497513780439747863330543,
           0.0327007834653092476139871305264),
}


@pytest.mark.parametrize("y", sorted(SUBNORMAL_X_ROWS))
@pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-310])
@pytest.mark.parametrize("build", [nuttall_q_ladder, homogeneous_table])
def test_tables_at_subnormal_x(build, x, y):
    table = build(2, 1.0, 6, x, y)
    for e, ref in enumerate(SUBNORMAL_X_ROWS[y]):
        assert table.entry(e, 5) == pytest.approx(ref, rel=1e-12, abs=0.0), e


def test_consistency_at_subnormal_x():
    # x y is subnormal and y/x overflows.
    assert consistency_deviation(MomentQuery(2, 3, 1e-320, 0.1)) <= 1e-14


def test_ladder_at_x_zero_matches_the_series():
    table = nuttall_q_ladder(2, 1.0, 5, 0.0, 3.0)
    for e in range(3):
        for m in range(5):
            ref = _series(float(e), 1.0 + m, 0.0, 3.0)
            assert table.entry(e, m) == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("mu0", [0.5, 1.0])
@pytest.mark.parametrize("y", [0.0, 1e-3, 0.1, 1.5, 5.0, 20.0])
def test_tables_at_x_zero_match_the_series(mu0, y):
    # At x = 0 the forcing term and the coefficient take their limits
    # y^mu e^{-y}/Gamma(mu+1) and y/(mu+1); both tables match Gamma(eta+mu,
    # y)/Gamma(mu) from the series' one-term x = 0 branch.
    for eta_max, n_cols in ((0, 50), (1, 1), (3, 2), (17, 50), (50, 50)):
        tables = [build(eta_max, mu0, n_cols, 0.0, y)
                  for build in (nuttall_q_ladder, homogeneous_table)]
        for e in range(eta_max + 1):
            for m in range(n_cols):
                ref = _series(float(e), mu0 + m, 0.0, y)
                for table in tables:
                    assert table.entry(e, m) == pytest.approx(
                        ref, rel=1e-13, abs=0.0), (e, m)


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
        nuttall_q_homogeneous(1, prev, 1.0, 1.0, 1.0, 1.0, 1.0, 4)
    with pytest.raises(DomainError):
        nuttall_q_homogeneous(1.5, prev, 1.0, 1.0, 1.0, 1.0, 1.0, 3)


@pytest.mark.parametrize("n_cols", [2.5, math.nan])
@pytest.mark.parametrize("build", [
    lambda n: nuttall_q_ladder(1, 1.0, n, 1.0, 1.0),
    lambda n: homogeneous_table(1, 1.0, n, 1.0, 1.0),
    lambda n: nuttall_q_homogeneous(1, [1.0, 1.0, 1.0], 1.0, 1.0, 1.0, 1.0,
                                    1.0, n),
], ids=["ladder", "homogeneous_table", "nuttall_q_homogeneous"])
def test_builders_reject_non_integer_n_cols(build, n_cols):
    with pytest.raises(DomainError, match="n_cols must be an integer"):
        build(n_cols)


@pytest.mark.parametrize("build", [nuttall_q_ladder, homogeneous_table],
                         ids=["ladder", "homogeneous_table"])
@pytest.mark.parametrize("eta_max,n_cols", [(1, 10**9), (0, 10**400),
                                            (10**400, 3)],
                         ids=["1e9-columns", "1e400-columns", "1e400-rows"])
def test_builders_refuse_tables_past_the_entry_limit(monkeypatch, build,
                                                     eta_max, n_cols):
    # Refused by the count (eta_max + 1) * n_cols before anything is built:
    # a 10^9-column ladder would first ask for about 8 GB of Bessel ratios.
    # Ints past the double range are counted as ints, not overflowing float().
    def sweep(*args):
        raise AssertionError("table built past the entry limit")

    monkeypatch.setattr(nuttall, "_ratio_sweep", sweep)
    with pytest.raises(DomainError, match=(
            rf"needs \(eta \+ 1\) \* n_cols = {(eta_max + 1) * n_cols} "
            rf"entries, over the limit of {nuttall.MAX_TABLE_ENTRIES}$")):
        build(eta_max, 1.0, n_cols, 1.0, 1.0)


def test_builders_accept_integral_float_n_cols():
    for build in (nuttall_q_ladder, homogeneous_table):
        table = build(2, 1.0, 3.0, 1.0, 1.0)
        assert table.n_cols == 3 and isinstance(table.n_cols, int)
        assert table == build(2, 1.0, 3, 1.0, 1.0)


def test_homogeneous_table_tiny_bessel_ratios():
    # At x = 1e-50 the coefficients c are ~1e-50 / mu: tiny Bessel ratios
    # that must keep full precision (a 1e-30 Lentz floor put the table 3.7e-5
    # off the series here).
    x, y = 1e-50, 5.0
    table = homogeneous_table(3, 1.0, 12, x, y)
    for e in range(4):
        for m in range(12):
            assert table.entry(e, m) == pytest.approx(
                _series(float(e), 1.0 + m, x, y), rel=1e-14, abs=0.0), (e, m)


def test_ratio_sweep_matches_per_order_ratios_and_series_oracle():
    # Runs of 1 to 200 orders from seeded starts in [0.5, 250], at z from
    # the subnormal-x value 2 sqrt(5e-324) and the tiny-ratio z of the test
    # above up to 1e3.  Over seeds 1960-1974 the sweep was at worst 3.8e-15
    # from bessel_ratio and 9.6e-15 from the series quotient, whose own
    # error reaches 9.4e-15 at z = 300 (against mpmath); that quotient
    # overflows past z ~ 700.
    rng = random.Random(1967)
    zs = [2.0 * math.sqrt(5e-324), 1e-50, 2.0 * math.sqrt(5e-50), 1e-3, 0.5,
          7.0, 40.0, 300.0, 1e3]
    zs += [10.0 ** rng.uniform(-50.0, 3.0) for _ in range(12)]
    for z in zs:
        for n in (1, 2, 37, 200):
            mu0 = rng.uniform(0.5, 251.0 - n)
            # At x = y the coefficient sqrt(y/x) r is the ratio r itself.
            ratios = nuttall._ratio_sweep(mu0, n, 0.5 * z, 0.5 * z)
            for k, r in enumerate(ratios):
                order = mu0 + k
                assert r == pytest.approx(bessel_ratio(order, z), rel=5e-15,
                                          abs=0.0), (order, z)
                if z <= 700.0:
                    assert r == pytest.approx(
                        bessel_ratio_by_series(order, z), rel=1.5e-14,
                        abs=0.0), (order, z)


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
        # series value at the entry homogeneous_table takes from the ladder.
        ref = _table(TableOp("homogeneous", 3, mu0, 2, x, y))[0::2]
    else:
        ref = _table(TableOp("homogeneous", 3, mu0, n_cols, x, y))
    assert len(flat) == len(ref)
    for got, want in zip(flat, ref):
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


# Q_{e, 0.5+m}(19.91931383888671, 17.761621903536163), e = 0, 1, m = 0..15:
# the doubles nearest the 40-digit values of perfbench/reference.py.
STOP_RULE_ROWS = (
    (0.6374484649151156, 0.6968648762481799, 0.7514796084367901,
     0.8003472422595802, 0.8429128218672859, 0.8790078858072027,
     0.9088084074601356, 0.9327652572318397, 0.9515202242770469,
     0.9658204284462126, 0.9764416225166289, 0.9841273027145215,
     0.9895466656523251, 0.9932710646231818, 0.9957662152456178,
     0.9973961324806185),
    (15.317390602100206, 17.069587311311256, 18.791113143245024,
     20.45942882078546, 22.058375373749683, 23.578490137841648,
     25.016604143429323, 26.374881908305987, 27.659520766053284,
     28.879336014095593, 30.044427269855035, 31.165064718316017,
     32.250868059427646, 33.31029049038911, 34.3503746275828,
     35.37672073372556),
)


def test_row_fills_where_the_series_stop_rule_shows():
    # The benchmark's series-seeded row fill takes 32 series values here,
    # where a looser series stop shows: a stop on the last quiet term of
    # blocks n = 1-4, 5-8, ... leaves the fill 2.07e-14 off, and the rule
    # of three quiet terms per block 6.2e-15.
    x, y = 19.91931383888671, 17.761621903536163
    fill = _table(TableOp("homogeneous", 1, 0.5, 16, x, y))
    tables = (homogeneous_table(1, 0.5, 16, x, y).values,
              nuttall_q_ladder(1, 0.5, 16, x, y).values,
              (fill[:16], fill[16:]))
    for rows in tables:
        for e, row in enumerate(STOP_RULE_ROWS):
            for m, ref in enumerate(row):
                assert rows[e][m] == pytest.approx(ref, rel=1e-14,
                                                   abs=0.0), (e, m)


def test_wide_ladder_stays_fast_once_its_forcing_term_underflows():
    # Past mu ~ 250 at (3, 5) the forcing term is below 1e-300, so every
    # column seeds it again from a scaled Bessel value; that value's
    # prefactor stops its product once it underflows to 0.0, and does not
    # run on through all mu factors.
    start = time.perf_counter()
    ladder = nuttall_q_ladder(0, 1.0, 10_000, 3.0, 5.0)
    assert time.perf_counter() - start < 5.0
    table = homogeneous_table(0, 1.0, 10_000, 3.0, 5.0)
    for got, want in zip(ladder.values[0], table.values[0]):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_homogeneous_table_makes_one_ratio_sweep(monkeypatch):
    # The coefficients depend on the column alone, so the six recurred rows
    # share one continued fraction at the top order; the ladder that builds
    # the boundary takes one more, at any eta_max.
    calls = []

    def counting(order, z):
        calls.append((order, z))
        return bessel_ratio(order, z)

    monkeypatch.setattr(nuttall, "bessel_ratio", counting)
    for eta_max in (1, 5, 20):
        calls.clear()
        homogeneous_table(eta_max, 0.5, 12, 3.0, 7.0)
        assert len(calls) == 2, eta_max


@pytest.mark.parametrize("eta_max,n_cols", [(0, 1), (0, 30), (3, 1), (3, 2),
                                            (3, 30)])
def test_homogeneous_table_calls_the_series_once_per_table(
        monkeypatch, eta_max, n_cols):
    # The boundary comes from the ladder, which calls the series once.
    assert _series_calls(monkeypatch, homogeneous_table, eta_max,
                         n_cols) == [(0.0, 0.5)]


def test_homogeneous_table_seed_tag_and_shape():
    table = homogeneous_table(2, 1.5, 4, 1.0, 2.0)
    assert (table.eta_max, table.mu_start, table.n_cols) == (2, 1.5, 4)
    # Row 0 recurs from the ladder's first two entries; it matches one
    # marcum_q per column, as the ladder's row 0 does.
    marcum_row = tuple(marcum_q(1.5 + m, 1.0, 2.0) for m in range(4))
    assert table.values[0] == pytest.approx(marcum_row, rel=1e-14, abs=0.0)
    assert nuttall_q_ladder(2, 1.5, 4, 1.0, 2.0).values[0] == pytest.approx(
        marcum_row, rel=1e-14, abs=0.0)


def test_homogeneous_table_validation():
    with pytest.raises(DomainError):
        homogeneous_table(-1, 1.0, 5, 1.0, 1.0)
    with pytest.raises(DomainError):
        homogeneous_table(1, 1.0, 0, 1.0, 1.0)
    with pytest.raises(DomainError):
        homogeneous_table(1.5, 1.0, 5, 1.0, 1.0)
    with pytest.raises(DomainError):
        homogeneous_table(1, 0.0, 5, 1.0, 1.0)


def test_homogeneous_table_seed_non_convergence_raises(monkeypatch):
    # The table's one series call is the Marcum seed Q_{0,1}(9, 3), which
    # takes 44 terms; the eta = 1 series, which takes 48, is not called.
    monkeypatch.setattr(nuttall, "_MAX_TERMS", 44)
    homogeneous_table(1, 1.0, 3, 9.0, 3.0)
    monkeypatch.setattr(nuttall, "_MAX_TERMS", 43)
    with pytest.raises(ConvergenceError):
        marcum_q(1.0, 9.0, 3.0)
    with pytest.raises(ConvergenceError):
        homogeneous_table(1, 1.0, 3, 9.0, 3.0)


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
