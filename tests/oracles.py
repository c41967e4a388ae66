"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the library's own incremental tricks:
Bessel terms come from per-term lgamma calls, incomplete gamma ratios from
closed forms at integer and half-integer shapes, and gamma ratios from exact
big-integer arithmetic.  Agreement between these and the package therefore
checks two genuinely different computations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import fsum


def maclaurin_bessel_i(order: float, z: float, n_terms: int = 200) -> float:
    """Partial sum of the Maclaurin series for I_order(z), term by term.

    Each term is exponentiated from scratch (lgamma per term), so no state
    is shared with the package's recurrence-based accumulation.
    """
    if z == 0.0:
        return 1.0 if order == 0.0 else 0.0
    lh = math.log(0.5 * z)
    terms = [
        math.exp((2 * n + order) * lh - math.lgamma(n + 1.0)
                 - math.lgamma(order + n + 1.0))
        for n in range(n_terms)
    ]
    return fsum(terms)


def hyp_sum(order: float, z: float) -> float:
    """sum_n (z^2/4)^n / (n! (order+1)_n): the series with prefactor removed."""
    q = z * z / 4.0
    term = 1.0
    total = 1.0
    n = 0
    while True:
        n += 1
        term *= q / (n * (order + n))
        total += term
        if term < total * 1e-18:
            return total


def bessel_ratio_by_series(order: float, z: float) -> float:
    """I_{order+1}(z)/I_order(z) as a quotient of independently summed series.

    The common power/gamma prefactor cancels exactly to (z/2)/(order+1), so
    no large logarithms pollute the quotient.
    """
    if z == 0.0:
        return 0.0
    return (0.5 * z / (order + 1.0)) * hyp_sum(order + 1.0, z) / hyp_sum(order, z)


def gamma_q_integer(k: int, y: float) -> float:
    """Q_k(y) = e^{-y} sum_{j<k} y^j/j! for integer shape k >= 1."""
    total = 0.0
    term = 1.0
    for j in range(k):
        if j > 0:
            term *= y / j
        total += term
    return math.exp(-y) * total


def gamma_q_half_integer(k: int, y: float) -> float:
    """Q_{k+1/2}(y) built from erfc(sqrt y) by explicit forward recurrence.

    Gamma at half-integers is computed as an exact rational multiple of
    sqrt(pi), so the chain shares nothing with the package's prefactor
    machinery.
    """
    q = math.erfc(math.sqrt(y))
    gamma_frac = Fraction(1)  # Gamma(n + 1/2) = gamma_frac * sqrt(pi)
    for n in range(k):
        a = n + 0.5
        gamma_next = gamma_frac * Fraction(2 * n + 1, 2)  # Gamma(a + 1)
        q = q + y**a * math.exp(-y) / (float(gamma_next) * math.sqrt(math.pi))
        gamma_frac = gamma_next
    return q


def rising_product_int(eta: int, base: int) -> int:
    """base (base+1) ... (base+eta-1) in exact integer arithmetic."""
    out = 1
    for k in range(eta):
        out *= base + k
    return out


def naive_integrand(eta: float, mu: float, x: float, y_t: float) -> float:
    """Unscaled integrand x^{(1-mu)/2} t^{eta+(mu-1)/2} e^{-t-x} I_{mu-1}(...).

    Only usable where nothing overflows; serves as the cross-check for the
    scaled form at benign points.
    """
    t = y_t
    return (x ** (0.5 * (1.0 - mu))
            * t ** (eta + 0.5 * (mu - 1.0))
            * math.exp(-t - x)
            * maclaurin_bessel_i(mu - 1.0, 2.0 * math.sqrt(x * t)))


# Q_mu(x, y) = marcum_q(mu, x, y) from scipy 1.17.1, as the survival function
# of the non-central chi-square with 2 mu degrees of freedom and
# non-centrality 2 x at 2 y.  Rows are (mu, x, y, value); made once by
#
#     rng = random.Random(2013)
#     points = []
#     for _ in range(16):
#         mu = rng.uniform(1.0, 200.0)
#         x = rng.uniform(0.0, 1500.0)
#         m, sd = x + mu, math.sqrt(mu + 2.0 * x)
#         y = min(1500.0, max(0.0, m + rng.uniform(-4.0, 12.0) * sd))
#         points.append((mu, x, y))
#     points += [(200.0, 1500.0, 1500.0), (1.0, 1500.0, 1400.0),
#                (200.0, 0.0, 150.0), (1.0, 0.0, 30.0)]
#     rows = [(mu, x, y, float(scipy.stats.ncx2.sf(2 * y, 2 * mu, 2 * x)))
#             for mu, x, y in points]
#
# so y runs from 4 standard deviations below the mean x + mu to 12 above.
NCX2_SF_POINTS = [
    (85.61031031482601, 77.86025691609471, 201.19925241379636,
     0.010518912984838702),
    (180.22282718518625, 1133.5204151308526, 1423.5379946309617,
     0.014535367649186419),
    (103.08574416109397, 614.3972884979383, 895.0599027501498,
     2.138331316499448e-06),
    (113.47523157742509, 1148.9723801842406, 1500.0,
     1.804062788199814e-06),
    (12.050594059809875, 590.676553358608, 509.3301152025412,
     0.9974691743654439),
    (165.18025996881596, 1051.2766741143453, 1450.8586202531158,
     1.2637658715077387e-06),
    (188.97709767878874, 1045.7199958172248, 1500.0,
     6.390384586299803e-08),
    (100.30135292669969, 414.8541915510555, 482.1372736700663,
     0.8612218931473603),
    (167.2862211492069, 876.3223025191847, 1378.231397568729,
     6.676917997855198e-13),
    (44.27346801671906, 190.80255470620656, 261.9216978957343,
     0.09917183526557839),
    (78.59198494325615, 1198.3726584001645, 1500.0,
     8.215332744403838e-06),
    (128.77677941230525, 1149.7608615197462, 1272.839238183533,
     0.5421267917524331),
    (184.6192305273219, 1313.3525281774164, 1297.5753418571167,
     0.9999541671489278),
    (50.41822172574177, 780.2831253009509, 775.9793828740144,
     0.9153650413919767),
    (125.63997406943984, 1304.4504569534329, 1345.3336117992676,
     0.9491603072334672),
    (41.8865515621104, 131.81643463511878, 113.58863566375629,
     0.9999303376527771),
    (200.0, 1500.0, 1500.0,
     0.9998646763758513),
    (1.0, 1500.0, 1400.0,
     0.9690154754368031),
    (200.0, 0.0, 150.0,
     0.9999429031142579),
    (1.0, 0.0, 30.0,
     9.357622968840163e-14),
]

# Q_{eta,mu}(x, y) at the edges of the quadrature's working box, and one
# point past it whose window has node arguments z = 2 sqrt(x t) > 700.
# Rows are (eta, mu, x, y, value), the value to 40 significant digits; made
# once by the series of ``perfbench/reference.py``,
#
#     e^{-x} sum_n x^n/n! Gamma(eta+mu+n)/Gamma(mu+n) Q(eta+mu+n, y),
#
# with every Q from ``mpmath.gammainc``, summed at 50 and at 60 digits; the
# two sums agree to 1e-42 relative at every point.  All terms are positive,
# so the sums lose no digits to cancellation.
EDGE_POINTS = [
    # small x > 0 with large mu
    (0.0, 50.0, 1e-08, 10.0,
     0.9999999999999999998145273131057467897221),
    (10.0, 50.0, 0.01, 10.0,
     2.284479249827091295526021498362262974087e+17),
    (3.0, 45.0, 0.001, 30.0,
     97151.74192004286987358442207900751639118),
    (25.0, 50.0, 1e-05, 60.0,
     5.252806250733582482845542065030226609099e+44),
    (0.0, 48.5, 0.5, 48.0,
     0.5379022310200838574747269520593472364324),
    # mu near 1
    (0.0, 1.0, 5.0, 3.0,
     0.814938772486556194885449016227857140147),
    (2.5, 1.0000001, 0.3, 1.0,
     5.978623966097346290804036132674539978284),
    (7.0, 1.01, 10.0, 15.0,
     2.361322983767442288857564890580014102876e+8),
    (1.0, 1.0, 0.001, 0.5,
     0.9108573992725229771561888935190993189189),
    # y ~ 0 and y = 0
    (0.0, 3.322093321712608, 0.0, 2.0738036364741006e-07,
     0.9999999999999999999999931196819126279883),
    (5.0, 2.0, 4.0, 1e-10,
     55024.0),
    (1.0, 1.0, 0.001, 1e-12,
     1.001000000000000000020816182211471768778),
    (0.5, 1.5, 0.0, 0.0,
     1.128379167095512573896158903121545171688),
    (30.0, 20.0, 20.0, 0.0,
     1.614811178311526811914692086828379567942e+53),
    # x >> y
    (3.0, 10.0, 20.0, 0.5,
     31639.99999999999999999991809951967574055),
    (0.0, 1.0, 20.0, 0.01,
     0.9999999999773743755158336353035811604135),
    (12.0, 2.0, 20.0, 0.001,
     8.083601526170368e+17),
    # y >> x
    (2.0, 5.0, 0.1, 20.0,
     0.01047113013610340946137140747414434126957),
    (0.0, 1.0, 0.01, 20.0,
     2.492265024649483130793485252723758123291e-9),
    (50.0, 1.0, 0.001, 20.0,
     3.195352598940127982334124702001739781803e+64),
    (0.0, 2.0, 1e-06, 20.0,
     4.328463830310219059435530421545554007258e-8),
    # eta near 50
    (50.0, 50.0, 20.0, 0.0,
     6.52551178815642645820680344876162157896e+99),
    (49.5, 10.0, 10.0, 20.0,
     3.788814053070867750056876120956952214285e+83),
    (48.0, 1.0, 0.5, 5.0,
     2.367416568840082849149370677997239880881e+64),
    (50.0, 25.0, 2.0, 90.0,
     2.945951704234161476669194935808599228201e+84),
    # real eta, x = 0 and the CLI's smoke point
    (12.7, 7.3, 3.3, 8.8,
     5.715588933455152770628147817619750571819e+15),
    (4.0, 12.5, 0.0, 9.0,
     37329.38653168129034406542603442997983106),
    (4.0, 12.5, 7.0, 9.0,
     2.125948564467991331073489970556076995489e+5),
    # z = 2 sqrt(x t) > 700 on the window
    (1.0, 3.0, 400.0, 300.0,
     402.9848933369901556973423036082341357111),
]
