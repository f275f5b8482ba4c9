"""SD/GMD values, representation agreement, and the discrete identities."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from dispersion import (
    affine,
    brute_force_lattice,
    concentration,
    dispersion_report,
    errors,
    gmd,
    make_distribution,
    mean_excess_abs_diff,
    mix,
    sd,
    tail_dispersion,
    truncate,
)
from dispersion.hazard import hazard_scan
from dispersion.measures import abs_diff_survival, gmd_numeric, sd_numeric

from conftest import STANDARD_INSTANCES

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# closed-form values quoted from the source formulas
# ---------------------------------------------------------------------------


def test_sd_gamma():
    assert sd(make_distribution("gamma:alpha=2")) == pytest.approx(math.sqrt(2), rel=1e-14)


def test_sd_logistic():
    assert sd(make_distribution("logistic")) == pytest.approx(math.pi / math.sqrt(3), rel=1e-14)


def test_sd_negbinomial():
    d = make_distribution("negbinomial:r=2,p=0.5")
    assert sd(d) == pytest.approx(2.0, rel=1e-14)


def test_gmd_normal():
    assert gmd(make_distribution("normal")) == pytest.approx(2 / SQRT_PI, rel=1e-14)


def test_gmd_gpd():
    d = make_distribution("gpd:alpha=0.25")
    assert gmd(d) == pytest.approx(2 / (0.75 * 1.75), rel=1e-14)


def test_gmd_geometric():
    d = make_distribution("geometric:p=0.5")
    assert gmd(d) == pytest.approx(4 / 3, rel=1e-14)


def test_dispersion_report_methods():
    closed = dispersion_report(make_distribution("normal"))
    assert closed.method == "closed-form" and closed.err_estimate == 0.0
    quad = dispersion_report(make_distribution("erf-hazard"))
    assert quad.method == "quadrature" and quad.err_estimate > 0
    summ = dispersion_report(make_distribution("zipf:alpha=3"))
    assert summ.method == "summation"


# ---------------------------------------------------------------------------
# closed form vs numeric route
# ---------------------------------------------------------------------------

_CLOSED_GRIDS = (
    [f"gpd:alpha={a}" for a in (0, 0.1, 0.25, 0.4, 0.45)]
    + [f"weibull:alpha={a}" for a in (0.3, 0.7, 1, 1.8, 3)]
    + [f"gamma:alpha={a}" for a in (0.25, 0.5, 1, 2, 4)]
    + [f"normal:sigma={s}" for s in (0.3, 0.5, 1, 2, 5)]
    + [f"beta:alpha={a}" for a in (0.25, 0.5, 1, 2, 5)]
    + [f"geometric:p={p}" for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
    + [f"negbinomial:r=2,p={p}" for p in (0.2, 0.35, 0.5, 0.65, 0.8)]
    + ["logistic"]
)


@pytest.mark.parametrize("spec", _CLOSED_GRIDS)
def test_closed_matches_numeric(spec):
    d = make_distribution(spec)
    if d.closed.sd is not None:
        num, _ = sd_numeric(d)
        assert abs(num - d.closed.sd) <= 1e-8 * (1 + d.closed.sd)
    if d.closed.gmd is not None:
        num, _ = gmd_numeric(d)
        assert abs(num - d.closed.gmd) <= 1e-8 * (1 + d.closed.gmd)


# ---------------------------------------------------------------------------
# affine equivariance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", [-2.0, 0.5])
@pytest.mark.parametrize("b", [-1.0, 3.0])
def test_affine_equivariance_continuous(a, b):
    for spec in ("gamma:alpha=2", "erf-hazard"):
        d = make_distribution(spec)
        sd0, _ = sd_numeric(d)
        gmd0, _ = gmd_numeric(d)
        y = affine(d, a, b)
        sd1, _ = sd_numeric(y)
        gmd1, _ = gmd_numeric(y)
        assert sd1 == pytest.approx(abs(a) * sd0, rel=1e-9)
        assert gmd1 == pytest.approx(abs(a) * gmd0, rel=1e-9)


def test_affine_equivariance_lattice_reflection():
    d = make_distribution("geometric:p=0.4")
    y = affine(d, -1.0, 3.0)
    assert sd_numeric(y)[0] == pytest.approx(sd_numeric(d)[0], rel=1e-10)
    assert gmd_numeric(y)[0] == pytest.approx(gmd_numeric(d)[0], rel=1e-10)


# ---------------------------------------------------------------------------
# mean excess curve of |X - X'|
# ---------------------------------------------------------------------------


def test_curve_exponential_is_unit():
    # X, X' iid exp(1): X - X' is Laplace, |X - X'| is exp(1), so m = 1
    d = make_distribution("weibull:alpha=1")
    curve = mean_excess_abs_diff(d, np.linspace(0, 5, 9))
    assert np.allclose(curve.m_direct, 1.0, atol=1e-8)
    assert np.allclose(curve.m_repr, 1.0, atol=1e-8)


def test_curve_baseline_continuous_is_gmd():
    d = make_distribution("normal")
    curve = mean_excess_abs_diff(d, np.array([0.0]))
    assert curve.baseline == pytest.approx(2 / SQRT_PI, rel=1e-12)
    assert curve.m_direct[0] == pytest.approx(2 / SQRT_PI, rel=1e-8)


def test_curve_baseline_lattice_shifted_half():
    d = make_distribution("geometric:p=0.5")
    curve = mean_excess_abs_diff(d, np.arange(4))
    assert curve.baseline == pytest.approx(4 / 3 + 0.5, rel=1e-12)
    # m_Y(0) = E[Y] / S_Y(0) = gmd / (1 - Lambda) = 2 for p = 1/2
    assert curve.m_direct[0] == pytest.approx(2.0, rel=1e-9)
    assert curve.m_repr[0] == pytest.approx(2.0, rel=1e-9)


_REPR_GRIDS = [
    ("weibull:alpha=0.5", np.linspace(0, 12, 32)),
    ("gamma:alpha=2", np.linspace(0, 6, 32)),
    ("normal", np.linspace(0, 4.5, 32)),
    ("geometric:p=0.3", np.arange(32, dtype=float)),
    ("poisson:theta=2", np.arange(14, dtype=float)),
]


@pytest.mark.parametrize("spec,ts", _REPR_GRIDS, ids=[s for s, _ in _REPR_GRIDS])
def test_representation_agreement(spec, ts):
    curve = mean_excess_abs_diff(make_distribution(spec), ts)
    gap = np.abs(curve.m_direct - curve.m_repr) / (1 + np.abs(curve.m_direct))
    assert float(gap.max()) <= 1e-6


def test_erfi_interval_curve_matches_closed_form_stop_loss():
    # CDF erfi(1 + x) / erfi(2) on [-1, 1]: Pi(x) = (1 - x) - (A(2) - A(1 + x)) / erfi(2)
    # with A(z) = z erfi(z) - exp(z^2) / sqrt(pi), the antiderivative of erfi
    ts = np.linspace(0, 1.5, 8)
    curve = mean_excess_abs_diff(make_distribution("erfi-interval"), ts)
    with mp.workdps(30):
        c = mp.erfi(2)
        big_a = lambda z: z * mp.erfi(z) - mp.exp(z * z) / mp.sqrt(mp.pi)
        f = lambda x: 2 * mp.exp((1 + x) ** 2) / (mp.sqrt(mp.pi) * c)
        sf = lambda x: 1 - mp.erfi(1 + x) / c
        pi = lambda x: (1 - x) - (big_a(2) - big_a(1 + x)) / c
        for t, got in zip(ts, curve.m_direct):
            t = mp.mpf(float(t))
            num = mp.quad(lambda x: f(x) * pi(x + t), [-1, 1 - t])
            den = mp.quad(lambda x: f(x) * sf(x + t), [-1, 1 - t])
            want = float(num / den)
            assert abs(got - want) <= 1e-10 * (1 + want)


def test_poisson_curve_both_routes_match_exact_sums():
    # Pi(k) = theta S(k - 1) - k S(k); 40-digit sums over x < 200
    ts = np.arange(17, dtype=float)
    curve = mean_excess_abs_diff(make_distribution("poisson:theta=2"), ts)
    with mp.workdps(40):
        theta = mp.mpf(2)
        f = [mp.exp(-theta) * theta**x / mp.factorial(x) for x in range(260)]
        sf = [mp.fsum(f[k + 1 :]) for k in range(230)]
        pi = [theta * (sf[k - 1] if k else 1) - k * sf[k] for k in range(230)]
        for t, direct, repr_ in zip(ts.astype(int), curve.m_direct, curve.m_repr):
            num = mp.fsum(f[x] * pi[x + t] for x in range(200))
            den = mp.fsum(f[x] * sf[x + t] for x in range(200))
            want = float(num / den)
            assert abs(direct - want) <= 1e-12 * (1 + want)
            assert abs(repr_ - want) <= 1e-12 * (1 + want)


def test_zipf3_curve_matches_hurwitz_stop_loss():
    # S(k) = zeta(4, k + 1) / zeta(4), Pi(k) = (zeta(3, k + 1) - k zeta(4, k + 1)) / zeta(4)
    ts = np.arange(8, dtype=float)
    curve = mean_excess_abs_diff(make_distribution("zipf:alpha=3"), ts)
    xs = np.arange(1, 20001, dtype=float)
    f = xs**-4.0
    for t, direct, repr_ in zip(ts, curve.m_direct, curve.m_repr):
        k = xs + t
        num = np.dot(f, special.zeta(3, k + 1) - k * special.zeta(4, k + 1))
        want = float(num / np.dot(f, special.zeta(4, k + 1)))
        assert abs(direct - want) <= 1e-7 * (1 + want)
        assert abs(repr_ - want) <= 1e-7 * (1 + want)


def test_gapped_lattice_curve_matches_brute_force():
    # support {0, 1, 2} and {9, 10, ...}: f = 0 inside the hull, where the
    # change-of-measure sums still carry the terms F(x-1-t) S(x-1)
    g = make_distribution("poisson:theta=2")
    d = mix([truncate(g, "upper", 2.0), truncate(g, "lower", 8.0)], [0.5, 0.5])
    exact = brute_force_lattice(d, mass_cut=1e-14)
    curve = mean_excess_abs_diff(d, np.arange(6.0))
    assert list(exact.m_ts[:6]) == list(curve.ts)
    assert np.allclose(curve.m_direct, exact.m_values[:6], rtol=1e-9)
    assert np.allclose(curve.m_repr, exact.m_values[:6], rtol=1e-9)


def test_gapped_continuous_repr_route_matches_exact():
    # support [0, 1] and [3, 4] with density x and x - 3: S is piecewise
    # quadratic with kinks at 0, 1, 3 and 4, so S_Y(y) = 2 int f(x) S(x + y) dx
    # and its tail integral are exact by Gauss-Kronrod between the kinks and
    # their differences. Inside the gap f = 0 while F(x - t) S(x) is not.
    b = make_distribution("beta:alpha=2")
    d = mix([b, affine(b, 1.0, 3.0)], [0.5, 0.5])
    ts = np.array([0.0, 0.5, 1.0, 2.5])
    curve = mean_excess_abs_diff(d, ts)
    ends = [0.0, 1.0, 3.0, 4.0]
    f = lambda x: x if 0 <= x <= 1 else (x - 3 if 3 <= x <= 4 else 0.0)
    pieces = [(1, lambda x: 1 - x * x / 2), (3, lambda x: 0.5), (4, lambda x: (1 - (x - 3) ** 2) / 2)]
    sf = lambda x: 1.0 if x < 0 else next((g(x) for end, g in pieces if x < end), 0.0)

    def piecewise(fn, cuts, lo, hi):
        cuts = sorted({c for c in cuts if lo < c < hi} | {lo, hi})
        return sum(quad(fn, a, c)[0] for a, c in zip(cuts, cuts[1:]))

    s_y = lambda y: 2 * piecewise(lambda x: f(x) * sf(x + y), ends + [e - y for e in ends], 0.0, 4.0)
    for t, repr_ in zip(ts, curve.m_repr):
        want = piecewise(s_y, [c - a for a in ends for c in ends], t, 4.0) / s_y(t)
        assert abs(repr_ - want) / (1 + want) <= 1e-6


def test_curve_against_monte_carlo_excess():
    # third route: sample Y = |X - X'| and average the excess above t
    from numpy.random import Generator, Philox

    d = make_distribution("normal")
    gen = Generator(Philox(key=99))
    y = np.abs(gen.standard_normal(10**6) - gen.standard_normal(10**6))
    curve = mean_excess_abs_diff(d, np.array([0.5, 1.0, 2.0]))
    for t, m_val in zip(curve.ts, curve.m_direct):
        tail = y[y > t]
        assert float(np.mean(tail - t)) == pytest.approx(m_val, abs=0.01)


def test_curve_rejects_non_integer_lattice_t():
    d = make_distribution("geometric:p=0.5")
    with pytest.raises(ValueError):
        mean_excess_abs_diff(d, np.array([0.5]))


def test_degenerate_t_raises():
    d = make_distribution("erfi-unit")  # Y <= 1
    with pytest.raises(errors.DegenerateY):
        mean_excess_abs_diff(d, np.array([2.0]))


# ---------------------------------------------------------------------------
# concentration value and discrete identities
# ---------------------------------------------------------------------------


def test_concentration_geometric_half():
    c = concentration(make_distribution("geometric:p=0.5"))
    assert c.lambda_ == pytest.approx(1 / 3, rel=1e-12)
    assert c.odds_bound == pytest.approx(1.0, rel=1e-12)


def test_concentration_geometric_near_one():
    c = concentration(make_distribution("geometric:p=0.999"))
    assert c.lambda_ == pytest.approx(0.999 / (2 - 0.999), rel=1e-12)
    assert c.lambda_ == pytest.approx(0.998, abs=5e-4)


def test_concentration_negbinomial_bound_formula():
    p = 0.5
    c = concentration(make_distribution(f"negbinomial:r=2,p={p}"))
    expected = 2 / p - 1 / (2 - (2 - p) * p) - 1
    assert c.odds_bound == pytest.approx(expected, rel=1e-10)
    assert c.odds_bound == pytest.approx(2.2, rel=1e-10)


def test_concentration_rejects_continuous():
    with pytest.raises(errors.ContinuousInput):
        concentration(make_distribution("normal"))


@pytest.mark.parametrize(
    "spec",
    ["geometric:p=0.2", "geometric:p=0.5", "geometric:p=0.8",
     "poisson:theta=1", "negbinomial:r=2,p=0.4", "zipf:alpha=3"],
)
def test_discrete_identities(spec):
    # E[F_X(X)] = (1 + Lambda) / 2 and S_Y(0) = 1 - Lambda
    d = make_distribution(spec)
    pts = d.lattice_points(1e-14).astype(float)
    f = np.asarray(d.pdf(pts), float)
    lam = float(np.dot(f, f))
    e_f = float(np.dot(f, np.asarray(d.cdf(pts), float)))
    assert abs(e_f - (1 + lam) / 2) <= 1e-10
    assert abs(abs_diff_survival(d, 0.0) - (1 - lam)) <= 1e-10


@pytest.mark.parametrize(
    "spec", ["geometric:p=0.2", "geometric:p=0.5", "geometric:p=0.8", "zipf:alpha=3"]
)
def test_m0_lower_bound_for_decreasing_hazard(spec):
    d = make_distribution(spec)
    assert hazard_scan(d).is_nonincreasing
    lam = concentration(d).lambda_
    m0 = gmd(d) / (1 - lam)
    assert m0 >= (1 + lam) / (2 * lam) - 1e-12


@pytest.mark.parametrize("alpha", [0.25, 1.0, 2.0, 5.0])
def test_beta_identity(alpha):
    d = make_distribution(f"beta:alpha={alpha}")
    lhs = gmd(d) ** 2 - sd(d) ** 2
    a = alpha
    rhs = a * (4 * a - 1) / ((a + 1) ** 2 * (a + 2) * (2 * a + 1) ** 2)
    assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# the sqrt(3)/2 lower bound and tail dispersion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", STANDARD_INSTANCES)
def test_sqrt3_half_bound_nonnegative_support(spec, instances):
    d = instances[spec]
    if d.support.lower < 0:
        pytest.skip("bound holds for nonnegative laws")
    rep = dispersion_report(d)
    assert rep.sd >= (math.sqrt(3) / 2) * rep.gmd - 1e-9


def test_tail_dispersion_exponential_memoryless():
    d = make_distribution("weibull:alpha=1")
    rep = tail_dispersion(d, "lower", 5.0)
    assert rep.sd == pytest.approx(1.0, rel=1e-8)
    assert rep.gmd == pytest.approx(1.0, rel=1e-8)


def test_tail_dispersion_matches_composition():
    d = make_distribution("gamma:alpha=2")
    rep = tail_dispersion(d, "lower", 1.5)
    t = truncate(d, "lower", 1.5)
    assert rep.sd == pytest.approx(sd_numeric(t)[0], rel=1e-12)
    assert rep.gmd == pytest.approx(gmd_numeric(t)[0], rel=1e-12)


def test_tail_dispersion_zipf_keeps_tail_correction():
    # exact conditional moments from Hurwitz zeta sums
    from scipy.special import zeta

    d = make_distribution("zipf:alpha=3")
    trunc = truncate(d, "lower", 10.0)
    mass = zeta(4, 11) / zeta(4)
    m1 = zeta(3, 11) / zeta(4) / mass
    m2 = zeta(2, 11) / zeta(4) / mass
    expected_sd = math.sqrt(m2 - m1 * m1)
    assert sd_numeric(trunc)[0] == pytest.approx(expected_sd, rel=1e-10)


def test_tail_dispersion_damped_hazard_sign():
    d = make_distribution("damped-hazard:theta=0.1")
    assert tail_dispersion(d, "lower", 10.0).diff >= 0
    assert tail_dispersion(d, "lower", 15.0).diff >= 0


def test_tail_dispersion_normal_mix_sign():
    d = make_distribution("normal-mix")
    assert tail_dispersion(d, "lower", 2.0).diff <= 0
    assert tail_dispersion(d, "upper", -2.0).diff <= 0
