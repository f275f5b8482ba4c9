"""SD/GMD values, representation agreement, and the discrete identities."""

import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.legendre import legval
from numpy.polynomial.polynomial import polyval
from scipy import special
from scipy.integrate import quad

from dispersion import (
    affine,
    brute_force_lattice,
    classify,
    concentration,
    convolve,
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
from dispersion.dist import _ANTIDERIV, Distribution
from dispersion.hazard import hazard_scan
from dispersion.measures import gmd_numeric, sd_numeric
from dispersion.numerics import integrate, panel_nodes, panels

from conftest import STANDARD_INSTANCES

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# closed-form values quoted from the source formulas
# ---------------------------------------------------------------------------


def test_sd_gamma():
    assert sd(make_distribution("gamma:alpha=2")) == pytest.approx(math.sqrt(2), rel=1e-14, abs=0)


def test_sd_logistic():
    assert sd(make_distribution("logistic")) == pytest.approx(math.pi / math.sqrt(3), rel=1e-14, abs=0)


def test_sd_negbinomial():
    d = make_distribution("negbinomial:r=2,p=0.5")
    assert sd(d) == pytest.approx(2.0, rel=1e-14, abs=0)


def test_gmd_normal():
    assert gmd(make_distribution("normal")) == pytest.approx(2 / SQRT_PI, rel=1e-14, abs=0)


def test_gmd_gpd():
    d = make_distribution("gpd:alpha=0.25")
    assert gmd(d) == pytest.approx(2 / (0.75 * 1.75), rel=1e-14, abs=0)


def test_gmd_geometric():
    d = make_distribution("geometric:p=0.5")
    assert gmd(d) == pytest.approx(4 / 3, rel=1e-14, abs=0)


def test_weibull_closed_forms_past_gamma_overflow():
    # at alpha = 0.01 Gamma(1 + 2/alpha) and Gamma(1 + 1/alpha)^2 overflow;
    # reference values from 40-digit mpmath
    rep = dispersion_report(make_distribution("weibull:alpha=0.01"))
    assert rep.sd == pytest.approx(2.8083053027845646e187, rel=1e-12, abs=0)
    assert rep.gmd == pytest.approx(1.8665243088788831e158, rel=1e-12, abs=0)
    assert rep.method == "closed-form"
    # where the SD itself overflows the law's report refuses, naming it
    d = make_distribution("weibull:alpha=0.005")
    for fn in (dispersion_report, sd, gmd):
        with pytest.raises(errors.DivergentMoment, match=r"weibull\(alpha=0\.005\)"):
            fn(d)


@pytest.mark.parametrize("a", [3.25, 10, 1e2, 1e3, 1e5, 1e7, 1e8, 1e9])
def test_weibull_closed_forms_match_mpmath_at_large_shape(a):
    # sqrt(Gamma(1 + 2/a) - Gamma(1 + 1/a)^2) and 1 - 2^(-1/a) cancel as a
    # grows: that SD was 0.39% low at 1e7, a math domain error at 1e8 and 0.0
    # at 1e9, each as an exact closed form
    closed = make_distribution(f"weibull:alpha={a!r}").closed
    with mp.workdps(50):
        e = 1 / mp.mpf(a)
        g1, g2 = mp.gamma(1 + e), mp.gamma(1 + 2 * e)
        want_sd, want_gmd = float(mp.sqrt(g2 - g1**2)), float(2 * (1 - mp.power(2, -e)) * g1)
    assert closed.sd == pytest.approx(want_sd, rel=1e-13, abs=0)
    assert closed.gmd == pytest.approx(want_gmd, rel=1e-13, abs=0)


@pytest.mark.parametrize("a", [*np.logspace(-8, 6, 57), *np.linspace(5, 13, 17)])
def test_gamma_gmd_matches_mpmath(a):
    # 2 Gamma(a + 1/2) / (sqrt(pi) Gamma(a)) from a = 1e-8 to 1e6, across the
    # switch from the gamma quotient to the asymptotic series at a = 12
    with mp.workdps(40):
        a_mp = mp.mpf(float(a))
        want = 2 * mp.gamma(a_mp + mp.mpf(1) / 2) / (mp.sqrt(mp.pi) * mp.gamma(a_mp))
        got = make_distribution(f"gamma:alpha={float(a)!r}").closed.gmd
        assert abs(got - want) <= 3e-15 * want


def test_dispersion_report_methods():
    closed = dispersion_report(make_distribution("normal"))
    assert closed.method == "closed-form" and closed.err_estimate == 0.0
    quad = dispersion_report(make_distribution("erf-hazard"))
    assert quad.method == "quadrature" and quad.err_estimate > 0
    summ = dispersion_report(make_distribution("zipf:alpha=3"))
    assert summ.method == "summation"


def test_dispersion_report_is_kept_per_law():
    d = make_distribution("erf-hazard")
    rep = dispersion_report(d)
    assert dispersion_report(d) is rep
    assert classify(d).report is rep


def test_dispersion_report_that_raises_raises_again(monkeypatch):
    calls = []

    def diverge(d, *want):
        calls.append(d.label)
        raise errors.DivergentMoment(f"variance of {d.label} diverges")

    monkeypatch.setattr("dispersion.measures._numeric", diverge)
    d = make_distribution("erf-hazard")
    for _ in range(2):
        with pytest.raises(errors.DivergentMoment):
            dispersion_report(d)
    assert len(calls) == 2


def _lone_runs_report(d):
    """(sd, gmd, err_estimate) from x f, x^2 f and F S each integrated alone."""
    lo, hi = d.support.lower, d.support.upper
    sd_val, gmd_val, err = d.closed.sd, d.closed.gmd, 0.0
    if sd_val is None:
        m1, e1 = integrate(lambda x: x * d.pdf(x), lo, hi)
        m2, e2 = integrate(lambda x: x * x * d.pdf(x), lo, hi)
        sd_val = math.sqrt(m2 - m1 * m1)
        err += (e2 + 2 * abs(m1) * e1) / (2 * sd_val)
    if gmd_val is None:
        val, e = integrate(lambda x: d.cdf(x) * d.sf(x), lo, hi)
        gmd_val, err = 2.0 * val, err + 2.0 * e
    return float(sd_val).hex(), float(gmd_val).hex(), err.hex()


def _by_quadrature(spec):
    d = make_distribution(spec)
    return not d.is_lattice and (d.closed.sd is None or d.closed.gmd is None)


_BATCH_LAWS = {
    **{spec: lambda spec=spec: make_distribution(spec) for spec in STANDARD_INSTANCES if _by_quadrature(spec)},
    "truncate(damped-hazard, lower, 10)":
        lambda: truncate(make_distribution("damped-hazard:theta=0.1"), "lower", 10.0),
    "truncate(normal-mix, lower, 2)": lambda: truncate(make_distribution("normal-mix"), "lower", 2.0),
    "mix(weibull:alpha=0.6, gamma:alpha=0.5)":
        lambda: mix([make_distribution("weibull:alpha=0.6"), make_distribution("gamma:alpha=0.5")], [0.5, 0.5]),
}


@pytest.mark.parametrize("name", list(_BATCH_LAWS))
def test_sd_gmd_batch_repeats_lone_integrals(name):
    # the one batch of x f, x^2 f and F S gives each measure the bits of its
    # integrals run alone
    rep = dispersion_report(_BATCH_LAWS[name]())
    assert (rep.sd.hex(), rep.gmd.hex(), rep.err_estimate.hex()) == _lone_runs_report(_BATCH_LAWS[name]())


@pytest.mark.parametrize(
    "spec,message",
    [("erf-hazard", "variance of"), ("weibull:alpha=1", "GMD integral for")],
)
def test_off_scale_mixture_raises_on_its_measure(spec, message):
    # at scale 1e-9 the quadrature misses the mass: the variance comes out
    # nonpositive on erf-hazard, the F S integral on the exponential
    part = affine(make_distribution(spec), 1e-9, 0.0)
    d = mix([part, part], [0.5, 0.5])
    with pytest.raises(errors.DivergentMoment) as caught:
        dispersion_report(d)
    assert str(caught.value) == f"{message} {d.label} is not a positive finite number"


def test_sd_gmd_batch_calls_pdf_once_per_step_for_both_moments():
    calls = []

    def counted(d):
        pdf = d.pdf
        d.pdf = lambda x: calls.append(1) or pdf(x)
        return d

    _lone_runs_report(counted(make_distribution("erf-hazard")))
    lone, calls[:] = len(calls), []
    dispersion_report(counted(make_distribution("erf-hazard")))
    assert len(calls) < lone, (len(calls), lone)


# ---------------------------------------------------------------------------
# pinned SD, GMD and err_estimate
# ---------------------------------------------------------------------------

# (SD, GMD, err_estimate) of dispersion_report on every standard instance
# and on the bench's combinator `analyze` laws, as the package gave them
# when they were pinned; a refactor that promises the same numbers keeps
# each within the pinned err_estimate plus PIN_ULPS units in the last place,
# which leaves room for special functions that differ in the last bits
# between scipy releases. The estimate itself, held to the same bound, stays
# zero on a closed form and at most doubles on a numeric route.
PIN_ULPS = 4
PINNED_REPORTS = {
    "gamma:alpha=0.5": (0.7071067811865476, 0.6366197723675814, 0.0),
    "gamma:alpha=1": (1.0, 1.0, 0.0),
    "gamma:alpha=2": (1.4142135623730951, 1.5000000000000002, 0.0),
    "gamma:alpha=3": (1.7320508075688772, 1.8750000000000004, 0.0),
    "weibull:alpha=0.5": (4.47213595499958, 3.0, 0.0),
    "weibull:alpha=1": (1.0, 1.0, 0.0),
    "weibull:alpha=1.5": (0.6129357917546764, 0.668102788619472, 0.0),
    "weibull:alpha=2.5": (0.37966654992257637, 0.42968716795148093, 0.0),
    "gpd:alpha=0": (1.0, 1.0, 0.0),
    "gpd:alpha=0.1": (1.2422599874998832, 1.1695906432748537, 0.0),
    "gpd:alpha=0.3": (2.2587697572631282, 1.680672268907563, 0.0),
    "gpd:alpha=0.45": (5.74959574576069, 2.3460410557184748, 0.0),
    "normal:sigma=0.5": (0.5, 0.5641895835477563, 0.0),
    "normal": (1.0, 1.1283791670955126, 0.0),
    "normal:sigma=2": (2.0, 2.256758334191025, 0.0),
    "beta:alpha=0.5": (0.29814239699997197, 0.3333333333333333, 0.0),
    "beta:alpha=2": (0.23570226039551584, 0.26666666666666666, 0.0),
    "beta:alpha=3,beta=2": (0.2000000000000001, 0.2285714285714286, 3.362389731721901e-14),
    "logistic": (1.8137993642342178, 2.0, 0.0),
    "erf-hazard": (0.7575083042080635, 0.6774505699597696, 8.322767173302101e-10),
    "erfi-interval": (0.40658580166787034, 0.4015519107906927, 3.575727448353194e-11),
    "erfi-unit": (0.29061669292480785, 0.33538653618156344, 2.0900845111236996e-14),
    "damped-hazard:theta=0.05": (0.5190258427869933, 0.5627000940410483, 1.0683418979523512e-09),
    "damped-hazard:theta=0.1": (0.529897098292228, 0.5722154842843715, 9.613720660913804e-10),
    "damped-hazard:theta=0.5": (0.6378638064471325, 0.659494086819586, 4.0928422260896734e-10),
    "normal-mix": (1.0897247358851685, 1.0752344718650089, 3.7666845470008824e-11),
    "normal-mix:sigma1=1,sigma2=3,q=0.5": (2.23606797749979, 2.3899454281055927, 1.6445094095895627e-09),
    "normal-mix:sigma1=0.5,sigma2=1.5,q=0.3": (1.284523257866513, 1.409993579958733, 1.1230355265543763e-09),
    "geometric:p=0.2": (4.472135954999579, 4.444444444444444, 0.0),
    "geometric:p=0.4": (1.9364916731037085, 1.8749999999999996, 0.0),
    "geometric:p=0.5": (1.4142135623730951, 1.3333333333333333, 0.0),
    "geometric:p=0.8": (0.5590169943749473, 0.4166666666666666, 0.0),
    "zipf:alpha=2.5": (0.94921762586425, 0.35289586570477766, 1.526749595009634e-12),
    "zipf:alpha=3": (0.5350948081083412, 0.20888292490731034, 1.934413850449404e-12),
    "zipf:alpha=4": (0.26414811127674814, 0.08495579772041173, 2.8928774375227303e-12),
    "poisson:theta=0.5": (0.7071067811865476, 0.6736700229433488, 1.7071067811865474e-12),
    "poisson:theta=1": (0.9999999999999998, 1.0475552236052177, 1.5e-12),
    "poisson:theta=1.5": (1.2247448713915885, 1.319481202377379, 1.4082482904638633e-12),
    "poisson:theta=2.5": (1.5811388300841898, 1.737565397769354, 1.3162277660168378e-12),
    "negbinomial:r=0.5,p=0.5": (1.0, 0.7952489081860239, 1e-12),
    "negbinomial:r=2,p=0.3": (3.9440531887330774, 4.160390799918583, 0.0),
    "negbinomial:r=2,p=0.7": (1.1065666703449764, 1.084595877495286, 0.0),
    "mix(zipf:alpha=2.5,zipf:alpha=2.5)": (0.94921762586425, 0.35289586570477766, 1.526749595009634e-12),
    "affine(zipf:alpha=2.5,1,3)": (0.9492176258642478, 0.35289586570477766, 1.5267495950096352e-12),
    "affine(zipf:alpha=2.5,-1,0)": (0.9492176258642497, 0.3528958657047779, 1.5267495950096342e-12),
    "truncate(normal-mix,lower,2)": (0.8924386143691619, 0.9508202823151428, 5.613547246094638e-09),
    "mix(weibull:alpha=0.6,gamma:alpha=0.5)": (2.0001708457124447, 1.4112956365750016, 1.2210079614050073e-09),
    "affine(gpd:alpha=0.25,-1,0)": (1.8856180831641265, 1.5238095238095237, 0.0),
}
_PINNED_COMBINATOR_LAWS = {
    "mix(zipf:alpha=2.5,zipf:alpha=2.5)":
        lambda: mix([make_distribution("zipf:alpha=2.5"), make_distribution("zipf:alpha=2.5")], [0.5, 0.5]),
    "affine(zipf:alpha=2.5,1,3)": lambda: affine(make_distribution("zipf:alpha=2.5"), 1, 3),
    "affine(zipf:alpha=2.5,-1,0)": lambda: affine(make_distribution("zipf:alpha=2.5"), -1, 0),
    "truncate(normal-mix,lower,2)": lambda: truncate(make_distribution("normal-mix"), "lower", 2.0),
    "mix(weibull:alpha=0.6,gamma:alpha=0.5)":
        lambda: mix([make_distribution("weibull:alpha=0.6"), make_distribution("gamma:alpha=0.5")], [0.5, 0.5]),
    "affine(gpd:alpha=0.25,-1,0)": lambda: affine(make_distribution("gpd:alpha=0.25"), -1, 0),
}


def test_pinned_reports_cover_the_standard_instances():
    assert list(PINNED_REPORTS) == STANDARD_INSTANCES + list(_PINNED_COMBINATOR_LAWS)


@pytest.mark.parametrize("name", list(PINNED_REPORTS))
def test_report_matches_its_pinned_values(name, instances):
    law = _PINNED_COMBINATOR_LAWS.get(name)
    rep = dispersion_report(instances[name] if law is None else law())
    want_sd, want_gmd, want_err = PINNED_REPORTS[name]
    for got, want in ((rep.sd, want_sd), (rep.gmd, want_gmd), (rep.err_estimate, want_err)):
        assert abs(got - want) <= want_err + PIN_ULPS * math.ulp(want), (got, want)


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
        assert sd1 == pytest.approx(abs(a) * sd0, rel=1e-9, abs=0)
        assert gmd1 == pytest.approx(abs(a) * gmd0, rel=1e-9, abs=0)


def test_affine_equivariance_lattice_reflection():
    d = make_distribution("geometric:p=0.4")
    y = affine(d, -1.0, 3.0)
    assert sd_numeric(y)[0] == pytest.approx(sd_numeric(d)[0], rel=1e-10, abs=0)
    assert gmd_numeric(y)[0] == pytest.approx(gmd_numeric(d)[0], rel=1e-10, abs=0)


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
    assert curve.baseline == pytest.approx(2 / SQRT_PI, rel=1e-12, abs=0)
    assert curve.m_direct[0] == pytest.approx(2 / SQRT_PI, rel=1e-8, abs=0)


def test_curve_baseline_lattice_shifted_half():
    d = make_distribution("geometric:p=0.5")
    curve = mean_excess_abs_diff(d, np.arange(4))
    assert curve.baseline == pytest.approx(4 / 3 + 0.5, rel=1e-12, abs=0)
    # m_Y(0) = E[Y] / S_Y(0) = gmd / (1 - Lambda) = 2 for p = 1/2
    assert curve.m_direct[0] == pytest.approx(2.0, rel=1e-9, abs=0)
    assert curve.m_repr[0] == pytest.approx(2.0, rel=1e-9, abs=0)


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


def test_numeric_convolution_curve_matches_gamma2():
    # Exp(1) + Exp(1) is gamma(2): the 512-node convolution's cdf, sf and pdf
    # are evaluated on the 2-D node arrays of the stop-loss and outer panels
    ts = np.linspace(0, 6, 4)
    e = make_distribution("weibull:alpha=1")
    got = mean_excess_abs_diff(convolve(e, e), ts)
    want = mean_excess_abs_diff(make_distribution("gamma:alpha=2"), ts)
    assert np.max(np.abs(got.m_direct - want.m_direct)) <= 1e-9
    assert np.max(np.abs(got.m_repr - want.m_repr)) <= 1e-9


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
        assert abs(direct - want) <= 1e-12 * (1 + want)
        assert abs(repr_ - want) <= 1e-12 * (1 + want)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
def test_zipf_curve_matches_hurwitz_pair_sums(alpha):
    # as for zipf(3) above; the table of zipf(4) ends near 701 and the sums of
    # S past it come from its tail, and zipf(2.5) is enumerated to 1e-12 only.
    # From t = 1e3 on, x + t is past the top of every table for most x: S there
    # is sf, and Pi the tail rule, up to t = 1e7, far past 2^19 points
    s = alpha + 1
    ts = np.concatenate([np.arange(8.0), [1e3, 1e5, 6e5, 1e6, 1e7]])
    curve = mean_excess_abs_diff(make_distribution(f"zipf:alpha={alpha}"), ts)
    # the pair sums run to x = 2e5 on zipf(2.5), whose table has 41,696 points:
    # cut at 2e4, they would miss about 1e-12 of m_Y at t = 1e5
    xs = np.arange(1, 200001 if alpha < 3 else 20001, dtype=float)
    f = xs**-s
    for t, direct, repr_ in zip(ts, curve.m_direct, curve.m_repr):
        k = xs + t
        num = np.dot(f, special.zeta(alpha, k + 1) - k * special.zeta(s, k + 1))
        want = float(num / np.dot(f, special.zeta(s, k + 1)))
        assert abs(direct - want) <= 1e-12 * (1 + want)
        assert abs(repr_ - want) <= 1e-12 * (1 + want)


def test_geometric_curve_stays_memoryless_past_its_table():
    # Pi(k) / S(k) = 1 / p at every k, so m_Y = 1 / p, read past the 78-point
    # table by sf and the tail rule
    d = make_distribution("geometric:p=0.3")
    assert len(d.lattice_table()[0]) == 78
    curve = mean_excess_abs_diff(d, np.array([0.0, 31, 77, 78, 79, 100, 500, 1000]))
    for m in (curve.m_direct, curve.m_repr):
        assert np.max(np.abs(m - 1 / 0.3)) <= 1e-12 * (1 + 1 / 0.3)


_THREAD_DIGEST = """
import numpy as np
from dispersion import concentration, dispersion_report, make_distribution, mean_excess_abs_diff, mix
c = mean_excess_abs_diff(make_distribution("zipf:alpha=2.5"), np.arange(8.0))
print(*(v.hex() for v in (*c.m_direct, *c.m_repr)))
for d in (make_distribution("zipf:alpha=2.5"), mix([make_distribution("zipf:alpha=2.5")] * 2, [0.5, 0.5])):
    rep = dispersion_report(d)
    print(*(float(v).hex() for v in (rep.sd, rep.gmd, concentration(d).lambda_)))
g = make_distribution("gamma:alpha=2")
c = mean_excess_abs_diff(g, np.linspace(0, 6, 32))
print(*(v.hex() for v in (*c.m_direct, *c.m_repr)))
print(*(float(v).hex() for v in g.stop_loss(np.array([35.0, 80.0, 300.0]))))
"""


def test_lattice_curve_bits_do_not_depend_on_blas_threads():
    # the lattice curves, SD, GMD and tie probability sum by numpy's own
    # fixed-order reductions over the 41,696-point table of zipf(2.5), and
    # the mixture's tail in blocks, not by BLAS, whose blocking follows the
    # thread count; the continuous stop-loss table of gamma(2), 1,218 nodes
    # with its tail, and the curve and far reads taken from it repeat too
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _THREAD_DIGEST], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.split())
    assert len(runs[0]) == 89
    assert runs[0] == runs[1]


_INVARIANT_LAWS = ["zipf:alpha=2.5", "zipf:alpha=3", "zipf:alpha=4", "geometric:p=0.3",
                   "poisson:theta=2", "negbinomial:r=0.5,p=0.5"]
_INVARIANT_MAPS = {
    "mix(d,d)": lambda d: mix([d, d], [0.5, 0.5]),
    "affine(d,1,3)": lambda d: affine(d, 1.0, 3.0),
    "affine(d,-1,0)": lambda d: affine(d, -1.0, 0.0),
    "affine(d,-1,7)": lambda d: affine(d, -1.0, 7.0),
}


@pytest.mark.parametrize("name", list(_INVARIANT_MAPS))
@pytest.mark.parametrize("spec", _INVARIANT_LAWS)
def test_lattice_invariance_under_combinators(spec, name):
    # mixing a law with itself, a shift and a reflection leave SD, GMD and the
    # mean excess of |X - X'| unchanged; each maps the law's tail past its table.
    # The grid runs past the reflected tables' widths (poisson(2) holds 19
    # points), where a reflection's curve needs the head its table leaves out
    d = make_distribution(spec)
    e = _INVARIANT_MAPS[name](make_distribution(spec))
    ts = np.arange(32, dtype=float)
    c, ce = mean_excess_abs_diff(d, ts), mean_excess_abs_diff(e, ts)
    assert sd_numeric(e)[0] == pytest.approx(sd_numeric(d)[0], rel=1e-9, abs=0)
    assert gmd_numeric(e)[0] == pytest.approx(gmd_numeric(d)[0], rel=1e-9, abs=0)
    assert np.allclose(ce.m_direct, c.m_direct, rtol=1e-9, atol=0)
    assert np.allclose(ce.m_repr, c.m_repr, rtol=1e-9, atol=0)


@pytest.mark.parametrize("spec", ["zipf:alpha=2.5", "poisson:theta=2"])
def test_reflected_curve_enumerates_its_tables_once(spec, monkeypatch):
    # a lattice law unbounded below is read through its reflection, which
    # the law keeps: a second curve enumerates no lattice table
    d = affine(make_distribution(spec), -1.0, 0.0)
    ts = np.arange(8, dtype=float)
    first = mean_excess_abs_diff(d, ts)
    calls = []
    points = Distribution.lattice_points
    monkeypatch.setattr(Distribution, "lattice_points", lambda self, *a: calls.append(self) or points(self, *a))
    second = mean_excess_abs_diff(d, ts)
    assert calls == []
    assert np.array_equal(second.m_direct, first.m_direct)
    assert np.array_equal(second.m_repr, first.m_repr)
    assert second.baseline == first.baseline


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


def _gapped_continuous_curve(ts):
    """(curve, exact m_Y) of the mixture with support [0, 1] and [3, 4] and
    density x and x - 3: S is piecewise quadratic with kinks at 0, 1, 3 and
    4, so S_Y(y) = 2 int f(x) S(x + y) dx and its tail integral are exact by
    Gauss-Kronrod between the kinks and their differences."""
    b = make_distribution("beta:alpha=2")
    d = mix([b, affine(b, 1.0, 3.0)], [0.5, 0.5])
    curve = mean_excess_abs_diff(d, ts)
    ends = [0.0, 1.0, 3.0, 4.0]
    f = lambda x: x if 0 <= x <= 1 else (x - 3 if 3 <= x <= 4 else 0.0)
    pieces = [(1, lambda x: 1 - x * x / 2), (3, lambda x: 0.5), (4, lambda x: (1 - (x - 3) ** 2) / 2)]
    sf = lambda x: 1.0 if x < 0 else next((g(x) for end, g in pieces if x < end), 0.0)

    def piecewise(fn, cuts, lo, hi):
        cuts = sorted({c for c in cuts if lo < c < hi} | {lo, hi})
        return sum(quad(fn, a, c)[0] for a, c in zip(cuts, cuts[1:]))

    s_y = lambda y: 2 * piecewise(lambda x: f(x) * sf(x + y), ends + [e - y for e in ends], 0.0, 4.0)
    want = [piecewise(s_y, [c - a for a in ends for c in ends], t, 4.0) / s_y(t) for t in ts]
    return curve, want


def test_gapped_continuous_repr_route_matches_exact():
    # inside the gap f = 0 while F(x - t) S(x) is not
    curve, exact = _gapped_continuous_curve(np.array([0.0, 0.5, 1.0, 2.5]))
    for repr_, want in zip(curve.m_repr, exact):
        assert abs(repr_ - want) / (1 + want) <= 1e-6


def test_gapped_continuous_direct_route_matches_exact():
    # the mixture breaks at 1 and 3: stop-loss nodes there, and outer
    # panels split where S(x + t) kinks, at 1 - t and 3 - t
    curve, exact = _gapped_continuous_curve(np.array([0.0, 0.5, 1.0, 2.5]))
    for direct, want in zip(curve.m_direct, exact):
        assert abs(direct - want) / (1 + want) <= 1e-9


_FAR_TAIL_GRIDS = [
    ("damped-hazard:theta=0.1", np.linspace(0, 20, 8)),
    ("weibull:alpha=1.5", np.linspace(0, 20, 9)),
]


@pytest.mark.parametrize("spec,ts", _FAR_TAIL_GRIDS, ids=[s for s, _ in _FAR_TAIL_GRIDS])
def test_far_tail_routes_agree(spec, ts):
    # x + t passes the last stop-loss node, q(1 - 1e-12), from t of about 8
    curve = mean_excess_abs_diff(make_distribution(spec), ts)
    gap = np.abs(curve.m_direct - curve.m_repr) / (1 + np.abs(curve.m_direct))
    assert float(gap.max()) <= 1e-6


def test_normal_far_tail_routes_match_half_normal():
    # X - X' ~ N(0, 2), so Y is half-normal and m_Y(t) = 2 ierfc(t/2) / erfc(t/2)
    # with ierfc(z) = exp(-z^2) / sqrt(pi) - z erfc(z); both integrands of the
    # change-of-measure route are below 1e-14 here, under EPSABS unscaled
    ts = np.array([10.5, 12.0])
    curve = mean_excess_abs_diff(make_distribution("normal"), ts)
    with mp.workdps(40):
        for t, direct, repr_ in zip(ts, curve.m_direct, curve.m_repr):
            z = mp.mpf(float(t)) / 2
            want = float(2 * (mp.exp(-z * z) / mp.sqrt(mp.pi) - z * mp.erfc(z)) / mp.erfc(z))
            assert abs(direct - want) / (1 + want) <= 1e-9
            assert abs(repr_ - want) / (1 + want) <= 1e-9


def test_exponential_curve_is_one_far_past_the_table():
    # |X - X'| of two unit exponentials is unit exponential; the last
    # stop-loss node is at 27.6, so Pi(X + 60) is read up to 88
    curve = mean_excess_abs_diff(make_distribution("weibull:alpha=1"), np.linspace(0, 60, 7))
    assert float(np.max(np.abs(curve.m_direct - 1.0))) <= 1e-12


def _erfi_interval_stop_loss(x):
    big_a = lambda z: z * mp.erfi(z) - mp.exp(z * z) / mp.sqrt(mp.pi)
    return (1 - x) - (big_a(2) - big_a(1 + x)) / mp.erfi(2) if x < 1 else mp.mpf(0)


# Pi(y) = E[(X - y)+] on and above the lower end of the support
_STOP_LOSS = {
    "erfi-interval": _erfi_interval_stop_loss,
    "beta:alpha=2": lambda y: (1 - y) ** 2 * (2 + y) / 3 if y < 1 else mp.mpf(0),
    "weibull:alpha=1": lambda y: mp.exp(-y),
    "gpd:alpha=0.25": lambda y: (1 + y / 4) ** -3 / mp.mpf(0.75),
    "normal": lambda y: mp.npdf(y) - y * mp.ncdf(-y),
}


@pytest.mark.parametrize("spec", list(_STOP_LOSS))
def test_stop_loss_read_matches_closed_form(spec):
    # four random points in every interval of the node table, and three past
    # its last node, against the closed form at 30 digits
    d = make_distribution(spec)
    nodes = d._stop_loss_nodes()[0]
    rng = np.random.default_rng(11)
    inside = nodes[:-1, None] + np.diff(nodes)[:, None] * rng.random((len(nodes) - 1, 4))
    ys = np.concatenate([inside.ravel(), nodes[-1] + (nodes[-1] - nodes[0]) * np.array([1e-3, 0.1, 1.0])])
    got = d.stop_loss(ys)
    with mp.workdps(30):
        exact = np.array([float(_STOP_LOSS[spec](mp.mpf(float(y)))) for y in ys])
        first = float(_STOP_LOSS[spec](mp.mpf(float(nodes[0]))))
    err = np.abs(got - exact)
    assert np.all(err <= 1e-14 * first + 1e-11 * exact), float(np.max(err / (1e-14 * first + 1e-11 * exact)))


# Pi(left node) of every stop-loss node interval at least 1e-290, so that
# 4 eps of it is a normal double
_LEGVAL_LAWS = [*_STOP_LOSS, "gamma:alpha=0.5", "gamma:alpha=2", "weibull:alpha=0.5", "weibull:alpha=2.5",
                "gpd:alpha=0", "gpd:alpha=0.45", "normal:sigma=2", "beta:alpha=0.5", "beta:alpha=3,beta=2",
                "logistic", "erf-hazard", "erfi-unit", "damped-hazard:theta=0.1", "normal-mix"]


@pytest.mark.parametrize("spec", _LEGVAL_LAWS)
def test_stop_loss_read_is_legval_to_4_eps(spec):
    # the power-form Horner read against legval on the Legendre coefficients
    # recomputed from the table's panel values of sf, at eight random points
    # of every node interval and at the nodes: within 4 eps Pi(left node)
    d = make_distribution(spec)
    nodes, pi, _ = d._stop_loss_nodes()
    x, half = panel_nodes(nodes[:-1], nodes[1:])
    leg = _ANTIDERIV @ np.asarray(d.sf(x.ravel()), dtype=float).reshape(x.shape).T
    rng = np.random.default_rng(12)
    k = np.repeat(np.arange(len(nodes) - 1), 8)
    ys = np.concatenate([nodes[k] + np.diff(nodes)[k] * rng.random(len(k)), nodes])
    i = np.clip(np.searchsorted(nodes, ys), 1, len(nodes) - 1) - 1
    h = half[i]
    want = np.maximum(pi[i + 1] + h * legval((ys - nodes[i]) / h - 1.0, leg[:, i], tensor=False), 0.0)
    ok = pi[i] >= 1e-290
    err = np.abs(d._stop_loss_read(ys) - want)[ok] / (np.finfo(float).eps * pi[i][ok])
    assert np.all(err <= 4.0), float(np.max(err))


def _searched_read(d, ys):
    """Pi at ys as the table read searched each point alone: polyval, which
    is Horner's rule, on the power coefficients of the node interval
    searchsorted(nodes, y) names, a panel of sf below the first node, 0 past
    the last."""
    nodes, pi, coef = d._stop_loss_nodes()
    j = np.clip(np.searchsorted(nodes, ys), 1, len(nodes) - 1)
    half = 0.5 * (nodes[j] - nodes[j - 1])
    with np.errstate(all="ignore"):
        out = polyval((ys - nodes[j - 1]) / half - 1.0, coef[:, j - 1], tensor=False)
    below = ys < nodes[0]
    out[below] = pi[0] + panels(d.sf, ys[below], nodes[0])
    out[ys > nodes[-1]] = 0.0
    return np.maximum(out, 0.0)


@pytest.mark.parametrize("spec", list(_STOP_LOSS))
def test_merged_interval_search_is_horner_on_searched_intervals(spec):
    # sorted reads find their node intervals by one merge of the nodes into
    # them; with duplicates, values equal to nodes, points below and past the
    # table, and NaN (which takes the point-by-point search), sorted or not,
    # each read is Horner's rule on the interval searchsorted(nodes, y) finds
    d = make_distribution(spec)
    nodes = d._stop_loss_nodes()[0]
    rng = np.random.default_rng(13)
    span = nodes[-1] - nodes[0]
    ys = np.concatenate([
        rng.uniform(nodes[0], nodes[-1], 3000), rng.uniform(nodes[0], nodes[0] + 0.01 * span, 500),
        nodes, nodes[::5], nodes[0] - span * rng.random(20), nodes[-1] + span * rng.random(20),
    ])
    ys = np.sort(np.concatenate([ys, ys[::7]]))
    assert np.array_equal(d._stop_loss_read(ys), _searched_read(d, ys))
    mixed = rng.permutation(np.append(ys, np.nan))
    assert np.array_equal(d._stop_loss_read(mixed), _searched_read(d, mixed), equal_nan=True)
    assert np.array_equal(d._stop_loss_read(np.append(ys, np.nan))[:-1], d._stop_loss_read(ys))
    inside = ys[(ys >= nodes[0]) & (ys <= nodes[-1])]
    assert np.array_equal(d._stop_loss_read(inside), _searched_read(d, inside))


@pytest.mark.parametrize(
    "build",
    [lambda: make_distribution("normal"), lambda: make_distribution("weibull:alpha=0.5"),
     lambda: make_distribution("beta:alpha=2"), lambda: make_distribution("poisson:theta=2"),
     lambda: make_distribution("zipf:alpha=3"), lambda: affine(make_distribution("zipf:alpha=2.5"), -1.0, 0.0)],
    ids=["normal", "weibull", "beta", "poisson", "zipf", "reflected-zipf"],
)
def test_stop_loss_edge_reads_agree_on_both_kinds(build):
    # Pi(-inf) = inf, Pi(inf) = 0 and Pi(nan) = nan, in arrays and as scalars
    d = build()
    got = d.stop_loss(np.array([np.inf, -np.inf, np.nan, 0.5]))
    assert got[0] == 0.0 and got[1] == np.inf and np.isnan(got[2])
    assert got[3] == d.stop_loss(0.5)
    assert d.stop_loss(np.inf) == 0.0 and d.stop_loss(-np.inf) == np.inf and math.isnan(d.stop_loss(np.nan))


def test_stop_loss_below_the_table_reads_no_polynomial_overflow():
    # weibull(0.5) has mean 2: Pi(-50) = 52, read by a panel of sf below the
    # table without running the Horner read far outside [-1, 1]
    d = make_distribution("weibull:alpha=0.5")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert d.stop_loss(-50.0) == 52.0


_FAR_LATTICE_READS = """
import resource
import warnings
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
import numpy as np
from dispersion import Distribution, Support, errors, make_distribution
from dispersion.dist import LATTICE
d = make_distribution("poisson:theta=2")
with warnings.catch_warnings():
    warnings.simplefilter("error")
    print(*(d.stop_loss(x) for x in (1e150, 1.3e154, 1e160, 1e300)))

# S(k) = e^-k + 1e-200 (k + 2)^-0.1 on k >= 0, without tail sums: its table
# holds k = 0 to 28, and far out f is 0 where S is not and sum S diverges
def sf(x):
    k = np.floor(np.asarray(x, dtype=float))
    return np.where(k < 0, 1.0, np.exp(-k) + 1e-200 * (np.maximum(k, 0.0) + 2.0) ** -0.1)
def pdf(x):
    x = np.asarray(x, dtype=float)
    return np.where((x >= 0) & (x == np.floor(x)), sf(x - 1.0) - sf(x), 0.0)
slow = Distribution(support=Support(0, np.inf, LATTICE), pdf=pdf, cdf=lambda x: 1.0 - sf(x), sf=sf, label="slow")
print(len(slow.lattice_table()[0]), slow.stop_loss(10.0) > 0)
try:
    slow.stop_loss(1e160)
except errors.SupportTooLarge:
    print("SupportTooLarge")
"""


def test_lattice_stop_loss_far_past_the_table_ends():
    # past x = 1.3e154 the tail block holds x * x * f = inf * 0 = NaN; the sum
    # ends, without a warning, at a block of zero f and S, and a sum of S that
    # does not end raises once 2^19 points are counted, under a 3 GB
    # address-space cap and a timeout in a child process
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _FAR_LATTICE_READS], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0.0"] * 4 + ["29", "True", "SupportTooLarge"]


def test_stop_loss_reads_do_not_depend_on_earlier_reads():
    # a continuous law's stop-loss table is built once, its tail included, so
    # a read repeats bit for bit after a read further out and the cached table
    # stays the same object
    d = make_distribution("normal")
    ys = np.array([1.0, 4.5, 9.5])
    first = [v.hex() for v in d.stop_loss(ys)]
    table = d._stop_loss_nodes()
    d.stop_loss(18.0)
    assert [v.hex() for v in d.stop_loss(ys)] == first
    assert d._stop_loss_nodes() is table
    for spec, hi in (("gamma:alpha=2", 6.0), ("normal", 4.5)):
        d = make_distribution(spec)
        ts = np.linspace(0, hi, 32)
        c = mean_excess_abs_diff(d, ts)
        table = d._stop_loss_nodes()
        mean_excess_abs_diff(d, np.linspace(0, 4 * hi, 32))
        again = mean_excess_abs_diff(d, ts)
        for got, want in ((again.m_direct, c.m_direct), (again.m_repr, c.m_repr)):
            assert [v.hex() for v in got] == [v.hex() for v in want], spec
        assert d._stop_loss_nodes() is table


def test_lattice_stop_loss_is_zero_past_a_support_bounded_above():
    # -zipf(2.5) ends at -1: Pi(x) = (-1 - x) f(-1) on [-2, -1] and 0 above,
    # however far past the table's top x is
    d = affine(make_distribution("zipf:alpha=2.5"), -1.0, 0.0)
    got = d.stop_loss(np.array([-1.5, -1.0, -0.5, 0.5, 5.0, 1e3, 1e7]))
    assert got[0] == pytest.approx(0.5 * float(d.pdf(-1.0)), rel=1e-15, abs=0)
    assert np.all(got[1:] == 0.0)


def _repr_one_t(d, t):
    """The change-of-measure route at one t by two lone integrals: the
    reference the batched curve must repeat bit for bit."""
    probe = d._stop_loss_nodes()[0][::32]
    scale = float(np.max(d.cdf(probe) * d.sf(probe + t)))
    scale = scale if 0.0 < scale < np.inf else 1.0

    def weighted(g):
        def fn(x):
            v = np.asarray(d.cdf(x - t), dtype=float) * g(x) / scale
            return np.where(np.isfinite(v), v, 0.0)

        return fn

    lo, hi = d.support.lower, d.support.upper
    start = lo + t if np.isfinite(lo) else lo
    return integrate(weighted(d.sf), start, hi)[0] / integrate(weighted(d.pdf), start, hi)[0]


@pytest.mark.parametrize(
    "spec,ts",
    [
        ("normal", np.linspace(0, 12, 8)),
        ("gamma:alpha=2", np.linspace(0, 6, 8)),
        ("weibull:alpha=0.5", np.linspace(0, 12, 8)),
        ("beta:alpha=2", np.linspace(0, 0.9, 8)),
        ("erfi-unit", np.linspace(0, 0.9, 8)),
    ],
)
def test_batched_repr_route_repeats_lone_integrals(spec, ts):
    d = make_distribution(spec)
    curve = mean_excess_abs_diff(d, ts)
    assert curve.m_repr.tolist() == [_repr_one_t(d, float(t)) for t in ts]


@pytest.mark.parametrize(
    "spec,ts",
    [
        ("normal", np.linspace(0, 4.5, 32)),
        ("normal-mix", np.linspace(0, 8, 32)),
        ("erfi-interval", np.linspace(0, 1.8, 32)),
    ],
)
def test_curve_point_repeats_its_lone_t(spec, ts):
    # a t gives the same bits by both routes whatever other t share its call
    d = make_distribution(spec)
    curve = mean_excess_abs_diff(d, ts)
    for t, direct, repr_ in zip(ts, curve.m_direct, curve.m_repr):
        alone = mean_excess_abs_diff(d, [t])
        assert (alone.m_direct[0], alone.m_repr[0]) == (direct, repr_)


def test_weibull_far_tail_routes_match_mpmath():
    # X = U^2, U unit exponential, so S(x) = exp(-sqrt x) and Pi(x) =
    # 2 (sqrt x + 1) exp(-sqrt x); E[g(X + t)] = int e^-u g(u^2 + t) du. Every
    # t is past the last stop-loss node the change-of-measure scale probes (757.5)
    d = make_distribution("weibull:alpha=0.5")
    ts = np.array([1000.0, 3000.0, 10000.0])
    curve = mean_excess_abs_diff(d, ts)
    with mp.workdps(40):
        for t, direct, repr_ in zip(ts, curve.m_direct, curve.m_repr):
            r = lambda u: mp.sqrt(u * u + t)
            num = mp.quad(lambda u: mp.exp(-u - r(u)) * 2 * (r(u) + 1), [0, 10, 100, mp.inf])
            den = mp.quad(lambda u: mp.exp(-u - r(u)), [0, 10, 100, mp.inf])
            want = float(num / den)
            assert abs(direct - want) <= 1e-9 * want
            assert abs(repr_ - want) <= 1e-9 * want


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


@pytest.mark.parametrize(
    ("spec", "ts"),
    [
        pytest.param("geometric:p=0.5", [0.5], id="geometric-half"),
        pytest.param("geometric:p=0.5", [-1.0], id="geometric-negative"),
        pytest.param("normal", [np.nan], id="normal-nan"),
        pytest.param("gamma:alpha=2", [np.nan], id="gamma-nan"),
        pytest.param("gamma:alpha=2", [0.0, np.nan], id="gamma-zero-nan"),
        pytest.param("normal", [np.inf], id="normal-inf"),
        pytest.param("normal", [-np.inf], id="normal-minus-inf"),
        pytest.param("poisson:theta=2", [np.inf], id="poisson-inf"),
    ],
)
def test_curve_rejects_non_integer_lattice_t(spec, ts):
    # a non-integer t on a lattice, and a negative or non-finite t on either
    # kind, is refused by the grid check before any integral or sum
    match = "integer t" if ts == [0.5] else "finite and nonnegative"
    with pytest.raises(ValueError, match=match):
        mean_excess_abs_diff(make_distribution(spec), np.array(ts))


def test_degenerate_t_raises():
    d = make_distribution("erfi-unit")  # Y <= 1
    with pytest.raises(errors.DegenerateY):
        mean_excess_abs_diff(d, np.array([2.0]))


# ---------------------------------------------------------------------------
# concentration value and discrete identities
# ---------------------------------------------------------------------------


def test_concentration_geometric_half():
    c = concentration(make_distribution("geometric:p=0.5"))
    assert c.lambda_ == pytest.approx(1 / 3, rel=1e-12, abs=0)
    assert c.odds_bound == pytest.approx(1.0, rel=1e-12, abs=0)


def test_concentration_geometric_near_one():
    c = concentration(make_distribution("geometric:p=0.999"))
    assert c.lambda_ == pytest.approx(0.999 / (2 - 0.999), rel=1e-12, abs=0)
    assert c.lambda_ == pytest.approx(0.998, abs=5e-4)


def test_concentration_negbinomial_bound_formula():
    p = 0.5
    c = concentration(make_distribution(f"negbinomial:r=2,p={p}"))
    expected = 2 / p - 1 / (2 - (2 - p) * p) - 1
    assert c.odds_bound == pytest.approx(expected, rel=1e-10, abs=0)
    assert c.odds_bound == pytest.approx(2.2, rel=1e-10, abs=0)


# Lambda = P(X = X') in closed form at 30 digits, apart from the table:
# geometric p / (2 - p); poisson exp(-2 theta) I0(2 theta), the Skellam law
# at 0; zipf zeta(2 s) / zeta(s)^2 with s = alpha + 1; negbinomial
# p^(2 r) 2F1(r, r; 1; q^2)
_CLOSED_LAMBDA = {
    "geometric:p=0.2": lambda: mp.mpf(0.2) / (2 - mp.mpf(0.2)),
    "geometric:p=0.5": lambda: mp.mpf(0.5) / (2 - mp.mpf(0.5)),
    "geometric:p=0.8": lambda: mp.mpf(0.8) / (2 - mp.mpf(0.8)),
    "poisson:theta=0.5": lambda: mp.exp(-1) * mp.besseli(0, 1),
    "poisson:theta=2.5": lambda: mp.exp(-5) * mp.besseli(0, 5),
    "poisson:theta=50": lambda: mp.exp(-100) * mp.besseli(0, 100),
    "zipf:alpha=2.5": lambda: mp.zeta(7) / mp.zeta(3.5) ** 2,
    "zipf:alpha=4": lambda: mp.zeta(10) / mp.zeta(5) ** 2,
    "negbinomial:r=0.5,p=0.5": lambda: mp.mpf(0.5) * mp.hyp2f1(0.5, 0.5, 1, mp.mpf(0.25)),
    "negbinomial:r=2,p=0.3": lambda: mp.mpf(0.3) ** 4 * mp.hyp2f1(2, 2, 1, (1 - mp.mpf(0.3)) ** 2),
}


@pytest.mark.parametrize("spec", list(_CLOSED_LAMBDA))
def test_concentration_matches_closed_forms(spec):
    with mp.workdps(30):
        want = float(_CLOSED_LAMBDA[spec]())
    # poisson(50)'s pmf, exp(k log theta - theta - lgamma(k + 1)), carries the
    # rounding of exponent terms near 200: 200 eps = 4.4e-14
    rel = 4.4e-14 if spec == "poisson:theta=50" else 1e-15
    assert concentration(make_distribution(spec)).lambda_ == pytest.approx(want, rel=rel, abs=0)


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
    assert abs(2 * d.shifted_means([0.0])[0][0] - (1 - lam)) <= 1e-10


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
    assert rep.sd == pytest.approx(1.0, rel=1e-8, abs=0)
    assert rep.gmd == pytest.approx(1.0, rel=1e-8, abs=0)


def test_tail_dispersion_matches_composition():
    d = make_distribution("gamma:alpha=2")
    rep = tail_dispersion(d, "lower", 1.5)
    t = truncate(d, "lower", 1.5)
    assert rep.sd == pytest.approx(sd_numeric(t)[0], rel=1e-12, abs=0)
    assert rep.gmd == pytest.approx(gmd_numeric(t)[0], rel=1e-12, abs=0)


def test_gmd_that_quadrature_misses_is_an_error():
    # the integral of F S over (1e6, inf) comes out negative, -0.0032 with an
    # error estimate of 0.0029, against a true GMD of 380,954
    t = truncate(make_distribution("gpd:alpha=0.25"), "lower", 1e6)
    with pytest.raises(errors.DivergentMoment):
        gmd_numeric(t)


def test_tail_dispersion_zipf_keeps_tail_correction():
    # exact conditional moments from Hurwitz zeta sums
    from scipy.special import zeta

    d = make_distribution("zipf:alpha=3")
    trunc = truncate(d, "lower", 10.0)
    mass = zeta(4, 11) / zeta(4)
    m1 = zeta(3, 11) / zeta(4) / mass
    m2 = zeta(2, 11) / zeta(4) / mass
    expected_sd = math.sqrt(m2 - m1 * m1)
    assert sd_numeric(trunc)[0] == pytest.approx(expected_sd, rel=1e-10, abs=0)


def test_tail_dispersion_damped_hazard_sign():
    d = make_distribution("damped-hazard:theta=0.1")
    assert tail_dispersion(d, "lower", 10.0).diff >= 0
    assert tail_dispersion(d, "lower", 15.0).diff >= 0


def test_tail_dispersion_normal_mix_sign():
    d = make_distribution("normal-mix")
    assert tail_dispersion(d, "lower", 2.0).diff <= 0
    assert tail_dispersion(d, "upper", -2.0).diff <= 0
