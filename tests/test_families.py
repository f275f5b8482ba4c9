"""Gamma's closed survival at integer shape and its series below shape 1,
and family densities at their support ends and at infinity."""

import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from dispersion import classify, make_distribution, mean_excess_abs_diff
from dispersion.families import _SERIES_X, ERLANG_MAX
from dispersion.hazard import hazard_rate, reverse_hazard_rate

from conftest import STANDARD_INSTANCES

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny  # smallest normal double
SUBNORMAL = 2.0**-1074


def _erlang_grid(n: int) -> np.ndarray:
    """[0, 1e3], denser beside the mean n and where e^(-x) underflows (past
    745), down to subnormal x."""
    return np.unique(np.concatenate([
        np.linspace(0.0, 1e3, 1001),
        n * np.array([0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0]),
        np.linspace(700.0, 800.0, 101),
        np.geomspace(1e-300, 1e-1, 31),
    ]))


@pytest.mark.parametrize("n", range(1, ERLANG_MAX + 1))
def test_erlang_sf_matches_mpmath(n):
    d = make_distribution(f"gamma:alpha={n}")
    x = _erlang_grid(n)
    with mp.workdps(50):
        ref = np.array([float(mp.gammainc(n, mp.mpf(float(v)), mp.inf, regularized=True)) for v in x])
    sf, scipy_sf = d.sf(x), special.gammaincc(float(n), x)
    normal = ref >= TINY
    err = np.abs(sf - ref)[normal] / ref[normal]
    scipy_err = np.abs(scipy_sf - ref)[normal] / ref[normal]
    # gammaincc's own error on this grid, plus 2 eps; the sum itself keeps to
    # 4.1 eps here, while gammaincc errs by up to 520 eps past x = 100
    assert err.max() <= scipy_err.max() + 2 * EPS
    assert err.max() <= 6 * EPS
    # where Q is subnormal, within gammaincc's absolute error plus 2 of its steps
    sub = ~normal
    assert np.all(np.abs(sf - ref)[sub] <= np.abs(scipy_sf - ref)[sub] + 2 * SUBNORMAL)
    assert np.max(np.abs(d.cdf(x) + sf - 1.0)) <= 4 * EPS


@pytest.mark.parametrize("n", range(1, ERLANG_MAX + 1))
def test_erlang_sf_special_values(n):
    d = make_distribution(f"gamma:alpha={n}")
    got = d.sf(np.array([-np.inf, -1.0, -0.0, 0.0, 1e30, np.inf, np.nan]))
    assert np.array_equal(got, [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, np.nan], equal_nan=True)
    assert d.sf(-1.0) == 1.0 and d.sf(np.inf) == 0.0 and np.isnan(d.sf(np.nan))


@pytest.mark.parametrize("alpha", [2.05, 2.55, ERLANG_MAX + 1.0])
def test_other_gamma_shapes_keep_gammaincc_bits(alpha):
    d = make_distribution(f"gamma:alpha={alpha!r}")
    x = np.concatenate([d.probe_grid(), [-1.0, 0.0, 1e-300, 750.0, np.inf, np.nan]])
    want = special.gammaincc(alpha, np.maximum(x, 0.0))
    assert np.array_equal(d.sf(x), want, equal_nan=True)


# shapes below 1: beside 0 and 1, and either side of 1/2, where log Gamma(1 + a)
# switches from the zeta series at a to the one at a - 1
_SMALL_SHAPES = [0.0102, 0.05, 0.3, 0.5, 0.5000001, 0.95, 0.999999]


@pytest.mark.parametrize("alpha", _SMALL_SHAPES)
def test_small_shape_gamma_sf_matches_mpmath(alpha):
    d = make_distribution(f"gamma:alpha={alpha!r}")
    # the series' region (0, 1.1], down to subnormal x and up to its edge
    x = np.unique(np.concatenate([
        np.geomspace(1e-300, 1e-2, 25),
        np.linspace(0.01, _SERIES_X, 56),
        [SUBNORMAL, 1e-320, np.nextafter(_SERIES_X, 0.0)],
    ]))
    with mp.workdps(50):
        a = mp.mpf(alpha)
        # Q = 1 - P, which loses at most three of the 50 digits here (Q > 1e-3)
        ref = np.array([float(1 - mp.gammainc(a, 0, mp.mpf(float(v)), regularized=True)) for v in x])
    sf = d.sf(x)
    err = np.abs(sf - ref) / ref
    scipy_err = np.abs(special.gammaincc(alpha, x) - ref) / ref
    assert err.max() <= scipy_err.max() + 2 * EPS
    # gammaincc's bits past the region's edge, at and below 0, and at inf and NaN
    grid = d.probe_grid()
    out = np.concatenate([
        [np.nextafter(_SERIES_X, 2.0)], np.linspace(1.2, 40.0, 50), grid[grid > _SERIES_X],
        [750.0, -np.inf, -1.0, -0.0, 0.0, np.inf, np.nan],
    ])
    assert np.array_equal(d.sf(out), special.gammaincc(alpha, np.maximum(out, 0.0)), equal_nan=True)
    assert d.sf(-1.0) == d.sf(0.0) == 1.0 and d.sf(np.inf) == 0.0 and np.isnan(d.sf(np.nan))
    assert np.ndim(d.sf(0.5)) == np.ndim(d.sf(5.0)) == 0


def test_gamma_one_is_weibull_one():
    g, w = make_distribution("gamma:alpha=1"), make_distribution("weibull:alpha=1")
    # one ppf, -log1p(-p), so one set of inverse-table nodes and one scan grid
    assert not g.ppf_iterative
    for a, b in zip(g._inverse_table(), w._inverse_table()):
        assert np.array_equal(a, b)
    assert np.array_equal(g.probe_grid(), w.probe_grid())
    ps = np.linspace(0.0, 1.0, 1001)
    assert np.array_equal(g.quantile(ps), w.quantile(ps))
    x = np.concatenate([g.probe_grid(), [0.0]])
    assert np.array_equal(g.pdf(x), w.pdf(x))
    assert np.array_equal(g.sf(x), w.sf(x))
    assert hazard_rate(g, 0.0) == hazard_rate(w, 0.0) == 1.0
    vg, vw = classify(g), classify(w)
    assert (vg.verdict, vg.basis) == (vw.verdict, vw.basis)
    for name in ("sd", "gmd"):
        a, b = getattr(vg.report, name), getattr(vw.report, name)
        assert abs(a - b) <= 4 * EPS * abs(b)
    # the direct route reads sf and the stop-loss table, built from the same
    # nodes and sf: bit for bit. The change-of-measure route also reads cdf,
    # gammainc(1, x) against -expm1(-x), which differ in the last bits
    ts = np.linspace(0.0, 8.0, 32)
    cg, cw = mean_excess_abs_diff(g, ts), mean_excess_abs_diff(w, ts)
    assert cg.baseline == cw.baseline
    assert np.array_equal(cg.m_direct, cw.m_direct)
    a, b = np.asarray(cg.m_repr), np.asarray(cw.m_repr)
    assert np.all(np.abs(a - b) <= 4 * EPS * np.abs(b))


@pytest.mark.parametrize("spec", [s for s in STANDARD_INSTANCES if not make_distribution(s).is_lattice])
def test_density_at_infinity_is_zero(spec):
    d = make_distribution(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(d.pdf(np.array([-np.inf, np.inf])), [0.0, 0.0])
        assert d.pdf(-np.inf) == d.pdf(np.inf) == 0.0


# (spec, density at the lower end, at the upper end): the finite limits where
# the end's exponent is zero
_END_DENSITIES = {
    "gamma:alpha=1": (1.0, 0.0),
    "gamma:alpha=0.5": (np.inf, 0.0),
    "gamma:alpha=2": (0.0, 0.0),
    "beta:alpha=1,beta=1": (1.0, 1.0),
    "beta:alpha=2": (0.0, 2.0),
    "beta:alpha=1,beta=3": (3.0, 0.0),
    "beta:alpha=3,beta=1": (0.0, 3.0),
    "beta:alpha=0.5,beta=0.5": (np.inf, np.inf),
}


@pytest.mark.parametrize("spec", list(_END_DENSITIES))
def test_density_at_support_ends_is_its_limit(spec):
    d = make_distribution(spec)
    lo, hi = d.support.lower, d.support.upper
    assert np.array_equal(d.pdf(np.array([lo, hi])), _END_DENSITIES[spec])
    if np.isfinite(_END_DENSITIES[spec][0]):
        # the rate at the end is the limit of the rates inside
        assert hazard_rate(d, lo) == _END_DENSITIES[spec][0]
        assert hazard_rate(d, lo + 1e-9) == pytest.approx(_END_DENSITIES[spec][0], abs=1e-8)
    if np.isfinite(hi) and np.isfinite(_END_DENSITIES[spec][1]):
        assert reverse_hazard_rate(d, hi) == _END_DENSITIES[spec][1]
        assert reverse_hazard_rate(d, hi - 1e-9) == pytest.approx(_END_DENSITIES[spec][1], abs=1e-7)
