"""Monte Carlo and brute-force oracle behavior."""

import subprocess
import sys

import numpy as np
import pytest

from dispersion import (
    Distribution,
    Support,
    brute_force_lattice,
    errors,
    make_distribution,
    mc_estimate,
)
from dispersion.dist import LATTICE
from dispersion.measures import gmd_numeric, sd_numeric


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about 0.4 s of import time; the t quantile comes from scipy.special
    code = "import sys, dispersion; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_mc_requires_minimum_n():
    with pytest.raises(ValueError):
        mc_estimate(make_distribution("normal"), 100, 1)


def test_mc_deterministic_given_seed():
    d = make_distribution("gamma:alpha=2")
    a = mc_estimate(d, 20000, 123)
    b = mc_estimate(d, 20000, 123)
    assert a == b  # bit-identical records
    c = mc_estimate(d, 20000, 124)
    assert c.gmd_hat != a.gmd_hat


def test_mc_exponential_self_check():
    # E|X - X'| = 1 for iid exp(1)
    est = mc_estimate(make_distribution("weibull:alpha=1"), 10**6, 42)
    assert est.gmd_hat == pytest.approx(1.0, abs=0.004)
    assert abs(est.gmd_hat - 1.0) <= 4 * est.ci_gmd


def test_mc_normal_gmd():
    est = mc_estimate(make_distribution("normal"), 10**6, 42)
    assert est.gmd_hat == pytest.approx(2 / np.sqrt(np.pi), abs=0.005)
    assert est.lambda_hat is None


def test_mc_geometric_lambda():
    est = mc_estimate(make_distribution("geometric:p=0.5"), 10**6, 42)
    assert est.lambda_hat == pytest.approx(1 / 3, abs=0.003)
    assert abs(est.lambda_hat - 1 / 3) <= 4 * est.ci_lambda


def test_mc_ci_scales_with_n():
    d = make_distribution("normal")
    small = mc_estimate(d, 10**4, 9)
    large = mc_estimate(d, 10**6, 9)
    ratio = small.ci_gmd / large.ci_gmd
    assert 5.0 <= ratio <= 20.0  # 10x within a factor of 2


def _two_point_law():
    pts = np.array([0.0, 1.0])

    def pdf(x):
        x = np.asarray(x, float)
        return np.where((x == 0.0) | (x == 1.0), 0.5, 0.0)

    def cdf(x):
        k = np.floor(np.asarray(x, float))
        return np.clip((k + 1) * 0.5, 0.0, 1.0)

    def sfn(x):
        k = np.floor(np.asarray(x, float))
        return 1.0 - np.clip((k + 1) * 0.5, 0.0, 1.0)

    return Distribution(
        support=Support(0, 1, LATTICE), pdf=pdf, cdf=cdf, sf=sfn, label="two-point"
    )


def test_brute_force_two_point_law():
    ex = brute_force_lattice(_two_point_law())
    assert ex.gmd == pytest.approx(0.5, abs=1e-14)
    assert ex.sd == pytest.approx(0.5, abs=1e-14)
    assert ex.lambda_ == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize(
    "spec",
    ["geometric:p=0.5", "poisson:theta=2", "negbinomial:r=2,p=0.4"],
)
def test_brute_force_matches_summation(spec):
    # identical 1e-12 mass cut on both routes; light tails leave ample slack
    d = make_distribution(spec)
    ex = brute_force_lattice(d, mass_cut=1e-12)
    assert abs(ex.gmd - gmd_numeric(d)[0]) <= 1e-10
    assert abs(ex.sd - sd_numeric(d)[0]) <= 1e-10


def test_brute_force_zipf_truncated_exact():
    # a bounded zipf makes both routes see the same law exactly
    d = make_distribution("zipf:alpha=3")
    trunc = __import__("dispersion").truncate(d, "upper", 4000.0)
    ex = brute_force_lattice(trunc)
    assert abs(ex.gmd - gmd_numeric(trunc)[0]) <= 1e-10
    assert abs(ex.sd - sd_numeric(trunc)[0]) <= 1e-10


def test_brute_force_zipf_full_within_tail_bound():
    # the polynomial tail beyond the 1e-12 mass cut carries ~1.4e-4 of the
    # second moment and ~2e-8 of the GMD; compare accordingly
    d = make_distribution("zipf:alpha=3")
    ex = brute_force_lattice(d)
    assert ex.sd == pytest.approx(sd_numeric(d)[0], abs=2e-4)
    assert ex.gmd == pytest.approx(0.21, abs=0.005)
    assert abs(ex.gmd - gmd_numeric(d)[0]) <= 5e-8


def test_brute_force_mean_excess_grid():
    ex = brute_force_lattice(make_distribution("geometric:p=0.5"), mass_cut=1e-14)
    assert ex.m_values[0] == pytest.approx(2.0, rel=1e-10)
    assert ex.m_ts[0] == 0.0


def test_brute_force_mean_excess_matches_measures():
    from dispersion import mean_excess_abs_diff

    d = make_distribution("poisson:theta=2")
    ex = brute_force_lattice(d, mass_cut=1e-14)
    ts = np.arange(6, dtype=float)
    curve = mean_excess_abs_diff(d, ts)
    assert np.allclose(ex.m_values[:6], curve.m_direct, rtol=1e-9)


def test_brute_force_support_cap():
    d = make_distribution("zipf:alpha=2.1")
    with pytest.raises(errors.SupportTooLarge):
        brute_force_lattice(d, mass_cut=1e-14)


def test_mc_reflected_lattice_law():
    # downward support enumeration and table sampling under reflection
    from dispersion import affine

    refl = affine(make_distribution("geometric:p=0.4"), -1.0, 0.0)
    est = mc_estimate(refl, 10**5, 17)
    assert est.lambda_hat == pytest.approx(0.4 / 1.6, abs=0.01)
    assert est.gmd_hat == pytest.approx(2 * 0.6 / (0.4 * 1.6), abs=0.03)
    ex = brute_force_lattice(refl)
    assert ex.gmd == pytest.approx(2 * 0.6 / (0.4 * 1.6), abs=1e-9)
