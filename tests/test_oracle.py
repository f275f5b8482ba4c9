"""Monte Carlo and brute-force oracle behavior."""

import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.random import Generator, Philox

from dispersion import (
    Distribution,
    Support,
    brute_force_lattice,
    errors,
    make_distribution,
    mc_estimate,
)
from dispersion.dist import LATTICE
from dispersion.oracle import N_BATCHES, OracleEstimate, _batch_ci, _sample
from dispersion.measures import gmd_numeric, sd_numeric


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about 0.4 s of import time; the t quantile comes from
    # scipy.special, and quadrature is the package's own port of QUADPACK
    code = "import sys, dispersion; print('scipy.stats' in sys.modules, 'scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


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


def test_mc_draws_a_ppf_law_through_its_table():
    # every continuous law draws through its certified inverse table; gamma(2)
    # has no uncertified sub-interval, so its closed-form ppf is never called
    d = make_distribution("gamma:alpha=2")
    calls = []
    ppf = d.ppf
    d.ppf = lambda p: calls.append(np.size(p)) or ppf(p)
    mc_estimate(d, 10**5, 5)
    assert calls == []


@pytest.mark.parametrize(
    "spec",
    ["beta:alpha=0.1,beta=0.1", "beta:alpha=2,beta=0.3", "beta:alpha=50,beta=0.5",
     "gamma:alpha=0.01", "gamma:alpha=1000", "weibull:alpha=0.1"],
)
def test_mc_table_draws_match_ppf_draws_on_hard_shapes(spec, monkeypatch):
    # draws within 1e-12 in probability of the closed form move an estimate
    # far less than its confidence interval, here on poles, heavy tails and
    # extreme shapes, some with sub-intervals that read the ppf
    d = make_distribution(spec)
    table = mc_estimate(d, 200_000, 11)
    quantile = Distribution.quantile
    monkeypatch.setattr(Distribution, "quantile", lambda self, p, table=False: quantile(self, p))
    closed = mc_estimate(d, 200_000, 11)
    assert abs(table.sd_hat - closed.sd_hat) <= closed.ci_sd
    assert abs(table.gmd_hat - closed.gmd_hat) <= closed.ci_gmd


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
    # the summation adds the tail past its 1e-12 table, so the pair sums run
    # to a 1e-16 cut, past which light tails leave under 1e-12 of SD and GMD
    d = make_distribution(spec)
    ex = brute_force_lattice(d, mass_cut=1e-16)
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


def _mc_two_draws(d, n, seed):
    """mc_estimate as it drew before: each batch from Philox(seed).jumped(b),
    X and X' by two calls, tie frequencies on every law."""
    sizes = np.full(N_BATCHES, n // N_BATCHES, dtype=int)
    sizes[: n % N_BATCHES] += 1
    abs_means, sq_means, tie_freqs = np.empty(N_BATCHES), np.empty(N_BATCHES), np.empty(N_BATCHES)
    for b in range(N_BATCHES):
        gen = Generator(Philox(key=seed).jumped(b))
        m = int(sizes[b])
        x = _sample(d, gen, m)
        x2 = _sample(d, gen, m)
        delta = x - x2
        abs_means[b] = float(np.mean(np.abs(delta)))
        sq_means[b] = float(np.mean(delta * delta))
        tie_freqs[b] = float(np.mean(delta == 0.0))
    w = sizes / n
    sd_hat = math.sqrt(float(np.dot(w, sq_means)) / 2.0)
    ci_m2 = _batch_ci(sq_means)
    lattice = d.is_lattice
    return OracleEstimate(
        sd_hat=sd_hat, gmd_hat=float(np.dot(w, abs_means)),
        lambda_hat=float(np.dot(w, tie_freqs)) if lattice else None,
        ci_sd=ci_m2 / (4.0 * sd_hat) if sd_hat > 0 else ci_m2, ci_gmd=_batch_ci(abs_means),
        ci_lambda=_batch_ci(tie_freqs) if lattice else None, n=n, seed=seed,
    )


@pytest.mark.parametrize("n", [20_000, 20_021, 10_007])
@pytest.mark.parametrize(
    "build",
    [lambda: make_distribution("gamma:alpha=2"), lambda: make_distribution("poisson:theta=2"),
     lambda: __import__("dispersion").truncate(make_distribution("damped-hazard:theta=0.1"), "lower", 10.0)],
    ids=["gamma", "poisson", "truncate"],
)
def test_mc_batches_are_the_two_draw_loop_bit_for_bit(build, n):
    # one draw of 2m split into X and X', from the counter-built state, is
    # the two draws of m from the jumped state, odd m and n % 32 != 0 included
    assert mc_estimate(build(), n, 31) == _mc_two_draws(build(), n, 31)


@pytest.mark.parametrize("key", [0, 1, 7, 123456789, 2**64 + 5, 2**127 - 1])
def test_philox_counter_is_the_jumped_state(key):
    for b in range(N_BATCHES):
        built, jumped = Philox(key=key, counter=[0, 0, b, 0]), Philox(key=key).jumped(b)
        for part in ("counter", "key"):
            assert np.array_equal(built.state["state"][part], jumped.state["state"][part])
        assert built.state["buffer_pos"] == jumped.state["buffer_pos"]
        assert np.array_equal(Generator(built).random(37), Generator(jumped).random(37))
