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
    affine,
    brute_force_lattice,
    errors,
    make_distribution,
    mc_estimate,
    truncate,
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


@pytest.mark.parametrize("seed", [-1, 2**128, -(2**200)])
def test_mc_rejects_a_seed_philox_cannot_key(seed):
    with pytest.raises(ValueError, match=rf"^seed must be .* got {seed}$"):
        mc_estimate(make_distribution("normal"), 10**4, seed)


def test_mc_accepts_the_largest_seed():
    est = mc_estimate(make_distribution("normal"), 10**4, 2**128 - 1)
    assert est.seed == 2**128 - 1


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


# mc_estimate(law, 20_000, 7) of the lattice representatives: (sd, gmd, tie
# probability) as float hex, as the two-sided table search of every draw gives
# them and numpy's fixed-order sum weighs the batches; here every draw reads
# the guide table, built first
_LATTICE_MC_BITS = {
    "geometric:p=0.5": ("0x1.69fe50665e37ep+0", "0x1.5305532617c1cp+0", "0x1.58fc504816f00p-2"),
    "zipf:alpha=3": ("0x1.147de9fc7f315p-1", "0x1.adfa43fe5c91dp-3", "0x1.b72b020c49ba6p-1"),
    "poisson:theta=2": ("0x1.69ac9786441c8p+0", "0x1.89758e219652cp+0", "0x1.ad288ce703afcp-3"),
    "negbinomial:r=2,p=0.5": ("0x1.fffd21fd2023dp+0", "0x1.0801a36e2eb1cp+1", "0x1.81205bc01a36ep-3"),
}


@pytest.mark.parametrize("spec", list(_LATTICE_MC_BITS))
def test_mc_lattice_estimates_are_pinned(spec):
    d = make_distribution(spec)
    d._lattice_guide()
    e = mc_estimate(d, 20_000, 7)
    assert (e.sd_hat.hex(), e.gmd_hat.hex(), e.lambda_hat.hex()) == _LATTICE_MC_BITS[spec]


# mc_estimate(law, 20_000, 7) of laws drawn through the inverse table: (sd,
# gmd, ci_sd, ci_gmd) as float hex, as _horner on each gathered coefficient
# row gives them, so any change to the table read shows; gamma and beta read
# the table because their ppf is iterative, the others have no ppf
_TABLE_MC_BITS = {
    "gamma:alpha=2": ("0x1.69d4a26d3af92p+0", "0x1.7df07a943dc28p+0", "0x1.99bd985253bd6p-6", "0x1.980a81f4f01a2p-6"),
    "beta:alpha=2": ("0x1.e20cf3e2abd16p-3", "0x1.10676b8837a96p-2", "0x1.6b29642b8c57cp-9", "0x1.cf6a40449d4cfp-9"),
    "erf-hazard": ("0x1.84e42d71a47f9p-1", "0x1.58dbae3fc166cp-1", "0x1.62faf2ae235dap-6", "0x1.02d94b2901deap-6"),
    "normal-mix": ("0x1.1879076144cddp+0", "0x1.13112128b1354p+0", "0x1.a7dbaaaa94501p-6", "0x1.643e1b1d750a5p-6"),
    "truncate(damped-hazard:theta=0.1,lower,10)":
        ("0x1.b650cddce55a0p-3", "0x1.b359772fdbcfap-3", "0x1.2b05a23d93520p-8", "0x1.06c63b49c5e3ep-8"),
}


_TABLE_MC_LAWS = {
    **{s: lambda s=s: make_distribution(s) for s in ("gamma:alpha=2", "beta:alpha=2", "erf-hazard", "normal-mix")},
    "truncate(damped-hazard:theta=0.1,lower,10)":
        lambda: truncate(make_distribution("damped-hazard:theta=0.1"), "lower", 10.0),
}


@pytest.mark.parametrize("name", list(_TABLE_MC_BITS))
def test_mc_table_estimates_are_pinned(name):
    e = mc_estimate(_TABLE_MC_LAWS[name](), 20_000, 7)
    assert (e.sd_hat.hex(), e.gmd_hat.hex(), e.ci_sd.hex(), e.ci_gmd.hex()) == _TABLE_MC_BITS[name]


# laws whose ppf is a direct formula, which Monte Carlo draws by ppf(u)
_DIRECT_LAWS = {
    **{s: lambda s=s: make_distribution(s) for s in ("weibull:alpha=0.5", "gpd:alpha=0.25", "normal", "logistic")},
    "affine(weibull:alpha=0.5,-2,1)": lambda: affine(make_distribution("weibull:alpha=0.5"), -2.0, 1.0),
    "truncate(normal,upper,1)": lambda: truncate(make_distribution("normal"), "upper", 1.0),
}
# laws Monte Carlo draws through the inverse table: an iterative ppf, or none
_TABLE_DRAWN_LAWS = {
    **_TABLE_MC_LAWS,
    "affine(gamma:alpha=2,-2,1)": lambda: affine(make_distribution("gamma:alpha=2"), -2.0, 1.0),
    "truncate(gamma:alpha=2,upper,3)": lambda: truncate(make_distribution("gamma:alpha=2"), "upper", 3.0),
}


@pytest.mark.parametrize("name", list(_DIRECT_LAWS) + list(_TABLE_DRAWN_LAWS))
def test_mc_draw_path_follows_the_ppf(name):
    direct = name in _DIRECT_LAWS
    d = (_DIRECT_LAWS if direct else _TABLE_DRAWN_LAWS)[name]()
    mc_estimate(d, 10**4, 3)
    for key in ("inverse", "hermite"):
        assert (key in d._cache) is not direct


@pytest.mark.parametrize("name", list(_DIRECT_LAWS))
def test_mc_direct_draws_are_the_ppf_at_the_clipped_uniforms(name):
    d = _DIRECT_LAWS[name]()
    u = np.clip(Generator(Philox(key=9)).random(5000), 1e-15, 1 - 1e-15)
    assert np.array_equal(_sample(d, Generator(Philox(key=9)), 5000), d.ppf(u))


@pytest.mark.parametrize("spec", ["weibull:alpha=0.5", "gpd:alpha=0.25", "normal", "logistic"])
def test_mc_direct_draws_keep_the_table_estimates(spec, monkeypatch):
    # the table is within 1e-12 in probability of the ppf, so drawing by the
    # ppf moves an estimate by far less than its confidence interval
    direct = mc_estimate(make_distribution(spec), 20_000, 7)
    quantile = Distribution.quantile
    monkeypatch.setattr(Distribution, "quantile", lambda self, p, table=False: quantile(self, p, table=True))
    table = mc_estimate(make_distribution(spec), 20_000, 7)
    assert direct.sd_hat == pytest.approx(table.sd_hat, rel=1e-8, abs=0)
    assert direct.gmd_hat == pytest.approx(table.gmd_hat, rel=1e-8, abs=0)


def test_mc_draws_a_ppf_law_through_its_table():
    # gamma's ppf is gammaincinv, an iterative inverse, so Monte Carlo draws
    # gamma through its certified inverse table; gamma(2) has no uncertified
    # sub-interval, so once the table is built (its nodes are ppf(u)) the ppf
    # is never called
    d = make_distribution("gamma:alpha=2")
    d._hermite_table()
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
    # extreme shapes, some with sub-intervals that read the ppf; each path is
    # forced, whichever one mc_estimate takes for the law
    d = make_distribution(spec)
    quantile = Distribution.quantile
    monkeypatch.setattr(Distribution, "quantile", lambda self, p, table=False: quantile(self, p, table=True))
    table = mc_estimate(d, 200_000, 11)
    assert "hermite" in d._cache
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
    trunc = truncate(d, "upper", 4000.0)
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
    assert ex.m_values[0] == pytest.approx(2.0, rel=1e-10, abs=0)
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
    refl = affine(make_distribution("geometric:p=0.4"), -1.0, 0.0)
    est = mc_estimate(refl, 10**5, 17)
    assert est.lambda_hat == pytest.approx(0.4 / 1.6, abs=0.01)
    assert est.gmd_hat == pytest.approx(2 * 0.6 / (0.4 * 1.6), abs=0.03)
    ex = brute_force_lattice(refl)
    assert ex.gmd == pytest.approx(2 * 0.6 / (0.4 * 1.6), abs=1e-9)


def _mc_two_draws(d, n, seed):
    """mc_estimate as it drew before: each batch from Philox(seed).jumped(b),
    X and X' by two calls, tie frequencies on every law; the batches weighed
    by the same fixed-order sum."""
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
    sd_hat = math.sqrt(float((w * sq_means).sum()) / 2.0)
    ci_m2 = _batch_ci(sq_means)
    lattice = d.is_lattice
    return OracleEstimate(
        sd_hat=sd_hat, gmd_hat=float((w * abs_means).sum()),
        lambda_hat=float((w * tie_freqs).sum()) if lattice else None,
        ci_sd=ci_m2 / (4.0 * sd_hat) if sd_hat > 0 else ci_m2, ci_gmd=_batch_ci(abs_means),
        ci_lambda=_batch_ci(tie_freqs) if lattice else None, n=n, seed=seed,
    )


@pytest.mark.parametrize("n", [20_000, 20_021, 10_007])
@pytest.mark.parametrize(
    "build",
    [lambda: make_distribution("gamma:alpha=2"), lambda: make_distribution("poisson:theta=2"),
     lambda: truncate(make_distribution("damped-hazard:theta=0.1"), "lower", 10.0)],
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
