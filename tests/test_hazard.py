"""Hazard-rate structure: op examples, scans, and the equivalence audit."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from dispersion import (
    affine,
    classify,
    equivalence_audit,
    errors,
    hazard_rate,
    log_concavity_scan,
    make_distribution,
    mean_excess,
    monotonicity_scan,
    residual_functions,
    reverse_hazard_rate,
)
from dispersion.hazard import (
    CONSTANT,
    DECREASING,
    INCREASING,
    LOG_CONCAVE,
    LOG_CONVEX,
    NEITHER,
    NON_MONOTONE,
    classify_sequence,
    hazard_scan,
    reverse_hazard_scan,
)
from dispersion.numerics import integrate

from conftest import STANDARD_INSTANCES


# ---------------------------------------------------------------------------
# pointwise values
# ---------------------------------------------------------------------------


def test_hazard_weibull_power_law():
    d = make_distribution("weibull:alpha=0.5")
    assert hazard_rate(d, 4.0) == pytest.approx(0.25, rel=1e-12, abs=0)


def test_hazard_geometric_constant():
    d = make_distribution("geometric:p=0.3")
    assert hazard_rate(d, 7.0) == pytest.approx(0.3, rel=1e-12, abs=0)
    assert hazard_rate(d, 0.0) == pytest.approx(0.3, rel=1e-12, abs=0)


def test_hazard_erf_family_at_zero():
    d = make_distribution("erf-hazard")
    assert hazard_rate(d, 0.0) == pytest.approx(2.0, rel=1e-12, abs=0)


def test_hazard_outside_support_raises():
    d = make_distribution("gamma:alpha=2")
    with pytest.raises(errors.OutsideSupport):
        hazard_rate(d, -1.0)


def test_hazard_tail_exhausted():
    d = make_distribution("normal")
    with pytest.raises(errors.TailExhausted):
        hazard_rate(d, 50.0)  # S underflows to exactly 0


def test_reverse_hazard_head_exhausted():
    d = make_distribution("normal")
    with pytest.raises(errors.HeadExhausted):
        reverse_hazard_rate(d, -50.0)


def test_reverse_hazard_exponential_far_tail():
    d = make_distribution("weibull:alpha=1")
    assert reverse_hazard_rate(d, 40.0) == pytest.approx(np.exp(-40.0), rel=1e-9, abs=0)


def test_reverse_hazard_erfi_interval():
    d = make_distribution("erfi-interval")
    expected = 2 / np.sqrt(np.pi) * np.exp(2.25) / float(special.erfi(1.5))
    assert reverse_hazard_rate(d, 0.5) == pytest.approx(expected, rel=1e-12, abs=0)


def test_reverse_hazard_uniform():
    d = make_distribution("beta:alpha=1")
    assert reverse_hazard_rate(d, 0.5) == pytest.approx(2.0, rel=1e-12, abs=0)


def test_residual_functions_basic():
    d = make_distribution("weibull:alpha=1")
    big_d, big_c = residual_functions(d, 1.0, 2.0)
    assert big_d == pytest.approx(np.exp(-2.0), rel=1e-12, abs=0)
    assert big_c == 0.0  # F(-1) = 0 below the support
    big_d, big_c = residual_functions(d, 1.0, 0.0)
    assert (big_d, big_c) == (1.0, 1.0)


def test_residual_gpd_value():
    d = make_distribution("gpd:alpha=0.25")
    big_d, _ = residual_functions(d, 1.0, 1.0)
    assert big_d == pytest.approx((1.5 / 1.25) ** -4, rel=1e-12, abs=0)
    assert big_d == pytest.approx(0.4823, abs=5e-5)


def test_mean_excess_exponential_memoryless():
    d = make_distribution("weibull:alpha=1")
    for t in (0.0, 1.0, 5.0):
        assert mean_excess(d, t) == pytest.approx(1.0, rel=1e-9, abs=0)


def test_mean_excess_gpd_mean():
    d = make_distribution("gpd:alpha=0.25")
    assert mean_excess(d, 0.0) == pytest.approx(4 / 3, rel=1e-9, abs=0)


def test_mean_excess_geometric():
    d = make_distribution("geometric:p=0.5")
    assert mean_excess(d, 0.0) == pytest.approx(2.0, rel=1e-9, abs=0)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
def test_zipf_mean_excess_matches_hurwitz(alpha):
    # Pi(t) = (zeta(a, t + 1) - t zeta(a + 1, t + 1)) / zeta(a + 1), S(t) =
    # zeta(a + 1, t + 1) / zeta(a + 1); the lattice table ends near 701 for
    # alpha = 4, so t = 701, 5000 and 6e5 read Pi past the table's end
    d = make_distribution(f"zipf:alpha={alpha}")
    for t in (1, 22, 125, 701, 5000, 600_000):
        s = special.zeta(alpha + 1, t + 1)
        want = (special.zeta(alpha, t + 1) - t * s) / s
        assert mean_excess(d, float(t)) == pytest.approx(want, rel=1e-13, abs=0), t


def test_geometric_mean_excess_is_memoryless_past_the_table():
    # E[X - t | X > t] = 1/p at every integer t; the table ends at q(1 - 1e-12)
    d = make_distribution("geometric:p=0.3")
    q = float(d.quantile(1 - 1e-12))
    assert q == d.lattice_table()[0][-1]
    for t in q + np.array([0.0, 1.0, 20.0, 100.0, 300.0]):
        assert mean_excess(d, t) == pytest.approx(1 / 0.3, rel=1e-13, abs=0), t


def _mp_mean_excess(pmf, ts, n=400):
    """E[X - t | X > t] = sum_{j > t} (j - t) f(j) / sum_{j > t} f(j), 40 digits."""
    with mp.workdps(40):
        f = [pmf(mp.mpf(j)) for j in range(n)]
        return [float(mp.fsum((j - t) * f[j] for j in range(t + 1, n)) / mp.fsum(f[t + 1 :])) for t in ts]


@pytest.mark.parametrize("spec,pmf,ts", [
    ("poisson:theta=2", lambda k: mp.exp(-2) * 2**k / mp.factorial(k), [0, 5, 12, 16, 17, 25, 40]),
    ("negbinomial:r=0.5,p=0.5",
     lambda k: mp.gamma(k + 0.5) / (mp.gamma(0.5) * mp.factorial(k)) * mp.mpf(0.5) ** (k + 0.5),
     [0, 3, 20, 36, 37, 60, 120]),
])
def test_lattice_mean_excess_matches_mpmath_sums(spec, pmf, ts):
    # the lattice table ends at 16 (poisson) and 36 (negbinomial)
    d = make_distribution(spec)
    for t, want in zip(ts, _mp_mean_excess(pmf, ts)):
        assert mean_excess(d, float(t)) == pytest.approx(want, rel=1e-13, abs=0), t


@pytest.mark.parametrize(
    "spec", ["gamma:alpha=2", "weibull:alpha=0.5", "gpd:alpha=0.3", "erf-hazard"]
)
def test_mean_excess_at_zero_is_quadrature_mean(spec):
    d = make_distribution(spec)
    mean, _ = integrate(lambda x: x * d.pdf(x), 0.0, np.inf)
    assert mean_excess(d, 0.0) == pytest.approx(mean, abs=1e-8 * (1 + mean))


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_scan_geometric_hazard_constant():
    d = make_distribution("geometric:p=0.4")
    v = hazard_scan(d)
    assert v.direction == CONSTANT
    assert v.is_nonincreasing and v.is_nondecreasing
    assert v.witness is None


def test_scan_erfi_hazard_increasing_reverse_non_monotone():
    d = make_distribution("erfi-interval")
    assert hazard_scan(d).direction == INCREASING
    rv = reverse_hazard_scan(d)
    assert rv.direction == NON_MONOTONE
    assert rv.witness is not None


def test_erfi_reverse_hazard_keeps_its_dip_on_a_grid_to_1e_12():
    # joined with the inverse-table nodes the grid reaches q(1e-12), where r
    # grows like 1/(x + 1); each step's own tolerance still sees the dip, and
    # the witness is its largest rise, not a step of the fall towards -1
    d = make_distribution("erfi-interval")
    xs = np.unique(np.concatenate([d.probe_grid(), d._inverse_table()[1]]))
    xs = xs[(xs > d.support.lower) & (xs < d.support.upper)]
    v = classify_sequence(xs, np.asarray(d.pdf(xs), float) / np.asarray(d.cdf(xs), float), "probe+inverse")
    assert v.direction == NON_MONOTONE
    x1, x2, (r1, r2) = v.witness
    assert -0.076 < x1 < x2 < 1.0 and 0.0 < r2 - r1 < 0.002


def test_erfi_reverse_hazard_sign_change_location():
    d = make_distribution("erfi-interval")
    xs = d.probe_grid()
    r = np.asarray(d.pdf(xs), float) / np.asarray(d.cdf(xs), float)
    x_min = float(xs[np.argmin(r)])
    assert x_min == pytest.approx(-0.076, abs=0.005)


def test_monotonicity_scan_generic_fn():
    d = make_distribution("gamma:alpha=2")
    v = monotonicity_scan(lambda x: np.asarray(x) ** 2, d)
    assert v.direction == INCREASING


def test_monotonicity_scan_maps_a_scalar_only_fn():
    # math functions refuse an array, so the scan maps them pointwise and
    # reaches the verdict of their vectorized twins
    d = make_distribution("gamma:alpha=2")
    pairs = [
        (lambda x: -math.log1p(x), lambda x: -np.log1p(x)),
        (lambda x: x * math.exp(-x), lambda x: x * np.exp(-x)),
    ]
    for scalar_fn, vector_fn in pairs:
        with pytest.raises(TypeError):
            scalar_fn(d.probe_grid())
        scalar, vector = monotonicity_scan(scalar_fn, d), monotonicity_scan(vector_fn, d)
        assert scalar.direction == vector.direction
        assert scalar.grid == vector.grid
        if vector.witness is not None:
            assert scalar.witness[:2] == vector.witness[:2]
    assert [monotonicity_scan(s, d).direction for s, _ in pairs] == [DECREASING, NON_MONOTONE]


def test_log_concavity_poisson_pmf():
    d = make_distribution("poisson:theta=2")
    assert log_concavity_scan(d, "pdf") == LOG_CONCAVE


def test_log_concavity_erfi_unit_pdf():
    assert log_concavity_scan(make_distribution("erfi-unit"), "pdf") == LOG_CONVEX


def test_log_concavity_erf_hazard_signature():
    # survival log-convex, but the density is neither (curvature flips at 0.43)
    d = make_distribution("erf-hazard")
    assert log_concavity_scan(d, "sf") == LOG_CONVEX
    assert log_concavity_scan(d, "pdf") == NEITHER


def test_erf_hazard_log_density_curvature_flip_location():
    d = make_distribution("erf-hazard")
    xs = np.linspace(0.01, 1.2, 2000)
    lf = np.asarray(d.logpdf(xs), float)
    slopes = np.diff(lf) / np.diff(xs)
    curv = np.diff(slopes) / np.diff(0.5 * (xs[:-1] + xs[1:]))
    flip = float(xs[1:-1][np.argmax(curv > 0)])
    assert flip == pytest.approx(0.43, abs=0.02)


# ---------------------------------------------------------------------------
# audit and cross-characterization invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", STANDARD_INSTANCES)
def test_equivalence_audit_passes_everywhere(spec, instances):
    report = equivalence_audit(instances[spec])
    assert report.equivalence_audit_pass, (
        spec,
        report.h_verdict.direction,
        report.r_verdict.direction,
        report.logconcavity,
    )


@pytest.mark.parametrize("spec", STANDARD_INSTANCES)
def test_classify_evidence_matches_a_fresh_audit(spec):
    # classify leaves the audit flag unread; its record computes the flag a
    # fresh audit of the same law computes
    hazard = classify(make_distribution(spec)).evidence.hazard
    assert "equivalence_audit_pass" not in vars(hazard)
    assert hazard.to_record() == equivalence_audit(make_distribution(spec)).to_record()


def test_audit_exponential_boundary_case():
    rep = equivalence_audit(make_distribution("gamma:alpha=1"))
    assert rep.h_verdict.direction == CONSTANT
    assert rep.equivalence_audit_pass


def test_audit_normal_all_log_concave():
    rep = equivalence_audit(make_distribution("normal"))
    assert rep.h_verdict.direction == INCREASING
    assert rep.r_verdict.direction == DECREASING
    assert rep.logconcavity["cdf"] == LOG_CONCAVE
    assert rep.logconcavity["sf"] == LOG_CONCAVE


def test_audit_weibull_dfr():
    rep = equivalence_audit(make_distribution("weibull:alpha=0.7"))
    assert rep.h_verdict.direction == DECREASING
    assert rep.logconcavity["sf"] == LOG_CONVEX
    assert rep.equivalence_audit_pass


_PROP31_SPECS = [
    "weibull:alpha=0.5", "gamma:alpha=0.5", "gpd:alpha=0.3",
    "zipf:alpha=3", "geometric:p=0.4",
]


@pytest.mark.parametrize("spec", _PROP31_SPECS)
def test_h_decreasing_implies_r_decreasing(spec):
    d = make_distribution(spec)
    hv = hazard_scan(d)
    assert hv.is_nonincreasing
    assert reverse_hazard_scan(d).is_nonincreasing
    # support constraints: bounded below, unbounded above
    assert np.isfinite(d.support.lower)
    assert not np.isfinite(d.support.upper)


@pytest.mark.parametrize("spec", _PROP31_SPECS)
def test_r_increasing_implies_h_increasing_via_reflection(spec):
    refl = affine(make_distribution(spec), -1.0, 0.0)
    rv = reverse_hazard_scan(refl)
    assert rv.is_nondecreasing
    assert hazard_scan(refl).is_nondecreasing
    # support constraints: bounded above, unbounded below
    assert np.isfinite(refl.support.upper)
    assert not np.isfinite(refl.support.lower)


@pytest.mark.parametrize("spec", STANDARD_INSTANCES)
def test_pdf_logconcave_implies_cdf_sf_logconcave(spec, instances):
    d = instances[spec]
    if log_concavity_scan(d, "pdf") == LOG_CONCAVE:
        assert log_concavity_scan(d, "cdf") == LOG_CONCAVE
        assert log_concavity_scan(d, "sf") == LOG_CONCAVE


def test_residual_values_stay_in_unit_interval():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    specs = st.sampled_from(
        ["gamma:alpha=0.5", "weibull:alpha=2", "gpd:alpha=0.3", "normal",
         "logistic", "erfi-interval", "damped-hazard:theta=0.2"]
    )

    @settings(max_examples=40, deadline=None)
    @given(spec=specs, q=st.floats(0.05, 0.95), t=st.floats(0.0, 3.0))
    def check(spec, q, t):
        d = make_distribution(spec)
        x = float(d.quantile(q))
        big_d, big_c = residual_functions(d, x, t)
        assert 0.0 <= big_d <= 1.0
        assert 0.0 <= big_c <= 1.0
        if t == 0.0:
            assert big_d == pytest.approx(1.0, abs=1e-12)
            assert big_c == pytest.approx(1.0, abs=1e-12)

    check()


def test_hazard_report_serializes_flat():
    rec = equivalence_audit(make_distribution("erfi-interval")).to_record()
    assert rec["h_direction"] == INCREASING
    assert rec["r_direction"] == NON_MONOTONE
    assert isinstance(rec["r_witness"], list) and len(rec["r_witness"]) == 4
    assert rec["h_witness"] is None
    assert rec["slack"] == 1e-9
    assert rec["grid"] == "quantile[1e-06,0.999999]n2048"
    assert rec["logconcavity_pdf"] == LOG_CONVEX
    lattice = equivalence_audit(make_distribution("poisson:theta=2")).to_record()
    assert lattice["grid"] == "lattice[mass>=1e-12]"
    assert lattice["slack"] == 1e-9
