"""Dominance classification, threshold scans, and the closure of both
dominance regimes under mixtures, truncation, convolution and reflection."""

import dataclasses
import itertools

import numpy as np
import pytest

from dispersion import (
    affine,
    classify,
    convolve,
    dispersion_report,
    errors,
    make_distribution,
    mix,
    ordering,
    threshold_scan,
    truncate,
)
from dispersion.hazard import (
    CONSTANT,
    DECREASING,
    INCREASING,
    SLACK,
    hazard_rate,
    hazard_scan,
    reverse_hazard_rate,
    reverse_hazard_scan,
)
from dispersion.ordering import (
    GMD_DOMINATES,
    INCONCLUSIVE,
    NO_BASIS,
    PROP_LOGCONCAVE,
    SD_DOMINATES,
    SIGN_TOL,
    TAIL_HAZARD,
    TAIL_LOGCONCAVE,
    THM_GMD_CONT,
    THM_GMD_DISC,
    THM_SD_CONT,
    THM_SD_DISC,
)

from conftest import STANDARD_INSTANCES


# ---------------------------------------------------------------------------
# classify: the worked examples
# ---------------------------------------------------------------------------


def test_classify_gpd():
    v = classify(make_distribution("gpd:alpha=0.25"))
    assert v.verdict == SD_DOMINATES
    assert v.basis == THM_SD_CONT
    expected = 1 / (0.75 * np.sqrt(0.5)) - 2 / (0.75 * 1.75)
    assert v.numeric_diff == pytest.approx(expected, rel=1e-12, abs=0)
    assert v.numeric_diff == pytest.approx(0.362, abs=5e-4)


@pytest.mark.parametrize("spec", ["gpd:alpha=0.25", "poisson:theta=2"])
def test_verdict_carries_its_report(spec):
    d = make_distribution(spec)
    v = classify(d)
    assert v.report == dispersion_report(d)
    assert v.numeric_diff == v.report.diff
    assert v.to_record()["numeric_diff"] == v.report.diff
    with pytest.raises(AttributeError):
        v.numeric_diff = 0.0


@pytest.mark.parametrize("alpha", [200, 300, 500, 1000])
def test_classify_certifies_gamma_of_large_shape(alpha):
    # GMD = 2 Gamma(alpha + 1/2) / (sqrt(pi) Gamma(alpha)) ~ 2 sqrt(alpha / pi) > SD = sqrt(alpha)
    v = classify(make_distribution(f"gamma:alpha={alpha}"))
    assert (v.verdict, v.basis) == (GMD_DOMINATES, PROP_LOGCONCAVE)
    assert v.report.gmd == pytest.approx(2 * np.sqrt(alpha / np.pi), rel=1 / alpha, abs=0)


def test_classify_logistic():
    v = classify(make_distribution("logistic"))
    assert v.verdict == GMD_DOMINATES
    assert v.basis == PROP_LOGCONCAVE
    assert v.numeric_diff == pytest.approx(np.pi / np.sqrt(3) - 2, rel=1e-12, abs=0)


def test_classify_erfi_interval_inconclusive():
    v = classify(make_distribution("erfi-interval"))
    assert v.verdict == INCONCLUSIVE
    assert v.basis == "none"
    assert v.numeric_diff == pytest.approx(0.005, abs=5e-4)


def test_classify_erfi_unit_via_both_tails():
    # the density is log-convex, yet both F and S are log-concave: the
    # two-sided rate theorem applies where the density route cannot
    v = classify(make_distribution("erfi-unit"))
    assert v.verdict == GMD_DOMINATES
    assert v.basis == THM_GMD_CONT
    assert v.numeric_diff < 0


def test_classify_poisson_bound_failure():
    v = classify(make_distribution("poisson:theta=0.5"))
    assert v.verdict == INCONCLUSIVE
    assert v.evidence.gmd_bound_ok is False
    assert v.numeric_diff > 0


def test_classify_poisson_bound_holds():
    v = classify(make_distribution("poisson:theta=2"))
    assert v.verdict == GMD_DOMINATES
    assert v.basis == THM_GMD_DISC
    assert v.evidence.gmd_bound_ok is True


def test_classify_exponential_constant_hazard_is_sd():
    v = classify(make_distribution("gamma:alpha=1"))
    assert v.verdict == SD_DOMINATES
    assert v.basis == THM_SD_CONT
    assert abs(v.numeric_diff) <= 1e-12


def test_classify_geometric_discrete_strict():
    v = classify(make_distribution("geometric:p=0.5"))
    assert v.verdict == SD_DOMINATES
    assert v.basis == THM_SD_DISC
    assert v.numeric_diff > 0


def test_classify_attaches_concentration_for_lattice():
    v = classify(make_distribution("geometric:p=0.5"))
    assert v.evidence.concentration is not None
    assert v.evidence.concentration.lambda_ == pytest.approx(1 / 3, rel=1e-12, abs=0)


def test_classify_withholds_the_hazard_certificate_on_a_lattice_bounded_above():
    # the truncated geometric keeps its constant hazard on the scan grid,
    # which would certify thm-sd-discrete, but a nonincreasing hazard rules
    # out a support end above. Its hazard 0.5 / (1 - 2^(k - 201)) rises by
    # less than an ulp of 0.5 up to the grid's top, k = 38
    d = truncate(make_distribution("geometric:p=0.5"), "upper", 200.0)
    v = classify(d)
    assert v.evidence.hazard.h_verdict.direction == CONSTANT
    assert (v.verdict, v.basis) == (INCONCLUSIVE, NO_BASIS)
    assert v.evidence.note == (
        "hazard scanned non-strictly decreasing but the lattice is bounded above, "
        "which that hypothesis rules out; certificate withheld"
    )
    assert v.numeric_diff == pytest.approx(0.0809, abs=1e-4)


def test_classify_withholds_the_reverse_hazard_certificate_on_a_lattice_bounded_below():
    # the reflection of the law above: constant reverse hazard, support
    # bounded below
    d = affine(truncate(make_distribution("geometric:p=0.5"), "upper", 200.0), -1, 0)
    v = classify(d)
    assert v.evidence.hazard.r_verdict.direction == CONSTANT
    assert (v.verdict, v.basis) == (INCONCLUSIVE, NO_BASIS)
    assert v.evidence.note == (
        "reverse hazard scanned non-strictly increasing but the lattice is bounded below, "
        "which that hypothesis rules out; certificate withheld"
    )
    assert v.numeric_diff == pytest.approx(0.0809, abs=1e-4)


def test_a_cut_near_the_grid_rises_the_hazard_as_its_pmf_says():
    # cut at 60, the geometric's hazard is 0.5 / (1 - 2^(k - 61)), 0.5 + 6.0e-8
    # at the grid's top k = 38, 60 times SLACK above 0.5: its table reads that
    # rise, and the reflection's reverse hazard reads it at -k, so neither
    # scans constant
    d = truncate(make_distribution("geometric:p=0.5"), "upper", 60.0)
    refl = affine(d, -1, 0)
    ks = d.probe_grid()
    assert ks[-1] == 38.0
    want = 0.5 / (1.0 - np.exp2(ks - 61.0))
    for k, w in zip(ks, want):
        assert hazard_rate(d, k) == pytest.approx(w, rel=1e-15, abs=0), k
        assert reverse_hazard_rate(refl, -k) == pytest.approx(w, rel=1e-15, abs=0), k
    # the table's S sums the pmf, p exp(k log q), each term within a few ulp
    scanned = d.probe_values("pdf")[1] / d._lattice_read("sf", ks - 1.0)
    np.testing.assert_allclose(scanned, want, rtol=4e-15, atol=0)
    assert want[-1] - 0.5 > 50 * SLACK * 0.5
    h, r = hazard_scan(d), reverse_hazard_scan(refl)
    assert (h.direction, r.direction) == (INCREASING, DECREASING)


# ---------------------------------------------------------------------------
# registry-wide soundness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", STANDARD_INSTANCES)
def test_soundness_certificate_never_contradicts_sign(spec, instances):
    # classify raises ConsistencyViolation internally on contradiction;
    # re-assert the invariant on the returned record as well
    v = classify(instances[spec])
    if v.verdict == SD_DOMINATES:
        assert v.numeric_diff >= -1e-8
    elif v.verdict == GMD_DOMINATES:
        assert v.numeric_diff <= 1e-8


@pytest.mark.parametrize("spec", STANDARD_INSTANCES)
def test_discrete_sd_certificates_are_strict(spec, instances):
    d = instances[spec]
    if not d.is_lattice:
        pytest.skip("lattice-only asymmetry")
    v = classify(d)
    if v.verdict == SD_DOMINATES:
        assert v.numeric_diff > 0


def test_counterexample_fixtures_stay_inconclusive():
    base = make_distribution("erfi-interval")
    for d in (base, affine(base, -1.0, 0.0)):
        v = classify(d)
        assert v.verdict != GMD_DOMINATES
        assert v.verdict == INCONCLUSIVE


SD, GMD, NONE = SD_DOMINATES, GMD_DOMINATES, (INCONCLUSIVE, NO_BASIS)
# (verdict, basis) of every standard instance; a new route or withholding
# that moves an entry must move it here on purpose
PINNED_VERDICTS = {
    "gamma:alpha=0.5": (SD, THM_SD_CONT), "gamma:alpha=1": (SD, THM_SD_CONT),
    "gamma:alpha=2": (GMD, PROP_LOGCONCAVE), "gamma:alpha=3": (GMD, PROP_LOGCONCAVE),
    "weibull:alpha=0.5": (SD, THM_SD_CONT), "weibull:alpha=1": (SD, THM_SD_CONT),
    "weibull:alpha=1.5": (GMD, PROP_LOGCONCAVE), "weibull:alpha=2.5": (GMD, PROP_LOGCONCAVE),
    "gpd:alpha=0": (SD, THM_SD_CONT), "gpd:alpha=0.1": (SD, THM_SD_CONT),
    "gpd:alpha=0.3": (SD, THM_SD_CONT), "gpd:alpha=0.45": (SD, THM_SD_CONT),
    "normal:sigma=0.5": (GMD, PROP_LOGCONCAVE), "normal": (GMD, PROP_LOGCONCAVE),
    "normal:sigma=2": (GMD, PROP_LOGCONCAVE),
    "beta:alpha=0.5": NONE, "beta:alpha=2": (GMD, PROP_LOGCONCAVE),
    "beta:alpha=3,beta=2": (GMD, PROP_LOGCONCAVE),
    "logistic": (GMD, PROP_LOGCONCAVE), "erf-hazard": (SD, THM_SD_CONT),
    "erfi-interval": NONE, "erfi-unit": (GMD, THM_GMD_CONT),
    "damped-hazard:theta=0.05": (GMD, PROP_LOGCONCAVE),
    "damped-hazard:theta=0.1": (GMD, PROP_LOGCONCAVE), "damped-hazard:theta=0.5": NONE,
    "normal-mix": NONE, "normal-mix:sigma1=1,sigma2=3,q=0.5": NONE,
    "normal-mix:sigma1=0.5,sigma2=1.5,q=0.3": NONE,
    "geometric:p=0.2": (SD, THM_SD_DISC), "geometric:p=0.4": (SD, THM_SD_DISC),
    "geometric:p=0.5": (SD, THM_SD_DISC), "geometric:p=0.8": (SD, THM_SD_DISC),
    "zipf:alpha=2.5": (SD, THM_SD_DISC), "zipf:alpha=3": (SD, THM_SD_DISC),
    "zipf:alpha=4": (SD, THM_SD_DISC),
    "poisson:theta=0.5": NONE, "poisson:theta=1": (GMD, THM_GMD_DISC),
    "poisson:theta=1.5": (GMD, THM_GMD_DISC), "poisson:theta=2.5": (GMD, THM_GMD_DISC),
    "negbinomial:r=0.5,p=0.5": (SD, THM_SD_DISC), "negbinomial:r=2,p=0.3": (GMD, THM_GMD_DISC),
    "negbinomial:r=2,p=0.7": NONE,
}


def test_pinned_verdicts_cover_the_standard_instances(instances):
    assert list(PINNED_VERDICTS) == STANDARD_INSTANCES
    verdicts = {spec: classify(d) for spec, d in instances.items()}
    assert {spec: (v.verdict, v.basis) for spec, v in verdicts.items()} == PINNED_VERDICTS


def _with_diff(spec, diff):
    # a fresh law whose cached SD/GMD report carries the given SD - GMD
    d = make_distribution(spec)
    d._cache["report"] = dataclasses.replace(dispersion_report(d), diff=diff)
    return d


@pytest.mark.parametrize("spec,basis,diff", [
    ("gamma:alpha=2", PROP_LOGCONCAVE, 1.0),
    ("erfi-unit", THM_GMD_CONT, 1.0),
    ("gpd:alpha=0.25", THM_SD_CONT, -1.0),
    ("poisson:theta=2", THM_GMD_DISC, 1.0),
    ("geometric:p=0.4", THM_SD_DISC, -1.0),
])
def test_sign_gate_raises_on_a_wrong_signed_certificate(spec, basis, diff):
    with pytest.raises(errors.ConsistencyViolation, match=f"certified {basis} but SD - GMD = {diff}"):
        classify(_with_diff(spec, diff))
    # at the tolerance itself the certificate stands
    v = classify(_with_diff(spec, np.copysign(SIGN_TOL, diff)))
    assert v.basis == basis


@pytest.mark.parametrize("spec,diff", [("erfi-interval", 5.0), ("erfi-interval", -5.0), ("poisson:theta=0.5", 3.0)])
def test_sign_gate_leaves_inconclusive_laws_alone(spec, diff):
    v = classify(_with_diff(spec, diff))
    assert (v.verdict, v.basis) == (INCONCLUSIVE, NO_BASIS)
    assert v.numeric_diff == diff


# ---------------------------------------------------------------------------
# threshold scans
# ---------------------------------------------------------------------------


def test_threshold_damped_hazard_at_inverse_theta():
    d = make_distribution("damped-hazard:theta=0.1")
    scan = threshold_scan(d, "lower", TAIL_HAZARD, np.arange(0.0, 50.5, 0.5))
    assert scan.u_star == pytest.approx(10.0, abs=1e-12)
    held = dict(scan.verified_range)
    assert held[10.0] and held[20.0]
    assert not held[9.5]


def test_threshold_normal_mix_lower():
    d = make_distribution("normal-mix")
    scan = threshold_scan(d, "lower", TAIL_LOGCONCAVE, np.arange(0.0, 4.25, 0.25))
    # the log-density curvature turns negative at 2.0494, just past the
    # nominal threshold of 2
    assert 2.0 <= scan.u_star <= 2.25
    assert all(ok for u, ok in scan.verified_range if u >= scan.u_star)


def test_threshold_normal_mix_upper():
    d = make_distribution("normal-mix")
    scan = threshold_scan(d, "upper", TAIL_LOGCONCAVE, np.arange(-4.0, 0.25, 0.25))
    assert -2.25 <= scan.u_star <= -2.0
    assert all(ok for u, ok in scan.verified_range if u <= scan.u_star)


def test_threshold_never_holds_raises():
    d = make_distribution("gpd:alpha=0.3")  # DFR everywhere: never log-concave
    with pytest.raises(errors.CriterionNeverHolds):
        threshold_scan(d, "lower", TAIL_LOGCONCAVE, np.arange(0.0, 3.0, 0.5))


@pytest.mark.parametrize("side,criterion,match", [
    ("lower", "bogus", "unknown criterion 'bogus'"),
    ("middle", TAIL_HAZARD, "side must be 'lower' or 'upper'"),
])
@pytest.mark.parametrize("grid", [[], [1.0, 2.0]])
def test_threshold_refuses_bad_arguments_before_any_truncation(side, criterion, match, grid, monkeypatch):
    built = []
    monkeypatch.setattr(ordering, "truncate", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=match):
        threshold_scan(make_distribution("gpd:alpha=0.3"), side, criterion, grid)
    assert built == []


# ---------------------------------------------------------------------------
# closure: classify on the combined law keeps each input's verdict
# ---------------------------------------------------------------------------


def _verdicts(*laws):
    return [classify(d).verdict for d in laws]


def test_closure_mixture_dfr():
    parts = [make_distribution("weibull:alpha=0.6"), make_distribution("gamma:alpha=0.5")]
    assert _verdicts(*parts, mix(parts, [0.5, 0.5])) == [SD_DOMINATES] * 3


def test_closure_convolution_log_concave():
    d1 = make_distribution("gamma:alpha=2")
    d2 = make_distribution("gamma:alpha=3")
    assert _verdicts(d1, d2, convolve(d1, d2)) == [GMD_DOMINATES] * 3


def test_closure_truncation_persistence():
    tail = truncate(make_distribution("damped-hazard:theta=0.1"), "lower", 10.0)
    assert _verdicts(tail, truncate(tail, "lower", 15.0)) == [SD_DOMINATES] * 2


def test_closure_affine_reflection():
    d = make_distribution("gpd:alpha=0.25")
    assert _verdicts(d, affine(d, -1.0, 0.0)) == [SD_DOMINATES] * 2


# the decreasing-hazard standard instances: mixtures of DFR laws are DFR
# (Barlow & Proschan 1975), and (X | X > u) keeps the parent's hazard past u
DFR_INSTANCES = [
    "gamma:alpha=0.5", "weibull:alpha=0.5",
    "gpd:alpha=0", "gpd:alpha=0.1", "gpd:alpha=0.3", "gpd:alpha=0.45",
]


@pytest.mark.parametrize("pair", list(itertools.combinations(DFR_INSTANCES, 2)), ids="+".join)
def test_mixtures_of_dfr_instances_classify_sd(pair, instances):
    parts = [instances[spec] for spec in pair]
    assert _verdicts(*parts, mix(parts, [0.5, 0.5])) == [SD_DOMINATES] * 3


@pytest.mark.parametrize("u", [1.0, 5.0])
@pytest.mark.parametrize("spec", DFR_INSTANCES)
def test_lower_truncations_of_dfr_instances_classify_sd(spec, u, instances):
    d = instances[spec]
    assert _verdicts(d, truncate(d, "lower", u)) == [SD_DOMINATES] * 2


@pytest.mark.parametrize("spec", [s for s, (v, _) in PINNED_VERDICTS.items() if v == SD_DOMINATES])
def test_reflections_of_sd_instances_classify_sd(spec, instances):
    # r of -X is h of X reflected, so the SD route survives
    assert classify(affine(instances[spec], -1.0, 0.0)).verdict == SD_DOMINATES


# log-concave densities are closed under convolution (Prekopa 1973): one
# numeric sum, and the registry's two closed-form sums over the gamma and
# normal instances that classify gmd-dominates (gamma(1)'s constant hazard
# certifies SD first)
_LOG_CONCAVE_SUMS = [
    ("logistic", "normal"),
    *itertools.combinations_with_replacement(["gamma:alpha=2", "gamma:alpha=3"], 2),
    *itertools.combinations_with_replacement(["normal:sigma=0.5", "normal", "normal:sigma=2"], 2),
]


@pytest.mark.parametrize("pair", _LOG_CONCAVE_SUMS, ids="+".join)
def test_sums_of_log_concave_instances_classify_gmd(pair, instances):
    d1, d2 = (instances[spec] for spec in pair)
    assert _verdicts(d1, d2, convolve(d1, d2)) == [GMD_DOMINATES] * 3


def test_far_lower_truncation_of_a_ppf_law_classifies():
    # P(X > 9) = 1.1e-19 is below the rounding of 1, so the scan grid comes
    # from the inverse table rather than a composed ppf that saturates at inf
    tail = truncate(make_distribution("normal"), "lower", 9.0)
    assert classify(tail).verdict == GMD_DOMINATES


@pytest.mark.parametrize("spec", ["beta:alpha=2,beta=0.3", "beta:alpha=0.1,beta=0.1"])
def test_beta_grid_on_its_pole_names_the_support_end(spec):
    # q(1 - 1e-6) rounds onto the end 1, where the density's pole is infinite;
    # the report still works, the scan refuses with the cause named
    d = make_distribution(spec)
    assert np.isfinite(dispersion_report(d).diff)
    with pytest.raises(errors.GridEmpty, match="support end 1, where the density is inf"):
        classify(d)


def test_verdict_serializes():
    rec = classify(make_distribution("poisson:theta=2")).to_record()
    assert rec["verdict"] == GMD_DOMINATES
    assert rec["basis"] == THM_GMD_DISC
    assert rec["evidence"]["gmd_bound_ok"] is True
    assert "lambda" in rec["evidence"]
    assert "hazard" in rec["evidence"]
