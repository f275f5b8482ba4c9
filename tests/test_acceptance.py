"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
inline). Tolerances are pinned here, not configurable.
"""

import math

import numpy as np
from scipy.optimize import brentq

from dispersion import (
    affine,
    classify,
    concentration,
    convolve,
    dispersion_report,
    equivalence_audit,
    gmd,
    make_distribution,
    mc_estimate,
    mean_excess_abs_diff,
    mix,
    sd,
    tail_dispersion,
    truncate,
)
from dispersion.measures import gmd_numeric, sd_numeric
from dispersion.ordering import GMD_DOMINATES, SD_DOMINATES

from conftest import STANDARD_INSTANCES

SQRT_PI = math.sqrt(math.pi)


def _report(cid: str, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {status} {cid}: {desc}{suffix}")
    assert ok, f"{cid}: {desc}{suffix}"


# ---------------------------------------------------------------------------
# 1. closed-form reproductions
# ---------------------------------------------------------------------------


def test_1a_normal_closed_forms():
    d = make_distribution("normal")
    ok = abs(sd(d) - 1.0) <= 1e-9 and abs(gmd(d) - 2 / SQRT_PI) <= 1e-9
    _report("1a", "normal: SD = 1, GMD = 2/sqrt(pi)", ok)


def test_1b_logistic_closed_forms():
    d = make_distribution("logistic")
    ok = abs(sd(d) - math.pi / math.sqrt(3)) <= 1e-9 and abs(gmd(d) - 2.0) <= 1e-9
    _report("1b", "logistic: SD = pi/sqrt(3), GMD = 2", ok)


def test_1c_gpd_alpha_grid():
    ok = True
    for a in np.arange(0.0, 0.451, 0.05):
        d = make_distribution(f"gpd:alpha={a}")
        sd_ref = 1 / ((1 - a) * math.sqrt(1 - 2 * a))
        gmd_ref = 2 / ((1 - a) * (2 - a))
        ok &= abs(sd(d) - sd_ref) <= 1e-9
        ok &= abs(gmd(d) - gmd_ref) <= 1e-9
        ok &= sd(d) >= gmd(d) - 1e-12
    _report("1c", "GPD grid: closed SD/GMD formulas and SD >= GMD", bool(ok))


def test_1d_beta_identity():
    ok = True
    for a in (0.25, 1.0, 2.0, 5.0):
        d = make_distribution(f"beta:alpha={a}")
        lhs = gmd(d) ** 2 - sd(d) ** 2
        rhs = a * (4 * a - 1) / ((a + 1) ** 2 * (a + 2) * (2 * a + 1) ** 2)
        ok &= abs(lhs - rhs) <= 1e-10
    _report("1d", "Beta(alpha,1): GMD^2 - SD^2 identity to 1e-10", bool(ok))


def test_1e_geometric_p_grid():
    ok = True
    for p in np.arange(0.1, 0.91, 0.1):
        d = make_distribution(f"geometric:p={p}")
        ok &= abs(sd(d) - math.sqrt(1 - p) / p) <= 1e-9
        ok &= abs(gmd(d) - 2 * (1 - p) / (p * (2 - p))) <= 1e-9
        ok &= sd(d) > gmd(d)
    _report("1e", "geometric grid: closed SD > GMD", bool(ok))


def test_1f_negbinomial_r2():
    ok = True
    for p in (0.2, 0.35, 0.5, 0.65, 0.8):
        d = make_distribution(f"negbinomial:r=2,p={p}")
        sd_ref = math.sqrt(2 * (1 - p)) / p
        gmd_ref = 4 * (1 - p) * (3 - (3 - p) * p) / (p * (2 - p) ** 3)
        bound_ref = 2 / p - 1 / (2 - (2 - p) * p) - 1
        ok &= abs(sd_numeric(d)[0] - sd_ref) <= 1e-8 * (1 + sd_ref)
        ok &= abs(gmd_numeric(d)[0] - gmd_ref) <= 1e-8 * (1 + gmd_ref)
        ok &= abs(concentration(d).odds_bound - bound_ref) <= 1e-8 * (1 + bound_ref)

    def bound_gap(p):
        gmd_ref = 4 * (1 - p) * (3 - (3 - p) * p) / (p * (2 - p) ** 3)
        return gmd_ref - (2 / p - 1 / (2 - (2 - p) * p) - 1)

    def sd_gmd_gap(p):
        return math.sqrt(2 * (1 - p)) / p - 4 * (1 - p) * (3 - (3 - p) * p) / (p * (2 - p) ** 3)

    p_bound = brentq(bound_gap, 0.3, 0.9, xtol=1e-10)
    p_cross = brentq(sd_gmd_gap, 0.3, 0.9, xtol=1e-10)
    ok &= abs(p_bound - 0.57) <= 0.01
    ok &= abs(p_cross - 0.65) <= 0.01
    _report(
        "1f", "negbinomial r=2: formulas vs summation, crossings at 0.57/0.65",
        bool(ok), f"bound at p={p_bound:.4f}, SD=GMD at p={p_cross:.4f}",
    )


# ---------------------------------------------------------------------------
# 2. quoted numeric examples (half-ulp of the printed precision)
# ---------------------------------------------------------------------------


def test_2a_erf_hazard_values():
    d = make_distribution("erf-hazard")
    s, g = sd(d), gmd(d)
    ok = abs(s - 0.76) <= 0.005 and abs(g - 0.68) <= 0.005
    _report("2a", "erf-hazard: SD = 0.76 +- 0.005, GMD = 0.68 +- 0.005",
            ok, f"SD={s:.4f}, GMD={g:.4f}")


def test_2b_erfi_interval_values():
    d = make_distribution("erfi-interval")
    s, g = sd(d), gmd(d)
    xs = d.probe_grid()
    r = np.asarray(d.pdf(xs), float) / np.asarray(d.cdf(xs), float)
    x_flip = float(xs[np.argmin(r)])
    ok = abs(s - 0.407) <= 0.0005 and abs(g - 0.402) <= 0.0005
    ok = ok and abs(x_flip - (-0.076)) <= 0.005
    _report("2b", "erfi-interval: SD/GMD = 0.407/0.402, r' flips at -0.076",
            ok, f"SD={s:.5f}, GMD={g:.5f}, flip={x_flip:.4f}")


def test_2c_erfi_unit_values():
    d = make_distribution("erfi-unit")
    s, g = sd(d), gmd(d)
    ok = abs(s - 0.29) <= 0.005 and abs(g - 0.34) <= 0.005
    _report("2c", "erfi-unit: SD = 0.29 +- 0.005, GMD = 0.34 +- 0.005",
            ok, f"SD={s:.4f}, GMD={g:.4f}")


def test_2d_zipf_values():
    d = make_distribution("zipf:alpha=3")
    s, g = sd(d), gmd(d)
    ok = abs(s - 0.54) <= 0.005 and abs(g - 0.21) <= 0.005
    _report("2d", "zipf(3): SD = 0.54 +- 0.005, GMD = 0.21 +- 0.005",
            ok, f"SD={s:.4f}, GMD={g:.4f}")


# ---------------------------------------------------------------------------
# 3. figure-data reproductions
# ---------------------------------------------------------------------------


def _sweep_sign_pattern(family: str) -> bool:
    ok = True
    for a in np.arange(0.05, 3.001, 0.05):
        d = make_distribution(f"{family}:alpha={a}")
        diff = dispersion_report(d).diff
        if a <= 1.0:
            ok &= diff >= -1e-9
        if a >= 1.0:
            ok &= diff <= 1e-9
    return bool(ok)


def test_3a_gamma_sweep_sign_pattern():
    _report("3a", "gamma sweep: diff >= 0 on (0,1], <= 0 on [1,3]",
            _sweep_sign_pattern("gamma"))


def test_3b_weibull_sweep_sign_pattern():
    _report("3b", "weibull sweep: diff >= 0 on (0,1], <= 0 on [1,3]",
            _sweep_sign_pattern("weibull"))


def test_3c_damped_hazard_truncate_sweep():
    d = make_distribution("damped-hazard:theta=0.1")
    ok = True
    for u in np.arange(0.0, 50.001, 0.5):
        rep = tail_dispersion(d, "lower", float(u))
        if u >= 10.0:
            ok &= rep.diff >= -1e-8
    _report("3c", "damped-hazard theta=0.1: tail diff >= 0 for every u >= 10",
            bool(ok))


def test_3d_normal_mix_truncate_sweeps():
    d = make_distribution("normal-mix")
    lower_us = np.arange(2.0, 8.001, 0.5)
    upper_us = np.arange(-8.0, -1.999, 0.5)
    lo_diffs = [tail_dispersion(d, "lower", float(u)).diff for u in lower_us]
    up_diffs = [tail_dispersion(d, "upper", float(u)).diff for u in upper_us]
    ok = all(x <= 1e-8 for x in lo_diffs) and all(x <= 1e-8 for x in up_diffs)
    # |diff| shrinks toward zero at the grid extremes
    tail_lo = np.abs(lo_diffs[-4:])
    tail_up = np.abs(up_diffs[:4])
    ok = ok and bool(np.all(np.diff(tail_lo) <= 1e-12))
    ok = ok and bool(np.all(np.diff(tail_up) >= -1e-12))
    _report("3d", "normal-mix tail sweeps: GMD dominates beyond +-2, |diff| -> 0",
            bool(ok))


def test_3e_poisson_bound_and_certified_sign():
    def bound_gap(theta):
        d = make_distribution(f"poisson:theta={theta}")
        return gmd_numeric(d)[0] - concentration(d).odds_bound

    theta_star = brentq(bound_gap, 0.3, 1.5, xtol=1e-9)
    ok = abs(theta_star - 0.8) <= 0.05
    for theta in np.arange(0.1, 3.001, 0.1):
        d = make_distribution(f"poisson:theta={theta}")
        v = classify(d)
        # the bound holds exactly past the crossing, and certified points
        # must carry the certified sign
        bound_ok = v.evidence.gmd_bound_ok
        if bound_ok is not None:
            ok &= bound_ok == (theta > theta_star)
        if v.verdict == GMD_DOMINATES:
            ok &= theta > theta_star
            ok &= v.numeric_diff <= 1e-8
    _report("3e", "poisson: concentration bound first holds at theta = 0.8 +- 0.05",
            bool(ok), f"crossing at {theta_star:.4f}")


# ---------------------------------------------------------------------------
# 4. property suites
# ---------------------------------------------------------------------------


def test_4a_equivalence_audit_registry(instances):
    failures = [
        spec for spec in STANDARD_INSTANCES
        if not equivalence_audit(instances[spec]).equivalence_audit_pass
    ]
    _report("4a", "hazard-equivalence audit passes on the full registry",
            not failures, f"{len(STANDARD_INSTANCES)} instances" +
            (f"; failures: {failures}" if failures else ""))


def test_4b_representation_agreement():
    grids = [
        ("weibull:alpha=0.5", np.linspace(0, 12, 32)),
        ("gamma:alpha=2", np.linspace(0, 6, 32)),
        ("normal", np.linspace(0, 4.5, 32)),
        ("geometric:p=0.3", np.arange(32, dtype=float)),
        # only 14 integer t's keep S_Y above the support cut for theta = 2
        ("poisson:theta=2", np.arange(14, dtype=float)),
    ]
    worst = 0.0
    for spec, ts in grids:
        curve = mean_excess_abs_diff(make_distribution(spec), ts)
        gap = np.abs(curve.m_direct - curve.m_repr) / (1 + np.abs(curve.m_direct))
        worst = max(worst, float(gap.max()))
    _report("4b", "mean-excess representation agreement within 1e-6",
            worst <= 1e-6, f"worst rel gap {worst:.2e}")


def test_4c_theorem_soundness_regression(instances):
    bad = []
    for spec in STANDARD_INSTANCES:
        v = classify(instances[spec])  # raises ConsistencyViolation on bug
        if v.verdict == SD_DOMINATES and v.numeric_diff < -1e-8:
            bad.append(spec)
        if v.verdict == GMD_DOMINATES and v.numeric_diff > 1e-8:
            bad.append(spec)
    _report("4c", "certificates never contradict the numeric sign",
            not bad, f"{len(STANDARD_INSTANCES)} instances" +
            (f"; failures: {bad}" if bad else ""))


def test_4d_sqrt3_half_bound(instances):
    bad = []
    for spec in STANDARD_INSTANCES:
        d = instances[spec]
        if d.support.lower < 0:
            continue
        rep = dispersion_report(d)
        if rep.sd < (math.sqrt(3) / 2) * rep.gmd - 1e-9:
            bad.append(spec)
    _report("4d", "SD >= (sqrt(3)/2) GMD on nonnegative-support instances", not bad)


def test_4e_closure_suite():
    # the combined law keeps the verdict that each of its inputs has
    weibull, gamma = make_distribution("weibull:alpha=0.6"), make_distribution("gamma:alpha=0.5")
    gamma2, gamma3 = make_distribution("gamma:alpha=2"), make_distribution("gamma:alpha=3")
    tail = truncate(make_distribution("damped-hazard:theta=0.1"), "lower", 10.0)
    gpd = make_distribution("gpd:alpha=0.25")
    cases = {
        "mix": ([weibull, gamma], mix([weibull, gamma], [0.5, 0.5]), SD_DOMINATES),
        "conv": ([gamma2, gamma3], convolve(gamma2, gamma3), GMD_DOMINATES),
        "trunc": ([tail], truncate(tail, "lower", 15.0), SD_DOMINATES),
        "refl": ([gpd], affine(gpd, -1.0, 0.0), SD_DOMINATES),
    }
    held = {
        name: all(classify(d).verdict == want for d in (*inputs, law))
        for name, (inputs, law, want) in cases.items()
    }
    _report("4e", "closure: mixture, convolution, truncation, reflection",
            all(held.values()), " ".join(f"{name}={ok}" for name, ok in held.items()))


# two parameter points per family; heavy-tail points are chosen so the
# estimators' fourth moments exist and batch-means CIs are meaningful
_MC_SPECS = [
    "gamma:alpha=0.5", "gamma:alpha=2",
    "weibull:alpha=0.5", "weibull:alpha=2",
    "gpd:alpha=0.1", "gpd:alpha=0.2",
    "normal", "normal:sigma=2",
    "beta:alpha=0.5", "beta:alpha=2",
    "logistic",
    "erf-hazard",
    "erfi-interval",
    "erfi-unit",
    "damped-hazard:theta=0.1", "damped-hazard:theta=0.5",
    "normal-mix", "normal-mix:sigma1=1,sigma2=3,q=0.5",
    "geometric:p=0.3", "geometric:p=0.7",
    "zipf:alpha=4.5", "zipf:alpha=6",
    "poisson:theta=0.5", "poisson:theta=2",
    "negbinomial:r=2,p=0.3", "negbinomial:r=0.5,p=0.5",
]


def test_4f_oracle_agreement():
    bad = []
    for i, spec in enumerate(_MC_SPECS):
        d = make_distribution(spec)
        rep = dispersion_report(d)
        est = mc_estimate(d, 10**6, seed=1000 + i)
        if abs(est.sd_hat - rep.sd) > 4 * est.ci_sd:
            bad.append((spec, "sd"))
        if abs(est.gmd_hat - rep.gmd) > 4 * est.ci_gmd:
            bad.append((spec, "gmd"))
        if d.is_lattice:
            lam = concentration(d).lambda_
            if abs(est.lambda_hat - lam) > 4 * est.ci_lambda:
                bad.append((spec, "lambda"))
    _report("4f", "Monte Carlo (n=1e6) within 4 CI half-widths everywhere",
            not bad, f"{len(_MC_SPECS)} runs" + (f"; failures: {bad}" if bad else ""))
