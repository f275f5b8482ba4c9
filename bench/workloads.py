"""The three workloads: what one operation is, and how its output is checked.

An operation builds its laws afresh through `make_distribution` and the
combinators, as one CLI invocation does, so no per-law cache carries over
from one operation to the next. Every program call goes through the `dp`
module attribute at call time, so a tracer installed on the package sees it.

Checks compare against `reference` (computed apart from the program) or
test a property the method must have. References are computed on first use,
outside the timed region.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

import dispersion as dp
import reference as ref

SD = "sd-dominates"
GMD = "gmd-dominates"

# the 42 registry instances of the package's test table, fixed here so that a
# change to the tests does not change the workload
STANDARD_INSTANCES = [
    "gamma:alpha=0.5", "gamma:alpha=1", "gamma:alpha=2", "gamma:alpha=3",
    "weibull:alpha=0.5", "weibull:alpha=1", "weibull:alpha=1.5", "weibull:alpha=2.5",
    "gpd:alpha=0", "gpd:alpha=0.1", "gpd:alpha=0.3", "gpd:alpha=0.45",
    "normal:sigma=0.5", "normal", "normal:sigma=2",
    "beta:alpha=0.5", "beta:alpha=2", "beta:alpha=3,beta=2",
    "logistic", "erf-hazard", "erfi-interval", "erfi-unit",
    "damped-hazard:theta=0.05", "damped-hazard:theta=0.1", "damped-hazard:theta=0.5",
    "normal-mix", "normal-mix:sigma1=1,sigma2=3,q=0.5", "normal-mix:sigma1=0.5,sigma2=1.5,q=0.3",
    "geometric:p=0.2", "geometric:p=0.4", "geometric:p=0.5", "geometric:p=0.8",
    "zipf:alpha=2.5", "zipf:alpha=3", "zipf:alpha=4",
    "poisson:theta=0.5", "poisson:theta=1", "poisson:theta=1.5", "poisson:theta=2.5",
    "negbinomial:r=0.5,p=0.5", "negbinomial:r=2,p=0.3", "negbinomial:r=2,p=0.7",
]

# one law per registry family
FAMILY_REPRESENTATIVE = [
    "gamma:alpha=2", "weibull:alpha=0.5", "gpd:alpha=0.25", "normal", "beta:alpha=2",
    "logistic", "erf-hazard", "erfi-interval", "erfi-unit", "damped-hazard:theta=0.1",
    "normal-mix", "geometric:p=0.5", "zipf:alpha=3", "poisson:theta=2",
    "negbinomial:r=2,p=0.5",
]

# the `sweep` and `truncate-sweep` recipes of docs/figures.md
SWEEPS = [
    ("gamma", "alpha", "0.05:1.0:0.05"),
    ("gamma", "alpha", "1.0:3.0:0.05"),
    ("weibull", "alpha", "0.05:1.0:0.05"),
    ("weibull", "alpha", "1.0:3.0:0.05"),
    ("poisson", "theta", "0.1:3.0:0.1"),
]
TRUNCATE_SWEEPS = [
    ("damped-hazard:theta=0.1", "lower", "0:50:0.5"),
    ("normal-mix", "lower", "2:8:0.25"),
    ("normal-mix", "upper", "-8:-2:0.25"),
]

MC_N = 200_000
MC_TRUNCATION = ("damped-hazard:theta=0.1", "lower", 10.0)

# (spec, t grid, direction m_Y must take): the continuous grids of the
# package's representation-agreement gate plus gpd and the exponential
CURVES = [
    ("weibull:alpha=0.5", np.linspace(0, 12, 32), "up"),
    ("gamma:alpha=2", np.linspace(0, 6, 32), "down"),
    ("normal", np.linspace(0, 4.5, 32), "down"),
    ("gpd:alpha=0.25", np.linspace(0, 8, 32), "up"),
    ("weibull:alpha=1", np.linspace(0, 8, 32), "flat"),
    ("geometric:p=0.3", np.arange(32, dtype=float), "flat"),
    ("poisson:theta=2", np.arange(14, dtype=float), "down"),
    ("zipf:alpha=4", np.arange(8, dtype=float), "up"),
]

REL_TOL = 1e-7  # SD/GMD against references; the program documents 1e-9 quadrature
ZETA_TOL = 1e-9  # zipf(2.5) rows: invariance of the SD under mixing and lattice shifts
ROUTE_TOL = 1e-6  # m_direct vs m_repr, as the package's own gate
SIGN_TOL = 1e-9
MONO_TOL = 1e-9
CI_WIDTHS = 4.0


@dataclass
class Op:
    """One operation: `run(seed)` calls the program, `check(out)` lists faults."""

    key: str
    run: Callable[[int], object]
    check: Callable[[object], list[str]]
    rows: int = 1  # output rows: one per analyze row, verify record or curve t
    known_fault: bool = False


def _make(spec: str):
    # looks dp.make_distribution up at call time, so an installed tracer sees it
    return dp.make_distribution(spec)


def parse_range(text: str) -> np.ndarray:
    """start:stop:step as the CLI expands it."""
    start, stop, step = (float(v) for v in text.split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def _check_values(name, got, want, tol) -> list[str]:
    if not (np.isfinite(got) and abs(got - want) <= tol * abs(want)):
        return [f"{name} {float(got)!r} vs reference {float(want)!r} (rel tol {tol:g})"]
    return []


def _check_sign(verdict, ref_sd, ref_gmd) -> list[str]:
    # a certificate must agree with the sign of the reference SD - GMD
    diff = ref_sd - ref_gmd
    if verdict == SD and diff < -SIGN_TOL * ref_gmd:
        return [f"certified {SD} but reference SD - GMD = {diff:.3e}"]
    if verdict == GMD and diff > SIGN_TOL * ref_gmd:
        return [f"certified {GMD} but reference SD - GMD = {diff:.3e}"]
    return []


def regime(spec: str) -> set[str] | None:
    """Verdicts the theory allows for a registry law, where it fixes them.

    Gamma and Weibull: decreasing hazard below alpha = 1, log-concave density
    above it, constant hazard (SD = GMD) at 1. The GPD hazard and the zipf
    discrete hazard decrease and the geometric hazard is constant (SD
    dominance); normal and logistic densities are log-concave (GMD dominance).
    """
    family, p = ref.parse_spec(spec)
    if family in ("gamma", "weibull"):
        a = p["alpha"]
        if a < 1 - 1e-9:
            return {SD}
        if a > 1 + 1e-9:
            return {GMD}
        return {SD, GMD}
    if family in ("gpd", "zipf", "geometric"):
        return {SD}
    if family in ("normal", "logistic"):
        return {GMD}
    return None


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _analyze_row(build):
    # the calls `dispersion analyze` and `dispersion sweep` make for one row
    def run(_seed):
        d = build()
        rep = dp.dispersion_report(d)
        v = dp.classify(d)
        return rep.sd, rep.gmd, rep.diff, v.verdict, v.basis

    return run


def _row_check(reference, sd_tol=REL_TOL, allowed=None):
    reference = functools.cache(reference)

    def check(out):
        sd, gmd, _diff, verdict, _basis = out
        ref_sd, ref_gmd = reference()
        problems = _check_values("sd", sd, ref_sd, sd_tol)
        problems += _check_values("gmd", gmd, ref_gmd, REL_TOL)
        problems += _check_sign(verdict, ref_sd, ref_gmd)
        if allowed is not None and verdict not in allowed:
            problems.append(f"verdict {verdict} outside the regime {sorted(allowed)}")
        return problems

    return check


def _law_op(key, build, reference, known_fault=False, **check):
    return Op(key, _analyze_row(build), _row_check(reference, **check), known_fault=known_fault)


def _truncate_op(spec, side, u):
    def run(_seed):
        return dp.tail_dispersion(_make(spec), side, u)

    family, p = ref.parse_spec(spec)
    reference = functools.cache(lambda: ref.truncated_sd_gmd(spec, side, u))

    def check(rep):
        ref_sd, ref_gmd = reference()
        problems = _check_values("sd", rep.sd, ref_sd, REL_TOL)
        problems += _check_values("gmd", rep.gmd, ref_gmd, REL_TOL)
        # damped hazard: SD >= GMD on every tail past 1/theta; the normal
        # mixture: SD <= GMD on every tail past +-2
        if family == "damped-hazard" and u >= 1 / p["theta"]:
            if rep.diff < -SIGN_TOL:
                problems.append(f"tail SD - GMD = {rep.diff:.3e} < 0 past 1/theta")
        if family == "normal-mix" and abs(u) >= 2 and rep.diff > SIGN_TOL:
            problems.append(f"tail SD - GMD = {rep.diff:.3e} > 0 past +-2")
        return problems

    return Op(f"truncate-sweep {spec} {side} u={u:g}", run, check)


def analyze_ops() -> list[Op]:
    ops = []
    for spec in STANDARD_INSTANCES:
        ops.append(_law_op(
            f"analyze {spec}", functools.partial(_make, spec),
            functools.partial(ref.sd_gmd, spec), allowed=regime(spec),
            sd_tol=ZETA_TOL if spec == "zipf:alpha=2.5" else REL_TOL,
        ))

    zipf_ref = functools.partial(ref.sd_gmd, "zipf:alpha=2.5")
    # mix and the lattice affine map drop the parent's analytic tail sums
    ops.append(_law_op(
        "analyze mix(zipf:alpha=2.5 x2, 0.5/0.5)",
        lambda: dp.mix([_make("zipf:alpha=2.5"), _make("zipf:alpha=2.5")], [0.5, 0.5]),
        zipf_ref, sd_tol=ZETA_TOL, allowed={SD}, known_fault=True,
    ))
    for a, b in ((1, 3), (-1, 0)):
        ops.append(_law_op(
            f"analyze affine(zipf:alpha=2.5, {a}, {b})",
            functools.partial(lambda a, b: dp.affine(_make("zipf:alpha=2.5"), a, b), a, b),
            zipf_ref, sd_tol=ZETA_TOL, allowed={SD}, known_fault=True,
        ))
    ops.append(_law_op(
        "analyze truncate(normal-mix, lower, 2)",
        lambda: dp.truncate(_make("normal-mix"), "lower", 2.0),
        lambda: ref.truncated_sd_gmd("normal-mix", "lower", 2.0),
        allowed={GMD},
    ))
    # a mixture of decreasing-hazard laws has a decreasing hazard
    ops.append(_law_op(
        "analyze mix(weibull:alpha=0.6, gamma:alpha=0.5)",
        lambda: dp.mix([_make("weibull:alpha=0.6"), _make("gamma:alpha=0.5")], [0.5, 0.5]),
        lambda: ref.weibull_gamma_mixture_sd_gmd(0.6, 0.5, 0.5),
        allowed={SD},
    ))
    # reflection turns the decreasing hazard into an increasing reverse hazard
    ops.append(_law_op(
        "analyze affine(gpd:alpha=0.25, -1, 0)",
        lambda: dp.affine(_make("gpd:alpha=0.25"), -1, 0),
        functools.partial(ref.sd_gmd, "gpd:alpha=0.25"),
        allowed={SD},
    ))

    for family, param, text in SWEEPS:
        for value in parse_range(text):
            spec = f"{family}:{param}={float(value)!r}"
            ops.append(_law_op(
                f"sweep {spec}",
                functools.partial(_sweep_law, family, param, float(value)),
                functools.partial(ref.sd_gmd, spec), allowed=regime(spec),
            ))
    for spec, side, text in TRUNCATE_SWEEPS:
        for u in parse_range(text):
            ops.append(_truncate_op(spec, side, float(u)))
    return ops


def _sweep_law(family, param, value):
    return dp.make_distribution(dp.FamilySpec(family, {param: value}))


# ---------------------------------------------------------------------------
# mc-verify
# ---------------------------------------------------------------------------


def _mc_op(key, build, reference, lattice_spec=None):
    def run(seed):
        return dp.mc_estimate(build(), MC_N, seed)

    reference = functools.cache(reference)
    tie = functools.cache(lambda: ref.tie_probability(lattice_spec))

    def check(est):
        ref_sd, ref_gmd = reference()
        problems = []
        pairs = [("sd", est.sd_hat, ref_sd, est.ci_sd), ("gmd", est.gmd_hat, ref_gmd, est.ci_gmd)]
        if lattice_spec is not None:
            pairs.append(("lambda", est.lambda_hat, tie(), est.ci_lambda))
        for name, got, want, ci in pairs:
            if not abs(got - want) <= CI_WIDTHS * ci:
                problems.append(f"{name} {float(got)!r} vs reference {float(want)!r}: "
                                f"more than {CI_WIDTHS:g} x CI {ci:.3g}")
        if est.n != MC_N:
            problems.append(f"estimate reports n = {est.n}, asked {MC_N}")
        return problems

    return Op(key, run, check)


def mc_ops() -> list[Op]:
    ops = []
    for spec in FAMILY_REPRESENTATIVE:
        lattice = spec if ref.parse_spec(spec)[0] in ref.LATTICE_FAMILIES else None
        ops.append(_mc_op(
            f"verify {spec}", functools.partial(_make, spec),
            functools.partial(ref.sd_gmd, spec), lattice,
        ))
    spec, side, u = MC_TRUNCATION
    ops.append(_mc_op(
        f"verify truncate({spec}, {side}, {u:g})",
        lambda: dp.truncate(_make(spec), side, u),
        lambda: ref.truncated_sd_gmd(spec, side, u),
    ))
    return ops


# ---------------------------------------------------------------------------
# mean-excess
# ---------------------------------------------------------------------------


def _curve_reference(spec, ts):
    family, p = ref.parse_spec(spec)
    if family in ref.LATTICE_FAMILIES:
        return ref.lattice_mean_excess(spec, ts)
    if family == "normal":
        return ref.normal_mean_excess(p["sigma"], ts)
    if spec == "gamma:alpha=2":
        return ref.gamma2_mean_excess(ts)
    if spec == "weibull:alpha=1":  # |X - X'| of two unit exponentials is exponential
        return np.ones_like(ts)
    return None


def _curve_op(spec, ts, direction):
    def run(_seed):
        return dp.mean_excess_abs_diff(_make(spec), ts)

    lattice = ref.parse_spec(spec)[0] in ref.LATTICE_FAMILIES
    gmd_ref = functools.cache(lambda: ref.sd_gmd(spec)[1])
    curve_ref = functools.cache(lambda: _curve_reference(spec, ts))

    def check(c):
        m = np.asarray(c.m_direct, float)
        problems = []
        if not np.all(np.isfinite(m)) or len(m) != len(ts):
            return [f"curve has {len(m)} values, or non-finite ones"]
        gap = float(np.max(np.abs(m - c.m_repr) / (1 + np.abs(m))))
        if gap > ROUTE_TOL:
            problems.append(f"routes differ by {gap:.2e} > {ROUTE_TOL:g}")
        want_base = gmd_ref() + (0.5 if lattice else 0.0)
        problems += _check_values("baseline", c.baseline, want_base, REL_TOL)
        if not lattice:  # m_Y(0) = E|X - X'|
            problems += _check_values("m_Y(0)", m[0], gmd_ref(), REL_TOL)
        steps = np.diff(m)
        tol = MONO_TOL * float(np.max(np.abs(m)))
        if direction in ("up", "flat") and np.any(steps < -tol):
            problems.append("m_Y decreases on a law whose m_Y must be nondecreasing")
        if direction in ("down", "flat") and np.any(steps > tol):
            problems.append("m_Y increases on a law whose m_Y must be nonincreasing")
        want = curve_ref()
        if want is not None:
            worst = float(np.max(np.abs(m - want) / (1 + np.abs(want))))
            if worst > REL_TOL:
                problems.append(f"m_Y differs from the reference curve by {worst:.2e}")
        return problems

    return Op(f"mean-excess {spec} ({len(ts)} t)", run, check, rows=len(ts))


def mean_excess_ops() -> list[Op]:
    return [_curve_op(spec, ts, direction) for spec, ts, direction in CURVES]


WORKLOADS = {
    "analyze": analyze_ops,
    "mc-verify": mc_ops,
    "mean-excess": mean_excess_ops,
}
