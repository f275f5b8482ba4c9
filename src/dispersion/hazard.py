"""Hazard-rate structure: the four associated functions, the mean excess
function, and grid-based monotonicity / log-concavity diagnostics.

Monotone directions are non-strict throughout: a constant function counts
as both nondecreasing and nonincreasing and is reported as "constant".
Scans run on a quantile-spaced grid over [q(1e-6), q(1 - 1e-6)] (default
2048 points, override with env var DISPERSION_GRID) for continuous laws
and on every lattice point carrying mass >= `dist.SUM_CUT` (1e-12) for
discrete ones; the 1e-6 clip is recorded in each verdict's grid
description. `Distribution.probe_grid` builds each grid once per law. The
mean excess of X reads the law's stop-loss table
(`Distribution.stop_loss`), the one behind the mean excess of |X - X'|.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .dist import SUM_CUT, Distribution
from .errors import (
    GridEmpty,
    HeadExhausted,
    OutsideSupport,
    TailExhausted,
)

INCREASING = "increasing"
DECREASING = "decreasing"
CONSTANT = "constant"
NON_MONOTONE = "non-monotone"

LOG_CONCAVE = "log-concave"
LOG_CONVEX = "log-convex"
NEITHER = "neither"

DEFAULT_SLACK = 1e-9
QUANTILE_CLIP = 1e-6


def grid_size() -> int:
    return int(os.environ.get("DISPERSION_GRID", "2048"))


@dataclass(frozen=True)
class MonotoneVerdict:
    """Outcome of a monotonicity scan.

    witness is a (x1, x2, (v1, v2)) adjacent pair exhibiting the largest
    violation, present exactly when direction is non-monotone.
    """

    direction: str
    witness: tuple[float, float, tuple[float, float]] | None
    grid: str
    slack: float

    @property
    def is_nonincreasing(self) -> bool:
        return self.direction in (DECREASING, CONSTANT)

    @property
    def is_nondecreasing(self) -> bool:
        return self.direction in (INCREASING, CONSTANT)


@dataclass(frozen=True)
class HazardReport:
    """Joint structural diagnosis of one law.

    Serializes flat: verdict strings, optional witness triples, the
    log-concavity classification of pdf/cdf/sf, and the audit flag.
    """

    h_verdict: MonotoneVerdict
    r_verdict: MonotoneVerdict
    logconcavity: dict[str, str]
    equivalence_audit_pass: bool

    def to_record(self) -> dict:
        rec = {
            "h_direction": self.h_verdict.direction,
            "h_witness": _witness_list(self.h_verdict),
            "r_direction": self.r_verdict.direction,
            "r_witness": _witness_list(self.r_verdict),
            "grid": self.h_verdict.grid,
            "slack": self.h_verdict.slack,
            "equivalence_audit_pass": self.equivalence_audit_pass,
        }
        for target in ("pdf", "cdf", "sf"):
            rec[f"logconcavity_{target}"] = self.logconcavity[target]
        return rec


def _witness_list(v: MonotoneVerdict):
    if v.witness is None:
        return None
    x1, x2, (v1, v2) = v.witness
    return [x1, x2, v1, v2]


# ---------------------------------------------------------------------------
# pointwise structural functions
# ---------------------------------------------------------------------------


def hazard_rate(d: Distribution, x: float) -> float:
    """f(x)/S(x) for continuous laws, f(x)/S(x-1) for lattice ones."""
    _require_in_support(d, x)
    val = float(_hazard_vals(d, np.asarray([x], float))[0])
    if not np.isfinite(val):
        raise TailExhausted(f"survival underflowed at x={x} for {d.label}")
    return val


def reverse_hazard_rate(d: Distribution, x: float) -> float:
    """f(x)/F(x)."""
    _require_in_support(d, x)
    val = float(_reverse_hazard_vals(d, np.asarray([x], float))[0])
    if not np.isfinite(val):
        raise HeadExhausted(f"CDF underflowed at x={x} for {d.label}")
    return val


def residual_functions(d: Distribution, x: float, t: float) -> tuple[float, float]:
    """(D, C) = (S(x+t)/S(x), F(x-t)/F(x)) for t >= 0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    _require_in_support(d, x)
    s_x = float(d.sf(x))
    f_x = float(d.cdf(x))
    if s_x <= 0:
        raise TailExhausted(f"S({x}) = 0 for {d.label}")
    if f_x <= 0:
        raise HeadExhausted(f"F({x}) = 0 for {d.label}")
    big_d = float(d.sf(x + t)) / s_x
    big_c = float(d.cdf(x - t)) / f_x
    return min(big_d, 1.0), min(big_c, 1.0)


def mean_excess(d: Distribution, t: float) -> float:
    """E[X - t | X > t] = Pi(t) / S(t) on both kinds (`Distribution.stop_loss`)."""
    s_t = float(d.sf(t))
    if s_t <= 0:
        raise TailExhausted(f"S({t}) = 0 for {d.label}")
    return d.stop_loss(t) / s_t


def _require_in_support(d: Distribution, x: float) -> None:
    if not d.support.contains(x):
        raise OutsideSupport(f"x={x} outside support of {d.label}")


def _hazard_vals(d: Distribution, xs: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        if d.is_lattice:
            return np.asarray(d.pdf(xs), float) / np.asarray(d.sf(xs - 1.0), float)
        return np.asarray(d.pdf(xs), float) / np.asarray(d.sf(xs), float)


def _reverse_hazard_vals(d: Distribution, xs: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return np.asarray(d.pdf(xs), float) / np.asarray(d.cdf(xs), float)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def scan_grid(d: Distribution) -> np.ndarray:
    return d.probe_grid(grid_size(), clip=QUANTILE_CLIP)


def _grid_label(d: Distribution) -> str:
    if d.is_lattice:
        return f"lattice[mass>={SUM_CUT:g}]"
    return f"quantile[{QUANTILE_CLIP:g},{1 - QUANTILE_CLIP}]n{grid_size()}"


def classify_sequence(
    xs: np.ndarray, vals: np.ndarray, slack: float, grid: str
) -> MonotoneVerdict:
    """Classify a sampled sequence as monotone up/down/constant or neither."""
    if len(xs) < 2:
        # a single probe point cannot falsify anything
        return MonotoneVerdict(CONSTANT, None, grid, slack)
    vals = np.asarray(vals, float)
    if not np.all(np.isfinite(vals)):
        raise GridEmpty("non-finite values on scan grid")
    diffs = np.diff(vals)
    scale = float(np.max(np.abs(vals)))
    tol = slack * scale
    up_ok = bool(np.all(diffs >= -tol))
    down_ok = bool(np.all(diffs <= tol))
    if up_ok and down_ok:
        return MonotoneVerdict(CONSTANT, None, grid, slack)
    if up_ok:
        return MonotoneVerdict(INCREASING, None, grid, slack)
    if down_ok:
        return MonotoneVerdict(DECREASING, None, grid, slack)
    i = int(np.argmax(np.abs(diffs)))
    witness = (float(xs[i]), float(xs[i + 1]), (float(vals[i]), float(vals[i + 1])))
    return MonotoneVerdict(NON_MONOTONE, witness, grid, slack)


def monotonicity_scan(
    fn: Callable[[np.ndarray], np.ndarray],
    d: Distribution,
    slack: float = DEFAULT_SLACK,
) -> MonotoneVerdict:
    """Classify fn's direction on the law's scan grid.

    fn may be vectorized or scalar-only; scalar functions are mapped
    pointwise.
    """
    xs = scan_grid(d)
    if len(xs) == 0:
        raise GridEmpty(f"empty scan grid for {d.label}")
    try:
        vals = np.asarray(fn(xs), float)
        if vals.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(fn(float(x))) for x in xs])
    return classify_sequence(xs, vals, slack, _grid_label(d))


def hazard_scan(d: Distribution, slack: float = DEFAULT_SLACK) -> MonotoneVerdict:
    xs = scan_grid(d)
    return classify_sequence(xs, _hazard_vals(d, xs), slack, _grid_label(d))


def reverse_hazard_scan(d: Distribution, slack: float = DEFAULT_SLACK) -> MonotoneVerdict:
    xs = scan_grid(d)
    return classify_sequence(xs, _reverse_hazard_vals(d, xs), slack, _grid_label(d))


def log_concavity_scan(
    d: Distribution, target: str, slack: float = DEFAULT_SLACK
) -> str:
    """Classify log pdf/cdf/sf as log-concave, log-convex, or neither.

    Continuous laws: secant slopes of the log target must be monotone
    (equivalent to second differences, but well defined on the non-uniform
    quantile grid). Lattice laws: exact ratio test
    G(x)^2 vs G(x-1) G(x+1) with per-point slack 1e-9 * |log G(x)|.
    A log-linear target passes both directions and reports log-concave.
    """
    if target not in ("pdf", "cdf", "sf"):
        raise ValueError(f"target must be pdf/cdf/sf, got {target!r}")
    if d.is_lattice:
        return _log_concavity_lattice(d, target, slack)
    xs = scan_grid(d)
    vals = _log_target(d, target, xs)
    ok = np.isfinite(vals)
    xs, vals = xs[ok], vals[ok]
    if len(xs) < 3:
        raise GridEmpty(f"log {target} not finite on scan grid for {d.label}")
    slopes = np.diff(vals) / np.diff(xs)
    mids = 0.5 * (xs[:-1] + xs[1:])
    verdict = classify_sequence(mids, slopes, slack, _grid_label(d))
    if verdict.direction in (DECREASING, CONSTANT):
        return LOG_CONCAVE
    if verdict.direction == INCREASING:
        return LOG_CONVEX
    return NEITHER


def _log_target(d: Distribution, target: str, xs: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        if target == "pdf":
            return np.asarray(d.log_pdf(xs), float)
        vals = np.asarray(getattr(d, "cdf" if target == "cdf" else "sf")(xs), float)
        return np.log(np.maximum(vals, 1e-320))


def _log_concavity_lattice(d: Distribution, target: str, slack: float) -> str:
    xs = scan_grid(d)
    fn = getattr(d, target)
    g = lambda k: np.asarray(fn(k), float)
    with np.errstate(all="ignore"):
        lg_m = np.log(g(xs - 1.0))
        lg_0 = np.log(g(xs))
        lg_p = np.log(g(xs + 1.0))
    ok = np.isfinite(lg_m) & np.isfinite(lg_0) & np.isfinite(lg_p)
    if not np.any(ok):
        raise GridEmpty(f"ratio test has no valid points for {d.label}")
    d2 = lg_m[ok] + lg_p[ok] - 2.0 * lg_0[ok]
    tol = slack * np.maximum(np.abs(lg_0[ok]), 1e-3)
    concave_ok = bool(np.all(d2 <= tol))
    convex_ok = bool(np.all(d2 >= -tol))
    if concave_ok:
        return LOG_CONCAVE
    if convex_ok:
        return LOG_CONVEX
    return NEITHER


# ---------------------------------------------------------------------------
# the equivalence audit
# ---------------------------------------------------------------------------


def _residual_spot_ts(d: Distribution) -> list[float]:
    iqr = d.iqr()
    if d.is_lattice:
        ts = sorted({max(1, round(c * iqr)) for c in (0.1, 0.5, 1.0)})
        return [float(t) for t in ts]
    if iqr <= 0:
        iqr = 1.0
    return [0.1 * iqr, 0.5 * iqr, 1.0 * iqr]


def _residual_scan(d: Distribution, t: float, which: str, slack: float) -> MonotoneVerdict:
    xs = scan_grid(d)
    with np.errstate(all="ignore"):
        if which == "D":
            denom = np.asarray(d.sf(xs), float)
            num = np.asarray(d.sf(xs + t), float)
        else:
            denom = np.asarray(d.cdf(xs), float)
            num = np.asarray(d.cdf(xs - t), float)
        vals = num / denom
    ok = np.isfinite(vals)
    return classify_sequence(xs[ok], vals[ok], slack, _grid_label(d))


def _direction_consistent(rate: MonotoneVerdict, resid: MonotoneVerdict) -> bool:
    """Rate increasing <-> residual decreasing in x (both chains pair this way)."""
    if rate.direction in (NON_MONOTONE, CONSTANT):
        # non-monotone rates make an existential claim spot t's cannot falsify;
        # constant rates satisfy either direction
        return True
    if rate.direction == INCREASING:
        return resid.is_nonincreasing
    return resid.is_nondecreasing


def _logclass_consistent(rate: MonotoneVerdict, cls: str, chain: str) -> bool:
    # chain "A": h increasing <-> S log-concave; chain "B": r increasing <-> F log-convex
    if rate.direction == CONSTANT:
        return cls in (LOG_CONCAVE, LOG_CONVEX)
    if rate.direction == NON_MONOTONE:
        return cls == NEITHER
    if chain == "A":
        expected = LOG_CONCAVE if rate.direction == INCREASING else LOG_CONVEX
    else:
        expected = LOG_CONVEX if rate.direction == INCREASING else LOG_CONCAVE
    return cls == expected


def equivalence_audit(d: Distribution, slack: float = DEFAULT_SLACK) -> HazardReport:
    """Cross-check the three characterizations of hazard monotonicity.

    Scans h and r, classifies log-concavity of pdf/cdf/sf, and spot-checks
    monotonicity in x of D(., t) and C(., t) at t in {0.1, 0.5, 1.0} * IQR
    (integer t for lattice laws). Passes iff every independent route agrees
    with the rate verdicts.
    """
    h_v = hazard_scan(d, slack)
    r_v = reverse_hazard_scan(d, slack)
    logc = {target: log_concavity_scan(d, target, slack) for target in ("pdf", "cdf", "sf")}
    ok = _logclass_consistent(h_v, logc["sf"], "A") and _logclass_consistent(
        r_v, logc["cdf"], "B"
    )
    for t in _residual_spot_ts(d):
        ok = ok and _direction_consistent(h_v, _residual_scan(d, t, "D", slack))
        ok = ok and _direction_consistent(r_v, _residual_scan(d, t, "C", slack))
    return HazardReport(
        h_verdict=h_v, r_verdict=r_v, logconcavity=logc, equivalence_audit_pass=bool(ok)
    )
