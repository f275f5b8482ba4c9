"""Hazard-rate structure: the four associated functions, the mean excess
function, and grid-based monotonicity / log-concavity diagnostics.

Monotone directions are non-strict throughout: a constant function counts
as both nondecreasing and nonincreasing and is reported as "constant".
Every scan of a law runs on its one probe grid (`Distribution.probe_grid`):
on a continuous law `dist.SCAN_POINTS` = 2048 quantile-spaced points over
[q(1e-6), q(1 - 1e-6)], the clip being `dist.SCAN_CLIP`; on a lattice law
every point carrying mass >= `dist.SUM_CUT` (1e-12). `Distribution.probe_values`
takes pdf, cdf and sf on it once for every scan: on a lattice law from the
rows of its table, whose neighbouring rows also give the scans S(x - 1) and
G(x +- 1), so a lattice scan calls the law only past the table's ends. Every
scan holds to one relative tolerance, `SLACK` = 1e-9, and each verdict records
the grid (`Distribution.probe_label`) and the tolerance. The mean excess of X
reads the law's stop-loss table
(`Distribution.stop_loss`), the one behind the mean excess of |X - X'|, which
holds past the end of a lattice table too.

Log-concavity of a continuous law is read from secant slopes of the log of
those columns, floored at 1e-320, so a scan evaluates no law past them; log
pdf there is what `Distribution.logpdf` returns.

`equivalence_audit` scans h and r and classifies log pdf, cdf and sf at once;
its cross-check of those verdicts, the residual spot checks included, runs
only when its flag or a record is read (`HazardReport.equivalence_audit_pass`).
No verdict depends on it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dist import SCAN_CLIP, Distribution
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

# relative tolerance of every scan: a step against a direction is forgiven up
# to SLACK times the larger of its two values (times |log G(x)| per lattice
# point)
SLACK = 1e-9


@dataclass(frozen=True)
class MonotoneVerdict:
    """Outcome of a monotonicity scan.

    witness is a (x1, x2, (v1, v2)) adjacent pair exhibiting the largest
    violation, present exactly when direction is non-monotone: the largest
    rise when no rise is as large as the largest fall (a sequence that falls
    but for a dip), else the largest fall.
    """

    direction: str
    witness: tuple[float, float, tuple[float, float]] | None
    grid: str

    @property
    def is_nonincreasing(self) -> bool:
        return self.direction in (DECREASING, CONSTANT)

    @property
    def is_nondecreasing(self) -> bool:
        return self.direction in (INCREASING, CONSTANT)


@dataclass(frozen=True)
class HazardReport:
    """Joint structural diagnosis of one law.

    The rate verdicts and the log-concavity classes of pdf/cdf/sf are computed
    when the report is made. The audit flag, residual spot checks included,
    is computed from `law` when it or `to_record()` is first read, and kept;
    no verdict depends on it.
    Serializes flat: verdict strings, optional witness triples, the
    log-concavity classification of pdf/cdf/sf, and the audit flag.
    """

    h_verdict: MonotoneVerdict
    r_verdict: MonotoneVerdict
    logconcavity: dict[str, str]
    law: Distribution = field(compare=False, repr=False)

    @cached_property
    def equivalence_audit_pass(self) -> bool:
        """The audit of `equivalence_audit`, run on first read and kept."""
        h_v, r_v, d = self.h_verdict, self.r_verdict, self.law
        ok = _logclass_consistent(h_v, self.logconcavity["sf"], "A") and _logclass_consistent(
            r_v, self.logconcavity["cdf"], "B"
        )
        for t in _residual_spot_ts(d):
            ok = ok and _direction_consistent(h_v, _residual_scan(d, t, "D"))
            ok = ok and _direction_consistent(r_v, _residual_scan(d, t, "C"))
        return bool(ok)

    def to_record(self) -> dict:
        rec = {
            "h_direction": self.h_verdict.direction,
            "h_witness": _witness_list(self.h_verdict),
            "r_direction": self.r_verdict.direction,
            "r_witness": _witness_list(self.r_verdict),
            "grid": self.h_verdict.grid,
            "slack": SLACK,
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
    xs = np.asarray([x], float)
    val = float(_ratio(d.pdf(xs), d.sf(xs - 1.0 if d.is_lattice else xs))[0])
    if not np.isfinite(val):
        raise TailExhausted(f"survival underflowed at x={x} for {d.label}")
    return val


def reverse_hazard_rate(d: Distribution, x: float) -> float:
    """f(x)/F(x)."""
    _require_in_support(d, x)
    xs = np.asarray([x], float)
    val = float(_ratio(d.pdf(xs), d.cdf(xs))[0])
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


def _ratio(num, den) -> np.ndarray:
    with np.errstate(all="ignore"):
        return np.asarray(num, float) / np.asarray(den, float)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def classify_sequence(xs: np.ndarray, vals: np.ndarray, grid: str) -> MonotoneVerdict:
    """Classify a sampled sequence as monotone up/down/constant or neither."""
    if len(xs) < 2:
        # a single probe point cannot falsify anything
        return MonotoneVerdict(CONSTANT, None, grid)
    vals = np.asarray(vals, float)
    if not np.all(np.isfinite(vals)):
        raise GridEmpty("non-finite values on scan grid")
    diffs = np.diff(vals)
    # local to each step: a grid that reaches nearer a pole, where a rate
    # grows like 1/|x - end|, forgives no larger step elsewhere
    tol = SLACK * np.maximum(np.abs(vals[:-1]), np.abs(vals[1:]))
    up_ok = bool(np.all(diffs >= -tol))
    down_ok = bool(np.all(diffs <= tol))
    if up_ok and down_ok:
        return MonotoneVerdict(CONSTANT, None, grid)
    if up_ok:
        return MonotoneVerdict(INCREASING, None, grid)
    if down_ok:
        return MonotoneVerdict(DECREASING, None, grid)
    # against the direction the sequence comes nearer to keeping
    i = int(np.argmax(diffs) if diffs.max() <= -diffs.min() else np.argmin(diffs))
    witness = (float(xs[i]), float(xs[i + 1]), (float(vals[i]), float(vals[i + 1])))
    return MonotoneVerdict(NON_MONOTONE, witness, grid)


def monotonicity_scan(fn: Callable[[np.ndarray], np.ndarray], d: Distribution) -> MonotoneVerdict:
    """Classify fn's direction on the law's scan grid.

    fn may be vectorized or scalar-only; scalar functions are mapped
    pointwise.
    """
    xs = d.probe_grid()
    if len(xs) == 0:
        raise GridEmpty(f"empty scan grid for {d.label}")
    try:
        vals = np.asarray(fn(xs), float)
        if vals.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(fn(float(x))) for x in xs])
    return classify_sequence(xs, vals, d.probe_label)


def hazard_scan(d: Distribution) -> MonotoneVerdict:
    """f / S on the scan grid; on the lattice f(x) / S(x - 1), read from the
    table row below x."""
    xs, f = d.probe_values("pdf")
    s = d._lattice_read("sf", xs - 1.0) if d.is_lattice else d.probe_values("sf")[1]
    return _rate_verdict(d, xs, _ratio(f, s))


def reverse_hazard_scan(d: Distribution) -> MonotoneVerdict:
    xs, f, c = d.probe_values("pdf", "cdf")
    return _rate_verdict(d, xs, _ratio(f, c))


def _rate_verdict(d: Distribution, xs: np.ndarray, vals: np.ndarray) -> MonotoneVerdict:
    """classify_sequence of a hazard or reverse hazard. A continuous grid whose
    clipped quantile rounds onto a finite support end, where S or F is 0 and
    the rate is not finite, is refused with that end named (beta laws of
    second shape 0.3 or less put q(1 - 1e-6) within 1e-20 of 1). The grid is
    nondecreasing, so only its first and last points can lie on an end."""
    if not d.is_lattice and len(xs):
        for i, end, p in ((0, d.support.lower, SCAN_CLIP), (-1, d.support.upper, 1.0 - SCAN_CLIP)):
            if xs[i] == end and not np.isfinite(vals[i]):
                raise GridEmpty(
                    f"scan grid of {d.label} reaches its support end {end:g}, where the density is "
                    f"{float(d.pdf(end)):g}: its quantile at {p:g} rounds onto that end"
                )
    return classify_sequence(xs, vals, d.probe_label)


def log_concavity_scan(d: Distribution, target: str) -> str:
    """Classify log pdf/cdf/sf as log-concave, log-convex, or neither.

    Continuous laws: secant slopes of the log target must be monotone
    (equivalent to second differences, but well defined on the non-uniform
    quantile grid). Lattice laws: exact ratio test
    G(x)^2 vs G(x-1) G(x+1) with per-point slack SLACK * |log G(x)|.
    A log-linear target passes both directions and reports log-concave.
    """
    if target not in ("pdf", "cdf", "sf"):
        raise ValueError(f"target must be pdf/cdf/sf, got {target!r}")
    if d.is_lattice:
        return _log_concavity_lattice(d, target)
    xs, vals = _log_target(d, target)
    ok = np.isfinite(vals)
    xs, vals = xs[ok], vals[ok]
    if len(xs) < 3:
        raise GridEmpty(f"log {target} not finite on scan grid for {d.label}")
    slopes = np.diff(vals) / np.diff(xs)
    mids = 0.5 * (xs[:-1] + xs[1:])
    verdict = classify_sequence(mids, slopes, d.probe_label)
    if verdict.direction in (DECREASING, CONSTANT):
        return LOG_CONCAVE
    if verdict.direction == INCREASING:
        return LOG_CONVEX
    return NEITHER


def _log_target(d: Distribution, target: str) -> tuple[np.ndarray, np.ndarray]:
    """(scan grid, log of its pdf, cdf or sf column floored at 1e-320): on the
    pdf column, the values `Distribution.logpdf` returns there."""
    xs, vals = d.probe_values(target)
    with np.errstate(all="ignore"):
        return xs, np.log(np.maximum(vals, 1e-320))


def _log_concavity_lattice(d: Distribution, target: str) -> str:
    # G(x - 1) and G(x + 1) from the table rows beside the grid's
    xs, g0 = d.probe_values(target)
    with np.errstate(all="ignore"):
        lg_m = np.log(d._lattice_read(target, xs - 1.0))
        lg_0 = np.log(g0)
        lg_p = np.log(d._lattice_read(target, xs + 1.0))
    ok = np.isfinite(lg_m) & np.isfinite(lg_0) & np.isfinite(lg_p)
    if not np.any(ok):
        raise GridEmpty(f"ratio test has no valid points for {d.label}")
    d2 = lg_m[ok] + lg_p[ok] - 2.0 * lg_0[ok]
    tol = SLACK * np.maximum(np.abs(lg_0[ok]), 1e-3)
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


def _residual_scan(d: Distribution, t: float, which: str) -> MonotoneVerdict:
    """D(x, t) = S(x + t)/S(x) or C(x, t) = F(x - t)/F(x) on the scan grid; a
    lattice law reads the shifted column from its table."""
    name, shift = ("sf", t) if which == "D" else ("cdf", -t)
    xs, denom = d.probe_values(name)
    num = d._lattice_read(name, xs + shift) if d.is_lattice else getattr(d, name)(xs + shift)
    vals = _ratio(num, denom)
    ok = np.isfinite(vals)
    return classify_sequence(xs[ok], vals[ok], d.probe_label)


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


def equivalence_audit(d: Distribution) -> HazardReport:
    """Cross-check the three characterizations of hazard monotonicity.

    Scans h and r and classifies log-concavity of pdf/cdf/sf now. The report's
    `equivalence_audit_pass` spot-checks monotonicity in x of D(., t) and
    C(., t) at t in {0.1, 0.5, 1.0} * IQR (integer t for lattice laws) when it
    is first read, and passes iff every independent route agrees with the
    rate verdicts. No verdict depends on it.
    """
    h_v = hazard_scan(d)
    r_v = reverse_hazard_scan(d)
    logc = {target: log_concavity_scan(d, target) for target in ("pdf", "cdf", "sf")}
    return HazardReport(h_verdict=h_v, r_verdict=r_v, logconcavity=logc, law=d)
