"""Dominance classification: which theorem (if any) certifies the SD-GMD
ordering, threshold scans for tail truncation, and closure checks.

A certificate is issued only from the structural hypotheses (hazard and
reverse-hazard monotonicity, density log-concavity, and for lattice laws
the concentration bound on the GMD); the numeric sign of SD - GMD is always
attached as independent evidence but never upgrades an inconclusive
verdict. A certificate that contradicts the numeric sign beyond tolerance
raises ConsistencyViolation, which marks a bug rather than a result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinators import LOWER, UPPER, affine, convolve, mix, truncate
from .dist import Distribution
from .errors import ConsistencyViolation, CriterionNeverHolds
from .hazard import (
    LOG_CONCAVE,
    HazardReport,
    equivalence_audit,
    hazard_scan,
    log_concavity_scan,
    reverse_hazard_scan,
)
from .measures import ConcentrationValue, DispersionReport, concentration, dispersion_report

SD_DOMINATES = "sd-dominates"
GMD_DOMINATES = "gmd-dominates"
INCONCLUSIVE = "inconclusive"

THM_SD_CONT = "thm-sd-continuous"
THM_GMD_CONT = "thm-gmd-continuous"
PROP_LOGCONCAVE = "prop-logconcave-density"
THM_SD_DISC = "thm-sd-discrete"
THM_GMD_DISC = "thm-gmd-discrete"
NO_BASIS = "none"

SIGN_TOL = 1e-8


@dataclass(frozen=True)
class OrderingEvidence:
    hazard: HazardReport
    concentration: ConcentrationValue | None = None
    gmd_bound_ok: bool | None = None
    note: str | None = None

    def to_record(self) -> dict:
        rec = {"hazard": self.hazard.to_record()}
        if self.concentration is not None:
            rec["lambda"] = self.concentration.lambda_
            rec["odds_bound"] = self.concentration.odds_bound
        if self.gmd_bound_ok is not None:
            rec["gmd_bound_ok"] = self.gmd_bound_ok
        if self.note is not None:
            rec["note"] = self.note
        return rec


@dataclass(frozen=True)
class OrderingVerdict:
    """The verdict, its basis and evidence, and the SD/GMD report behind it."""

    verdict: str
    basis: str
    evidence: OrderingEvidence
    report: DispersionReport

    @property
    def numeric_diff(self) -> float:
        return self.report.diff

    def to_record(self) -> dict:
        return {
            "verdict": self.verdict,
            "basis": self.basis,
            "numeric_diff": self.numeric_diff,
            "evidence": self.evidence.to_record(),
        }


@dataclass(frozen=True)
class ThresholdScan:
    side: str
    u_star: float
    criterion: str
    verified_range: list[tuple[float, bool]]


def classify(d: Distribution) -> OrderingVerdict:
    """Certified SD/GMD ordering verdict with independent numeric evidence.

    Continuous: SD dominance from a decreasing h or an increasing r; GMD
    dominance from a log-concave density, or from h increasing together
    with r decreasing. Lattice: SD dominance (strict) from the same rate
    hypotheses; GMD dominance additionally requires
    GMD <= (1 - Lambda) / (2 Lambda). Constant rates satisfy either
    non-strict hypothesis and certify SD dominance first.
    """
    report = equivalence_audit(d)
    h_v, r_v = report.h_verdict, report.r_verdict
    disp = dispersion_report(d)

    conc = None
    bound_ok = None
    note = None
    if d.is_lattice:
        conc = concentration(d)

    h_route = h_v.is_nonincreasing
    r_route = r_v.is_nondecreasing
    if d.is_lattice:
        # a decreasing h forces support unbounded above, an increasing r
        # forces it unbounded below; on a finite lattice the scan verdict is
        # vacuous, so withhold the certificate and say why
        if h_route and np.isfinite(d.support.upper):
            h_route = False
            note = (
                "hazard scanned non-strictly decreasing but the lattice is "
                "bounded above, which that hypothesis rules out; "
                "certificate withheld"
            )
        if r_route and np.isfinite(d.support.lower):
            r_route = False
            note = (
                "reverse hazard scanned non-strictly increasing but the "
                "lattice is bounded below, which that hypothesis rules out; "
                "certificate withheld"
            )

    def certify(verdict: str, basis: str, evidence: OrderingEvidence) -> OrderingVerdict:
        v = OrderingVerdict(verdict, basis, evidence, disp)
        wrong = v.numeric_diff < -SIGN_TOL if verdict == SD_DOMINATES else v.numeric_diff > SIGN_TOL
        if wrong:
            raise ConsistencyViolation(
                f"{d.label}: certified {basis} but SD - GMD = {v.numeric_diff}"
            )
        return v

    if h_route or r_route:
        basis = THM_SD_DISC if d.is_lattice else THM_SD_CONT
        return certify(SD_DOMINATES, basis, OrderingEvidence(report, conc, None, note))

    pdf_logconcave = report.logconcavity["pdf"] == LOG_CONCAVE
    both_rates = h_v.is_nondecreasing and r_v.is_nonincreasing
    if d.is_lattice:
        if pdf_logconcave or both_rates:
            bound_ok = bool(disp.gmd <= conc.odds_bound + 1e-12)
            if bound_ok:
                return certify(GMD_DOMINATES, THM_GMD_DISC, OrderingEvidence(report, conc, True, note))
        evidence = OrderingEvidence(report, conc, bound_ok, note)
        return OrderingVerdict(INCONCLUSIVE, NO_BASIS, evidence, disp)

    if pdf_logconcave or both_rates:
        basis = PROP_LOGCONCAVE if pdf_logconcave else THM_GMD_CONT
        return certify(GMD_DOMINATES, basis, OrderingEvidence(report, None, None, note))
    return OrderingVerdict(INCONCLUSIVE, NO_BASIS, OrderingEvidence(report, conc, bound_ok, note), disp)


# ---------------------------------------------------------------------------
# threshold scans
# ---------------------------------------------------------------------------

TAIL_HAZARD = "tail-hazard-monotone"
TAIL_LOGCONCAVE = "tail-density-logconcave"


def _tail_criterion_holds(d: Distribution, side: str, u: float, criterion: str) -> bool:
    tail = truncate(d, side, u)
    if criterion == TAIL_LOGCONCAVE:
        return log_concavity_scan(tail, "pdf") == LOG_CONCAVE
    if criterion == TAIL_HAZARD:
        if side == LOWER:
            return hazard_scan(tail).is_nonincreasing
        return reverse_hazard_scan(tail).is_nondecreasing
    raise ValueError(f"unknown criterion {criterion!r}")


def threshold_scan(d: Distribution, side: str, criterion: str, u_grid) -> ThresholdScan:
    """Find the threshold beyond which a tail criterion holds.

    side='lower' scans (X | X > u) and reports the smallest grid u from
    which the criterion persists for every deeper u; side='upper' scans
    (X | X <= u) and reports the largest such u. Raises CriterionNeverHolds
    when no grid point qualifies.
    """
    us = sorted(float(u) for u in u_grid)
    if side not in (LOWER, UPPER):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    verdicts = [(u, _tail_criterion_holds(d, side, u, criterion)) for u in us]
    flags = [ok for _, ok in verdicts]
    u_star = None
    if side == LOWER:
        # smallest u such that the criterion holds from u onward
        for i in range(len(us)):
            if all(flags[i:]):
                u_star = us[i]
                break
    else:
        for i in range(len(us) - 1, -1, -1):
            if all(flags[: i + 1]):
                u_star = us[i]
                break
    if u_star is None:
        raise CriterionNeverHolds(
            f"{criterion} holds at no persistent threshold on the grid for {d.label}"
        )
    return ThresholdScan(side=side, u_star=u_star, criterion=criterion, verified_range=verdicts)


# ---------------------------------------------------------------------------
# closure checks
# ---------------------------------------------------------------------------

_CONSTRUCTS = {
    "mixture": lambda inputs: mix(inputs[0], inputs[1]),
    "convolution": lambda inputs: convolve(inputs[0], inputs[1]),
    "truncation": lambda inputs: truncate(inputs[0], inputs[1], inputs[2]),
    "affine": lambda inputs: affine(inputs[0], inputs[1], inputs[2]),
}


def closure_check(construct: str, inputs, expected: str) -> bool:
    """Build the combined law and test whether the expected verdict survives.

    Every input Distribution must itself classify with the expected verdict
    (the closure propositions presume their hypotheses); the check passes
    when the combined law keeps both the certificate and the numeric sign.
    """
    if construct not in _CONSTRUCTS:
        raise ValueError(f"unknown construct {construct!r}")
    if expected not in (SD_DOMINATES, GMD_DOMINATES):
        raise ValueError(f"expected must be a dominance verdict, got {expected!r}")
    parts = [x for x in (inputs[0] if construct == "mixture" else inputs) if isinstance(x, Distribution)]
    for part in parts:
        pre = classify(part)
        if pre.verdict != expected:
            raise ValueError(
                f"input {part.label} classifies as {pre.verdict}, not the "
                f"expected {expected}; closure hypotheses do not apply"
            )
    combined = _CONSTRUCTS[construct](inputs)
    v = classify(combined)
    if v.verdict != expected:
        return False
    if expected == SD_DOMINATES:
        return v.numeric_diff >= -SIGN_TOL
    return v.numeric_diff <= SIGN_TOL
