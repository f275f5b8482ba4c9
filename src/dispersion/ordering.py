"""Dominance classification: which theorem (if any) certifies the SD-GMD
ordering, and threshold scans for tail truncation.

A certificate is issued only from the structural hypotheses (hazard and
reverse-hazard monotonicity, density log-concavity, and for lattice laws
the concentration bound on the GMD); the numeric sign of SD - GMD is always
attached as independent evidence but never upgrades an inconclusive
verdict. `classify` picks one verdict, then one sign gate raises
ConsistencyViolation on a certificate that contradicts the numeric sign
beyond tolerance, which marks a bug rather than a result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinators import LOWER, UPPER, truncate
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
    hypotheses, withheld where the support end they rule out is finite; GMD
    dominance additionally requires GMD <= (1 - Lambda) / (2 Lambda), and a
    law whose GMD hypotheses hold but whose bound fails stays inconclusive
    with gmd_bound_ok False. Constant rates satisfy either non-strict
    hypothesis and certify SD dominance first. The verdict, picked once and
    checked by one sign gate, reads the rate verdicts and the density's
    log-concavity class only; the evidence's audit flag, residual spot checks
    included, is computed when it or a record is read.
    """
    report = equivalence_audit(d)
    h_v, r_v = report.h_verdict, report.r_verdict
    disp = dispersion_report(d)
    conc = concentration(d) if d.is_lattice else None
    bound_ok = note = None

    h_route, r_route = h_v.is_nonincreasing, r_v.is_nondecreasing
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

    pdf_logconcave = report.logconcavity["pdf"] == LOG_CONCAVE
    gmd_route = pdf_logconcave or (h_v.is_nondecreasing and r_v.is_nonincreasing)
    verdict, basis = INCONCLUSIVE, NO_BASIS
    if h_route or r_route:
        verdict, basis = SD_DOMINATES, THM_SD_DISC if d.is_lattice else THM_SD_CONT
    elif gmd_route and d.is_lattice:
        bound_ok = bool(disp.gmd <= conc.odds_bound + 1e-12)
        if bound_ok:
            verdict, basis = GMD_DOMINATES, THM_GMD_DISC
    elif gmd_route:
        verdict, basis = GMD_DOMINATES, PROP_LOGCONCAVE if pdf_logconcave else THM_GMD_CONT

    # the one sign gate: a certificate that SD - GMD contradicts is a bug
    if {SD_DOMINATES: disp.diff < -SIGN_TOL, GMD_DOMINATES: disp.diff > SIGN_TOL}.get(verdict, False):
        raise ConsistencyViolation(f"{d.label}: certified {basis} but SD - GMD = {disp.diff}")
    return OrderingVerdict(verdict, basis, OrderingEvidence(report, conc, bound_ok, note), disp)


# ---------------------------------------------------------------------------
# threshold scans
# ---------------------------------------------------------------------------

TAIL_HAZARD = "tail-hazard-monotone"
TAIL_LOGCONCAVE = "tail-density-logconcave"


def _tail_criterion_holds(d: Distribution, side: str, u: float, criterion: str) -> bool:
    tail = truncate(d, side, u)
    if criterion == TAIL_LOGCONCAVE:
        return log_concavity_scan(tail, "pdf") == LOG_CONCAVE
    if side == LOWER:
        return hazard_scan(tail).is_nonincreasing
    return reverse_hazard_scan(tail).is_nondecreasing


def threshold_scan(d: Distribution, side: str, criterion: str, u_grid) -> ThresholdScan:
    """Find the threshold beyond which a tail criterion holds.

    side='lower' scans (X | X > u) and reports the smallest grid u from
    which the criterion persists for every deeper u; side='upper' scans
    (X | X <= u) and reports the largest such u. Raises CriterionNeverHolds
    when no grid point qualifies, and ValueError on an unknown side or
    criterion before it builds any truncated law.
    """
    if side not in (LOWER, UPPER):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    if criterion not in (TAIL_HAZARD, TAIL_LOGCONCAVE):
        raise ValueError(f"unknown criterion {criterion!r}")
    us = sorted(float(u) for u in u_grid)
    verdicts = [(u, _tail_criterion_holds(d, side, u, criterion)) for u in us]
    failing = [i for i, (_, ok) in enumerate(verdicts) if not ok]
    # lower: the point past the last failure; upper: the one before the first
    if side == LOWER:
        i = failing[-1] + 1 if failing else 0
    else:
        i = failing[0] - 1 if failing else len(us) - 1
    if not 0 <= i < len(us):
        raise CriterionNeverHolds(
            f"{criterion} holds at no persistent threshold on the grid for {d.label}"
        )
    return ThresholdScan(side=side, u_star=us[i], criterion=criterion, verified_range=verdicts)
