"""SD vs Gini mean difference ordering analytics.

The package diagnoses hazard-rate / log-concavity structure of parametric
distributions, computes both dispersion measures by closed forms,
quadrature or summation, certifies which one dominates, and cross-checks
every number against Monte Carlo and brute-force oracles.
"""

from . import errors
from .combinators import affine, convolve, mix, truncate
from .dist import ClosedForms, Distribution, Support
from .families import FamilySpec, list_families, make_distribution, parse_family_spec
from .hazard import (
    HazardReport,
    MonotoneVerdict,
    equivalence_audit,
    hazard_rate,
    log_concavity_scan,
    mean_excess,
    monotonicity_scan,
    residual_functions,
    reverse_hazard_rate,
)
from .measures import (
    ConcentrationValue,
    DispersionReport,
    MeanExcessCurve,
    concentration,
    dispersion_report,
    gmd,
    mean_excess_abs_diff,
    sd,
    tail_dispersion,
)
from .oracle import LatticeExact, OracleEstimate, brute_force_lattice, mc_estimate
from .ordering import (
    OrderingVerdict,
    ThresholdScan,
    classify,
    threshold_scan,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Support",
    "Distribution",
    "ClosedForms",
    "FamilySpec",
    "make_distribution",
    "parse_family_spec",
    "list_families",
    "affine",
    "mix",
    "truncate",
    "convolve",
    "hazard_rate",
    "reverse_hazard_rate",
    "residual_functions",
    "mean_excess",
    "monotonicity_scan",
    "log_concavity_scan",
    "equivalence_audit",
    "MonotoneVerdict",
    "HazardReport",
    "sd",
    "gmd",
    "dispersion_report",
    "mean_excess_abs_diff",
    "concentration",
    "tail_dispersion",
    "DispersionReport",
    "MeanExcessCurve",
    "ConcentrationValue",
    "classify",
    "threshold_scan",
    "OrderingVerdict",
    "ThresholdScan",
    "mc_estimate",
    "brute_force_lattice",
    "OracleEstimate",
    "LatticeExact",
]
