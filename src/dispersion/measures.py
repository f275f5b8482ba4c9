"""Dispersion measures: SD, GMD, the mean excess curve of Y = |X - X'| by
two independent routes, tail dispersion under truncation, and the
concentration value of a lattice law.

GMD uses the single-integral reduction 2 * int F(x) S(x) dx (2 * sum F S on
the lattice) of the pairwise-difference definition; its correctness is
gated on agreement with the Monte Carlo and brute-force oracles in the
test suite. Discrete sums run over `Distribution.lattice_table` at
`dist.SUM_CUT` (SD, GMD and Lambda).

The mean excess of Y reads one stop-loss table Pi(x) = E[(X - x)+] per
law: S_Y(y) = 2 E[S(X + y)] and int_t^inf S_Y = 2 E[Pi(X + t)] give the
direct route. The change-of-measure route stays independent: quadrature of
other integrands on continuous laws, other columns of the table on lattices.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .combinators import truncate
from .dist import SUM_CUT, Distribution
from .errors import (
    ContinuousInput,
    DegenerateY,
    DivergentMoment,
)
from .numerics import integrate

CLOSED_FORM = "closed-form"
QUADRATURE = "quadrature"
SUMMATION = "summation"


@dataclass(frozen=True)
class DispersionReport:
    sd: float
    gmd: float
    diff: float
    method: str
    err_estimate: float

    def to_record(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MeanExcessCurve:
    """m_Y(t) on a grid by the direct route and the change-of-measure route.

    baseline is m_Y(0) = E[Y] for continuous laws and E[Y] + 1/2 for
    lattice laws (the discrete ordering criterion's reference level).
    """

    ts: np.ndarray
    m_direct: np.ndarray
    m_repr: np.ndarray
    baseline: float


@dataclass(frozen=True)
class ConcentrationValue:
    """Tie probability Lambda = P(X = X') and the odds bound (1-L)/(2L)."""

    lambda_: float
    odds_bound: float


# ---------------------------------------------------------------------------
# SD and GMD
# ---------------------------------------------------------------------------


def _moments_numeric(d: Distribution) -> tuple[float, float, float]:
    """(mean, second moment, error estimate)."""
    if d.is_lattice:
        pts, f, _, _ = d.lattice_table(SUM_CUT)
        m1 = float(np.dot(pts, f))
        m2 = float(np.dot(pts * pts, f))
        if d.tail_sums is not None:
            t1, t2, _ = d.tail_sums(int(pts[-1]))
            m1 += t1
            m2 += t2
        return m1, m2, SUM_CUT
    lo, hi = d.support.lower, d.support.upper
    m1, e1 = integrate(lambda x: x * float(d.pdf(x)), lo, hi)
    m2, e2 = integrate(lambda x: x * x * float(d.pdf(x)), lo, hi)
    return m1, m2, e2 + 2 * abs(m1) * e1


def sd_numeric(d: Distribution) -> tuple[float, float]:
    """(sd, error estimate) by quadrature/summation of the first two moments."""
    m1, m2, err = _moments_numeric(d)
    var = m2 - m1 * m1
    if not np.isfinite(var) or var <= 0:
        raise DivergentMoment(f"variance of {d.label} is not a positive finite number")
    s = math.sqrt(var)
    return s, err / (2 * s)


def gmd_numeric(d: Distribution) -> tuple[float, float]:
    """(gmd, error estimate) via 2 * int F S dx or 2 * sum F S."""
    if d.is_lattice:
        pts, _, big_f, big_s = d.lattice_table(SUM_CUT)
        total = 2.0 * float(np.dot(big_f, big_s))
        if d.tail_sums is not None:
            total += 2.0 * d.tail_sums(int(pts[-1]))[2]
        return total, SUM_CUT
    lo, hi = d.support.lower, d.support.upper
    val, err = integrate(lambda x: float(d.cdf(x)) * float(d.sf(x)), lo, hi)
    if not np.isfinite(val):
        raise DivergentMoment(f"GMD integral for {d.label} diverged")
    return 2.0 * val, 2.0 * err


def sd(d: Distribution) -> float:
    """Standard deviation; closed form when the registry supplies one."""
    if d.closed.sd is not None:
        return float(d.closed.sd)
    return sd_numeric(d)[0]


def gmd(d: Distribution) -> float:
    """Gini mean difference E|X - X'|; closed form when known."""
    if d.closed.gmd is not None:
        return float(d.closed.gmd)
    return gmd_numeric(d)[0]


def dispersion_report(d: Distribution) -> DispersionReport:
    err = 0.0
    method = CLOSED_FORM
    numeric_method = SUMMATION if d.is_lattice else QUADRATURE
    if d.closed.sd is not None:
        sd_val = float(d.closed.sd)
    else:
        sd_val, e = sd_numeric(d)
        err += e
        method = numeric_method
    if d.closed.gmd is not None:
        gmd_val = float(d.closed.gmd)
    else:
        gmd_val, e = gmd_numeric(d)
        err += e
        method = numeric_method
    return DispersionReport(
        sd=sd_val, gmd=gmd_val, diff=sd_val - gmd_val, method=method, err_estimate=err
    )


def tail_dispersion(d: Distribution, side: str, u: float) -> DispersionReport:
    """SD/GMD of the tail law (X | X > u) for side='lower', (X | X <= u) else."""
    return dispersion_report(truncate(d, side, u))


# ---------------------------------------------------------------------------
# concentration value (lattice)
# ---------------------------------------------------------------------------


def concentration(d: Distribution) -> ConcentrationValue:
    """Lambda = P(X = X') = sum f(x)^2, with the odds-against-tie bound."""
    if not d.is_lattice:
        raise ContinuousInput(
            f"{d.label} is continuous; ties have probability zero and the "
            "concentration value is undefined"
        )
    f = d.lattice_table(SUM_CUT)[1]
    lam = float(np.dot(f, f))
    return ConcentrationValue(lambda_=lam, odds_bound=(1.0 - lam) / (2.0 * lam))


# ---------------------------------------------------------------------------
# mean excess of Y = |X - X'|
# ---------------------------------------------------------------------------

_MIN_SY = 1e-300


def abs_diff_survival(d: Distribution, y: float) -> float:
    """S_Y(y) = P(|X - X'| > y) = 2 E[S_X(X + y)] for y >= 0."""
    return 2.0 * float(d.shifted_mean("sf", [y])[0])


def mean_excess_abs_diff(d: Distribution, ts) -> MeanExcessCurve:
    """Mean excess of Y = |X - X'| on a t-grid, by two independent routes.

    m_direct is the stop-loss ratio E[Pi(X + t)] / E[S(X + t)] of
    `Distribution.shifted_mean`. m_repr evaluates the change-of-measure
    representation with weights dQ^F proportional to F(x) dF(x) by adaptive
    quadrature (F(x-1) f(x) on the lattice, where the C argument shifts to
    x - 1, summed over the stop-loss table).
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise ValueError("t grid must be nonnegative")
    if d.is_lattice and np.any(ts != np.floor(ts)):
        raise ValueError("lattice mean-excess grids must use integer t")
    den = d.shifted_mean("sf", ts)
    if np.any(2.0 * den < _MIN_SY):
        raise DegenerateY(f"S_Y({ts[2.0 * den < _MIN_SY][0]:g}) underflowed for {d.label}")
    direct = d.shifted_mean("stop_loss", ts) / den
    if d.is_lattice:
        repr_ = _m_repr_curve_lattice(d, ts.astype(int))
    else:
        repr_ = np.array([_m_repr_continuous(d, float(t)) for t in ts])
    baseline = gmd(d) + (0.5 if d.is_lattice else 0.0)
    return MeanExcessCurve(ts=ts, m_direct=direct, m_repr=repr_, baseline=baseline)


def _m_repr_continuous(d: Distribution, t: float) -> float:
    """int F(x - t) S(x) dx / int F(x - t) f(x) dx: the change-of-measure
    integrands C (1/h) F f and C F f with C = F(x - t) / F(x) and 1/h = S / f
    multiplied out, so the numerator keeps its mass where f = 0 inside the
    hull of a gapped support."""

    def weighted(g):
        def fn(x):
            v = float(d.cdf(x - t)) * float(g(x))
            return v if np.isfinite(v) else 0.0  # F(x - t) = 0 beside a density pole

        return fn

    # both integrands vanish below lo + t, where F(x - t) = 0
    lo, hi = d.support.lower, d.support.upper
    start = lo + t if np.isfinite(lo) else lo
    num, _ = integrate(weighted(d.sf), start, hi)
    den, _ = integrate(weighted(d.pdf), start, hi)
    if den < _MIN_SY:
        raise DegenerateY(f"S_Y({t}) underflowed for {d.label}")
    return num / den


def _m_repr_curve_lattice(d: Distribution, ts: np.ndarray) -> np.ndarray:
    """sum_x F(x-1-t) S(x-1) / sum_x F(x-1-t) f(x) over `excess_table`: the
    change-of-measure sums, weights F(x-1) f(x), C = F(x-1-t) / F(x-1) and
    1/h = S(x-1) / f(x) multiplied out, F(x-1-t) a shifted cdf slice."""
    _, f, big_f, big_s, _ = d.excess_table(int(np.max(ts, initial=0)))
    n = len(f)
    out = np.empty(len(ts))
    for i, t in enumerate(ts):
        den = float(np.dot(big_f[: n - 1 - t], f[t + 1 :]))
        if den < _MIN_SY:
            raise DegenerateY(f"S_Y({t}) underflowed for {d.label}")
        out[i] = float(np.dot(big_f[: n - 1 - t], big_s[t : n - 1])) / den
    return out
