"""Dispersion measures: SD, GMD, the mean excess curve of Y = |X - X'| by
two independent routes, tail dispersion under truncation, and the
concentration value of a lattice law.

GMD uses the single-integral reduction 2 * int F(x) S(x) dx (2 * sum F S on
the lattice) of the pairwise-difference definition; its correctness is
gated on agreement with the Monte Carlo and brute-force oracles in the
test suite. Discrete sums run over `Distribution.lattice_table`: SD, GMD
and Lambda at `dist.SUM_CUT`, the mean excess of |X - X'| at
`dist.EXCESS_CUT` (the constants in `dist` give each cut's reason).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinators import truncate
from .dist import EXCESS_CUT, SUM_CUT, Distribution
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
        return {
            "sd": self.sd,
            "gmd": self.gmd,
            "diff": self.diff,
            "method": self.method,
            "err_estimate": self.err_estimate,
        }


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
    if d.is_lattice:
        pts, f, _, _ = d.lattice_table(EXCESS_CUT)
        return 2.0 * float(np.dot(f, np.asarray(d.sf(pts + math.floor(y)), float)))
    val, _ = integrate(
        lambda x: float(d.sf(x + y)) * float(d.pdf(x)),
        d.support.lower,
        d.support.upper,
    )
    return 2.0 * val


def mean_excess_abs_diff(d: Distribution, ts) -> MeanExcessCurve:
    """Mean excess of Y = |X - X'| on a t-grid, by two independent routes.

    m_direct integrates the survival function of Y (inner quadrature in x
    for each y, outer in y; exact sums on the lattice). m_repr evaluates the
    change-of-measure representation with weights dQ^F proportional to
    F(x) dF(x) (F(x-1) f(x) on the lattice, where the C argument shifts to
    x - 1).
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise ValueError("t grid must be nonnegative")
    if d.is_lattice:
        if np.any(ts != np.floor(ts)):
            raise ValueError("lattice mean-excess grids must use integer t")
        sy = _lattice_sy(d)
        direct = np.array([_m_direct_lattice(d, sy, int(t)) for t in ts])
        repr_ = _m_repr_curve_lattice(d, [int(t) for t in ts])
        baseline = gmd(d) + 0.5
    else:
        direct = _m_direct_curve_continuous(d, ts)
        repr_ = np.array([_m_repr_continuous(d, float(t)) for t in ts])
        baseline = gmd(d)
    return MeanExcessCurve(ts=ts, m_direct=direct, m_repr=repr_, baseline=baseline)


def _m_direct_curve_continuous(d: Distribution, ts: np.ndarray) -> np.ndarray:
    """int_t^inf S_Y / S_Y(t) for every t, sharing segment integrals."""
    order = np.argsort(ts)
    sorted_ts = ts[order]
    span = d.support.upper - d.support.lower  # upper bound on Y
    upper = span if np.isfinite(span) else np.inf
    s_y = lambda y: abs_diff_survival(d, y)
    n = len(sorted_ts)
    integrals = np.empty(n)
    integrals[-1], _ = integrate(s_y, float(sorted_ts[-1]), upper)
    for i in range(n - 2, -1, -1):
        seg, _ = integrate(s_y, float(sorted_ts[i]), float(sorted_ts[i + 1]))
        integrals[i] = integrals[i + 1] + seg
    out = np.empty(n)
    for i, t in enumerate(sorted_ts):
        s_t = s_y(float(t))
        if s_t < _MIN_SY:
            raise DegenerateY(f"S_Y({t}) underflowed for {d.label}")
        out[i] = integrals[i] / s_t
    result = np.empty(n)
    result[order] = out
    return result


def _m_repr_continuous(d: Distribution, t: float) -> float:
    lo, hi = d.support.lower, d.support.upper

    def weighted(fn):
        def g(x):
            f = float(d.pdf(x))
            big_f = float(d.cdf(x))
            w = big_f * f
            if w <= 0 or not np.isfinite(w):
                return 0.0
            return fn(x, f, big_f) * w

        return g

    def c_fn(x, f, big_f):
        return float(d.cdf(x - t)) / big_f

    def ch_fn(x, f, big_f):
        s = float(d.sf(x))
        if f == 0.0:
            return 0.0
        return (float(d.cdf(x - t)) / big_f) * (s / f)

    # both integrands vanish below lo + t, where C(x, t) = F(x-t)/F(x) = 0
    start = lo + t if np.isfinite(lo) else lo
    num, _ = integrate(weighted(ch_fn), start, hi)
    den, _ = integrate(weighted(c_fn), start, hi)
    if den < _MIN_SY:
        raise DegenerateY(f"S_Y({t}) underflowed for {d.label}")
    return num / den


def _lattice_sy(d: Distribution) -> np.ndarray:
    """S_Y(y) for y = 0 .. span+1 over the enumerated support."""
    pts = d.lattice_table(EXCESS_CUT)[0]
    span = int(pts[-1] - pts[0])
    return np.array([abs_diff_survival(d, y) for y in range(span + 2)])


def _m_direct_lattice(d: Distribution, sy: np.ndarray, t: int) -> float:
    if t >= len(sy) or sy[t] < _MIN_SY:
        raise DegenerateY(f"S_Y({t}) underflowed for {d.label}")
    # m(t) S_Y(t) = sum_{w > t} S_Y(w - 1)
    return float(np.sum(sy[t:])) / float(sy[t])


def _m_repr_curve_lattice(d: Distribution, ts: list[int]) -> np.ndarray:
    pts, f, _, _ = d.lattice_table(EXCESS_CUT)
    f_m1 = np.asarray(d.cdf(pts - 1.0), float)
    s_m1 = np.asarray(d.sf(pts - 1.0), float)
    w = f_m1 * f
    live = w > 0
    with np.errstate(all="ignore"):
        h_inv = np.where(f > 0, s_m1 / np.where(f > 0, f, 1.0), 0.0)
    out = np.empty(len(ts))
    for i, t in enumerate(ts):
        with np.errstate(all="ignore"):
            c = np.where(live, np.asarray(d.cdf(pts - 1.0 - t), float) / np.where(live, f_m1, 1.0), 0.0)
        num = float(np.sum(c * h_inv * w))
        den = float(np.sum(c * w))
        if den < _MIN_SY:
            raise DegenerateY(f"S_Y({t}) underflowed for {d.label}")
        out[i] = num / den
    return out
