"""Dispersion measures: SD, GMD, the mean excess curve of Y = |X - X'| by
two independent routes, tail dispersion under truncation, and the
concentration value of a lattice law.

GMD uses the single-integral reduction 2 * int F(x) S(x) dx (2 * sum F S on
the lattice) of the pairwise-difference definition; its correctness is
gated on agreement with the Monte Carlo and brute-force oracles in the
test suite. On continuous laws SD and GMD integrate x f, x^2 f and F S as
one lockstep batch of `numerics.integrate_batch`, the vectorized port of
QUADPACK: each step evaluates pdf once for both moments, and cdf and sf once
for F S, on the Gauss-Kronrod nodes of every unfinished integral, and each
integral returns the bits it would alone. Discrete sums run over
`Distribution.lattice_table`, enumerated to `dist.SUM_CUT`, and SD and GMD
add the sums over the tail it leaves out (`Distribution.table_tail`).

The mean excess of Y reads one stop-loss table Pi(x) = E[(X - x)+] per law:
S_Y(y) = 2 E[S(X + y)] and int_t^inf S_Y = 2 E[Pi(X + t)] give the direct
route, summed per block of t by `Distribution.shifted_means`, which on
continuous laws reads the table once per outer node interval and calls no
cdf. The change-of-measure route stays independent: other integrands, run
for every t of a continuous curve as one lockstep batch
(`numerics.integrate_batch`), and other columns of the table on lattices. On lattices both routes read S and Pi
at x + t through `Distribution._excess_read`, which reaches any t past the
table's top by sf and the tail's sum of S; Y is the same for X and -X, so a
lattice law unbounded below is read through its bounded-below reflection.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .combinators import affine, truncate
from .dist import CURVE_CELLS, SUM_CUT, Distribution
from .errors import (
    ContinuousInput,
    DegenerateY,
    DivergentMoment,
)
from .numerics import integrate_batch

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


def _numeric(
    d: Distribution, want_sd: bool, want_gmd: bool
) -> tuple[tuple[float, float] | None, tuple[float, float] | None]:
    """((sd, error estimate), (gmd, error estimate)), None for a measure not
    asked for. The lattice sums x f, x^2 f and F S over lattice_table() and
    adds the sums over the tail it leaves out. A continuous law integrates
    those of the three its measures need over its support as one lockstep
    batch, whose every step calls pdf once for both moments and cdf and sf
    once for F S. The variance is checked before the GMD's sign."""
    if not (want_sd or want_gmd):
        return None, None
    if d.is_lattice:
        pts, f, big_f, big_s = d.lattice_table()
        tail = d.table_tail()[1]
        if want_sd:
            m1, m2 = float((pts * f).sum()) + tail[1], float((pts * pts * f).sum()) + tail[2]
            m_err = SUM_CUT
        if want_gmd:
            half, gmd_err = float((big_f * big_s).sum()) + tail[3], SUM_CUT
    else:
        which = np.array([0, 1] * want_sd + [2] * want_gmd)  # x f, x^2 f, F S

        def fn(x, k):
            g = np.empty_like(x)
            moment = which[k] < 2
            if moment.any():
                xm = x[moment]
                p = d.pdf(xm)
                g[moment] = np.where(which[k[moment]] == 0, xm * p, xm * xm * p)
            if not moment.all():
                xs = x[~moment]
                g[~moment] = d.cdf(xs) * d.sf(xs)
            return g

        n = len(which)
        vals, errs = integrate_batch(fn, np.full(n, d.support.lower), np.full(n, d.support.upper))
        vals, errs = vals.tolist(), errs.tolist()
        if want_sd:
            m1, m2 = vals[0], vals[1]
            m_err = errs[1] + 2 * abs(m1) * errs[0]
        if want_gmd:
            half, gmd_err = vals[-1], 2.0 * errs[-1]
    sd_out = gmd_out = None
    if want_sd:
        var = m2 - m1 * m1
        if not np.isfinite(var) or var <= 0:
            raise DivergentMoment(f"variance of {d.label} is not a positive finite number")
        s = math.sqrt(var)
        sd_out = s, m_err / (2 * s)
    if want_gmd:
        if not d.is_lattice and (not np.isfinite(half) or half <= 0):
            # a nonpositive value is quadrature that missed the mass, not a GMD
            raise DivergentMoment(f"GMD integral for {d.label} is not a positive finite number")
        gmd_out = 2.0 * half, gmd_err
    return sd_out, gmd_out


def sd_numeric(d: Distribution) -> tuple[float, float]:
    """(sd, error estimate) by quadrature/summation of the first two moments;
    the error estimate is QUADPACK's, or SUM_CUT on the lattice."""
    return _numeric(d, True, False)[0]


def gmd_numeric(d: Distribution) -> tuple[float, float]:
    """(gmd, error estimate) via 2 * int F S dx (adaptive quadrature with
    QUADPACK's error estimate) or 2 * sum F S, with the sum of S (or of F)
    over the omitted tail standing for F S there."""
    return _numeric(d, False, True)[1]


def _closed(d: Distribution, name: str) -> float:
    """The law's closed-form SD or GMD; one that is not finite raises."""
    v = float(getattr(d.closed, name))
    if not math.isfinite(v):
        raise DivergentMoment(f"closed-form {name.upper()} of {d.label} is {v}, not a finite number")
    return v


def sd(d: Distribution) -> float:
    """Standard deviation; closed form when the registry supplies one."""
    if d.closed.sd is not None:
        return _closed(d, "sd")
    return sd_numeric(d)[0]


def gmd(d: Distribution) -> float:
    """Gini mean difference E|X - X'|; closed form when known."""
    if d.closed.gmd is not None:
        return _closed(d, "gmd")
    return gmd_numeric(d)[0]


def dispersion_report(d: Distribution) -> DispersionReport:
    """SD, GMD, their difference, the method and the summed error estimate:
    the closed forms the registry supplies, and the rest from one call of
    _numeric. A closed form that is not finite raises DivergentMoment.
    Computed once per law and kept in its cache; a law whose report raises
    raises again on every call."""
    if "report" in d._cache:
        return d._cache["report"]
    sd_num, gmd_num = _numeric(d, d.closed.sd is None, d.closed.gmd is None)
    sd_val, sd_err = sd_num or (_closed(d, "sd"), 0.0)
    gmd_val, gmd_err = gmd_num or (_closed(d, "gmd"), 0.0)
    numeric_method = SUMMATION if d.is_lattice else QUADRATURE
    method = CLOSED_FORM if sd_num is None and gmd_num is None else numeric_method
    d._cache["report"] = DispersionReport(
        sd=sd_val, gmd=gmd_val, diff=sd_val - gmd_val, method=method, err_estimate=sd_err + gmd_err
    )
    return d._cache["report"]


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
    f = d.lattice_table()[1]
    lam = float((f * f).sum())
    return ConcentrationValue(lambda_=lam, odds_bound=(1.0 - lam) / (2.0 * lam))


# ---------------------------------------------------------------------------
# mean excess of Y = |X - X'|
# ---------------------------------------------------------------------------

_MIN_SY = 1e-300


def mean_excess_abs_diff(d: Distribution, ts) -> MeanExcessCurve:
    """Mean excess of Y = |X - X'| on a t-grid, by two independent routes.

    m_direct is the stop-loss ratio E[Pi(X + t)] / E[S(X + t)] of
    `Distribution.shifted_means`, which on a continuous law reads pdf, sf and
    the stop-loss table built from sf, never cdf. m_repr evaluates the
    change-of-measure representation with weights dQ^F proportional to F(x)
    dF(x) by adaptive quadrature, the whole curve as one lockstep batch (F(x-1)
    f(x) on the lattice, where the C argument shifts to x - 1, summed over the
    stop-loss table). A lattice law unbounded below is read through its
    reflection affine(d, -1, 0), whose Y is the same, kept in d's cache under
    "reflection" so that its tables are built once; the baseline stays d's.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all((ts >= 0) & (ts < np.inf)):
        raise ValueError("t grid must be finite and nonnegative")
    if d.is_lattice and np.any(ts != np.floor(ts)):
        raise ValueError("lattice mean-excess grids must use integer t")
    law = d
    if d.is_lattice and np.isinf(d.support.lower):
        if "reflection" not in d._cache:
            d._cache["reflection"] = affine(d, -1.0, 0.0)
        law = d._cache["reflection"]
    den, num = law.shifted_means(ts)
    if np.any(2.0 * den < _MIN_SY):
        raise DegenerateY(f"S_Y({ts[2.0 * den < _MIN_SY][0]:g}) underflowed for {d.label}")
    direct = num / den
    if d.is_lattice:
        repr_ = _m_repr_curve_lattice(law, ts.astype(int))
    else:
        repr_ = _m_repr_curve_continuous(d, ts)
    baseline = gmd(d) + (0.5 if d.is_lattice else 0.0)
    return MeanExcessCurve(ts=ts, m_direct=direct, m_repr=repr_, baseline=baseline)


def _m_repr_curve_continuous(d: Distribution, ts: np.ndarray) -> np.ndarray:
    """int F(x - t) S(x) dx / int F(x - t) f(x) dx for each t: the
    change-of-measure integrands C (1/h) F f and C F f with C = F(x - t) / F(x)
    and 1/h = S / f multiplied out, so the numerator keeps its mass where f = 0
    inside the hull of a gapped support. Both are divided by the numerator's
    largest value F(p) S(p + t) over every 32nd base node p of the stop-loss
    table (Distribution._base_nodes), so QUADPACK's relative tolerance, not
    EPSABS, ends them however far t is. All 2 len(ts) integrals run as one
    lockstep batch, whose every step calls cdf once on all its nodes, sf on
    the unfinished numerators' and pdf on the denominators'."""
    n = len(ts)
    lo, hi = d.support.lower, d.support.upper
    probe = d._base_nodes()[::32]
    shifted = probe + ts[:, None]
    scale = np.max(d.cdf(probe) * np.asarray(d.sf(shifted.ravel()), dtype=float).reshape(shifted.shape), axis=1)
    scale = np.where((0.0 < scale) & (scale < np.inf), scale, 1.0)
    shift, unit = np.concatenate([ts, ts]), np.concatenate([scale, scale])

    def fn(x, k):
        # integrals 0..n-1 are the numerators, n..2n-1 the denominators
        num = k < n
        g = np.empty_like(x)
        for which, rows in ((d.sf, num), (d.pdf, ~num)):
            if rows.any():
                g[rows] = which(x[rows])
        v = np.asarray(d.cdf(x - shift[k]), dtype=float) * g / unit[k]
        return np.where(np.isfinite(v), v, 0.0)  # F(x - t) = 0 beside a density pole

    # both integrands vanish below lo + t, where F(x - t) = 0
    start = lo + ts if np.isfinite(lo) else np.full(n, lo)
    vals = integrate_batch(fn, np.concatenate([start, start]), np.full(2 * n, hi))[0]
    num, den = vals[:n], vals[n:]
    low = den * scale < _MIN_SY
    if low.any():
        raise DegenerateY(f"S_Y({float(ts[low][0])}) underflowed for {d.label}")
    return num / den


def _m_repr_curve_lattice(d: Distribution, ts: np.ndarray) -> np.ndarray:
    """sum_y F(y) S(y+t) / sum_y F(y) f(y+1+t) over y = x-1-t on the table, in
    blocks of CURVE_CELLS cells: the change-of-measure sums, weights F(x-1) f(x),
    C = F(x-1-t) / F(x-1) and 1/h = S(x-1) / f(x) multiplied out. f past the top
    is pdf; terms past it, where F(y) = 1, sum to Pi(top+1+t) and S(top+1+t).
    d is bounded below, so no term lies below the table."""
    pts, f, big_f, sf, pi = d.excess_table()
    step, out = max(1, CURVE_CELLS // len(pts)), []
    pdf = lambda k: (np.asarray(d.pdf(k), dtype=float),)
    for t in np.split(ts, range(step, len(ts), step)):
        # S and Pi at y + t, then at top + 1 + t; f at y + 1 + t
        s, p = d._table_rows((sf, pi), t, len(pts) + 1, d._excess_read)
        (g,) = d._table_rows((f,), t + 1, len(pts), pdf)
        den = (big_f * g).sum(axis=-1) + s[:, -1]
        if np.any(den < _MIN_SY):
            raise DegenerateY(f"S_Y({t[den < _MIN_SY][0]}) underflowed for {d.label}")
        out.append(((big_f * s[:, :-1]).sum(axis=-1) + p[:, -1]) / den)
    return np.concatenate(out)
