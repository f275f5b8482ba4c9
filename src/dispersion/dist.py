"""Distribution abstraction: a capability bundle for one continuous or
integer-lattice law.

A Distribution carries vectorized density/pmf, CDF and survival callables
plus support metadata and whatever closed-form moments are known. The
survival convention is P(X > x) in both kinds, so cdf + sf = 1 pointwise.
Instances are immutable after construction and safe to evaluate from
concurrent workers; the only mutable state is a per-law cache, owned by
this module and built lazily on first use, of read-only tables: the
enumerated lattice table at each of the two mass cuts, the scan grid of
each size and clip, and the inverse table that continuous quantiles
without a closed form start from.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import SupportTooLarge, UnsupportedKind
from .numerics import bisect_increasing

CONTINUOUS = "continuous-interval"
LATTICE = "integer-lattice"

# inverse table of continuous laws without a ppf: nodes evenly spaced in
# logit(u) over [1e-12, 1 - 1e-12]; Newton steps per target before the
# bisection fallback; relative step (or bracket) size that ends iteration
INV_NODES = 513
INV_LOGIT = math.log((1.0 - 1e-12) / 1e-12)
INV_NEWTON_CAP = 8
INV_XTOL = 1e-13

# lattice mass cuts: enumeration stops once the omitted tail mass is below
# the cut. SUM_CUT serves SD, GMD and Lambda sums (polynomial tails add
# analytic tail_sums), lattice scan grids and the table of lattice
# quantiles; EXCESS_CUT the mean excess of X and of |X - X'|, whose
# survival sums have no tail correction. One cut does not serve both: at
# 1e-12 the two mean-excess routes of poisson(2) split by 2.3e-6 at t = 13
# and the zipf(4) curve moves by 1.2e-6, while at 1e-15 the zipf(2.5)
# support (661,050 points) exceeds the enumeration limit.
SUM_CUT = 1e-12
EXCESS_CUT = 1e-15
# most points one lattice enumeration may hold
LATTICE_LIMIT = 2**19


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class Support:
    """Support interval; lattice supports live on the integers with unit step."""

    lower: float
    upper: float
    kind: str  # CONTINUOUS or LATTICE

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"support lower {self.lower} must be < upper {self.upper}")
        if self.kind not in (CONTINUOUS, LATTICE):
            raise ValueError(f"unknown support kind {self.kind!r}")
        if self.kind == LATTICE:
            for v in (self.lower, self.upper):
                if np.isfinite(v) and v != int(v):
                    raise ValueError(f"lattice endpoint {v} is not an integer")

    @property
    def is_lattice(self) -> bool:
        return self.kind == LATTICE

    def contains(self, x: float) -> bool:
        if not self.lower <= x <= self.upper:
            return False
        if self.is_lattice and np.isfinite(x):
            return x == round(x)
        return True


@dataclass(frozen=True)
class ClosedForms:
    """Closed-form moments, populated only where a source formula exists."""

    mean: float | None = None
    sd: float | None = None
    gmd: float | None = None


@dataclass(eq=False)
class Distribution:
    """One law, bundled as callables.

    pdf is a density for continuous supports and a pmf (evaluated at
    integers, zero elsewhere) for lattice supports. cdf(x) = P(X <= x) and
    sf(x) = P(X > x). All three accept and return numpy arrays or floats.
    `_cache` holds the read-only tables built on first use: lattice_table()
    at each of the two mass cuts (SUM_CUT also serves quantile()),
    probe_grid() per size and clip, and, for continuous laws without a ppf,
    the inverse table of quantile(). No other module reads or writes it.
    """

    support: Support
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    sf: Callable[[np.ndarray], np.ndarray]
    label: str
    logpdf: Callable[[np.ndarray], np.ndarray] | None = None
    ppf: Callable[[np.ndarray], np.ndarray] | None = None
    closed: ClosedForms = field(default_factory=ClosedForms)
    meta: dict = field(default_factory=dict)
    # lattice laws with polynomial tails supply analytic corrections for
    # sums truncated at M: (sum_{x>M} x f, sum_{x>M} x^2 f, sum_{x>M} F S)
    tail_sums: Callable[[int], tuple[float, float, float]] | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def is_lattice(self) -> bool:
        return self.support.is_lattice

    def log_pdf(self, x):
        """log density/pmf; falls back to log(pdf) with an underflow floor."""
        if self.logpdf is not None:
            return self.logpdf(x)
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(self.pdf(x), 1e-320))

    def quantile(self, p):
        """Smallest x with cdf(x) >= p, to 1e-12 in probability.

        A closed-form ppf is used when the law has one. Otherwise both
        kinds solve on cdf for p <= 1/2 and on sf against 1 - p above, from
        a table where one covers p and by bisection between the support end
        and the table's end node beyond it, so lattice quantiles are exact
        and the output is monotone in p. Lattice laws search the SUM_CUT
        lattice table. Continuous laws invert through 513 nodes spaced
        evenly in logit(p) over [1e-12, 1 - 1e-12], built once per law:
        each target starts from a cubic Hermite guess between its two
        bracketing nodes and takes Newton steps, any step that leaves the
        shrinking bracket replaced by a bisection step, and targets still
        open after a few steps are bisected inside their bracket.
        """
        p = np.asarray(p, dtype=float)
        scalar = p.ndim == 0
        p1 = np.atleast_1d(p)
        if self.ppf is not None:
            out = np.asarray(self.ppf(p1), dtype=float)
        elif self.is_lattice:
            out = self._lattice_quantile(p1)
        else:
            out = self._invert(p1)
        return float(out[0]) if scalar else out

    def _lattice_quantile(self, p: np.ndarray) -> np.ndarray:
        pts, _, cum, sf = self.lattice_table(SUM_CUT)
        # the nudges keep rounding in either column from skipping a point
        idx = np.where(
            p > 0.5,
            np.searchsorted(-sf, -(1.0 - p) * (1 + 1e-15)),
            np.searchsorted(cum, p * (1 - 1e-15)),
        )
        # downward enumerations omit mass below the table
        inside = (p > float(self.cdf(pts[0] - 1.0))) & (idx < len(pts))
        out = pts[np.where(inside, idx, 0)]
        out[~inside] = self._beyond(p[~inside], pts[0], pts[-1])
        return out

    def _beyond(self, p: np.ndarray, first: float, last: float) -> np.ndarray:
        """Quantiles of targets beyond a table whose end nodes are first and last.

        Brackets end at the end node, so the output joins the table's
        monotonically; lattice results round to the integer bisected onto.
        """
        lo, hi = self.support.lower, self.support.upper
        out = np.empty_like(p)
        low = p <= 0.5
        if low.any():
            out[low] = bisect_increasing(self.cdf, p[low], lo, first)
        if not low.all():
            out[~low] = bisect_increasing(lambda x: -self.sf(x), -(1.0 - p[~low]), last, hi)
        return np.round(out) if self.is_lattice else out

    def _inverse_table(self):
        """(node probabilities, x, pdf at x) cached for continuous quantiles.

        The upper half is solved on sf against the exact 1 - u, so laws
        whose cdf saturates short of 1 still get accurate upper nodes. A
        half with a finite support end bisects in y = log|x - end|: nodes
        beside a density pole there need far finer steps than the 2^-72 of
        the bracket that a bisection in x reaches.
        """
        if "inverse" not in self._cache:
            z = np.linspace(-INV_LOGIT, INV_LOGIT, INV_NODES)
            u = 1.0 / (1.0 + np.exp(-z))
            low = u <= 0.5
            lo, hi = self.support.lower, self.support.upper
            span = np.log(hi - lo)
            if np.isfinite(lo):
                y = bisect_increasing(lambda y: self.cdf(lo + np.exp(y)), u[low], -np.inf, span)
                x_low = lo + np.exp(y)
            else:
                x_low = bisect_increasing(self.cdf, u[low], lo, hi)
            if np.isfinite(hi):
                y = bisect_increasing(lambda y: self.sf(hi - np.exp(y)), 1.0 - u[~low], -np.inf, span)
                x_up = hi - np.exp(y)
            else:
                x_up = bisect_increasing(lambda t: -self.sf(t), -(1.0 - u[~low]), lo, hi)
            x = np.concatenate([x_low, x_up])
            f = np.asarray(self.pdf(x), dtype=float)
            self._cache["inverse"] = _read_only(u, x, f)
        return self._cache["inverse"]

    def _invert(self, p: np.ndarray) -> np.ndarray:
        u, x_nodes, f_nodes = self._inverse_table()
        out = np.empty_like(p)
        inside = (p >= u[0]) & (p <= u[-1])
        out[~inside] = self._beyond(p[~inside], x_nodes[0], x_nodes[-1])
        if not inside.any():
            return out
        pt = p[inside]
        k = np.clip(np.searchsorted(u, pt, side="right") - 1, 0, len(u) - 2)
        lo, hi = x_nodes[k], x_nodes[k + 1]
        du = u[k + 1] - u[k]
        t = (pt - u[k]) / du
        with np.errstate(all="ignore"):
            # cubic Hermite in u with slopes dx/du = 1/f; linear where it
            # strays outside the bracket or a node density is 0 or infinite
            h = (1 + 2 * t) * (1 - t) ** 2 * lo + t * t * (3 - 2 * t) * hi + du * (
                t * (1 - t) ** 2 / f_nodes[k] - t * t * (1 - t) / f_nodes[k + 1]
            )
        linear = lo + t * (hi - lo)
        x = np.where(np.isfinite(h) & (h >= lo) & (h <= hi), h, linear)

        upper = pt > 0.5
        q = 1.0 - pt  # exact for pt > 1/2
        tol = 4.0 * np.spacing(np.where(upper, q, pt))
        open_ = np.arange(len(pt))
        for _ in range(INV_NEWTON_CAP):
            xo, up = x[open_], upper[open_]
            r = np.empty_like(xo)
            if (~up).any():
                r[~up] = np.asarray(self.cdf(xo[~up]), dtype=float) - pt[open_][~up]
            if up.any():
                r[up] = q[open_][up] - np.asarray(self.sf(xo[up]), dtype=float)
            below = r < 0
            lo[open_] = np.where(below, xo, lo[open_])
            hi[open_] = np.where(below, hi[open_], xo)
            done = (np.abs(r) <= tol[open_]) | (hi[open_] - lo[open_] <= INV_XTOL * np.abs(xo))
            open_, xo, r = open_[~done], xo[~done], r[~done]
            if not open_.size:
                break
            with np.errstate(all="ignore"):
                step = r / np.asarray(self.pdf(xo), dtype=float)
            xn = xo - step
            newton = np.isfinite(xn) & (xn >= lo[open_]) & (xn <= hi[open_])
            x[open_] = np.where(newton, xn, 0.5 * (lo[open_] + hi[open_]))
            open_ = open_[~(newton & (np.abs(step) <= INV_XTOL * np.abs(xo)))]
        for side, fn, target in ((False, self.cdf, pt), (True, lambda t: -self.sf(t), -q)):
            sel = open_[upper[open_] == side]
            if sel.size:
                # halve each bracket down to the Newton step tolerance; a
                # residual noisier than 4 ulp leaves only a few halvings
                with np.errstate(all="ignore"):
                    ratio = np.max((hi[sel] - lo[sel]) / (INV_XTOL * np.abs(x[sel])))
                    halvings = np.ceil(np.log2(max(ratio, 2.0)))
                iters = int(min(halvings, 72)) if np.isfinite(halvings) else 72
                x[sel] = bisect_increasing(fn, target[sel], lo[sel], hi[sel], iters)
        out[inside] = x
        return out

    # -- lattice enumeration ------------------------------------------------

    def lattice_points(self, mass_cut: float = SUM_CUT) -> np.ndarray:
        """Integer support points, truncated once the omitted tail mass < mass_cut.

        Enumerates upward from a finite lower endpoint to the first k with
        sf(k) <= mass_cut, or downward from a finite upper endpoint to the
        last k with cdf(k - 1) < mass_cut, bisecting for that end within
        LATTICE_LIMIT points; raises SupportTooLarge past LATTICE_LIMIT
        points. No registry family has a doubly infinite lattice support.
        """
        if not self.is_lattice:
            raise UnsupportedKind("lattice_points requires an integer-lattice law")
        lo, hi = self.support.lower, self.support.upper
        if np.isinf(lo) and np.isinf(hi):
            raise UnsupportedKind("doubly infinite lattice support is not enumerable")
        n = LATTICE_LIMIT.bit_length()  # halvings to bring the end within 1/4 point
        if np.isinf(hi):
            hi = bisect_increasing(lambda x: -self.sf(x), [-mass_cut], lo, lo + LATTICE_LIMIT, n)[0]
        elif np.isinf(lo):
            lo = bisect_increasing(self.cdf, [mass_cut], hi - LATTICE_LIMIT, hi, n)[0]
        first, last = round(lo), round(hi)
        if last - first + 1 > LATTICE_LIMIT:
            msg = f"lattice support exceeds {LATTICE_LIMIT} points at mass cut {mass_cut}"
            raise SupportTooLarge(msg)
        return np.arange(first, last + 1)

    def lattice_table(self, mass_cut: float) -> tuple[np.ndarray, ...]:
        """(points, pmf, cdf, sf) at the support enumerated to mass_cut.

        Built once per law and cut; points are floats and every array is
        read-only. The cuts in use are SUM_CUT and EXCESS_CUT.
        """
        key = ("lattice", mass_cut)
        if key not in self._cache:
            pts = self.lattice_points(mass_cut).astype(float)
            cols = [np.asarray(fn(pts), dtype=float) for fn in (self.pdf, self.cdf, self.sf)]
            self._cache[key] = _read_only(pts, *cols)
        return self._cache[key]

    # -- probe grids ---------------------------------------------------------

    def probe_grid(self, n: int, clip: float = 1e-6) -> np.ndarray:
        """Quantile-spaced grid of n points over [q(clip), q(1-clip)].

        For lattice laws this instead returns every support point carrying
        mass >= SUM_CUT. The grid is built once per (n, clip) and read-only.
        """
        key = ("grid", n, clip)
        if key not in self._cache:
            if self.is_lattice:
                pts, mass, _, _ = self.lattice_table(SUM_CUT)
                xs = pts[mass >= SUM_CUT]
                if len(xs) == 0:
                    raise UnsupportedKind(f"no lattice point carries mass >= {SUM_CUT:g}")
            else:
                ps = np.linspace(clip, 1.0 - clip, n)
                xs = np.maximum.accumulate(np.asarray(self.quantile(ps), dtype=float))
            self._cache[key] = _read_only(xs)[0]
        return self._cache[key]

    def iqr(self) -> float:
        q1, q3 = self.quantile(np.array([0.25, 0.75]))
        return float(q3 - q1)
