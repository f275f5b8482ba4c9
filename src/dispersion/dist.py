"""Distribution abstraction: a capability bundle for one continuous or
integer-lattice law.

A Distribution carries vectorized density/pmf, CDF and survival callables
plus support metadata and whatever closed-form moments are known. The
survival convention is P(X > x) in both kinds, so cdf + sf = 1 pointwise.
Instances are immutable after construction and safe to evaluate from
concurrent workers; the only mutable state is a per-law cache, owned by
this module and built lazily on first use, of read-only tables: the
enumerated lattice table at each mass cut, the scan grid of each size and
clip, and the inverse table that continuous quantiles without a closed
form start from.
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
# analytic tail_sums) and lattice scan grids; QUANTILE_CUT the CDF table of
# lattice quantiles and sampling; EXCESS_CUT the mean excess of X and of
# |X - X'|, whose survival sums have no tail correction. One cut does not
# serve all three: at 1e-12 the two mean-excess routes of poisson(2) split
# by 2.3e-6 at t = 13 and the zipf(4) curve moves by 1.2e-6, while at 1e-15
# the zipf(2.5) support exceeds the enumeration limit.
SUM_CUT = 1e-12
QUANTILE_CUT = 1e-14
EXCESS_CUT = 1e-15


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
    per mass cut, probe_grid() per size and clip, and, for continuous laws
    without a ppf, the inverse table of quantile(). No other module reads
    or writes it.
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

        A closed-form ppf is used when the law has one; lattice quantiles
        come from the enumerated CDF table and are exact. Other continuous
        laws invert through a table of 513 nodes spaced evenly in logit(p)
        over [1e-12, 1 - 1e-12], built once per law by bisection: each
        target starts from a cubic Hermite guess between its two bracketing
        nodes and takes Newton steps on cdf(x) - p (p <= 1/2) or
        (1 - p) - sf(x) (p > 1/2), with any step that leaves the shrinking
        bracket replaced by a bisection step. Targets still open after a
        few steps are bisected inside their bracket, and targets beyond the
        table's range are bisected on cdf over the whole support.
        """
        p = np.asarray(p, dtype=float)
        scalar = p.ndim == 0
        p1 = np.atleast_1d(p)
        if self.ppf is not None:
            out = np.asarray(self.ppf(p1), dtype=float)
        elif self.is_lattice:
            pts, _, cum, _ = self.lattice_table(QUANTILE_CUT)
            idx = np.searchsorted(cum, p1 * (1 - 1e-15), side="left")
            idx = np.minimum(idx, len(pts) - 1)
            out = pts[idx]
        else:
            out = self._invert(p1)
        return float(out[0]) if scalar else out

    def _inverse_table(self):
        """(node probabilities, x, pdf at x) cached for continuous quantiles.

        The upper half is solved on sf against the exact 1 - u, so laws
        whose cdf saturates short of 1 still get accurate upper nodes.
        """
        if "inverse" not in self._cache:
            z = np.linspace(-INV_LOGIT, INV_LOGIT, INV_NODES)
            u = 1.0 / (1.0 + np.exp(-z))
            low = u <= 0.5
            lo, hi = self.support.lower, self.support.upper
            x = np.concatenate([
                bisect_increasing(self.cdf, u[low], lo, hi),
                bisect_increasing(lambda t: -self.sf(t), -(1.0 - u[~low]), lo, hi),
            ])
            f = np.asarray(self.pdf(x), dtype=float)
            self._cache["inverse"] = _read_only(u, x, f)
        return self._cache["inverse"]

    def _invert(self, p: np.ndarray) -> np.ndarray:
        u, x_nodes, f_nodes = self._inverse_table()
        out = np.empty_like(p)
        inside = (p >= u[0]) & (p <= u[-1])
        if not inside.all():
            # a bracket grown for far targets resolves x more coarsely than
            # the end nodes; clamping keeps the output monotone in p
            out[~inside] = bisect_increasing(
                self.cdf, p[~inside], self.support.lower, self.support.upper
            )
            out[p < u[0]] = np.minimum(out[p < u[0]], x_nodes[0])
            out[p > u[-1]] = np.maximum(out[p > u[-1]], x_nodes[-1])
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

    def lattice_points(self, mass_cut: float = SUM_CUT, limit: int = 10**6) -> np.ndarray:
        """Integer support points, truncated once the omitted tail mass < mass_cut.

        Enumerates upward from a finite lower endpoint or downward from a
        finite upper endpoint; doubly infinite lattice supports are not used
        by any registry family.
        """
        if not self.is_lattice:
            raise UnsupportedKind("lattice_points requires an integer-lattice law")
        lo, hi = self.support.lower, self.support.upper
        if np.isfinite(lo) and np.isfinite(hi):
            pts = np.arange(int(lo), int(hi) + 1)
            if len(pts) > limit:
                raise SupportTooLarge(f"{len(pts)} lattice points exceeds limit {limit}")
            return pts
        if np.isfinite(lo):
            last = self._grow_tail(int(lo), +1, mass_cut, limit)
            return np.arange(int(lo), last + 1)
        if np.isfinite(hi):
            first = self._grow_tail(int(hi), -1, mass_cut, limit)
            return np.arange(first, int(hi) + 1)
        raise UnsupportedKind("doubly infinite lattice support is not enumerable")

    def _grow_tail(self, start: int, direction: int, mass_cut: float, limit: int) -> int:
        # find the nearest point beyond which the omitted mass is < mass_cut
        def omitted(k: int) -> float:
            if direction > 0:
                return float(self.sf(k))
            return float(self.cdf(k - 1))

        step = 1
        k = start
        while omitted(k) >= mass_cut:
            step = min(step * 2, limit)
            k += direction * step
            if abs(k - start) > limit:
                raise SupportTooLarge(
                    f"lattice support exceeds {limit} points at mass cut {mass_cut}"
                )
        # binary search back to the smallest such k
        lo, hi = (start, k) if direction > 0 else (k, start)
        while lo < hi:
            mid = (lo + hi) // 2 if direction > 0 else (lo + hi + 1) // 2
            if direction > 0:
                if omitted(mid) < mass_cut:
                    hi = mid
                else:
                    lo = mid + 1
            else:
                if omitted(mid) < mass_cut:
                    lo = mid
                else:
                    hi = mid - 1
        return lo

    def lattice_table(self, mass_cut: float) -> tuple[np.ndarray, ...]:
        """(points, pmf, cdf, sf) at the support enumerated to mass_cut.

        Built once per law and cut; points are floats and every array is
        read-only. The cuts in use are SUM_CUT, QUANTILE_CUT and EXCESS_CUT.
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

    def mass_below_eq(self, u: float) -> float:
        if self.is_lattice:
            return float(self.cdf(math.floor(u)))
        return float(self.cdf(u))
