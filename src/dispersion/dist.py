"""Distribution abstraction: a capability bundle for one continuous or
integer-lattice law.

A Distribution carries vectorized density/pmf, CDF and survival callables
plus support metadata and whatever closed-form moments are known. The
survival convention is P(X > x) in both kinds, so cdf + sf = 1 pointwise.
Instances are immutable after construction and safe to evaluate from
concurrent workers; the only mutable state is a per-law cache, owned by
this module and built lazily on first use, of read-only tables: the
enumerated lattice table at each of the two mass cuts, the scan grid of
each size and clip, the inverse table and its certified cubic refinement
behind continuous quantiles without a closed form, and the stop-loss table
behind every mean excess.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import SupportTooLarge, UnsupportedKind
from .numerics import bisect_increasing, integrate, panels

CONTINUOUS = "continuous-interval"
LATTICE = "integer-lattice"

# inverse table of continuous laws without a ppf: nodes evenly spaced in logit(u)
# over [1e-12, 1 - 1e-12], each interval halved up to INV_LEVELS times until its
# cubic Hermite inverse is within INV_TOL in probability
INV_NODES = 513
INV_LOGIT = math.log((1.0 - 1e-12) / 1e-12)
INV_LEVELS = 6
INV_TOL = 1e-12

# lattice mass cuts: enumeration stops once the omitted tail mass is below
# the cut. SUM_CUT serves SD, GMD and Lambda sums (polynomial tails add
# analytic tail_sums), lattice scan grids and the table of lattice
# quantiles; EXCESS_CUT the stop-loss table behind the mean excess of X and
# of |X - X'|, whose sums of S past the table have no tail correction. One
# cut does not serve both: at 1e-12 the omitted sum of S moves the zipf(4)
# curve by 1.1e-6, while at 1e-15 the zipf(2.5) support (661,050 points)
# exceeds the enumeration limit.
SUM_CUT = 1e-12
EXCESS_CUT = 1e-15
# most points one lattice enumeration may hold
LATTICE_LIMIT = 2**19


def _cubic(x0, x1, d0, d1) -> np.ndarray:
    """Coefficients in t of the cubic Hermite from x0 (t = 0) to x1 (t = 1), end
    slopes d0 and d1 per unit t, on a last axis of 4; the line where a slope fails
    the Fritsch-Carlson bound 0 <= d <= 3 (x1 - x0) that keeps it nondecreasing."""
    w = x1 - x0
    ok = (d0 >= 0) & (d1 >= 0) & (d0 <= 3 * w) & (d1 <= 3 * w)
    d0, d1 = np.where(ok, d0, w), np.where(ok, d1, w)
    return np.stack([x0, d0, 3 * w - 2 * d0 - d1, d0 + d1 - 2 * w], axis=-1)


def _horner(c: np.ndarray, t) -> np.ndarray:
    return c[..., 0] + t * (c[..., 1] + t * (c[..., 2] + t * c[..., 3]))


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
    probe_grid() per size and clip, the continuous inverse table (stop_loss()
    takes its nodes) and its refinement that quantile() reads when the law
    has no ppf, and one stop-loss table: excess_table() on the lattice, the
    node table of stop_loss() on continuous laws. No other module touches it.
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

        A closed-form ppf is used when the law has one. Otherwise both kinds
        solve on cdf for p <= 1/2 and on sf against 1 - p above: lattice laws
        exactly, by a search of the SUM_CUT lattice table; continuous laws by
        one cubic of _hermite_table, certified to 1e-12 when it is built.
        Targets beyond either table are bisected between the support end and
        the table's end node, so the output joins the table's monotonically.
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

    def _sides(self, p: np.ndarray):
        """(mask, nondecreasing fn, target) for p <= 1/2, solved on cdf, and for
        p > 1/2, solved on -sf against p - 1, which is -(1 - p) exactly there."""
        return (p <= 0.5, self.cdf, p), (p > 0.5, lambda x: -self.sf(x), p - 1.0)

    def _beyond(self, p: np.ndarray, first: float, last: float) -> np.ndarray:
        """Quantiles of targets beyond a table whose end nodes are first and
        last; lattice results round to the integer bisected onto."""
        out = np.empty_like(p)
        for (sel, fn, target), lo, hi in zip(self._sides(p), (self.support.lower, last), (first, self.support.upper)):
            if sel.any():
                out[sel] = bisect_increasing(fn, target[sel], lo, hi)
        return np.round(out) if self.is_lattice else out

    def _inverse_table(self):
        """(node probabilities, x, pdf at x), level 0 of _hermite_table.

        The upper half is solved on sf against the exact 1 - u, so a cdf
        that saturates short of 1 does not spoil it. A half with a finite
        support end bisects in y = log|x - end|: nodes beside a density pole
        there need far finer steps than a bisection in x reaches.
        """
        if "inverse" not in self._cache:
            u = 1.0 / (1.0 + np.exp(-np.linspace(-INV_LOGIT, INV_LOGIT, INV_NODES)))
            lo, hi = self.support.lower, self.support.upper
            x, span = np.empty_like(u), np.log(hi - lo)
            for (sel, fn, target), end, sign in zip(self._sides(u), (lo, hi), (1.0, -1.0)):
                if np.isfinite(end):  # increasing in y: cdf(lo + e^y), sf(hi - e^y)
                    y = bisect_increasing(lambda y: sign * fn(end + sign * np.exp(y)), sign * target[sel], -np.inf, span)
                    x[sel] = end + sign * np.exp(y)
                else:
                    x[sel] = bisect_increasing(fn, target[sel], lo, hi)
            self._cache["inverse"] = _read_only(u, x, np.asarray(self.pdf(x), dtype=float))
        return self._cache["inverse"]

    def _hermite_table(self):
        """(sizes, offsets, scale, coefficients): node interval k of the inverse
        table holds sizes[k] uniform sub-intervals, scale[k] per unit u, whose cubics
        (_cubic, slopes dx/du = 1/pdf) are the coefficient rows from offsets[k]. An
        interval is halved while a midpoint, or a node not yet checked, misses by
        more than INV_TOL in probability (cdf against u up to 1/2, sf against 1 - u
        above); each such point takes one Newton step from that residual, inside
        its neighbour nodes (else a bisection step). Intervals still missing after
        INV_LEVELS halvings hold NaN cubics (Hormann & Leydold, TOMACS 13(4), 2003)."""
        if "hermite" not in self._cache:
            u, x, f = self._inverse_table()
            with np.errstate(all="ignore"):
                ks, xs, ds = np.arange(len(u) - 1), np.stack([x[:-1], x[1:]], 1), np.stack([1 / f[:-1], 1 / f[1:]], 1)
                fresh, rows = np.zeros(xs.shape, dtype=bool), []
                for level in range(INV_LEVELS + 1):
                    m = 2**level
                    du = ((u[ks + 1] - u[ks]) / m)[:, None]
                    c = _cubic(xs[:, :-1], xs[:, 1:], du * ds[:, :-1], du * ds[:, 1:])
                    xx, dd, check = (np.repeat(a, 2, axis=1)[:, :-1] for a in (xs, ds, fresh))
                    xx[:, 1::2], check[:, 1::2] = _horner(c, 0.5), True  # midpoints in odd columns
                    uu, r = u[ks][:, None] + 0.5 * du * np.arange(2 * m + 1), np.zeros(xx.shape)
                    for sel, fn, target in self._sides(uu):
                        r[sel & check] = fn(xx[sel & check]) - target[sel & check]
                    bad = ~(np.abs(r) <= INV_TOL).all(axis=1)
                    c[bad] = np.nan  # a row still bad is kept only at the cap
                    done = ~bad | (level == INV_LEVELS)
                    rows.append((np.repeat(ks[done], m), c[done].reshape(-1, 4)))
                    i, j = np.nonzero(check & ~done[:, None])
                    if not i.size:
                        break
                    x0, r0, f0 = xx[i, j], r[i, j], np.asarray(self.pdf(xx[i, j]), dtype=float)
                    lo, hi = np.where(r0 < 0, x0, xs[i, (j - 1) // 2]), np.where(r0 < 0, xs[i, (j + 2) // 2], x0)
                    step = np.where(r0 == 0, x0, x0 - r0 / f0)
                    xx[i, j], dd[i, j] = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi)), 1.0 / f0
                    fresh = np.zeros(xx.shape, dtype=bool)
                    fresh[i, j] = (j % 2 == 1) | ~(np.abs(r0) <= INV_TOL)
                    ks, xs, ds, fresh = ks[~done], xx[~done], dd[~done], fresh[~done]
            keys, coef = (np.concatenate(a) for a in zip(*rows))
            sizes, coef = np.bincount(keys), coef[np.argsort(keys, kind="stable")]
            self._cache["hermite"] = _read_only(sizes, np.cumsum(sizes) - sizes, sizes / np.diff(u), coef)
        return self._cache["hermite"]

    def _invert(self, p: np.ndarray) -> np.ndarray:
        u, x_nodes, _ = self._inverse_table()
        sizes, offsets, scale, coef = self._hermite_table()
        n, pc = len(u) - 1, np.clip(p, u[0], u[-1])
        # node interval by logit arithmetic; next to a node, rounding may pick its neighbour
        k = np.clip(((np.log(pc) - np.log1p(-pc) + INV_LOGIT) * (n / (2 * INV_LOGIT))).astype(int), 0, n - 1)
        s = (pc - u[k]) * scale[k]
        j = np.clip(s.astype(int), 0, sizes[k] - 1)
        x = _horner(coef[offsets[k] + j], s - j)
        for sel, fn, target in self._sides(p):
            sel &= np.isnan(x) & (p == pc)  # an uncertified interval: bisect inside it
            if sel.any():
                x[sel] = bisect_increasing(fn, target[sel], x_nodes[k[sel]], x_nodes[k[sel] + 1])
        x[p != pc] = self._beyond(p[p != pc], x_nodes[0], x_nodes[-1])
        return x

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

    # -- stop-loss transform -------------------------------------------------

    def excess_table(self, reach: int) -> tuple[np.ndarray, ...]:
        """(points, pmf, cdf, sf, Pi) on the EXCESS_CUT support of a lattice
        law, extended `reach` points past its end by one pdf/cdf/sf call.

        Pi(k) = sum_{j >= k} S(j), short by the sum of S past the table. One
        read-only table is kept per law, rebuilt when a call reaches further.
        """
        pts, f, cdf, sf = self.lattice_table(EXCESS_CUT)
        table = self._cache.get("stop_loss")
        if table is None or table[0][-1] < pts[-1] + reach:
            if len(pts) + reach > LATTICE_LIMIT:
                raise SupportTooLarge(f"stop-loss table exceeds {LATTICE_LIMIT} points")
            more = pts[-1] + np.arange(1.0, reach + 1)
            cols = [np.concatenate([c, fn(more)]) for c, fn in ((f, self.pdf), (cdf, self.cdf), (sf, self.sf))]
            pi = np.cumsum(cols[2][::-1])[::-1]
            table = self._cache["stop_loss"] = _read_only(np.concatenate([pts, more]), *cols, pi)
        return table

    def _stop_loss_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, Pi at the nodes) of a continuous law: the inverse-table
        nodes and the finite support ends, Pi summed from the top over one
        Gauss-Legendre panel of sf per node interval."""
        if "stop_loss" not in self._cache:
            lo, hi = self.support.lower, self.support.upper
            ends = [v for v in (lo, hi) if np.isfinite(v)]
            nodes = np.unique(np.concatenate([np.clip(self._inverse_table()[1], lo, hi), ends]))
            seg = np.append(panels(self.sf, nodes[:-1], nodes[1:]), self._tail_stop_loss(nodes[-1]))
            self._cache["stop_loss"] = _read_only(nodes, np.cumsum(seg[::-1])[::-1])
        return self._cache["stop_loss"]

    def _tail_stop_loss(self, x: float) -> float:
        """Pi(x) by adaptive quadrature of sf(x + c v) / sf(x) over v >= 0,
        c = sf(x) / pdf(x) the tail's length scale: unscaled, QUADPACK's
        absolute tolerance swamps a tail far below it, and its map of
        [x, inf) misses a polynomial tail that starts at x = 5.6e5."""
        s, f = float(self.sf(x)), float(self.pdf(x))
        if s <= 0.0 or x >= self.support.upper:
            return 0.0
        c = s / f if 0.0 < f < np.inf else 1.0
        return s * c * integrate(lambda v: float(self.sf(x + c * v)) / s, 0.0, np.inf)[0]

    def _stop_loss_panel(self, y: np.ndarray) -> np.ndarray:
        """Pi(y) from the node table plus one panel to the first node >= y,
        or back from the last node past it, exact there to a few ulp of Pi."""
        nodes, pi = self._stop_loss_nodes()
        j = np.minimum(np.searchsorted(nodes, y), len(nodes) - 1)
        return np.maximum(pi[j] + panels(self.sf, y, nodes[j]), 0.0)

    def stop_loss(self, x):
        """Stop-loss transform Pi(x) = E[(X - x)+] = int_x^inf S(w) dw.

        Lattice laws read excess_table(): Pi(k) - (x - k) S(k) at k = floor(x),
        S = 1 below the table. Continuous laws read the node table, and past
        its last node, where Pi falls below the table's few ulp, integrate.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if self.is_lattice:
            k = np.floor(xs)
            last = self.lattice_table(EXCESS_CUT)[0][-1]
            pts, _, _, sf, pi = self.excess_table(max(int(k.max() - last), 0))
            i = np.clip(k - pts[0], 0, len(pts) - 1).astype(int)
            below = np.maximum(pts[0] - k, 0.0)  # S = 1 below the table
            out = pi[i] + below - (xs - k) * np.where(below > 0, 1.0, sf[i])
        else:
            out = self._stop_loss_panel(xs)
            for j in np.flatnonzero(xs > self._stop_loss_nodes()[0][-1]):
                out[j] = self._tail_stop_loss(xs[j])
        return float(out[0]) if np.ndim(x) == 0 else out

    def shifted_mean(self, which: str, ts) -> np.ndarray:
        """E[g(X + t)] for each t >= 0, g = sf ("sf") or stop_loss ("stop_loss").

        Lattice laws (integer t) take one dot product per t over
        excess_table(). Continuous laws apply one panel per node interval to
        f(x) g(x + t), clipped at upper - t where S(x + t) has its kink, g
        read from the node table; one adaptive integral per t adds the head
        below the first node of an unbounded lower end.
        """
        ts = np.asarray(ts, dtype=float)
        if self.is_lattice:
            steps = ts.astype(int)
            _, f, _, sf, pi = self.excess_table(int(np.max(steps, initial=0)))
            g = sf if which == "sf" else pi
            return np.array([float(np.dot(f[: len(f) - t], g[t:])) for t in steps])
        g = self.sf if which == "sf" else self._stop_loss_panel
        nodes = self._stop_loss_nodes()[0]
        out = np.empty(len(ts))
        for i, t in enumerate(ts):
            a, b = nodes[:-1], np.minimum(nodes[1:], self.support.upper - t)
            out[i] = np.sum(panels(lambda x: self.pdf(x) * g(x + t), a[a < b], b[a < b]))
            if np.isinf(self.support.lower):
                head = lambda x: float(self.pdf(x)) * float(g(np.array([x + t]))[0])
                out[i] += integrate(head, -np.inf, nodes[0])[0]
        return out
