"""Distribution abstraction: a capability bundle for one continuous or
integer-lattice law.

A Distribution carries vectorized density/pmf, CDF and survival callables
plus support metadata and whatever closed-form moments are known. The
survival convention is P(X > x) in both kinds, so cdf + sf = 1 pointwise.
Instances are immutable after construction and safe to evaluate from
concurrent workers; the only mutable state is a per-law cache of read-only
tables, owned by this module and built lazily on first use (Distribution
lists them): the enumerated lattice table and the sums over the tail it
leaves out, the one scan grid, the certified inverse table behind
continuous quantiles and Monte Carlo draws, and the stop-loss table behind
every mean excess. Each is built once and never rebuilt. On continuous laws
the stop-loss table runs on into the tail and a read of it between nodes
evaluates no law; on the lattice it is read past its top by sf and the
tail's sum of S, never extended.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import legint, legvander

from .errors import DivergentTail, SupportTooLarge, UnsupportedKind
from .numerics import GL_W, GL_X, bisect_increasing, integrate_batch, panel_nodes, panels

CONTINUOUS = "continuous-interval"
LATTICE = "integer-lattice"

# inverse table of continuous laws without a ppf: nodes evenly spaced in logit(u)
# over [1e-12, 1 - 1e-12], each interval halved up to INV_LEVELS times until its
# cubic Hermite inverse is within INV_TOL in probability
INV_NODES = 513
INV_LOGIT = math.log((1.0 - 1e-12) / 1e-12)
INV_LEVELS = 6
INV_TOL = 1e-12

# lattice mass cut: a lattice law is enumerated once, until the omitted tail
# mass is below SUM_CUT; every lattice sum adds the sums over the tail that
# table leaves out on the open side of the support (lattice_tail)
SUM_CUT = 1e-12
# most points one lattice enumeration, or one tail summed in blocks, may hold
LATTICE_LIMIT = 2**19
# points in the first block of a tail summed past a table; each next block doubles
TAIL_BLOCK = 1024
# most cells, t values times table points, one block of a lattice curve reads
CURVE_CELLS = 2**16

# scan grid of a continuous law: SCAN_POINTS quantiles evenly spaced in
# probability over [SCAN_CLIP, 1 - SCAN_CLIP]; a lattice law scans every point
# of its table carrying mass >= SUM_CUT
SCAN_POINTS = 2048
SCAN_CLIP = 1e-6

# continuous stop-loss table: G = _ANTIDERIV @ (S at the 16 Gauss-Legendre
# nodes of [-1, 1]) are the Legendre coefficients of int_s^1 p, p the degree-15
# interpolant of those values (the rule is exact on the degree-30 products
# that give p's coefficients); past its base nodes the table runs on in blocks
# of 32 steps of S/f, and a tail that needs more than REACH_STEPS steps to end
# raises DivergentTail
_ANTIDERIV = -legint(legvander(GL_X, 15).T * GL_W * (np.arange(16) + 0.5)[:, None], lbnd=1)
REACH_STEPS = 2**14


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


def _legval_rows(x: np.ndarray, coef: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """legval(x, coef[:, cols], tensor=False) with its Clenshaw recurrence and
    operation order, gathering one coefficient row per step instead of the
    whole (len(coef), len(x)) block."""
    nd = len(coef)
    c0, c1 = coef[-2].take(cols), coef[-1].take(cols)
    scratch = np.empty_like(x)
    for i in range(3, len(coef) + 1):
        nd = nd - 1
        # c0, c1 = c[-i] - c1 ((nd - 1) / nd), c0 + c1 x ((2 nd - 1) / nd), in place
        row = coef[-i].take(cols)
        np.subtract(row, np.multiply(c1, (nd - 1) / nd, out=scratch), out=row)
        np.multiply(c1, x, out=c1)
        np.add(c0, np.multiply(c1, (2 * nd - 1) / nd, out=c1), out=c1)
        c0 = row
    return c0 + c1 * x


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
    The law has no second density: logpdf() is the log of pdf.
    `_cache` holds the read-only tables built on first use: lattice_table(),
    which also serves quantile(), with table_tail() beside it, the one
    probe_grid() with the pdf, cdf and sf columns of probe_values() beside
    it, the continuous inverse table (stop_loss() takes its nodes) and its
    refinement that quantile() reads when the law has no ppf or
    `table` is set, and one stop-loss table: excess_table() on the lattice,
    read at any integer by _excess_read(); on continuous laws the node table
    of stop_loss() with its Legendre coefficients and its extension into the
    tail (_stop_loss_nodes()), and the outer nodes and weights of
    shifted_means() over the nodes below that extension (_outer_panels()).
    Beside them
    `measures.dispersion_report` keeps the law's SD/GMD report under
    "report"; no other module touches it.
    """

    support: Support
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    sf: Callable[[np.ndarray], np.ndarray]
    label: str = ""  # registry builders leave it to make_distribution
    ppf: Callable[[np.ndarray], np.ndarray] | None = None
    closed: ClosedForms = field(default_factory=ClosedForms)
    meta: dict = field(default_factory=dict)
    # lattice laws with polynomial tails supply the sums over the region past
    # an integer m on the open side of the support, x > m for an upper tail
    # and x < m for a lower one: (mass, sum x f, sum x^2 f, then sum S for an
    # upper tail or sum F for a lower one). GMD reads the last as the sum of
    # F S there, which it exceeds by at most the mass times itself.
    tail_sums: Callable[[int], tuple[float, float, float, float]] | None = None
    # interior kinks of a continuous support, where a mixture component's
    # support starts or ends: nodes of the stop-loss table, and edges at
    # break - t of the outer panels of shifted_means
    breaks: tuple[float, ...] = ()
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def is_lattice(self) -> bool:
        return self.support.is_lattice

    def logpdf(self, x):
        """log density/pmf: log pdf, floored at 1e-320 where pdf underflows.
        The log-concavity scans read the same values off the probe grid's
        pdf column (`hazard.log_concavity_scan`)."""
        with np.errstate(all="ignore"):
            return np.log(np.maximum(self.pdf(x), 1e-320))

    def quantile(self, p, table: bool = False):
        """Smallest x with cdf(x) >= p, to 1e-12 in probability; NaN where p is
        NaN or outside [0, 1].

        A closed-form ppf is used when the law has one, unless `table` is set
        on a continuous law. Otherwise both kinds solve on cdf for p <= 1/2
        and on sf against 1 - p above: lattice laws exactly, by a search of
        the lattice table; continuous laws by one cubic of _hermite_table,
        certified to 1e-12 when it is built. Targets the cubics leave out, in
        a sub-interval the table could not certify or beyond its end nodes,
        go to the ppf where the law has one; without one they are bisected,
        inside their node interval or between the support end and the end
        node, so the output joins the table's monotonically. Monte Carlo
        sets `table`, so it draws every continuous law through the certified
        table; with its build, that beats the ppf through gammaincinv alone,
        and is about even with betaincinv and slower than the closed forms.
        """
        p = np.asarray(p, dtype=float)
        p1 = np.atleast_1d(p)
        ok = (p1 >= 0.0) & (p1 <= 1.0)  # False at NaN
        if ok.all():
            out = self._solve(p1, table)
        else:
            out = np.full(p1.shape, np.nan)
            out[ok] = self._solve(p1[ok], table)
        return float(out[0]) if p.ndim == 0 else out

    def _solve(self, p: np.ndarray, table: bool) -> np.ndarray:
        if self.ppf is not None and (self.is_lattice or not table):
            return np.asarray(self.ppf(p), dtype=float)
        return self._lattice_quantile(p) if self.is_lattice else self._invert(p)

    def _lattice_quantile(self, p: np.ndarray) -> np.ndarray:
        pts, _, cum, sf = self.lattice_table()
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
        s = (pc - u.take(k)) * scale.take(k)
        j = np.clip(s.astype(int), 0, sizes.take(k) - 1)
        x = _horner(coef.take(offsets.take(k) + j, axis=0), s - j)  # take gathers rows far faster than coef[...]
        beyond = p != pc
        if self.ppf is not None:  # the closed form answers every target the cubics leave out
            miss = np.isnan(x) | beyond
            if miss.any():
                x[miss] = self.ppf(p[miss])
            return x
        uncertified = np.isnan(x) & ~beyond
        if uncertified.any():  # bisect inside the node interval
            for sel, fn, target in self._sides(p):
                sel &= uncertified
                if sel.any():
                    x[sel] = bisect_increasing(fn, target[sel], x_nodes[k[sel]], x_nodes[k[sel] + 1])
        if beyond.any():
            x[beyond] = self._beyond(p[beyond], x_nodes[0], x_nodes[-1])
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

    def lattice_table(self) -> tuple[np.ndarray, ...]:
        """(points, pmf, cdf, sf) at the support enumerated to SUM_CUT.

        Built once per law; points are floats and every array is read-only.
        """
        if "lattice" not in self._cache:
            pts = self.lattice_points(SUM_CUT).astype(float)
            cols = [np.asarray(fn(pts), dtype=float) for fn in (self.pdf, self.cdf, self.sf)]
            self._cache["lattice"] = _read_only(pts, *cols)
        return self._cache["lattice"]

    def lattice_tail(self, m: int, upper: bool) -> np.ndarray:
        """(mass, sum x f, sum x^2 f, sum S) over x > m if `upper`, else (mass,
        sum x f, sum x^2 f, sum F) over x < m: from tail_sums where the law
        carries them, else mass from sf or cdf and the sums in blocks from m
        outward, each twice the last, until a block adds nothing or its f and
        S (or F) are all 0. Raises SupportTooLarge once it has summed more than
        LATTICE_LIMIT points, counted (far out x + 1 == x, so the distance from
        m stops growing)."""
        if self.tail_sums is not None:
            return np.array(self.tail_sums(m), dtype=float)
        step = 1.0 if upper else -1.0
        out = np.array([float(self.sf(m) if upper else self.cdf(m - 1)), 0.0, 0.0, 0.0])
        end, n, count = float(m), TAIL_BLOCK, 0
        while True:
            x = end + step * np.arange(1.0, n + 1)
            f = np.asarray(self.pdf(x), dtype=float)
            g = np.asarray(self.sf(x) if upper else self.cdf(x), dtype=float)
            # a block of zeros ends the sum also where x * x * f is inf * 0
            if not (f.any() or g.any()):
                return out
            block = np.array([0.0, (x * f).sum(), (x * x * f).sum(), g.sum()])
            if np.all(out + block == out):
                return out
            out += block
            end, count, n = x[-1], count + n, 2 * n
            if count > LATTICE_LIMIT:
                raise SupportTooLarge(f"tail of {self.label} past {m} exceeds {LATTICE_LIMIT} points")

    def table_tail(self) -> tuple[bool, np.ndarray]:
        """(upper, lattice_tail past the open end of lattice_table()): x above
        its last point on an upper-open support, else x below its first point
        (zeros on a finite support). Kept read-only per law."""
        if "tail" not in self._cache:
            pts = self.lattice_table()[0]
            upper = bool(np.isinf(self.support.upper))
            if upper or np.isinf(self.support.lower):
                sums = self.lattice_tail(int(pts[-1] if upper else pts[0]), upper)
            else:
                sums = np.zeros(4)
            self._cache["tail"] = (upper, _read_only(sums)[0])
        return self._cache["tail"]

    # -- probe grids ---------------------------------------------------------

    def probe_grid(self) -> np.ndarray:
        """Quantile-spaced grid of SCAN_POINTS points over [q(SCAN_CLIP),
        q(1 - SCAN_CLIP)].

        For lattice laws this instead returns every support point carrying
        mass >= SUM_CUT. The grid is built once per law and read-only.
        """
        if "grid" not in self._cache:
            if self.is_lattice:
                pts, mass, _, _ = self.lattice_table()
                xs = pts[mass >= SUM_CUT]
                if len(xs) == 0:
                    raise UnsupportedKind(f"no lattice point carries mass >= {SUM_CUT:g}")
            else:
                ps = np.linspace(SCAN_CLIP, 1.0 - SCAN_CLIP, SCAN_POINTS)
                xs = np.maximum.accumulate(np.asarray(self.quantile(ps), dtype=float))
            self._cache["grid"] = _read_only(xs)[0]
        return self._cache["grid"]

    def probe_values(self, *which: str) -> tuple[np.ndarray, ...]:
        """(probe_grid(), then pdf, cdf or sf on it for each name in `which`).
        Each column is evaluated once per law and kept read-only beside its
        grid, so the scans of one law share it."""
        with np.errstate(all="ignore"):
            xs = self.probe_grid()
            cols = []
            for name in which:
                key = ("grid", name)
                if key not in self._cache:
                    self._cache[key] = _read_only(np.asarray(getattr(self, name)(xs), dtype=float))[0]
                cols.append(self._cache[key])
        return (xs, *cols)

    @property
    def probe_label(self) -> str:
        """The probe grid as a scan record names it."""
        if self.is_lattice:
            return f"lattice[mass>={SUM_CUT:g}]"
        return f"quantile[{SCAN_CLIP:g},{1 - SCAN_CLIP}]n{SCAN_POINTS}"

    def iqr(self) -> float:
        q1, q3 = self.quantile(np.array([0.25, 0.75]))
        return float(q3 - q1)

    # -- stop-loss transform -------------------------------------------------

    def excess_table(self) -> tuple[np.ndarray, ...]:
        """(points, pmf, cdf, sf, Pi): lattice_table() and Pi(k) = sum_{j >= k}
        S(j), summed from the top and started from table_tail()'s sum of S
        past it (0 on a support bounded above). Built once per law, read-only.
        """
        if "stop_loss" not in self._cache:
            upper, tail = self.table_tail()
            pi = np.cumsum(np.append(self.lattice_table()[3], tail[3] if upper else 0.0)[::-1])[:0:-1]
            self._cache["stop_loss"] = (*self.lattice_table(), *_read_only(pi))
        return self._cache["stop_loss"]

    def _excess_read(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(S(k), Pi(k)) at integers k (floats, any shape): excess_table()'s columns
        inside it; S = 1 and Pi = Pi(first) + first - k below it; past its top 0 on
        a support bounded above, else S from sf and Pi by the tail rule, summed
        from the top of each run of consecutive k after one lattice_tail call there."""
        pts, _, _, sf, pi = self.excess_table()
        i = np.clip(k - pts[0], 0, len(pts) - 1).astype(np.intp)
        s, p = sf.take(i), pi.take(i)
        below, past = k < pts[0], k > pts[-1]
        s[below], p[below] = 1.0, p[below] + (pts[0] - k[below])
        s[past] = p[past] = 0.0
        if past.any() and np.isinf(self.support.upper):
            u, back = np.unique(k[past], return_inverse=True)
            su, pu = np.asarray(self.sf(u), dtype=float), np.empty(len(u))
            for run in np.split(np.arange(len(u)), np.flatnonzero(np.diff(u) > 1) + 1):
                rest = self.lattice_tail(int(u[run[-1]]), True)[3]
                pu[run] = np.cumsum(np.append(su[run], rest)[::-1])[:0:-1]
            s[past], p[past] = su[back], pu[back]
        return s, p

    def _base_nodes(self) -> np.ndarray:
        """The inverse-table nodes, the finite support ends and the breaks: the
        stop-loss table's nodes below its extension, and the edges of the outer
        panels of shifted_means()."""
        lo, hi = self.support.lower, self.support.upper
        ends = [v for v in (lo, hi, *self.breaks) if np.isfinite(v)]
        return np.unique(np.concatenate([np.clip(self._inverse_table()[1], lo, hi), ends]))

    def _stop_loss_nodes(self) -> tuple[np.ndarray, ...]:
        """(nodes, Pi at the nodes, coefficients) of a continuous law, built once:
        _base_nodes(), then an extension in blocks of 32 steps of the tail length
        scale S/f taken at each block's start (1 where f is 0 or not finite). It
        ends at the first block start that is the support's upper end, where S
        is no longer a normal double, or where a step no longer moves x. Pi is
        summed from 0 there by _stop_loss_rows, so it keeps its relative
        accuracy far below Pi at the base's top."""
        if "stop_loss" not in self._cache:
            blocks = [self._base_nodes()]
            for _ in range(REACH_STEPS // 32):
                x = blocks[-1][-1]
                s, f = float(self.sf(x)), float(self.pdf(x))
                step = s / f if 0.0 < f < np.inf else 1.0
                if x >= self.support.upper or not s >= np.finfo(float).tiny or x + step == x:
                    break
                blocks.append(x + step * np.arange(1.0, 33.0))
            else:
                raise DivergentTail(f"stop-loss table of {self.label} did not end in {REACH_STEPS} steps")
            self._cache["stop_loss"] = self._stop_loss_rows(np.unique(np.concatenate(blocks)))
        return self._cache["stop_loss"]

    def _stop_loss_rows(self, nodes: np.ndarray) -> tuple[np.ndarray, ...]:
        """(nodes, Pi, coefficients): Pi summed from 0 at the last node over one
        Gauss-Legendre panel of sf per node interval; column k of the
        coefficients holds G_k, int_s^1 of the interpolant of those sf values on
        interval k in Legendre series, so that Pi(y) = Pi(b_k) + h_k G_k(s) for
        y = b_k - h_k (1 - s) with b_k its right node and h_k its half-width."""
        x, half = panel_nodes(nodes[:-1], nodes[1:])
        vals = np.asarray(self.sf(x.ravel()), dtype=float).reshape(x.shape)
        seg = np.append((vals @ GL_W) * half, 0.0)
        return _read_only(nodes, np.cumsum(seg[::-1])[::-1], _ANTIDERIV @ vals.T)

    def _stop_loss_read(self, y: np.ndarray) -> np.ndarray:
        """Pi(y) of a continuous law from _stop_loss_nodes(): inside [first
        node, last node], Pi(b) + h G(s) in y's node interval, with no call to
        the law; below the first node one panel of sf up to it; 0 past the last
        node; NaN at NaN. The node intervals of sorted inside points, as the
        panel nodes plus t of shifted_means() arrive, come from one merge of
        the nodes into them; unsorted ones are searched point by point."""
        y = np.asarray(y, dtype=float)
        nodes, pi, coef = self._stop_loss_nodes()
        out = np.zeros(y.shape)
        below = y < nodes[0]
        if below.any():
            out[below] = pi[0] + panels(self.sf, y[below], nodes[0])
        inside = ~below & ~(y > nodes[-1])
        z = y[inside]
        if (z[1:] >= z[:-1]).all():
            # nodes below each z: the count of merge positions at or before it
            j = np.bincount(np.searchsorted(z, nodes, side="right"), minlength=len(z) + 1).cumsum()[: len(z)]
        else:
            j = np.searchsorted(nodes, z)
        i = np.clip(j, 1, len(nodes) - 1) - 1
        left = nodes[i]
        half = 0.5 * (nodes[i + 1] - left)
        out[inside] = pi[i + 1] + half * _legval_rows((z - left) / half - 1.0, coef, i)
        return np.maximum(out, 0.0)

    def stop_loss(self, x):
        """Stop-loss transform Pi(x) = E[(X - x)+] = int_x^inf S(w) dw.

        Lattice laws read Pi(k) - (x - k) S(k) at k = floor(x) by
        _excess_read(), which takes S = 1 below the table, whose omitted F is
        below SUM_CUT. Continuous laws read the stop-loss table, built once with
        its extension into the tail (_stop_loss_read). On both kinds Pi(-inf)
        is inf, Pi(inf) is 0 and Pi(nan) is nan.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.where(xs < 0, np.inf, 0.0)
        out[np.isnan(xs)] = np.nan
        finite = np.isfinite(xs)
        if self.is_lattice:
            k = np.floor(xs[finite])
            s, p = self._excess_read(k)
            out[finite] = p - (xs[finite] - k) * s
        else:
            out[finite] = self._stop_loss_read(xs[finite])
        return float(out[0]) if np.ndim(x) == 0 else out

    def _outer_panels(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, w): the panel nodes of each interval of _base_nodes(), one row
        per interval, and pdf(x) times the rule's weight and half-width there."""
        if "outer" not in self._cache:
            nodes = self._base_nodes()
            x, half = panel_nodes(nodes[:-1], nodes[1:])
            w = np.asarray(self.pdf(x), dtype=float) * (half[:, None] * GL_W)
            self._cache["outer"] = _read_only(x, w)
        return self._cache["outer"]

    def shifted_means(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """(E[S(X + t)], E[Pi(X + t)]) for each t >= 0.

        Lattice laws (integer t) sum f(x) S(x + t) and f(x) Pi(x + t) over
        excess_table(), read by _excess_read() in blocks of CURVE_CELLS cells;
        below a lower-open table, where S = 1 and Pi(x + t) = Pi(first) +
        first - x - t, they add both heads from table_tail(). Continuous laws
        take one pass over t, dotting the pdf-weighted panel nodes of
        _outer_panels(), shifted by t, with sf and with Pi read from the
        stop-loss table, whose extension into the tail serves any t (0 past
        its end). A base node interval inside which S(x + t) kinks, at upper -
        t or at break - t, is integrated afresh by one panel per piece. On an
        unbounded lower end the heads below the first node run as one
        adaptive batch per expectation, each scaled by its integrand there.
        """
        ts = np.asarray(ts, dtype=float)
        if self.is_lattice:
            pts, f, _, _, pi = self.excess_table()
            step = max(1, CURVE_CELLS // len(pts))
            reads = (self._excess_read(pts + t[:, None]) for t in np.split(ts, range(step, len(ts), step)))
            den, num = np.concatenate([[(f * s).sum(axis=-1), (f * p).sum(axis=-1)] for s, p in reads], axis=1)
            upper, (mass, t1, _, _) = self.table_tail()
            if not upper:
                den, num = den + mass, num + (mass * (pi[0] + pts[0] - ts) - t1)
            return den, num
        nodes = self._base_nodes()
        gs = (self.sf, self._stop_loss_read)
        x, w = self._outer_panels()
        a, b = nodes[:-1], nodes[1:]
        out = np.empty((2, len(ts)))
        for i, t in enumerate(ts):
            # node intervals that S(x + t) kinks inside, at break - t or
            # upper - t, are integrated afresh between those edges
            hi = self.support.upper - t
            cuts = np.append(np.asarray(self.breaks) - t, hi)
            split = (b > hi) | ((a[:, None] < cuts) & (cuts < b[:, None])).any(axis=1)
            keep = ~split if split.any() else slice(None)  # a view, not a copy, when none splits
            xt, wt = x[keep].ravel() + t, w[keep].ravel()
            out[:, i] = [np.dot(wt, g(xt)) for g in gs]
            if split.any():
                edges = np.unique(np.concatenate([nodes, cuts]))
                lo, up = edges[:-1], np.minimum(edges[1:], hi)
                k = np.searchsorted(nodes, lo, side="right") - 1
                fresh = (k >= 0) & (k < len(a)) & (lo < up)
                fresh[fresh] = split[k[fresh]]
                for j, g in enumerate(gs):
                    out[j, i] += np.sum(panels(lambda x: self.pdf(x) * g(x + t), lo[fresh], up[fresh]))
        if np.isinf(self.support.lower):
            below = np.full(len(ts), -np.inf), np.full(len(ts), nodes[0])
            for j, g in enumerate(gs):
                # in units of the integrand at the first node, so the relative
                # tolerance, not EPSABS, ends each head however small it is
                c = self.pdf(nodes[0]) * g(nodes[0] + ts)
                c = np.where((0.0 < c) & (c < np.inf), c, 1.0)
                out[j] += c * integrate_batch(lambda x, k: self.pdf(x) * g(x + ts[k]) / c[k], *below)[0]
        return out[0], out[1]
