"""Distribution abstraction: a capability bundle for one continuous or
integer-lattice law.

A Distribution carries vectorized density/pmf, CDF and survival callables
plus support metadata and whatever closed-form moments are known. The
survival convention is P(X > x) in both kinds, so cdf + sf = 1 pointwise.
Instances are immutable after construction and safe to evaluate from
concurrent workers; the only mutable state is a per-law cache of read-only
tables, owned by this module and built lazily on first use (Distribution
lists them): the enumerated lattice table, summed from one pmf pass and read
by every lattice scan, the guide table every lattice quantile reads and the
sums over the tail it leaves out, the one scan grid, the certified inverse
table behind the continuous quantiles of laws without a ppf and the Monte
Carlo draws of those and of laws whose ppf is iterative, and the stop-loss
table behind every mean excess. Each is built once and never rebuilt. On
continuous laws the stop-loss table runs on into the tail, a read of it
between nodes evaluates no law, and a curve reads it once per outer node
interval, at its right node; on the lattice it is read past its top by sf and the tail's sum of S, never
extended, and a curve reads it from its first point up.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leg2poly, legint, legval, legvander

from .errors import DivergentTail, SupportTooLarge, UnsupportedKind
from .numerics import GL_W, GL_X, bisect_increasing, integrate_batch, narrow_increasing, panel_nodes, panels

CONTINUOUS = "continuous-interval"
LATTICE = "integer-lattice"

# inverse table of continuous laws: nodes evenly spaced in logit(u)
# over [1e-12, 1 - 1e-12], each interval halved up to INV_LEVELS times until its
# cubic Hermite inverse is within INV_TOL in probability
INV_NODES = 513
INV_LOGIT = math.log((1.0 - 1e-12) / 1e-12)
INV_LEVELS = 6
INV_TOL = 1e-12
# inverse-table nodes of a law without a ppf: NEWTON_START halvings, then at
# most NEWTON_STEPS Newton steps, a node done once its step or bracket is below
# NEWTON_TOL of the width its bracket started the steps with
NEWTON_START = 8
NEWTON_STEPS = 6
NEWTON_TOL = 1e-7

# lattice mass cut: a lattice law is enumerated once, until the omitted tail
# mass is below SUM_CUT; every lattice sum adds the sums over the tail that
# table leaves out on the open side of the support (lattice_tail)
SUM_CUT = 1e-12
# buckets of the guide table that indexes lattice quantiles by p alone
GUIDE = 4096
# most points one lattice enumeration, or one tail summed in blocks, may hold
LATTICE_LIMIT = 2**19
# most points one pass of the search for a lattice enumeration's end tries
END_PASS = 128
# points in the first block of a tail summed past a table; each next block doubles
TAIL_BLOCK = 1024
# most cells, t values times table points or outer panel nodes, one block of a curve reads
CURVE_CELLS = 2**16

# scan grid of a continuous law: SCAN_POINTS quantiles evenly spaced in
# probability over [SCAN_CLIP, 1 - SCAN_CLIP]; a lattice law scans every point
# of its table carrying mass >= SUM_CUT
SCAN_POINTS = 2048
SCAN_CLIP = 1e-6

# continuous stop-loss table: G = _ANTIDERIV @ (S at the 16 Gauss-Legendre
# nodes of [-1, 1]) are the Legendre coefficients of int_s^1 p, p the degree-15
# interpolant of those values (the rule is exact on the degree-30 products
# that give p's coefficients); _POWER @ G are G's coefficients in powers of s,
# which the table keeps and a read evaluates by Horner's rule. The two stay
# separate products: folded into one, whose entries reach 1.4e3, they put reads
# up to 1.2e3 eps Pi(left node) off the Legendre read, against 1.9 eps. Past its
# base nodes the table runs on in blocks of 32 steps of S/f, and a tail that
# needs more than REACH_STEPS steps to end raises DivergentTail. The same rule
# read at the nodes: _PANEL_INT @ (S at the nodes) is int_{s_i}^1 p at each node s_i
_ANTIDERIV = -legint(legvander(GL_X, 15).T * GL_W * (np.arange(16) + 0.5)[:, None], lbnd=1)
_POWER = np.stack([np.pad(leg2poly(e), (0, 16 - k)) for k, e in enumerate(np.eye(17))], axis=1)
_PANEL_INT = legval(GL_X, _ANTIDERIV).T
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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-D a, summed over a's columns from the first by numpy, not
    by BLAS, whose blocking, and so whose bits, follow its thread count."""
    return sum(a[:, k, None] * b[k] for k in range(a.shape[1]))


def _first_integer(test: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """The least integer k in [lo, hi) at which the vectorized `test` holds, else
    hi, for a test that holds at every integer past one where it holds. The first
    pass tries lo - 1 + 2^j for 2^j <= hi - lo; each later pass tries every
    integer left below the first point found, or END_PASS of them evenly spaced."""
    n = hi - lo
    xs = lo - 1.0 + np.exp2(np.arange(int(n).bit_length()))
    while n > 0:
        ok = np.asarray(test(xs), dtype=bool)
        j = int(np.argmax(ok)) if ok.any() else len(xs)
        if j < len(xs):
            hi = float(xs[j])
        if j:
            lo = float(xs[j - 1]) + 1.0
        n = hi - lo
        m = min(n, END_PASS)
        xs = lo + np.floor(np.arange(m) * (n / max(m, 1)))
    return hi


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
    The law has no second density: logpdf() is the log of pdf. `_cache` holds
    the read-only tables built on first use: lattice_table(), which also serves
    quantile() through _lattice_guide(), with table_tail() beside it, the one
    probe_grid() with the pdf, cdf and sf columns of probe_values() beside it,
    the continuous inverse table (stop_loss() takes its nodes) and its
    refinement that quantile() reads when the law has no ppf or `table` is set,
    and one stop-loss table: excess_table() on the lattice, read at any integer
    by _excess_read() and along a curve's rows by _table_rows(); on continuous
    laws the node table of stop_loss(), with the power coefficients of Pi on
    each node interval that a read evaluates by Horner's rule, and its
    extension into the tail (_stop_loss_nodes()), and the outer panels of
    shifted_means() below that extension, nodes, weights and the weights' sums
    W and V per interval (_outer_panels()).
    Beside them
    `measures.dispersion_report` keeps the law's SD/GMD report under
    "report", and `measures.mean_excess_abs_diff` keeps the reflection
    affine(d, -1, 0) of a lattice law unbounded below, with its own tables,
    under "reflection"; no other module touches them.
    """

    support: Support
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    sf: Callable[[np.ndarray], np.ndarray]
    label: str = ""  # registry builders leave it to make_distribution
    ppf: Callable[[np.ndarray], np.ndarray] | None = None
    # the ppf is an iterative special-function inverse (gammaincinv,
    # betaincinv), dearer than a read of the inverse table: Monte Carlo draws
    # the law through the table (oracle._sample) instead of by the ppf
    ppf_iterative: bool = False
    closed: ClosedForms = field(default_factory=ClosedForms)
    meta: dict = field(default_factory=dict)
    # lattice laws supply the sums over the region past an integer m on the
    # open side of the support, x > m for an upper tail and x < m for a lower
    # one: (mass, sum x f, sum x^2 f, then sum S for an upper tail or sum F
    # for a lower one); every registry lattice family does, in closed form.
    # GMD reads the last as the sum of F S there, which it exceeds by at most
    # the mass times itself.
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
        NaN or outside [0, 1]. On a continuous law p = 0 and p = 1 give the
        support's lower and upper end, with no ppf call or table.

        A closed-form ppf is used when the law has one, unless `table` is set
        on a continuous law. Otherwise both kinds solve on cdf for p <= 1/2
        and on sf against 1 - p above: lattice laws exactly, every call through
        the guide table of _lattice_guide, which answers most targets by one
        lookup, and a search of the lattice table for the rest; continuous laws
        by one cubic of _hermite_table, certified to 1e-12 when built. Targets
        the cubics leave out, in a sub-interval the table could not certify or
        beyond its end nodes, go to the law's exact inverse: the ppf where the
        law has one, else the node solver of the table (_exact_inverse), whose
        Newton steps on log cdf (log sf above) keep p's relative accuracy deep
        in a tail and beside a density pole.
        Monte Carlo sets `table` where the ppf is iterative (`ppf_iterative`:
        gamma, beta and the maps of them that keep their ppf), so it draws
        those laws through the certified table, whose nodes are ppf(u);
        200,000 draws of gamma(2) take 10 ms that way, table build included,
        and 76 ms by gammaincinv. A direct ppf, such as weibull's, draws them
        in 0.7 ms against the table's 10 ms (best of 5, one BLAS thread).
        """
        p = np.asarray(p, dtype=float)
        p1 = np.atleast_1d(p)
        # False at NaN; a continuous law answers 0 and 1 by its support ends
        ok = (p1 >= 0.0) & (p1 <= 1.0) if self.is_lattice else (p1 > 0.0) & (p1 < 1.0)
        if ok.all():
            out = self._solve(p1, table)
        else:
            out = np.full(p1.shape, np.nan)
            if ok.any():
                out[ok] = self._solve(p1[ok], table)
            if not self.is_lattice:
                out[p1 == 0.0], out[p1 == 1.0] = self.support.lower, self.support.upper
        return float(out[0]) if p.ndim == 0 else out

    def _solve(self, p: np.ndarray, table: bool) -> np.ndarray:
        if self.ppf is not None and (self.is_lattice or not table):
            return np.asarray(self.ppf(p), dtype=float)
        return self._lattice_quantile(p) if self.is_lattice else self._invert(p)

    def _lattice_quantile(self, p: np.ndarray) -> np.ndarray:
        pts = self.lattice_table()[0]
        guide, floor = self._lattice_guide()
        idx = guide.take(np.minimum((p * GUIDE).astype(np.intp), GUIDE - 1))
        miss = np.flatnonzero(idx < 0)
        if not miss.size:
            return pts.take(idx)
        q = p[miss]
        j = self._lattice_search(q)
        # downward enumerations omit mass below the table
        inside = (q > floor) & (j < len(pts))
        idx[miss] = np.where(inside, j, 0)
        out = pts.take(idx)
        out[miss[~inside]] = self._beyond(q[~inside], pts[0], pts[-1])
        return out

    def _lattice_search(self, p: np.ndarray) -> np.ndarray:
        """Index of each target's quantile in lattice_table(): a search of the
        cdf column for p <= 1/2 and of the negated sf column above; the nudges
        keep rounding in either column from skipping a point."""
        _, _, cum, sf = self.lattice_table()
        return np.where(
            p > 0.5,
            np.searchsorted(-sf, -(1.0 - p) * (1 + 1e-15)),
            np.searchsorted(cum, p * (1 - 1e-15)),
        )

    def _lattice_guide(self) -> tuple[np.ndarray, float]:
        """(guide, floor): guide[b] is the index _lattice_search gives every p in
        [b, b + 1] / GUIDE, or -1 where it may give two or leaves the table;
        floor is cdf below the table's first point (Chen & Asau, AIIE Trans.
        6(2), 1974). The search does not decrease as p grows on either side of
        1/2 when both columns are sorted, as searchsorted needs, so a bucket
        whose two ends agree on one side resolves. Both columns are running
        sums of the pmf (lattice_table), so they are sorted but where rounding
        at the switch to a complement breaks it. The bucket starting at 1/2
        spans both sides and stays -1, as do buckets reaching down to floor
        and every bucket of a table with an unsorted column. Read-only."""
        if "guide" not in self._cache:
            pts, _, cum, sf = self.lattice_table()
            floor = float(self.cdf(pts[0] - 1.0))
            edges = np.arange(GUIDE + 1) / GUIDE
            ends = self._lattice_search(edges)  # 1/2 is searched on cdf, as the low buckets below it are
            ok = (ends[:-1] == ends[1:]) & (ends[1:] < len(pts)) & (edges[:-1] > floor)
            ok &= bool((np.diff(cum) >= 0).all() and (np.diff(sf) <= 0).all())
            ok[GUIDE // 2] = False
            self._cache["guide"] = (_read_only(np.where(ok, ends[1:], -1))[0], floor)
        return self._cache["guide"]

    def _sides(self, p: np.ndarray):
        """(mask, nondecreasing fn, target) for p <= 1/2, solved on cdf, and for
        p > 1/2, solved on -sf against p - 1, which is -(1 - p) exactly there."""
        return (p <= 0.5, self.cdf, p), (p > 0.5, lambda x: -self.sf(x), p - 1.0)

    def _beyond(self, p: np.ndarray, first: float, last: float) -> np.ndarray:
        """Lattice quantiles of targets beyond a table whose end points are
        first and last: the integer bisected onto."""
        out = np.empty_like(p)
        for (sel, fn, target), lo, hi in zip(self._sides(p), (self.support.lower, last), (first, self.support.upper)):
            if sel.any():
                out[sel] = bisect_increasing(fn, target[sel], lo, hi)
        return np.round(out)

    def _inverse_table(self):
        """(node probabilities, x, pdf at x), level 0 of _hermite_table: x is
        the exact inverse (_exact_inverse) at INV_NODES probabilities."""
        if "inverse" not in self._cache:
            u = 1.0 / (1.0 + np.exp(-np.linspace(-INV_LOGIT, INV_LOGIT, INV_NODES)))
            x = self._exact_inverse(u)
            self._cache["inverse"] = _read_only(u, x, np.asarray(self.pdf(x), dtype=float))
        return self._cache["inverse"]

    def _exact_inverse(self, u: np.ndarray) -> np.ndarray:
        """x at probabilities u in (0, 1) of a continuous law: the inverse-table
        nodes, and on a law without a ppf every target the table's cubics leave
        out. u is solved in sorted order, so that the order check below sees
        neighbours in probability however the caller ordered u.

        A law with a ppf takes ppf(u), clipped to the support; a law without
        one solves each target by a short bisection and Newton steps
        (_solve_nodes). Every x is then checked as the table checks its other
        points, cdf against u up to 1/2 and sf against the exact 1 - u above,
        so a cdf that saturates short of 1 does not spoil it. An x that misses
        by more than INV_TOL, is not finite or breaks the order of its
        neighbours is bisected in full, and only those are; on a law without a
        ppf such an x first takes Newton steps again, this time going to the
        bracket end a step overshoots (`to_end`).
        """
        order = np.argsort(u, kind="stable")
        u = u[order]
        with np.errstate(all="ignore"):
            if self.ppf is not None:
                x = np.clip(np.asarray(self.ppf(u), dtype=float), self.support.lower, self.support.upper)
                retries = ({"newton": False},)
            else:
                x = self._solve_nodes(u, newton=True)
                retries = ({"newton": True, "to_end": True}, {"newton": False})
            r = self._node_residuals(u, x)
            for retry in retries:
                bad = ~(np.abs(r) <= INV_TOL) | ~np.isfinite(x)
                down = np.diff(x) < 0
                bad[1:] |= down
                bad[:-1] |= down
                if not bad.any():
                    break
                x[bad] = self._solve_nodes(u[bad], **retry)
                r[bad] = self._node_residuals(u[bad], x[bad])
        out = np.empty_like(x)
        out[order] = x
        return out

    def _node_residuals(self, u: np.ndarray, x: np.ndarray) -> np.ndarray:
        r = np.empty_like(u)
        for sel, fn, target in self._sides(u):
            r[sel] = fn(x[sel]) - target[sel]
        return r

    def _solve_nodes(self, u: np.ndarray, newton: bool, to_end: bool = False) -> np.ndarray:
        """x at probabilities u, on cdf up to 1/2 and on sf above (_sides). A
        half with a finite support end solves in y = log|x - end|, since nodes
        beside a density pole there need far finer steps than x reaches; the
        other half solves in x. Without `newton`, a 72-step bisection; with
        it, NEWTON_START halvings, then Newton steps on log cdf (log sf above)
        inside the bracket they leave, a step that leaves it replaced by the
        bracket's midpoint, or with `to_end` by the end it leaves through: a
        root beside that end, which the steps overshoot from inside, is then
        reached by the step from the end. A node is done once its step or its
        bracket is below NEWTON_TOL of the bracket's first width, or its step
        no longer moves x, and after NEWTON_STEPS steps at most."""
        lo, hi = self.support.lower, self.support.upper
        x, span = np.empty_like(u), np.log(hi - lo)
        for (sel, fn, target), end, sign in zip(self._sides(u), (lo, hi), (1.0, -1.0)):
            if not sel.any():
                continue
            if np.isfinite(end):  # increasing in y: cdf(lo + e^y), sf(hi - e^y)
                to_x, dx = (lambda y: end + sign * np.exp(y)), np.exp
                g, t, a, b = (lambda y: sign * fn(to_x(y))), sign * target[sel], -np.inf, span
            else:
                to_x, dx = (lambda z: z), np.ones_like
                g, t, a, b = fn, target[sel], lo, hi
            if not newton:
                x[sel] = to_x(bisect_increasing(g, t, a, b))
                continue
            za, zb = (np.array(v) for v in narrow_increasing(g, t, a, b, NEWTON_START))
            z, tol = 0.5 * (za + zb), NEWTON_TOL * (zb - za)
            # |g| and |t| are probabilities: g is -sf against t = -(1 - u) on an open upper end
            live, log_t = np.arange(len(z)), np.log(np.abs(t))
            for _ in range(NEWTON_STEPS):
                zk = z[live]
                gz, slope = g(zk), self.pdf(to_x(zk)) * dx(zk)
                below = gz < t[live]
                a, b = np.where(below, zk, za[live]), np.where(below, zb[live], zk)
                za[live], zb[live] = a, b
                step = (log_t[live] - np.log(np.abs(gz))) * gz / slope
                # a step past the bracket by less than tol is rounding: it stops at the bracket's end
                new = np.clip(zk + step, a, b)
                taken = np.abs(zk + step - new) <= tol[live]  # False at NaN
                back = 0.5 * (a + b)
                if to_end:  # a NaN step still goes to the midpoint
                    back = np.where(zk + step < a, a, np.where(zk + step > b, b, back))
                z[live] = np.where(taken, new, back)
                done = (taken & ((np.abs(step) <= tol[live]) | (to_x(new) == to_x(zk)))) | (b - a <= tol[live])
                live = live[~done]
                if not live.size:
                    break
            x[sel] = to_x(z)
        return x

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
                    r[check] = self._node_residuals(uu[check], xx[check])
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
        u = self._inverse_table()[0]
        sizes, offsets, scale, coef = self._hermite_table()
        n, pc = len(u) - 1, np.clip(p, u[0], u[-1])
        # node interval by logit arithmetic; next to a node, rounding may pick its neighbour
        z = np.log(pc)
        z -= np.log1p(-pc)
        z += INV_LOGIT
        z *= n / (2 * INV_LOGIT)
        k = z.astype(np.intp)
        np.clip(k, 0, n - 1, out=k)
        s = u.take(k)
        np.subtract(pc, s, out=s)
        s *= scale.take(k)
        j = s.astype(np.intp)
        np.clip(j, 0, sizes.take(k) - 1, out=j)
        s -= j
        row = offsets.take(k)
        row += j
        # take gathers rows far faster than coef[...]; _horner's operations, in place
        c = coef.take(row, axis=0)
        x = np.multiply(c[:, 3], s)
        for i in (2, 1, 0):
            x += c[:, i]
            if i:
                x *= s
        # the law's exact inverse answers every target the cubics leave out
        miss = np.isnan(x) | (p != pc)
        if miss.any():
            x[miss] = self._exact_inverse(p[miss]) if self.ppf is None else self.ppf(p[miss])
        return x

    # -- lattice enumeration ------------------------------------------------

    def lattice_points(self, mass_cut: float = SUM_CUT) -> np.ndarray:
        """Integer support points, truncated once the omitted tail mass < mass_cut.

        Enumerates upward from a finite lower endpoint to the first k with
        sf(k) <= mass_cut, or downward from a finite upper endpoint to the
        last k with cdf(k - 1) < mass_cut, searching for that end within
        LATTICE_LIMIT points (_first_integer); raises SupportTooLarge past
        LATTICE_LIMIT points. No registry family has a doubly infinite
        lattice support.
        """
        if not self.is_lattice:
            raise UnsupportedKind("lattice_points requires an integer-lattice law")
        lo, hi = self.support.lower, self.support.upper
        if np.isinf(lo) and np.isinf(hi):
            raise UnsupportedKind("doubly infinite lattice support is not enumerable")
        # a NaN column value counts as past the cut
        if np.isinf(hi):
            hi = _first_integer(lambda k: ~(self.sf(k) > mass_cut), lo, lo + LATTICE_LIMIT)
        elif np.isinf(lo):
            lo = _first_integer(lambda k: ~(self.cdf(k) < mass_cut), hi - LATTICE_LIMIT, hi)
        first, last = round(lo), round(hi)
        if last - first + 1 > LATTICE_LIMIT:
            msg = f"lattice support exceeds {LATTICE_LIMIT} points at mass cut {mass_cut}"
            raise SupportTooLarge(msg)
        return np.arange(first, last + 1)

    def lattice_table(self) -> tuple[np.ndarray, ...]:
        """(points, pmf, cdf, sf) at the support enumerated to SUM_CUT, from
        one pmf pass: cdf is the running sum of the pmf from the first point,
        started from the mass below it, cdf(first - 1), and sf the running sum
        from the last point down, started from the mass above it, sf(last).
        Each column is its own running sum where that is at most 1/2, and the
        complement of the other column's elsewhere, so each keeps its relative
        accuracy in its own tail; no special function runs over the table, and
        the sums run in numpy's fixed order.

        Built once per law; points are floats and every array is read-only.
        """
        if "lattice" not in self._cache:
            pts = self.lattice_points(SUM_CUT).astype(float)
            f = np.asarray(self.pdf(pts), dtype=float)
            up = np.cumsum(np.append(float(self.cdf(pts[0] - 1.0)), f))[1:]
            down = np.cumsum(np.append(float(self.sf(pts[-1])), f[:0:-1]))[::-1]
            cdf, sf = np.where(up <= 0.5, up, 1.0 - down), np.where(down <= 0.5, down, 1.0 - up)
            self._cache["lattice"] = _read_only(pts, f, cdf, sf)
        return self._cache["lattice"]

    def _lattice_read(self, name: str, k: np.ndarray) -> np.ndarray:
        """pdf, cdf or sf, as `name` says, at integers k (floats): the column
        of lattice_table() inside the table, the law's own function only at
        points past its ends. Every lattice scan reads its grid's neighbours
        this way."""
        pts, *cols = self.lattice_table()
        col = cols[("pdf", "cdf", "sf").index(name)]
        i = k - pts[0]
        inside = (i >= 0) & (i < len(pts))
        out = col.take(np.where(inside, i, 0).astype(np.intp))
        if not inside.all():
            out[~inside] = getattr(self, name)(k[~inside])
        return out

    def lattice_tail(self, m: int, upper: bool) -> np.ndarray:
        """(mass, sum x f, sum x^2 f, sum S) over x > m if `upper`, else (mass,
        sum x f, sum x^2 f, sum F) over x < m: from tail_sums where the law
        carries them, as every registry lattice law and the combinators of
        them do, else mass from sf or cdf and the sums in blocks from m
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
        Each column is taken once per law and kept read-only beside its grid,
        so the scans of one law share it: on a continuous law by the law's
        function, on a lattice law from the rows of lattice_table() that the
        grid selects, with no law call."""
        with np.errstate(all="ignore"):
            xs = self.probe_grid()
            cols = []
            for name in which:
                key = ("grid", name)
                if key not in self._cache:
                    col = self._lattice_read(name, xs) if self.is_lattice else getattr(self, name)(xs)
                    self._cache[key] = _read_only(np.asarray(col, dtype=float))[0]
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

    def _table_rows(self, cols, ts: np.ndarray, width: int, off) -> list[np.ndarray]:
        """For each column of `cols`, lattice_table() columns, a row per integer
        t >= 0 of its values at pts[0] + j + t for j < width: the cells inside
        the table copied as one slice of the column, those past its top from
        off(k), which returns one array per column, called once in row order."""
        pts = self.lattice_table()[0]
        rows = [np.empty((len(ts), width)) for _ in cols]
        # row r holds the table's points t to hi[r] - 1 + t in columns 0 to hi[r] - 1
        hi = np.clip(len(pts) - ts, 0, width).astype(np.intp)
        for r in np.flatnonzero(hi):
            b, t = hi[r], int(ts[r])
            for row, col in zip(rows, cols):
                row[r, :b] = col[t : b + t]
        count = width - hi
        if count.any():
            r = np.repeat(np.arange(len(ts)), count)
            j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count) + hi[r]
            for row, v in zip(rows, off(pts[0] + j + ts[r])):
                row[r, j] = v
        return rows

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
        coefficients holds, in powers of s, Pi(y) = Pi(b_k) + h_k G_k(s) for
        y = b_k - h_k (1 - s), b_k the interval's right node, h_k its half-width
        and G_k int_s^1 of the interpolant of those sf values. G_k is taken in
        Legendre series first, then converted (_POWER). Every sum runs in
        numpy's fixed order (_dot), so the table's bits do not follow BLAS."""
        x, half = panel_nodes(nodes[:-1], nodes[1:])
        vals = np.asarray(self.sf(x.ravel()), dtype=float).reshape(x.shape)
        seg = np.append((vals * GL_W).sum(axis=-1) * half, 0.0)
        pi = np.cumsum(seg[::-1])[::-1]
        coef = _dot(_POWER, _dot(_ANTIDERIV, vals.T)) * half
        coef[0] += pi[1:]
        return _read_only(nodes, pi, coef)

    def _stop_loss_read(self, y: np.ndarray) -> np.ndarray:
        """Pi(y) of a continuous law from _stop_loss_nodes(), at points of any
        order: inside [first node, last node], one search for each point's node
        interval and one Horner pass over its power coefficients, with no call
        to the law; below the first node one panel of sf up to it; 0 past the
        last node; NaN at NaN."""
        y = np.asarray(y, dtype=float)
        nodes, pi, coef = self._stop_loss_nodes()
        # points outside the table take its end intervals' rows, then are replaced
        z = np.clip(y, nodes[0], nodes[-1])
        i = np.clip(np.searchsorted(nodes, z), 1, len(nodes) - 1) - 1
        left = nodes.take(i)
        s = (z - left) / (0.5 * (nodes.take(i + 1) - left)) - 1.0
        pz = coef[-1].take(i)
        for row in coef[-2::-1]:
            pz *= s
            pz += row.take(i)
        pz[y > nodes[-1]] = 0.0
        below = y < nodes[0]
        if below.any():
            pz[below] = pi[0] + panels(self.sf, y[below], nodes[0])
        return np.maximum(pz, 0.0, out=pz)

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

    def _outer_panels(self) -> tuple[np.ndarray, ...]:
        """(x, w, W, V): the panel nodes of each interval of _base_nodes(), one
        row per interval, w = pdf(x) times the rule's weight and half-width h,
        W the row sums of w, and V = h _PANEL_INT^T w per row, so that V . S(x
        + t) is sum w int_x^b S(u + t) du, b the interval's right node."""
        if "outer" not in self._cache:
            nodes = self._base_nodes()
            x, half = panel_nodes(nodes[:-1], nodes[1:])
            w = np.asarray(self.pdf(x), dtype=float) * (half[:, None] * GL_W)
            self._cache["outer"] = _read_only(x, w, w.sum(axis=1), _dot(w, _PANEL_INT) * half[:, None])
        return self._cache["outer"]

    def shifted_means(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """(E[S(X + t)], E[Pi(X + t)]) for each finite t >= 0 (else ValueError).

        Both kinds run t in blocks of CURVE_CELLS cells. Lattice laws (integer
        t) sum f(x) S(x + t) and f(x) Pi(x + t) over excess_table(), read by
        _excess_read(); one unbounded below raises UnsupportedKind, as its
        table omits mass below its first point (mean_excess_abs_diff reflects
        it). Continuous laws call sf once per block at the outer panel nodes x
        of _outer_panels() plus t, for sum w S, and read the stop-loss table
        only at each interval's right node b plus t, for E[Pi(X + t)] = sum W
        Pi(b + t) + sum V S: no cdf call, and every sum in numpy's fixed order.
        The table's extension into the tail serves any t (0 past its end). A
        base node interval inside which S(x + t) kinks, at upper - t or at
        break - t, is integrated afresh by one panel per piece. On an
        unbounded lower end the heads below the first node run as one adaptive
        batch per expectation, each scaled by its integrand there.
        """
        ts = np.asarray(ts, dtype=float)
        if not np.all((ts >= 0) & (ts < np.inf)):
            raise ValueError("shifted_means needs finite t >= 0")
        if self.is_lattice:
            if np.isinf(self.support.lower):
                raise UnsupportedKind(f"{self.label} is unbounded below: read its curve by mean_excess_abs_diff")
            pts, f, _, sf, pi = self.excess_table()
            step = max(1, CURVE_CELLS // len(pts))
            blocks = np.split(ts, range(step, len(ts), step))
            reads = (self._table_rows((sf, pi), t, len(pts), self._excess_read) for t in blocks)
            den, num = np.concatenate([[(f * s).sum(axis=-1), (f * p).sum(axis=-1)] for s, p in reads], axis=1)
            return den, num
        nodes = self._base_nodes()
        gs = (self.sf, self._stop_loss_read)
        x, w, wsum, v = self._outer_panels()
        a, b = nodes[:-1], nodes[1:]
        out = np.empty((2, len(ts)))
        step = max(1, CURVE_CELLS // x.size)
        for start in range(0, len(ts), step):
            t = ts[start : start + step, None]
            # node intervals that S(x + t) kinks inside, at break - t or
            # upper - t, are integrated afresh between those edges
            cuts = np.append(self.breaks, self.support.upper) - t
            inside = (a[:, None] < cuts[:, None]) & (cuts[:, None] < b[:, None])
            split = (b > cuts[:, -1:]) | inside.any(axis=-1)
            xt = (x + t[..., None]).reshape(-1, x.shape[1])
            keep = ~split.ravel() if split.any() else slice(None)  # a view, not a copy, when none splits
            s = np.zeros(xt.shape)
            s[keep] = np.asarray(self.sf(xt[keep].ravel()), dtype=float).reshape(-1, x.shape[1])
            s, ends = s.reshape(len(t), -1), np.where(split, 0.0, self._stop_loss_read(b + t))
            out[0, start : start + step] = (s * w.ravel()).sum(axis=1)
            out[1, start : start + step] = (ends * wsum).sum(axis=1) + (s * v.ravel()).sum(axis=1)
            for r in np.flatnonzero(split.any(axis=1)):
                edges = np.unique(np.concatenate([nodes, cuts[r]]))
                lo, up = edges[:-1], np.minimum(edges[1:], cuts[r, -1])
                k = np.searchsorted(nodes, lo, side="right") - 1
                fresh = (k >= 0) & (k < len(a)) & (lo < up)
                fresh[fresh] = split[r, k[fresh]]
                for j, g in enumerate(gs):
                    out[j, start + r] += np.sum(panels(lambda x: self.pdf(x) * g(x + t[r]), lo[fresh], up[fresh]))
        if np.isinf(self.support.lower):
            below = np.full(len(ts), -np.inf), np.full(len(ts), nodes[0])
            for j, g in enumerate(gs):
                # in units of the integrand at the first node, so the relative
                # tolerance, not EPSABS, ends each head however small it is
                c = self.pdf(nodes[0]) * g(nodes[0] + ts)
                c = np.where((0.0 < c) & (c < np.inf), c, 1.0)
                out[j] += c * integrate_batch(lambda x, k: self.pdf(x) * g(x + ts[k]) / c[k], *below)[0]
        return out[0], out[1]
