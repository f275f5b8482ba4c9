"""Combinators: affine maps, mixtures, truncation, and convolution.

Truncated laws carry their parent's analytic f/F/S divided by the
conditioning mass rather than re-quadratured values, so hazard identities
above/below the threshold hold to closed-form accuracy. Tail-side CDFs are
built from survival differences (and head-side survivals from CDF
differences) to avoid catastrophic cancellation deep in a tail. No
combinator maps a log density: every law's is the log of its pdf, which
`Distribution` takes.

Lattice combinators map their parents' `tail_sums`: a shift moves the
point the tail starts past, a reflection moves the tail to the other side,
a mixture adds its components' weighted tails, and a truncation keeps the
tail on the side it leaves open, divided by the conditioning mass.

A combinator passes on its parent's ppf only where the composed map is
exact to rounding: an affine map, and an upper truncation, whose quantile
is the parent's at mass * p. With it goes the parent's `ppf_iterative`, so
Monte Carlo draws the composed law by the same inverse as its parent. A
lower truncation's would be the parent's at 1 - mass * (1 - p), which keeps
no digit of p once the mass falls below 1e-16, so its quantiles, scan grids
and Monte Carlo draws read the certified inverse table, as do mixtures and
convolutions.
"""

from __future__ import annotations

import math

import numpy as np

from .dist import CONTINUOUS, LATTICE, ClosedForms, Distribution, Support
from .errors import (
    DegenerateScale,
    EmptyTail,
    MixedKinds,
    UnsupportedKind,
    WeightSumError,
)

LOWER = "lower"
UPPER = "upper"


def affine(d: Distribution, a: float, b: float) -> Distribution:
    """Law of a*X + b for finite a != 0 and finite b (else DegenerateScale).
    Lattice laws admit only |a| = 1 with integer b."""
    a = float(a)
    b = float(b)
    if a == 0 or not (math.isfinite(a) and math.isfinite(b)):
        raise DegenerateScale(f"affine map needs a finite nonzero scale and a finite shift, got a={a}, b={b}")
    if d.is_lattice and (abs(a) != 1 or b != round(b)):
        raise UnsupportedKind(
            "lattice affine maps are limited to |a| = 1 with integer b "
            "(unit spacing must be preserved)"
        )
    lo, hi = sorted((a * d.support.lower + b, a * d.support.upper + b))
    inv = lambda y: (np.asarray(y, float) - b) / a
    pdf = lambda y: d.pdf(inv(y)) / abs(a)
    if a > 0:
        cdf = lambda y: d.cdf(inv(y))
        sfn = lambda y: d.sf(inv(y))
        ppf = (lambda p: a * d.ppf(p) + b) if d.ppf is not None else None
    elif d.is_lattice:
        # P(b - X <= y) = P(X >= b - floor(y)) = S(b - floor(y) - 1)
        cdf = lambda y: d.sf(inv(np.floor(np.asarray(y, float)) + 1))
        sfn = lambda y: d.cdf(inv(np.floor(np.asarray(y, float)) + 1))
        ppf = None
    else:
        cdf = lambda y: d.sf(inv(y))
        sfn = lambda y: d.cdf(inv(y))
        ppf = (lambda p: a * d.ppf(1.0 - np.asarray(p, float)) + b) if d.ppf is not None else None
    return Distribution(
        support=Support(lo, hi, d.support.kind), pdf=pdf, cdf=cdf, sf=sfn,
        ppf=ppf, ppf_iterative=d.ppf_iterative,
        breaks=tuple(sorted(a * v + b for v in d.breaks)),
        tail_sums=_affine_tails(d, int(a), int(b)) if d.is_lattice else None,
        closed=_affine_closed(d.closed, a, b),
        label=f"affine({d.label},a={a:g},b={b:g})",
        meta={"construct": "affine", "a": a, "b": b, "parent": d.meta},
    )


def _affine_closed(c: ClosedForms, a: float, b: float) -> ClosedForms:
    return ClosedForms(
        mean=None if c.mean is None else a * c.mean + b,
        sd=None if c.sd is None else abs(a) * c.sd,
        gmd=None if c.gmd is None else abs(a) * c.gmd,
    )


def _affine_tails(d: Distribution, a: int, b: int):
    """tail_sums of the lattice law a X + b, a = +-1, from the parent's."""
    if d.tail_sums is None:
        return None
    upper = bool(np.isinf(d.support.upper))

    def tails(m: int) -> tuple[float, float, float, float]:
        # a X + b passes m where X passes a (m - b); reflected, the sum of
        # S past that point becomes the sum of F before m, which also
        # counts F at m - 1, the mass past the point
        mass, t1, t2, t_s = d.tail_sums(a * (m - b))
        edge = 0.0 if a == 1 else (mass if upper else -mass)
        return mass, a * t1 + b * mass, t2 + 2 * a * b * t1 + b * b * mass, t_s + edge

    return tails


def mix(components: list[Distribution], weights: list[float]) -> Distribution:
    """Finite mixture with the stated weights, which must be finite,
    nonnegative and sum to 1; support is the union hull. A continuous mixture
    breaks at its components' finite support ends and breaks inside that
    hull."""
    if len(components) != len(weights) or not components:
        raise WeightSumError("components and weights must be equal-length and nonempty")
    w = np.asarray(weights, dtype=float)
    # stated as what must hold, so that a NaN weight, which fails every
    # comparison, is refused; an infinite one fails the sum
    if not (np.all(w >= 0) and abs(float(w.sum()) - 1.0) <= 1e-12):
        raise WeightSumError(f"weights must be nonnegative and sum to 1, got {weights}")
    kinds = {c.support.kind for c in components}
    if len(kinds) > 1:
        raise MixedKinds(f"mixture components must share a support kind, got {kinds}")
    kind = kinds.pop()
    lo = min(c.support.lower for c in components)
    hi = max(c.support.upper for c in components)

    def combine(attr):
        fns = [getattr(c, attr) for c in components]

        def f(x):
            x = np.asarray(x, float)
            acc = w[0] * np.asarray(fns[0](x), float)
            for wi, fn in zip(w[1:], fns[1:]):
                if wi != 0.0:
                    acc = acc + wi * np.asarray(fn(x), float)
            return acc

        return f

    closed = ClosedForms()
    means = [c.closed.mean for c in components]
    sds = [c.closed.sd for c in components]
    if all(m is not None for m in means):
        mean = float(np.dot(w, means))
        sd = None
        if all(s is not None for s in sds):
            # about the mixture mean: the raw second moment less mean^2 cancels
            sd = math.sqrt(float(np.dot(w, [s * s + (m - mean) ** 2 for s, m in zip(sds, means)])))
        closed = ClosedForms(mean=mean, sd=sd)
    label = "mix(" + ",".join(f"{wi:g}*{c.label}" for wi, c in zip(w, components)) + ")"
    tails = None
    if kind == LATTICE and any(c.tail_sums is not None for c in components):
        upper = bool(np.isinf(hi))

        def tails(m: int) -> np.ndarray:
            return sum(wi * c.lattice_tail(m, upper) for wi, c in zip(w, components) if wi != 0.0)

    breaks = ()
    if kind == CONTINUOUS:
        ends = {v for c in components for v in (c.support.lower, c.support.upper, *c.breaks)}
        breaks = tuple(sorted(v for v in ends if lo < v < hi))
    return Distribution(
        support=Support(lo, hi, kind),
        pdf=combine("pdf"), cdf=combine("cdf"), sf=combine("sf"),
        closed=closed, label=label, breaks=breaks, tail_sums=tails,
        meta={"construct": "mix", "weights": list(map(float, w)),
              "parents": [c.meta for c in components]},
    )


def truncate(d: Distribution, side: str, u: float) -> Distribution:
    """Law of (X | X > u) for side='lower' or (X | X <= u) for side='upper'.

    The kept side's own tail function, sf above u or cdf up to u, is the
    parent's divided by the mass. The other is a difference of the parent's
    tail functions divided by the mass: where the mass is at most 1/2, mass
    minus the own function, both small deep in the parent's tail; above 1/2,
    where those two are both near 1, the parent's other tail function less
    its value at u, (F(x) - F(u)) / S(u) for a lower cut in the parent's
    lower tail and (S(x) - S(u)) / F(u) for an upper cut in its upper tail.
    Only the upper side keeps a ppf (module docstring). A u outside the
    parent's support keeps the parent's end, so the law is the parent's and
    quadrature never runs past that end.
    """
    if side not in (LOWER, UPPER):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    u = float(u)
    lower = side == LOWER
    own, other = (d.sf, d.cdf) if lower else (d.cdf, d.sf)
    mass = float(own(u))
    if not mass > 1e-300:
        raise EmptyTail(f"P(X {'>' if lower else '<='} {u}) = {mass} is numerically zero for {d.label}")
    cut = float(math.floor(u)) if d.is_lattice else u
    # a cut outside the parent's support keeps the parent's end
    if lower:
        lo, hi = max(math.floor(u) + 1 if d.is_lattice else u, d.support.lower), d.support.upper
    else:
        lo, hi = d.support.lower, min(cut, d.support.upper)
    # kept: the points the law keeps; past: where scaled is already 1 and rest 0
    kept = (lambda x: x > cut) if lower else (lambda x: x <= cut)
    past = (lambda x: x <= cut) if lower else (lambda x: x >= cut)

    def pdf(x):
        x = np.asarray(x, float)
        return np.where(kept(x), d.pdf(x) / mass, 0.0)

    def scaled(x):
        x = np.asarray(x, float)
        return np.where(past(x), 1.0, np.clip(own(x) / mass, 0.0, 1.0))

    if mass <= 0.5:
        diff = lambda x: mass - own(x)
    else:
        at_u = float(other(u))
        diff = lambda x: other(x) - at_u

    def rest(x):
        x = np.asarray(x, float)
        return np.where(past(x), 0.0, np.clip(diff(x) / mass, 0.0, 1.0))

    ppf = None
    if not lower and d.ppf is not None and not d.is_lattice:
        ppf = lambda p: d.ppf(mass * np.asarray(p, float))
    tails = None
    if d.tail_sums is not None and np.isinf(hi if lower else lo):
        tails = lambda m: tuple(v / mass for v in d.tail_sums(m))
    return Distribution(
        support=Support(lo, hi, d.support.kind),
        pdf=pdf, cdf=rest if lower else scaled, sf=scaled if lower else rest,
        ppf=ppf, ppf_iterative=ppf is not None and d.ppf_iterative, tail_sums=tails,
        breaks=tuple(v for v in d.breaks if lo < v < hi),
        label=f"truncate({d.label},{side},u={u:g})",
        meta={"construct": "truncate", "side": side, "u": u, "parent": d.meta},
    )


CONVOLVE_NODES = 512


def convolve(d1: Distribution, d2: Distribution) -> Distribution:
    """Law of X1 + X2 for independent continuous X1, X2.

    Substitutes a registry closed form when one is known (gamma + gamma with
    unit scale, normal + normal); otherwise evaluates the convolution
    integral over the 1e-12-quantile range of d2 with a fixed 512-node
    Gauss-Legendre rule, which the tests pin against closed forms. cdf and sf
    are the rule's two tails divided by their sum, so cdf + sf = 1. The
    support is the sum of the operands' supports.
    """
    if d1.is_lattice or d2.is_lattice:
        raise UnsupportedKind("convolve is defined for continuous laws only")
    known = _convolve_closed(d1, d2)
    if known is not None:
        return known
    return _convolve_numeric(d1, d2)


def _convolve_closed(d1: Distribution, d2: Distribution) -> Distribution | None:
    from .families import make_distribution, FamilySpec

    f1, f2 = d1.meta.get("family"), d2.meta.get("family")
    if f1 == f2 == "gamma":
        a = d1.meta["params"]["alpha"] + d2.meta["params"]["alpha"]
        return make_distribution(FamilySpec("gamma", {"alpha": a}))
    if f1 == f2 == "normal":
        p1, p2 = d1.meta["params"], d2.meta["params"]
        mu = p1["mu"] + p2["mu"]
        sigma = math.hypot(p1["sigma"], p2["sigma"])
        return make_distribution(FamilySpec("normal", {"mu": mu, "sigma": sigma}))
    return None


def _convolve_numeric(d1: Distribution, d2: Distribution) -> Distribution:
    eps = 1e-12
    lo1, hi1 = d1.support.lower, d1.support.upper
    t_lo = float(d2.quantile(eps)) if not np.isfinite(d2.support.lower) else d2.support.lower
    t_hi = float(d2.quantile(1 - eps)) if not np.isfinite(d2.support.upper) else d2.support.upper
    std_x, std_w = np.polynomial.legendre.leggauss(CONVOLVE_NODES)

    def rule(seg, kinds):
        # integrate g1(s - t) f2(t) dt for each g1 in kinds over the per-s
        # window where g1 is smooth; outside the window F1/S1 are constant 0
        # or 1 and fold into closed head/tail terms, so the rule never
        # straddles a support edge
        l = np.maximum(t_lo, seg - hi1) if np.isfinite(hi1) else np.full_like(seg, t_lo)
        u = np.minimum(t_hi, seg - lo1) if np.isfinite(lo1) else np.full_like(seg, t_hi)
        u = np.maximum(u, l)
        half = 0.5 * (u - l)
        mid = 0.5 * (u + l)
        nodes = mid[:, None] + half[:, None] * std_x[None, :]
        wts = half[:, None] * std_w[None, :]
        f2v = np.asarray(d2.pdf(nodes), float)
        outs = []
        for kind in kinds:
            fn = {"pdf": d1.pdf, "cdf": d1.cdf, "sf": d1.sf}[kind]
            out = np.sum(wts * f2v * np.asarray(fn(seg[:, None] - nodes), float), axis=1)
            if kind == "cdf" and np.isfinite(hi1):
                out += np.where(l > t_lo, np.asarray(d2.cdf(l), float), 0.0)
            if kind == "sf" and np.isfinite(lo1):
                out += np.where(u < t_hi, np.asarray(d2.sf(u), float), 0.0)
            outs.append(out)
        return outs

    def tails(seg):
        # the rule omits 1e-12 of d2 on either side, so its two tails sum to
        # 1 - 2e-12: each divided by their sum keeps its relative accuracy
        # and makes cdf + sf = 1 without the jump that taking one tail as
        # the complement of the other leaves where the two swap roles
        c, q = rule(seg, ("cdf", "sf"))
        return c / (c + q), q / (c + q)

    def blocked(fn):
        def g(s):
            s = np.asarray(s, float)
            flat = s.ravel()
            out = np.empty_like(flat)
            block = max(1, int(2e6 / CONVOLVE_NODES))
            for i in range(0, flat.size, block):
                out[i : i + block] = fn(flat[i : i + block])
            return out[0] if s.ndim == 0 else out.reshape(s.shape)

        return g

    # the sum lives on the sum of the supports, not on d2's 1e-12 cut
    lo = d1.support.lower + d2.support.lower
    hi = d1.support.upper + d2.support.upper
    closed = ClosedForms()
    if d1.closed.mean is not None and d2.closed.mean is not None:
        sd = None
        if d1.closed.sd is not None and d2.closed.sd is not None:
            sd = math.hypot(d1.closed.sd, d2.closed.sd)
        closed = ClosedForms(mean=d1.closed.mean + d2.closed.mean, sd=sd)
    return Distribution(
        support=Support(lo, hi, CONTINUOUS),
        pdf=blocked(lambda seg: rule(seg, ("pdf",))[0]),
        cdf=blocked(lambda seg: tails(seg)[0]),
        sf=blocked(lambda seg: tails(seg)[1]),
        closed=closed,
        label=f"convolve({d1.label},{d2.label})",
        meta={"construct": "convolve", "parents": [d1.meta, d2.meta]},
    )
