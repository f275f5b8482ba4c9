"""Combinators: affine maps, mixtures, truncation, and convolution.

Truncated laws carry their parent's analytic f/F/S divided by the
conditioning mass rather than re-quadratured values, so hazard identities
above/below the threshold hold to closed-form accuracy. Tail-side CDFs are
built from survival differences (and head-side survivals from CDF
differences) to avoid catastrophic cancellation deep in a tail.
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
    """Law of a*X + b. Lattice laws admit only |a| = 1 with integer b."""
    if a == 0:
        raise DegenerateScale("affine scale a must be nonzero")
    a = float(a)
    b = float(b)
    if d.is_lattice:
        if abs(a) != 1 or b != round(b):
            raise UnsupportedKind(
                "lattice affine maps are limited to |a| = 1 with integer b "
                "(unit spacing must be preserved)"
            )
        return _affine_lattice(d, int(a), int(b))
    lo, hi = d.support.lower, d.support.upper
    support = Support(a * lo + b, a * hi + b, CONTINUOUS) if a > 0 else Support(
        a * hi + b, a * lo + b, CONTINUOUS
    )
    inv = lambda y: (np.asarray(y, float) - b) / a
    pdf = lambda y: d.pdf(inv(y)) / abs(a)
    logpdf = None
    if d.logpdf is not None:
        logpdf = lambda y: d.log_pdf(inv(y)) - math.log(abs(a))
    if a > 0:
        cdf = lambda y: d.cdf(inv(y))
        sfn = lambda y: d.sf(inv(y))
        ppf = (lambda p: a * d.ppf(p) + b) if d.ppf is not None else None
    else:
        cdf = lambda y: d.sf(inv(y))
        sfn = lambda y: d.cdf(inv(y))
        ppf = (lambda p: a * d.ppf(1.0 - np.asarray(p, float)) + b) if d.ppf is not None else None
    return Distribution(
        support=support, pdf=pdf, cdf=cdf, sf=sfn, logpdf=logpdf, ppf=ppf,
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


def _affine_lattice(d: Distribution, a: int, b: int) -> Distribution:
    if a == 1:
        support = Support(d.support.lower + b, d.support.upper + b, LATTICE)
        pdf = lambda y: d.pdf(np.asarray(y, float) - b)
        cdf = lambda y: d.cdf(np.asarray(y, float) - b)
        sfn = lambda y: d.sf(np.asarray(y, float) - b)
    else:  # a == -1: P(b - X <= y) = P(X >= b - floor(y)) = S(b - floor(y) - 1)
        support = Support(b - d.support.upper, b - d.support.lower, LATTICE)
        pdf = lambda y: d.pdf(b - np.asarray(y, float))
        cdf = lambda y: d.sf(b - np.floor(np.asarray(y, float)) - 1)
        sfn = lambda y: d.cdf(b - np.floor(np.asarray(y, float)) - 1)
    return Distribution(
        support=support, pdf=pdf, cdf=cdf, sf=sfn,
        closed=_affine_closed(d.closed, a, b),
        label=f"affine({d.label},a={a:g},b={b:g})",
        meta={"construct": "affine", "a": a, "b": b, "parent": d.meta},
    )


def mix(components: list[Distribution], weights: list[float]) -> Distribution:
    """Finite mixture with the stated weights; support is the union hull."""
    if len(components) != len(weights) or not components:
        raise WeightSumError("components and weights must be equal-length and nonempty")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-12:
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
            second = float(np.dot(w, [s * s + m * m for s, m in zip(sds, means)]))
            sd = math.sqrt(max(second - mean * mean, 0.0))
        closed = ClosedForms(mean=mean, sd=sd)
    label = "mix(" + ",".join(f"{wi:g}*{c.label}" for wi, c in zip(w, components)) + ")"
    return Distribution(
        support=Support(lo, hi, kind),
        pdf=combine("pdf"), cdf=combine("cdf"), sf=combine("sf"),
        closed=closed, label=label,
        meta={"construct": "mix", "weights": list(map(float, w)),
              "parents": [c.meta for c in components]},
    )


def truncate(d: Distribution, side: str, u: float) -> Distribution:
    """Law of (X | X > u) for side='lower' or (X | X <= u) for side='upper'."""
    if side not in (LOWER, UPPER):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    u = float(u)
    if side == LOWER:
        return _truncate_lower(d, u)
    return _truncate_upper(d, u)


def _truncate_lower(d: Distribution, u: float) -> Distribution:
    mass = float(d.sf(u))
    if not mass > 1e-300:
        raise EmptyTail(f"P(X > {u}) = {mass} is numerically zero for {d.label}")
    u_eff = float(math.floor(u)) if d.is_lattice else u
    lo = math.floor(u) + 1 if d.is_lattice else u
    hi = d.support.upper

    def pdf(x):
        x = np.asarray(x, float)
        return np.where(x > u_eff, d.pdf(x) / mass, 0.0)

    def sfn(x):
        x = np.asarray(x, float)
        return np.where(x <= u_eff, 1.0, np.clip(d.sf(x) / mass, 0.0, 1.0))

    def cdf(x):
        # survival difference keeps relative accuracy deep in the tail
        x = np.asarray(x, float)
        return np.where(x <= u_eff, 0.0, np.clip((mass - d.sf(x)) / mass, 0.0, 1.0))

    logpdf = None
    if d.logpdf is not None:
        lm = math.log(mass)
        logpdf = lambda x: np.where(
            np.asarray(x, float) > u_eff, d.log_pdf(x) - lm, -np.inf
        )
    ppf = None
    if d.ppf is not None and not d.is_lattice:
        ppf = lambda p: d.ppf(1.0 - mass * (1.0 - np.asarray(p, float)))
    tails = None
    if d.tail_sums is not None:
        # deep-tail remainders scale by the conditioning mass; the omitted
        # sum of S^2 terms in the F*S remainder is below S(M) * remainder
        def tails(m: int) -> tuple[float, float, float]:
            t1, t2, t_sf = d.tail_sums(m)
            return t1 / mass, t2 / mass, t_sf / mass

    return Distribution(
        support=Support(lo, hi, d.support.kind),
        pdf=pdf, cdf=cdf, sf=sfn, logpdf=logpdf, ppf=ppf, tail_sums=tails,
        label=f"truncate({d.label},lower,u={u:g})",
        meta={"construct": "truncate", "side": LOWER, "u": u, "parent": d.meta},
    )


def _truncate_upper(d: Distribution, u: float) -> Distribution:
    mass = float(d.cdf(u))
    if not mass > 1e-300:
        raise EmptyTail(f"P(X <= {u}) = {mass} is numerically zero for {d.label}")
    hi = float(math.floor(u)) if d.is_lattice else u
    lo = d.support.lower

    def pdf(x):
        x = np.asarray(x, float)
        return np.where(x <= hi, d.pdf(x) / mass, 0.0)

    def cdf(x):
        x = np.asarray(x, float)
        return np.where(x >= hi, 1.0, np.clip(d.cdf(x) / mass, 0.0, 1.0))

    def sfn(x):
        # CDF difference: both terms are small and accurate in a deep head
        x = np.asarray(x, float)
        return np.where(x >= hi, 0.0, np.clip((mass - d.cdf(x)) / mass, 0.0, 1.0))

    logpdf = None
    if d.logpdf is not None:
        lm = math.log(mass)
        logpdf = lambda x: np.where(
            np.asarray(x, float) <= hi, d.log_pdf(x) - lm, -np.inf
        )
    ppf = None
    if d.ppf is not None and not d.is_lattice:
        ppf = lambda p: d.ppf(mass * np.asarray(p, float))
    return Distribution(
        support=Support(lo, hi, d.support.kind),
        pdf=pdf, cdf=cdf, sf=sfn, logpdf=logpdf, ppf=ppf,
        label=f"truncate({d.label},upper,u={u:g})",
        meta={"construct": "truncate", "side": UPPER, "u": u, "parent": d.meta},
    )


CONVOLVE_NODES = 512


def convolve(d1: Distribution, d2: Distribution) -> Distribution:
    """Law of X1 + X2 for independent continuous X1, X2.

    Substitutes a registry closed form when one is known (gamma + gamma with
    unit scale, normal + normal); otherwise evaluates the convolution
    integral over the 1e-12-quantile range of d2 with a fixed 512-node
    Gauss-Legendre rule, which the tests pin against closed forms.
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

    def mixed(kind):
        # integrate g1(s - t) f2(t) dt over the per-s window where g1 is
        # smooth; outside the window F1/S1 are constant 0 or 1 and fold into
        # closed head/tail terms, so the rule never straddles a support edge
        fn = {"pdf": d1.pdf, "cdf": d1.cdf, "sf": d1.sf}[kind]

        def block_eval(seg):
            l = np.maximum(t_lo, seg - hi1) if np.isfinite(hi1) else np.full_like(seg, t_lo)
            u = np.minimum(t_hi, seg - lo1) if np.isfinite(lo1) else np.full_like(seg, t_hi)
            u = np.maximum(u, l)
            half = 0.5 * (u - l)
            mid = 0.5 * (u + l)
            nodes = mid[:, None] + half[:, None] * std_x[None, :]
            wts = half[:, None] * std_w[None, :]
            vals = np.asarray(fn(seg[:, None] - nodes), float)
            f2v = np.asarray(d2.pdf(nodes), float)
            out = np.sum(wts * f2v * vals, axis=1)
            if kind == "cdf" and np.isfinite(hi1):
                out += np.where(l > t_lo, np.asarray(d2.cdf(l), float), 0.0)
            if kind == "sf" and np.isfinite(lo1):
                out += np.where(u < t_hi, np.asarray(d2.sf(u), float), 0.0)
            return out

        def g(s):
            s = np.asarray(s, float)
            flat = np.atleast_1d(s).astype(float)
            out = np.empty_like(flat)
            block = max(1, int(2e6 / CONVOLVE_NODES))
            for i in range(0, flat.size, block):
                out[i : i + block] = block_eval(flat[i : i + block])
            return out[0] if s.ndim == 0 else out.reshape(s.shape)

        return g

    lo = d1.support.lower + t_lo if np.isfinite(d1.support.lower) else -np.inf
    hi = d1.support.upper + t_hi if np.isfinite(d1.support.upper) else np.inf
    closed = ClosedForms()
    if d1.closed.mean is not None and d2.closed.mean is not None:
        sd = None
        if d1.closed.sd is not None and d2.closed.sd is not None:
            sd = math.hypot(d1.closed.sd, d2.closed.sd)
        closed = ClosedForms(mean=d1.closed.mean + d2.closed.mean, sd=sd)
    return Distribution(
        support=Support(lo, hi, CONTINUOUS),
        pdf=mixed("pdf"), cdf=mixed("cdf"), sf=mixed("sf"),
        closed=closed,
        label=f"convolve({d1.label},{d2.label})",
        meta={"construct": "convolve", "parents": [d1.meta, d2.meta]},
    )
