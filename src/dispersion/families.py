"""Registry of the distribution families used throughout the package.

Each builder returns a Distribution whose pdf/cdf/sf are mutually
consistent closed-form evaluations (no adaptive quadrature inside the
bundle: only the erfi survival functions above the median are one fixed
Gauss-Legendre panel of the density), with closed-form moments attached
only where a source formula exists. Survival convention in both kinds is
P(X > x).

Family-spec strings parse as ``family:name=value,name=value``, e.g.
``gpd:alpha=0.25`` or ``normal-mix:sigma1=0.5,sigma2=2,q=0.75``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .dist import CONTINUOUS, LATTICE, ClosedForms, Distribution, Support
from .errors import ParamOutOfDomain, ParseError, UnknownFamily
from .numerics import panels

SQRT_PI = math.sqrt(math.pi)
REQUIRED = object()


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus a parameter record."""

    family: str
    params: dict[str, float] = field(default_factory=dict)

    def label(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.family}({inner})"


def parse_family_spec(text: str, allow_placeholder: bool = False) -> FamilySpec:
    """Parse ``family:k=v,k=v``; with allow_placeholder, ``k=_`` maps to NaN."""
    text = text.strip()
    if not text:
        raise ParseError("empty family spec")
    name, _, rest = text.partition(":")
    name = name.strip()
    if name not in FAMILIES:
        raise UnknownFamily(f"unknown family {name!r}; see list-families")
    params: dict[str, float] = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            key = key.strip()
            val = val.strip()
            if not eq or not key or not val:
                raise ParseError(f"malformed parameter assignment {item!r}")
            if val == "_":
                if not allow_placeholder:
                    raise ParseError("placeholder '_' is only valid in sweep specs")
                params[key] = math.nan
            else:
                try:
                    params[key] = float(val)
                except ValueError:
                    raise ParseError(f"non-numeric value in {item!r}") from None
    return FamilySpec(name, params)


def _check(family: str, name: str, value: float, ok: bool, legal: str) -> float:
    if not (np.isfinite(value) and ok):
        raise ParamOutOfDomain(family, name, value, legal)
    return float(value)


def _resolve_params(spec: FamilySpec) -> dict[str, float]:
    info = FAMILIES[spec.family]
    out: dict[str, float] = {}
    for pname, default in info["params"].items():
        if pname in spec.params:
            out[pname] = spec.params[pname]
        elif default is REQUIRED:
            raise ParseError(f"{spec.family}: missing required parameter {pname!r}")
        else:
            out[pname] = default
    unknown = set(spec.params) - set(info["params"])
    if unknown:
        raise ParseError(
            f"{spec.family}: unknown parameter(s) {sorted(unknown)}; "
            f"expected {sorted(info['params'])}"
        )
    return out


def make_distribution(spec: FamilySpec | str) -> Distribution:
    """Build the Distribution for a family spec (string or record)."""
    if isinstance(spec, str):
        spec = parse_family_spec(spec)
    if spec.family not in FAMILIES:
        raise UnknownFamily(f"unknown family {spec.family!r}")
    params = _resolve_params(spec)
    full = FamilySpec(spec.family, params)
    d = FAMILIES[spec.family]["build"](**params)
    d.label = full.label()
    d.meta = {"family": spec.family, "params": params}
    return d


def list_families() -> list[dict]:
    """Metadata for every registry family (name, kind, parameters, domains)."""
    return [
        {
            "family": name,
            "kind": info["kind"],
            "params": {p: ("required" if d is REQUIRED else d) for p, d in info["params"].items()},
            "domain": info["domain"],
        }
        for name, info in FAMILIES.items()
    ]


# ---------------------------------------------------------------------------
# continuous families
# ---------------------------------------------------------------------------


def _gamma(alpha: float) -> Distribution:
    a = _check("gamma", "alpha", alpha, alpha > 0, "alpha > 0")

    def pdf(x):
        x = np.asarray(x, float)
        with np.errstate(all="ignore"):
            v = np.exp((a - 1) * np.log(x) - x - special.gammaln(a))
        return np.where(x > 0, v, np.where((x == 0) & (a < 1), np.inf, 0.0))

    def logpdf(x):
        x = np.asarray(x, float)
        with np.errstate(all="ignore"):
            return np.where(x > 0, (a - 1) * np.log(x) - x - special.gammaln(a), -np.inf)

    cdf = lambda x: special.gammainc(a, np.maximum(np.asarray(x, float), 0.0))
    sfn = lambda x: special.gammaincc(a, np.maximum(np.asarray(x, float), 0.0))
    ppf = lambda p: special.gammaincinv(a, p)
    return Distribution(
        support=Support(0.0, np.inf, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, logpdf=logpdf, ppf=ppf,
        closed=ClosedForms(mean=a, sd=math.sqrt(a)),
        label=f"gamma(alpha={a:g})",
    )


def _weibull(alpha: float) -> Distribution:
    a = _check("weibull", "alpha", alpha, alpha > 0, "alpha > 0")

    def pdf(x):
        x = np.asarray(x, float)
        with np.errstate(all="ignore"):
            v = a * x ** (a - 1) * np.exp(-(x**a))
        edge = np.inf if a < 1 else (1.0 if a == 1 else 0.0)
        return np.where(x > 0, v, np.where(x == 0, edge, 0.0))

    def logpdf(x):
        x = np.asarray(x, float)
        with np.errstate(all="ignore"):
            return np.where(x > 0, np.log(a) + (a - 1) * np.log(x) - x**a, -np.inf)

    def cdf(x):
        x = np.maximum(np.asarray(x, float), 0.0)
        return -np.expm1(-(x**a))

    def sfn(x):
        x = np.maximum(np.asarray(x, float), 0.0)
        return np.exp(-(x**a))

    ppf = lambda p: (-np.log1p(-np.asarray(p, float))) ** (1.0 / a)
    g1 = special.gamma(1 + 1 / a)
    g2 = special.gamma(1 + 2 / a)
    return Distribution(
        support=Support(0.0, np.inf, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, logpdf=logpdf, ppf=ppf,
        closed=ClosedForms(
            mean=g1,
            sd=math.sqrt(g2 - g1 * g1),
            gmd=2 * (1 - 2 ** (-1 / a)) * g1,
        ),
        label=f"weibull(alpha={a:g})",
    )


def _gpd(alpha: float) -> Distribution:
    a = _check("gpd", "alpha", alpha, 0 <= alpha < 0.5, "0 <= alpha < 1/2 (finite SD)")
    # below 1e-20 the shape term a*x/2 of the log-survival is under half an
    # ulp wherever the tail has not underflowed, while 1/a overflows for
    # subnormal a: evaluate such a law as the exponential it equals
    if a < 1e-20:
        a = 0.0

    def sfn(x):
        x = np.maximum(np.asarray(x, float), 0.0)
        if a == 0:
            return np.exp(-x)
        return np.exp(-np.log1p(a * x) / a)

    def cdf(x):
        x = np.maximum(np.asarray(x, float), 0.0)
        if a == 0:
            return -np.expm1(-x)
        return -np.expm1(-np.log1p(a * x) / a)

    def pdf(x):
        x = np.asarray(x, float)
        with np.errstate(all="ignore"):
            v = np.exp(-x) if a == 0 else np.exp(-(1 / a + 1) * np.log1p(a * x))
        return np.where(x >= 0, v, 0.0)

    def logpdf(x):
        x = np.asarray(x, float)
        with np.errstate(all="ignore"):
            v = -x if a == 0 else -(1 / a + 1) * np.log1p(a * x)
        return np.where(x >= 0, v, -np.inf)

    def ppf(p):
        p = np.asarray(p, float)
        if a == 0:
            return -np.log1p(-p)
        return np.expm1(-a * np.log1p(-p)) / a

    return Distribution(
        support=Support(0.0, np.inf, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, logpdf=logpdf, ppf=ppf,
        closed=ClosedForms(
            mean=1 / (1 - a),
            sd=1 / ((1 - a) * math.sqrt(1 - 2 * a)),
            gmd=2 / ((1 - a) * (2 - a)),
        ),
        label=f"gpd(alpha={alpha:g})",
    )


def _normal(mu: float = 0.0, sigma: float = 1.0) -> Distribution:
    s = _check("normal", "sigma", sigma, sigma > 0, "sigma > 0")
    m = float(mu)
    z = lambda x: (np.asarray(x, float) - m) / s
    pdf = lambda x: np.exp(-0.5 * z(x) ** 2) / (s * math.sqrt(2 * math.pi))
    logpdf = lambda x: -0.5 * z(x) ** 2 - math.log(s * math.sqrt(2 * math.pi))
    cdf = lambda x: special.ndtr(z(x))
    sfn = lambda x: special.ndtr(-z(x))
    ppf = lambda p: m + s * special.ndtri(p)
    return Distribution(
        support=Support(-np.inf, np.inf, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, logpdf=logpdf, ppf=ppf,
        closed=ClosedForms(mean=m, sd=s, gmd=2 * s / SQRT_PI),
        label=f"normal(mu={m:g},sigma={s:g})",
    )


def _beta(alpha: float, beta: float = 1.0) -> Distribution:
    a = _check("beta", "alpha", alpha, alpha > 0, "alpha > 0")
    b = _check("beta", "beta", beta, beta > 0, "beta > 0")
    lnB = special.gammaln(a) + special.gammaln(b) - special.gammaln(a + b)

    def pdf(x):
        x = np.asarray(x, float)
        inside = (x > 0) & (x < 1)
        with np.errstate(all="ignore"):
            v = np.exp((a - 1) * np.log(x) + (b - 1) * np.log1p(-x) - lnB)
        edge = np.where(((x == 0) & (a < 1)) | ((x == 1) & (b < 1)), np.inf, 0.0)
        return np.where(inside, v, edge)

    def logpdf(x):
        x = np.asarray(x, float)
        with np.errstate(all="ignore"):
            return np.where(
                (x > 0) & (x < 1),
                (a - 1) * np.log(x) + (b - 1) * np.log1p(-x) - lnB,
                -np.inf,
            )

    xc = lambda x: np.clip(np.asarray(x, float), 0.0, 1.0)
    cdf = lambda x: special.betainc(a, b, xc(x))
    sfn = lambda x: special.betaincc(a, b, xc(x))
    ppf = lambda p: special.betaincinv(a, b, p)
    closed = ClosedForms()
    if b == 1.0:
        closed = ClosedForms(
            mean=a / (a + 1),
            sd=math.sqrt(a / ((a + 1) ** 2 * (a + 2))),
            gmd=2 * a / ((a + 1) * (2 * a + 1)),
        )
    return Distribution(
        support=Support(0.0, 1.0, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, logpdf=logpdf, ppf=ppf, closed=closed,
        label=f"beta(alpha={a:g},beta={b:g})",
    )


def _logistic() -> Distribution:
    pdf = lambda x: special.expit(np.asarray(x, float)) * special.expit(-np.asarray(x, float))
    logpdf = lambda x: -np.abs(np.asarray(x, float)) - 2 * np.log1p(np.exp(-np.abs(np.asarray(x, float))))
    cdf = lambda x: special.expit(np.asarray(x, float))
    sfn = lambda x: special.expit(-np.asarray(x, float))
    ppf = lambda p: np.log(np.asarray(p, float)) - np.log1p(-np.asarray(p, float))
    return Distribution(
        support=Support(-np.inf, np.inf, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, logpdf=logpdf, ppf=ppf,
        closed=ClosedForms(mean=0.0, sd=math.pi / math.sqrt(3), gmd=2.0),
        label="logistic",
    )


def _erf_hazard() -> Distribution:
    # survival exp(-sqrt(pi)/2 * erf(x) - x) on [0, inf); hazard exp(-x^2) + 1
    def sfn(x):
        x = np.maximum(np.asarray(x, float), 0.0)
        return np.exp(-0.5 * SQRT_PI * special.erf(x) - x)

    def pdf(x):
        x = np.asarray(x, float)
        return np.where(x >= 0, (np.exp(-np.asarray(x, float) ** 2) + 1) * sfn(x), 0.0)

    def logpdf(x):
        x = np.asarray(x, float)
        with np.errstate(all="ignore"):
            return np.where(
                x >= 0,
                np.log1p(np.exp(-(x**2))) - 0.5 * SQRT_PI * special.erf(x) - x,
                -np.inf,
            )

    cdf = lambda x: 1.0 - sfn(x)
    return Distribution(
        support=Support(0.0, np.inf, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, logpdf=logpdf,
        label="erf-hazard",
    )


def _sf_by_panel(cdf, pdf, upper: float):
    """sf as 1 - cdf where that is at least 1/2, and below, where 1 - cdf
    cancels, as one 16-point Gauss-Legendre panel of the pdf up to the
    finite upper end."""

    def sfn(x):
        x = np.minimum(np.asarray(x, float), upper)
        out = np.asarray(1.0 - cdf(x))
        top = out < 0.5
        out[top] = panels(pdf, x[top], upper)
        return out[()]

    return sfn


def _erfi_interval() -> Distribution:
    # CDF erfi(1+x)/erfi(2) on [-1, 1]
    c = float(special.erfi(2.0))

    def cdf(x):
        x = np.clip(np.asarray(x, float), -1.0, 1.0)
        return np.clip(special.erfi(1.0 + x) / c, 0.0, 1.0)

    def pdf(x):
        x = np.asarray(x, float)
        inside = (x >= -1) & (x <= 1)
        return np.where(inside, 2.0 / (SQRT_PI * c) * np.exp((1.0 + x) ** 2), 0.0)

    sfn = _sf_by_panel(cdf, pdf, 1.0)

    def logpdf(x):
        x = np.asarray(x, float)
        inside = (x >= -1) & (x <= 1)
        return np.where(inside, (1.0 + x) ** 2 + math.log(2.0 / (SQRT_PI * c)), -np.inf)

    return Distribution(
        support=Support(-1.0, 1.0, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, logpdf=logpdf,
        label="erfi-interval",
    )


def _erfi_unit() -> Distribution:
    # CDF erfi(x/2)/erfi(1/2) on [0, 1]; log-density x^2/4 + const (convex)
    c = float(special.erfi(0.5))

    def cdf(x):
        x = np.clip(np.asarray(x, float), 0.0, 1.0)
        return np.clip(special.erfi(0.5 * x) / c, 0.0, 1.0)

    def pdf(x):
        x = np.asarray(x, float)
        inside = (x >= 0) & (x <= 1)
        return np.where(inside, np.exp(0.25 * x**2) / (SQRT_PI * c), 0.0)

    sfn = _sf_by_panel(cdf, pdf, 1.0)

    def logpdf(x):
        x = np.asarray(x, float)
        inside = (x >= 0) & (x <= 1)
        return np.where(inside, 0.25 * x**2 - math.log(SQRT_PI * c), -np.inf)

    return Distribution(
        support=Support(0.0, 1.0, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, logpdf=logpdf,
        label="erfi-unit",
    )


def _damped_hazard(theta: float) -> Distribution:
    # survival exp(-x - (1 - (theta x + 1) exp(-theta x)) / theta^2);
    # hazard x exp(-theta x) + 1, increasing on [0, 1/theta], decreasing after
    t = _check("damped-hazard", "theta", theta, theta > 0, "theta > 0")

    def cumhaz(x):
        # 1 - (y + 1) e^-y is P(2, y), which gammainc keeps accurate for small y
        return x + special.gammainc(2.0, t * x) / (t * t)

    def sfn(x):
        x = np.maximum(np.asarray(x, float), 0.0)
        return np.exp(-cumhaz(x))

    def hazard(x):
        return x * np.exp(-t * np.asarray(x, float)) + 1.0

    def pdf(x):
        x = np.asarray(x, float)
        return np.where(x >= 0, hazard(x) * sfn(x), 0.0)

    def logpdf(x):
        x = np.asarray(x, float)
        with np.errstate(all="ignore"):
            return np.where(x >= 0, np.log(hazard(x)) - cumhaz(np.maximum(x, 0.0)), -np.inf)

    cdf = lambda x: -np.expm1(-cumhaz(np.maximum(np.asarray(x, float), 0.0)))
    return Distribution(
        support=Support(0.0, np.inf, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, logpdf=logpdf,
        label=f"damped-hazard(theta={t:g})",
    )


def _normal_mix(sigma1: float = 0.5, sigma2: float = 2.0, q: float = 0.75) -> Distribution:
    s1 = _check("normal-mix", "sigma1", sigma1, sigma1 > 0, "sigma1 > 0")
    s2 = _check("normal-mix", "sigma2", sigma2, sigma2 > 0, "sigma2 > 0")
    w = _check("normal-mix", "q", q, 0 < q < 1, "0 < q < 1")
    c1 = math.log(w / (s1 * math.sqrt(2 * math.pi)))
    c2 = math.log((1 - w) / (s2 * math.sqrt(2 * math.pi)))

    def pdf(x):
        x = np.asarray(x, float)
        return np.exp(c1 - 0.5 * (x / s1) ** 2) + np.exp(c2 - 0.5 * (x / s2) ** 2)

    def logpdf(x):
        x = np.asarray(x, float)
        return np.logaddexp(c1 - 0.5 * (x / s1) ** 2, c2 - 0.5 * (x / s2) ** 2)

    cdf = lambda x: w * special.ndtr(np.asarray(x, float) / s1) + (1 - w) * special.ndtr(np.asarray(x, float) / s2)
    sfn = lambda x: w * special.ndtr(-np.asarray(x, float) / s1) + (1 - w) * special.ndtr(-np.asarray(x, float) / s2)
    return Distribution(
        support=Support(-np.inf, np.inf, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, logpdf=logpdf,
        closed=ClosedForms(mean=0.0, sd=math.sqrt(w * s1**2 + (1 - w) * s2**2)),
        label=f"normal-mix(sigma1={s1:g},sigma2={s2:g},q={w:g})",
    )


# ---------------------------------------------------------------------------
# lattice families
# ---------------------------------------------------------------------------


def _lattice_pmf(lower: float, pmf_int):
    """Wrap an integer-argument pmf to vanish off the lattice."""

    def pdf(x):
        x = np.asarray(x, float)
        k = np.round(x)
        on = (x == k) & (k >= lower)
        kk = np.where(on, k, lower)
        with np.errstate(all="ignore"):
            v = pmf_int(kk)
        return np.where(on, v, 0.0)

    return pdf


def _geometric(p: float) -> Distribution:
    pp = _check("geometric", "p", p, 0 < p < 1, "0 < p < 1")
    lq = math.log1p(-pp)

    pmf_int = lambda k: pp * np.exp(k * lq)

    def sfn(x):
        k = np.floor(np.asarray(x, float))
        return np.where(k < 0, 1.0, np.exp((np.maximum(k, 0) + 1) * lq))

    def cdf(x):
        k = np.floor(np.asarray(x, float))
        return np.where(k < 0, 0.0, -np.expm1((np.maximum(k, 0) + 1) * lq))

    return Distribution(
        support=Support(0, np.inf, LATTICE),
        pdf=_lattice_pmf(0, pmf_int), cdf=cdf, sf=sfn,
        closed=ClosedForms(
            mean=(1 - pp) / pp,
            sd=math.sqrt(1 - pp) / pp,
            gmd=2 * (1 - pp) / (pp * (2 - pp)),
        ),
        label=f"geometric(p={pp:g})",
    )


def _zipf(alpha: float) -> Distribution:
    a = _check("zipf", "alpha", alpha, alpha > 2, "alpha > 2 (finite SD)")
    s = a + 1.0
    z = float(special.zeta(s))

    pmf_int = lambda k: np.where(k >= 1, k ** (-s) / z, 0.0)

    def sfn(x):
        k = np.floor(np.asarray(x, float))
        return np.where(k < 1, 1.0, special.zeta(s, np.maximum(k, 1) + 1) / z)

    cdf = lambda x: 1.0 - sfn(x)

    def tail_sums(m: int) -> tuple[float, float, float]:
        # analytic remainders past M: the polynomial tail would otherwise
        # cost ~1/(M zeta) of the second moment at any feasible cut
        t1 = float(special.zeta(a, m + 1)) / z
        t2 = float(special.zeta(a - 1, m + 1)) / z
        # sum_{x>M} S(x); the omitted sum of S^2 is below S(M+1) * t_sf
        t_sf = (float(special.zeta(s - 1, m + 2)) - (m + 1) * float(special.zeta(s, m + 2))) / z
        return t1, t2, t_sf

    return Distribution(
        support=Support(1, np.inf, LATTICE),
        pdf=_lattice_pmf(1, pmf_int), cdf=cdf, sf=sfn,
        tail_sums=tail_sums,
        label=f"zipf(alpha={a:g})",
    )


def _poisson(theta: float) -> Distribution:
    t = _check("poisson", "theta", theta, theta > 0, "theta > 0")
    lt = math.log(t)

    pmf_int = lambda k: np.exp(k * lt - t - special.gammaln(k + 1))

    def cdf(x):
        k = np.floor(np.asarray(x, float))
        return np.where(k < 0, 0.0, special.gammaincc(np.maximum(k, 0) + 1, t))

    def sfn(x):
        k = np.floor(np.asarray(x, float))
        return np.where(k < 0, 1.0, special.gammainc(np.maximum(k, 0) + 1, t))

    return Distribution(
        support=Support(0, np.inf, LATTICE),
        pdf=_lattice_pmf(0, pmf_int), cdf=cdf, sf=sfn,
        label=f"poisson(theta={t:g})",
    )


def _negbinomial(r: float, p: float) -> Distribution:
    rr = _check("negbinomial", "r", r, r > 0, "r > 0")
    pp = _check("negbinomial", "p", p, 0 < p < 1, "0 < p < 1")
    lp, lq = math.log(pp), math.log1p(-pp)

    def pmf_int(k):
        return np.exp(
            special.gammaln(k + rr) - special.gammaln(rr) - special.gammaln(k + 1) + rr * lp + k * lq
        )

    def cdf(x):
        k = np.floor(np.asarray(x, float))
        return np.where(k < 0, 0.0, special.betainc(rr, np.maximum(k, 0) + 1, pp))

    def sfn(x):
        k = np.floor(np.asarray(x, float))
        return np.where(k < 0, 1.0, special.betaincc(rr, np.maximum(k, 0) + 1, pp))

    gmd = None
    if rr == 2.0:
        gmd = 4 * (1 - pp) * (3 - (3 - pp) * pp) / (pp * (2 - pp) ** 3)
    return Distribution(
        support=Support(0, np.inf, LATTICE),
        pdf=_lattice_pmf(0, pmf_int), cdf=cdf, sf=sfn,
        closed=ClosedForms(
            mean=rr * (1 - pp) / pp,
            sd=math.sqrt(rr * (1 - pp)) / pp,
            gmd=gmd,
        ),
        label=f"negbinomial(r={rr:g},p={pp:g})",
    )


FAMILIES: dict[str, dict] = {
    "gamma": {
        "build": _gamma, "kind": CONTINUOUS,
        "params": {"alpha": REQUIRED}, "domain": "alpha > 0",
    },
    "weibull": {
        "build": _weibull, "kind": CONTINUOUS,
        "params": {"alpha": REQUIRED}, "domain": "alpha > 0",
    },
    "gpd": {
        "build": _gpd, "kind": CONTINUOUS,
        "params": {"alpha": REQUIRED}, "domain": "0 <= alpha < 1/2",
    },
    "normal": {
        "build": _normal, "kind": CONTINUOUS,
        "params": {"mu": 0.0, "sigma": 1.0}, "domain": "sigma > 0",
    },
    "beta": {
        "build": _beta, "kind": CONTINUOUS,
        "params": {"alpha": REQUIRED, "beta": 1.0}, "domain": "alpha > 0, beta > 0",
    },
    "logistic": {
        "build": _logistic, "kind": CONTINUOUS,
        "params": {}, "domain": "none",
    },
    "erf-hazard": {
        "build": _erf_hazard, "kind": CONTINUOUS,
        "params": {}, "domain": "none",
    },
    "erfi-interval": {
        "build": _erfi_interval, "kind": CONTINUOUS,
        "params": {}, "domain": "none",
    },
    "erfi-unit": {
        "build": _erfi_unit, "kind": CONTINUOUS,
        "params": {}, "domain": "none",
    },
    "damped-hazard": {
        "build": _damped_hazard, "kind": CONTINUOUS,
        "params": {"theta": REQUIRED}, "domain": "theta > 0",
    },
    "normal-mix": {
        "build": _normal_mix, "kind": CONTINUOUS,
        "params": {"sigma1": 0.5, "sigma2": 2.0, "q": 0.75},
        "domain": "sigma1 > 0, sigma2 > 0, 0 < q < 1",
    },
    "geometric": {
        "build": _geometric, "kind": LATTICE,
        "params": {"p": REQUIRED}, "domain": "0 < p < 1",
    },
    "zipf": {
        "build": _zipf, "kind": LATTICE,
        "params": {"alpha": REQUIRED}, "domain": "alpha > 2",
    },
    "poisson": {
        "build": _poisson, "kind": LATTICE,
        "params": {"theta": REQUIRED}, "domain": "theta > 0",
    },
    "negbinomial": {
        "build": _negbinomial, "kind": LATTICE,
        "params": {"r": REQUIRED, "p": REQUIRED}, "domain": "r > 0, 0 < p < 1",
    },
}
