"""Registry of the distribution families used throughout the package.

Each builder returns a Distribution whose pdf/cdf/sf are mutually
consistent closed-form evaluations (no adaptive quadrature inside the
bundle: only the erfi survival functions above the median are one fixed
Gauss-Legendre panel of the density), with closed-form moments attached
only where a source formula exists. Survival convention in both kinds is
P(X > x).

A family states its law once. Three builders turn that statement into the
columns: `_survival_pair` takes the cumulative hazard of the laws defined
through their hazard (weibull, gpd, erf-hazard, damped-hazard),
`_lattice_columns` the pmf, cdf and sf at the integers of a lattice family,
and `_erfi_law` the affine argument of both erfi laws. Every lattice family
also states its sums over the tail past any m (`Distribution.tail_sums`) in
closed form. Two families are built by others' builders: normal-mix is
`combinators.mix` of two `_normal` laws, and gpd below shape 1e-20 is
`_weibull(1)`, the exponential it equals.

Gamma laws of integer shape n <= ERLANG_MAX (Erlang laws) take their sf from
the closed Poisson sum Q(n, x) = e^(-x) sum_(k<n) x^k / k! (`_erlang_sf`),
every other shape from `gammaincc`; cdf and ppf are `gammainc` and
`gammaincinv` at every shape. So gamma(1)'s sf is weibull(1)'s, bit for bit.
A density whose exponent at a support end is zero takes its finite limit
there: gamma(1) is 1 at 0, and beta(1, b) is b at 0 and beta(a, 1) a at 1.

Family-spec strings parse as ``family:name=value,name=value``, e.g.
``gpd:alpha=0.25`` or ``normal-mix:sigma1=0.5,sigma2=2,q=0.75``. A family's
parameter names, order and defaults are those of its builder's signature,
and `make_distribution` labels the law it builds.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .combinators import mix
from .dist import CONTINUOUS, LATTICE, ClosedForms, Distribution, Support
from .errors import ParamOutOfDomain, ParseError, UnknownFamily
from .numerics import panels

SQRT_PI = math.sqrt(math.pi)


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
            if key in params:
                raise ParseError(f"parameter {key!r} is given twice in {text!r}")
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


@functools.cache
def _signature(family: str):
    """The family's parameters: its builder's, in order, with their defaults."""
    return inspect.signature(FAMILIES[family]["build"]).parameters


def _resolve_params(spec: FamilySpec) -> dict[str, float]:
    sig = _signature(spec.family)
    out: dict[str, float] = {}
    for pname, p in sig.items():
        if pname in spec.params:
            out[pname] = spec.params[pname]
        elif p.default is p.empty:
            raise ParseError(f"{spec.family}: missing required parameter {pname!r}")
        else:
            out[pname] = p.default
    unknown = set(spec.params) - set(sig)
    if unknown:
        raise ParseError(
            f"{spec.family}: unknown parameter(s) {sorted(unknown)}; "
            f"expected {sorted(sig)}"
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
            "params": {
                p: ("required" if v.default is v.empty else v.default) for p, v in _signature(name).items()
            },
            "domain": info["domain"],
        }
        for name, info in FAMILIES.items()
    ]


# ---------------------------------------------------------------------------
# continuous families
# ---------------------------------------------------------------------------


# log Gamma(a + 1/2) - log Gamma(a) - log(a) / 2 = sum_k c_k a^-(2k+1), with
# c_k = -(2 - 2^-n) B_(n+1) / (n (n+1)) at n = 2k + 1 (Bernoulli numbers B)
_HALF_RATIO_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224)


def _gamma_half_ratio(a: float) -> float:
    """Gamma(a + 1/2) / Gamma(a) within 3e-15 relative for every a > 0: the
    quotient of the two gamma values below 12, above it sqrt(a) exp(series),
    whose first omitted term is 1.2e-16 at 12. The difference of two
    log-gamma values loses digits to cancellation as a grows (1e-9 at 1e6)."""
    if a < 12.0:
        return float(special.gamma(a + 0.5) / special.gamma(a))
    inv2, acc = 1.0 / (a * a), 0.0
    for c in reversed(_HALF_RATIO_SERIES):
        acc = acc * inv2 + c
    return math.sqrt(a) * math.exp(acc / a)


# integer gamma shapes whose sf is the closed sum of _erlang_sf. Replaying the
# sf calls of a gamma(n) law's classify, report, curve, Monte Carlo and maps,
# the sum costs 4-10 times less than gammaincc in all at every n <= 20; through
# 11 no size class of 32 points or more costs more, while at 12 the 14 calls of
# 32-255 points cost twice as much. Calls of 31 points or fewer cost 1-20 us more.
ERLANG_MAX = 11
# past 2^11, e^(-x/2) underflows, and so does Q(n, x) for every n <= ERLANG_MAX;
# the cap keeps the sum finite at x = inf
_ERLANG_CAP = 2048.0


def _erlang_sf(n: int):
    """Q(n, x) = e^(-x) (1 + q) at max(x, 0), q = sum_(1 <= k < n) x^k / k! by
    Horner's rule (Abramowitz & Stegun 1964, 6.5.13). e^(-x) is taken as
    e^(-x/2) twice, so that it does not underflow where 1 + q keeps Q normal.
    On [0, 1e3], for n <= 12, it is within 4.1 eps of 50-digit values wherever
    Q is a normal double; gammaincc errs there by up to 520 eps. 1 for x <= 0,
    0 at inf, NaN at NaN; at n = 1 it is exp(-x), bit for bit the sf of
    weibull(1)."""
    c = [1.0 / math.factorial(k) for k in range(n - 1, 0, -1)]

    def sf(x):
        x = np.minimum(np.maximum(np.asarray(x, float), 0.0), _ERLANG_CAP)
        if not c:
            return np.exp(-x)
        q = x * c[0]
        for ck in c[1:]:
            q += ck
            q *= x
        q += 1.0
        half = np.exp(-0.5 * x)
        q *= half
        q *= half
        return q

    return sf


def _gamma(alpha: float) -> Distribution:
    a = _check("gamma", "alpha", alpha, alpha > 0, "alpha > 0")

    def pdf(x):
        x = np.asarray(x, float)
        with np.errstate(all="ignore"):
            v = np.exp((a - 1) * np.log(x) - x - special.gammaln(a))
        # the limits at 0, and 0 at inf, where (a - 1) log x - x is NaN for a >= 1
        edge = np.inf if a < 1 else (1.0 if a == 1 else 0.0)
        return np.where((x > 0) & (x < np.inf), v, np.where(x == 0, edge, 0.0))

    cdf = lambda x: special.gammainc(a, np.maximum(np.asarray(x, float), 0.0))
    if a == round(a) <= ERLANG_MAX:
        sfn = _erlang_sf(int(a))
    else:
        sfn = lambda x: special.gammaincc(a, np.maximum(np.asarray(x, float), 0.0))
    ppf = lambda p: special.gammaincinv(a, p)
    return Distribution(
        support=Support(0.0, np.inf, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, ppf=ppf, ppf_iterative=True,
        # GMD = 2 Gamma(a + 1/2) / (sqrt(pi) Gamma(a)) = 2 / B(a, 1/2)
        closed=ClosedForms(mean=a, sd=math.sqrt(a), gmd=2 * _gamma_half_ratio(a) / SQRT_PI),
    )


def _survival_pair(cumhaz):
    """(cdf, sf) = (-expm1(-H), exp(-H)) of the law on [0, inf) with
    cumulative hazard H, each taken at max(x, 0)."""
    cdf = lambda x: -np.expm1(-cumhaz(np.maximum(np.asarray(x, float), 0.0)))
    sf = lambda x: np.exp(-cumhaz(np.maximum(np.asarray(x, float), 0.0)))
    return cdf, sf


# d = 2 log Gamma(1 + e) - log Gamma(1 + 2 e) = e^2 sum_(k>=2) c_k e^(k-2), with
# c_k = (-1)^k zeta(k) (2 - 2^k) / k: the linear terms cancel exactly. 85 terms
# reach 2e-16 at e = 1/3. Above shape 3, sqrt(Gamma(1 + 2/a) - Gamma(1 + 1/a)^2)
# cancels (1e-15 relative at 4, 1e-13 at 50, NaN at 1e8), and 1 - 2^(-1/a) too
_WEIBULL_LOG_RATIO = np.array([(-1) ** k * special.zeta(k) * (2 - 2.0**k) / k for k in range(2, 87)])
_WEIBULL_SERIES_SHAPE = 3.0


def _weibull(alpha: float) -> Distribution:
    a = _check("weibull", "alpha", alpha, alpha > 0, "alpha > 0")
    eps = 1 / a

    def pdf(x):
        x = np.asarray(x, float)
        with np.errstate(all="ignore"):
            v = a * x ** (a - 1) * np.exp(-(x**a))
        edge = np.inf if a < 1 else (1.0 if a == 1 else 0.0)
        return np.where(x > 0, v, np.where(x == 0, edge, 0.0))

    cdf, sfn = _survival_pair(lambda x: x**a)
    ppf = lambda p: (-np.log1p(-np.asarray(p, float))) ** (1.0 / a)
    g1, g2 = special.gamma(1 + eps), float(special.gamma(1 + 2 * eps))
    var, gmd = g2 - float(g1) * float(g1), 2 * (1 - 2**-eps) * g1
    if a > _WEIBULL_SERIES_SHAPE:
        # Var = -g2 expm1(d) with d = e^2 p, e and p kept apart so d may underflow
        p = float(np.polynomial.polynomial.polyval(eps, _WEIBULL_LOG_RATIO))
        d = p * eps * eps
        sd = eps * math.sqrt(-g2 * p * (math.expm1(d) / d if d else 1.0))
        gmd = -2 * math.expm1(-eps * math.log(2)) * g1
    elif math.isfinite(var):
        sd = math.sqrt(var)
    else:  # below alpha = 0.0118 g2 or g1^2 overflows: sqrt(g2 (1 - g1^2 / g2)) in logs
        l1, l2 = special.gammaln(1 + eps), special.gammaln(1 + 2 * eps)
        with np.errstate(over="ignore"):
            sd = float(np.exp(0.5 * l2) * np.sqrt(-np.expm1(2 * l1 - l2)))
    return Distribution(
        support=Support(0.0, np.inf, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, ppf=ppf,
        closed=ClosedForms(mean=g1, sd=sd, gmd=gmd),
    )


def _gpd(alpha: float) -> Distribution:
    a = _check("gpd", "alpha", alpha, 0 <= alpha < 0.5, "0 <= alpha < 1/2 (finite SD)")
    # below 1e-20 the shape term a*x/2 of the log-survival is under half an
    # ulp wherever the tail has not underflowed, while 1/a overflows for
    # subnormal a: build such a law as the exponential it equals
    if a < 1e-20:
        return _weibull(1.0)
    cdf, sfn = _survival_pair(lambda x: np.log1p(a * x) / a)

    def pdf(x):
        x = np.asarray(x, float)
        with np.errstate(all="ignore"):
            v = np.exp(-(1 / a + 1) * np.log1p(a * x))
        return np.where(x >= 0, v, 0.0)

    ppf = lambda p: np.expm1(-a * np.log1p(-np.asarray(p, float))) / a
    return Distribution(
        support=Support(0.0, np.inf, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, ppf=ppf,
        closed=ClosedForms(
            mean=1 / (1 - a),
            sd=1 / ((1 - a) * math.sqrt(1 - 2 * a)),
            gmd=2 / ((1 - a) * (2 - a)),
        ),
    )


def _normal(mu: float = 0.0, sigma: float = 1.0) -> Distribution:
    s = _check("normal", "sigma", sigma, sigma > 0, "sigma > 0")
    m = float(mu)
    z = lambda x: (np.asarray(x, float) - m) / s
    pdf = lambda x: np.exp(-0.5 * z(x) ** 2) / (s * math.sqrt(2 * math.pi))
    cdf = lambda x: special.ndtr(z(x))
    sfn = lambda x: special.ndtr(-z(x))
    ppf = lambda p: m + s * special.ndtri(p)
    return Distribution(
        support=Support(-np.inf, np.inf, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, ppf=ppf,
        closed=ClosedForms(mean=m, sd=s, gmd=2 * s / SQRT_PI),
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
        # the density's limit at each end: 1 / B(1, b) = b at 0, 1 / B(a, 1) = a at 1
        lo = np.inf if a < 1 else (b if a == 1 else 0.0)
        hi = np.inf if b < 1 else (a if b == 1 else 0.0)
        return np.where(inside, v, np.where(x == 0, lo, np.where(x == 1, hi, 0.0)))

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
        pdf=pdf, cdf=cdf, sf=sfn, ppf=ppf, ppf_iterative=True, closed=closed,
    )


def _logistic() -> Distribution:
    pdf = lambda x: special.expit(np.asarray(x, float)) * special.expit(-np.asarray(x, float))
    cdf = lambda x: special.expit(np.asarray(x, float))
    sfn = lambda x: special.expit(-np.asarray(x, float))
    ppf = lambda p: np.log(np.asarray(p, float)) - np.log1p(-np.asarray(p, float))
    return Distribution(
        support=Support(-np.inf, np.inf, CONTINUOUS),
        pdf=pdf, cdf=cdf, sf=sfn, ppf=ppf,
        closed=ClosedForms(mean=0.0, sd=math.pi / math.sqrt(3), gmd=2.0),
    )


def _erf_hazard() -> Distribution:
    # cumulative hazard sqrt(pi)/2 * erf(x) + x on [0, inf); hazard exp(-x^2) + 1
    cdf, sfn = _survival_pair(lambda x: 0.5 * SQRT_PI * special.erf(x) + x)

    def pdf(x):
        x = np.asarray(x, float)
        return np.where(x >= 0, (np.exp(-x**2) + 1) * sfn(x), 0.0)

    return Distribution(support=Support(0.0, np.inf, CONTINUOUS), pdf=pdf, cdf=cdf, sf=sfn)


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


def _erfi_law(a: float, b: float, lo: float, hi: float) -> Distribution:
    """The law on [lo, hi], a + b lo = 0, with CDF erfi(a + b x) / erfi(a + b hi)
    and density 2 b / (sqrt(pi) erfi(a + b hi)) exp((a + b x)^2)."""
    c = float(special.erfi(a + b * hi))
    const = 2.0 * b / (SQRT_PI * c)

    def cdf(x):
        x = np.clip(np.asarray(x, float), lo, hi)
        return np.clip(special.erfi(a + b * x) / c, 0.0, 1.0)

    def pdf(x):
        x = np.asarray(x, float)
        return np.where((x >= lo) & (x <= hi), const * np.exp((a + b * x) ** 2), 0.0)

    return Distribution(support=Support(lo, hi, CONTINUOUS), pdf=pdf, cdf=cdf, sf=_sf_by_panel(cdf, pdf, hi))


def _erfi_interval() -> Distribution:
    # CDF erfi(1+x)/erfi(2) on [-1, 1]
    return _erfi_law(1.0, 1.0, -1.0, 1.0)


def _erfi_unit() -> Distribution:
    # CDF erfi(x/2)/erfi(1/2) on [0, 1]; log-density x^2/4 + const (convex)
    return _erfi_law(0.0, 0.5, 0.0, 1.0)


def _damped_hazard(theta: float) -> Distribution:
    # survival exp(-x - (1 - (theta x + 1) exp(-theta x)) / theta^2);
    # hazard x exp(-theta x) + 1, increasing on [0, 1/theta], decreasing after
    t = _check("damped-hazard", "theta", theta, theta > 0, "theta > 0")
    # 1 - (y + 1) e^-y is P(2, y), which gammainc keeps accurate for small y
    cdf, sfn = _survival_pair(lambda x: x + special.gammainc(2.0, t * x) / (t * t))

    def pdf(x):
        x = np.asarray(x, float)
        return np.where(x >= 0, (x * np.exp(-t * x) + 1.0) * sfn(x), 0.0)

    return Distribution(support=Support(0.0, np.inf, CONTINUOUS), pdf=pdf, cdf=cdf, sf=sfn)


def _normal_mix(sigma1: float = 0.5, sigma2: float = 2.0, q: float = 0.75) -> Distribution:
    s1 = _check("normal-mix", "sigma1", sigma1, sigma1 > 0, "sigma1 > 0")
    s2 = _check("normal-mix", "sigma2", sigma2, sigma2 > 0, "sigma2 > 0")
    w = _check("normal-mix", "q", q, 0 < q < 1, "0 < q < 1")
    return mix([_normal(0.0, s1), _normal(0.0, s2)], [w, 1 - w])


# ---------------------------------------------------------------------------
# lattice families
# ---------------------------------------------------------------------------


def _lattice_columns(lower: float, pmf_int, cdf_int, sf_int):
    """(pdf, cdf, sf) of the lattice law on the integers k >= lower whose pmf,
    cdf and sf at those integers are given: pdf vanishes off the lattice,
    cdf and sf read floor(x) and are 0 and 1 below the support."""

    def pdf(x):
        x = np.asarray(x, float)
        k = np.round(x)
        on = (x == k) & (k >= lower)
        kk = np.where(on, k, lower)
        with np.errstate(all="ignore"):
            v = pmf_int(kk)
        return np.where(on, v, 0.0)

    def floor_read(fn, below):
        def col(x):
            k = np.floor(np.asarray(x, float))
            return np.where(k < lower, below, fn(np.maximum(k, lower)))

        return col

    return pdf, floor_read(cdf_int, 0.0), floor_read(sf_int, 1.0)


def _geometric(p: float) -> Distribution:
    pp = _check("geometric", "p", p, 0 < p < 1, "0 < p < 1")
    lq = math.log1p(-pp)
    pdf, cdf, sfn = _lattice_columns(
        0, lambda k: pp * np.exp(k * lq), lambda k: -np.expm1((k + 1) * lq), lambda k: np.exp((k + 1) * lq)
    )
    r = (1 - pp) / pp  # q / p

    def tail_sums(m: int) -> tuple[float, float, float, float]:
        # geometric series over x > m, with q^(m + 1) = P(X > m); below the
        # support (m < -1) the sum of S also counts S = 1 at m + 1, ..., -1
        k = max(m, -1) + 1
        mass = math.exp(k * lq)
        return (mass, mass * (k + r), mass * (k * k + 2 * k * r + r * (2 - pp) / pp),
                mass * r + (k - 1 - m))

    return Distribution(
        support=Support(0, np.inf, LATTICE),
        pdf=pdf, cdf=cdf, sf=sfn, tail_sums=tail_sums,
        closed=ClosedForms(
            mean=r,
            sd=math.sqrt(1 - pp) / pp,
            gmd=2 * (1 - pp) / (pp * (2 - pp)),
        ),
    )


def _zipf(alpha: float) -> Distribution:
    a = _check("zipf", "alpha", alpha, alpha > 2, "alpha > 2 (finite SD)")
    s = a + 1.0
    z = float(special.zeta(s))
    sf_int = lambda k: special.zeta(s, k + 1) / z
    pdf, cdf, sfn = _lattice_columns(1, lambda k: k ** (-s) / z, lambda k: 1.0 - sf_int(k), sf_int)

    def tail_sums(m: int) -> tuple[float, float, float, float]:
        # Hurwitz zeta sums over x > m: the polynomial tail would otherwise
        # cost ~1/(m zeta) of the second moment at any feasible cut, and a
        # block sum would not end within the enumeration limit
        mass = float(special.zeta(s, m + 1)) / z
        t1 = float(special.zeta(a, m + 1)) / z
        t2 = float(special.zeta(a - 1, m + 1)) / z
        # sum_{x>m} S(x) = sum_{j>m+1} (j - m - 1) f(j)
        t_sf = (float(special.zeta(s - 1, m + 2)) - (m + 1) * float(special.zeta(s, m + 2))) / z
        return mass, t1, t2, t_sf

    return Distribution(
        support=Support(1, np.inf, LATTICE),
        pdf=pdf, cdf=cdf, sf=sfn,
        tail_sums=tail_sums,
    )


def _poisson(theta: float) -> Distribution:
    t = _check("poisson", "theta", theta, theta > 0, "theta > 0")
    lt = math.log(t)
    pmf_int = lambda k: np.exp(k * lt - t - special.gammaln(k + 1))
    pdf, cdf, sfn = _lattice_columns(
        0, pmf_int, lambda k: special.gammaincc(k + 1, t), lambda k: special.gammainc(k + 1, t)
    )

    def tail_sums(m: int) -> tuple[float, float, float, float]:
        # over x > m, by x f(x) = t f(x - 1): G(k) = P(X >= k) = gammainc(k, t),
        # 1 for k <= 0 (Johnson, Kemp & Kotz, Univariate Discrete Distributions,
        # 3rd ed., 2005, ch. 4); sum S = sum_{x >= m+2} (x - m - 1) f(x)
        g = lambda k: float(special.gammainc(k, t)) if k > 0 else 1.0
        return g(m + 1), t * g(m), t * t * g(m - 1) + t * g(m), t * g(m + 1) - (m + 1) * g(m + 2)

    return Distribution(support=Support(0, np.inf, LATTICE), pdf=pdf, cdf=cdf, sf=sfn, tail_sums=tail_sums)


def _negbinomial(r: float, p: float) -> Distribution:
    rr = _check("negbinomial", "r", r, r > 0, "r > 0")
    pp = _check("negbinomial", "p", p, 0 < p < 1, "0 < p < 1")
    lp, lq = math.log(pp), math.log1p(-pp)

    pmf_int = lambda k: np.exp(
        special.gammaln(k + rr) - special.gammaln(rr) - special.gammaln(k + 1) + rr * lp + k * lq
    )
    pdf, cdf, sfn = _lattice_columns(
        0, pmf_int, lambda k: special.betainc(rr, k + 1, pp), lambda k: special.betaincc(rr, k + 1, pp)
    )
    mu = rr * (1 - pp) / pp

    def tail_sums(m: int) -> tuple[float, float, float, float]:
        # over x > m, by x f_r(x) = (r q / p) f_(r+1)(x - 1): G_r(k) = P(X >= k)
        # = betaincc(r, k, p), 1 for k <= 0 (Johnson, Kemp & Kotz, ch. 5)
        g = lambda a, k: float(special.betaincc(a, k, pp)) if k > 0 else 1.0
        t2 = mu * (rr + 1) * (1 - pp) / pp * g(rr + 2, m - 1) + mu * g(rr + 1, m)
        return g(rr, m + 1), mu * g(rr + 1, m), t2, mu * g(rr + 1, m + 1) - (m + 1) * g(rr, m + 2)

    gmd = None
    if rr == 2.0:
        gmd = 4 * (1 - pp) * (3 - (3 - pp) * pp) / (pp * (2 - pp) ** 3)
    return Distribution(
        support=Support(0, np.inf, LATTICE),
        pdf=pdf, cdf=cdf, sf=sfn, tail_sums=tail_sums,
        closed=ClosedForms(
            mean=mu,
            sd=math.sqrt(rr * (1 - pp)) / pp,
            gmd=gmd,
        ),
    )


# each family's parameter names, order and defaults are its builder's signature
FAMILIES: dict[str, dict] = {
    "gamma": {"build": _gamma, "kind": CONTINUOUS, "domain": "alpha > 0"},
    "weibull": {"build": _weibull, "kind": CONTINUOUS, "domain": "alpha > 0"},
    "gpd": {"build": _gpd, "kind": CONTINUOUS, "domain": "0 <= alpha < 1/2"},
    "normal": {"build": _normal, "kind": CONTINUOUS, "domain": "sigma > 0"},
    "beta": {"build": _beta, "kind": CONTINUOUS, "domain": "alpha > 0, beta > 0"},
    "logistic": {"build": _logistic, "kind": CONTINUOUS, "domain": "none"},
    "erf-hazard": {"build": _erf_hazard, "kind": CONTINUOUS, "domain": "none"},
    "erfi-interval": {"build": _erfi_interval, "kind": CONTINUOUS, "domain": "none"},
    "erfi-unit": {"build": _erfi_unit, "kind": CONTINUOUS, "domain": "none"},
    "damped-hazard": {"build": _damped_hazard, "kind": CONTINUOUS, "domain": "theta > 0"},
    "normal-mix": {"build": _normal_mix, "kind": CONTINUOUS, "domain": "sigma1 > 0, sigma2 > 0, 0 < q < 1"},
    "geometric": {"build": _geometric, "kind": LATTICE, "domain": "0 < p < 1"},
    "zipf": {"build": _zipf, "kind": LATTICE, "domain": "alpha > 2"},
    "poisson": {"build": _poisson, "kind": LATTICE, "domain": "theta > 0"},
    "negbinomial": {"build": _negbinomial, "kind": LATTICE, "domain": "r > 0, 0 < p < 1"},
}
