"""Reference values computed apart from the `dispersion` package.

Every number here comes from a textbook closed form, from scipy.special /
scipy.stats, or from quadrature of a survival function written out in this
file. Nothing imports `dispersion`, so a fault in the program cannot leak
into the values it is checked against.

Continuous laws without a closed form are reduced to a nonnegative variable
Y (a shift, or a reflection for upper truncation, which leaves SD and GMD
unchanged) and integrated from its survival function alone:

    E[Y] = int S,   E[Y^2] = 2 int y S(y) dy,   GMD = 2 int S (1 - S).

The program integrates x f(x) and F S instead, so the two routes share no
integrand.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats

SQRT_PI = math.sqrt(math.pi)
QUAD = {"epsabs": 1e-14, "epsrel": 1e-12, "limit": 500}

# parameter defaults of the registry families that have any
DEFAULTS = {
    "normal": {"mu": 0.0, "sigma": 1.0},
    "beta": {"beta": 1.0},
    "normal-mix": {"sigma1": 0.5, "sigma2": 2.0, "q": 0.75},
}


def parse_spec(spec: str) -> tuple[str, dict[str, float]]:
    """``family:k=v,k=v`` -> (family, params with registry defaults filled)."""
    family, _, rest = spec.partition(":")
    params = dict(DEFAULTS.get(family, {}))
    for item in filter(None, rest.split(",")):
        key, _, val = item.partition("=")
        params[key] = float(val)
    return family, params


# ---------------------------------------------------------------------------
# survival functions of the continuous families, written from their formulas
# ---------------------------------------------------------------------------


def _damped_cumhaz(theta: float, x):
    # H(x) = int_0^x (s exp(-theta s) + 1) ds
    x = np.asarray(x, float)
    return x + (-np.expm1(-theta * x) - theta * x * np.exp(-theta * x)) / theta**2


def _normal_mix_log_sf(p: dict, x):
    q, s1, s2 = p["q"], p["sigma1"], p["sigma2"]
    return np.logaddexp(
        math.log(q) + special.log_ndtr(-np.asarray(x, float) / s1),
        math.log1p(-q) + special.log_ndtr(-np.asarray(x, float) / s2),
    )


def _normal_mix_log_cdf(p: dict, x):
    return _normal_mix_log_sf(p, -np.asarray(x, float))  # the mixture is symmetric


def log_sf(family: str, p: dict):
    """log P(X > x) for the continuous families used in truncation rows."""
    if family == "damped-hazard":
        return lambda x: -_damped_cumhaz(p["theta"], x)
    if family == "normal-mix":
        return lambda x: _normal_mix_log_sf(p, x)
    raise KeyError(family)


def log_cdf(family: str, p: dict):
    if family == "normal-mix":
        return lambda x: _normal_mix_log_cdf(p, x)
    raise KeyError(family)


def sd_gmd_from_survival(sf, span: float = math.inf, breaks=()) -> tuple[float, float]:
    """(SD, GMD) of a law on [0, span] given only its survival function."""
    edges = [0.0, *[b for b in breaks if 0 < b < span], span]

    def total(fn):
        return sum(integrate.quad(fn, a, b, **QUAD)[0] for a, b in zip(edges, edges[1:]))

    m1 = total(lambda y: float(sf(y)))
    m2 = 2.0 * total(lambda y: y * float(sf(y)))
    gmd = 2.0 * total(lambda y: float(sf(y)) * (1.0 - float(sf(y))))
    return math.sqrt(m2 - m1 * m1), gmd


# ---------------------------------------------------------------------------
# SD and GMD of registry laws
# ---------------------------------------------------------------------------


def _gamma(a: float) -> tuple[float, float]:
    return math.sqrt(a), 2.0 * math.exp(special.gammaln(a + 0.5) - special.gammaln(a)) / SQRT_PI


def _weibull(a: float) -> tuple[float, float]:
    g1 = special.gamma(1 + 1 / a)
    g2 = special.gamma(1 + 2 / a)
    return math.sqrt(g2 - g1 * g1), 2.0 * (1 - 2 ** (-1 / a)) * g1


def _gpd(a: float) -> tuple[float, float]:
    return 1 / ((1 - a) * math.sqrt(1 - 2 * a)), 2 / ((1 - a) * (2 - a))


def _normal_mix(p: dict) -> tuple[float, float]:
    # X - X' given the two components is N(0, si^2 + sj^2), and
    # E|N(0, s^2)| = s sqrt(2 / pi)
    w = (p["q"], 1 - p["q"])
    s = (p["sigma1"], p["sigma2"])
    var = w[0] * s[0] ** 2 + w[1] * s[1] ** 2
    gmd = sum(
        w[i] * w[j] * math.hypot(s[i], s[j]) for i in range(2) for j in range(2)
    ) * math.sqrt(2 / math.pi)
    return math.sqrt(var), gmd


def _continuous(family: str, p: dict) -> tuple[float, float]:
    if family == "gamma":
        return _gamma(p["alpha"])
    if family == "weibull":
        return _weibull(p["alpha"])
    if family == "gpd":
        return _gpd(p["alpha"])
    if family == "normal":
        return p["sigma"], 2 * p["sigma"] / SQRT_PI
    if family == "logistic":
        return math.pi / math.sqrt(3), 2.0
    if family == "normal-mix":
        return _normal_mix(p)
    if family == "beta":
        a, b = p["alpha"], p["beta"]
        sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        return sd, sd_gmd_from_survival(lambda y: special.betaincc(a, b, y), 1.0)[1]
    if family == "erf-hazard":
        return sd_gmd_from_survival(lambda y: math.exp(-0.5 * SQRT_PI * math.erf(y) - y))
    if family == "erfi-interval":  # Y = X + 1 on [0, 2], F = erfi(Y) / erfi(2)
        c = special.erfi(2.0)
        return sd_gmd_from_survival(lambda y: 1.0 - special.erfi(y) / c, 2.0)
    if family == "erfi-unit":
        c = special.erfi(0.5)
        return sd_gmd_from_survival(lambda y: 1.0 - special.erfi(0.5 * y) / c, 1.0)
    if family == "damped-hazard":
        ls = log_sf(family, p)
        return sd_gmd_from_survival(lambda y: math.exp(ls(y)), breaks=(1 / p["theta"],))
    raise KeyError(family)


def _zipf_sd_gmd(a: float) -> tuple[float, float]:
    # SD = sqrt(zeta(a-1)/zeta(a+1) - (zeta(a)/zeta(a+1))^2)
    s = a + 1
    z = special.zeta(s)
    m1 = special.zeta(a) / z
    m2 = special.zeta(a - 1) / z
    # sum_k F S = sum_{k>=1} S(k) - sum_{k>=1} S(k)^2 and sum_{k>=1} S(k) = E X - 1;
    # S(k)^2 ~ k^(-2a), so 2e4 terms leave < 1e-18
    sk = special.zeta(s, np.arange(2, 20002, dtype=float)) / z
    return math.sqrt(m2 - m1 * m1), 2.0 * ((m1 - 1.0) - float(np.sum(sk * sk)))


def _scipy_lattice(family: str, p: dict):
    if family == "geometric":
        return stats.geom(p["p"], loc=-1)
    if family == "poisson":
        return stats.poisson(p["theta"])
    if family == "negbinomial":
        return stats.nbinom(p["r"], p["p"])
    raise KeyError(family)


def _lattice_sums(law) -> tuple[np.ndarray, np.ndarray]:
    last = 64
    while law.sf(last) > 1e-25:
        last *= 2
    ks = np.arange(0, last + 1, dtype=float)
    return ks, law.pmf(ks)


def _lattice(family: str, p: dict) -> tuple[float, float]:
    if family == "zipf":
        return _zipf_sd_gmd(p["alpha"])
    law = _scipy_lattice(family, p)
    ks, _ = _lattice_sums(law)
    sd = math.sqrt(p["theta"]) if family == "poisson" else float(law.std())
    return sd, 2.0 * float(np.sum(law.cdf(ks) * law.sf(ks)))


LATTICE_FAMILIES = ("geometric", "zipf", "poisson", "negbinomial")


def sd_gmd(spec: str) -> tuple[float, float]:
    """Reference (SD, GMD) of a registry spec such as ``gamma:alpha=2``."""
    family, p = parse_spec(spec)
    if family in LATTICE_FAMILIES:
        return _lattice(family, p)
    return _continuous(family, p)


def tie_probability(spec: str) -> float:
    """Lambda = P(X = X') = sum f^2 of a lattice spec."""
    family, p = parse_spec(spec)
    if family == "zipf":
        s = p["alpha"] + 1
        return float(special.zeta(2 * s) / special.zeta(s) ** 2)
    _, f = _lattice_sums(_scipy_lattice(family, p))
    return float(np.dot(f, f))


def truncated_sd_gmd(spec: str, side: str, u: float) -> tuple[float, float]:
    """(SD, GMD) of (X | X > u) for side 'lower', (X | X <= u) for 'upper'."""
    family, p = parse_spec(spec)
    if side == "lower":  # Y = X - u, S_Y(y) = S(u + y) / S(u)
        ls = log_sf(family, p)
        base = float(ls(u))
        return sd_gmd_from_survival(lambda y: math.exp(float(ls(u + y)) - base))
    lc = log_cdf(family, p)  # Y = u - X, S_Y(y) = F(u - y) / F(u)
    base = float(lc(u))
    return sd_gmd_from_survival(lambda y: math.exp(float(lc(u - y)) - base))


def weibull_gamma_mixture_sd_gmd(a_w: float, a_g: float, w: float) -> tuple[float, float]:
    """w * weibull(a_w) + (1 - w) * gamma(a_g): moments mix linearly."""
    m1 = w * special.gamma(1 + 1 / a_w) + (1 - w) * a_g
    m2 = w * special.gamma(1 + 2 / a_w) + (1 - w) * a_g * (a_g + 1)
    sf = lambda y: w * math.exp(-(y**a_w)) + (1 - w) * special.gammaincc(a_g, y)
    return math.sqrt(m2 - m1 * m1), sd_gmd_from_survival(sf, breaks=(1.0, 10.0))[1]


# ---------------------------------------------------------------------------
# mean excess of Y = |X - X'|
# ---------------------------------------------------------------------------


def normal_mean_excess(sigma: float, ts) -> np.ndarray:
    """Y is half-normal with scale s = sigma sqrt(2):
    m(t) = (s phi(t/s) - t Phi-bar(t/s)) / Phi-bar(t/s)."""
    s = sigma * math.sqrt(2.0)
    z = np.asarray(ts, float) / s
    tail = special.ndtr(-z)
    return (s * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi) - z * s * tail) / tail


def gamma2_mean_excess(ts) -> np.ndarray:
    """X, X' ~ gamma(2): Y has density e^-y (1 + y) / 2, so m(t) = (3 + t) / (2 + t)."""
    t = np.asarray(ts, float)
    return (3.0 + t) / (2.0 + t)


def lattice_mean_excess(spec: str, ts) -> np.ndarray:
    """m_Y(t) at integer t from sum_x f(x) pi(x + t) / sum_x f(x) S(x + t),
    with S(a) = P(X > a) and the stop-loss transform pi(a) = E[(X - a)^+]."""
    family, p = parse_spec(spec)
    if family == "zipf":
        a = p["alpha"]
        s = a + 1
        z = special.zeta(s)
        xs = np.arange(1, 20001, dtype=float)  # f(x) pi(x + t) ~ x^(-2a)
        f = xs ** (-s) / z
        sf = lambda k: special.zeta(s, k + 1) / z
        stop_loss = lambda k: special.zeta(a, k + 1) / z - k * sf(k)
    elif family == "geometric":
        q = 1 - p["p"]
        xs = np.arange(0, 4000, dtype=float)
        f = p["p"] * q**xs
        sf = lambda k: q ** (k + 1)
        stop_loss = lambda k: q ** (k + 1) / p["p"]
    elif family == "poisson":
        law = stats.poisson(p["theta"])
        xs = np.arange(0, 400, dtype=float)
        f = law.pmf(xs)
        sf = law.sf
        stop_loss = lambda k: p["theta"] * law.sf(k - 1) - k * law.sf(k)
    else:
        raise KeyError(family)
    out = []
    for t in np.asarray(ts, float):
        out.append(float(np.dot(f, stop_loss(xs + t)) / np.dot(f, sf(xs + t))))
    return np.array(out)
