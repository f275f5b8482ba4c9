"""Independent verification engine.

Monte Carlo estimation of SD, GMD and the tie probability with batch-means
confidence intervals, plus exact pair enumeration for lattice laws. The
generator is counter-based (Philox) and keyed by the seed alone: batch b
draws from the state Philox(seed).jumped(b) holds, counter [0, 0, b, 0],
its X and then its X' from one call, so estimates are bit-reproducible and
the batch partition could be farmed out to workers and merged in any
order.

Draws invert the CDF by each law's cheapest exact inverse
(Devroye 1986, Non-Uniform Random Variate Generation, sec. II.2). A
continuous law whose ppf is a direct formula (weibull, gpd, normal,
logistic, and the affine maps and upper truncations of them) draws by
ppf(u) and builds no inverse table. Every other law reads its table
through Distribution.quantile(u, table=True): the lattice table on lattice
laws, through its guide table, and on continuous laws the certified cubic
Hermite inverse table, within 1e-12 in probability. Those are the laws
whose ppf is an iterative special-function inverse (gamma's gammaincinv,
beta's betaincinv; `Distribution.ppf_iterative`) and the laws without one.
Inside a sub-interval the table could not certify, and beyond its end
nodes, the law's ppf answers where it has one, and otherwise the solver of
the table's nodes (`Distribution._exact_inverse`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import stdtrit

from .dist import Distribution

N_BATCHES = 32
# Philox keys are 128-bit: a seed is an integer in [0, SEED_LIMIT)
SEED_LIMIT = 2**128
CONF_LEVEL = 0.99
_T_FACTOR = float(stdtrit(N_BATCHES - 1, 0.5 + CONF_LEVEL / 2))


@dataclass(frozen=True)
class OracleEstimate:
    sd_hat: float
    gmd_hat: float
    lambda_hat: float | None
    ci_sd: float
    ci_gmd: float
    ci_lambda: float | None
    n: int
    seed: int

    def to_record(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LatticeExact:
    sd: float
    gmd: float
    lambda_: float
    m_ts: np.ndarray
    m_values: np.ndarray


def _sample(d: Distribution, gen: Generator, m: int) -> np.ndarray:
    u = gen.random(m)
    # no target at exactly 0 or 1, whose quantile may be an infinite support end
    u = np.clip(u, 1e-15, 1 - 1e-15)
    return np.asarray(d.quantile(u, table=d.ppf_iterative), dtype=float)


def mc_estimate(d: Distribution, n: int, seed: int) -> OracleEstimate:
    """Estimate SD, GMD (and tie frequency for lattice laws) from n iid pairs.

    gmd_hat = mean |X - X'|, sd_hat = sqrt(mean (X - X')^2 / 2); 99% CI
    half-widths come from batch means over 32 batches. Identical
    (distribution, n, seed) inputs give bit-identical outputs. The seed is
    the Philox key, an integer in [0, SEED_LIMIT).
    """
    if n < 10**4:
        raise ValueError(f"n must be at least 1e4 for batch-means CIs, got {n}")
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be at least 0 and below 2**128, got {seed}")
    sizes = np.full(N_BATCHES, n // N_BATCHES, dtype=int)
    sizes[: n % N_BATCHES] += 1
    abs_means = np.empty(N_BATCHES)
    sq_means = np.empty(N_BATCHES)
    tie_freqs = np.empty(N_BATCHES)
    for b in range(N_BATCHES):
        # the state Philox(seed).jumped(b) starts from, built directly
        gen = Generator(Philox(key=seed, counter=[0, 0, b, 0]))
        m = int(sizes[b])
        # X then X' from one stream: random(2m) is random(m) twice
        draws = _sample(d, gen, 2 * m)
        delta = np.subtract(draws[:m], draws[m:])
        # np.mean's sum and division, without its per-call overhead; abs last, in place
        sq_means[b] = np.add.reduce(delta * delta) / m
        if d.is_lattice:
            tie_freqs[b] = np.count_nonzero(delta == 0.0) / m
        abs_means[b] = np.add.reduce(np.abs(delta, out=delta)) / m
    w = sizes / n
    gmd_hat = float((w * abs_means).sum())
    m2_hat = float((w * sq_means).sum())
    sd_hat = math.sqrt(m2_hat / 2.0)
    ci_gmd = _batch_ci(abs_means)
    ci_m2 = _batch_ci(sq_means)
    ci_sd = ci_m2 / (4.0 * sd_hat) if sd_hat > 0 else ci_m2
    if d.is_lattice:
        lambda_hat = float((w * tie_freqs).sum())
        ci_lambda = _batch_ci(tie_freqs)
    else:
        lambda_hat = None
        ci_lambda = None
    return OracleEstimate(
        sd_hat=sd_hat, gmd_hat=gmd_hat, lambda_hat=lambda_hat,
        ci_sd=ci_sd, ci_gmd=ci_gmd, ci_lambda=ci_lambda, n=n, seed=seed,
    )


def _batch_ci(batch_means: np.ndarray) -> float:
    s = float(np.std(batch_means, ddof=1))
    return _T_FACTOR * s / math.sqrt(len(batch_means))


def brute_force_lattice(d: Distribution, mass_cut: float = 1e-12) -> LatticeExact:
    """Exact double sums over the retained support pairs.

    Computes SD and GMD from all pairs of retained points, the tie
    probability, and the mean excess of Y = |X - X'| at every integer t
    from the pair distribution of Y. Raises SupportTooLarge past
    `dist.LATTICE_LIMIT` points.
    """
    pts = d.lattice_points(mass_cut).astype(float)
    f = np.asarray(d.pdf(pts), float)
    n = len(pts)
    span = int(pts[-1] - pts[0])
    # pair distribution of Y = |X - X'| via f * f correlation
    f_y = np.zeros(span + 1)
    block = max(1, int(4e6 // max(n, 1)))
    gmd_acc = 0.0
    sq_acc = 0.0
    for i in range(0, n, block):
        seg = slice(i, min(i + block, n))
        dif = np.abs(pts[seg, None] - pts[None, :])
        w = f[seg, None] * f[None, :]
        gmd_acc += float(np.sum(w * dif))
        sq_acc += float(np.sum(w * dif * dif))
        idx = dif.astype(np.int64)
        np.add.at(f_y, idx.ravel(), w.ravel())
    lam = float(f_y[0])
    sd = math.sqrt(sq_acc / 2.0)
    s_y = np.concatenate([np.cumsum(f_y[::-1])[::-1][1:], [0.0]])  # S_Y(t) = P(Y > t)
    tail = np.cumsum(s_y[::-1])[::-1]  # tail[t] = sum_{v >= t} S_Y(v)
    live = s_y > 0
    ts = np.arange(span + 1, dtype=float)[live]
    # m(t) = sum_{w > t} S_Y(w-1) / S_Y(t), and the numerator is tail[t]
    m_vals = tail[live] / s_y[live]
    return LatticeExact(sd=sd, gmd=gmd_acc, lambda_=lam, m_ts=ts, m_values=m_vals)
