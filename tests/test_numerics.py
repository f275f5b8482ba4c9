"""Oracle tests of `numerics.integrate`, the vectorized QUADPACK port.

Each value must lie within its own error estimate, or within the requested
tolerance, of an exact value or a 30-digit mpmath value; on the registry's
continuous laws the moment and GMD integrals must agree with scipy's quad,
and fed the same integrand values the port must return quad's value and
error bit for bit, alone and as a member of a lockstep batch. The column
form of the Gauss-Kronrod rule must give the bits of the per-interval loop
it replaced, which is kept here as its oracle.
"""

from __future__ import annotations

import math
import re

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from dispersion import affine, make_distribution, mix
from dispersion.errors import DivergentTail
from dispersion.numerics import _EPMACH, _GK15, _GK21, _UFLOW, EPSABS, EPSREL, LIMIT, _rule, integrate, integrate_batch

from conftest import STANDARD_INSTANCES

CONTINUOUS = [s for s in STANDARD_INSTANCES if not make_distribution(s).is_lattice]


def _assert_within(value, err, exact):
    assert abs(value - exact) <= max(err, EPSABS, EPSREL * abs(exact))


def test_pole_at_finite_end():
    # weibull(0.5): f(x) = x^(-1/2) e^(-sqrt x) / 2 has a pole at 0
    d = make_distribution("weibull:alpha=0.5")
    _assert_within(*integrate(d.pdf, 0.0, np.inf), 1.0)


def test_heavy_polynomial_tail():
    # gpd(a): E[X^2] = 2 / ((1 - a)(1 - 2a)); at a = 0.45 the integrand decays as x^(-1.22)
    d = make_distribution("gpd:alpha=0.45")
    a = 0.45
    _assert_within(*integrate(lambda x: x * x * d.pdf(x), 0.0, np.inf), 2 / ((1 - a) * (1 - 2 * a)))


def test_interior_kinks():
    # beta(2, 1) on [0, 1] and on [3, 4]: F S has kinks at 1 and 3
    b = make_distribution("beta:alpha=2")
    d = mix([b, affine(b, 1.0, 3.0)], [0.5, 0.5])
    cdf = lambda x: x**2 / 2 if x <= 1 else (mp.mpf(1) / 2 if x <= 3 else (1 + (x - 3) ** 2) / 2)
    with mp.workdps(30):
        exact = float(2 * mp.quad(lambda x: cdf(x) * (1 - cdf(x)), [0, 1, 3, 4]))
    val, err = integrate(lambda x: d.cdf(x) * d.sf(x), 0.0, 4.0)
    _assert_within(2 * val, 2 * err, exact)


def test_doubly_infinite_range():
    # normal-mix: E|X - X'| = sqrt(2/pi) sum_ij w_i w_j sqrt(s_i^2 + s_j^2), means 0
    d = make_distribution("normal-mix")
    w, s = [0.75, 0.25], [0.5, 2.0]
    exact = math.sqrt(2 / math.pi) * sum(
        w[i] * w[j] * math.hypot(s[i], s[j]) for i in range(2) for j in range(2)
    )
    val, err = integrate(lambda x: d.cdf(x) * d.sf(x), -np.inf, np.inf)
    _assert_within(2 * val, 2 * err, exact)


# integrands with a pole, a log singularity, a kink, many oscillations, a
# slowly convergent tail (QUADPACK flags it, code 5) and each infinite map
_QUADPACK_CASES = [
    (lambda x: x**-0.9, 0.0, 1.0),
    (lambda x: math.log(x), 0.0, 1.0),
    (lambda x: abs(x - 0.3), 0.0, 1.0),
    (lambda x: math.sin(50 * x) ** 2, 0.0, 3.0),
    (lambda x: x**-1.0001, 1.0, np.inf),
    (lambda x: math.exp(x), -np.inf, 0.0),
    (lambda x: math.exp(-x * x), -np.inf, np.inf),
]


def _batch(cases):
    """integrate_batch of the scalar integrands `cases` (fn, lo, hi), node by node."""
    fns = [fn for fn, _, _ in cases]
    return integrate_batch(
        lambda x, k: np.array([fns[j](v) for v, j in zip(x.tolist(), k.tolist())]),
        [lo for _, lo, _ in cases],
        [hi for _, _, hi in cases],
    )


def _kind(case):
    return np.isfinite(case[1]), np.isfinite(case[2])


@pytest.mark.parametrize("case", range(len(_QUADPACK_CASES)))
def test_port_matches_quadpack_bit_for_bit(case):
    # fed the same integrand values, the port repeats QUADPACK's arithmetic,
    # alone and in a lockstep batch with the other cases of its range kind
    fn, lo, hi = _QUADPACK_CASES[case]
    want = quad(fn, lo, hi, epsabs=EPSABS, epsrel=EPSREL, limit=LIMIT, full_output=1)[:2]
    assert integrate(lambda x: np.array([fn(v) for v in x.tolist()]), lo, hi) == want
    batch = [c for c in _QUADPACK_CASES if _kind(c) == _kind(_QUADPACK_CASES[case])]
    vals, errs = _batch(batch)
    i = batch.index(_QUADPACK_CASES[case])
    assert (float(vals[i]), float(errs[i])) == want


def test_divergent_integral_is_not_a_silent_number():
    try:
        _, err = integrate(lambda x: 1 / x, 1.0, np.inf)
    except DivergentTail:
        return
    assert err >= 1


def test_divergent_member_of_a_batch_acts_as_alone():
    # 1/x on [1, inf) among convergent integrals: the batch raises as the
    # lone call does, or gives the lone call's number
    cases = [(lambda x: x**-2.0, 1.0, np.inf), (lambda x: 1 / x, 1.0, np.inf), (lambda x: math.exp(-x), 1.0, np.inf)]
    try:
        alone = integrate(lambda x: 1 / x, 1.0, np.inf)
    except DivergentTail as exc:
        with pytest.raises(DivergentTail, match=re.escape(str(exc))):
            _batch(cases)
        return
    vals, errs = _batch(cases)
    assert (float(vals[1]), float(errs[1])) == alone


def test_batch_ranges_share_one_kind_and_may_run_backwards():
    vals, errs = integrate_batch(lambda x, k: np.exp(-x), [1.0, np.inf], [np.inf, 1.0])
    assert vals[1] == -vals[0] and errs[1] == errs[0]
    assert (float(vals[0]), float(errs[0])) == integrate(lambda x: np.exp(-x), 1.0, np.inf)
    with pytest.raises(ValueError):
        integrate_batch(lambda x, k: np.exp(-x), [0.0, 1.0], [1.0, np.inf])


@pytest.mark.parametrize("spec", CONTINUOUS)
def test_parity_with_scipy_quad(spec, instances):
    d = instances[spec]
    lo, hi = d.support.lower, d.support.upper
    integrands = [
        lambda x: x * d.pdf(x),
        lambda x: x * x * d.pdf(x),
        lambda x: d.cdf(x) * d.sf(x),
    ]
    for fn in integrands:
        val, err = integrate(fn, lo, hi)
        ref, ref_err = quad(lambda x: float(fn(x)), lo, hi, epsabs=EPSABS, epsrel=EPSREL, limit=LIMIT)
        assert abs(val - ref) <= err + ref_err


def _loop_rule(g, a, b, rule):
    """The per-interval Gauss-Kronrod loop `_rule` replaced: each interval's
    four sums added in Python floats in the Fortran's order."""
    nodes, sums, weights, _, _ = rule
    (_, *jl), (_, *jr) = sums[:, 0].tolist()
    (wkc, *wk), (wgc, *wg), _ = weights.tolist()
    pairs = list(zip(jl, jr, wk, wg))
    centr = [0.5 * (left + right) for left, right in zip(a, b)]
    hlgth = [0.5 * (right - left) for left, right in zip(a, b)]
    fv = np.asarray(g((np.array(centr)[:, None] + np.array(hlgth)[:, None] * nodes).ravel()), dtype=float)
    out = [], [], [], []
    for f, hl in zip(fv.reshape(len(a), len(nodes)).tolist(), hlgth):
        fc = f[len(pairs)]
        resk, resg = wkc * fc, wgc * fc
        resabs = abs(resk)
        for jl, jr, wk, wg in pairs:
            f1, f2 = f[jl], f[jr]
            resg += wg * (f1 + f2)
            resk += wk * (f1 + f2)
            resabs += wk * (abs(f1) + abs(f2))
        reskh = resk * 0.5
        resasc = wkc * abs(fc - reskh)
        for jl, jr, wk, _ in sorted(pairs):
            resasc += wk * (abs(f[jl] - reskh) + abs(f[jr] - reskh))
        resabs, resasc = resabs * abs(hl), resasc * abs(hl)
        abserr = abs((resk - resg) * hl)
        if resasc != 0 and abserr != 0:
            abserr = resasc * min(1.0, (200 * abserr / resasc) ** 1.5)
        if resabs > _UFLOW / (50 * _EPMACH):
            abserr = max(50 * _EPMACH * resabs, abserr)
        for column, v in zip(out, (resk * hl, abserr, resabs, resasc)):
            column.append(v)
    return out


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308, 1e-310, 1e300, -1e300]


def _rows(rng, width, n_nodes):
    """Integrand rows: smooth, rough and constant rows, sprinkled with zeros
    of both signs, infinities, NaN, subnormals and 1e300."""
    smooth = np.exp(-np.linspace(0, 3, n_nodes)) * rng.uniform(-2, 2, (width, 1))
    f = np.where(rng.random((width, 1)) < 0.3, rng.standard_normal((width, n_nodes)), smooth)
    f[rng.random(width) < 0.1] = rng.choice([1.0, 1e300, 5e-324, 0.0, -0.0])
    spots = rng.random((width, n_nodes)) < 0.05
    f[spots] = rng.choice(_SPECIAL, size=int(spots.sum()))
    return f


def _outcome(fn):
    """Each column's bits (every NaN as one: IEEE 754 leaves the sign and
    payload of a NaN to the order the hardware takes an add's operands in), or
    the exception raised."""
    try:
        return [np.where(np.isnan(column), np.nan, column).view(np.int64).tolist() for column in fn()]
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc).__name__


def _near_overflow(rule):
    """Rows of +-M, M near half the largest double, -M on the Gauss nodes:
    for some M, resabs is finite while resasc and abserr overflow, so the
    error scaling takes min(1.0, nan), from inf / inf, and then max(floor,
    inf)."""
    nodes, sums, weights, _, _ = rule
    gauss = np.zeros(len(nodes) + 1, dtype=bool)
    gauss[sums[:, 0, weights[1] > 0]] = True
    gauss = gauss[: len(nodes)]
    return np.linspace(8.8e307, 9e307, 300)[:, None] * np.where(gauss, -1.0, 1.0)


@pytest.mark.parametrize("rule", [_GK21, _GK15], ids=["gk21", "gk15"])
def test_column_rule_is_the_per_interval_loop_bit_for_bit(rule):
    rng = np.random.default_rng(2024)
    n_nodes = len(rule[0])
    batches = []
    for width in range(1, 301):
        a = rng.uniform(-5, 5, width).tolist()
        b = (np.array(a) + rng.choice([1.0, -1.0, 0.0, 1e-300, 1e200], width) * rng.random(width)).tolist()
        batches.append((_rows(rng, width, n_nodes), a, b))
    batches.append((_near_overflow(rule), [0.0] * 300, [2.0] * 300))
    for f, a, b in batches:
        g = lambda x: f.ravel()
        with np.errstate(all="ignore"):
            want = _outcome(lambda: _loop_rule(g, a, b, rule))
            got = _outcome(lambda: _rule(g, a, b, rule))
        assert got == want, len(a)
