"""Distribution construction, registry consistency, and combinators."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from dispersion import (
    Support,
    affine,
    classify,
    convolve,
    dispersion_report,
    errors,
    make_distribution,
    mean_excess,
    mean_excess_abs_diff,
    mix,
    parse_family_spec,
    truncate,
)
from dispersion import measures as measures_module
from dispersion import numerics as numerics_module
from dispersion.combinators import _convolve_numeric
from dispersion.dist import (
    CONTINUOUS,
    END_PASS,
    GUIDE,
    INV_LOGIT,
    INV_TOL,
    LATTICE,
    LATTICE_LIMIT,
    SCAN_CLIP,
    SCAN_POINTS,
    SUM_CUT,
    Distribution,
    _horner,
)
from dispersion.numerics import bisect_increasing, integrate

from conftest import STANDARD_INSTANCES


# ---------------------------------------------------------------------------
# parsing and parameter domains
# ---------------------------------------------------------------------------


def test_parse_basic():
    spec = parse_family_spec("gpd:alpha=0.25")
    assert spec.family == "gpd"
    assert spec.params == {"alpha": 0.25}


def test_parse_multi_param():
    spec = parse_family_spec("normal-mix:sigma1=0.5,sigma2=2,q=0.75")
    assert spec.params == {"sigma1": 0.5, "sigma2": 2.0, "q": 0.75}


def test_parse_rejects_unknown_family():
    with pytest.raises(errors.UnknownFamily):
        parse_family_spec("cauchy:gamma=1")


def test_parse_rejects_garbage():
    with pytest.raises(errors.ParseError):
        parse_family_spec("gamma:alpha")
    with pytest.raises(errors.ParseError):
        parse_family_spec("gamma:alpha=abc")


def test_placeholder_needs_flag():
    with pytest.raises(errors.ParseError):
        parse_family_spec("gamma:alpha=_")
    spec = parse_family_spec("gamma:alpha=_", allow_placeholder=True)
    assert np.isnan(spec.params["alpha"])


@pytest.mark.parametrize(
    "spec",
    ["gpd:alpha=0.5", "gpd:alpha=-0.1", "zipf:alpha=2", "geometric:p=0",
     "geometric:p=1", "negbinomial:r=0,p=0.5", "poisson:theta=0",
     "gamma:alpha=0", "normal:sigma=0", "normal-mix:q=1"],
)
def test_param_domains_enforced(spec):
    with pytest.raises(errors.ParamOutOfDomain) as exc:
        make_distribution(spec)
    # the error names the offending parameter and its legal range
    assert exc.value.name in spec
    assert exc.value.legal


def test_unknown_parameter_name():
    with pytest.raises(errors.ParseError):
        make_distribution("gamma:shape=2")


def test_missing_required_parameter():
    with pytest.raises(errors.ParseError):
        make_distribution("gamma")


def test_support_validation():
    with pytest.raises(ValueError):
        Support(2.0, 1.0, CONTINUOUS)
    with pytest.raises(ValueError):
        Support(0.5, 4.0, LATTICE)


# ---------------------------------------------------------------------------
# registry-wide consistency (the dist_core invariants)
# ---------------------------------------------------------------------------


def quantile_grid(d, n: int) -> np.ndarray:
    """n quantile-spaced points over [q(1e-6), q(1 - 1e-6)] on a continuous
    law, every lattice point of mass >= SUM_CUT on a lattice one."""
    if d.is_lattice:
        return d.probe_grid()
    return np.maximum.accumulate(np.asarray(d.quantile(np.linspace(1e-6, 1 - 1e-6, n)), float))


@pytest.mark.parametrize("spec", STANDARD_INSTANCES)
def test_cdf_sf_complement_and_monotone(spec, instances):
    d = instances[spec]
    xs = quantile_grid(d, 64)
    gap = np.abs(np.asarray(d.cdf(xs)) + np.asarray(d.sf(xs)) - 1.0)
    if d.is_lattice:
        # complement holds to one or two float roundings (exact convention)
        assert float(gap.max()) <= 5e-16
    else:
        assert float(gap.max()) <= 1e-12
    cdf = np.asarray(d.cdf(xs), float)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert float(d.cdf(d.support.lower - 1.0)) <= 1e-9
    hi = d.support.upper
    probe_hi = hi if np.isfinite(hi) else float(d.quantile(1 - 1e-13)) + 1
    assert float(d.cdf(probe_hi)) >= 1 - 1e-9


@pytest.mark.parametrize("spec", STANDARD_INSTANCES)
def test_total_mass_is_one(spec, instances):
    d = instances[spec]
    if d.is_lattice:
        pts = d.lattice_points(1e-12).astype(float)
        total = float(np.sum(np.asarray(d.pdf(pts), float)))
    else:
        total, _ = integrate(d.pdf, d.support.lower, d.support.upper)
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("spec", STANDARD_INSTANCES)
def test_quantile_inverts_cdf(spec, instances):
    d = instances[spec]
    ps = np.array([1e-4, 0.1, 0.25, 0.5, 0.75, 0.9, 1 - 1e-4])
    xs = np.asarray(d.quantile(ps), float)
    assert np.all(np.diff(xs) >= 0)
    if d.is_lattice:
        # smallest lattice x with F(x) >= p
        assert np.all(np.asarray(d.cdf(xs), float) >= ps - 1e-12)
        assert np.all(np.asarray(d.cdf(xs - 1.0), float) < ps + 1e-12)
    else:
        assert np.allclose(np.asarray(d.cdf(xs), float), ps, atol=1e-10)


# continuous laws without a closed-form ppf invert through the table;
# truncations, a density pole, a reflection and a numeric convolution ride along
_TABLE_LAWS = {
    spec: lambda spec=spec: make_distribution(spec)
    for spec in STANDARD_INSTANCES
    if (d := make_distribution(spec)).ppf is None and not d.is_lattice
}
_TABLE_LAWS.update({
    "truncate(damped-hazard:theta=0.1,lower,10)":
        lambda: truncate(make_distribution("damped-hazard:theta=0.1"), "lower", 10.0),
    "truncate(normal-mix,lower,2)":
        lambda: truncate(make_distribution("normal-mix"), "lower", 2.0),
    # lower truncations of laws with a ppf, whose quantiles read the table too
    "truncate(normal,lower,6)":
        lambda: truncate(make_distribution("normal"), "lower", 6.0),
    "truncate(gamma:alpha=2,lower,40)":
        lambda: truncate(make_distribution("gamma:alpha=2"), "lower", 40.0),
    "truncate(weibull:alpha=0.5,lower,400)":
        lambda: truncate(make_distribution("weibull:alpha=0.5"), "lower", 400.0),
    "mix(weibull:alpha=0.6,gamma:alpha=0.5)":
        lambda: mix([make_distribution("weibull:alpha=0.6"),
                     make_distribution("gamma:alpha=0.5")], [0.5, 0.5]),
    "affine(erf-hazard,-1,0)":
        lambda: affine(make_distribution("erf-hazard"), -1.0, 0.0),
    "convolve(logistic,normal)":
        lambda: convolve(make_distribution("logistic"), make_distribution("normal")),
})


@pytest.mark.parametrize("name", list(_TABLE_LAWS))
def test_table_quantile_matches_bisection(name):
    d = _TABLE_LAWS[name]()
    nodes = d._inverse_table()[0]
    ps = np.unique(np.concatenate([[1e-15, 1e-13], nodes[::32], [0.5, 1 - 1e-13]]))
    xs = np.asarray(d.quantile(ps), float)
    assert np.all(np.isfinite(xs))
    assert np.all(np.diff(xs) >= 0)
    lo, hi = d.support.lower, d.support.upper
    low = ps <= 0.5
    # 200 halvings resolve x beside a density pole at a finite end
    ref_lo = bisect_increasing(d.cdf, ps[low], lo, hi, 200)
    ref_hi = bisect_increasing(lambda x: -d.sf(x), -(1 - ps[~low]), lo, hi, 200)
    gap_lo = np.abs(np.asarray(d.cdf(xs[low])) - np.asarray(d.cdf(ref_lo)))
    gap_hi = np.abs(np.asarray(d.sf(xs[~low])) - np.asarray(d.sf(ref_hi)))
    assert float(gap_lo.max()) <= 1e-12
    assert float(gap_hi.max()) <= 1e-12


def _max_residual(d, u, table=False):
    # cdf for u <= 1/2, sf against 1 - u above
    x = np.asarray(d.quantile(u, table=table), float)
    low = u <= 0.5
    return float(np.max(np.abs(np.concatenate([d.cdf(x[low]) - u[low], (1 - u[~low]) - d.sf(x[~low])]))))


@pytest.mark.parametrize("name", [n for n in _TABLE_LAWS if not n.startswith("convolve")])
def test_inverse_residual_on_random_draws(name):
    d = _TABLE_LAWS[name]()
    assert _max_residual(d, Generator(Philox(key=2024)).random(200_000)) <= 1e-12


@pytest.mark.parametrize("name", [n for n in _TABLE_LAWS if not n.startswith("convolve")])
def test_inverse_residual_on_every_sub_interval(name):
    # each node and quarter point of every sub-interval of the refined
    # inverse: a node left off by its one Newton step shows here first
    d = _TABLE_LAWS[name]()
    u = d._inverse_table()[0]
    sizes, _, scale, _ = d._hermite_table()
    k = np.repeat(np.arange(len(sizes)), 4 * sizes)
    steps = np.concatenate([np.arange(4 * m) for m in sizes]) / 4
    assert _max_residual(d, u[k] + steps / scale[k]) <= 1e-12


@pytest.mark.parametrize("spec", ["normal", "gamma:alpha=2", "weibull:alpha=0.5", "gamma:alpha=0.05", "erf-hazard"])
def test_table_read_is_the_horner_cubic_bit_for_bit(spec):
    # the in-place read against the plain one: node interval by logit
    # arithmetic, sub-interval, then _horner on the gathered row
    d = make_distribution(spec)
    d.ppf = None  # every target reads a cubic; NaN where uncertified
    u, _, _ = d._inverse_table()
    sizes, offsets, scale, coef = d._hermite_table()
    p = np.concatenate([u, np.nextafter(u, 0), np.nextafter(u, 1), Generator(Philox(key=2024)).random(20_000)])
    p = p[(p >= u[0]) & (p <= u[-1])]
    n = len(u) - 1
    k = np.clip(((np.log(p) - np.log1p(-p) + INV_LOGIT) * (n / (2 * INV_LOGIT))).astype(int), 0, n - 1)
    s = (p - u[k]) * scale[k]
    j = np.clip(s.astype(int), 0, sizes[k] - 1)
    want = _horner(coef[offsets[k] + j], s - j)
    got = d._invert(p)
    keep = ~np.isnan(want)  # uncertified targets are solved by the node solver instead
    assert keep.sum() > len(p) // 4
    assert np.array_equal(got[keep], want[keep])


def test_uncertified_intervals_are_solved(monkeypatch):
    # with one halving allowed most intervals stay above 1e-12 and hold NaN
    # cubics; the node solver answers their targets, still within 1e-12
    monkeypatch.setattr("dispersion.dist.INV_LEVELS", 1)
    d = make_distribution("normal-mix")
    assert np.isnan(d._hermite_table()[3][:, 0]).any()
    assert _max_residual(d, Generator(Philox(key=2024)).random(20_000)) <= 1e-12


def _pole_mixture():
    # half the mass on gamma(0.05), whose density has a pole at 0: its
    # quantiles below 1e-12 sit near 1e-255 and below
    return mix([make_distribution("gamma:alpha=0.05"), make_distribution("gamma:alpha=2")], [0.5, 0.5])


@pytest.mark.parametrize("p", [1e-15, 1e-14, 1e-13])
def test_quantiles_beyond_the_table_keep_relative_accuracy(p):
    # a bisection in x between the support end and the first node cannot
    # resolve x near 1e-257; the node solver's steps in log x do
    d = _pole_mixture()
    q = 1.0 - p  # its distance from 1, 1 - q, is exact
    lo, hi = d.quantile(np.array([p, q]))
    assert abs(float(d.cdf(lo)) / p - 1.0) <= 1e-12
    assert abs(float(d.sf(hi)) / (1.0 - q) - 1.0) <= 1e-12


def test_draws_in_uncertified_sub_intervals_are_not_bisected(monkeypatch):
    # about half of 20,000 unsorted draws fall in uncertified sub-intervals;
    # solved in sorted order, none fails the node solver's order check and
    # goes on to a full bisection
    monkeypatch.setattr("dispersion.dist.bisect_increasing", lambda *a, **k: pytest.fail("target bisected"))
    d = _pole_mixture()
    assert np.isnan(d._hermite_table()[3][:, 0]).any()
    assert _max_residual(d, Generator(Philox(key=2024)).random(20_000)) <= 1e-12


# laws with a ppf, whose inverse table quantile(table=True) reads all the same
_PPF_LAWS = {
    **{spec: lambda spec=spec: make_distribution(spec) for spec in (
        "gamma:alpha=2", "gamma:alpha=0.3", "beta:alpha=2", "weibull:alpha=0.5",
        "normal", "gpd:alpha=0.25", "logistic")},
    "affine(gamma:alpha=2,-2,1)": lambda: affine(make_distribution("gamma:alpha=2"), -2.0, 1.0),
    "truncate(gamma:alpha=0.5,upper,3)":
        lambda: truncate(make_distribution("gamma:alpha=0.5"), "upper", 3.0),
}


@pytest.mark.parametrize("name", list(_PPF_LAWS))
def test_table_draws_are_certified_on_ppf_laws(name):
    d = _PPF_LAWS[name]()
    assert d.ppf is not None
    assert _max_residual(d, Generator(Philox(key=2024)).random(200_000), table=True) <= 1e-12


@pytest.mark.parametrize("table", [False, True])
@pytest.mark.parametrize("name", list(_TABLE_LAWS) + list(_PPF_LAWS))
def test_quantile_ends_are_support_ends(name, table):
    # p = 0 and p = 1 answer the support ends without a ppf call or a table
    d = (_TABLE_LAWS.get(name) or _PPF_LAWS[name])()
    if d.ppf is not None:
        d.ppf = lambda p: pytest.fail("ppf called at p = 0 or 1")
    lo, hi = d.support.lower, d.support.upper
    assert d.quantile(0.0, table=table) == lo
    assert d.quantile(1.0, table=table) == hi
    got = d.quantile(np.array([1.0, np.nan, 0.0, 0.0]), table=table)
    assert got[0] == hi and np.isnan(got[1]) and (got[2:] == lo).all()
    assert "inverse" not in d._cache


@pytest.mark.parametrize("name", list(_PPF_LAWS))
def test_inverse_table_of_a_ppf_law_is_one_ppf_call(name, monkeypatch):
    # nodes are ppf(u), checked and kept: no node is bisected or stepped
    d = _PPF_LAWS[name]()
    calls = []
    ppf = d.ppf
    d.ppf = lambda p: calls.append(np.size(p)) or ppf(p)
    for fn in ("bisect_increasing", "narrow_increasing"):
        monkeypatch.setattr(f"dispersion.dist.{fn}", lambda *a, **k: pytest.fail("node solved by bisection"))
    u, x, _ = d._inverse_table()
    assert calls == [len(u)]
    lo, hi = d.support.lower, d.support.upper
    assert np.array_equal(x, np.clip(ppf(u), lo, hi))


@pytest.mark.parametrize("spec", list(_TABLE_LAWS))
def test_inverse_table_nodes_take_few_law_calls(spec, monkeypatch):
    # eight halvings and Newton steps per half, and for a node they miss the
    # steps again, going to the bracket end they overshoot: no node falls
    # back to a full bisection, whose 72 halvings per half alone make 144 calls
    d = _TABLE_LAWS[spec]()
    calls = []
    for name in ("pdf", "cdf", "sf"):
        fn = getattr(d, name)
        setattr(d, name, lambda x, fn=fn: calls.append(np.size(x)) or fn(x))
    monkeypatch.setattr("dispersion.dist.bisect_increasing", lambda *a, **k: pytest.fail("node bisected"))
    u, x, _ = d._inverse_table()
    assert len(calls) < 72
    low = u <= 0.5
    assert np.abs(d.cdf(x[low]) - u[low]).max() <= 1e-12
    assert np.abs(d.sf(x[~low]) - (1 - u[~low])).max() <= 1e-12
    assert np.all(np.diff(x) >= 0)


def test_newton_steps_reach_a_root_beside_their_bracket_end():
    # the symmetric convolve(logistic, normal) has its median a rounding
    # error above 0, the lower end of the bracket the halvings leave; each
    # Newton step from inside overshoots that end, so the midpoints it is
    # replaced by never come near the root, and the step from the end does
    d = _TABLE_LAWS["convolve(logistic,normal)"]()
    u = np.array([0.5])
    assert abs(float(d.cdf(d._solve_nodes(u, newton=True)[0])) - 0.5) > INV_TOL
    assert abs(float(d.cdf(d._solve_nodes(u, newton=True, to_end=True)[0])) - 0.5) <= INV_TOL


def _two_sided_search(d, p):
    # the lattice quantile as one search per side over every target
    pts, _, cum, sf = d.lattice_table()
    idx = np.where(
        p > 0.5,
        np.searchsorted(-sf, -(1.0 - p) * (1 + 1e-15)),
        np.searchsorted(cum, p * (1 - 1e-15)),
    )
    inside = (p > float(d.cdf(pts[0] - 1.0))) & (idx < len(pts))
    out = pts[np.where(inside, idx, 0)]
    out[~inside] = d._beyond(p[~inside], pts[0], pts[-1])
    return out


_GUIDE_LAWS = {
    **{s: lambda s=s: make_distribution(s) for s in STANDARD_INSTANCES if make_distribution(s).is_lattice},
    "mix(zipf:alpha=2.5,poisson:theta=2)":
        lambda: mix([make_distribution("zipf:alpha=2.5"), make_distribution("poisson:theta=2")], [0.5, 0.5]),
    "affine(zipf:alpha=2.5,-1,0)": lambda: affine(make_distribution("zipf:alpha=2.5"), -1.0, 0.0),
}


@pytest.mark.parametrize("name", list(_GUIDE_LAWS))
def test_lattice_guide_matches_the_two_sided_search(name):
    d = _GUIDE_LAWS[name]()
    edges = np.arange(GUIDE + 1) / GUIDE
    half = np.array([0.5, np.nextafter(0.5, 0), np.nextafter(0.5, 1)])
    p = np.concatenate([
        Generator(Philox(key=2024)).random(200_000),
        edges, np.nextafter(edges, 0), np.nextafter(edges, 1), half, [0.0, 1e-15, 1 - 1e-15],
    ])
    p = p[(p >= 0) & (p <= 1)]
    assert np.array_equal(d.quantile(p), _two_sided_search(d, p))
    assert "guide" in d._cache
    # a resolved bucket holds the search's index at both of its ends
    guide = d._lattice_guide()[0]
    b = np.flatnonzero(guide >= 0)
    assert b.size > GUIDE // 2
    pts = d.lattice_table()[0]
    assert np.array_equal(pts[guide[b]], _two_sided_search(d, edges[b]))
    assert np.array_equal(pts[guide[b]], _two_sided_search(d, np.nextafter(edges[b + 1], 0)))


def _lattice_law(lower, cdf, sf):
    # a lattice law on [lower, 3] from its cdf and sf at the integers
    def col(fn):
        return lambda x: np.asarray(fn(np.floor(np.asarray(x, float))), float)

    pmf = lambda x: np.where(np.asarray(x) == np.floor(x), cdf(x) - cdf(np.asarray(x) - 1.0), 0.0)
    return Distribution(support=Support(lower, 3.0, LATTICE), pdf=pmf, cdf=col(cdf), sf=col(sf), label="odd")


def _pick(v, lo, hi):
    # the column v at the integers 0..3, lo below them and hi above
    return lambda k: np.where(k < 0, lo, np.where(k >= 3, hi, v[np.clip(k, 0, 3).astype(int)]))


def _floor_law():
    # a lattice law on (-inf, 3] without tail_sums: cdf 0.3, 0.5, 0.8, 1 at
    # 0..3 and a geometric head 1e-13 2^(k + 1) below 0, ratio 1/2, so its
    # downward enumeration stops at 0, whose mass is > 1 / GUIDE
    body = _pick(np.array([0.3, 0.5, 0.8, 1.0]), 0.0, 1.0)
    head = lambda k: np.where(k < 0, 1e-13 * np.exp2(np.minimum(k, 0) + 1), body(k))
    return _lattice_law(-np.inf, head, lambda k: 1.0 - head(k))


def test_lattice_guide_keeps_the_search_beside_half_and_floor():
    # the search changes column inside the bucket starting at 1/2, from cdf
    # to sf; every call reads the guide, so these three targets test it
    cum = np.array([0.2, 0.4999, 0.7, 1.0])
    half = _lattice_law(0.0, _pick(cum, 0.0, 1.0), _pick(1.0 - cum, 1.0, 0.0))
    p = np.array([0.5, np.nextafter(0.5, 1), 0.5 + 1 / (2 * GUIDE)])
    assert half._lattice_guide()[0][GUIDE // 2] == -1
    assert np.array_equal(half.quantile(p), _two_sided_search(half, p))
    assert half.quantile(p).tolist() == [2.0, 2.0, 2.0]
    # a downward enumeration whose first point holds mass > 1 / GUIDE: its
    # first bucket reaches down to cdf below the table
    floor = _floor_law()
    assert floor.lattice_table()[0][0] == 0.0
    p = np.array([0.0, 1e-14, 1e-13, 2e-13, 1 / GUIDE])
    assert np.array_equal(floor.quantile(p), _two_sided_search(floor, p))
    assert floor.quantile(1e-14) < 0.0


def test_curve_of_a_law_unbounded_below_reads_its_reflection():
    # Y = |X - X'| of the floor law passes t >= 3 only through a point of the
    # head its table leaves out: m_Y(t) = 2 there, the mean excess of a
    # geometric tail of ratio 1/2
    c = mean_excess_abs_diff(_floor_law(), np.arange(3.0, 32.0))
    assert np.allclose(c.m_direct, 2.0, rtol=1e-14, atol=0)
    assert np.allclose(c.m_repr, 2.0, rtol=1e-14, atol=0)


def test_shifted_means_refuses_a_lattice_law_unbounded_below():
    with pytest.raises(errors.UnsupportedKind, match="mean_excess_abs_diff"):
        _floor_law().shifted_means([0.0])


def test_shifted_means_refuses_a_negative_t():
    with pytest.raises(ValueError, match="t >= 0"):
        make_distribution("poisson:theta=2").shifted_means([0.0, -1.0])


# laws with no split interval and no head, and the tolerance in eps. The
# truncation's sf is exp(-H) / exp(-H(10)), H(10) = 36.4, so each value
# carries a rounding error near 36 eps; for t > 0 the two sums below take sf
# at different points (the outer nodes plus t, the stop-loss table's own
# nodes), and on a 640-point grid of t they differ by up to 9.3 eps
_SHIFTED_MEANS_LAWS = {
    "weibull:alpha=0.5": 8, "gamma:alpha=0.5": 8, "gamma:alpha=2": 8, "gpd:alpha=0.45": 8,
    "weibull:alpha=2.5": 8, "damped-hazard:theta=0.1": 8, "truncate(damped-hazard:theta=0.1,lower,10)": 16,
}


@pytest.mark.parametrize("spec", list(_SHIFTED_MEANS_LAWS))
def test_shifted_means_match_every_node_read(spec):
    # E[Pi(X + t)] read from the table once per outer interval, at its right
    # end b_k + t, plus V . S, is the sum over every outer node of the
    # table's read of Pi(x + t); E[S(X + t)] is that sum of sf
    if spec.startswith("truncate"):
        d = truncate(make_distribution("damped-hazard:theta=0.1"), "lower", 10.0)
    else:
        d = make_distribution(spec)
    ts = np.linspace(0.0, 6.0, 32)
    den, num = d.shifted_means(ts)
    x, w = d._outer_panels()[:2]
    want_den = np.array([np.sum(w * d.sf(x + t)) for t in ts])
    want_num = np.array([np.sum(w * d.stop_loss(x + t)) for t in ts])
    tol = _SHIFTED_MEANS_LAWS[spec] * np.finfo(float).eps
    assert np.max(np.abs(den - want_den) / want_den) <= tol
    assert np.max(np.abs(num - want_num) / want_num) <= tol


@pytest.mark.parametrize(
    "name", list(_TABLE_LAWS) + [s for s in STANDARD_INSTANCES if make_distribution(s).is_lattice]
)
def test_table_keyword_changes_nothing_without_ppf(name):
    # laws without a ppf, and lattice laws, already answer from their tables
    d = _TABLE_LAWS[name]() if name in _TABLE_LAWS else make_distribution(name)
    assert d.ppf is None
    edges = [0.0, 1e-15, 1e-13, 0.5, 1 - 1e-13, 1 - 1e-15, 1.0]
    u = np.concatenate([edges, Generator(Philox(key=2024)).random(20_000)])
    assert np.array_equal(d.quantile(u), d.quantile(u, table=True))


@pytest.mark.parametrize("spec", ["beta:alpha=0.5,beta=0.5", "gamma:alpha=0.05"])
def test_uncertified_sub_intervals_read_the_ppf(spec):
    d = make_distribution(spec)
    nodes = d._inverse_table()[0]
    sizes, offsets, scale, coef = d._hermite_table()
    k = np.repeat(np.arange(len(sizes)), sizes)
    j = np.arange(len(coef)) - offsets[k]
    rows = np.flatnonzero(np.isnan(coef[:, 0]))
    assert rows.size > 100
    # one target in the middle half of each uncertified sub-interval, clear of
    # its edges, where index rounding may pick a neighbour
    r = Generator(Philox(key=2024)).uniform(0.25, 0.75, rows.size)
    u = nodes[k[rows]] + (j[rows] + r) / scale[k[rows]]
    assert np.array_equal(d.quantile(u, table=True), d.ppf(u))


@pytest.mark.parametrize("spec", ["erf-hazard", "normal", "poisson:theta=2"])
@pytest.mark.parametrize("table", [False, True])
def test_quantile_of_invalid_targets_is_nan(spec, table):
    d = make_distribution(spec)
    bad = np.array([np.nan, -0.1, 1.1, -np.inf, np.inf])
    assert np.isnan(d.quantile(bad, table=table)).all()
    assert np.isnan(d.quantile(np.nan, table=table))
    # valid targets beside them are answered as on their own
    mixed = d.quantile(np.array([np.nan, 0.3, 1.1, 0.9]), table=table)
    assert np.isnan(mixed[[0, 2]]).all()
    assert np.array_equal(mixed[[1, 3]], d.quantile(np.array([0.3, 0.9]), table=table))


# (law, reflection offset or None, p, smallest x with cdf(x) >= p), each
# past the end of the law's SUM_CUT table: upward, and downward for laws
# reflected by affine(d, -1, offset)
_FAR_LATTICE_QUANTILES = [
    ("zipf:alpha=2.5", None, 1 - 1e-13, 104723),
    ("zipf:alpha=2.5", None, 1 - 1e-15, 661050),
    ("zipf:alpha=3", None, 1 - 1e-15, 67550),
    ("poisson:theta=2", None, 1 - 1e-15, 21),
    ("zipf:alpha=3", 0.0, 1e-16, -145492),
    ("geometric:p=0.2", 5.0, 1e-16, -160),
]


@pytest.mark.parametrize("spec,offset,p,want", _FAR_LATTICE_QUANTILES)
def test_lattice_quantile_beyond_table_is_exact(spec, offset, p, want):
    d = make_distribution(spec)
    if offset is not None:
        d = affine(d, -1.0, offset)
    x = float(d.quantile(p))
    assert x == want
    pts = d.lattice_table()[0]
    assert not pts[0] <= x <= pts[-1]
    # the column that resolves this tail: sf above the median, cdf below
    if p > 0.5:
        assert float(d.sf(x)) <= 1 - p < float(d.sf(x - 1))
    else:
        assert float(d.cdf(x - 1)) < p <= float(d.cdf(x))


_zipf3 = lambda: make_distribution("zipf:alpha=3")
_LATTICE_ENDS = {
    "zipf(3)@1e-12": (_zipf3, 1e-12, (1, 6753)),
    "zipf(3)@1e-15": (_zipf3, 1e-15, (1, 67532)),
    "zipf(4)@1e-15": (lambda: make_distribution("zipf:alpha=4"), 1e-15, (1, 3940)),
    "poisson(2)@1e-15": (lambda: make_distribution("poisson:theta=2"), 1e-15, (0, 21)),
    "negbinomial(0.5,0.5)@1e-12":
        (lambda: make_distribution("negbinomial:r=0.5,p=0.5"), 1e-12, (0, 36)),
    "affine(zipf(3),-1,0)@1e-12": (lambda: affine(_zipf3(), -1.0, 0.0), 1e-12, (-6753, -1)),
    "affine(geometric(0.4),-1,7)@1e-15":
        (lambda: affine(make_distribution("geometric:p=0.4"), -1.0, 7.0), 1e-15, (-60, 7)),
    "affine(geometric(0.4),1,1e6)@1e-12":
        (lambda: affine(make_distribution("geometric:p=0.4"), 1.0, 1e6), 1e-12,
         (1000000, 1000054)),
    "truncate(zipf(3),lower,10)@1e-12":
        (lambda: truncate(_zipf3(), "lower", 10.0), 1e-12, (11, 105158)),
    "mix(poisson(2),zipf(3))@1e-12":
        (lambda: mix([make_distribution("poisson:theta=2"), _zipf3()], [0.5, 0.5]), 1e-12,
         (0, 5360)),
}


@pytest.mark.parametrize("name", list(_LATTICE_ENDS))
def test_lattice_points_ends(name):
    build, cut, ends = _LATTICE_ENDS[name]
    pts = build().lattice_points(cut)
    assert (int(pts[0]), int(pts[-1])) == ends
    assert np.array_equal(pts, np.arange(ends[0], ends[1] + 1))


@pytest.mark.parametrize("build,cut", [
    (lambda: make_distribution("zipf:alpha=2.5"), 1e-15),
    (lambda: make_distribution("zipf:alpha=2.1"), 1e-14),
    (lambda: truncate(make_distribution("poisson:theta=2"), "upper", float(LATTICE_LIMIT)), 1e-12),
])
def test_lattice_points_limit(build, cut):
    with pytest.raises(errors.SupportTooLarge):
        build().lattice_points(cut)


def test_lattice_points_at_limit():
    d = truncate(make_distribution("poisson:theta=2"), "upper", float(LATTICE_LIMIT - 1))
    assert len(d.lattice_points()) == LATTICE_LIMIT


@pytest.mark.parametrize("spec", [s for s in STANDARD_INSTANCES if make_distribution(s).is_lattice] + [
    "geometric:p=0.0001", "poisson:theta=100000", "zipf:alpha=2.2",
])
def test_lattice_points_end_where_a_bisection_ends(spec):
    # 20 halvings of [lower, lower + LATTICE_LIMIT] bring the end within 1/4
    # point of the first k with sf(k) <= SUM_CUT: the search ends on the same k
    d = make_distribution(spec)
    lo = d.support.lower
    end = bisect_increasing(lambda x: -d.sf(x), [-SUM_CUT], lo, lo + LATTICE_LIMIT, 20)[0]
    pts = d.lattice_points()
    assert (pts[0], pts[-1]) == (lo, round(end))
    refl = affine(d, -1.0, 0.0)
    start = bisect_increasing(refl.cdf, [SUM_CUT], -lo - LATTICE_LIMIT, -lo, 20)[0]
    pts = refl.lattice_points()
    assert (pts[0], pts[-1]) == (round(start), -lo)


def test_lattice_end_search_takes_a_few_vectorized_calls():
    d = make_distribution("zipf:alpha=2.5")
    sizes = []
    sf = d.sf
    d.sf = lambda x: sizes.append(np.size(x)) or sf(x)
    pts = d.lattice_points()
    assert pts[-1] == 41696.0
    assert len(sizes) <= 4 and max(sizes) <= END_PASS


def _mp_tail_sums(pmf, m):
    # (mass, sum x f, sum x^2 f, sum S) over x > m, the last as the sum of
    # (x - m - 1) f(x) over x >= m + 2, to 50 digits; also the two terms the
    # law's formula for it subtracts, sum x f and (m + 1) sum f over x >= m + 2;
    # the pmfs are unimodal, so a term 1e-60 of the first one ends the sums
    with mp.workdps(50):
        acc = [mp.mpf(0)] * 6
        x, first = m + 1, pmf(mp.mpf(m + 1))
        while True:
            f = pmf(mp.mpf(x))
            late = x >= m + 2
            for i, t in enumerate((f, x * f, x * x * f, (x - m - 1) * f, late * x * f, late * (m + 1) * f)):
                acc[i] += t
            if f < first * mp.mpf(10) ** -60:
                return acc
            x += 1


# (pmf at 50 digits, an m near the mean)
_TAIL_PMFS = {
    "poisson:theta=2.5": (lambda x: mp.exp(-mp.mpf(2.5)) * mp.mpf(2.5) ** x / mp.factorial(x), 3),
    "negbinomial:r=0.5,p=0.5":
        (lambda x: mp.gamma(x + 0.5) / (mp.gamma(0.5) * mp.factorial(x)) * mp.mpf(0.5) ** (x + 0.5), 1),
    "geometric:p=0.3": (lambda x: mp.mpf(0.3) * (1 - mp.mpf(0.3)) ** x, 2),
}


@pytest.mark.parametrize("spec", list(_TAIL_PMFS))
def test_lattice_tail_sums_match_mpmath(spec):
    # at m = 0, near the mean, at the table's top and at ten times the top
    d = make_distribution(spec)
    pmf, near_mean = _TAIL_PMFS[spec]
    top = int(d.lattice_table()[0][-1])
    for m in (0, near_mean, top, 10 * top):
        *want, a, b = _mp_tail_sums(pmf, m)
        got = d.tail_sums(m)
        # the special functions, and the pmf p exp(k log q) the geometric's
        # closed forms sum, keep 2e-13 relative out to k = 800
        for g, w in zip(got[:3], want[:3]):
            assert g == pytest.approx(float(w), rel=2e-13, abs=0), m
        # the sum of S subtracts its two terms, losing what they cancel
        cancel = float((a + b) / (a - b))
        assert got[3] == pytest.approx(float(want[3]), rel=2e-13 * cancel, abs=0), m


# ---------------------------------------------------------------------------
# spec'd construction examples
# ---------------------------------------------------------------------------


def test_gpd_survival_closed_form():
    d = make_distribution("gpd:alpha=0.25")
    xs = np.array([0.0, 0.5, 1.0, 2.0, 10.0])
    assert np.allclose(d.sf(xs), (1 + 0.25 * xs) ** -4.0, rtol=1e-14)


@pytest.mark.parametrize("alpha", ["5e-324", "1e-310", "1e-25"])
def test_gpd_negligible_shape_is_exponential(alpha):
    # 1/alpha overflows for subnormal alpha; the law is the exponential
    d = make_distribution(f"gpd:alpha={alpha}")
    xs = np.array([0.0, 0.5, 2.0, 30.0])
    assert np.allclose(d.sf(xs), np.exp(-xs), rtol=1e-14)
    assert np.allclose(d.pdf(xs), np.exp(-xs), rtol=1e-14)
    assert float(d.quantile(0.5)) == pytest.approx(np.log(2), rel=1e-13, abs=0)


def test_gpd_zero_shape_is_the_weibull_exponential_bit_for_bit():
    g, w = make_distribution("gpd:alpha=1e-25"), make_distribution("weibull:alpha=1")
    xs = np.concatenate([[-np.inf, -1.0, 0.0, np.inf], np.geomspace(1e-300, 800.0, 401)])
    for name in ("pdf", "cdf", "sf"):
        assert np.array_equal(getattr(g, name)(xs), getattr(w, name)(xs)), name
    ps = np.concatenate([[0.0, 1e-300, 1.0], np.linspace(0.0, 1.0, 257), -np.expm1(-np.geomspace(1e-3, 700, 64))])
    with np.errstate(divide="ignore"):  # ppf(1) = inf
        assert np.array_equal(g.ppf(ps), w.ppf(ps))
    assert g.closed == w.closed and g.support == w.support


def test_weibull_alpha_one_is_exponential():
    d = make_distribution("weibull:alpha=1")
    assert float(d.sf(1.0)) == pytest.approx(np.exp(-1), rel=1e-14, abs=0)
    assert float(d.cdf(1.0)) == pytest.approx(1 - np.exp(-1), rel=1e-14, abs=0)


def test_zipf_normalization():
    d = make_distribution("zipf:alpha=3")
    assert float(d.pdf(1.0)) == pytest.approx(90 / np.pi**4, rel=1e-12, abs=0)
    pts = d.lattice_points(1e-12).astype(float)
    assert float(np.sum(d.pdf(pts))) == pytest.approx(1.0, abs=1e-9)


def test_lattice_pmf_off_lattice_is_zero():
    d = make_distribution("poisson:theta=2")
    assert float(d.pdf(1.5)) == 0.0
    assert float(d.pdf(-1.0)) == 0.0


@pytest.mark.parametrize("theta", [0.05, 0.1, 0.5])
def test_damped_hazard_matches_mpmath(theta):
    # small theta * x is where 1 - (theta x + 1) exp(-theta x) cancels
    d = make_distribution(f"damped-hazard:theta={theta}")
    for x in (1e-12, 1e-8, 1e-4, 0.5, 5.0):
        with mp.workdps(50):
            t, xm = mp.mpf(theta), mp.mpf(x)
            cumhaz = xm + (1 - (t * xm + 1) * mp.exp(-t * xm)) / t**2
            cdf, sf = float(-mp.expm1(-cumhaz)), float(mp.exp(-cumhaz))
        assert float(d.cdf(x)) == pytest.approx(cdf, rel=1e-13, abs=0)
        assert float(d.sf(x)) == pytest.approx(sf, rel=1e-13, abs=0)


def test_erf_hazard_matches_mpmath():
    # near 0, 1 - sf cancels: such a cdf was 2.2e-5 off at 1e-12 and put
    # q(1e-15) 4.2% high
    d = make_distribution("erf-hazard")
    cumhaz = lambda x: mp.sqrt(mp.pi) / 2 * mp.erf(x) + x
    for x in (1e-13, 1e-12, 1e-8, 1e-4, 0.5, 5.0):
        with mp.workdps(50):
            h = cumhaz(mp.mpf(x))
            cdf, sf = float(-mp.expm1(-h)), float(mp.exp(-h))
        assert float(d.cdf(x)) == pytest.approx(cdf, rel=1e-13, abs=0)
        assert float(d.sf(x)) == pytest.approx(sf, rel=1e-13, abs=0)
    for p in (1e-15, 1e-12):
        with mp.workdps(50):
            # the hazard is 2 at 0, so the root lies near p / 2
            want = float(mp.findroot(lambda x: -mp.expm1(-cumhaz(x)) - p, mp.mpf(p) / 2))
        assert float(d.quantile(p)) == pytest.approx(want, rel=1e-12, abs=0)


# erfi CDFs at 40 digits; lower support end
_ERFI_CDFS = {
    "erfi-interval": (lambda x: mp.erfi(1 + x) / mp.erfi(2), -1.0),
    "erfi-unit": (lambda x: mp.erfi(x / 2) / mp.erfi(mp.mpf(1) / 2), 0.0),
}


@pytest.mark.parametrize("spec", list(_ERFI_CDFS))
def test_erfi_survival_matches_mpmath(spec):
    # near the upper end 1 - cdf cancels: 8.9e-11 off at 1 - 1e-6 on erfi-interval
    d = make_distribution(spec)
    cdf, lower = _ERFI_CDFS[spec]
    for x in (1 - 1e-6, 1 - 3e-10):
        with mp.workdps(40):
            want = float(1 - cdf(mp.mpf(x)))
        assert float(d.sf(x)) == pytest.approx(want, rel=1e-14, abs=0)
    xs = np.concatenate([np.linspace(lower, 1.0, 201), [1 - 1e-6, 1 - 3e-10]])
    assert float(np.max(np.abs(d.cdf(xs) + d.sf(xs) - 1.0))) <= 1e-15


@pytest.mark.parametrize("spec", list(_ERFI_CDFS))
def test_erfi_survival_ignores_the_other_points_of_a_call(spec):
    # the upper sf is one Gauss-Legendre panel per point, whose sum must not
    # round by how many points share the call
    d = make_distribution(spec)
    xs = np.linspace(_ERFI_CDFS[spec][1], 1.0, 2000)
    assert np.asarray(d.sf(xs)).tolist() == [float(d.sf(x)) for x in xs]


# ---------------------------------------------------------------------------
# per-law tables: one lattice enumeration per cut, one scan grid per law
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ["erfi-interval", "gamma:alpha=2", "normal-mix"])
def test_classify_inverts_one_scan_grid(spec, monkeypatch):
    # points solved, by quantile or by the scan grid's own Newton solve
    points = []
    for name in ("quantile", "_grid_solve"):

        def counted(self, p, *args, fn=getattr(Distribution, name), **kwargs):
            points.append(np.size(p))
            return fn(self, p, *args, **kwargs)

        monkeypatch.setattr(Distribution, name, counted)
    v = classify(make_distribution(spec))
    # the grid once for the five scans the verdict reads
    assert sum(points) == SCAN_POINTS
    # the audit's six residual scans reuse it and add the two quartiles of the IQR
    assert v.evidence.hazard.equivalence_audit_pass
    assert sum(points) == SCAN_POINTS + 2


def _solves_its_grid(spec: str) -> bool:
    d = make_distribution(spec)
    return not d.is_lattice and (d.ppf is None or d.ppf_iterative)


# continuous STANDARD_INSTANCES laws whose ppf is missing or iterative, and
# gamma laws on either side of shape 1 and of the small-shape series
_NEWTON_GRID_LAWS = list(dict.fromkeys(
    [s for s in STANDARD_INSTANCES if _solves_its_grid(s)]
    + [f"gamma:alpha={a}" for a in (0.02, 0.05, 0.15, 0.5, 0.95, 1.05, 2.35, 2.95)]
))


@pytest.mark.parametrize("spec", _NEWTON_GRID_LAWS)
def test_newton_scan_grid_meets_the_inverse_tolerance(spec):
    d = make_distribution(spec)
    xs, cdf, sf = d.probe_values("cdf", "sf")
    ps = np.linspace(SCAN_CLIP, 1.0 - SCAN_CLIP, SCAN_POINTS)
    # the columns the grid solve kept are the law's own values at the grid
    assert np.array_equal(cdf, d.cdf(xs)) and np.array_equal(sf, d.sf(xs))
    r = np.where(ps <= 0.5, cdf - ps, sf - (1.0 - ps))
    assert np.all(np.abs(r) <= INV_TOL)
    assert np.all(np.diff(xs) >= 0)


@pytest.mark.parametrize("spec", ["erfi-interval", "gamma:alpha=2", "beta:alpha=3,beta=2", "damped-hazard:theta=0.1"])
def test_one_newton_step_solves_a_smooth_scan_grid(spec):
    # past the inverse table: the residual side of each start, pdf there, and
    # the cdf and sf columns after the one step, with no further step
    d = make_distribution(spec)
    d._inverse_table()
    points = []
    for name in ("pdf", "cdf", "sf"):
        fn = getattr(d, name)
        setattr(d, name, lambda x, fn=fn: points.append(np.size(x)) or fn(x))
    d._exact_inverse = lambda u: pytest.fail("grid point left to the exact inverse")
    d.probe_grid()
    assert sum(points) == 4 * SCAN_POINTS


@pytest.mark.parametrize("spec", ["erfi-interval", "gamma:alpha=0.5", "beta:alpha=3,beta=2", "normal-mix"])
def test_classify_builds_no_certified_inverse_table(spec):
    d = make_distribution(spec)
    classify(d)
    assert "inverse" in d._cache and "hermite" not in d._cache


@pytest.mark.parametrize("spec", ["normal", "logistic", "gpd:alpha=0.25"])
def test_classify_evaluates_each_scan_column_once(spec):
    # pdf, cdf and sf once each on the scan grid; log-concavity of the density
    # reads the log of the pdf column, so logpdf does not run
    d = make_distribution(spec)
    points = dict.fromkeys(("pdf", "cdf", "sf", "logpdf"), 0)
    for name in points:
        fn = getattr(d, name)

        def counted(x, fn=fn, name=name):
            points[name] += np.size(x)
            return fn(x)

        setattr(d, name, counted)
    classify(d)
    assert points == {"pdf": SCAN_POINTS, "cdf": SCAN_POINTS, "sf": SCAN_POINTS, "logpdf": 0}


def test_logpdf_is_the_floored_log_of_pdf_on_every_law():
    n = make_distribution("normal")
    m = mix([n, affine(n, 1.0, 3.0)], [0.5, 0.5])
    xs = np.array([-2.0, 0.0, 1.5, 4.0])
    want = np.log(0.5 * (np.exp(-0.5 * xs**2) + np.exp(-0.5 * (xs - 3.0) ** 2)) / math.sqrt(2 * math.pi))
    np.testing.assert_allclose(m.logpdf(xs), want, rtol=1e-14)
    # where the density underflows, the floor
    assert m.logpdf(60.0) == math.log(1e-320)
    c = convolve(make_distribution("logistic"), n)
    assert c.meta["construct"] == "convolve"  # the numeric rule, not a registry closed form
    xs = np.linspace(-6.0, 6.0, 25)
    got = c.logpdf(xs)
    assert np.all(np.isfinite(got))
    np.testing.assert_array_equal(got, np.log(c.pdf(xs)))


def _count_cuts(monkeypatch) -> list[float]:
    cuts = []
    lattice_points = Distribution.lattice_points

    def counted(self, mass_cut=SUM_CUT):
        cuts.append(mass_cut)
        return lattice_points(self, mass_cut)

    monkeypatch.setattr(Distribution, "lattice_points", counted)
    return cuts


@pytest.mark.parametrize("spec", ["zipf:alpha=3", "poisson:theta=2", "negbinomial:r=0.5,p=0.5"])
def test_classify_enumerates_each_cut_once(spec, monkeypatch):
    cuts = _count_cuts(monkeypatch)
    d = make_distribution(spec)
    classify(d)
    d.quantile(np.array([0.1, 0.5, 0.9]))
    assert cuts == [SUM_CUT]


def test_mean_excess_enumerates_its_cut_once(monkeypatch):
    # the one lattice table serves scans, quantiles and every mean excess,
    # past its end too
    cuts = _count_cuts(monkeypatch)
    for spec in ("geometric:p=0.3", "zipf:alpha=2.5"):
        cuts.clear()
        d = make_distribution(spec)
        classify(d)
        d.quantile(np.array([0.1, 0.5, 0.9]))
        mean_excess_abs_diff(d, np.arange(4.0))
        last = d.lattice_table()[0][-1]
        mean_excess(d, 2.0)
        mean_excess(d, last + 3.0)
        d.stop_loss(np.array([0.5, last + 9.5]))
        assert cuts == [SUM_CUT], spec


def _record_calls(d) -> list[tuple[str, np.ndarray]]:
    # (name, points) of every later pdf, cdf and sf call on d
    calls = []
    for name in ("pdf", "cdf", "sf"):
        fn = getattr(d, name)
        setattr(d, name, lambda x, name=name, fn=fn: calls.append((name, np.atleast_1d(x))) or fn(x))
    return calls


def test_a_lattice_table_costs_one_pmf_pass():
    # zipf's cdf and sf are Hurwitz zeta values: its table sums them from
    # the pmf, and classify reads the table and calls the law only past its
    # ends; the end search is counted on its own above
    d = make_distribution("zipf:alpha=2.5")
    pts = d.lattice_points()
    d.lattice_points = lambda mass_cut=SUM_CUT: pts
    calls = _record_calls(d)
    d.lattice_table()
    assert [name for name, x in calls if x.size > 1] == ["pdf"]
    assert np.array_equal(next(x for name, x in calls if name == "pdf"), pts)
    assert sorted(name for name, x in calls if x.size == 1) == ["cdf", "sf"]
    calls.clear()
    classify(d)
    assert calls
    for name, x in calls:
        assert not np.any((x >= pts[0]) & (x <= pts[-1])), name


def test_cached_tables_are_read_only():
    cont = make_distribution("erfi-interval")
    lat = make_distribution("poisson:theta=2")
    arrays = [*cont.probe_values("pdf", "cdf", "sf"), *cont._inverse_table(), *cont._hermite_table()]
    arrays += lat.probe_values("pdf", "cdf", "sf")
    arrays += [*lat.lattice_table(), lat.table_tail()[1], lat._lattice_guide()[0]]
    tail = make_distribution("weibull:alpha=1")
    arrays += [*cont._stop_loss_nodes(), *cont._outer_panels(), *lat.excess_table()]
    arrays += [*tail._stop_loss_nodes(), *tail._outer_panels()]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_curve_evaluation_counts():
    # counts are deterministic where timings are not: the stop-loss ratio reads
    # Pi between table nodes from its Legendre rows, and weighs the outer
    # nodes by pdf once per law; the change-of-measure route integrates the
    # whole curve as one lockstep batch, one cdf call per step
    d = make_distribution("gpd:alpha=0.25")
    points = {"sf": 0, "pdf": 0, "cdf": 0}
    calls = dict.fromkeys(points, 0)
    for name in points:
        fn = getattr(d, name)

        def counted(x, fn=fn, name=name):
            points[name] += np.size(x)
            calls[name] += 1
            return fn(x)

        setattr(d, name, counted)
    ts = np.linspace(0, 8, 32)
    mean_excess_abs_diff(d, ts)
    assert points["sf"] < 400_000
    assert points["pdf"] < 50_000
    # with the law's tables built, cdf serves the change-of-measure route alone
    calls["cdf"] = 0
    mean_excess_abs_diff(d, ts)
    assert calls["cdf"] <= 16


def test_curve_heads_run_as_one_batch(monkeypatch):
    # below the first stop-loss node of a support unbounded below, the heads
    # of every t run as one lockstep batch per expectation; no integral runs
    # alone, not even for the stop-loss table's tail, and the SD/GMD
    # quadrature of measures does not run at all
    d = make_distribution("normal")
    ts = np.linspace(0, 4.5, 32)
    calls = []
    for module, name in ((numerics_module, "integrate"), (measures_module, "_numeric")):
        monkeypatch.setattr(module, name, lambda *a, f=getattr(module, name): calls.append(a) or f(*a))
    mean_excess_abs_diff(d, ts)
    assert calls == []


# ---------------------------------------------------------------------------
# affine
# ---------------------------------------------------------------------------


def _parent_affine_columns(d, a, b, y):
    """pdf, cdf and sf of affine(d, a, b) at y, by the formulas the lattice and
    continuous kinds once used apart: a lattice shift reads d at y - b, a
    lattice reflection S and F at b - floor(y) - 1 with integer a and b."""
    if d.is_lattice:
        a, b = int(a), int(b)
        if a == 1:
            return d.pdf(y - b), d.cdf(y - b), d.sf(y - b)
        return d.pdf(b - y), d.sf(b - np.floor(y) - 1), d.cdf(b - np.floor(y) - 1)
    inv = (y - b) / a
    pdf = d.pdf(inv) / abs(a)
    return (pdf, d.cdf(inv), d.sf(inv)) if a > 0 else (pdf, d.sf(inv), d.cdf(inv))


_ZIPF_REFLECTED = affine(make_distribution("zipf:alpha=2.5"), -1.0, 0.0)


@pytest.mark.parametrize("d, a, b", [
    (make_distribution("zipf:alpha=2.5"), 1.0, 3.0),
    (make_distribution("zipf:alpha=2.5"), -1.0, 2.0),
    (make_distribution("poisson:theta=2"), 1.0, -4.0),
    (make_distribution("poisson:theta=2"), -1.0, 5.0),
    (_ZIPF_REFLECTED, -1.0, 3.0),  # a reflection of a lower-open lattice law
    (_ZIPF_REFLECTED, 1.0, -2.0),
    (make_distribution("gamma:alpha=2"), -2.0, 1.5),
    (make_distribution("gpd:alpha=0.25"), -2.0, 0.0),
    (make_distribution("normal-mix"), 3.0, -1.0),
], ids=lambda v: getattr(v, "label", None) or f"{v:g}")
def test_affine_columns_are_the_parent_formulas_bit_for_bit(d, a, b):
    y = np.concatenate([np.arange(-60, 61) * 0.25, [-1e6 - 0.5, -1e6, 1e6, 1e6 + 0.5, -np.inf, np.inf]])
    law = affine(d, a, b)
    for name, got, want in zip(("pdf", "cdf", "sf"), (law.pdf(y), law.cdf(y), law.sf(y)),
                               _parent_affine_columns(d, a, b, y)):
        assert np.array_equal(got, want, equal_nan=True), name
    ends = sorted((a * d.support.lower + b, a * d.support.upper + b))
    assert (law.support.lower, law.support.upper, law.support.kind) == (*ends, d.support.kind)


def test_affine_normal_shift():
    d = affine(make_distribution("normal"), 2.0, 5.0)
    assert float(d.cdf(5.0)) == pytest.approx(0.5, abs=1e-14)


def test_affine_reflected_exponential():
    d = affine(make_distribution("weibull:alpha=1"), -1.0, 0.0)
    assert d.support.lower == -np.inf and d.support.upper == 0.0
    assert float(d.sf(-1.0)) == pytest.approx(1 - np.exp(-1), rel=1e-12, abs=0)


def test_affine_scales_closed_sd():
    d = make_distribution("gpd:alpha=0.25")
    scaled = affine(d, 3.0, 0.0)
    assert scaled.closed.sd == pytest.approx(3 * d.closed.sd, rel=1e-15, abs=0)


def test_affine_roundtrip_reproduces_cdf(instances):
    for spec in ["gamma:alpha=2", "normal", "geometric:p=0.4"]:
        d = instances.get(spec) or make_distribution(spec)
        a, b = (-2.0, 1.5) if not d.is_lattice else (-1.0, 3.0)
        back = affine(affine(d, a, b), 1 / a, -b / a)
        xs = quantile_grid(d, 33)
        assert np.allclose(back.cdf(xs), d.cdf(xs), atol=1e-10)


def test_affine_rejects_zero_scale():
    with pytest.raises(errors.DegenerateScale):
        affine(make_distribution("normal"), 0.0, 1.0)


@pytest.mark.parametrize("spec", ["normal", "geometric:p=0.5"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_affine_rejects_non_finite_scale_or_shift(spec, bad):
    d = make_distribution(spec)
    for a, b in ((bad, 0.0), (1.0, bad)):
        with pytest.raises(errors.DegenerateScale):
            affine(d, a, b)


def test_affine_lattice_requires_unit_scale():
    with pytest.raises(errors.UnsupportedKind):
        affine(make_distribution("geometric:p=0.5"), 2.0, 0.0)


def test_reflection_identity():
    # reverse hazard of the reflection equals the hazard at the mirrored point
    for spec in ["weibull:alpha=0.7", "gamma:alpha=2"]:
        d = make_distribution(spec)
        for c in (0.0, 1.0):
            refl = affine(d, -1.0, c)
            for x in (-0.5, -1.2, -3.0):
                r_val = float(refl.pdf(x)) / float(refl.cdf(x))
                h_val = float(d.pdf(c - x)) / float(d.sf(c - x))
                assert r_val == pytest.approx(h_val, rel=1e-9, abs=0)


# ---------------------------------------------------------------------------
# mix
# ---------------------------------------------------------------------------


def test_mix_single_component_identity():
    base = make_distribution("normal")
    m = mix([base], [1.0])
    xs = np.linspace(-3, 3, 11)
    assert np.allclose(m.pdf(xs), base.pdf(xs), rtol=1e-14)
    assert np.allclose(m.cdf(xs), base.cdf(xs), rtol=1e-14)


def test_mix_degenerate_weight_equals_component():
    a = make_distribution("gamma:alpha=2")
    b = make_distribution("gamma:alpha=5")
    m = mix([a, b], [1.0, 0.0])
    xs = np.linspace(0.1, 8, 25)
    assert np.allclose(m.pdf(xs), a.pdf(xs), rtol=1e-14)


def test_mix_normal_density_at_zero():
    m = mix(
        [make_distribution("normal:sigma=0.5"), make_distribution("normal:sigma=2")],
        [0.75, 0.25],
    )
    expected = 0.75 / (0.5 * np.sqrt(2 * np.pi)) + 0.25 / (2 * np.sqrt(2 * np.pi))
    assert float(m.pdf(0.0)) == pytest.approx(expected, rel=1e-14, abs=0)
    # the normal-mix registry family is the generic combinator
    fam = make_distribution("normal-mix:sigma1=0.5,sigma2=2,q=0.75")
    xs = np.linspace(-6, 6, 41)
    assert np.array_equal(fam.pdf(xs), m.pdf(xs))


def test_mix_geometrics_pmf():
    m = mix(
        [make_distribution("geometric:p=0.3"), make_distribution("geometric:p=0.7")],
        [0.5, 0.5],
    )
    assert float(m.pdf(0.0)) == pytest.approx(0.5, rel=1e-14, abs=0)


@pytest.mark.parametrize("shifts,want", [
    *(((b, b), 1.0) for b in (0.0, 1e3, 1e7, 1e8, 1e12)),
    ((1e8, 1e8 + 3.0), math.sqrt(3.25)),
])
def test_mix_closed_sd_at_large_locations(shifts, want):
    # the closed SD sums each component's variance about the mixture mean, so
    # the location does not cancel it away
    m = mix([affine(make_distribution("normal"), 1.0, b) for b in shifts], [0.5, 0.5])
    assert abs(m.closed.sd - want) <= 1e-15 * want


def test_mix_validates_weights_and_kinds():
    a = make_distribution("normal")
    b = make_distribution("geometric:p=0.5")
    with pytest.raises(errors.WeightSumError):
        mix([a, a], [0.6, 0.6])
    with pytest.raises(errors.MixedKinds):
        mix([a, b], [0.5, 0.5])
    # NaN passes both "< 0" and "sum - 1 > tol" unnoticed
    for weights in ([math.nan, 1.0], [0.5, math.nan]):
        with pytest.raises(errors.WeightSumError, match="nonnegative and sum to 1"):
            mix([a, make_distribution("logistic")], weights)


# ---------------------------------------------------------------------------
# truncate
# ---------------------------------------------------------------------------


def test_truncate_exponential_memoryless():
    d = truncate(make_distribution("weibull:alpha=1"), "lower", 2.0)
    xs = np.array([2.5, 3.0, 5.0])
    assert np.allclose(d.sf(xs), np.exp(-(xs - 2.0)), rtol=1e-12)


def test_truncate_normal_upper_half():
    d = truncate(make_distribution("normal"), "upper", 0.0)
    xs = np.array([-2.0, -1.0, -0.1])
    phi = np.exp(-0.5 * xs**2) / np.sqrt(2 * np.pi)
    assert np.allclose(d.pdf(xs), 2 * phi, rtol=1e-12)
    assert float(d.pdf(0.5)) == 0.0


def test_truncate_lattice_support():
    d = truncate(make_distribution("geometric:p=0.5"), "lower", 2.0)
    assert d.support.lower == 3
    total = float(np.sum(d.pdf(d.lattice_points(1e-12).astype(float))))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_truncate_empty_tail_raises():
    d = make_distribution("erfi-unit")
    with pytest.raises(errors.EmptyTail):
        truncate(d, "lower", 1.0)


_PAST_END = [
    (spec, side, delta)
    for spec in STANDARD_INSTANCES
    for side in ("lower", "upper")
    if math.isfinite(getattr(make_distribution(spec).support, side))
    for delta in (1e-3, 1.0, 2.0)
]


@pytest.mark.parametrize("spec,side,delta", _PAST_END)
def test_truncation_past_the_support_end_is_the_parent(spec, side, delta):
    # a cut below the lower end (side 'lower') or above the upper end (side
    # 'upper') keeps the whole law; quadrature must not run past the end
    parent = make_distribution(spec)
    end = getattr(parent.support, side)
    d = truncate(parent, side, end - delta if side == "lower" else end + delta)
    assert d.support == parent.support
    want, got = dispersion_report(parent), dispersion_report(d)
    tol = want.err_estimate + got.err_estimate
    for name in ("sd", "gmd"):
        w, g = getattr(want, name), getattr(got, name)
        assert abs(g - w) <= max(tol, 1e-12 * abs(w)), name
    v, pv = classify(d), classify(parent)
    assert (v.verdict, v.basis) == (pv.verdict, pv.basis)


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_truncate_far_side_in_the_parents_far_tail(side):
    # a cut at 8 (upper) or -8 (lower) of the normal keeps mass > 1/2; its
    # far-side tail at x is (S(x) - S(8)) / F(8), by symmetry the lower one too
    sign = 1.0 if side == "upper" else -1.0
    d = truncate(make_distribution("normal"), side, 8.0 * sign)
    far = d.sf if side == "upper" else d.cdf
    with mp.workdps(40):
        tail = lambda x: mp.ncdf(-mp.mpf(x))
        for x in (-3.0, 0.0, 7.0, 7.99):
            a, b = tail(x), tail(8.0)
            want = (a - b) / (1 - b)
            # ndtr to 2e-15, times what the difference cancels
            cancel = float((a + b) / (a - b))
            assert float(far(sign * x)) == pytest.approx(float(want), rel=2e-15 * cancel, abs=0), x


@pytest.mark.parametrize("side,u,ks", [("upper", 12.0, [0, 5, 9, 11]), ("lower", 0.5, [1, 2, 3])])
def test_truncate_lattice_far_side_in_the_parents_far_tail(side, u, ks):
    # poisson(2) keeps mass > 1/2 on either cut: sf of the upper cut at 12 is
    # (S(k) - S(12)) / F(12), cdf of the lower cut at 0.5 is (F(k) - F(0)) / S(0)
    d = truncate(make_distribution("poisson:theta=2"), side, u)
    with mp.workdps(40):
        f = [mp.exp(-2) * mp.mpf(2) ** j / mp.factorial(j) for j in range(120)]
        cum = lambda k: mp.fsum(f[: k + 1])
        for k in ks:
            if side == "upper":
                want, got = (cum(12) - cum(k)) / cum(12), d.sf(float(k))
            else:
                want, got = (cum(k) - cum(0)) / (1 - cum(0)), d.cdf(float(k))
            assert float(got) == pytest.approx(float(want), rel=1e-14, abs=0), k


def test_truncate_cdf_is_renormalized():
    base = make_distribution("gamma:alpha=2")
    d = truncate(base, "lower", 1.0)
    mass = float(base.sf(1.0))
    xs = np.array([1.5, 2.5, 6.0])
    expected = (mass - np.asarray(base.sf(xs))) / mass
    assert np.allclose(d.cdf(xs), expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# convolve
# ---------------------------------------------------------------------------


def test_convolve_gamma_closed_form():
    c = convolve(make_distribution("gamma:alpha=2"), make_distribution("gamma:alpha=3"))
    g5 = make_distribution("gamma:alpha=5")
    assert float(c.pdf(1.0)) == pytest.approx(float(g5.pdf(1.0)), rel=1e-14, abs=0)
    # the numeric route must agree with the Gamma formula too
    num = _convolve_numeric(
        make_distribution("gamma:alpha=2"), make_distribution("gamma:alpha=3")
    )
    assert float(num.pdf(1.0)) == pytest.approx(float(g5.pdf(1.0)), rel=1e-8, abs=0)
    assert float(num.cdf(2.0)) == pytest.approx(float(g5.cdf(2.0)), rel=1e-8, abs=0)


def test_convolve_normal_closed_form():
    c = convolve(make_distribution("normal"), make_distribution("normal"))
    assert c.closed.sd == pytest.approx(np.sqrt(2), rel=1e-14, abs=0)
    assert float(c.cdf(0.0)) == pytest.approx(0.5, abs=1e-14)


def test_convolve_numeric_matches_normal():
    num = _convolve_numeric(make_distribution("normal"), make_distribution("normal"))
    xs = np.linspace(-4, 4, 9)
    target = np.exp(-(xs**2) / 4) / np.sqrt(4 * np.pi)
    assert np.allclose(num.pdf(xs), target, rtol=1e-10)


def test_convolve_numeric_tails_sum_to_one():
    # the rule omits 1e-12 of the second law on each side; the larger tail
    # is the complement of the smaller one
    c = convolve(make_distribution("logistic"), make_distribution("normal"))
    xs = np.linspace(-100, 100, 201)
    assert float(np.max(np.abs(c.cdf(xs) + c.sf(xs) - 1.0))) <= 1e-15


@pytest.mark.parametrize("a,b,support", [
    ("beta:alpha=2", "normal", (-np.inf, np.inf)),
    ("logistic", "normal", (-np.inf, np.inf)),
    ("weibull:alpha=1.5", "gamma:alpha=2", (0.0, np.inf)),
])
def test_convolve_support_is_the_sum_of_supports(a, b, support):
    # not the second operand's 1e-12 cut, whichever operand comes second
    d1, d2 = make_distribution(a), make_distribution(b)
    for c in (convolve(d1, d2), convolve(d2, d1)):
        assert c.meta["construct"] == "convolve"
        assert (c.support.lower, c.support.upper) == support


def test_convolve_rejects_lattice():
    with pytest.raises(errors.UnsupportedKind):
        convolve(make_distribution("poisson:theta=1"), make_distribution("normal"))


def test_convolve_logistic_normal_log_concave():
    # closure of log-concave densities under convolution, checked on the grid
    from dispersion import log_concavity_scan

    c = convolve(make_distribution("logistic"), make_distribution("normal"))
    assert log_concavity_scan(c, "pdf") == "log-concave"


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_continuous_specs = st.one_of(
    st.floats(0.2, 4.0).map(lambda a: f"gamma:alpha={a}"),
    st.floats(0.3, 3.0).map(lambda a: f"weibull:alpha={a}"),
    st.floats(0.0, 0.45).map(lambda a: f"gpd:alpha={a}"),
    st.floats(0.3, 3.0).map(lambda s: f"normal:sigma={s}"),
    st.floats(0.3, 4.0).map(lambda a: f"beta:alpha={a}"),
)


@settings(max_examples=25, deadline=None)
@given(spec=_continuous_specs, p=st.floats(1e-5, 1 - 1e-5))
def test_property_quantile_cdf_roundtrip(spec, p):
    d = make_distribution(spec)
    x = float(d.quantile(p))
    assert float(d.cdf(x)) == pytest.approx(p, abs=1e-9)
    assert float(d.cdf(x)) + float(d.sf(x)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    spec=_continuous_specs,
    a=st.floats(-3, 3).filter(lambda v: abs(v) > 0.1),
    b=st.floats(-2, 2),
    p=st.floats(0.01, 0.99),
)
def test_property_affine_quantile_consistency(spec, a, b, p):
    d = make_distribution(spec)
    y = affine(d, a, b)
    x = float(y.quantile(p))
    # representing a*Q(p) + b as one float floors the achievable CDF
    # accuracy at density * spacing(x) / |a|
    z = (x - b) / a
    floor = float(d.pdf(z)) * np.spacing(abs(x) + abs(b)) / abs(a)
    assert float(y.cdf(x)) == pytest.approx(p, abs=1e-8 + 4 * floor)
