"""Quadrature and root-bracketing helpers shared across modules.

`integrate_batch` is a numpy port of the two QUADPACK routines (Piessens et
al., QUADPACK, Springer 1983) that scipy's quad runs: qagse, the 21-point
Gauss-Kronrod rule, on finite ranges and qagie, the 15-point rule on
x = a + (1 - t)/t, b - (1 - t)/t or +-(1 - t)/t with t in (0, 1], on
infinite ones. Both bisect the interval of largest error estimate, keep
QUADPACK's error formula and extrapolate the sequence of sums by Wynn's
epsilon-algorithm, which resolves a pole at a finite end and a heavy
polynomial tail where plain bisection does not. Tolerances are absolute
1e-11 and relative 1e-9 with at most 400 intervals. The one change is that
many integrals run in lockstep: the adaptive loop (`_qags`) is a generator
that yields the intervals it needs ruled and receives their rows, every
other statement as the Fortran has it, so one driver (`_lockstep`) gathers
the intervals every unfinished integral asks for, calls the integrand once,
vectorized, on all their nodes, with the index of the integral each node
belongs to, and sends each integral its rows. Each integral takes the
steps, and returns the numbers, it would alone. `_rule` sums the
Gauss-Kronrod rule over all intervals of a step as columns of one block,
each of QUADPACK's sums added left to right in the Fortran's order, so a
wide step costs little more than a narrow one. `integrate` is the batch of
one range; it has no driver of its own.

`panels` is the fixed-rule counterpart for many short intervals at once,
each summed in one fixed order, on the nodes that `panel_nodes` places: the
erfi families take their upper survival from it. The stop-loss table of
`dist` sums the same rule over its node intervals and keeps the values of S
at those nodes, whose Legendre interpolant gives Pi between nodes.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections.abc import Callable

import numpy as np

from .errors import DivergentTail

EPSABS = 1e-11
EPSREL = 1e-9
LIMIT = 400
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max
# 16-point Gauss-Legendre abscissae and weights on [-1, 1]
GL_X, GL_W = np.polynomial.legendre.leggauss(16)


def _kronrod(xgk, wgk, wg, order):
    """A Gauss-Kronrod rule from QUADPACK's half tables, which list the
    positive nodes from the outside in and the centre last (wg is zero off
    the Gauss nodes). Returns:
    - the nodes on [-1, 1] from left to right;
    - for resk, resg and resabs, the (left, right) columns of each term in a
      row holding the values at the nodes, a -0.0 pad, their absolute values
      and a second pad, in the order the Fortran adds the terms: the centre
      first, whose right column is a pad (x + -0.0 is x), then the node pairs;
    - the (Kronrod, Gauss, Kronrod) weights of those terms;
    - the columns and Kronrod weights of resasc's terms, whose pairs the
      Fortran adds in a second order, from the outside in.
    Adding each sum's terms in that order keeps it bit-identical to the
    Fortran's."""
    h = len(xgk) - 1
    nodes = np.concatenate([-np.array(xgk[:-1]), np.array(xgk[::-1])])
    wgk, wg, width = np.array(wgk), np.array(wg), 2 * h + 2
    rule = np.array([[h, *order], [width - 1, *(2 * h - np.array(order))]])
    asc = np.array([[h, *range(h)], [width - 1, *range(2 * h, h, -1)]])
    sums = np.stack([rule, rule, rule + width], axis=1)
    return nodes, sums, np.stack([wgk[rule[0]], wg[rule[0]], wgk[rule[0]]]), asc, wgk[asc[0]]


# dqk21: the 10-point Gauss rule and its 21-point Kronrod extension
_GK21 = _kronrod(
    [0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
     0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
     0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
     0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
     0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0],
    [0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
     0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
     0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
     0.123491976262065851077208980052608, 0.134709217311473325928054001771707,
     0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
     0.149445554002916905664936468389821],
    [0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
     0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
     0.0, 0.295524224714752870173892994651338, 0.0],
    [1, 3, 5, 7, 9, 0, 2, 4, 6, 8],
)
# dqk15i: the 7-point Gauss rule and its 15-point Kronrod extension
_GK15 = _kronrod(
    [0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
     0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
     0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
     0.207784955007898467600689403773245, 0.0],
    [0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
     0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
     0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
     0.204432940075298892414161999234649, 0.209482141084727828012999174891714],
    [0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
     0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327],
    range(7),
)


def integrate(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> tuple[float, float]:
    """Integrate the vectorized fn over [lo, hi]; returns (value, error estimate).

    integrate_batch of the one range [lo, hi], and raises as it does.
    """
    vals, errs = integrate_batch(lambda x, _: fn(x), [lo], [hi])
    return float(vals[0]), float(errs[0])


def integrate_batch(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate fn over each [lo_i, hi_i] in lockstep; returns (values, error estimates).

    fn(x, k) is vectorized, k holding for each node the index of the integral
    it belongs to. Each integral takes the steps it would take alone, and each
    step calls fn once on the nodes of every unfinished integral. The ranges
    share one kind: finite, or infinite at the same end(s). A range with
    hi < lo gives minus the integral over [hi, lo]. Raises DivergentTail, for
    the first integral in order that fails, when its value is not finite or
    the 400 intervals run out before its error estimate meets the tolerance.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    flip = hi < lo
    lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
    kinds = set(zip(np.isfinite(lo).tolist(), np.isfinite(hi).tolist()))
    if len(kinds) > 1:
        raise ValueError("the ranges of one batch must share one kind")
    if kinds == {(True, True)}:
        step, a, b, rule = lambda k: lambda x: fn(x, k), lo.tolist(), hi.tolist(), _GK21
    else:
        whole = kinds == {(False, False)}

        def step(k):
            kx = np.concatenate([k, k]) if whole else k  # the whole line's map takes x and -x at once
            return _unit_map(lambda x: fn(x, kx), lo[k], hi[k])

        a, b, rule = [0.0] * len(lo), [1.0] * len(lo), _GK15
    with np.errstate(all="ignore"):
        done = _lockstep(step, a, b, rule)
    for (val, _, ier), x0, x1 in zip(done, lo.tolist(), hi.tolist()):
        _check(val, ier, x0, x1)
    vals = np.array([val for val, _, _ in done], dtype=float)
    return np.where(flip, -vals, vals), np.array([err for _, err, _ in done], dtype=float)


def _check(val: float, ier: int, lo: float, hi: float) -> None:
    """Raise DivergentTail when the value is not finite or the 400 intervals ran out."""
    if not math.isfinite(val):
        raise DivergentTail(f"integral over [{lo}, {hi}] did not converge")
    if ier == 1:
        raise DivergentTail(f"integral over [{lo}, {hi}] not resolved in {LIMIT} intervals")


def _unit_map(fn, lo, hi):
    """qagie's integrand on t in (0, 1]: f(x(t)) / t^2, x = bound +- (1 - t)/t,
    both signs summed on the whole line; in a batch the bounds are arrays on
    the nodes."""
    if np.isfinite(lo).all():
        return lambda t: (fn(lo + (1.0 - t) / t) / t) / t
    if np.isfinite(hi).all():
        return lambda t: (fn(hi - (1.0 - t) / t) / t) / t

    def both(t):
        x = (1.0 - t) / t
        v = fn(np.concatenate([x, -x]))
        return ((v[: len(t)] + v[len(t) :]) / t) / t

    return both


def _lockstep(step, a: list, b: list, rule) -> list:
    """Run _qags on each [a_i, b_i] at once: each step gathers the intervals
    every unfinished run asks for, rules them all with one call of step(k),
    k the run each node belongs to, and sends each run its rows. Returns each
    run's (result, abserr, ier)."""
    runs = [_qags(ai, bi, rule) for ai, bi in zip(a, b)]
    asks = [next(run) for run in runs]
    done = [None] * len(runs)
    live = list(range(len(runs)))
    while live:
        left = [v for i in live for v in asks[i][0]]
        right = [v for i in live for v in asks[i][1]]
        owner = np.array([i for i in live for _ in asks[i][0]]).repeat(len(rule[0]))
        rows = _rule(step(owner), left, right, rule)
        still, at = [], 0
        for i in live:
            n = len(asks[i][0])
            try:
                asks[i] = runs[i].send([column[at : at + n] for column in rows])
                still.append(i)
            except StopIteration as stop:
                done[i] = stop.value
            at += n
        live = still
    return done


def _rule(g, a: list, b: list, rule) -> tuple[list, ...]:
    """dqk21 / dqk15i on each [a_i, b_i], one call of g on all their nodes:
    lists of (result, abserr, resabs, resasc), resabs the integral of |g|
    and resasc that of |g - mean|. Each of the Fortran's four sums is a row
    of terms per interval, added left to right by cumsum, so every interval
    gets the bits of the Fortran's loop; only the `** 1.5` of the error
    scaling runs per interval, in Python floats, to keep pow's rounding and
    min's NaN order (min(1.0, nan) is 1.0)."""
    nodes, sums, weights, asc, asc_weights = rule
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    f = np.asarray(g((centr[:, None] + hlgth[:, None] * nodes).ravel()), dtype=float).reshape(len(a), len(nodes))
    # rows of the values, then of their absolute values, each with its pad
    padded = np.empty((len(a), 2, len(nodes) + 1))
    padded[:, 0, :-1] = f
    np.abs(f, out=padded[:, 1, :-1])
    padded[:, :, -1] = -0.0
    terms = padded.reshape(len(a), -1).take(sums, axis=1)
    resk, resg, resabs = ((terms[:, 0] + terms[:, 1]) * weights).cumsum(axis=-1)[:, :, -1].T
    # |f - resk / 2| with a pad of +0.0, which adds nothing to these
    np.subtract(f, 0.5 * resk[:, None], out=padded[:, 0, :-1])
    terms = np.abs(padded[:, 0], out=padded[:, 0]).take(asc, axis=1)
    resasc = ((terms[:, 0] + terms[:, 1]) * asc_weights).cumsum(axis=-1)[:, -1]
    resabs, resasc = resabs * np.abs(hlgth), resasc * np.abs(hlgth)
    abserr = np.abs((resk - resg) * hlgth)
    # where resasc or abserr is 0 the ratio is 0, inf or NaN, whose pow is
    # harmless, and the scaled error is not taken
    ratios = (200 * abserr / resasc).tolist()
    scaled = resasc * np.array([min(1.0, r**1.5) for r in ratios])
    abserr = np.where(np.logical_and(resasc, abserr), scaled, abserr)
    # max(floor, abserr) as Python takes it: the floor where abserr is NaN
    capped = np.fmax(50 * _EPMACH * resabs, abserr)
    abserr = np.where(resabs > _UFLOW / (50 * _EPMACH), capped, abserr)
    return (resk * hlgth).tolist(), abserr.tolist(), resabs.tolist(), resasc.tolist()


def _qags(a: float, b: float, rule):
    """The adaptive loop of QUADPACK's dqagse (dqagie on [0, 1]), statement for
    statement, as a generator: it yields the intervals it needs ruled and
    receives their rows of _rule; it returns (result, abserr, ier), ier 0 on
    success and QUADPACK's codes otherwise (1: the interval limit; 2:
    roundoff; 3: bad integrand; 4: roundoff in the extrapolation; 5: probably
    divergent). Lists are 1-based, as in the Fortran."""
    (result,), (abserr,), (defabs,), (resabs,) = yield [a], [b]
    dres = abs(result)
    errbnd = max(EPSABS, EPSREL * dres)
    ier = 2 if abserr <= 100 * _EPMACH * defabs and abserr > errbnd else 0
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0 or not math.isfinite(result):
        return result, abserr, ier
    size = LIMIT + 1
    alist, blist, rlist, elist, iord = [a] * size, [b] * size, [result] * size, [abserr] * size, [1] * size
    rlist2, res3la = [result] * 55, [0.0] * 4
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin, extrap, noext = 1, 0, 2, 0, False, False
    ierro = iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1 - 50 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    for last in range(2, LIMIT + 1):
        a1, b2 = alist[maxerr], blist[maxerr]
        b1 = a2 = 0.5 * (a1 + b2)
        erlast = errmax
        (area1, area2), (error1, error2), _, (defab1, defab2) = yield [a1, a2], [b1, b2]
        area12, erro12 = area1 + area2, error1 + error2
        if not (math.isfinite(area12) and math.isfinite(erro12)):
            return math.nan, math.inf, 0
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr], rlist[last] = area1, area2
        errbnd = max(EPSABS, EPSREL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == LIMIT:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1 + 100 * _EPMACH) * (abs(a2) + 1000 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _sequential_sum(rlist[1 : last + 1]), errsum, _code(ier)
        if ier != 0:
            break
        if last == 2:
            small, erlarg, ertest, rlist2[2] = abs(b - a) * 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is a smallest one
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap, nrmax = True, 2
        if ierro != 3 and erlarg > ertest:
            # bisect the larger intervals first while their errors dominate
            jupbnd = LIMIT + 3 - last if last > 2 + LIMIT // 2 else last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(EPSABS, EPSREL * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr, nrmax, extrap, erlarg = iord[1], 1, False, errsum
        errmax = elist[maxerr]
        small *= 0.5
    # the extrapolated result against the plain sum, then the divergence test
    use_sum = abserr == _OFLOW
    if not use_sum and ier + ierro != 0:
        if ierro == 3:
            abserr += correc
        if ier == 0:
            ier = 3
        if result != 0 and area != 0:
            use_sum = abserr / abs(result) > errsum / abs(area)
        elif abserr > errsum:
            use_sum = True
        elif area == 0:
            return result, abserr, _code(ier)
    if use_sum:
        return _sequential_sum(rlist[1 : last + 1]), errsum, _code(ier)
    if ksgn != -1 or max(abs(result), abs(area)) > defabs * 0.01:
        ratio = result / area if area != 0 else math.inf
        if 0.01 > ratio or ratio > 100 or errsum > abs(area):
            ier = 6
    return result, abserr, _code(ier)


def _sequential_sum(values: list) -> float:
    """Left to right, as the Fortran adds (the builtin sum compensates from Python 3.12)."""
    return functools.reduce(operator.add, values)


def _code(ier: int) -> int:
    """QUADPACK's final renumbering: internal codes 3 to 6 report as 2 to 5."""
    return ier - 1 if ier > 2 else ier


def _qpsrt(last: int, maxerr: int, elist: list, iord: list, nrmax: int) -> tuple[int, float, int]:
    """QUADPACK's dqpsrt: keep iord listing the intervals by descending error
    (only as many as the remaining subdivisions can reach) after interval
    maxerr was halved into maxerr and last; returns the next maxerr, its
    error and nrmax."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
        return iord[nrmax], elist[iord[nrmax]], nrmax
    errmax = elist[maxerr]
    for _ in range(nrmax - 1):
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    jupbn = LIMIT + 3 - last if last > LIMIT // 2 + 2 else last
    errmin = elist[last]
    jbnd = jupbn - 1
    for i in range(nrmax + 1, jbnd + 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            # insert errmax here, then errmin by traversing upwards from the bottom
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    break
                iord[k + 1] = isucc
                k -= 1
            iord[k + 1] = last
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd], iord[jupbn] = maxerr, last
    return iord[nrmax], elist[iord[nrmax]], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, float, float, int]:
    """QUADPACK's dqelg, Wynn's epsilon-algorithm on the n sums in epstab:
    returns (n, extrapolated value, its error, nres); epstab and the last
    three results in res3la are updated in place."""
    nres += 1
    abserr, result = _OFLOW, epstab[n]
    if n < 3:
        return n, result, max(abserr, 5 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        res = epstab[k1 + 2]
        e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], res
        e1abs = abs(e1)
        delta2, delta3 = e2 - e1, e1 - e0
        err2, err3 = abs(delta2), abs(delta3)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, res, max(err2 + err3, 5 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1 / delta1 + 1 / delta2 - 1 / delta3
        if not abs(ss * e1) > 1e-4:  # irregular table: drop its tail
            n = i + i - 1
            break
        res = e1 + 1 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr, result = error, res
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        epstab[1 : n + 1] = epstab[num - n + 1 : num + 1]
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1:4] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5 * _EPMACH * abs(result)), nres


def panels(fn: Callable[[np.ndarray], np.ndarray], a, b) -> np.ndarray:
    """Integral of fn over each [a_i, b_i] by one 16-point Gauss-Legendre panel.

    fn is vectorized; a and b broadcast together. A panel with b < a returns
    minus the integral over [b, a], summed in one order whatever shares the call.
    """
    x, half = panel_nodes(a, b)
    vals = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
    return (vals * GL_W).sum(axis=-1) * half


def panel_nodes(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(x, half): the 16 Gauss-Legendre nodes of each [a_i, b_i] on a last
    axis, and the half-widths, as `panels` places them."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    half = 0.5 * (b - a)
    return (a + half)[..., None] + half[..., None] * GL_X, half


def bisect_increasing(
    fn: Callable[[np.ndarray], np.ndarray],
    targets: np.ndarray,
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    iters: int = 72,
) -> np.ndarray:
    """Vectorized bisection: solve fn(x) = t for each t in `targets`.

    fn must be nondecreasing. Scalar lo/hi may be +-inf; finite brackets are
    then grown geometrically until they cover all targets. lo/hi may instead
    be finite arrays giving one bracket per target. 72 halvings shrink the
    bracket below 1e-21 of its initial width, far past the 1e-12
    in-probability tolerance used for inverse-CDF sampling.

    Distribution.quantile uses it to build each law's inverse table (also
    on laws with a ppf, whose Monte Carlo draws read that table), and, on
    laws without a ppf, for targets in a node interval that the table's
    cubic refinement leaves uncertified and for targets beyond a lattice or
    inverse table; Distribution.lattice_points uses it to find the end of
    each lattice enumeration.
    """
    targets = np.asarray(targets, dtype=float)
    if np.ndim(lo) == 0 and np.ndim(hi) == 0:
        lo, hi = _bracket(fn, targets, lo, hi)
    los = np.broadcast_to(np.asarray(lo, dtype=float), targets.shape)
    his = np.broadcast_to(np.asarray(hi, dtype=float), targets.shape)
    for _ in range(iters):
        mid = 0.5 * (los + his)
        below = fn(mid) < targets
        los = np.where(below, mid, los)
        his = np.where(below, his, mid)
    return 0.5 * (los + his)


def _bracket(fn, targets: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    tmin = float(np.min(targets))
    tmax = float(np.max(targets))
    a = lo if np.isfinite(lo) else -1.0
    b = hi if np.isfinite(hi) else 1.0
    if not np.isfinite(lo):
        for _ in range(2100):
            if fn(np.array([a]))[0] <= tmin:
                break
            a = a * 2.0 - 1.0
        else:  # pragma: no cover
            raise DivergentTail("could not bracket quantile from below")
    if not np.isfinite(hi):
        for _ in range(2100):
            if fn(np.array([b]))[0] >= tmax:
                break
            b = b * 2.0 + 1.0
        else:  # pragma: no cover
            raise DivergentTail("could not bracket quantile from above")
    return a, b
