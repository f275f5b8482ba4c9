"""Quadrature and root-bracketing helpers shared across modules.

Adaptive integration is delegated to QUADPACK through scipy.integrate.quad
(absolute tolerance 1e-11, relative 1e-9 by default); infinite ranges are
passed straight through so the transformed Gauss-Kronrod rule plus epsilon
extrapolation handles heavy polynomial tails, which a fixed quantile clip
cannot. `panels` is the fixed-rule counterpart for many short intervals at
once: the stop-loss table of `dist` integrates over its node intervals with
it, and the erfi families take their upper survival from it.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from scipy.integrate import quad

from .errors import DivergentTail

EPSABS = 1e-11
EPSREL = 1e-9
# 16-point Gauss-Legendre abscissae and weights on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def integrate(fn: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Integrate fn over [lo, hi] adaptively; returns (value, error estimate)."""
    with np.errstate(all="ignore"):
        val, err, *rest = quad(
            fn, lo, hi, epsabs=EPSABS, epsrel=EPSREL, limit=400, full_output=1
        )
    if not np.isfinite(val):
        raise DivergentTail(f"integral over [{lo}, {hi}] did not converge")
    return float(val), float(err)


def panels(fn: Callable[[np.ndarray], np.ndarray], a, b) -> np.ndarray:
    """Integral of fn over each [a_i, b_i] by one 16-point Gauss-Legendre panel.

    fn is vectorized; a and b broadcast together. A panel with b < a returns
    minus the integral over [b, a].
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    half = 0.5 * (b - a)
    x = (a + half)[..., None] + half[..., None] * _GL_X
    vals = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
    return (vals @ _GL_W) * half


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

    Distribution.quantile uses it to build each law's inverse table, for
    targets in a node interval that the table's cubic refinement leaves
    uncertified, and for targets beyond a lattice or inverse table;
    Distribution.lattice_points uses it to find the end of each lattice
    enumeration.
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
