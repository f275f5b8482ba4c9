"""Accuracy of the scipy.special functions the registry calls, against
mpmath references."""

import mpmath as mp
import numpy as np
import pytest
from scipy import special


@pytest.mark.parametrize("x", [-4.0, -1.5, -0.3, 0.0, 0.2, 1.0, 2.7, 5.5])
def test_erf_matches_mpmath(x):
    with mp.workdps(40):
        assert special.erf(x) == pytest.approx(float(mp.erf(x)), abs=1e-15, rel=1e-15)


@pytest.mark.parametrize("x", [-2.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
def test_erfi_matches_mpmath(x):
    with mp.workdps(40):
        assert special.erfi(x) == pytest.approx(float(mp.erfi(x)), rel=1e-14, abs=0)


def test_erfi_dawson_identity():
    xs = np.linspace(-2, 2, 41)
    lhs = special.erfi(xs)
    rhs = 2 / np.sqrt(np.pi) * np.exp(xs**2) * special.dawsn(xs)
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("s", [2.0, 3.0, 3.5, 4.0, 5.0])
def test_riemann_zeta(s):
    with mp.workdps(40):
        assert special.zeta(s) == pytest.approx(float(mp.zeta(s)), rel=1e-13, abs=0)


def test_zeta_4_closed_form():
    assert special.zeta(4.0) == pytest.approx(np.pi**4 / 90, rel=1e-14, abs=0)


@pytest.mark.parametrize("s,q", [(4.0, 3.0), (3.5, 10.0), (3.0, 100.0)])
def test_hurwitz_zeta_tail(s, q):
    with mp.workdps(40):
        assert special.zeta(s, q) == pytest.approx(float(mp.zeta(s, q)), rel=1e-12, abs=0)


@pytest.mark.parametrize("a,x", [(0.5, 0.2), (2.0, 1.0), (5.0, 9.0)])
def test_incomplete_gamma_pair(a, x):
    lower = special.gammainc(a, x)
    upper = special.gammaincc(a, x)
    with mp.workdps(40):
        ref = float(mp.gammainc(a, 0, x, regularized=True))
    assert lower == pytest.approx(ref, rel=1e-13, abs=0)
    assert lower + upper == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("a,b,x", [(2.0, 3.0, 0.4), (0.5, 1.0, 0.9), (2.0, 11.0, 0.3)])
def test_incomplete_beta(a, b, x):
    with mp.workdps(40):
        ref = float(mp.betainc(a, b, 0, x, regularized=True))
    assert special.betainc(a, b, x) == pytest.approx(ref, rel=1e-12, abs=0)
    assert special.betainc(a, b, x) + special.betaincc(a, b, x) == pytest.approx(1.0, abs=1e-14)


def test_gamma_function_values():
    assert special.gamma(0.5) == pytest.approx(np.sqrt(np.pi), rel=1e-15, abs=0)
    assert special.gamma(5.0) == pytest.approx(24.0, rel=1e-15, abs=0)


def test_normal_pair():
    xs = np.linspace(-6, 6, 25)
    assert np.allclose(special.ndtr(xs) + special.ndtr(-xs), 1.0, atol=1e-15)
    ps = np.linspace(1e-10, 1 - 1e-10, 9)
    assert np.allclose(special.ndtr(special.ndtri(ps)), ps, rtol=1e-12)
