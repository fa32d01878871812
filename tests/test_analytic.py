"""Analytic cylinder solution and the modified Bessel series behind it."""

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from eddyopt import analytic
from eddyopt.analytic import (
    DomainError, ElectrodeParams, bessel_I, exact_curl_H, exact_E, exact_H,
    exact_J,
)

mpmath.mp.dps = 50


def mp_bessel_I(nu, x):
    v = mpmath.besseli(nu, mpmath.mpc(x))
    return complex(v)


def test_bessel_I0_at_one():
    # independent high-precision reference value
    assert bessel_I(0, 1.0) == pytest.approx(1.2660658777520084, rel=1e-15)


def test_bessel_series_matches_extended_precision():
    rng = np.random.default_rng(42)
    pts = 2.0 * (rng.random(100) * np.exp(2j * np.pi * rng.random(100)))
    for nu in (0, 1):
        for x in pts:
            ref = mp_bessel_I(nu, x)
            assert abs(bessel_I(nu, x) - ref) <= 1e-14 * abs(ref)


def test_bessel_vectorized_matches_scalar():
    xs = np.array([0.3 + 0.1j, 1.0 - 2.0j, 0.0, 5.0])
    out = bessel_I(1, xs)
    for x, o in zip(xs, out):
        assert o == bessel_I(1, complex(x))


@pytest.mark.parametrize("nu", [0, 1])
def test_bessel_value_does_not_depend_on_its_batch(nu):
    # a point summed alone equals, bit for bit, the same point summed next
    # to one whose series needs many more terms
    rng = np.random.default_rng(2000)
    xs = 3.0 * rng.random(2000) * np.exp(0.25j * np.pi)
    batch = bessel_I(nu, np.append(xs, 30.0 + 30.0j))[:-1]
    alone = np.array([bessel_I(nu, x) for x in xs])
    assert alone.tobytes() == batch.tobytes()
    assert bessel_I(nu, xs[:1]).tobytes() == batch[:1].tobytes()


@pytest.mark.parametrize("nu", [0, 1])
def test_bessel_series_meets_iv_at_the_seam_and_iv_takes_the_rest(
        monkeypatch, nu):
    # the series serves |x| <= 2 and scipy's iv the rest: the two agree on
    # both sides of |x| = 2, and iv is never handed a point the series takes
    rng = np.random.default_rng(31)
    angles = np.exp(2j * np.pi * rng.random(400))
    xs = np.concatenate([rng.uniform(1.9, 2.1, 400) * angles,
                         2.0 * angles[:50],
                         rng.uniform(2.0, 50.0, 400) * angles])
    seen = []

    def counted_iv(order, x):
        seen.append(np.abs(x))
        return scipy.special.iv(order, x)
    monkeypatch.setattr(analytic, "iv", counted_iv)
    got = bessel_I(nu, xs)
    seen = np.concatenate(seen)
    assert seen.size == np.count_nonzero(np.abs(xs) > 2.0)
    assert np.all(seen > 2.0)
    want = scipy.special.iv(nu, xs)
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def test_bessel_at_zero():
    assert bessel_I(0, 0.0) == 1.0
    assert bessel_I(1, 0.0) == 0.0


def test_bessel_rejects_large_argument():
    with pytest.raises(ValueError):
        bessel_I(0, 51.0)


@settings(max_examples=40, deadline=None)
@given(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                          allow_infinity=False))
def test_bessel_conjugation_symmetry(x):
    for nu in (0, 1):
        assert bessel_I(nu, np.conj(x)) == pytest.approx(
            np.conj(bessel_I(nu, x)), rel=1e-13, abs=1e-300)


def test_gamma_unit_parameters():
    p = ElectrodeParams()
    assert p.gamma == pytest.approx((1 + 1j) / np.sqrt(2))


def test_fields_are_branch_independent():
    # gamma -> -gamma leaves H and E unchanged: I1 is odd, I0 is even
    p = ElectrodeParams()
    g = p.gamma
    pts = np.array([[0.2, 0.1, 0.5], [0.0, 0.4, 0.2]])
    r = np.hypot(pts[:, 0], pts[:, 1])
    h_plus = bessel_I(1, g * r) / bessel_I(1, g * p.R)
    h_minus = bessel_I(1, -g * r) / bessel_I(1, -g * p.R)
    assert h_plus == pytest.approx(h_minus)
    e_plus = g * bessel_I(0, g * r) / bessel_I(1, g * p.R)
    e_minus = -g * bessel_I(0, -g * r) / bessel_I(1, -g * p.R)
    assert e_plus == pytest.approx(e_minus)


def test_H_is_azimuthal_and_zero_on_axis():
    p = ElectrodeParams()
    assert np.all(exact_H(np.array([0.0, 0.0, 0.3]), p) == 0)
    x = np.array([0.3, 0.2, 0.7])
    H = exact_H(x, p)
    assert abs(H @ np.array([x[0], x[1], 0])) < 1e-15  # no radial part
    assert H[2] == 0


def test_E_is_axial_and_J_is_sigma_E():
    p = ElectrodeParams(sigma=2.5)
    x = np.array([0.1, -0.2, 0.4])
    E = exact_E(x, p)
    assert E[0] == 0 and E[1] == 0 and E[2] != 0
    assert exact_J(x, p) == pytest.approx(2.5 * E)


def test_curl_H_equals_J_numerically():
    # independent route: central differences of exact_H
    p = ElectrodeParams()
    x0 = np.array([0.15, 0.1, 0.5])
    h = 1e-6
    curl = np.zeros(3, dtype=complex)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            e = np.zeros(3)
            e[j] = h
            dH = (exact_H(x0 + e, p) - exact_H(x0 - e, p)) / (2 * h)
            # curl_k = eps_kji dH_i/dx_j
            k = 3 - i - j
            sign = 1.0 if (k, j, i) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
            curl[k] += sign * dH[i]
    assert curl == pytest.approx(exact_curl_H(x0, p), rel=1e-8)


def test_domain_checks():
    p = ElectrodeParams()
    with pytest.raises(DomainError):
        exact_H(np.array([0.6, 0.0, 0.5]), p)
    with pytest.raises(DomainError):
        exact_H(np.array([0.1, 0.0, 1.5]), p)
    with pytest.raises(DomainError):
        exact_E(np.array([0.0, 0.0, -0.5]), p)


def test_batched_point_shapes():
    p = ElectrodeParams()
    pts = np.array([[[0.1, 0, 0.2], [0.2, 0, 0.4]],
                    [[0.0, 0.1, 0.6], [0.1, 0.1, 0.8]]])
    H = exact_H(pts, p)
    assert H.shape == pts.shape
    assert H[0, 1] == pytest.approx(exact_H(pts[0, 1], p))


def test_electrode_params_validation():
    with pytest.raises(ValueError):
        ElectrodeParams(R=-1.0)
    with pytest.raises(ValueError):
        ElectrodeParams(omega=0.0)
    with pytest.raises(ValueError):
        ElectrodeParams(sigma=0.0)
    for name in ("iota1", "omega", "mu", "sigma", "R", "L"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                ElectrodeParams(**{name: bad})
