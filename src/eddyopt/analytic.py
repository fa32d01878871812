"""Closed-form fields of a cylindrical conductor carrying a prescribed
total current, and the complex modified Bessel functions they need.

The fields solve the time-harmonic eddy-current equations inside the
cylinder {x^2 + y^2 <= R^2, 0 <= z <= L}:

    H = iota1 / (2 pi R) * I1(gamma r) / I1(gamma R) * e_theta
    E = iota1 gamma / (2 pi R sigma) * I0(gamma r) / I1(gamma R) * e_z
    J = sigma E = curl H

with gamma = sqrt(i omega mu sigma) (principal branch; either branch gives
the same fields since I1 is odd and I0 even).
"""

import math
from dataclasses import astuple, dataclass

import numpy as np
from scipy.special import iv


class DomainError(ValueError):
    pass


# Coefficients 1/(k! (k + nu)!) of the series of I_nu in t = x^2/4
# (Abramowitz & Stegun 9.6.10); at |t| <= 1 the first omitted term, k = 14,
# is below 2e-22.
_SERIES = {nu: [1.0 / (math.factorial(k) * math.factorial(k + nu))
                for k in range(14)] for nu in (0, 1)}


def _series(nu, x):
    """I_nu(x) = (x/2)^nu sum_k t^k / (k! (k + nu)!), t = x^2/4, by Horner.

    Every step makes a new array, so that a point rounds the same way
    whatever the length of the batch it is summed in.
    """
    h = 0.5 * x
    t = h * h
    c = _SERIES[nu]
    acc = np.full(x.shape, c[-1], dtype=complex)
    for ck in c[-2::-1]:
        acc = acc * t + ck
    return acc * h if nu else acc


def bessel_I(nu, x):
    """Modified Bessel function of the first kind, order nu in {0, 1}.

    The fixed-length power series `_series` for |x| <= 2, scipy.special.iv
    for 2 < |x| <= 50, point by point; a larger argument raises
    DomainError. A scalar is summed as a batch of one and returned as a
    Python complex.
    """
    if nu not in (0, 1):
        raise ValueError("order must be 0 or 1")
    x = np.asarray(x, dtype=complex)
    flat = x.reshape(-1)
    size = np.abs(flat)
    if np.any(size > 50.0):
        raise DomainError("argument outside the supported range |x| <= 50")
    large = size > 2.0
    if large.any():  # gather and scatter only where iv is needed
        value = np.empty_like(flat)
        value[large] = iv(nu, flat[large])
        value[~large] = _series(nu, flat[~large])
    else:
        value = _series(nu, flat)
    return value.reshape(x.shape) if x.shape else complex(value[0])


@dataclass(frozen=True)
class ElectrodeParams:
    """Physical data of the cylindrical conductor.

    iota1: total current through the cross section; omega: angular
    frequency; mu: permeability; sigma: conductivity; R, L: radius and
    height of the cylinder.
    """

    iota1: float = 1.0
    omega: float = 1.0
    mu: float = 1.0
    sigma: float = 1.0
    R: float = 0.5
    L: float = 1.0

    def __post_init__(self):
        if not np.isfinite(astuple(self)).all():
            raise ValueError("electrode parameters must be finite")
        if not (self.R > 0 and self.L > 0):
            raise ValueError("R and L must be positive")
        if not (self.mu > 0 and self.sigma > 0):
            raise ValueError("mu and sigma must be positive")
        if self.omega == 0:
            raise ValueError("omega must be nonzero")

    @property
    def gamma(self):
        return np.sqrt(1j * self.omega * self.mu * self.sigma)


def _cylinder_coords(points, params):
    """Validate points against the rod geometry, with a relative slack of
    1e-9 for points on its surface; any leading shape allowed."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if pts.shape[-1] != 3:
        raise ValueError("points must have a trailing dimension of 3")
    pts = pts.reshape(-1, 3)
    r = np.hypot(pts[:, 0], pts[:, 1])
    if np.any(r > params.R * (1.0 + 1e-9)):
        raise DomainError("point outside the cylinder radius")
    if np.any(pts[:, 2] < -1e-9 * params.L) or np.any(
            pts[:, 2] > params.L * (1.0 + 1e-9)):
        raise DomainError("point outside the cylinder height")
    return pts, r, single


def _restore(out, points, single):
    return out[0] if single else out.reshape(np.shape(points))


def exact_H(points, params=ElectrodeParams()):
    """Magnetic field; azimuthal, vanishing on the axis."""
    pts, r, single = _cylinder_coords(points, params)
    g = params.gamma
    amp = np.zeros(len(pts), dtype=complex)
    pos = r > 0.0
    scale = params.iota1 / (2.0 * np.pi * params.R * bessel_I(1, g * params.R))
    # I1(g r)/r stays finite at r -> 0; the axis value of H is exactly 0
    amp[pos] = scale * bessel_I(1, g * r[pos]) / r[pos]
    H = np.zeros((len(pts), 3), dtype=complex)
    H[:, 0] = -pts[:, 1] * amp
    H[:, 1] = pts[:, 0] * amp
    return _restore(H, points, single)


def exact_E(points, params=ElectrodeParams()):
    """Electric field; axial."""
    pts, r, single = _cylinder_coords(points, params)
    g = params.gamma
    scale = (params.iota1 * g
             / (2.0 * np.pi * params.R * params.sigma * bessel_I(1, g * params.R)))
    E = np.zeros((len(pts), 3), dtype=complex)
    E[:, 2] = scale * bessel_I(0, g * r)
    return _restore(E, points, single)


def exact_J(points, params=ElectrodeParams()):
    """Current density J = sigma E."""
    return params.sigma * exact_E(points, params)


def exact_curl_H(points, params=ElectrodeParams()):
    """curl H, equal to J by the field equations."""
    return exact_J(points, params)
