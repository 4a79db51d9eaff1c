"""Two-body coordinate stack.

Kepler equation, anomaly conversions, and the transformations between
Delaunay variables (L, G, l, g), polar canonical variables (R, G, r, theta),
and rotating-frame Cartesian variables (p_x, p_y, x, y).

Angles are kept as unreduced real numbers internally so that everything is
continuous; callers that want principal values can reduce mod 2*pi at the
boundary.  Direct orbits carry L > 0, G > 0; retrograde orbits L < 0, G < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError

_KEPLER_TOL = 1e-14
_KEPLER_MAX_ITER = 50


@dataclass(frozen=True)
class DelaunayState:
    """Canonical two-body variables.  sign(L) must equal sign(G)."""

    L: float
    G: float
    l: float
    g: float

    def __post_init__(self):
        if self.L == 0.0:
            raise ValidationError("L = 0 is not a valid Delaunay state")
        if self.L * self.G < 0.0:
            raise ValidationError("sign(L) must equal sign(G)")
        e2 = 1.0 - self.G**2 / self.L**2
        if not 0.0 <= e2 < 1.0:
            raise ValidationError(f"|G| must not exceed |L| (got e^2 = {e2})")

    @property
    def eccentricity(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.G**2 / self.L**2))

    @property
    def semimajor_axis(self) -> float:
        return self.L**2


@dataclass(frozen=True)
class PolarState:
    """Polar canonical variables: R conjugate to r, G conjugate to theta."""

    R: float
    G: float
    r: float
    theta: float

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValidationError("r must be positive")


@dataclass(frozen=True)
class RtbpState:
    """Rotating-frame Cartesian state (p_x, p_y, x, y)."""

    p_x: float
    p_y: float
    x: float
    y: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p_x, self.p_y, self.x, self.y])

    @staticmethod
    def from_array(s) -> "RtbpState":
        return RtbpState(float(s[0]), float(s[1]), float(s[2]), float(s[3]))


def solve_kepler(l: float, e: float) -> float:
    """Solve E - e*sin(E) = l for the eccentric anomaly E.

    Newton iteration seeded with E0 = l + e*sin(l); any Newton step that
    leaves the bracket [l - e, l + e] falls back to a bisection step.
    The returned E is continuous in l (E - l is bounded by e).
    """
    if not 0.0 <= e < 1.0:
        raise ValidationError(f"eccentricity must be in [0, 1), got {e}")
    if e == 0.0:
        return l
    lo, hi = l - e, l + e
    E = l + e * math.sin(l)
    for _ in range(_KEPLER_MAX_ITER):
        f = E - e * math.sin(E) - l
        if abs(f) <= _KEPLER_TOL:
            return E
        step = f / (1.0 - e * math.cos(E))
        E_new = E - step
        if not lo <= E_new <= hi:
            # Kepler's equation is monotone in E; bisect the bracket.
            if f > 0.0:
                hi = E
            else:
                lo = E
            E_new = 0.5 * (lo + hi)
        else:
            if f > 0.0:
                hi = min(hi, E)
            else:
                lo = max(lo, E)
        E = E_new
    f = E - e * math.sin(E) - l
    if abs(f) <= _KEPLER_TOL:
        return E
    raise ConvergenceError(f"Kepler solver did not converge for l={l}, e={e}")


def true_anomaly(E, e):
    """True anomaly from the eccentric anomaly, continuously unwrapped.

    Uses nu = E + 2*arctan(beta*sin(E) / (1 - beta*cos(E))) with
    beta = e / (1 + sqrt(1 - e^2)); the correction term is bounded, so the
    result satisfies nu(E + 2*pi) = nu(E) + 2*pi and sin(nu) has the sign
    of sin(E).  Works on scalars and arrays.
    """
    if not 0.0 <= e < 1.0:
        raise ValidationError(f"eccentricity must be in [0, 1), got {e}")
    return E + anomaly_offset(anomaly_beta(e), np.sin(E), np.cos(E))


def anomaly_beta(e):
    """beta = e / (1 + sqrt(1 - e^2)), the eccentricity term of anomaly_offset."""
    return e / (1.0 + math.sqrt(1.0 - e * e))


def anomaly_offset(beta, sinE, cosE):
    """nu - E = 2*arctan(beta*sin(E) / (1 - beta*cos(E))) at beta = anomaly_beta(e),
    from sin(E) and cos(E): bounded, and 2*pi-periodic in E.  beta may be an
    array that broadcasts against them."""
    return 2.0 * np.arctan(beta * sinE / (1.0 - beta * cosE))


def delaunay_to_polar(s: DelaunayState) -> PolarState:
    """Map Delaunay variables to the polar canonical chart.

    Requires 0 < e < 1.  The radial momentum is R = e*sin(E) / (L*(1 - e*cos(E)))
    so that sign(R) = sign(sin E) * sign(L), and theta = nu + g.
    """
    e = s.eccentricity
    if not 0.0 < e < 1.0:
        raise ValidationError(f"delaunay_to_polar requires 0 < e < 1, got e={e}")
    E = solve_kepler(s.l, e)
    r = s.semimajor_axis * (1.0 - e * math.cos(E))
    R = e * math.sin(E) / (s.L * (1.0 - e * math.cos(E)))
    return PolarState(R=R, G=s.G, r=r, theta=float(true_anomaly(E, e)) + s.g)


def polar_to_delaunay(s: PolarState) -> DelaunayState:
    """Inverse of delaunay_to_polar (elliptic states only)."""
    H0 = 0.5 * (s.R**2 + s.G**2 / s.r**2) - 1.0 / s.r
    if H0 >= 0.0:
        raise ValidationError("state is not elliptic (two-body energy >= 0)")
    if s.G == 0.0:
        raise ValidationError("G = 0 (degenerate rectilinear orbit)")
    e2 = 1.0 + 2.0 * s.G**2 * H0
    e = math.sqrt(max(0.0, e2))
    if not 0.0 < e < 1.0:
        raise ValidationError(f"polar_to_delaunay requires 0 < e < 1, got e={e}")
    a = -1.0 / (2.0 * H0)
    L = math.copysign(math.sqrt(a), s.G)
    cosE = (1.0 - s.r / a) / e
    cosE = min(1.0, max(-1.0, cosE))
    # R L r = a e sin E, so both components of E are well conditioned; the
    # turning points R = 0 land on E = 0 (perihelion) and E = pi (aphelion).
    sinE = s.R * L * s.r / (a * e)
    E = math.atan2(sinE, cosE)
    l = E - e * math.sin(E)
    nu = float(true_anomaly(E, e))
    return DelaunayState(L=L, G=s.G, l=l, g=s.theta - nu)


def polar_to_cartesian_rotating(s: PolarState) -> RtbpState:
    """Polar canonical chart to rotating Cartesian canonical chart.

    The canonical momenta equal the inertial velocity components, i.e.
    (p_x, p_y) is (R, G/r) rotated by theta.  Equivalently p_x = xdot - y and
    p_y = ydot + x with the rotating-frame velocity (xdot, ydot) derived from
    rdot = R and thetadot = G/r^2 - 1.
    """
    if s.r <= 0.0:
        raise ValidationError("r must be positive")
    c, sn = math.cos(s.theta), math.sin(s.theta)
    vt = s.G / s.r
    return RtbpState(
        p_x=s.R * c - vt * sn,
        p_y=s.R * sn + vt * c,
        x=s.r * c,
        y=s.r * sn,
    )


def cartesian_to_polar_rotating(s: RtbpState) -> PolarState:
    """Inverse of polar_to_cartesian_rotating."""
    r = math.hypot(s.x, s.y)
    if r == 0.0:
        raise ValidationError("r = 0: polar chart undefined")
    theta = math.atan2(s.y, s.x)
    R = (s.x * s.p_x + s.y * s.p_y) / r
    G = s.x * s.p_y - s.y * s.p_x
    return PolarState(R=R, G=G, r=r, theta=theta)


def delaunay_to_cartesian(s: DelaunayState) -> RtbpState:
    return polar_to_cartesian_rotating(delaunay_to_polar(s))


def cartesian_to_delaunay(s: RtbpState) -> DelaunayState:
    return polar_to_delaunay(cartesian_to_polar_rotating(s))

