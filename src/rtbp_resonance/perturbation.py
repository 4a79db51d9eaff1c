"""The resonant track and its quadrature integrands.

The stability quadrature integrates
    (r/Delta1)_thetatheta + cos(theta)/r
over one period of the track F -> (r(F), theta(F)) of a p:q resonant
Keplerian orbit, where Delta1^2 = 1 + r^2 - 2 r cos(theta) is the squared
distance to the small primary (placed at radius 1 in the mu -> 0 limit).

Delta1^2 is computed in the equal half-angle form (r - 1)^2 + 4 r sin^2(theta/2),
a sum of two non-negative terms: the definition's form cancels on grazing
tracks (r ~ 1, theta ~ 0), and Delta1^-5 in the integrand amplifies that loss.
The integrands need only sin^2(theta/2), which gives Delta1^2 and
cos(theta) = 1 - 2 sin^2(theta/2), and sin^2(theta).

On the quadrature grid F = F_c + i*pi/n (F_c = n_l*pi/q, n a power of two)
every phase is an integer multiple of pi/n plus a bounded term:
    E/2 = n_l*pi/2 + q*i*pi/(2n),
    theta/2 = (n_l + n_g)*pi/2 + k*i*pi/(2n) + (w +- (p/q)*e*sin(E))/2,
with w = nu - E, k = q - p and + for direct orbits, k = q + p and - for
retrograde ones.  The grid kernel takes one tangent of each half phase,
t = tan(E/2) and tau = tan(theta/2), whose period is pi, so the integer parts
are reduced exactly in int64 mod 2n (by a mask) and the angles passed to tan
lie in [0, pi) plus O(1), with roundoff of a few ulps of pi.  The float phases
E = q*F and theta, up to (p + q)*pi, carry roundoff proportional to p + q
instead, which Delta1^-5 amplifies on a close pass.  From the tangents,
    sin E = 2t/(1 + t^2), cos E = (1 - t^2)/(1 + t^2),
    sin^2(theta/2) = tau^2/(1 + tau^2), sin^2(theta) = 4 sin^2(theta/2)/(1 + tau^2):
numpy's tan is vectorized where its sin and cos may be scalar libm calls, so
two tangents a node cost much less than four sines and cosines.  The poles
are harmless: tan of the float nearest pi/2 is ~1.6e16, whose square does not
overflow, and E = pi gives sin E ~ 1.2e-16 and cos E = -1.  The grid kernel
takes a batch of families, one row of indices each; E depends only on
(n_l, q), so families that share both and their index row share tan(E/2).
The float kernel (F given, no n) and the collision guard's Delta1 keep sin
and cos of the float phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ValidationError
from .kepler import DelaunayState, anomaly_beta, anomaly_offset, true_anomaly


@dataclass(frozen=True)
class ResonantFamily:
    """One family of p:q resonant periodic orbits.

    The two distinct families for given (p, q, e) are, in canonical form,
    n_g = 0 with n_l in {0, 1} when p is odd, and n_l = 0 with
    n_g in {0, 1} when p is even.
    """

    p: int
    q: int
    e: float
    n_l: int = 0
    n_g: int = 0
    direction: str = "direct"

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValidationError("p and q must be positive integers")
        if math.gcd(self.p, self.q) != 1:
            raise ValidationError(f"p={self.p}, q={self.q} are not coprime")
        if self.p == self.q:
            raise ValidationError("the 1/1 resonance is excluded")
        if not 0.0 < self.e < 1.0:
            raise ValidationError(f"eccentricity must be in (0, 1), got {self.e}")
        if self.n_l not in (0, 1) or self.n_g not in (0, 1):
            raise ValidationError("n_l and n_g must be 0 or 1")
        if self.direction not in ("direct", "retrograde"):
            raise ValidationError(f"unknown direction {self.direction!r}")
        if self.p % 2 == 1 and self.n_g != 0:
            raise ValidationError("canonical form requires n_g = 0 for odd p")
        if self.p % 2 == 0 and self.n_l != 0:
            raise ValidationError("canonical form requires n_l = 0 for even p")

    @property
    def retrograde(self) -> bool:
        return self.direction == "retrograde"

    @property
    def semimajor_axis(self) -> float:
        return (self.p / self.q) ** (2.0 / 3.0)

    def sibling(self) -> "ResonantFamily":
        """The other canonical family at the same (p, q, e, direction)."""
        if self.p % 2 == 1:
            return ResonantFamily(self.p, self.q, self.e, 1 - self.n_l, 0, self.direction)
        return ResonantFamily(self.p, self.q, self.e, 0, 1 - self.n_g, self.direction)


def canonical_families(p, q, e, direction="direct"):
    """The two distinct families for given (p, q, e), in a fixed order."""
    f0 = ResonantFamily(p, q, e, 0, 0, direction)
    return f0, f0.sibling()


def _delta1_sq(r, sh2):
    """Delta1^2 = (r - 1)^2 + 4 r sh2 at sh2 = sin^2(theta/2)."""
    return (r - 1.0) ** 2 + 4.0 * r * sh2


def delta1(r, theta):
    """Distance to the small primary."""
    sh = np.sin(0.5 * theta)
    return np.sqrt(_delta1_sq(r, sh * sh))


def _integrand_parts(r, sh2, s2, d2):
    """(r/Delta1)_thetatheta with r held fixed, and cos(theta)/r, at
    sh2 = sin^2(theta/2), s2 = sin^2(theta) and Delta1^2 = d2.

    Closed form of the first: (3 r^3 sin^2(theta) - r^2 cos(theta) Delta1^2) / Delta1^5,
    with cos(theta) = 1 - 2 sh2.
    """
    c = 1.0 - 2.0 * sh2
    return r * r * (3.0 * r * s2 - c * d2) / (d2 * d2 * np.sqrt(d2)), c / r


def _track(f: ResonantFamily, F):
    """(r, theta, t) along the track at the given F; see track_arrays."""
    F = np.asarray(F, dtype=float)
    E = f.q * F
    sinE = np.sin(E)
    cosE = np.cos(E)
    l = E - f.e * sinE
    if f.retrograde:
        t = (f.n_l * math.pi - l) * f.p / f.q
    else:
        t = (l - f.n_l * math.pi) * f.p / f.q
    r = f.semimajor_axis * (1.0 - f.e * cosE)
    nu = true_anomaly(E, f.e, sinE, cosE)
    return r, nu + f.n_g * math.pi - t, t


def track_arrays(f: ResonantFamily, F):
    """Vectorised resonant track: returns (r, theta, t, delta1) at the given F.

    E = q*F, l = E - e*sin(E); direct orbits have t = (l - n_l*pi)*p/q and
    retrograde ones t = (n_l*pi - l)*p/q; theta = nu + n_g*pi - t with nu
    continuously unwrapped, so theta is continuous in F.
    """
    r, theta, t = _track(f, F)
    return r, theta, t, delta1(r, theta)


def _col(values):
    return np.array(values)[:, None]


@dataclass(frozen=True)
class GridFamilies:
    """The per-family constants of the grid kernel for a batch of families,
    one (families, 1) column each.  Built once per batch (GridFamilies.of);
    indexing by a slice or a list of rows gives the columns of those families,
    so an integrand call does no per-family Python work beyond grouping the
    families that share tan(E/2)."""

    key: np.ndarray  # 2*q + n_l: equal for the families that share E
    n_l: np.ndarray
    q: np.ndarray
    k: np.ndarray  # q - p direct, q + p retrograde
    turns: np.ndarray  # n_l + n_g
    e: np.ndarray
    beta: np.ndarray  # anomaly_beta(e)
    ecc: np.ndarray  # (p/q)*e direct, -(p/q)*e retrograde
    a: np.ndarray  # semimajor axis

    @classmethod
    def of(cls, families) -> "GridFamilies":
        return cls(
            key=_col([2 * f.q + f.n_l for f in families]),
            n_l=_col([f.n_l for f in families]),
            q=_col([f.q for f in families]),
            k=_col([f.q + f.p if f.retrograde else f.q - f.p for f in families]),
            turns=_col([f.n_l + f.n_g for f in families]),
            e=_col([f.e for f in families]),
            beta=_col([anomaly_beta(f.e) for f in families]),
            ecc=_col([(-1.0 if f.retrograde else 1.0) * (f.p / f.q) * f.e for f in families]),
            a=_col([f.semimajor_axis for f in families]),
        )

    def __len__(self) -> int:
        return len(self.key)

    def __getitem__(self, rows) -> "GridFamilies":
        return GridFamilies(*(column[rows] for column in vars(self).values()))


def _grid_track(families, i, n: int):
    """(r, tan(theta/2)) at the grid nodes F_c + i*pi/n of each family, from
    int64 indices i with one row per family, the integer phases reduced
    exactly (see the module docstring).  families is a sequence of families
    or their GridFamilies.

    E depends on the family only through (n_l, q).  Index rows broadcast from
    one shared row (stride 0, as np.broadcast_to makes them) therefore take
    tan(E/2), and sin E and cos E from it, once per distinct (n_l, q); other
    rows once per family.
    """
    g = families if isinstance(families, GridFamilies) else GridFamilies.of(families)
    i = np.asarray(i, dtype=np.int64)
    keys = g.key[:, 0].tolist() if i.strides[0] == 0 else range(len(g))
    rows = {}  # key -> (its row of E, its first family)
    row = [rows.setdefault(key, (len(rows), k))[0] for k, key in enumerate(keys)]
    first = [k for _, k in rows.values()]
    step = 0.5 * math.pi / n
    t = np.tan(((g.n_l[first] * n + g.q[first] * i[first]) & (2 * n - 1)) * step)
    t2 = t * t
    sec2 = 1.0 + t2  # 1 / cos^2(E/2)
    sinE, cosE = 2.0 * t / sec2, (1.0 - t2) / sec2
    if len(first) < len(row):
        sinE, cosE = sinE[row], cosE[row]
    bounded = anomaly_offset(g.beta, sinE, cosE) + g.ecc * sinE
    j = (g.turns * n + g.k * i) & (2 * n - 1)  # tan has period pi in theta/2
    r = g.a * (1.0 - g.e * cosE)
    return r, np.tan(j * step + 0.5 * bounded)


def track_integrand(f, F, n: int | None = None):
    """The two quadrature integrands along the track: ((r/Delta1)_tt, cos(theta)/r).

    Without n, f is one family and F holds values of F.  With the power of
    two n, f is a sequence of families (or their GridFamilies) and F holds
    int64 indices i of the grid nodes F_c + i*pi/n (F_c = n_l*pi/q), one row
    per family, whose phases are then reduced exactly; each integrand then
    has one row per family.
    """
    if n is None:
        r, theta, _ = _track(f, F)
        half = 0.5 * theta
        sh = np.sin(half)
        sh2, s2 = sh * sh, (2.0 * sh * np.cos(half)) ** 2
    elif n < 1 or n & (n - 1):
        raise ValidationError(f"grid index base n must be a power of two, got {n}")
    else:
        r, tau = _grid_track(f, F, n)
        tau2 = tau * tau
        sec2 = 1.0 + tau2  # 1 / cos^2(theta/2)
        sh2 = tau2 / sec2
        s2 = 4.0 * sh2 / sec2
    d2 = _delta1_sq(r, sh2)
    if np.any(d2 <= 0.0):
        raise CollisionError("resonant track passes through the small primary")
    return _integrand_parts(r, sh2, s2, d2)


def delaunay_initial_state(f: ResonantFamily):
    """Delaunay initial conditions of the family (mu = 0)."""
    sign = -1.0 if f.retrograde else 1.0
    L = sign * (f.p / f.q) ** (1.0 / 3.0)
    G = L * math.sqrt(1.0 - f.e**2)
    return DelaunayState(L=L, G=G, l=f.n_l * math.pi, g=f.n_g * math.pi)
