"""The resonant track and its quadrature integrands.

The stability quadrature integrates
    (r/Delta1)_thetatheta + cos(theta)/r
over one period of the track F -> (r(F), theta(F)) of a p:q resonant
Keplerian orbit, where Delta1^2 = 1 + r^2 - 2 r cos(theta) is the squared
distance to the small primary (placed at radius 1 in the mu -> 0 limit).

Delta1^2 is computed in the equal half-angle form (r - 1)^2 + 4 r sin^2(theta/2),
a sum of two non-negative terms: the definition's form cancels on grazing
tracks (r ~ 1, theta ~ 0), and Delta1^-5 in the integrand amplifies that loss.
The integrand kernel takes sin(theta/2) and cos(theta/2) once per node and
derives sin(theta) and cos(theta) from them.

On the quadrature grid F = F_c + i*pi/n (F_c = n_l*pi/q, n a power of two)
every phase is an integer multiple of pi/n plus a bounded term:
    E = n_l*pi + q*i*pi/n,
    theta/2 = (n_l + n_g)*pi/2 + k*i*pi/(2n) + (w +- (p/q)*e*sin(E))/2,
with w = nu - E, k = q - p and + for direct orbits, k = q + p and - for
retrograde ones.  The integer parts are reduced exactly in int64 (mod 2n and
4n, by a mask), so the angles passed to sin and cos lie in [0, 2*pi) plus
O(1) and carry roundoff of a few ulps of 2*pi.  The float phases E = q*F and
theta, up to (p + q)*pi, carry roundoff proportional to p + q instead, which
Delta1^-5 amplifies on a close pass.  The grid kernel takes a batch of
families, one row of indices each; E depends only on (n_l, q), so families
that share both and their index row share sin E and cos E.
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


def _delta1_sq(r, sh):
    """Delta1^2 = (r - 1)^2 + 4 r sh^2 at sh = sin(theta/2)."""
    return (r - 1.0) ** 2 + 4.0 * r * (sh * sh)


def delta1(r, theta):
    """Distance to the small primary."""
    return np.sqrt(_delta1_sq(r, np.sin(0.5 * theta)))


def _integrand_parts(r, sh, ch, d2):
    """(r/Delta1)_thetatheta with r held fixed, and cos(theta)/r, at
    sh = sin(theta/2), ch = cos(theta/2) and Delta1^2 = d2.

    Closed form of the first: (3 r^3 sin^2(theta) - r^2 cos(theta) Delta1^2) / Delta1^5,
    with sin(theta) = 2 sh ch and cos(theta) = 1 - 2 sh^2.
    """
    s = 2.0 * sh * ch
    c = 1.0 - 2.0 * sh * sh
    return r * r * (3.0 * r * s * s - c * d2) / (d2 * d2 * np.sqrt(d2)), c / r


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
    families that share sin E and cos E."""

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
    """(r, theta/2) at the grid nodes F_c + i*pi/n of each family, from int64
    indices i with one row per family, the integer phases reduced exactly
    (see the module docstring).  families is a sequence of families or their
    GridFamilies.

    E depends on the family only through (n_l, q).  Index rows broadcast from
    one shared row (stride 0, as np.broadcast_to makes them) therefore take
    sin E and cos E once per distinct (n_l, q); other rows once per family.
    """
    g = families if isinstance(families, GridFamilies) else GridFamilies.of(families)
    i = np.asarray(i, dtype=np.int64)
    keys = g.key[:, 0].tolist() if i.strides[0] == 0 else range(len(g))
    rows = {}  # key -> (its row of E, its first family)
    row = [rows.setdefault(key, (len(rows), k))[0] for k, key in enumerate(keys)]
    first = [k for _, k in rows.values()]
    E = ((g.n_l[first] * n + g.q[first] * i[first]) & (2 * n - 1)) * (math.pi / n)
    sinE, cosE = np.sin(E), np.cos(E)
    if len(first) < len(row):
        sinE, cosE = sinE[row], cosE[row]
    bounded = anomaly_offset(g.beta, sinE, cosE) + g.ecc * sinE
    j = (g.turns * n + g.k * i) & (4 * n - 1)
    r = g.a * (1.0 - g.e * cosE)
    return r, j * (0.5 * math.pi / n) + 0.5 * bounded


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
    elif n < 1 or n & (n - 1):
        raise ValidationError(f"grid index base n must be a power of two, got {n}")
    else:
        r, half = _grid_track(f, F, n)
    sh = np.sin(half)
    d2 = _delta1_sq(r, sh)
    if np.any(d2 <= 0.0):
        raise CollisionError("resonant track passes through the small primary")
    return _integrand_parts(r, sh, np.cos(half), d2)


def delaunay_initial_state(f: ResonantFamily):
    """Delaunay initial conditions of the family (mu = 0)."""
    sign = -1.0 if f.retrograde else 1.0
    L = sign * (f.p / f.q) ** (1.0 / 3.0)
    G = L * math.sqrt(1.0 - f.e**2)
    return DelaunayState(L=L, G=G, l=f.n_l * math.pi, g=f.n_g * math.pi)
