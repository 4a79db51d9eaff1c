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
The same kernel takes nodes off the grid in integer form,
F = F_c + (i + x)*pi/n with |x| <= 1/2: i is reduced exactly and x times the
phase rates (q for E/2, k for theta/2) added after it.  These are the
nodes of coefficient's panel rule (track_integrand with x), and track_speed
gives the height of each close pass.

This module is the one place that evaluates the track.  Off the grid, the
float track (float_track) takes sin and cos of the float phases for a batch
of families, one row of F each; it samples Delta1 for the collision guard
and the panel rule's minimum search, at the spacing they share, and its
one-family case track_arrays and the float track_integrand (F given, no n,
the tests' reference).  delta1_at is its Delta1 on Python floats, one point
at a time, for the refinement of every minimum.  Both kernels know a shared
row by its stride 0 (as np.broadcast_to makes it) and group it by key
(_shared).  Every per-family constant they read, the guard's bound included,
is a column of one table, GridFamilies, built once per batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ValidationError
from .kepler import DelaunayState, anomaly_beta, anomaly_offset

# The float track's roundoff in Delta1 per unit of (1 + a)*(|p| + q + 2)
# (GridFamilies.slack).
_TRACK_ROUNDOFF = 1e-11


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


_INT_COLUMNS = ("key", "n_l", "q", "k", "turns")
_FLOAT_COLUMNS = ("e", "beta", "ecc", "a", "p", "lpi", "gpi", "speed", "slack")


def _constants(f: ResonantFamily):
    """One family's row of GridFamilies: its _INT_COLUMNS, then its
    _FLOAT_COLUMNS."""
    sign = -1 if f.retrograde else 1
    p, q, e, a = f.p, f.q, f.e, f.semimajor_axis
    return (
        *(2 * q + f.n_l, f.n_l, q, q - sign * p, f.n_l + f.n_g),
        *(e, anomaly_beta(e), sign * (p / q) * e, a, sign * p, f.n_l * math.pi, f.n_g * math.pi),
        a * math.hypot(e * q, q * math.sqrt(1.0 - e * e) + p * (1.0 + e) ** 2),
        _TRACK_ROUNDOFF * (1.0 + a) * (p + q + 2.0),
    )


class GridFamilies:
    """The per-family constants of the track for a batch of families, built
    once per batch (GridFamilies.of) as two blocks, ints (int64) and floats,
    one (families, 1) column each, named by _INT_COLUMNS and _FLOAT_COLUMNS:
      key    2*q + n_l, equal for the families that share E on the grid
      k      q - p direct, q + p retrograde, and turns n_l + n_g
      beta   anomaly_beta(e), and a the semimajor axis
      ecc    (p/q)*e direct, -(p/q)*e retrograde
      p      p direct, -p retrograde; lpi n_l*pi and gpi n_g*pi
      speed  V >= |dDelta1/dF|, and slack the float track's roundoff in Delta1.
    Indexing by a slice or a list of rows gives the table of those families
    (two numpy indexing operations), so an evaluation does no per-family
    Python work beyond grouping the families that share a row.

    |dDelta1/dF| <= |d(r e^(i theta))/dF| = hypot(r', r theta'), with
    r' = a e q sin E and r theta' = a q sqrt(1 - e^2) -+ a p (1 - e cos E)^2
    (E = qF), so V = a hypot(e q, q sqrt(1 - e^2) + |p| (1 + e)^2) in either
    direction.  slack, _TRACK_ROUNDOFF * (1 + a) * (|p| + q + 2), covers a
    few ulps of theta, up to about 2*pi*(p + q).
    """

    def __init__(self, ints, floats):
        self.ints, self.floats = ints, floats
        vars(self).update(zip(_INT_COLUMNS + _FLOAT_COLUMNS, [*ints, *floats]))

    @classmethod
    def of(cls, families) -> "GridFamilies":
        table = np.array([_constants(f) for f in families], dtype=float).reshape(-1, 14).T[:, :, None]
        return cls(table[:5].astype(np.int64, order="C"), np.ascontiguousarray(table[5:]))

    def __len__(self) -> int:
        return self.ints.shape[1]

    def __getitem__(self, rows) -> "GridFamilies":
        return GridFamilies(self.ints[:, rows], self.floats[:, rows])


def _shared(key, x):
    """(first, row) for the rows of x, one per family, with key the
    families' key column: rows broadcast from one shared row (stride 0, as
    np.broadcast_to makes them) are evaluated once per distinct key, at the
    rows first, and row maps every row to its place among them.  row is None
    where the rows of first broadcast as they are: when every row is its own
    (first takes them all) or when all share one key (first is one row)."""
    if x.strides[0] != 0:
        return slice(None), None
    seen = {}  # key -> (its place, its first row)
    row = [seen.setdefault(k, (len(seen), n))[0] for n, k in enumerate(key[:, 0].tolist())]
    if len(seen) in (1, len(row)):
        return slice(0, len(seen)), None
    return [n for _, n in seen.values()], row


def float_track(families, F):
    """(r, theta, t) at the values F of F along the tracks of the families
    (a sequence of families, or their GridFamilies), one row of F per family.

    E = q*F, l = E - e*sin(E); t = (l - n_l*pi)*(+-p)/q, with -p for
    retrograde orbits, where (n_l*pi - l)*p/q would differ at most in the
    sign of a zero; theta = nu + n_g*pi - t with nu continuously unwrapped,
    so theta is continuous in F.  Rows of F broadcast from one shared row
    (stride 0) take sin E and cos E once per distinct q (_shared).
    """
    g = families if isinstance(families, GridFamilies) else GridFamilies.of(families)
    first, row = _shared(g.q, F)
    E = g.q[first] * F[first]
    sinE, cosE = np.sin(E), np.cos(E)
    if row is not None:
        E, sinE, cosE = E[row], sinE[row], cosE[row]
    t = (E - g.e * sinE - g.lpi) * g.p / g.q
    r = g.a * (1.0 - g.e * cosE)
    return r, E + anomaly_offset(g.beta, sinE, cosE) + g.gpi - t, t


def _one_track(f: ResonantFamily, F):
    """float_track of the one family f at F of any shape."""
    F = np.asarray(F, dtype=float)
    return [x.reshape(F.shape) for x in float_track([f], F.reshape(1, -1))]


def track_arrays(f: ResonantFamily, F):
    """Vectorised resonant track: returns (r, theta, t, delta1) at the given F
    (float_track of the one family f)."""
    r, theta, t = _one_track(f, F)
    return r, theta, t, delta1(r, theta)


def delta1_at(g: GridFamilies) -> list:
    """For each family of g, its Delta1 as a function of one F on Python
    floats through math (_delta1_float), for evaluations one point at a time,
    where a numpy call on a 1-element array costs more than the arithmetic."""
    e, beta, _, a, p, lpi, gpi, _, _ = g.floats[:, :, 0].tolist()  # _FLOAT_COLUMNS
    return [functools.partial(_delta1_float, *k) for k in zip(e, beta, lpi, p, g.q[:, 0].tolist(), gpi, a)]


def _delta1_float(e, beta, c, p, q, turn, a, F: float) -> float:
    """Delta1 at F with float_track's float operations in their order; math's
    sin, cos and atan may differ from numpy's in the last bit."""
    E = q * F
    sinE, cosE = math.sin(E), math.cos(E)
    t = (E - e * sinE - c) * p / q
    theta = E + 2.0 * math.atan(beta * sinE / (1.0 - beta * cosE)) + turn - t
    r = a * (1.0 - e * cosE)
    sh = math.sin(0.5 * theta)
    return math.sqrt((r - 1.0) * (r - 1.0) + 4.0 * r * (sh * sh))


def _grid_track(families, i, n: int, x=None):
    """(r, r - 1, tan(theta/2)) at the nodes F_c + (i + x)*pi/n of each
    family, from int64 indices i with one row per family, the integer phases
    reduced exactly (see the module docstring).  families is a sequence of
    families or their GridFamilies.

    Without x the nodes are the grid nodes F_c + i*pi/n.  x (floats of i's
    shape, |x| <= 1/2) moves them off the grid: x times the phase rates (q
    for E/2, k for theta/2) is added after the reduction of i.  Off the grid
    the integer parts of both half phases are reduced to [-pi/2, pi/2)
    rather than [0, pi), so that near a close pass (theta/2 near 0 mod pi,
    and E/2 near 0 mod pi at a pericentre) tan takes a small argument, not
    one near pi whose rounding (an ulp of pi) would move the pass; and r - 1
    is formed as (a - 1) - a*e*cos(E), to a few ulps of the small difference
    rather than of 1.  These cut the error of a grazing family's C by an
    order of magnitude.  The grid nodes keep the trapezoid's bits.

    E depends on the family only through (n_l, q).  Index rows broadcast from
    one shared row therefore take tan(E/2), and sin E and cos E from it, once
    per distinct (n_l, q) (_shared); other rows once per family.
    """
    g = families if isinstance(families, GridFamilies) else GridFamilies.of(families)
    i = np.asarray(i, dtype=np.int64)
    first, row = _shared(g.key, i)
    step = 0.5 * math.pi / n
    m = (g.n_l[first] * n + g.q[first] * i[first]) & (2 * n - 1)
    if x is None:
        t = np.tan(m * step)
    else:
        m[m >= n] -= 2 * n
        t = np.tan(m * step + g.q[first] * x[first] * step)
    t2 = t * t
    sec2 = 1.0 + t2  # 1 / cos^2(E/2)
    sinE, cosE = 2.0 * t / sec2, (1.0 - t2) / sec2
    if row is not None:
        sinE, cosE = sinE[row], cosE[row]
    bounded = anomaly_offset(g.beta, sinE, cosE) + g.ecc * sinE
    j = (g.turns * n + g.k * i) & (2 * n - 1)  # tan has period pi in theta/2
    r = g.a * (1.0 - g.e * cosE)
    if x is None:
        return r, r - 1.0, np.tan(j * step + 0.5 * bounded)
    j[j >= n] -= 2 * n
    return r, (g.a - 1.0) - g.a * g.e * cosE, np.tan(j * step + g.k * x * step + 0.5 * bounded)


def track_speed(g: GridFamilies, F):
    """|d(r e^(i theta))/dF| at the values F of F, one row per family of the
    GridFamilies g: hypot(r', r theta') with r' = a e q sin E and
    r theta' = a q sqrt(1 - e^2) -+ a p (1 - e cos E)^2 (E = qF)."""
    E = g.q * F
    w = 1.0 - g.e * np.cos(E)
    return g.a * np.hypot(g.e * g.q * np.sin(E), g.q * np.sqrt(1.0 - g.e * g.e) - g.p * w * w)


def track_integrand(f, F, n: int | None = None, x=None):
    """The two quadrature integrands along the track: ((r/Delta1)_tt, cos(theta)/r).

    Without n, f is one family and F holds values of F.  With the power of
    two n, f is a sequence of families (or their GridFamilies) and F holds
    int64 indices i of the nodes F_c + (i + x)*pi/n (F_c = n_l*pi/q; the
    grid nodes F_c + i*pi/n without x), one row per family, whose phases are
    then reduced exactly (_grid_track); each integrand then has one row per
    family.
    """
    if n is None:
        r, theta, _ = _one_track(f, F)
        half = 0.5 * theta
        sh = np.sin(half)
        sh2, s2 = sh * sh, (2.0 * sh * np.cos(half)) ** 2
        d2 = _delta1_sq(r, sh2)
    elif n < 1 or n & (n - 1):
        raise ValidationError(f"grid index base n must be a power of two, got {n}")
    else:
        r, r1, tau = _grid_track(f, F, n, x)
        tau2 = tau * tau
        sec2 = 1.0 + tau2  # 1 / cos^2(theta/2)
        sh2 = tau2 / sec2
        s2, d2 = 4.0 * sh2 / sec2, r1 * r1 + 4.0 * r * sh2
    if np.any(d2 <= 0.0):
        raise CollisionError("resonant track passes through the small primary")
    return _integrand_parts(r, sh2, s2, d2)


def delaunay_initial_state(f: ResonantFamily):
    """Delaunay initial conditions of the family (mu = 0)."""
    sign = -1.0 if f.retrograde else 1.0
    L = sign * (f.p / f.q) ** (1.0 / 3.0)
    G = L * math.sqrt(1.0 - f.e**2)
    return DelaunayState(L=L, G=G, l=f.n_l * math.pi, g=f.n_g * math.pi)
