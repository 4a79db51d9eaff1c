"""Full-problem verification of the stability coefficient.

For mu > 0 the resonant periodic orbit survives as a symmetric periodic
solution of the rotating-frame equations with both primaries.  This module
differentially corrects that orbit by Newton shooting over the half period,
integrating the variational equations with the state, and extracts the
coefficient from tr(M) - 4 ~ C*mu, extrapolating the estimate to mu -> 0.

The half period is shot as _SEGMENTS = 16 equal time segments (multiple
shooting: Stoer and Bulirsch, *Introduction to Numerical Analysis*,
sec. 7.3.5).  The unknowns of an orbit are (x0, T/2) and the starts s_k of
segments 1..K-1; segment k runs from s_{k-1} for (T/2)/K to its end e_k
with state-transition matrix Phi_k, and d_k = e_k - s_k is its defect.
Every (orbit, segment) row of a Newton iteration is one row of one batched
integration, so each integration is K times shorter and its batch K times
wider.  The Newton step is condensed to the 2x2 system of single shooting:
with a_0 = ds_0/dx0, b_0 = c_0 = 0 and

    a_k = Phi_k a_{k-1},  b_k = Phi_k b_{k-1} + f(e_k)/K,  c_k = Phi_k c_{k-1} + d_k,

the (y, p_x) rows of a_K dx0 + b_K d(T/2) + c_K cancel the end residual,
and each start moves by a_k dx0 + b_k d(T/2) + c_k (K = 1 is single
shooting).  f(e_k) costs no evaluation: DOP853 is FSAL, so the last stage
of a segment's last step is the field at its end, and `_flow` returns it
with the ends in the integrator's own `BatchSolution`.  An orbit has
converged when its end residual and every defect are within tol;
Phi(T/2) = Phi_K ... Phi_1.  A segmented orbit whose residual is still
above _SEGMENT_GUARD after a Newton step (the linear model has failed)
restarts from its predictor start as one segment, and a step that would
leave T/2 <= 0 is divergence, so every segment is integrated forward.

The orbit is the mu = 0 Kepler ellipse continued in mu, so each orbit's
unknowns are the seed's plus mu times their mu derivative plus O(mu^2).
Before Newton runs, one integration at mu = 0 per family carries each
segment from its closed-form Kepler start with its Phi and w = dz/dmu; the
same recursion, with w_k in place of d_k, gives the shooting matrix, the
residual's mu derivative and the starts' (natural-parameter continuation's
predictor step: Allgower and Georg, *Introduction to Numerical Continuation
Methods*, 1990, ch. 2), so the first defects and residual are O(mu^2)
instead of O(mu).  The predictor is Newton's own step, `_step`, from the
seed's residual, with mu in place of 1 as the multiplier of the carry's
third column (w_k in place of d_k).  One field, `_variational_rhs`, and one
integration, `_flow`, serve the predictor and Newton: the row width picks
the field, 20 entries (state, Phi) at any mu and 24 (state, Phi, w) at
mu = 0 only.

`verify_families` corrects every (family, mu) orbit of a request in
lockstep: each Newton iteration integrates all segments of all unfinished
orbits as one batch with the package's DOP853 (`dop853.solve_ivp`, whose
rows take the steps scipy's DOP853 takes for each alone), and an orbit
leaves when it converges to CORRECTOR_TOL (or the given tol), fails, or
stalls.  `refine_periodic_orbit` is the one-orbit case; the predictor is
per family, so an orbit's numbers do not depend on the other orbits of its
batch.

The orbit is symmetric under the reversor R = diag(-1, 1, 1, -1) with
t -> -t, so its monodromy matrix is M = R Phi(T/2)^-1 R Phi(T/2), where
Phi(T/2) is the half-period state-transition matrix of the accepted Newton
iterate.  Phi is symplectic, so Phi^-1 = -Omega Phi^T Omega with
Omega = [[0, -I], [I, 0]]; no matrix is inverted, and det M = det(Phi)^2
still measures the integration error.

State order is (p_x, p_y, x, y); the primaries of masses 1-mu and mu sit at
(-mu, 0) and (1-mu, 0).  The canonical momenta equal the inertial velocity
components, so xdot = p_x + y and ydot = p_y - x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from .dop853 import solve_ivp
from .errors import CollisionError, ConvergenceError, RtbpError, ValidationError
from .kepler import DelaunayState, RtbpState, delaunay_to_cartesian
from .perturbation import ResonantFamily, delaunay_initial_state

_COLLISION_RADIUS = 1e-8
_INTEGRATOR_TOL = 1e-12
_NEWTON_MAX_ITER = 25
# Integrations without a new best residual after which an orbit has stalled.
_NEWTON_STALL = 3
# The equal time segments of [0, T/2] that Newton shoots an orbit in.
_SEGMENTS = 16
# A segmented orbit whose residual is above this after a Newton step
# restarts from its predictor start as one segment.
_SEGMENT_GUARD = 1e-2
# Batches of at most this many rows take the field on Python floats, where
# numpy's cost per call would dominate.
_FLOAT_ROWS = 12
# Newton's default tolerance on (y, p_x)(T/2) and on every defect.
CORRECTOR_TOL = 1e-12
# The mu at which `verify_families` (and the `verify` command) estimates C.
DEFAULT_MU_LIST = (1e-4, 3e-5, 1e-5, 3e-6)
# The reversor (p_x, p_y, x, y) -> (-p_x, p_y, x, -y) that, with t -> -t,
# maps solutions to solutions, and the symplectic form in this order.
_REVERSOR = np.diag([-1.0, 1.0, 1.0, -1.0])
_OMEGA = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
# The (y, p_x) entries of a state: the targets at T/2.
_TARGETS = [3, 0]


@dataclass(frozen=True)
class PeriodicOrbit:
    """A corrected symmetric periodic orbit of the full problem.

    The initial state lies on the symmetry section y = 0, p_x = 0; the
    residuals are |y(T/2)| and |p_x(T/2)| after correction.
    half_period_stm is the state-transition matrix Phi(T/2) of the accepted
    Newton iterate, the product of its segments' matrices, from which
    `monodromy` forms M without integrating.
    """

    initial_state: RtbpState
    period: float
    mu: float
    family: ResonantFamily
    residual_y: float
    residual_px: float
    half_period_stm: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class MonodromyReport:
    matrix: np.ndarray
    eigenvalues: np.ndarray
    trace: float
    C_estimate: float
    mu: float

    @property
    def determinant(self) -> float:
        return float(np.linalg.det(self.matrix))


@dataclass(frozen=True)
class ExtrapolationResult:
    """Per-mu estimates and the fit C_estimate(mu) = C + mu_slope*mu.

    estimates[i] is None and errors[i] holds the caught RtbpError where the
    corrector or monodromy failed at mu_list[i]; the fit uses the converged
    mu only, and its fields are None when fewer than two distinct mu
    converged (the two-parameter fit is then underdetermined).
    """

    C: float | None
    mu_slope: float | None
    fit_residual: float | None
    mu_list: tuple
    estimates: tuple
    errors: tuple


def rtbp_hamiltonian(s, mu: float) -> float:
    """Rotating-frame Hamiltonian (the Jacobi-constant energy)."""
    p_x, p_y, x, y = (s.as_array() if isinstance(s, RtbpState) else np.asarray(s))[:4]
    d0 = math.hypot(x + mu, y)
    d1 = math.hypot(x - 1.0 + mu, y)
    if d0 == 0.0 or (mu > 0.0 and d1 == 0.0):
        raise CollisionError("state at a primary")
    return (
        0.5 * (p_x**2 + p_y**2)
        + y * p_x
        - x * p_y
        - (1.0 - mu) / d0
        - (mu / d1 if mu != 0.0 else 0.0)
    )


def _primary_forces(x: float, y: float, mu: float):
    """Gradient (gx, gy) and Hessian (gxx, gxy, gyy) of the primaries'
    potential (1-mu)/d0 + mu/d1 at (x, y), from one set of distances.

    Only +, -, *, / and sqrt are used, with d^-3 = 1/(d^2 sqrt(d^2)); each
    is correctly rounded, so `_primary_forces_rows` makes the same bits from
    the same operations over rows (numpy's vectorized power would not).
    Raises CollisionError within _COLLISION_RADIUS of a primary with mass;
    the massless primary of mu = 0 is regular there.
    """
    dx0, dx1 = x + mu, x - 1.0 + mu
    y2 = y * y
    d0sq, d1sq = dx0 * dx0 + y2, dx1 * dx1 + y2
    if d0sq < _COLLISION_RADIUS**2 or d1sq < _COLLISION_RADIUS**2:
        if d0sq < _COLLISION_RADIUS**2 or mu > 0.0:
            raise CollisionError("trajectory reached a primary")
        d1sq = 1.0  # a massless primary's terms: 0 * finite
    a0 = (1.0 - mu) / (d0sq * math.sqrt(d0sq))  # m / d^3
    a1 = mu / (d1sq * math.sqrt(d1sq))
    b0, b1 = 3.0 * a0 / d0sq, 3.0 * a1 / d1sq  # 3 m / d^5
    bx0, bx1 = b0 * dx0, b1 * dx1
    a_sum = a0 + a1
    gx = -(a0 * dx0 + a1 * dx1)
    gy = -a_sum * y
    gxx = bx0 * dx0 + bx1 * dx1 - a_sum
    gxy = (bx0 + bx1) * y
    gyy = (b0 + b1) * y2 - a_sum
    return gx, gy, gxx, gxy, gyy


def _primary_forces_rows(x, y, mu):
    """`_primary_forces` over arrays of rows x, y, mu, both primaries
    stacked in one array, with the same operations in the same order."""
    dx = np.array([x + mu, x - 1.0 + mu])
    y2 = y * y
    dsq = dx * dx + y2
    near = dsq < _COLLISION_RADIUS**2
    if near.any():
        if (near[0] | near[1] & (mu > 0.0)).any():
            raise CollisionError("trajectory reached a primary")
        dsq = np.where(near, 1.0, dsq)
    a = np.array([1.0 - mu, mu]) / (dsq * np.sqrt(dsq))
    b = 3.0 * a / dsq
    bx = b * dx
    ax, bxx = a * dx, bx * dx
    a_sum = a[0] + a[1]
    gx = -(ax[0] + ax[1])
    gy = -a_sum * y
    gxx = bxx[0] + bxx[1] - a_sum
    gxy = (bx[0] + bx[1]) * y
    gyy = (b[0] + b[1]) * y2 - a_sum
    return gx, gy, gxx, gxy, gyy


def rtbp_derivatives(s, mu: float):
    """Hamilton's equations of the full problem.

    Accepts an RtbpState or a length-4 array (p_x, p_y, x, y).
    """
    arr = s.as_array() if isinstance(s, RtbpState) else np.asarray(s, dtype=float)
    p_x, p_y, x, y = arr[:4].tolist()
    gx, gy, *_ = _primary_forces(x, y, mu)
    return np.array([p_y + gx, gy - p_x, p_x + y, p_y - x])


def _variational_rhs(Z, mus):
    """(f, J Phi) for each row z = (state, Phi row by row) of Z, and also
    J w + df/dmu for a row z = (state, Phi, w) with w = dz/dmu, in closed form.

    The row width picks the field, read once per call: rows of 20 entries
    take any mass ratio mus[i], and rows of 24, the mu = 0 continuation's
    (`_predictors`), take mu = 0 only.  mus is a sequence of floats or the
    integrator's params column, a float array taken as it is.  f and J are
    those of rtbp_derivatives, written out from the sparsity of J.  The
    integrator calls this once per stage for the whole batch: a batch of
    more than _FLOAT_ROWS rows takes numpy operations over the rows
    (`_variational_rhs_rows`), and a smaller one, where numpy's cost per
    call would dominate, Python floats row by row.  Both make the same
    operations in the same order, each correctly rounded, so a row's values
    are the same bits alone, in a few rows or in a wide batch.

    Only the momentum rows of df/dmu are non-zero: x d0^-3 - (x-1) d1^-3 + gxx
    and y d0^-3 - y d1^-3 + gxy, with d1 the distance to (1, 0) and, at
    mu = 0, x d0^-3 = -gx and y d0^-3 = -gy.  A row with w raises
    CollisionError within _COLLISION_RADIUS of (1, 0), as the mu > 0 field
    does.
    """
    mus = np.asarray(mus, dtype=float)
    tangent = Z.shape[1] == 24
    if tangent and mus.any():
        raise ValueError("rows with w = dz/dmu take mu = 0 only")
    if len(Z) > _FLOAT_ROWS:
        return _variational_rhs_rows(Z, mus, tangent)
    out = []
    for z, mu in zip(Z.tolist(), mus.tolist()):
        (p_x, p_y, x, y,
         a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3) = z[:20]
        gx, gy, gxx, gxy, gyy = _primary_forces(x, y, mu)
        # Rows of J: (0, 1, gxx, gxy), (-1, 0, gxy, gyy), (1, 0, 0, 1), (0, 1, -1, 0).
        out += [
            p_y + gx, gy - p_x, p_x + y, p_y - x,
            gxx * c0 + b0 + gxy * d0, gxx * c1 + b1 + gxy * d1,
            gxx * c2 + b2 + gxy * d2, gxx * c3 + b3 + gxy * d3,
            gxy * c0 + gyy * d0 - a0, gxy * c1 + gyy * d1 - a1,
            gxy * c2 + gyy * d2 - a2, gxy * c3 + gyy * d3 - a3,
            a0 + d0, a1 + d1, a2 + d2, a3 + d3,
            b0 - c0, b1 - c1, b2 - c2, b3 - c3,
        ]
        if tangent:
            w0, w1, w2, w3 = z[20:]
            dx1 = x - 1.0
            d1sq = dx1 * dx1 + y * y
            if d1sq < _COLLISION_RADIUS**2:
                raise CollisionError("trajectory reached a primary")
            d1_3 = 1.0 / (d1sq * math.sqrt(d1sq))
            out += [
                w1 + gxx * w2 + gxy * w3 - gx - dx1 * d1_3 + gxx,
                gxy * w2 + gyy * w3 - w0 - gy - y * d1_3 + gxy,
                w0 + w3, w1 - w2,
            ]
    return np.fromiter(out, float, len(out)).reshape(Z.shape)


def _variational_rhs_rows(Z, mu, tangent: bool):
    """`_variational_rhs` as numpy operations on one contiguous array per
    entry of the rows, mu an array of one mass ratio per row."""
    z = Z.T.copy()
    p_x, p_y, x, y = z[:4]
    gx, gy, gxx, gxy, gyy = _primary_forces_rows(x, y, mu)
    out = np.empty_like(z)
    np.add(p_y, gx, out=out[0])
    np.subtract(gy, p_x, out=out[1])
    np.add(p_x, y, out=out[2])
    np.subtract(p_y, x, out=out[3])
    a, b, c, d = z[4:8], z[8:12], z[12:16], z[16:20]  # the rows of Phi
    row = out[4:8]
    np.multiply(gxx, c, out=row)
    row += b
    row += gxy * d
    row = out[8:12]
    np.multiply(gxy, c, out=row)
    row += gyy * d
    row -= a
    np.add(a, d, out=out[12:16])
    np.subtract(b, c, out=out[16:20])
    if tangent:
        w0, w1, w2, w3 = z[20:]
        dx1 = x - 1.0
        d1sq = dx1 * dx1 + y * y
        if (d1sq < _COLLISION_RADIUS**2).any():
            raise CollisionError("trajectory reached a primary")
        d1_3 = 1.0 / (d1sq * np.sqrt(d1sq))
        out[20] = w1 + gxx * w2 + gxy * w3 - gx - dx1 * d1_3 + gxx
        out[21] = gxy * w2 + gyy * w3 - w0 - gy - y * d1_3 + gxy
        np.add(w0, w3, out=out[22])
        np.subtract(w1, w2, out=out[23])
    return out.T.copy()


def _flow(s0: np.ndarray, t_end, mus):
    """Integrate each start row s0[i], a state or (state, w), with its
    state-transition matrix Phi (from I) over [0, t_end[i]], t_end[i] > 0,
    at mass ratio mus[i], all rows in one batch of `_variational_rhs`.

    Returns the batch's `dop853.BatchSolution`: y[i] is (state, Phi row by
    row, w) at t_end[i], w absent for rows started without it, and f[i] the
    field there, the integrator's last stage; both are NaN where errors[i]
    holds the RtbpError that stopped the row.
    """
    z0 = np.hstack([s0[:, :4], np.tile(np.eye(4).ravel(), (len(s0), 1)), s0[:, 4:]])
    return solve_ivp(_variational_rhs, t_end, z0, mus, tol=_INTEGRATOR_TOL)


def _seed(f: ResonantFamily):
    """The mu = 0 seed (G0, x0, T/2, S) of the family: its angular momentum,
    its start on the section y = 0, p_x = 0 (a perihelion or aphelion on
    the x axis), its half period p*pi and its states S at the starts
    t_k = k (T/2)/K of segments 1 .. K-1.  All come from one pass over the
    Kepler states at t_k, k = 0 .. K-1, in closed form: in the rotating
    frame the Kepler ellipse has l = l0 + t/L^3 and g = g0 - t, and x0 is
    the x of the state at t_0 = 0."""
    d = delaunay_initial_state(f)
    Th = math.pi * f.p
    Z = np.array([
        delaunay_to_cartesian(DelaunayState(d.L, d.G, d.l + t / d.L**3, d.g - t)).as_array()
        for t in (k * Th / _SEGMENTS for k in range(_SEGMENTS))
    ])
    return d.G, Z[0, 2], Th, Z[1:]


def _start(G0: float, x0: float) -> np.ndarray:
    """The orbit's start (0, G0/x0, x0, 0) on the symmetry section."""
    return np.array([0.0, G0 / x0, x0, 0.0])


def _carry(phis, fs, ds, G0: float, x0: float) -> np.ndarray:
    """The sensitivities of the segment ends, carried over the segments.

    From X_0 = (a_0, 0, 0), a_0 = ds_0/dx0 = (0, -G0/x0^2, 1, 0), each
    segment gives X_k = Phi_k X_{k-1} + (0, fs[k], ds[k]) column by column:
    the end of segment k moves by X_k . (dx0, d(T/2), 1) to first order
    when x0, T/2 and the starts move as Newton moves them (fs[k] = f(e_k)/K,
    ds[k] the defect d_k), or by X_k . (dx0, d(T/2), mu) when mu moves from
    0 (ds[k] = w_k of the segment).  Returns X_1 .. X_K, (K, 4, 3).
    """
    X = np.zeros((4, 3))
    X[:, 0] = (0.0, -G0 / (x0 * x0), 1.0, 0.0)
    out = np.empty((len(phis), 4, 3))
    for k, (phi, f, d) in enumerate(zip(phis, fs, ds)):
        X = phi @ X
        X[:, 1] += f
        X[:, 2] += d
        out[k] = X
    return out


def _step(o, X, r, c=1.0):
    """Move orbit o by the step that cancels its end residual, or return the
    ConvergenceError of a singular matrix, of a step that moves x0 by more
    than half of it, or of one that leaves T/2 <= 0.

    X is the carry of `_carry` and c the multiplier of its third column: the
    (y, p_x) rows of X_K give (dx0, d(T/2)) that cancel r + c X_K[:, 2], and
    x0, T/2 and every start s_k move by X_k . (dx0, d(T/2), c).  Newton takes
    c = 1, the defects in the third column; the mu-predictor takes c = mu,
    w = dz/dmu there, and r the residual of the seed.  Returns None when o
    has moved.
    """
    XK = X[-1]
    try:
        delta = np.linalg.solve(XK[_TARGETS, :2], -(r + c * XK[_TARGETS, 2]))
    except np.linalg.LinAlgError:
        return ConvergenceError("singular shooting Jacobian")
    if (not np.all(np.isfinite(delta)) or abs(delta[0]) > 0.5 * abs(o.x0)
            or o.Th + delta[1] <= 0.0):
        return ConvergenceError(f"Newton correction diverged for {o.f} at mu={o.mu}")
    o.x0, o.Th = o.x0 + delta[0], o.Th + delta[1]
    o.S = o.S + X[:-1] @ np.array([delta[0], delta[1], c])
    return None


def _predictors(seeds: dict) -> dict:
    """The first-order mu-predictor of each family's orbit.

    seeds maps a family to its mu = 0 seed (G0, x0, T/2, Z) of `_seed`, Z
    the Kepler starts of segments 1 .. K-1.  One batched `_flow` at mu = 0
    carries (state, Phi, w = dz/dmu) over every segment of every family
    from its closed-form start, 24 entries a row, so that the rows stay
    independent (see `dop853`); w starts at 0 on each segment, the Kepler
    starts not depending on mu.  Returns per family (X, r0): the carry of `_carry`
    with w in the third column, and the residual (y, p_x)(T/2) of the seed,
    which is at roundoff level.  The residual at (seed + (dx0, d(T/2)), mu)
    is r0 + X_K . (dx0, d(T/2), mu) in its (y, p_x) rows, and the starts
    Z + X_k . (dx0, d(T/2), mu) make the first defects O(mu^2): the
    predictor of an orbit at mu is `_step` on (X, r0) with c = mu.  A family
    whose mu = 0 integration fails is left out.
    """
    K = _SEGMENTS
    s0 = np.vstack([
        np.hstack([np.vstack([_start(G0, x0), Z]), np.zeros((K, 4))])
        for G0, x0, _, Z in seeds.values()
    ])
    t_end = [Th / K for _, _, Th, _ in seeds.values() for _ in range(K)]
    sol = _flow(s0, t_end, [0.0] * len(s0))
    out = {}
    for j, (f, (G0, x0, _, _)) in enumerate(seeds.items()):
        seg = slice(j * K, (j + 1) * K)
        if any(err is not None for err in sol.errors[seg]):
            continue
        y = sol.y[seg]
        X = _carry(y[:, 4:20].reshape(K, 4, 4), sol.f[seg, :4] / K, y[:, 20:], G0, x0)
        out[f] = (X, y[-1, _TARGETS])
    return out


class _Orbit:
    """A (family, mu) orbit under Newton: its entry i of the request, its
    unknowns x0, T/2 and the starts S of segments 1 .. K-1 ((0, 4) for one
    segment), the predictor's (x0, T/2) it restarts from, and its best
    residual with the integrations since."""

    __slots__ = ("i", "f", "mu", "G0", "x0", "Th", "S", "restart", "best", "stale")

    def __init__(self, i, f, mu, G0, x0, Th, S):
        self.i, self.f, self.mu, self.G0 = i, f, mu, G0
        self.x0, self.Th, self.S = x0, Th, S
        self.best, self.stale = math.inf, 0

    def rows(self) -> np.ndarray:
        return np.vstack([_start(self.G0, self.x0), self.S])


def _shoot(orbits, tol: float) -> list:
    """Newton multiple shooting for the symmetric p:q resonant orbit of
    every (family, mu) in `orbits`, all in lockstep.

    Unknowns are (x0, T/2) and the interior segment starts; p_y(0) = G0/x0
    keeps the angular momentum at its mu = 0 family value, and the targets
    are y(T/2) = 0, p_x(T/2) = 0 and zero defects.  Each orbit starts from
    its family's mu = 0 seed and Kepler starts moved by the first-order
    mu-predictor of `_predictors`, or from the bare seed where the family's
    mu = 0 integration failed.  The predictor and every Newton step are one
    guarded step, `_step`: the predictor with c = mu on the predicted
    residual, Newton with c = 1.  Each iteration integrates every segment
    of every unfinished orbit in one batch.  An orbit leaves when its end
    residual and defects are within tol or it fails; it fails as stalled
    when its residual (the largest of those) has not fallen below its best
    for _NEWTON_STALL successive integrations.  A segmented orbit whose residual exceeds
    _SEGMENT_GUARD after a Newton step goes back to its predictor's
    (x0, T/2) as one segment.
    Returns one PeriodicOrbit or RtbpError per entry, each as the orbit's
    own iteration would give it.
    """
    out = [None] * len(orbits)
    seeds = {}
    for i, (f, mu) in enumerate(orbits):
        if not 0.0 < mu <= 1e-3:
            out[i] = ValidationError(f"mu must be in (0, 1e-3], got {mu}")
        elif f not in seeds:
            seeds[f] = _seed(f)
    predictors = _predictors(seeds) if seeds else {}

    live = []
    for i, (f, mu) in enumerate(orbits):
        if out[i] is not None:
            continue
        o = _Orbit(i, f, mu, *seeds[f])
        if f in predictors:
            out[i] = _step(o, *predictors[f], mu)
        if out[i] is None:
            o.restart = (o.x0, o.Th)
            live.append(o)

    for _ in range(_NEWTON_MAX_ITER):
        if not live:
            return out
        rows = [o.rows() for o in live]
        mus = [o.mu for o, r in zip(live, rows) for _ in r]
        sol = _flow(np.vstack(rows), [o.Th / len(r) for o, r in zip(live, rows) for _ in r], mus)
        still, k = [], 0
        for o, s0 in zip(live, rows):
            K = len(s0)
            seg = slice(k, k + K)
            k += K
            err = next((err for err in sol.errors[seg] if err is not None), None)
            if err is not None:
                out[o.i] = err
                continue
            ends, phis = sol.y[seg, :4], sol.y[seg, 4:20].reshape(K, 4, 4)
            defects = ends[:-1] - o.S
            res = ends[-1, _TARGETS]  # (y, p_x) at T/2
            r = max(abs(res[0]), abs(res[1]), np.abs(defects).max(initial=0.0))
            if r <= tol:
                phi = phis[0]
                for p in phis[1:]:
                    phi = p @ phi
                out[o.i] = PeriodicOrbit(
                    initial_state=RtbpState.from_array(s0[0]),
                    period=2.0 * o.Th,
                    mu=o.mu,
                    family=o.f,
                    residual_y=abs(res[0]),
                    residual_px=abs(res[1]),
                    half_period_stm=phi,
                )
                continue
            if K > 1 and o.best < math.inf and r > _SEGMENT_GUARD:  # best: a step was made
                o.x0, o.Th = o.restart
                o.S = np.empty((0, 4))
                o.best, o.stale = math.inf, 0
                still.append(o)
                continue
            o.best, o.stale = (r, 0) if r < o.best else (o.best, o.stale + 1)
            if o.stale == _NEWTON_STALL:
                out[o.i] = ConvergenceError(
                    f"shooting stalled at residual {o.best:.3g} above tol={tol} "
                    f"for {o.f} at mu={o.mu}"
                )
                continue
            X = _carry(phis, sol.f[seg, :4] / K, np.vstack([defects, np.zeros(4)]), o.G0, o.x0)
            out[o.i] = _step(o, X, res)
            if out[o.i] is None:
                still.append(o)
        live = still
    for o in live:
        out[o.i] = ConvergenceError(
            f"shooting did not converge to tol={tol} for {o.f} at mu={o.mu}"
        )
    return out


def refine_periodic_orbit(
    f: ResonantFamily, mu: float, tol: float = CORRECTOR_TOL
) -> PeriodicOrbit:
    """Newton multiple shooting for the symmetric p:q resonant orbit at
    given mu, from the first-order mu-predictor, to max(|y|, |p_x|)(T/2)
    <= tol with every segment defect within tol.

    The one-orbit case of the lockstep corrector: raises the RtbpError
    that stopped the orbit (a ConvergenceError when the Newton step
    diverges, the residual stalls above tol, or 25 integrations pass).
    """
    (orbit,) = _shoot([(f, mu)], tol)
    if isinstance(orbit, RtbpError):
        raise orbit
    return orbit


def monodromy(o: PeriodicOrbit) -> MonodromyReport:
    """Monodromy matrix over one period, from the half-period Phi.

    M = R Phi(T/2)^-1 R Phi(T/2) by the reversing symmetry, with the
    symplectic inverse Phi^-1 = -Omega Phi^T Omega; no integration.
    """
    phi = o.half_period_stm
    phi_inv = -_OMEGA @ phi.T @ _OMEGA
    M = _REVERSOR @ phi_inv @ _REVERSOR @ phi
    tr = float(np.trace(M))
    return MonodromyReport(
        matrix=M,
        eigenvalues=np.linalg.eigvals(M),
        trace=tr,
        C_estimate=(tr - 4.0) / o.mu,
        mu=o.mu,
    )


def verify_families(
    families, mu_list=DEFAULT_MU_LIST, tol: float = CORRECTOR_TOL
) -> list[ExtrapolationResult]:
    """Monodromy estimate (tr M - 4)/mu at each mu, extrapolated to mu -> 0,
    for each family; one ExtrapolationResult per family, in order.

    The multipliers are a reciprocal pair 1 +/- sqrt(C*mu) + O(mu), so
    tr M - 4 = (lambda - 1)^2/lambda is analytic in mu: the per-mu estimate
    is C + O(mu), and a least-squares fit of C + b*mu over the converged mu
    removes the leading correction.  Every (family, mu) orbit is corrected
    to tol in one lockstep Newton iteration, started from one mu = 0
    predictor integration per family; a mu whose correction fails
    (diverges, stalls above tol or runs out of iterations) is recorded in
    `errors`, not raised.
    """
    mus = tuple(float(m) for m in mu_list)
    orbits = _shoot([(f, mu) for f in families for mu in mus], tol)
    results = []
    for k in range(len(families)):
        row = orbits[k * len(mus):(k + 1) * len(mus)]
        errors = [o if isinstance(o, RtbpError) else None for o in row]
        ests = [None if err is not None else monodromy(o).C_estimate
                for o, err in zip(row, errors)]
        results.append(_fit(mus, ests, errors))
    return results


def _fit(mus, ests, errors) -> ExtrapolationResult:
    """The C + b*mu least-squares fit over the converged mu."""
    good = [(mu, c) for mu, c in zip(mus, ests) if c is not None]
    C = slope = resid = None
    if len({mu for mu, _ in good}) >= 2:
        A = np.column_stack([np.ones(len(good)), [mu for mu, _ in good]])
        y = np.array([c for _, c in good])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        C, slope = float(coef[0]), float(coef[1])
        resid = float(np.max(np.abs(A @ coef - y)))
    return ExtrapolationResult(
        C=C,
        mu_slope=slope,
        fit_residual=resid,
        mu_list=mus,
        estimates=tuple(ests),
        errors=tuple(errors),
    )
