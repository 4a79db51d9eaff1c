"""Full-problem verification of the stability coefficient.

For mu > 0 the resonant periodic orbit survives as a symmetric periodic
solution of the rotating-frame equations with both primaries.  This module
differentially corrects that orbit by Newton shooting over the half period,
integrating the variational equations with the state, and extracts the
coefficient from tr(M) - 4 ~ C*mu, extrapolating the estimate to mu -> 0.

The orbit is the mu = 0 Kepler ellipse continued in mu, so each orbit's
unknowns are the seed's plus mu times their mu derivative plus O(mu^2).
Before Newton runs, one integration at mu = 0 per family carries the state,
its state-transition matrix Phi and w = dz/dmu; the shooting matrix and the
residual's mu derivative at the seed then predict every mu's starting point
(natural-parameter continuation's predictor step: Allgower and Georg,
*Introduction to Numerical Continuation Methods*, 1990, ch. 2).  The first
Newton residual is O(mu^2) instead of O(mu).  One field, `_variational_rhs`,
and one integration, `_flow`, serve the predictor and Newton: the row width
picks the field, 20 entries (state, Phi) at any mu and 24 (state, Phi, w)
at mu = 0 only.

`verify_families` corrects every (family, mu) orbit of a request in
lockstep: each Newton iteration integrates all unfinished orbits as one
batch with the package's DOP853 (`dop853.solve_ivp`, whose rows take the
steps scipy's DOP853 takes for each alone), and an orbit leaves when it
converges to CORRECTOR_TOL (or the given tol), fails, or stalls.
`refine_periodic_orbit` is the one-orbit case; the predictor is per family,
so an orbit's numbers do not depend on the other orbits of its batch.

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
from .kepler import RtbpState, delaunay_to_cartesian
from .perturbation import ResonantFamily, delaunay_initial_state

_COLLISION_RADIUS = 1e-8
_INTEGRATOR_TOL = 1e-12
_NEWTON_MAX_ITER = 25
# Integrations without a new best residual after which an orbit has stalled.
_NEWTON_STALL = 3
# Newton's default closure tolerance on (y, p_x)(T/2).
CORRECTOR_TOL = 1e-12
# The mu at which `verify_families` (and the `verify` command) estimates C.
DEFAULT_MU_LIST = (1e-4, 3e-5, 1e-5, 3e-6)
# The reversor (p_x, p_y, x, y) -> (-p_x, p_y, x, -y) that, with t -> -t,
# maps solutions to solutions, and the symplectic form in this order.
_REVERSOR = np.diag([-1.0, 1.0, 1.0, -1.0])
_OMEGA = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])


@dataclass(frozen=True)
class PeriodicOrbit:
    """A corrected symmetric periodic orbit of the full problem.

    The initial state lies on the symmetry section y = 0, p_x = 0; the
    residuals are |y(T/2)| and |p_x(T/2)| after correction.
    half_period_stm is the state-transition matrix Phi(T/2) of the accepted
    Newton iterate, from which `monodromy` forms M without integrating.
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
    """Per-mu estimates and the fit C_estimate(mu) = C + c1*sqrt(mu).

    estimates[i] is None and errors[i] holds the caught RtbpError where the
    corrector or monodromy failed at mu_list[i]; the fit uses the converged
    mu only, and its fields are None when fewer than two distinct mu
    converged (the two-parameter fit is then underdetermined).
    """

    C: float | None
    sqrt_mu_slope: float | None
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

    Raises CollisionError within _COLLISION_RADIUS of a primary with mass;
    the massless primary of mu = 0 is regular there.
    """
    dx0, dx1 = x + mu, x - 1.0 + mu
    d0sq = dx0 * dx0 + y * y
    d1sq = dx1 * dx1 + y * y
    if d0sq < _COLLISION_RADIUS**2 or (mu > 0.0 and d1sq < _COLLISION_RADIUS**2):
        raise CollisionError("trajectory reached a primary")
    m0, m1 = 1.0 - mu, mu
    d0_3 = d0sq**-1.5
    d0_5 = d0_3 / d0sq
    d1_3 = d1sq**-1.5 if mu > 0.0 else 0.0
    d1_5 = d1_3 / d1sq if mu > 0.0 else 0.0
    gx = -m0 * dx0 * d0_3 - m1 * dx1 * d1_3
    gy = -(m0 * d0_3 + m1 * d1_3) * y
    gxx = m0 * (3.0 * dx0 * dx0 * d0_5 - d0_3) + m1 * (3.0 * dx1 * dx1 * d1_5 - d1_3)
    gxy = 3.0 * y * (m0 * dx0 * d0_5 + m1 * dx1 * d1_5)
    gyy = m0 * (3.0 * y * y * d0_5 - d0_3) + m1 * (3.0 * y * y * d1_5 - d1_3)
    return gx, gy, gxx, gxy, gyy


def rtbp_derivatives(s, mu: float):
    """Hamilton's equations of the full problem.

    Accepts an RtbpState or a length-4 array (p_x, p_y, x, y).
    """
    arr = s.as_array() if isinstance(s, RtbpState) else np.asarray(s, dtype=float)
    p_x, p_y, x, y = arr[:4].tolist()
    gx, gy, *_ = _primary_forces(x, y, mu)
    return np.array([p_y + gx, -p_x + gy, p_x + y, p_y - x])


def _variational_rhs(Z, mus):
    """(f, J Phi) for each row z = (state, Phi row by row) of Z, and also
    J w + df/dmu for a row z = (state, Phi, w) with w = dz/dmu, in closed form.

    The row width picks the field, read once per call: rows of 20 entries
    take any mass ratio mus[i], and rows of 24, the mu = 0 continuation's
    (`_predictors`), take mu = 0 only.  f and J are those of
    rtbp_derivatives, written out from the sparsity of J on Python floats:
    the integrator calls this once per stage for the whole batch, and
    per-call array building dominated its cost.

    Only the momentum rows of df/dmu are non-zero: x d0^-3 - (x-1) d1^-3 + gxx
    and y d0^-3 - y d1^-3 + gxy, with d1 the distance to (1, 0) and, at
    mu = 0, x d0^-3 = -gx and y d0^-3 = -gy.  A row with w raises
    CollisionError within _COLLISION_RADIUS of (1, 0), as the mu > 0 field
    does.
    """
    tangent = Z.shape[1] == 24
    if tangent and any(mus):
        raise ValueError("rows with w = dz/dmu take mu = 0 only")
    out = []
    for z, mu in zip(Z.tolist(), mus):
        # a Newton row unpacks whole: a slice would cost the field 5%
        (p_x, p_y, x, y,
         a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3) = z[:20] if tangent else z
        gx, gy, gxx, gxy, gyy = _primary_forces(x, y, mu)
        # Rows of J: (0, 1, gxx, gxy), (-1, 0, gxy, gyy), (1, 0, 0, 1), (0, 1, -1, 0).
        out += [
            p_y + gx, -p_x + gy, p_x + y, p_y - x,
            b0 + gxx * c0 + gxy * d0, b1 + gxx * c1 + gxy * d1,
            b2 + gxx * c2 + gxy * d2, b3 + gxx * c3 + gxy * d3,
            -a0 + gxy * c0 + gyy * d0, -a1 + gxy * c1 + gyy * d1,
            -a2 + gxy * c2 + gyy * d2, -a3 + gxy * c3 + gyy * d3,
            a0 + d0, a1 + d1, a2 + d2, a3 + d3,
            b0 - c0, b1 - c1, b2 - c2, b3 - c3,
        ]
        if tangent:
            w0, w1, w2, w3 = z[20:]
            dx1 = x - 1.0
            d1sq = dx1 * dx1 + y * y
            if d1sq < _COLLISION_RADIUS**2:
                raise CollisionError("trajectory reached a primary")
            d1_3 = d1sq**-1.5
            out += [
                w1 + gxx * w2 + gxy * w3 - gx - dx1 * d1_3 + gxx,
                -w0 + gxy * w2 + gyy * w3 - gy - y * d1_3 + gxy,
                w0 + w3, w1 - w2,
            ]
    return np.fromiter(out, float, len(out)).reshape(Z.shape)


def _flow(s0: np.ndarray, t_end, mus):
    """Integrate each start row s0[i], a state or (state, w), with its
    state-transition matrix Phi (from I) over [0, t_end[i]] at mass ratio
    mus[i], all rows in one batch of `_variational_rhs`.

    Returns per row (state, Phi, w) at t_end[i], w empty for rows started
    without it, or the RtbpError that stopped the row's integration.
    """
    z0 = np.hstack([s0[:, :4], np.tile(np.eye(4).ravel(), (len(s0), 1)), s0[:, 4:]])
    sol = solve_ivp(_variational_rhs, t_end, z0, mus, tol=_INTEGRATOR_TOL)
    return [
        err if err is not None else (zf[:4], zf[4:20].reshape(4, 4), zf[20:])
        for zf, err in zip(sol.y, sol.errors)
    ]


def _seed(f: ResonantFamily):
    """The mu = 0 seed (G0, x0, T/2) of the family: its angular momentum,
    its start on the section y = 0, p_x = 0 (a perihelion or aphelion on
    the x axis) and its half period p*pi, from one Delaunay state."""
    d = delaunay_initial_state(f)
    return d.G, delaunay_to_cartesian(d).x, math.pi * f.p


def _shooting_matrix(sf, phi, G0: float, x0: float, mu: float) -> np.ndarray:
    """d(y, p_x)(T/2) / d(x0, T/2) from the end state sf and Phi(T/2) of an
    orbit started at (0, G0/x0, x0, 0)."""
    dsf_dx0 = phi @ np.array([0.0, -G0 / (x0 * x0), 1.0, 0.0])
    dsf_dT = rtbp_derivatives(sf, mu)
    return np.array([[dsf_dx0[3], dsf_dT[3]], [dsf_dx0[0], dsf_dT[0]]])


def _correction(A, res, x0: float, Th: float, f, mu: float):
    """(x0, T/2) moved by the Newton step -A^-1 res, or the ConvergenceError
    of a singular A or of a step that moves x0 by more than half of it."""
    try:
        delta = np.linalg.solve(A, -res)
    except np.linalg.LinAlgError:
        return ConvergenceError("singular shooting Jacobian")
    if not np.all(np.isfinite(delta)) or abs(delta[0]) > 0.5 * abs(x0):
        return ConvergenceError(f"Newton correction diverged for {f} at mu={mu}")
    return x0 + delta[0], Th + delta[1]


def _predictors(seeds: dict) -> dict:
    """The first-order mu-predictor of each family's orbit.

    seeds maps a family to its mu = 0 seed (G0, x0, T/2).  One batched
    `_flow` at mu = 0 carries (state, Phi, w = dz/dmu) for every family,
    24 entries a row, so that the rows stay independent (see `dop853`).
    Returns per family (A0, r0, r_mu): the shooting matrix and the residual
    (y, p_x)(T/2) of the seed, which is at roundoff level, and its mu
    derivative, so that the residual at (seed + delta, mu) is
    r0 + mu r_mu + A0 delta + O(mu^2, |delta|^2).  w starts at 0: the initial
    state (0, G0/x0, x0, 0) does not depend on mu.  A family whose mu = 0
    integration fails is left out.
    """
    s0 = np.array([[0.0, G0 / x0, x0, 0.0, 0.0, 0.0, 0.0, 0.0] for G0, x0, _ in seeds.values()])
    flows = _flow(s0, [Th for *_, Th in seeds.values()], [0.0] * len(s0))
    out = {}
    for (f, (G0, x0, _)), flow in zip(seeds.items(), flows):
        if not isinstance(flow, RtbpError):
            sf, phi, w = flow
            A0 = _shooting_matrix(sf, phi, G0, x0, 0.0)
            out[f] = (A0, np.array([sf[3], sf[0]]), np.array([w[3], w[0]]))
    return out


def _shoot(orbits, tol: float) -> list:
    """Newton shooting for the symmetric p:q resonant orbit of every
    (family, mu) in `orbits`, all in lockstep.

    Unknowns are (x0, T/2); p_y(0) = G0/x0 keeps the angular momentum at its
    mu = 0 family value, and the targets are y(T/2) = 0 and p_x(T/2) = 0.
    Each orbit starts from its family's mu = 0 seed moved by the first-order
    mu-predictor of `_predictors` (a guarded Newton step on the predicted
    residual), or from the bare seed where the family's mu = 0 integration
    failed.  Each iteration integrates every unfinished orbit in one batch;
    an orbit leaves when it converges or fails, and fails as stalled when its
    residual has not fallen below its best for _NEWTON_STALL successive
    integrations.  Returns one PeriodicOrbit or RtbpError per entry, each as
    the orbit's own iteration would give it.
    """
    out = [None] * len(orbits)
    seeds = {}
    for i, (f, mu) in enumerate(orbits):
        if not 0.0 < mu <= 1e-3:
            out[i] = ValidationError(f"mu must be in (0, 1e-3], got {mu}")
        elif f not in seeds:
            seeds[f] = _seed(f)
    predictors = _predictors(seeds) if seeds else {}

    live = []  # [index, family, mu, G0, x0, T/2, best residual, integrations since]
    for i, (f, mu) in enumerate(orbits):
        if out[i] is not None:
            continue
        G0, x0, Th = seeds[f]
        if f in predictors:
            A0, r0, r_mu = predictors[f]
            start = _correction(A0, r0 + mu * r_mu, x0, Th, f, mu)
            if isinstance(start, RtbpError):
                out[i] = start
                continue
            x0, Th = start
        live.append([i, f, mu, G0, x0, Th, math.inf, 0])

    for _ in range(_NEWTON_MAX_ITER):
        if not live:
            return out
        s0s = np.array([[0.0, G0 / x0, x0, 0.0] for _, _, _, G0, x0, *_ in live])
        flows = _flow(s0s, [row[5] for row in live], [row[2] for row in live])
        still = []
        for row, s0, flow in zip(live, s0s, flows):
            i, f, mu, G0, x0, Th, best, stale = row
            if isinstance(flow, RtbpError):
                out[i] = flow
                continue
            sf, phi, _ = flow
            res = np.array([sf[3], sf[0]])  # (y, p_x) at T/2
            r = max(abs(res[0]), abs(res[1]))
            if r <= tol:
                out[i] = PeriodicOrbit(
                    initial_state=RtbpState.from_array(s0),
                    period=2.0 * Th,
                    mu=mu,
                    family=f,
                    residual_y=abs(res[0]),
                    residual_px=abs(res[1]),
                    half_period_stm=phi,
                )
                continue
            best, stale = (r, 0) if r < best else (best, stale + 1)
            if stale == _NEWTON_STALL:
                out[i] = ConvergenceError(
                    f"shooting stalled at residual {best:.3g} above tol={tol} for {f} at mu={mu}"
                )
                continue
            step = _correction(_shooting_matrix(sf, phi, G0, x0, mu), res, x0, Th, f, mu)
            if isinstance(step, RtbpError):
                out[i] = step
                continue
            still.append([i, f, mu, G0, *step, best, stale])
        live = still
    for i, f, mu, *_ in live:
        out[i] = ConvergenceError(f"shooting did not converge to tol={tol} for {f} at mu={mu}")
    return out


def refine_periodic_orbit(
    f: ResonantFamily, mu: float, tol: float = CORRECTOR_TOL
) -> PeriodicOrbit:
    """Newton shooting for the symmetric p:q resonant orbit at given mu,
    from the first-order mu-predictor, to max(|y|, |p_x|)(T/2) <= tol.

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

    The multipliers are 1 +/- sqrt(C*mu) + O(mu), so the per-mu estimate
    carries an O(sqrt(mu)) error; a least-squares fit of C + c1*sqrt(mu)
    over the converged mu removes the leading correction.  Every
    (family, mu) orbit is corrected to tol in one lockstep Newton iteration,
    started from one mu = 0 predictor integration per family; a mu whose
    correction fails (diverges, stalls above tol or runs out of iterations)
    is recorded in `errors`, not raised.
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
    """The C + c1*sqrt(mu) least-squares fit over the converged mu."""
    good = [(mu, c) for mu, c in zip(mus, ests) if c is not None]
    C = slope = resid = None
    if len({mu for mu, _ in good}) >= 2:
        A = np.column_stack([np.ones(len(good)), np.sqrt([mu for mu, _ in good])])
        y = np.array([c for _, c in good])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        C, slope = float(coef[0]), float(coef[1])
        resid = float(np.max(np.abs(A @ coef - y)))
    return ExtrapolationResult(
        C=C,
        sqrt_mu_slope=slope,
        fit_residual=resid,
        mu_list=mus,
        estimates=tuple(ests),
        errors=tuple(errors),
    )
