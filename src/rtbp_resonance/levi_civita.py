"""Levi-Civita regularization and collision-adapted action-angle variables.

The parabolic map x + mu = xi^2 - nu^2, y = 2*xi*nu (with momenta from the
generating function S = (-mu + xi^2 - nu^2) p_x + 2 xi nu p_y) regularizes
the collision with the primary of mass 1 - mu.  On a fixed energy level
H = C the rescaled Hamiltonian is

    K = (xi^2 + nu^2)(H - C)
      = (p_xi^2 + p_nu^2)/8 + ((xi^2+nu^2)/2)(nu p_xi - xi p_nu - 2C) - 1
        + mu [ 1 + (nu p_xi + xi p_nu)/2 - (xi^2+nu^2)/W ],

with W the distance to the small primary in the physical plane, and the
K-flow in tau corresponds to the H-flow on H = C via dt = (xi^2+nu^2) dtau.

For mu = 0 the module builds action-angle variables valid through collision
for G != 0, where G = xi p_nu - nu p_xi is twice the physical angular
momentum: actions L = (K+1)/sqrt(-G-2C) and L* = L - |G|/2, angles l
(from u = r^2 = a(1 - e cos l)) and g.  The pair of angles conjugate to
(L*, G) is (l, g + l/2) for G > 0 and (l, g - l/2) for G < 0.

The module depends on the coordinate stack only: callers pass the Jacobi
constant C_J of a state explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConvergenceError, DegenerateCaseError, ValidationError
from .kepler import RtbpState

_E_DEGENERATE = 1e-12
_INTEGRATOR_TOL = 1e-13
# Most evaluations of the K-flow field one integration may take.  The
# regularization battery's 10-period flow needs about 1,300 per unit of L
# (139,004 at L = 100, dense output included).
_MAX_RHS_EVALS = 200_000
# Step of the central differences in symplecticity_defect.
_FD_STEP = 1e-4


@dataclass(frozen=True)
class RegularizedState:
    """Levi-Civita variables (p_xi, p_nu, xi, nu) plus the trajectory's Jacobi constant."""

    p_xi: float
    p_nu: float
    xi: float
    nu: float
    C_J: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p_xi, self.p_nu, self.xi, self.nu])

    @staticmethod
    def from_array(z, C_J: float) -> "RegularizedState":
        return RegularizedState(float(z[0]), float(z[1]), float(z[2]), float(z[3]), C_J)

    @property
    def r_squared(self) -> float:
        return self.xi**2 + self.nu**2

    @property
    def angular_momentum_G(self) -> float:
        """Twice the physical angular momentum about the large primary."""
        return self.xi * self.p_nu - self.nu * self.p_xi


@dataclass(frozen=True)
class ActionAngle:
    """Collision-adapted action-angle variables (mu = 0, G != 0)."""

    L: float
    L_star: float
    G: float
    l: float
    g: float
    a: float
    e: float


def lc_forward(s: RtbpState, mu: float, C_J: float) -> RegularizedState:
    """Cartesian rotating state to Levi-Civita variables, branch xi >= 0.

    The map is two-to-one ((xi, nu) and (-xi, -nu) are the same physical
    point); the branch with xi >= 0 (and nu >= 0 when xi = 0) is returned.
    C_J is the Jacobi constant carried by the result (the energy level of K).
    """
    w = complex(s.x + mu, s.y)
    if w == 0.0:
        raise ValidationError("branch point of the Levi-Civita square root (collision)")
    z = np.sqrt(w)
    if z.real < 0.0 or (z.real == 0.0 and z.imag < 0.0):
        z = -z
    xi, nu = z.real, z.imag
    return RegularizedState(
        p_xi=2.0 * (xi * s.p_x + nu * s.p_y),
        p_nu=2.0 * (-nu * s.p_x + xi * s.p_y),
        xi=xi,
        nu=nu,
        C_J=float(C_J),
    )


def lc_inverse(s: RegularizedState, mu: float) -> RtbpState:
    """Levi-Civita variables back to the Cartesian rotating state."""
    rsq = s.r_squared
    x = -mu + s.xi**2 - s.nu**2
    y = 2.0 * s.xi * s.nu
    if rsq == 0.0:
        # Collision point: the position is the large primary, and the only
        # momenta consistent with finite regularized momenta are zero.
        return RtbpState(p_x=0.0, p_y=0.0, x=x, y=y)
    p_x = (s.xi * s.p_xi - s.nu * s.p_nu) / (2.0 * rsq)
    p_y = (s.nu * s.p_xi + s.xi * s.p_nu) / (2.0 * rsq)
    return RtbpState(p_x=p_x, p_y=p_y, x=x, y=y)


def _w_distance(xi: float, nu: float) -> float:
    """Distance to the small primary expressed in Levi-Civita coordinates;
    raises ValidationError where it is 0, the small-primary term's pole."""
    W = math.hypot(xi * xi - nu * nu - 1.0, 2.0 * xi * nu)
    if W == 0.0:
        raise ValidationError("small-primary term of K is singular (W = 0)")
    return W


def k_value(s: RegularizedState, mu: float) -> float:
    """The regularized Hamiltonian K = (xi^2 + nu^2)(H - C_J)."""
    rsq = s.r_squared
    K0 = (
        (s.p_xi**2 + s.p_nu**2) / 8.0
        + 0.5 * rsq * (s.nu * s.p_xi - s.xi * s.p_nu - 2.0 * s.C_J)
        - 1.0
    )
    if mu == 0.0:
        return K0
    W = _w_distance(s.xi, s.nu)
    return K0 + mu * (1.0 + 0.5 * (s.nu * s.p_xi + s.xi * s.p_nu) - rsq / W)


def k_flow_derivatives(z, C_J: float, mu: float) -> np.ndarray:
    """Hamilton's equations of K in the rescaled time tau.

    z is (p_xi, p_nu, xi, nu); C_J is the fixed Jacobi constant appearing
    in K.
    """
    p_xi, p_nu, xi, nu = np.asarray(z, dtype=float)[:4]
    rsq = xi * xi + nu * nu
    ang = nu * p_xi - xi * p_nu - 2.0 * C_J
    dK_dpxi = p_xi / 4.0 + 0.5 * rsq * nu
    dK_dpnu = p_nu / 4.0 - 0.5 * rsq * xi
    dK_dxi = xi * ang - 0.5 * rsq * p_nu
    dK_dnu = nu * ang + 0.5 * rsq * p_xi
    if mu != 0.0:
        W = _w_distance(xi, nu)
        W_xi = 2.0 * xi * (rsq - 1.0) / W
        W_nu = 2.0 * nu * (rsq + 1.0) / W
        dK_dpxi += 0.5 * mu * nu
        dK_dpnu += 0.5 * mu * xi
        dK_dxi += mu * (0.5 * p_nu - (2.0 * xi * W - rsq * W_xi) / (W * W))
        dK_dnu += mu * (0.5 * p_xi - (2.0 * nu * W - rsq * W_nu) / (W * W))
    return np.array([-dK_dxi, -dK_dnu, dK_dpxi, dK_dpnu])


def integrate_k_flow(s: RegularizedState, mu: float, tau_span: float, n_samples: int):
    """Integrate the K-flow from s over [0, tau_span] (DOP853, tolerance 1e-13).

    Returns (taus, states): n_samples >= 2 uniform times including both
    endpoints and the RegularizedState at each; states[-1] is at tau_span.
    Raises ValidationError for n_samples < 2 or a zero or non-finite
    tau_span, and ConvergenceError when the field has been evaluated
    _MAX_RHS_EVALS times before tau_span.
    """
    if n_samples < 2:
        raise ValidationError(f"need n_samples >= 2, got {n_samples}")
    if not math.isfinite(tau_span) or tau_span == 0.0:
        raise ValidationError(f"tau_span must be finite and non-zero, got {tau_span}")
    calls = 0

    def rhs(_, z):
        nonlocal calls
        calls += 1
        if calls > _MAX_RHS_EVALS:
            raise ConvergenceError(
                f"K-flow integration over tau = {tau_span:.6g} exceeded its budget"
                f" of {_MAX_RHS_EVALS} right-hand-side evaluations"
            )
        return k_flow_derivatives(z, s.C_J, mu)

    sol = solve_ivp(
        rhs,
        (0.0, tau_span),
        s.as_array(),
        method="DOP853",
        rtol=_INTEGRATOR_TOL,
        atol=_INTEGRATOR_TOL,
        t_eval=np.linspace(0.0, tau_span, n_samples),
    )
    if not sol.success:
        raise ConvergenceError(f"K-flow integration failed: {sol.message}")
    return sol.t, [RegularizedState.from_array(z, s.C_J) for z in sol.y.T]


def _s0(G: float, C: float) -> float:
    """sqrt(-G - 2C), the mu = 0 frequency dl/dtau; raises ValidationError
    unless G + 2C < 0, the bounded-motion condition."""
    if G + 2.0 * C >= 0.0:
        raise ValidationError(f"condition G + 2C < 0 violated (G={G}, C={C})")
    return math.sqrt(-G - 2.0 * C)


def _check_conditions(K: float, G: float, C: float) -> float:
    """The bounded-motion conditions at (K, G, C); returns `_s0`."""
    s0 = _s0(G, C)
    if K + 1.0 <= 0.0:
        raise ValidationError(f"condition K + 1 > 0 violated (K={K})")
    disc = (K + 1.0) ** 2 + G * G * (G + 2.0 * C) / 4.0
    if disc == 0.0:
        # disc = s0^2 (L^2 - G^2/4): exactly zero is the circular case
        raise DegenerateCaseError("circular case e = 0: the angle l is undefined")
    if disc < 0.0:
        raise ValidationError(
            f"condition (K+1)^2 + G^2(G+2C)/4 > 0 violated (got {disc})"
        )
    return s0


def mean_anomaly_integral(l: float, e: float) -> float:
    """The primitive of dl / (1 - e cos l), vanishing at l = 0.

    Closed form (2/sqrt(1-e^2)) * arctan(sqrt((1+e)/(1-e)) tan(l/2)),
    continued across l = pi so the result is single-valued and increasing
    on the whole real line.
    """
    if not 0.0 <= e < 1.0:
        raise ValidationError(f"eccentricity must be in [0, 1), got {e}")
    k = math.floor((l + math.pi) / (2.0 * math.pi))
    lr = l - 2.0 * math.pi * k
    branch = math.atan2(
        math.sqrt(1.0 + e) * math.sin(0.5 * lr), math.sqrt(1.0 - e) * math.cos(0.5 * lr)
    )
    return 2.0 * (math.pi * k + branch) / math.sqrt(1.0 - e * e)


def _g_offset_coefficients(L: float, G: float, C: float):
    """(secular, periodic) coefficients of the offset between g and the polar angle.

    g = theta - secular * integral(dl/(1 - e cos l)) - periodic * sin(l).
    """
    return G / (4.0 * L), math.sqrt(L * L - G * G / 4.0) / (2.0 * (-G - 2.0 * C))


def action_angle_from_state(s: RegularizedState, C: float) -> ActionAngle:
    """Action-angle variables of the mu = 0 regularized flow at energy C.

    Requires G != 0 and the bounded-motion conditions G + 2C < 0, K + 1 > 0,
    (K+1)^2 + G^2(G+2C)/4 > 0.  The angle l follows u = r^2 = a(1 - e cos l)
    with 0 <= l <= pi when the radial momentum is >= 0 and -pi < l < 0
    otherwise; g subtracts from the polar angle of (xi, nu) the secular part
    (G/(4L)) * integral(dl/(1 - e cos l)) and the periodic part
    sqrt(L^2 - G^2/4) sin(l) / (2(-G - 2C)).
    """
    G = s.angular_momentum_G
    if G == 0.0:
        raise ValidationError("action-angle chart invalid at G = 0")
    K = k_value(s, 0.0) + (s.C_J - C) * s.r_squared  # K at the requested energy C
    s0 = _check_conditions(K, G, C)
    L = (K + 1.0) / s0
    a = L / s0
    e2 = 1.0 - G * G / (4.0 * L * L)
    if e2 <= _E_DEGENERATE:
        raise DegenerateCaseError("circular case e = 0: the angle l is undefined")
    e = math.sqrt(e2)
    u = s.r_squared
    cos_l = (1.0 - u / a) / e
    cos_l = min(1.0, max(-1.0, cos_l))
    radial = s.xi * s.p_xi + s.nu * s.p_nu
    l = math.acos(cos_l) if radial >= 0.0 else -math.acos(cos_l)
    theta = math.atan2(s.nu, s.xi)
    secular, periodic = _g_offset_coefficients(L, G, C)
    g = theta - secular * mean_anomaly_integral(l, e) - periodic * math.sin(l)
    return ActionAngle(L=L, L_star=L - 0.5 * abs(G), G=G, l=l, g=g, a=a, e=e)


def state_from_action_angle(L: float, G: float, l: float, g: float, C: float) -> RegularizedState:
    """Inverse chart: the mu = 0 regularized state with the given actions and angles.

    Valid for finite L, G and C with L > 0, G != 0, G + 2C < 0 and
    G^2 < 4L^2, where e = sqrt(1 - G^2/(4L^2)) does not round to 1 and the
    radius does not underflow to 0.
    """
    if not all(map(math.isfinite, (L, G, C))):
        raise ValidationError(f"need finite L, G and C (L={L}, G={G}, C={C})")
    if G == 0.0:
        raise ValidationError("action-angle chart invalid at G = 0")
    s0 = _s0(G, C)
    if L <= 0.0 or G * G >= 4.0 * L * L:
        raise ValidationError("need L > 0 and |G| < 2L")
    a = L / s0
    x = G * G / (4.0 * L * L)
    e = math.sqrt(1.0 - x)
    if e == 1.0:
        raise ValidationError(
            f"G^2/(4L^2) = {x:.3g} at L={L}, G={G} is too small:"
            " the eccentricity sqrt(1 - G^2/(4L^2)) rounds to 1"
        )
    u = a * (1.0 - e * math.cos(l))
    r = math.sqrt(u)
    if r == 0.0:
        raise ValidationError(f"radius underflows to 0 at L={L}, G={G}, C={C}")
    secular, periodic = _g_offset_coefficients(L, G, C)
    theta = g + secular * mean_anomaly_integral(l, e) + periodic * math.sin(l)
    # Radial momentum along u = a(1 - e cos l):
    # R^2 = 4 s0 L e^2 sin^2(l) / (1 - e cos l), sign(R) = sign(sin l).
    R = 2.0 * e * math.sin(l) * math.sqrt(s0 * L / (1.0 - e * math.cos(l)))
    c, sn = math.cos(theta), math.sin(theta)
    return RegularizedState(
        p_xi=R * c - (G / r) * sn,
        p_nu=R * sn + (G / r) * c,
        xi=r * c,
        nu=r * sn,
        C_J=C,
    )


def frequencies(L: float, G: float, C: float):
    """(dl/dtau, dg/dtau) of the mu = 0 action-angle flow at energy C."""
    s0 = _s0(G, C)
    return s0, -L / (2.0 * s0)


@dataclass(frozen=True)
class CycleReport:
    """Increments of the conjugate angle pair (l, g + sign(G) l/2) along a cycle."""

    delta_l: float
    delta_pair: float
    G_sign: float


def _unwrapped_angles(aas, sigma: float):
    """(l, g + sigma l/2) along the ActionAngle records aas, each unwrapped."""
    ls = np.unwrap([aa.l for aa in aas])
    pairs = np.unwrap([aa.g + sigma * aa.l / 2.0 for aa in aas])
    return ls, pairs


def angle_consistency_check(states, C: float) -> CycleReport:
    """Total increments of (l, g + sign(G) l/2) along a sampled closed cycle.

    The states must sample the cycle densely enough that consecutive angle
    changes stay below pi; both angles are unwrapped before differencing.
    """
    if len(states) < 3:
        raise ValidationError("need at least 3 samples along the cycle")
    aas = [action_angle_from_state(s, C) for s in states]
    sigma = math.copysign(1.0, aas[0].G)
    ls, pairs = _unwrapped_angles(aas, sigma)
    return CycleReport(
        delta_l=float(ls[-1] - ls[0]),
        delta_pair=float(pairs[-1] - pairs[0]),
        G_sign=sigma,
    )


def symplecticity_defect(s: RegularizedState, mu: float) -> float:
    """Max-norm violation of J^T Omega J = Omega for the inverse Levi-Civita map.

    J is the central-difference Jacobian of lc_inverse at s (one Richardson
    step, O(h^4), h = 1e-4) in the variable order (p_xi, p_nu, xi, nu) ->
    (p_x, p_y, x, y); Omega is the canonical symplectic form in
    momenta-first ordering.
    """
    z0 = s.as_array()

    def column(j, hh):
        zp, zm = z0.copy(), z0.copy()
        zp[j] += hh
        zm[j] -= hh
        sp = lc_inverse(RegularizedState.from_array(zp, s.C_J), mu)
        sm = lc_inverse(RegularizedState.from_array(zm, s.C_J), mu)
        return (sp.as_array() - sm.as_array()) / (2.0 * hh)

    J = np.empty((4, 4))
    for j in range(4):
        J[:, j] = (4.0 * column(j, _FD_STEP / 2.0) - column(j, _FD_STEP)) / 3.0
    omega = np.block(
        [[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
    )
    return float(np.max(np.abs(J.T @ omega @ J - omega)))


def regularization_checks(C: float, G: float, L: float) -> dict:
    """Run the Levi-Civita self-check battery; returns per-check reports.

    Invalid (C, G, L) raise ValidationError from state_from_action_angle.
    """
    checks = {}
    rng = np.random.default_rng(20260823)

    defect = max(
        symplecticity_defect(
            state_from_action_angle(
                L, G, float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0, 2 * math.pi)), C
            ),
            0.0,
        )
        for _ in range(20)
    )
    checks["symplecticity"] = {"max_defect": defect, "tolerance": 1e-9, "ok": defect <= 1e-9}

    s = state_from_action_angle(L, G, 0.7, 0.4, C)
    freq_l, freq_g = frequencies(L, G, C)
    tau_span = 10.0 * 2.0 * math.pi / freq_l
    taus, states = integrate_k_flow(s, 0.0, tau_span, 2001)
    K0 = k_value(states[0], 0.0)
    G0 = states[0].angular_momentum_G
    k_drift = max(abs(k_value(st, 0.0) - K0) for st in states)
    g_drift = max(abs(st.angular_momentum_G - G0) for st in states)
    checks["conservation"] = {
        "K_drift": k_drift,
        "G_drift": g_drift,
        "tolerance": 1e-11,
        "ok": max(k_drift, g_drift) <= 1e-11,
    }

    aa = action_angle_from_state(s, C)
    rt_cart = lc_inverse(lc_forward(lc_inverse(s, 0.0), 0.0, C_J=C), 0.0)
    rt_err = max(
        abs(a - b) for a, b in zip(rt_cart.as_array(), lc_inverse(s, 0.0).as_array())
    )
    act_err = max(abs(aa.L - L), abs(aa.G - G))
    ang_err = max(
        abs(math.remainder(aa.l - 0.7, 2.0 * math.pi)),
        abs(math.remainder(aa.g - 0.4, 2.0 * math.pi)),
    )
    checks["round_trip"] = {
        "map_error": rt_err,
        "action_error": act_err,
        "angle_error": ang_err,
        "ok": rt_err <= 1e-12 and act_err <= 1e-10 and ang_err <= 1e-8,
    }

    sigma = math.copysign(1.0, G)
    ls, pair = _unwrapped_angles([action_angle_from_state(st, C) for st in states], sigma)
    gs = pair - sigma * ls / 2.0
    slope_l = float(np.polyfit(taus, ls, 1)[0])
    slope_g = float(np.polyfit(taus, gs, 1)[0])
    checks["frequencies"] = {
        "dl_dtau_error": abs(slope_l - freq_l),
        "dg_dtau_error": abs(slope_g - freq_g),
        "tolerance": 1e-8,
        "ok": max(abs(slope_l - freq_l), abs(slope_g - freq_g)) <= 1e-8,
    }

    grid = np.linspace(0.0, 2.0 * math.pi, 201)
    r_cycle = angle_consistency_check(
        [state_from_action_angle(L, G, l, 0.4 - sigma * l / 2.0, C) for l in grid], C
    )
    th_cycle = angle_consistency_check(
        [state_from_action_angle(L, G, 0.7, 0.4 + dg, C) for dg in grid], C
    )
    cyc_err = max(
        abs(r_cycle.delta_l - 2.0 * math.pi),
        abs(r_cycle.delta_pair),
        abs(th_cycle.delta_l),
        abs(th_cycle.delta_pair - 2.0 * math.pi),
    )
    checks["cycles"] = {
        "r_cycle": [r_cycle.delta_l, r_cycle.delta_pair],
        "theta_cycle": [th_cycle.delta_l, th_cycle.delta_pair],
        "tolerance": 1e-8,
        "ok": cyc_err <= 1e-8,
    }
    return checks
