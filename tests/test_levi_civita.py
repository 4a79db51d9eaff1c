"""Levi-Civita regularization tests: the canonical map and its branch, the
regularized Hamiltonian K and its flow, the collision-adapted action-angle
variables, their frequencies, and the torus-cycle angle increments."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from rtbp_resonance.errors import DegenerateCaseError, ValidationError
from rtbp_resonance.kepler import RtbpState
from rtbp_resonance.levi_civita import (
    ActionAngle,
    RegularizedState,
    action_angle_from_state,
    angle_consistency_check,
    frequencies,
    integrate_k_flow,
    k_flow_derivatives,
    k_value,
    lc_forward,
    lc_inverse,
    mean_anomaly_integral,
    state_from_action_angle,
    symplecticity_defect,
)
from rtbp_resonance.verifier import rtbp_derivatives, rtbp_hamiltonian

C_DEMO = -1.5
G_DEMO = 0.3
L_DEMO = 0.8


def _demo_state(l=0.7, g=0.4, G=G_DEMO, L=L_DEMO, C=C_DEMO):
    return state_from_action_angle(L, G, l, g, C)


class TestMap:
    def test_small_primary_position(self):
        mu = 0.01
        s = lc_forward(RtbpState(0.0, 0.0, 1.0 - mu, 0.0), mu, C_J=0.0)
        assert (s.xi, s.nu) == (1.0, 0.0)

    def test_collision_point_inverse(self):
        mu = 0.01
        s = lc_inverse(RegularizedState(0.0, 0.0, 0.0, 0.0, C_J=0.0), mu)
        assert (s.x, s.y) == (-mu, 0.0)

    def test_branch_point_rejected(self):
        with pytest.raises(ValidationError):
            lc_forward(RtbpState(0.0, 0.0, -0.01, 0.0), 0.01, C_J=0.0)

    def test_branch_is_right_half_plane(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = RtbpState(*rng.normal(size=2), *rng.uniform(-2, 2, size=2))
            if (s.x, s.y) == (0.0, 0.0):
                continue
            reg = lc_forward(s, 0.0, C_J=0.0)
            assert reg.xi > 0.0 or (reg.xi == 0.0 and reg.nu >= 0.0)

    def test_round_trip_from_cartesian(self):
        rng = np.random.default_rng(6)
        mu = 1e-3
        for _ in range(100):
            s = RtbpState(*rng.normal(size=2), *rng.uniform(-2, 2, size=2))
            back = lc_inverse(lc_forward(s, mu, C_J=0.0), mu)
            assert np.max(np.abs(back.as_array() - s.as_array())) <= 1e-12

    def test_two_to_one(self):
        s = _demo_state()
        flipped = RegularizedState(-s.p_xi, -s.p_nu, -s.xi, -s.nu, s.C_J)
        a, b = lc_inverse(s, 0.0), lc_inverse(flipped, 0.0)
        assert np.max(np.abs(a.as_array() - b.as_array())) <= 1e-14

    def test_symplecticity(self):
        rng = np.random.default_rng(11)
        for mu in (0.0, 1e-2):
            for _ in range(20):
                s = RegularizedState(
                    *rng.normal(size=2), *rng.uniform(0.3, 1.5, size=2), C_J=C_DEMO
                )
                assert symplecticity_defect(s, mu) <= 1e-9


class TestKValue:
    def test_rest_at_collision(self):
        assert k_value(RegularizedState(0.0, 0.0, 0.0, 0.0, C_J=0.0), 0.0) == -1.0

    def test_energy_relation(self):
        # K = (xi^2 + nu^2)(H - C_J) away from the collision, any mu.
        rng = np.random.default_rng(12)
        for mu in (0.0, 1e-2):
            for _ in range(30):
                reg = RegularizedState(
                    *rng.normal(size=2), *rng.uniform(0.3, 1.5, size=2), C_J=-1.2
                )
                cart = lc_inverse(reg, mu)
                expect = reg.r_squared * (rtbp_hamiltonian(cart, mu) - reg.C_J)
                assert k_value(reg, mu) == pytest.approx(expect, abs=1e-12)

    def test_action_value(self):
        s = _demo_state()
        s0 = math.sqrt(-G_DEMO - 2.0 * C_DEMO)
        assert k_value(s, 0.0) == pytest.approx(L_DEMO * s0 - 1.0, abs=1e-13)

    def test_conservation_along_flow(self):
        for mu in (0.0, 1e-3):
            s = _demo_state()
            freq_l = frequencies(L_DEMO, G_DEMO, C_DEMO)[0]
            _, states = integrate_k_flow(s, mu, 10.0 * 2.0 * math.pi / freq_l, 301)
            K0 = k_value(states[0], mu)
            assert max(abs(k_value(st, mu) - K0) for st in states) <= 1e-11

    def test_angular_momentum_conserved_at_mu0(self):
        s = _demo_state()
        _, states = integrate_k_flow(s, 0.0, 40.0, 301)
        assert max(abs(st.angular_momentum_G - G_DEMO) for st in states) <= 1e-11

    def test_small_primary_pole(self):
        # (xi, nu) = (1, 0) maps to the small primary: W = 0 for K and its flow
        s = RegularizedState(0.3, 0.2, 1.0, 0.0, C_J=C_DEMO)
        for call in (lambda: k_value(s, 1e-3),
                     lambda: k_flow_derivatives(s.as_array(), C_DEMO, 1e-3)):
            with pytest.raises(ValidationError, match="W = 0"):
                call()
        assert math.isfinite(k_value(s, 0.0))

    @pytest.mark.parametrize("n_samples", [1, 0, -3])
    def test_flow_needs_both_endpoints(self, n_samples):
        # one sample would be tau = 0 alone, not states[-1] at tau_span
        with pytest.raises(ValidationError, match="n_samples >= 2"):
            integrate_k_flow(_demo_state(), 0.0, 1.0, n_samples)

    @pytest.mark.parametrize("tau_span", [0.0, -0.0, math.inf, -math.inf, math.nan])
    def test_flow_needs_a_finite_nonzero_span(self, tau_span):
        with pytest.raises(ValidationError, match="tau_span must be finite and non-zero"):
            integrate_k_flow(_demo_state(), 0.0, tau_span, 11)

    def test_k_flow_is_hamiltonian(self):
        # d/dtau matches the gradient of k_value numerically
        z = _demo_state().as_array()
        f = k_flow_derivatives(z, C_DEMO, 0.0)
        h = 1e-6

        def K_at(zz):
            return k_value(RegularizedState.from_array(zz, C_DEMO), 0.0)

        grad = np.empty(4)
        for j in range(4):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            grad[j] = (K_at(zp) - K_at(zm)) / (2 * h)
        expect = np.array([-grad[2], -grad[3], grad[0], grad[1]])
        assert np.max(np.abs(f - expect)) <= 1e-8


class TestTimeRescaling:
    def test_k_zero_flow_matches_physical_flow(self):
        # On K = 0 the tau-flow maps to the H = C_J flow with dt = r^2 dtau.
        s0_freq = 1.1
        L = 1.0 / s0_freq  # makes K = L*sqrt(-G-2C) - 1 = 0
        G = 0.3
        C = -(G + s0_freq**2) / 2.0
        reg0 = state_from_action_angle(L, G, 0.8, 0.2, C)
        assert abs(k_value(reg0, 0.0)) < 1e-13

        def rhs(_, w):
            z = w[:4]
            dz = k_flow_derivatives(z, C, 0.0)
            r2 = z[2] ** 2 + z[3] ** 2
            return np.concatenate([dz, [r2]])

        tau_end = 3.0
        sol = solve_ivp(rhs, (0.0, tau_end), np.concatenate([reg0.as_array(), [0.0]]),
                        method="DOP853", rtol=1e-12, atol=1e-12)
        assert sol.success
        reg1 = RegularizedState.from_array(sol.y[:4, -1], C)
        t_phys = sol.y[4, -1]

        cart0 = lc_inverse(reg0, 0.0)
        assert rtbp_hamiltonian(cart0, 0.0) == pytest.approx(C, abs=1e-12)
        sol2 = solve_ivp(lambda _, z: rtbp_derivatives(z, 0.0), (0.0, t_phys),
                         cart0.as_array(), method="DOP853", rtol=1e-12, atol=1e-12)
        assert sol2.success
        expect = lc_inverse(reg1, 0.0).as_array()
        assert np.max(np.abs(sol2.y[:, -1] - expect)) <= 1e-9


class TestActionAngle:
    def test_round_trip_through_chart(self):
        aa = action_angle_from_state(_demo_state(), C_DEMO)
        assert isinstance(aa, ActionAngle)
        assert aa.L == pytest.approx(L_DEMO, abs=1e-12)
        assert aa.G == pytest.approx(G_DEMO, abs=1e-12)
        assert aa.l == pytest.approx(0.7, abs=1e-12)
        assert aa.g == pytest.approx(0.4, abs=1e-12)
        assert aa.L_star == pytest.approx(L_DEMO - abs(G_DEMO) / 2.0, abs=1e-13)

    def test_round_trip_after_flow(self):
        # flow from the chart point and recover actions/angles downstream
        freq_l, freq_g = frequencies(L_DEMO, G_DEMO, C_DEMO)
        tau = 0.9 / freq_l  # keeps l on the principal branch
        _, states = integrate_k_flow(_demo_state(l=0.0, g=0.4), 0.0, tau, 2)
        aa = action_angle_from_state(states[-1], C_DEMO)
        assert aa.L == pytest.approx(L_DEMO, abs=1e-10)
        assert aa.G == pytest.approx(G_DEMO, abs=1e-10)
        assert aa.l == pytest.approx(0.9, abs=1e-8)
        assert aa.g == pytest.approx(0.4 + freq_g * tau, abs=1e-8)

    def test_radial_bounds_touched_at_turning_points(self):
        _, states = integrate_k_flow(_demo_state(), 0.0, 60.0, 2001)
        aa = action_angle_from_state(states[0], C_DEMO)
        u = np.array([st.r_squared for st in states])
        u_min, u_max = aa.a * (1 - aa.e), aa.a * (1 + aa.e)
        assert np.all(u >= u_min - 1e-9) and np.all(u <= u_max + 1e-9)
        assert u.min() == pytest.approx(u_min, abs=1e-5)
        assert u.max() == pytest.approx(u_max, abs=1e-5)
        # r_min^2 + r_max^2 and r_min^2 r_max^2 identities
        s0 = -G_DEMO - 2.0 * C_DEMO
        K = k_value(states[0], 0.0)
        assert u_min + u_max == pytest.approx(2.0 * (K + 1.0) / s0, abs=1e-12)
        assert u_min * u_max == pytest.approx(G_DEMO**2 / (4.0 * s0), abs=1e-12)

    def test_zero_angular_momentum_rejected(self):
        s = RegularizedState(0.4, 0.0, 0.9, 0.0, C_J=C_DEMO)
        assert s.angular_momentum_G == 0.0
        with pytest.raises(ValidationError):
            action_angle_from_state(s, C_DEMO)

    def test_unbound_rejected(self):
        with pytest.raises(ValidationError):
            action_angle_from_state(_demo_state(), C=0.5)  # G + 2C > 0

    @pytest.mark.parametrize(
        "L,G,C",
        [(L_DEMO, G_DEMO, math.nan), (math.nan, G_DEMO, C_DEMO), (L_DEMO, math.nan, C_DEMO),
         (L_DEMO, G_DEMO, -1e308)],
    )
    def test_inverse_chart_rejects_non_finite_and_zero_radius(self, L, G, C):
        with pytest.raises(ValidationError):
            state_from_action_angle(L, G, 0.7, 0.4, C)

    def test_circular_degenerate(self):
        # G = 2L exactly: e = 0, the radial angle is undefined.
        s0 = math.sqrt(-G_DEMO - 2.0 * C_DEMO)
        L = G_DEMO / 2.0
        a = L / s0
        r = math.sqrt(a)
        s = RegularizedState(0.0, G_DEMO / r, r, 0.0, C_J=C_DEMO)
        with pytest.raises(DegenerateCaseError):
            action_angle_from_state(s, C_DEMO)

    def test_mean_anomaly_integral_continuation(self):
        e = 0.6
        # derivative equals 1/(1 - e cos l) across the l = pi seam
        for l in (0.5, math.pi - 0.01, math.pi + 0.01, 4.0, 9.0, -3.5):
            h = 1e-6
            d = (mean_anomaly_integral(l + h, e) - mean_anomaly_integral(l - h, e)) / (2 * h)
            assert d == pytest.approx(1.0 / (1.0 - e * math.cos(l)), rel=1e-8)
        # full period accumulates 2*pi/sqrt(1-e^2)
        per = mean_anomaly_integral(2 * math.pi, e) - mean_anomaly_integral(0.0, e)
        assert per == pytest.approx(2 * math.pi / math.sqrt(1 - e * e), abs=1e-12)


class TestFrequencies:
    @pytest.mark.parametrize("G", [G_DEMO, -G_DEMO])
    def test_corrected_formula_matches(self, G, measured_frequency_errors):
        dl, dg, resid = measured_frequency_errors(L_DEMO, G, C_DEMO)
        assert abs(dl) <= 1e-8
        assert abs(dg) <= 1e-8
        assert resid <= 1e-8  # g is exactly linear in tau

    def test_historical_formula_fails(self, measured_frequency_errors):
        # the uncorrected secular factor and sin-l coefficient break both the
        # frequency match and the linearity of g
        dl, dg, resid = measured_frequency_errors(L_DEMO, G_DEMO, C_DEMO, uncorrected=True)
        assert abs(dl) <= 1e-8  # l is untouched
        assert abs(dg) > 1e-4 or resid > 1e-3


class TestCycles:
    @pytest.mark.parametrize("G", [G_DEMO, -G_DEMO])
    def test_angle_increments(self, G):
        sigma = math.copysign(1.0, G)
        grid = np.linspace(0.0, 2.0 * math.pi, 201)
        r_cycle = angle_consistency_check(
            [state_from_action_angle(L_DEMO, G, l, 0.4 - sigma * l / 2.0, C_DEMO) for l in grid],
            C_DEMO,
        )
        th_cycle = angle_consistency_check(
            [state_from_action_angle(L_DEMO, G, 0.7, 0.4 + dg, C_DEMO) for dg in grid],
            C_DEMO,
        )
        assert r_cycle.G_sign == sigma
        assert r_cycle.delta_l == pytest.approx(2.0 * math.pi, abs=1e-8)
        assert r_cycle.delta_pair == pytest.approx(0.0, abs=1e-8)
        assert th_cycle.delta_l == pytest.approx(0.0, abs=1e-8)
        assert th_cycle.delta_pair == pytest.approx(2.0 * math.pi, abs=1e-8)

    def test_needs_samples(self):
        with pytest.raises(ValidationError):
            angle_consistency_check([_demo_state()], C_DEMO)
