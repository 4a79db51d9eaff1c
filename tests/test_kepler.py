"""Coordinate-stack tests: Kepler solver, anomalies, Delaunay/polar/Cartesian
transforms, unperturbed flow, and the mu = 0 conjugacy with the Cartesian
equations of motion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from oracles import TWO_PI, unperturbed_flow
from rtbp_resonance.errors import ValidationError
from rtbp_resonance.kepler import (
    DelaunayState,
    PolarState,
    RtbpState,
    cartesian_to_delaunay,
    cartesian_to_polar_rotating,
    delaunay_to_cartesian,
    delaunay_to_polar,
    polar_to_cartesian_rotating,
    polar_to_delaunay,
    solve_kepler,
    true_anomaly,
)
from rtbp_resonance.verifier import rtbp_derivatives


def _bisection_kepler(l, e, tol=1e-15):
    lo, hi = l - e, l + e
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - e * math.sin(mid) - l > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestSolveKepler:
    def test_circular(self):
        assert solve_kepler(0.7, 0.0) == 0.7

    def test_symmetry_point(self):
        assert solve_kepler(math.pi, 0.9) == pytest.approx(math.pi, abs=1e-14)

    def test_against_bisection_oracle(self):
        E = solve_kepler(1.0, 0.3)
        assert E == pytest.approx(_bisection_kepler(1.0, 0.3), abs=1e-13)
        assert abs(E - 0.3 * math.sin(E) - 1.0) <= 1e-14

    @given(
        l=st.floats(-10.0, 10.0, allow_nan=False),
        e=st.floats(0.0, 0.95, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_residual_property(self, l, e):
        E = solve_kepler(l, e)
        assert abs(E - e * math.sin(E) - l) <= 1e-14
        assert abs(E - l) <= e + 1e-14  # continuity bound

    def test_invalid_eccentricity(self):
        with pytest.raises(ValidationError):
            solve_kepler(0.1, 1.0)
        with pytest.raises(ValidationError):
            solve_kepler(0.1, -0.1)


class TestTrueAnomaly:
    def test_perihelion_aphelion(self):
        assert true_anomaly(0.0, 0.5) == 0.0
        assert float(true_anomaly(math.pi, 0.5)) == pytest.approx(math.pi, abs=1e-14)

    def test_quarter_point(self):
        # cos(nu) = (cos E - e)/(1 - e cos E) = -0.5 at E = pi/2, e = 0.5.
        assert float(true_anomaly(math.pi / 2, 0.5)) == pytest.approx(
            2.0 * math.pi / 3.0, abs=1e-14
        )

    @given(E=st.floats(-15.0, 15.0), e=st.floats(0.0, 0.95))
    @settings(max_examples=300, deadline=None)
    def test_cosine_identity_and_halfplane(self, E, e):
        nu = float(true_anomaly(E, e))
        lhs = math.cos(nu) * (1.0 - e * math.cos(E))
        assert lhs == pytest.approx(math.cos(E) - e, abs=1e-12)
        assert math.sin(nu) * math.sin(E) >= -1e-12

    def test_unwrapped(self):
        for E in (-3.0, 0.4, 2.0):
            for e in (0.2, 0.8):
                d = float(true_anomaly(E + TWO_PI, e)) - float(true_anomaly(E, e))
                assert d == pytest.approx(TWO_PI, abs=1e-12)


class TestDelaunayState:
    def test_sign_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            DelaunayState(L=1.0, G=-0.5, l=0.0, g=0.0)

    def test_hyperbolic_rejected(self):
        with pytest.raises(ValidationError):
            DelaunayState(L=1.0, G=1.5, l=0.0, g=0.0)

    def test_elements(self):
        s = DelaunayState(L=1.0, G=0.8, l=0.0, g=0.3)
        assert s.eccentricity == pytest.approx(0.6)
        assert s.semimajor_axis == 1.0
        # l = 0 is the perihelion: E = 0 (R = 0, r = a(1 - e)) and nu = theta - g = 0
        p = delaunay_to_polar(s)
        assert p.R == 0.0 and p.r == s.semimajor_axis * (1 - s.eccentricity)
        assert p.theta - s.g == 0.0
        # r = a(1 - e cos E) > 0 and the anomaly identity at a generic phase,
        # with cos E = (1 - r/a)/e and nu = theta - g
        s2 = DelaunayState(L=1.0, G=0.8, l=2.1, g=0.0)
        p2 = delaunay_to_polar(s2)
        e, rho = s2.eccentricity, p2.r / s2.semimajor_axis
        assert p2.r > 0
        assert math.cos(p2.theta - s2.g) * rho == pytest.approx((1 - rho) / e - e, abs=1e-13)


class TestDelaunayPolar:
    def test_circular_rejected(self):
        with pytest.raises(ValidationError):
            delaunay_to_polar(DelaunayState(L=1.0, G=1.0, l=0.0, g=0.0))

    def test_perihelion(self):
        s = delaunay_to_polar(DelaunayState(L=1.0, G=0.8, l=0.0, g=0.3))
        assert s.r == pytest.approx(0.4, abs=1e-14)  # a(1-e), a=1, e=0.6
        assert s.R == pytest.approx(0.0, abs=1e-14)
        assert s.theta == pytest.approx(0.3, abs=1e-14)

    def test_retrograde_perihelion(self):
        s = delaunay_to_polar(DelaunayState(L=-1.0, G=-0.8, l=0.0, g=0.0))
        assert s.r == pytest.approx(0.4, abs=1e-14)
        assert s.R == pytest.approx(0.0, abs=1e-14)
        assert s.theta == pytest.approx(0.0, abs=1e-14)

    def test_aphelion_branch(self):
        # R = 0 at aphelion must invert to E = pi, not E = 0.
        s = PolarState(R=0.0, G=0.8, r=1.6, theta=0.5)
        d = polar_to_delaunay(s)
        assert d.l % TWO_PI == pytest.approx(math.pi, abs=1e-12)

    def test_nonelliptic_rejected(self):
        with pytest.raises(ValidationError):
            polar_to_delaunay(PolarState(R=2.0, G=1.0, r=1.0, theta=0.0))
        with pytest.raises(ValidationError):
            polar_to_delaunay(PolarState(R=0.1, G=0.0, r=1.0, theta=0.0))


class TestPolarCartesian:
    def test_tangential_momentum(self):
        s = polar_to_cartesian_rotating(PolarState(R=0.0, G=1.0, r=1.0, theta=0.0))
        # Canonical momenta are the inertial velocity: (0, G/r) at theta = 0.
        assert (s.p_x, s.p_y, s.x, s.y) == pytest.approx((0.0, 1.0, 1.0, 0.0))

    def test_rotated_quarter_turn(self):
        s = polar_to_cartesian_rotating(PolarState(R=0.0, G=1.0, r=1.0, theta=math.pi / 2))
        assert (s.p_x, s.p_y, s.x, s.y) == pytest.approx((-1.0, 0.0, 0.0, 1.0), abs=1e-15)

    def test_pure_radial(self):
        s = polar_to_cartesian_rotating(PolarState(R=0.5, G=0.0, r=2.0, theta=0.0))
        assert (s.p_x, s.p_y, s.x, s.y) == pytest.approx((0.5, 0.0, 2.0, 0.0))

    def test_circular_state_is_mu0_equilibrium(self):
        # The r = 1 circular orbit is a fixed point of the rotating-frame
        # mu = 0 flow; this pins down the momentum convention.
        s = polar_to_cartesian_rotating(PolarState(R=0.0, G=1.0, r=1.0, theta=0.0))
        assert np.max(np.abs(rtbp_derivatives(s, 0.0))) <= 1e-15


class TestRoundTrips:
    def test_randomized_bulk(self):
        """10^4 random full-stack round-trips at 1e-12."""
        rng = np.random.default_rng(42)
        n = 10_000
        L = rng.uniform(0.4, 2.0, n) * np.where(rng.random(n) < 0.5, 1.0, -1.0)
        e = rng.uniform(0.05, 0.95, n)
        G = L * np.sqrt(1.0 - e * e)
        l = rng.uniform(-math.pi, math.pi, n)
        g = rng.uniform(0.0, TWO_PI, n)
        worst = 0.0
        for i in range(n):
            s = DelaunayState(L=float(L[i]), G=float(G[i]), l=float(l[i]), g=float(g[i]))
            back = cartesian_to_delaunay(delaunay_to_cartesian(s))
            err = max(
                abs(back.L - s.L),
                abs(back.G - s.G),
                abs(math.remainder(back.l - s.l, TWO_PI)),
                abs(math.remainder(back.g - s.g, TWO_PI)),
            )
            worst = max(worst, err)
        assert worst <= 1e-12

    @given(
        L=st.floats(0.4, 2.0),
        e=st.floats(0.05, 0.95),
        l=st.floats(-math.pi, math.pi),
        g=st.floats(0.0, TWO_PI),
        retro=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_delaunay_polar_property(self, L, e, l, g, retro):
        sign = -1.0 if retro else 1.0
        s = DelaunayState(L=sign * L, G=sign * L * math.sqrt(1 - e * e), l=l, g=g)
        p = delaunay_to_polar(s)
        back = polar_to_delaunay(p)
        assert back.L == pytest.approx(s.L, abs=1e-12)
        assert back.G == pytest.approx(s.G, abs=1e-12)
        assert math.remainder(back.l - s.l, TWO_PI) == pytest.approx(0.0, abs=1e-11)
        assert math.remainder(back.g - s.g, TWO_PI) == pytest.approx(0.0, abs=1e-11)

    def test_polar_cartesian_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = PolarState(
                R=float(rng.normal()),
                G=float(rng.normal()),
                r=float(rng.uniform(0.1, 3.0)),
                theta=float(rng.uniform(-math.pi, math.pi)),
            )
            b = cartesian_to_polar_rotating(polar_to_cartesian_rotating(p))
            assert b.R == pytest.approx(p.R, abs=1e-13)
            assert b.G == pytest.approx(p.G, abs=1e-13)
            assert b.r == pytest.approx(p.r, abs=1e-13)
            assert math.remainder(b.theta - p.theta, TWO_PI) == pytest.approx(0.0, abs=1e-13)


class TestUnperturbedFlow:
    def test_period(self):
        s = DelaunayState(L=1.0, G=0.8, l=0.0, g=0.0)
        out = unperturbed_flow(s, TWO_PI)
        assert out.l == pytest.approx(0.0, abs=1e-12)
        assert out.g == pytest.approx(0.0, abs=1e-12)

    def test_fast_circulation(self):
        L = (1.0 / 3.0) ** (1.0 / 3.0)
        out = unperturbed_flow(DelaunayState(L=L, G=0.9 * L, l=0.0, g=0.0), TWO_PI)
        assert out.l == pytest.approx(0.0, abs=1e-11)  # ldot = L^-3 = 3

    def test_identity(self):
        s = DelaunayState(L=1.3, G=1.0, l=0.4, g=1.1)
        out = unperturbed_flow(s, 0.0)
        assert (out.L, out.G, out.l, out.g) == (s.L, s.G, s.l, s.g)


def _integrate_cartesian(s0, t, mu=0.0):
    sol = solve_ivp(
        lambda _, z: rtbp_derivatives(z, mu),
        (0.0, t),
        np.asarray(s0, dtype=float),
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
    )
    assert sol.success
    return sol.y[:, -1]


class TestConjugacy:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_mu0_flow_matches_delaunay_flow(self, sign):
        s = DelaunayState(L=sign * 1.1, G=sign * 0.9, l=0.7, g=0.4)
        t = 2.3
        cart = delaunay_to_cartesian(s).as_array()
        pulled = cartesian_to_delaunay(RtbpState.from_array(_integrate_cartesian(cart, t)))
        expected = unperturbed_flow(s, t)
        assert pulled.L == pytest.approx(expected.L, abs=1e-10)
        assert pulled.G == pytest.approx(expected.G, abs=1e-10)
        assert math.remainder(pulled.l - expected.l, TWO_PI) == pytest.approx(0.0, abs=1e-9)
        assert math.remainder(pulled.g - expected.g, TWO_PI) == pytest.approx(0.0, abs=1e-9)

    def test_reflection_symmetry(self):
        # If (X(t), Y(t)) solves the mu = 0 equations, so does (X(-t), -Y(-t)).
        s0 = delaunay_to_cartesian(DelaunayState(L=1.1, G=0.9, l=0.7, g=0.4)).as_array()
        t = 1.7
        fwd = _integrate_cartesian(s0, t)
        mirrored0 = np.array([-s0[0], s0[1], s0[2], -s0[3]])
        bwd = _integrate_cartesian(mirrored0, -t)
        assert np.max(np.abs(bwd - [-fwd[0], fwd[1], fwd[2], -fwd[3]])) <= 1e-10
