"""Full-problem verifier tests: vector field and variational block, the
same field's mu-predictor rows, Newton shooting for the symmetric resonant
orbits and its stopping rules, the half-period monodromy against
a full-period integration, monodromy structure, and the mu -> 0
extrapolation of (tr M - 4)/mu against the quadrature."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oracles import rtbp_jacobian
from rtbp_resonance import verifier
from rtbp_resonance.coefficient import compute_C
from rtbp_resonance.errors import CollisionError, ConvergenceError, ValidationError
from rtbp_resonance.kepler import RtbpState
from rtbp_resonance.perturbation import ResonantFamily, canonical_families
from rtbp_resonance.verifier import (
    _variational_rhs,
    monodromy,
    refine_periodic_orbit,
    rtbp_derivatives,
    rtbp_hamiltonian,
    verify_families,
)

MU = 1e-5


def _integrate(s0, t, mu, tol=1e-12):
    sol = solve_ivp(
        lambda _, z: rtbp_derivatives(z, mu),
        (0.0, t),
        np.asarray(s0, dtype=float),
        method="DOP853",
        rtol=tol,
        atol=tol,
        dense_output=True,
    )
    assert sol.success
    return sol


def _full_period_monodromy(o, tol=1e-12):
    """Oracle: M from the variational equations integrated over the whole
    period with the unfused Jacobian rtbp_jacobian."""

    def rhs(_, z):
        f, J = rtbp_derivatives(z[:4], o.mu), rtbp_jacobian(z[:4], o.mu)
        return np.concatenate([f, (J @ z[4:].reshape(4, 4)).ravel()])

    z0 = np.concatenate([o.initial_state.as_array(), np.eye(4).ravel()])
    sol = solve_ivp(rhs, (0.0, o.period), z0, method="DOP853", rtol=tol, atol=tol)
    assert sol.success
    return sol.y[4:, -1].reshape(4, 4)


class TestDerivatives:
    def test_circular_orbit_is_equilibrium(self):
        s = RtbpState(p_x=0.0, p_y=1.0, x=1.0, y=0.0)
        assert np.max(np.abs(rtbp_derivatives(s, 0.0))) == 0.0

    def test_energy_conserved_along_arc(self):
        s0 = np.array([0.1, 0.9, 1.1, 0.0])
        sol = _integrate(s0, 15.0, 1e-3)
        H0 = rtbp_hamiltonian(s0, 1e-3)
        drift = max(abs(rtbp_hamiltonian(sol.sol(t), 1e-3) - H0) for t in np.linspace(0, 15, 40))
        assert drift <= 1e-11

    def test_variational_block_matches_finite_differences(self):
        mu = 1e-3
        z0 = np.array([0.2, 0.8, 0.9, 0.3])
        J = rtbp_jacobian(z0, mu)
        h = 1e-6
        for j in range(4):
            zp, zm = z0.copy(), z0.copy()
            zp[j] += h
            zm[j] -= h
            col = (rtbp_derivatives(zp, mu) - rtbp_derivatives(zm, mu)) / (2 * h)
            assert np.max(np.abs(J[:, j] - col)) <= 1e-7

    def test_collision_guard(self):
        with pytest.raises(CollisionError):
            rtbp_derivatives(np.array([0.0, 0.0, 1.0 - 1e-3, 0.0]), 1e-3)


class TestFusedVariationalRhs:
    def test_matches_rtbp_derivatives(self):
        rng = np.random.default_rng(7)
        for mu in (0.0, 1e-5, 1e-3):
            for _ in range(50):
                z = rng.uniform(-1.5, 1.5, 20)
                f, J = rtbp_derivatives(z[:4], mu), rtbp_jacobian(z[:4], mu)
                want = np.concatenate([f, (J @ z[4:].reshape(4, 4)).ravel()])
                got = _variational_rhs(z[None], [mu])[0]
                assert got.shape == (20,)
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("x", [-1e-3, 1.0 - 1e-3])
    def test_collision_at_either_primary(self, x):
        z = np.concatenate([[0.0, 0.0, x, 0.0], np.eye(4).ravel()])
        with pytest.raises(CollisionError):
            _variational_rhs(z[None], [1e-3])


def _away_from_primaries(rng, n):
    """n random (state, Phi, w) rows whose positions keep 0.2 from (0, 0)
    and from (1, 0)."""
    rows = []
    while len(rows) < n:
        z = rng.uniform(-1.5, 1.5, 24)
        if min(math.hypot(z[2], z[3]), math.hypot(z[2] - 1.0, z[3])) > 0.2:
            rows.append(z)
    return rows


class TestTangentRhs:
    """(f, J Phi, J w + df/dmu) at mu = 0: the mu-predictor's rows of the
    variational field, 24 entries wide."""

    def test_stm_block_is_the_variational_rhs(self):
        for z in _away_from_primaries(np.random.default_rng(3), 50):
            got = _variational_rhs(z[None], [0.0])[0]
            assert got.shape == (24,)
            assert np.array_equal(got[:20], _variational_rhs(z[None, :20], [0.0])[0])

    def test_forcing_matches_forward_difference_in_mu(self):
        # one-sided, second order: mu <= 0 zeroes the second primary's terms
        h = 1e-6
        for z in _away_from_primaries(np.random.default_rng(5), 50):
            s, w = z[:4], z[20:]
            f0, f1, f2 = (rtbp_derivatives(s, k * h) for k in range(3))
            want = rtbp_jacobian(s, 0.0) @ w + (4.0 * f1 - f2 - 3.0 * f0) / (2.0 * h)
            got = _variational_rhs(z[None], [0.0])[0][20:]
            # measured 1.4e-9
            assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))

    def test_collision_guard_at_the_second_primary(self):
        z = np.concatenate([[0.0, 0.0, 1.0 + 5e-9, 0.0], np.eye(4).ravel(), np.zeros(4)])
        # the mu = 0 field is regular there; its mu derivative is not
        assert np.all(np.isfinite(_variational_rhs(z[None, :20], [0.0])))
        with pytest.raises(CollisionError):
            _variational_rhs(z[None], [0.0])

    def test_rows_with_w_take_mu_zero_only(self):
        # df/dmu is written out at mu = 0
        (z,) = _away_from_primaries(np.random.default_rng(3), 1)
        with pytest.raises(ValueError):
            _variational_rhs(z[None], [1e-5])


def _first_residuals(monkeypatch, orbits):
    """max(|y|, |p_x|)(T/2) of each orbit's first Newton integration: the
    first flow whose start rows carry no w (the predictor's carry w)."""
    first = []
    flow = verifier._flow

    def spy(s0, t_end, mus):
        flows = flow(s0, t_end, mus)
        if not first and s0.shape[1] == 4:
            first.extend(max(abs(sf[3]), abs(sf[0])) for sf, *_ in flows)
        return flows

    monkeypatch.setattr(verifier, "_flow", spy)
    verifier._shoot(orbits, verifier.CORRECTOR_TOL)
    monkeypatch.undo()
    return first


def _count_integrations(monkeypatch):
    """The fields of every verifier.solve_ivp call, by name, with the shape
    of their start rows."""
    calls = []
    solve = verifier.solve_ivp

    def spy(fun, t_end, y0, params, tol):
        calls.append((fun.__name__, np.shape(y0)))
        return solve(fun, t_end, y0, params, tol)

    monkeypatch.setattr(verifier, "solve_ivp", spy)
    return calls


class TestPredictor:
    @pytest.mark.parametrize("family", canonical_families(1, 3, 0.3), ids=["n_l=0", "n_l=1"])
    def test_first_residual_is_second_order_in_mu(self, monkeypatch, family):
        # measured 1.9e-5 vs 1.9e-7 and 9.3e-6 vs 9.3e-8; the bare seed gives
        # 1.6e-2 vs 1.6e-3 (first order)
        r4, r5 = _first_residuals(monkeypatch, [(family, 1e-4), (family, 1e-5)])
        assert r4 >= 50.0 * r5

    def test_at_most_three_integrations_per_orbit(self, monkeypatch):
        calls = _count_integrations(monkeypatch)
        for res in verify_families(canonical_families(1, 3, 0.3)):
            assert res.errors == (None,) * 4
        # one mu = 0 row with w per family; an orbit is in each Newton batch once
        assert calls[0] == ("_variational_rhs", (2, 24))
        assert all(name == "_variational_rhs" and shape[1] == 20 for name, shape in calls[1:])
        assert len(calls) - 1 <= 3

    def test_failed_predictor_starts_from_the_bare_seed(self, monkeypatch):
        f = ResonantFamily(1, 3, 0.3)
        starts = []
        flow = verifier._flow

        def fail_with_w(Z, mus):
            if Z.shape[1] == 24:
                raise CollisionError("trajectory reached a primary")
            return _variational_rhs(Z, mus)

        def spy(s0, t_end, mus):
            if s0.shape[1] == 4:  # a Newton integration, not the predictor's
                starts.append(s0[0, 2])
            return flow(s0, t_end, mus)

        monkeypatch.setattr(verifier, "_variational_rhs", fail_with_w)
        monkeypatch.setattr(verifier, "_flow", spy)
        o = refine_periodic_orbit(f, MU)
        assert starts[0] == verifier._seed(f)[1]
        assert max(o.residual_y, o.residual_px) <= verifier.CORRECTOR_TOL


class TestRefinement:
    def test_period_near_unperturbed(self):
        o = refine_periodic_orbit(ResonantFamily(1, 3, 0.3), MU)
        assert abs(o.period - 2.0 * math.pi) <= 10.0 * MU * 2.0 * math.pi
        assert o.initial_state.y == 0.0 and o.initial_state.p_x == 0.0
        assert max(o.residual_y, o.residual_px) <= 1e-10

    def test_small_mu_limit_recovers_seed(self):
        f = ResonantFamily(1, 3, 0.3)
        o = refine_periodic_orbit(f, 1e-7)
        a = f.semimajor_axis
        assert o.initial_state.x == pytest.approx(a * (1 - f.e), abs=1e-4)
        assert o.period == pytest.approx(2.0 * math.pi, abs=1e-4)

    def test_retrograde_reversed_circulation(self):
        o = refine_periodic_orbit(ResonantFamily(1, 2, 0.2, direction="retrograde"), MU)
        # angular momentum x0 * p_y(0) is negative for the reversed sense
        assert o.initial_state.x * o.initial_state.p_y < 0.0
        assert max(o.residual_y, o.residual_px) <= 1e-10

    def test_orbit_closes(self):
        o = refine_periodic_orbit(ResonantFamily(1, 3, 0.3, n_l=1), MU, tol=1e-12)
        s0 = o.initial_state.as_array()
        # measured with a tighter integration than the shooting default so the
        # measurement error sits below the claimed closure
        sf = _integrate(s0, o.period, MU, tol=1e-13).y[:, -1]
        assert np.max(np.abs(sf - s0)) <= 1e-10

    def test_reflection_symmetry_about_half_period(self):
        o = refine_periodic_orbit(ResonantFamily(1, 3, 0.3), MU, tol=1e-12)
        sol = _integrate(o.initial_state.as_array(), o.period, MU)
        for s in (0.3, 1.1, 2.0):
            a = sol.sol(o.period / 2 + s)
            b = sol.sol(o.period / 2 - s)
            mirror = np.array([-b[0], b[1], b[2], -b[3]])
            assert np.max(np.abs(a - mirror)) <= 1e-9

    def test_mu_out_of_range(self):
        with pytest.raises(ValidationError):
            refine_periodic_orbit(ResonantFamily(1, 3, 0.3), 0.1)

    def test_newton_divergence_reported(self):
        # a deliberately absurd tolerance cannot be met
        with pytest.raises(ConvergenceError):
            refine_periodic_orbit(ResonantFamily(1, 3, 0.3), MU, tol=1e-16)

    def test_residual_floor_stalls_early(self, monkeypatch):
        # 1:3 e=0.97 family 2 (perihelion 0.014) closes only to 1.8e-12 ...
        # 3.9e-10 over the default mu, above the default tol: each orbit stops
        # three integrations after its best residual, well inside the
        # 25-integration cap (measured: at most 9)
        f = canonical_families(1, 3, 0.97)[1]
        calls = _count_integrations(monkeypatch)
        (res,) = verify_families([f])
        assert res.C is None
        for mu, err in zip(verifier.DEFAULT_MU_LIST, res.errors):
            assert type(err) is ConvergenceError
            assert re.fullmatch(
                rf"shooting stalled at residual \S+ above tol=1e-12 for {re.escape(str(f))} "
                rf"at mu={mu}",
                str(err),
            )
        assert len([c for c in calls if c[0] == "_variational_rhs"]) <= 10


@pytest.fixture(scope="module")
def reports():
    out = {}
    for f in canonical_families(1, 3, 0.3):
        out[(f.n_l, f.n_g)] = monodromy(refine_periodic_orbit(f, MU))
    return out


class TestHalfPeriodMonodromy:
    @pytest.mark.parametrize("family", canonical_families(1, 3, 0.3), ids=["n_l=0", "n_l=1"])
    def test_matches_full_period_integration(self, family):
        mu = 1e-4
        o = refine_periodic_orbit(family, mu)
        rep = monodromy(o)
        M = _full_period_monodromy(o)
        assert np.max(np.abs(rep.matrix - M)) <= 1e-7 * np.max(np.abs(M))
        C_full = (np.trace(M) - 4.0) / mu
        assert rep.C_estimate == pytest.approx(C_full, rel=1e-6)

    def test_no_integration(self, monkeypatch):
        o = refine_periodic_orbit(ResonantFamily(1, 3, 0.3), MU)

        def no_integration(*args, **kwargs):
            raise AssertionError("monodromy called solve_ivp")

        monkeypatch.setattr(verifier, "solve_ivp", no_integration)
        monodromy(o)


class TestMonodromy:
    def test_symplectic_determinant(self, reports):
        for rep in reports.values():
            assert abs(rep.determinant - 1.0) <= 1e-8

    def test_eigenvalue_structure(self, reports):
        for rep in reports.values():
            eig = sorted(rep.eigenvalues, key=lambda z: abs(z - 1.0))
            # two unit multipliers from energy conservation / phase shift
            assert abs(eig[0] - 1.0) <= 1e-4 and abs(eig[1] - 1.0) <= 1e-4
            # the other two are reciprocal
            assert abs(eig[2] * eig[3] - 1.0) <= 1e-9

    def test_estimate_tracks_quadrature(self, reports):
        for (n_l, n_g), rep in reports.items():
            f = ResonantFamily(1, 3, 0.3, n_l, n_g)
            c_quad = compute_C(f).C
            assert rep.C_estimate == pytest.approx(c_quad, rel=0.05)

    def test_stability_classification(self, reports):
        for (n_l, n_g), rep in reports.items():
            c = compute_C(ResonantFamily(1, 3, 0.3, n_l, n_g)).C
            offs = sorted(abs(abs(z) - 1.0) for z in rep.eigenvalues)[-1]
            if c > 0.0:
                assert offs > 1e-3  # hyperbolic: a real pair off the circle
            else:
                assert offs < 1e-6  # elliptic: all multipliers on the circle

    def test_trace_approaches_four(self):
        mu = 3e-6
        rep = monodromy(refine_periodic_orbit(ResonantFamily(1, 3, 0.3), mu))
        c = compute_C(ResonantFamily(1, 3, 0.3)).C
        assert abs(rep.trace - 4.0) <= 2.0 * abs(c) * mu


class TestExtrapolation:
    def test_invalid_mu_recorded(self):
        (res,) = verify_families([ResonantFamily(1, 3, 0.3)], (2e-3, 1e-4))
        assert isinstance(res.errors[0], ValidationError)

    def test_both_families_match_quadrature(self):
        families = canonical_families(1, 3, 0.3)
        r1, r2 = verify_families(families)
        for f, res in zip(families, (r1, r2)):
            c_quad = compute_C(f).C
            assert res.C == pytest.approx(c_quad, rel=0.01)
            assert len(res.estimates) == 4
        # opposite signs of the two families
        assert r1.C * r2.C < 0.0

    def test_repeated_mu_is_not_fitted(self):
        # one distinct mu cannot separate C from the sqrt(mu) slope
        (res,) = verify_families([ResonantFamily(1, 3, 0.3)], (1e-4, 1e-4))
        assert res.errors == (None, None)
        assert res.estimates[0] == res.estimates[1]
        assert res.C is None and res.sqrt_mu_slope is None and res.fit_residual is None
