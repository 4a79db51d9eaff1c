"""Full-problem verifier tests: vector field and variational block, the
same field's mu-predictor rows, Newton multiple shooting for the symmetric
resonant orbits (defects, the segments' Phi product, the guard) and its
stopping rules, the half-period monodromy against a full-period
integration, monodromy structure, and the mu -> 0 extrapolation of
(tr M - 4)/mu against the quadrature."""

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

    def test_hamiltonian_at_the_large_primary(self):
        mu = 1e-3
        with pytest.raises(CollisionError, match="^state at a primary$"):
            rtbp_hamiltonian(np.array([0.0, 0.0, -mu, 0.0]), mu)


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

    @pytest.mark.parametrize("width", [20, 24])
    def test_row_alone_equals_row_in_a_wide_batch(self, width):
        # every operation is elementwise, so a row's bits do not depend on
        # the 127 rows around it (20-wide rows at mixed mu, 24-wide at 0)
        rows = np.array(_away_from_primaries(np.random.default_rng(11), 128))[:, :width]
        mus = [0.0] * 128 if width == 24 else [(0.0, 1e-5, 1e-4, 1e-3)[k % 4] for k in range(128)]
        batch = _variational_rhs(rows, mus)
        for k in range(128):
            assert np.array_equal(_variational_rhs(rows[k:k + 1], mus[k:k + 1])[0], batch[k])

    @pytest.mark.parametrize("width", [20, 24])
    @pytest.mark.parametrize("n_rows", [1, 12, 13, 128])
    def test_mu_as_list_or_array(self, width, n_rows):
        # the integrator passes its params column, a float array, as it is;
        # on floats (up to 12 rows) and over arrays the bits are the list's
        rows = np.array(_away_from_primaries(np.random.default_rng(13), n_rows))[:, :width]
        mus = [0.0 if width == 24 else (0.0, 1e-5, 1e-4, 1e-3)[k % 4] for k in range(n_rows)]
        got = _variational_rhs(rows, np.array(mus))
        assert got.tobytes() == _variational_rhs(rows, mus).tobytes()

    @pytest.mark.parametrize("x", [-1e-3, 1.0 - 1e-3])
    def test_collision_at_either_primary(self, x):
        z = np.concatenate([[0.0, 0.0, x, 0.0], np.eye(4).ravel()])
        for rows in (1, 16):  # on floats, and over arrays
            others = np.reshape(_away_from_primaries(np.random.default_rng(1), rows - 1), (-1, 24))
            with pytest.raises(CollisionError):
                _variational_rhs(np.vstack([others[:, :20], z]), [1e-3] * rows)


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
        for rows in (1, 16):  # on floats, and over arrays
            others = np.reshape(_away_from_primaries(np.random.default_rng(1), rows - 1), (-1, 24))
            Z = np.vstack([others, z])
            # the mu = 0 field is regular there; its mu derivative is not
            assert np.all(np.isfinite(_variational_rhs(Z[:, :20], [0.0] * rows)))
            with pytest.raises(CollisionError):
                _variational_rhs(Z, [0.0] * rows)

    def test_rows_with_w_take_mu_zero_only(self):
        # df/dmu is written out at mu = 0
        (z,) = _away_from_primaries(np.random.default_rng(3), 1)
        with pytest.raises(ValueError):
            _variational_rhs(z[None], [1e-5])


K = verifier._SEGMENTS


def _newton_flows(monkeypatch):
    """(start rows, end rows) of every Newton integration, the predictor's
    (whose start rows carry w) left out."""
    calls = []
    flow = verifier._flow

    def spy(s0, t_end, mus):
        sol = flow(s0, t_end, mus)
        if s0.shape[1] == 4:
            calls.append((s0, sol.y))
        return sol

    monkeypatch.setattr(verifier, "_flow", spy)
    return calls


def _residuals(s0, y):
    """max(|y|, |p_x|)(T/2) and the largest defect of one orbit's rows."""
    ends = y[:, :4]
    return max(abs(ends[-1, 3]), abs(ends[-1, 0])), np.max(np.abs(ends[:-1] - s0[1:]), initial=0.0)


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
        # measured end residuals 1.2e-6 vs 1.2e-8 and 8.0e-7 vs 7.9e-9, and
        # defects 2.3e-5 vs 2.3e-7 and 4.7e-6 vs 4.7e-8; the bare seed and
        # Kepler starts give first-order ones (defects 1.0e-3 vs 1.0e-4)
        calls = _newton_flows(monkeypatch)
        verifier._shoot([(family, 1e-4), (family, 1e-5)], verifier.CORRECTOR_TOL)
        s0, ends = calls[0]
        assert len(s0) == 2 * K
        (end4, def4), (end5, def5) = (_residuals(s0[j:j + K], ends[j:j + K]) for j in (0, K))
        assert end4 >= 50.0 * end5 and def4 >= 50.0 * def5

    def test_kepler_starts_lie_on_the_mu_zero_orbit(self):
        # the closed-form segment starts against one integration at mu = 0
        # (measured 2.1e-11)
        for f in canonical_families(1, 3, 0.3) + canonical_families(2, 3, 0.4, "retrograde"):
            G0, x0, Th, starts = verifier._seed(f)
            sol = _integrate([0.0, G0 / x0, x0, 0.0], Th, 0.0, tol=1e-13)
            for k, z in enumerate(starts, start=1):
                assert np.max(np.abs(sol.sol(k * Th / K) - z)) <= 1e-10

    def test_at_most_three_integrations_per_orbit(self, monkeypatch):
        calls = _count_integrations(monkeypatch)
        for res in verify_families(canonical_families(1, 3, 0.3)):
            assert res.errors == (None,) * 4
        # K mu = 0 rows with w per family; every segment of every live orbit
        # is in each Newton batch once
        assert calls[0] == ("_variational_rhs", (2 * K, 24))
        assert calls[1] == ("_variational_rhs", (8 * K, 20))
        assert all(name == "_variational_rhs" and shape[1] == 20 and shape[0] % K == 0
                   for name, shape in calls[1:])
        assert len(calls) - 1 <= 3

    def test_failed_predictor_starts_from_the_bare_seed(self, monkeypatch):
        f = ResonantFamily(1, 3, 0.3)
        calls = _newton_flows(monkeypatch)

        def fail_with_w(Z, mus):
            if Z.shape[1] == 24:
                raise CollisionError("trajectory reached a primary")
            return _variational_rhs(Z, mus)

        monkeypatch.setattr(verifier, "_variational_rhs", fail_with_w)
        o = refine_periodic_orbit(f, MU)
        G0, x0, Th, starts = verifier._seed(f)
        first = calls[0][0]
        assert np.array_equal(first[0], [0.0, G0 / x0, x0, 0.0])
        assert np.array_equal(first[1:], starts)
        assert max(o.residual_y, o.residual_px) <= verifier.CORRECTOR_TOL


class TestMultipleShooting:
    @pytest.mark.parametrize("family", canonical_families(1, 3, 0.3), ids=["n_l=0", "n_l=1"])
    def test_converged_iterate_closes_every_defect(self, monkeypatch, family):
        calls = _newton_flows(monkeypatch)
        o = refine_periodic_orbit(family, 1e-4)
        s0, ends = calls[-1]
        assert len(s0) == K
        end, defect = _residuals(s0, ends)
        assert end <= verifier.CORRECTOR_TOL and defect <= verifier.CORRECTOR_TOL
        assert np.array_equal(s0[0], o.initial_state.as_array())

    @pytest.mark.parametrize("family", canonical_families(1, 3, 0.3), ids=["n_l=0", "n_l=1"])
    def test_stm_product_matches_one_integration(self, family):
        # Phi_K ... Phi_1 against Phi(T/2) of one unsegmented integration from
        # the converged start (measured 3.4e-12 relative)
        o = refine_periodic_orbit(family, 1e-4)
        sol = verifier._flow(o.initial_state.as_array()[None], [o.period / 2], [o.mu])
        phi = sol.y[0, 4:].reshape(4, 4)
        assert np.max(np.abs(o.half_period_stm - phi)) <= 1e-10 * np.max(np.abs(phi))

    def test_orbit_alone_equals_orbit_in_a_request_batch(self):
        batch = [(f, mu) for f in canonical_families(1, 3, 0.3) + canonical_families(2, 3, 0.4)
                 for mu in (1e-4, 3e-6)]
        for o, (f, mu) in zip(verifier._shoot(batch, verifier.CORRECTOR_TOL), batch):
            alone = refine_periodic_orbit(f, mu)
            assert o == alone
            assert np.array_equal(o.half_period_stm, alone.half_period_stm)

    def test_guard_restarts_a_nonlinear_orbit_as_one_segment(self, monkeypatch):
        # 10:9 retrograde e=0.07798 family 2 at mu = 1e-4 (|C| mu ~ 6): the
        # segmented step leaves a residual above the guard, and the orbit
        # converges as one segment from its predictor start
        f = canonical_families(10, 9, 0.07798046698579171, "retrograde")[1]
        calls = _newton_flows(monkeypatch)
        o = refine_periodic_orbit(f, 1e-4)
        widths = [len(s0) for s0, _ in calls]
        j = widths.index(1)
        assert j >= 2 and set(widths[:j]) == {K} and set(widths[j:]) == {1}
        assert max(_residuals(*calls[j - 1])) > verifier._SEGMENT_GUARD
        assert max(o.residual_y, o.residual_px) <= verifier.CORRECTOR_TOL


class TestNewtonStep:
    """`_step`'s guards, called directly on the 1:3 e=0.3 seed orbit."""

    @staticmethod
    def _orbit():
        f = ResonantFamily(1, 3, 0.3)
        return verifier._Orbit(0, f, MU, *verifier._seed(f))

    @staticmethod
    def _with_end_block(block):
        """A carry whose X_K has the (y, p_x) block `block` and zeros elsewhere."""
        X = np.zeros((K, 4, 3))
        X[-1, verifier._TARGETS, :2] = block
        return X

    def test_singular_jacobian(self):
        o = self._orbit()
        err = verifier._step(o, np.zeros((K, 4, 3)), np.zeros(2))
        assert type(err) is ConvergenceError and str(err) == "singular shooting Jacobian"

    def test_step_of_more_than_half_x0_diverges_and_leaves_the_orbit(self):
        o = self._orbit()
        x0, Th, S = o.x0, o.Th, o.S.copy()
        err = verifier._step(o, self._with_end_block(np.eye(2)), np.array([-x0, 0.0]))
        assert type(err) is ConvergenceError
        assert str(err) == f"Newton correction diverged for {o.f} at mu={MU}"
        assert o.x0.hex() == x0.hex() and o.Th.hex() == Th.hex()
        assert np.array_equal(o.S, S)

    def test_small_step_moves_the_orbit(self):
        o = self._orbit()
        x0, Th = o.x0, o.Th
        err = verifier._step(o, self._with_end_block(np.eye(2)), np.array([-0.1 * x0, 0.0]))
        assert err is None
        assert o.x0 == pytest.approx(1.1 * x0, rel=1e-15)
        assert o.Th == Th


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
        # 1e-10 of noise on every end state puts a floor above the default
        # tol under the residual: each orbit stops three integrations after
        # its best residual, well inside the 25-integration cap (measured: 6
        # integrations)
        f = canonical_families(1, 3, 0.3)[0]
        rng = np.random.default_rng(2)
        flow = verifier._flow

        def noisy(s0, t_end, mus):
            sol = flow(s0, t_end, mus)
            if s0.shape[1] == 4:
                sol.y[:, :4] += rng.uniform(-1e-10, 1e-10, (len(s0), 4))
            return sol

        monkeypatch.setattr(verifier, "_flow", noisy)
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

    def test_failed_newton_row_is_its_orbits_result(self, monkeypatch):
        # the 3e-5 orbit's Newton rows collide; the 1e-4 orbit of the same
        # batch is the orbit it is alone
        f = ResonantFamily(1, 3, 0.3)
        alone = refine_periodic_orbit(f, 1e-4)
        collision = CollisionError("trajectory reached a primary")

        def collide(Z, mus):
            if Z.shape[1] == 20 and np.any(np.asarray(mus) == 3e-5):
                raise collision
            return _variational_rhs(Z, mus)

        monkeypatch.setattr(verifier, "_variational_rhs", collide)
        o, err = verifier._shoot([(f, 1e-4), (f, 3e-5)], verifier.CORRECTOR_TOL)
        assert err is collision
        assert o == alone
        assert np.array_equal(o.half_period_stm, alone.half_period_stm)

    def test_iteration_cap_reported(self, monkeypatch):
        monkeypatch.setattr(verifier, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match=r"^shooting did not converge to tol="):
            refine_periodic_orbit(ResonantFamily(1, 3, 0.3), MU)


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
        # one distinct mu cannot separate C from the mu slope
        (res,) = verify_families([ResonantFamily(1, 3, 0.3)], (1e-4, 1e-4))
        assert res.errors == (None, None)
        assert res.estimates[0] == res.estimates[1]
        assert res.C is None and res.mu_slope is None and res.fit_residual is None

    @pytest.mark.parametrize("C,b", [(39.2, -4.2e3), (-19.3, 6.1e2), (-4.1e5, 1.4e10)])
    def test_exact_linear_estimates_give_back_C(self, C, b):
        # tr M - 4 is analytic in mu, so C + b*mu is the model of the fit
        mus = verifier.DEFAULT_MU_LIST
        res = verifier._fit(mus, [C + b * mu for mu in mus], [None] * len(mus))
        assert res.C == pytest.approx(C, rel=1e-12, abs=1e-12 * abs(b) * max(mus))
        assert res.mu_slope == pytest.approx(b, rel=1e-9)
        assert res.fit_residual <= 1e-12 * max(abs(C), abs(b) * max(mus))
