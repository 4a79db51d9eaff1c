"""The batched DOP853 integrator against scipy's: the copied tableau, per-row
evaluation and step counts and final states, alone and in one batch, and
batches in which one row fails without moving the others."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from rtbp_resonance import dop853, verifier
from rtbp_resonance.errors import CollisionError, ConvergenceError, RtbpError, ValidationError
from rtbp_resonance.perturbation import canonical_families
from rtbp_resonance.verifier import DEFAULT_MU_LIST, _variational_rhs

TOL = 1e-12  # the verifier's integrator tolerance


def test_tableau_is_scipys():
    n = dop853_coefficients.N_STAGES
    assert dop853.N_STAGES == n
    pairs = [
        (dop853.A[:n], dop853_coefficients.A[:n, :n]),
        (dop853.B, dop853_coefficients.B),
        (dop853.E3, dop853_coefficients.E3),
        (dop853.E5, dop853_coefficients.E5),
    ]
    for ours, theirs in pairs:
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


def _first_iterates():
    """(z0, T/2, mu) of the first Newton integration of each 1:3 e=0.3 orbit
    at the default mu: both families, eight rows."""
    rows = []
    for f in canonical_families(1, 3, 0.3):
        G0, x0, Th = verifier._seed(f)
        z0 = np.concatenate([[0.0, G0 / x0, x0, 0.0], np.eye(4).ravel()])
        rows += [(z0, Th, mu) for mu in DEFAULT_MU_LIST]
    return rows


ROWS = _first_iterates()


def _ours(rows):
    return dop853.solve_ivp(
        _variational_rhs, [r[1] for r in rows], [r[0] for r in rows], [r[2] for r in rows],
        tol=TOL,
    )


def _scipy(z0, t_end, mu):
    """The parent's integration: scipy's DOP853 on the same field; a raised
    RtbpError is returned."""
    try:
        return scipy_solve_ivp(
            lambda _, z: _variational_rhs(z[None], [mu])[0], (0.0, t_end), z0,
            method="DOP853", rtol=TOL, atol=TOL,
        )
    except RtbpError as exc:
        return exc


@pytest.fixture(scope="module")
def scipy_rows():
    return [_scipy(*row) for row in ROWS]


@pytest.fixture(scope="module")
def solo_rows():
    return [_ours([row]) for row in ROWS]


def _assert_matches_scipy(sol, k, ref):
    assert sol.errors[k] is None
    assert sol.row_nfev[k] == ref.nfev
    assert sol.row_steps[k] == ref.t.size - 1
    z = ref.y[:, -1]
    assert np.all(np.abs(sol.y[k] - z) <= TOL * np.maximum(1.0, np.abs(z)))


def test_solo_rows_match_scipy(scipy_rows, solo_rows):
    for sol, ref in zip(solo_rows, scipy_rows):
        _assert_matches_scipy(sol, 0, ref)
        assert sol.nfev == ref.nfev and sol.t.size == ref.t.size


def test_batch_rows_match_scipy_and_solo(scipy_rows, solo_rows):
    sol = _ours(ROWS)
    for k, (ref, solo) in enumerate(zip(scipy_rows, solo_rows)):
        _assert_matches_scipy(sol, k, ref)
        assert np.array_equal(sol.y[k], solo.y[0])
    # The tracer's counts: evaluations and accepted steps summed over rows.
    assert sol.nfev == sum(ref.nfev for ref in scipy_rows)
    assert sol.t.size - 1 == sum(ref.t.size - 1 for ref in scipy_rows)


def test_colliding_row_fails_alone(solo_rows):
    # At rest in the inertial frame, the particle falls radially onto the
    # large primary within the interval.
    fall = (np.concatenate([[0.0, 0.0, 0.5, 0.0], np.eye(4).ravel()]), 1.0, 1e-4)
    ref = _scipy(*fall)
    assert isinstance(ref, CollisionError)
    sol = _ours(ROWS[:3] + [fall] + ROWS[3:])
    assert type(sol.errors[3]) is type(ref) and str(sol.errors[3]) == str(ref)
    assert np.all(np.isnan(sol.y[3]))
    for k, solo in zip([0, 1, 2, 4, 5, 6, 7, 8], solo_rows):
        assert sol.errors[k] is None
        assert np.array_equal(sol.y[k], solo.y[0])
        assert sol.row_nfev[k] == solo.row_nfev[0] and sol.row_steps[k] == solo.row_steps[0]


def _toy_field(y, params):
    """u' = a*u + b*u^2, v' = u, w' = -v, x' = w per row, params (a, b, wall);
    a row with u beyond its wall raises."""
    out = []
    for (u, v, w, _), (a, b, wall) in zip(y.tolist(), params):
        if u > wall:
            raise CollisionError("trajectory reached a primary")
        out.append([a * u + b * u * u, u, -v, w])
    return np.array(out)


def test_step_control_edge_cases():
    """Backward, zero-length, blow-up and failing rows in one batch against
    scipy, each row alone."""
    inf = math.inf
    rows = [
        ((1.0, 0.0, 0.0, 0.0), 3.0, (-1.0, 0.0, inf)),
        ((1.0, 0.0, 0.0, 0.0), 2.0, (0.0, 1.0, inf)),  # u = 1/(1 - t) blows up at t = 1
        ((1.0, 0.5, 0.0, 0.0), -2.0, (-1.0, 0.0, inf)),
        ((2.0, 0.0, 0.0, 0.0), 0.0, (1.0, 0.0, inf)),
        ((1.4, 0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 1.402)),  # the initial step probe crosses the wall
        ((0.0, 0.0, 0.0, 0.0), 1.0, (0.0, 0.0, inf)),
        ((1.0, 0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 2.0)),  # u = e^t reaches the wall mid-interval
    ]
    sol = dop853.solve_ivp(
        _toy_field, [r[1] for r in rows], [r[0] for r in rows], [r[2] for r in rows],
        tol=TOL,
    )
    for k, (y0, t_end, params) in enumerate(rows):
        if t_end == 0.0:
            assert sol.errors[k] is None and sol.row_steps[k] == 0
            assert np.array_equal(sol.y[k], y0)
            continue
        try:
            ref = scipy_solve_ivp(
                lambda _, z: _toy_field(z[None], [params])[0], (0.0, t_end), np.array(y0),
                method="DOP853", rtol=TOL, atol=TOL,
            )
        except CollisionError as exc:
            assert type(sol.errors[k]) is CollisionError and str(sol.errors[k]) == str(exc)
            assert np.all(np.isnan(sol.y[k]))
            continue
        assert sol.row_nfev[k] == ref.nfev
        assert sol.row_steps[k] == ref.t.size - 1
        if ref.success:
            assert sol.errors[k] is None
            assert np.array_equal(sol.y[k], ref.y[:, -1])
        else:
            assert isinstance(sol.errors[k], ConvergenceError)
            assert str(sol.errors[k]) == f"integration failed: {ref.message}"
    assert sol.row_nfev[4] == 2  # f(y0), then the probe of the initial step


class TestLockstepCorrector:
    """Every (family, mu) orbit of one request in one Newton iteration."""

    # A row whose Newton correction fails the divergence guard.
    DIVERGING = (canonical_families(1, 4, 0.9)[0], 1e-3)

    def test_failing_rows_leave_the_others_unchanged(self):
        orbits = [(f, mu) for f in canonical_families(1, 3, 0.3) for mu in (1e-4, 3e-5)]
        batch = orbits[:1] + [self.DIVERGING] + orbits[1:] + [(orbits[0][0], 0.1)]
        got = verifier._shoot(batch, verifier.CORRECTOR_TOL)
        f, mu = self.DIVERGING
        assert type(got[1]) is ConvergenceError
        assert str(got[1]) == f"Newton correction diverged for {f} at mu={mu}"
        assert type(got[-1]) is ValidationError
        assert str(got[-1]) == "mu must be in (0, 1e-3], got 0.1"
        for o, row in zip(got[:1] + got[2:-1], orbits):
            alone = verifier.refine_periodic_orbit(*row)
            assert o == alone
            assert np.array_equal(o.half_period_stm, alone.half_period_stm)

    def test_one_result_per_family(self):
        families = canonical_families(1, 3, 0.3)
        results = verifier.verify_families(families, (1e-4, 3e-5))
        assert [r.mu_list for r in results] == [(1e-4, 3e-5)] * 2
        for f, res in zip(families, results):
            alone = [verifier.monodromy(verifier.refine_periodic_orbit(f, mu)).C_estimate
                     for mu in (1e-4, 3e-5)]
            assert list(res.estimates) == alone
