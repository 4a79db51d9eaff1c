"""The batched DOP853 integrator against scipy's: the copied tableau, per-row
evaluation and step counts and final states bit for bit, alone and in one
batch, the field at each row's end from the last stage, and batches in
which one row fails (a collision, a too small step, the work budget)
without moving the others."""

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
# The evaluations of one step: the stages after the first, and the end.
N_STEP = dop853.N_STAGES


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
        G0, x0, Th, _ = verifier._seed(f)
        z0 = np.concatenate([[0.0, G0 / x0, x0, 0.0], np.eye(4).ravel()])
        rows += [(z0, Th, mu) for mu in DEFAULT_MU_LIST]
    return rows


ROWS = _first_iterates()


def _ours(rows, fun=_variational_rhs):
    """Our batch of (y0, t_end, params) rows."""
    return dop853.solve_ivp(
        fun, [r[1] for r in rows], [r[0] for r in rows], [r[2] for r in rows], tol=TOL,
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
    assert np.array_equal(sol.y[k], ref.y[:, -1])


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


# At rest in the inertial frame, the particle falls radially onto the large
# primary within the interval.
FALL = (np.concatenate([[0.0, 0.0, 0.5, 0.0], np.eye(4).ravel()]), 1.0, 1e-4)


def _segment_rows():
    """(z0, (T/2)/K, mu) of the first Newton integration's segment rows of
    both families of four requests at mu = 1e-4 and 3e-6: 256 rows."""
    orbits = [
        (f, mu)
        for p, q, e, d in ((1, 3, 0.3, "direct"), (2, 5, 0.45, "retrograde"),
                           (3, 2, 0.29, "direct"), (1, 7, 0.47, "direct"))
        for f in canonical_families(p, q, e, d) for mu in (1e-4, 3e-6)
    ]
    rows = []

    class Stop(Exception):
        pass

    def capture(fun, t_end, y0, params, tol):
        if y0.shape[1] == 24:  # the predictor's integration
            return dop853.solve_ivp(fun, t_end, y0, params, tol)
        rows.extend(zip(y0, t_end, params))
        raise Stop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "solve_ivp", capture)
        with pytest.raises(Stop):
            verifier._shoot(orbits, verifier.CORRECTOR_TOL)
    return rows


@pytest.fixture(scope="module")
def segment_rows():
    rows = _segment_rows()
    assert len(rows) == 256
    return rows


@pytest.fixture(scope="module")
def segment_refs(segment_rows):
    return [_scipy(*row) for row in segment_rows]


def test_segment_batch_matches_scipy_bit_for_bit(segment_rows, segment_refs):
    """A wide batch whose rows finish at different steps, down to its last
    row."""
    sol = _ours(segment_rows)
    for k, ref in enumerate(segment_refs):
        _assert_matches_scipy(sol, k, ref)


def test_end_field_is_the_last_stage(segment_rows):
    """f[i] is the field at y[i] to the bit, in a 128-row batch and for
    each row alone, and NaN for a failed row."""
    rows = segment_rows[:127] + [FALL]
    mus = [r[2] for r in rows]
    batch = _ours(rows)
    for sols in ([(batch, k) for k in range(len(rows))], [(_ours([row]), 0) for row in rows]):
        for (sol, k), mu in zip(sols, mus):
            if sol.errors[k] is None:
                assert np.array_equal(sol.f[k], _variational_rhs(sol.y[k:k + 1], [mu])[0])
            else:
                assert np.all(np.isnan(sol.f[k]))
        assert sum(sol.errors[k] is not None for sol, k in sols) == 1


def test_colliding_row_fails_alone(solo_rows):
    """The falling row collides after some accepted steps; the other rows
    keep their solo bits."""
    ref = _scipy(*FALL)
    assert isinstance(ref, CollisionError)
    sol = _ours(ROWS[:3] + [FALL] + ROWS[3:])
    assert type(sol.errors[3]) is type(ref) and str(sol.errors[3]) == str(ref)
    assert np.all(np.isnan(sol.y[3]))
    assert sol.row_steps[3] > 0
    for k, solo in zip([0, 1, 2, 4, 5, 6, 7, 8], solo_rows):
        assert sol.errors[k] is None
        assert np.array_equal(sol.y[k], solo.y[0])
        assert sol.row_nfev[k] == solo.row_nfev[0] and sol.row_steps[k] == solo.row_steps[0]


def test_batch_totals_are_row_sums(segment_rows):
    """What the benchmark's tracer reads: nfev is the evaluations and
    t.size - 1 the accepted steps summed over rows, failed rows included."""
    sol = _ours(segment_rows[:40] + [FALL])
    assert sol.errors[-1] is not None
    assert sol.nfev == sol.row_nfev.sum()
    assert sol.t.size - 1 == sol.row_steps.sum()
    assert sol.t[0] == 0.0 and np.all(sol.t[1:] > 0.0)


@pytest.mark.parametrize("width", [20, 24])
def test_stacked_row_dots_are_blas_dots(width):
    """The step control's row norms: the stacked matmul gives each row's
    x.dot(x), and its squared norms np.linalg.norm(x) ** 2, bit for bit,
    over magnitudes 1e-8 to 1e8."""
    rng = np.random.default_rng(width)
    x = rng.standard_normal((4000, width)) * 10.0 ** rng.uniform(-8, 8, (4000, 1))
    x[::7] *= 10.0 ** rng.uniform(-8, 8, (len(x[::7]), width))  # mixed magnitudes in a row
    assert np.array_equal(dop853._dots(x), [r.dot(r) for r in x])
    assert dop853._squared_norms(x) == [np.linalg.norm(r) ** 2 for r in x]


def _toy_field(y, params):
    """u' = a*u + b*u^2, v' = u (plus jump once u > kink), w' = -v, x' = w
    per row, params (a, b, wall, kink, jump); a row with u beyond its wall
    raises."""
    out = []
    for (u, v, w, _), (a, b, wall, kink, jump) in zip(y.tolist(), params):
        if u > wall:
            raise CollisionError("trajectory reached a primary")
        out.append([a * u + b * u * u, u + jump if u > kink else u, -v, w])
    return np.array(out)


def _toy_scipy(y0, t_end, params):
    """scipy's DOP853 on one toy row; a raised CollisionError is returned."""
    try:
        return scipy_solve_ivp(
            lambda _, z: _toy_field(z[None], [params])[0], (0.0, t_end), np.array(y0),
            method="DOP853", rtol=TOL, atol=TOL,
        )
    except CollisionError as exc:
        return exc


INF = math.inf
DECAY = ((1.0, 0.0, 0.0, 0.0), 3.0, (-1.0, 0.0, INF, INF, 0.0))
# The field jumps where u = e^t passes 1.5, so steps across it are rejected.
KINK = ((1.0, 0.0, 0.0, 0.0), 1.0, (1.0, 0.0, INF, 1.5, 1.0))
# The field vanishes at a non-zero state: every error estimate is exactly 0
# and each step is MAX_FACTOR times the last.
STILL = ((0.0, 0.0, 0.0, 1.0), 1.0, (0.0, 0.0, INF, INF, 0.0))


def test_step_control_edge_cases():
    """Blow-up, failing, rejected and zero-error rows in one batch against
    scipy, each row alone."""
    rows = [
        DECAY,
        # u = 1/(1 - t) blows up at t = 1
        ((1.0, 0.0, 0.0, 0.0), 2.0, (0.0, 1.0, INF, INF, 0.0)),
        # the initial step probe crosses the wall
        ((1.4, 0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 1.402, INF, 0.0)),
        ((0.0, 0.0, 0.0, 0.0), 1.0, (0.0, 0.0, INF, INF, 0.0)),
        # u = e^t reaches the wall mid-interval
        ((1.0, 0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 2.0, INF, 0.0)),
        KINK,
        STILL,
        # The field is NaN past u = 1.5 and raises nothing: NaN error norms,
        # rejected steps, then a too small step.
        ((1.0, 0.0, 0.0, 0.0), 1.0, (1.0, 0.0, INF, 1.5, math.nan)),
    ]
    refs = [_toy_scipy(*row) for row in rows]
    kink, still, nan = refs[5:]
    for ref in (kink, nan):
        assert (ref.nfev - 2) // N_STEP > ref.t.size - 1 > 0  # rejected steps
    assert not nan.success
    assert np.allclose(np.diff(still.t)[1:-1] / np.diff(still.t)[:-2], dop853.MAX_FACTOR)
    sol = _ours(rows, _toy_field)
    for k, ref in enumerate(refs):
        if isinstance(ref, CollisionError):
            assert type(sol.errors[k]) is CollisionError and str(sol.errors[k]) == str(ref)
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
    assert sol.row_nfev[2] == 2  # f(y0), then the probe of the initial step


def test_row_over_the_budget_fails_alone(monkeypatch):
    """Under a small budget the kinked row fails with a ConvergenceError
    naming it, at the last call within it; the rows that finish first keep
    their solo bits and counts."""
    rows = [DECAY, KINK, STILL]
    solos = [_ours([row], _toy_field) for row in rows]
    budget = 400
    assert max(solos[0].nfev, solos[2].nfev) <= budget < solos[1].nfev
    monkeypatch.setattr(dop853, "MAX_ROW_EVALS", budget)
    sol = _ours(rows, _toy_field)
    err = sol.errors[1]
    assert type(err) is ConvergenceError and f"budget of {budget} evaluations" in str(err)
    assert budget - N_STEP < sol.row_nfev[1] <= budget
    assert np.all(np.isnan(sol.y[1])) and np.all(np.isnan(sol.f[1]))
    for k in (0, 2):
        assert sol.errors[k] is None
        assert np.array_equal(sol.y[k], solos[k].y[0]) and np.array_equal(sol.f[k], solos[k].f[0])
        assert sol.row_nfev[k] == solos[k].row_nfev[0]
        assert sol.row_steps[k] == solos[k].row_steps[0]


@pytest.mark.parametrize("t_end", [0.0, -2.0, math.nan])
def test_integrates_forward_only(t_end):
    y0 = [(1.0, 0.0, 0.0, 0.0)] * 2
    with pytest.raises(ValueError, match="forward only"):
        dop853.solve_ivp(_toy_field, [1.0, t_end], y0, [DECAY[2]] * 2, tol=TOL)


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

    def test_divergence_before_a_nonpositive_half_period(self, monkeypatch):
        # The step that would leave T/2 <= 0 is the divergence; no segment
        # is integrated backward or over zero length first.
        t_ends = []
        solve = verifier.solve_ivp

        def spy(fun, t_end, y0, params, tol):
            t_ends.extend(t_end)
            return solve(fun, t_end, y0, params, tol)

        monkeypatch.setattr(verifier, "solve_ivp", spy)
        f, mu = self.DIVERGING
        with pytest.raises(ConvergenceError) as exc:
            verifier.refine_periodic_orbit(f, mu)
        assert str(exc.value) == f"Newton correction diverged for {f} at mu={mu}"
        assert t_ends and min(t_ends) > 0.0

    def test_one_result_per_family(self):
        families = canonical_families(1, 3, 0.3)
        results = verifier.verify_families(families, (1e-4, 3e-5))
        assert [r.mu_list for r in results] == [(1e-4, 3e-5)] * 2
        for f, res in zip(families, results):
            alone = [verifier.monodromy(verifier.refine_periodic_orbit(f, mu)).C_estimate
                     for mu in (1e-4, 3e-5)]
            assert list(res.estimates) == alone
