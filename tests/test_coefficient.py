"""Quadrature tests for the stability coefficient: convergence, the C1/C2
split, equality of the three formulations, collision handling, scaling laws,
and eccentricity sweeps."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    compute_C_via_omega_gg,
    compute_C_via_omega_ll,
    exact_sum,
    min_delta1_brent,
    min_delta1_full,
    trapezoid_pair,
    trapezoid_pair_longdouble,
)
from rtbp_resonance import coefficient, kepler, perturbation
from rtbp_resonance.coefficient import compute_C, compute_Cs, min_delta1, sweep_e
from rtbp_resonance.errors import CollisionError, ConvergenceError
from rtbp_resonance.perturbation import (
    GridFamilies,
    ResonantFamily,
    canonical_families,
    delta1_at,
    track_arrays,
    track_integrand,
)


def _fit_slope(p, q, direction, which, e_grid=(0.003, 0.006, 0.012, 0.024)):
    vals = []
    for e in e_grid:
        f = canonical_families(p, q, e, direction)[which]
        vals.append(abs(compute_C(f, tol=1e-13).C))
    return np.polyfit(np.log(e_grid), np.log(vals), 1)[0]


class TestComputeC:
    def test_split_assembly(self):
        res = compute_C(ResonantFamily(1, 3, 0.3), tol=1e-10)
        assert res.C == pytest.approx(-6.0 * math.pi * (res.C1 + res.C2), rel=1e-12)
        assert res.err_estimate < 1e-10
        assert res.min_delta1 > 0.0

    def test_spectral_convergence(self):
        f = ResonantFamily(2, 7, 0.4)
        ref = sum(trapezoid_pair(f, 8192))
        errs = [abs(sum(trapezoid_pair(f, n)) - ref) for n in (256, 512, 1024)]
        for a, b in zip(errs, errs[1:]):
            if a < 1e-14:
                break
            assert b <= a / 4.0

    def test_vanishes_with_eccentricity(self):
        # C = O(e^2) for the 1:3 resonance.
        c_small = compute_C(ResonantFamily(1, 3, 1e-3), tol=1e-13).C
        c_mid = compute_C(ResonantFamily(1, 3, 1e-2), tol=1e-13).C
        assert abs(c_small) < 1e-3
        assert abs(c_small) == pytest.approx(abs(c_mid) * 1e-2, rel=0.05)

    def test_c2_vanishes_unless_q_is_1(self):
        assert abs(compute_C(ResonantFamily(2, 3, 0.3), tol=1e-12).C2) <= 1e-12
        assert abs(compute_C(ResonantFamily(2, 1, 0.3), tol=1e-12).C2) > 1e-3

    def test_collision_guard(self):
        # 3:1 resonance: a = 3^(2/3); the conjunction at theta = 0 hits the
        # small primary when a(1 - e) = 1.
        e_star = 1.0 - 3.0 ** (-2.0 / 3.0)
        with pytest.raises(CollisionError):
            compute_C(ResonantFamily(3, 1, e_star))
        assert min_delta1(ResonantFamily(3, 1, e_star)) < 1e-6

    def test_node_cap(self):
        with pytest.raises(ConvergenceError):
            compute_C(ResonantFamily(1, 3, 0.3), tol=0.0)

    @pytest.mark.parametrize("e", [0.55, 0.58])
    def test_grazing_track_converges(self, e):
        # 1:2 family 2 grazes the small primary (min Delta1 ~ 5e-3 at 0.58):
        # |C1 + C2| ~ 1e4, so an absolute 1e-10 sits below roundoff.
        f = canonical_families(1, 2, e)[1]
        ref = -6.0 * math.pi * sum(trapezoid_pair(f, 2**15))
        assert compute_C(f).C == pytest.approx(ref, rel=1e-9)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 2.0**-60, reason="long double is not extended precision"
    )
    def test_grazing_track_within_tol_of_extended_precision(self):
        # 6:7 retrograde family 2 passes at Delta1 = 7.4e-3, where the float
        # phases' roundoff put C 1.1e-9 off on C1 + C2 (|C1 + C2| = 0.084,
        # so tol is absolute); the long double sums at 2^17 and 2^18 nodes
        # agree to 2e-12 on C.
        f = canonical_families(6, 7, 0.1, "retrograde")[1]
        tol = 1e-10
        ref = -6.0 * math.pi * 36 * sum(trapezoid_pair_longdouble(f, 2**17))
        assert abs(compute_C(f, tol).C - ref) <= 6.0 * math.pi * 36 * tol

    def test_early_stop_needs_two_contractions(self):
        # 7:15 retrograde family 2 has C1 + C2 ~ 1e-19 (long double sums);
        # with only the last contraction ratio checked, the predicted-error
        # rule stops it at 256 nodes at C1 + C2 = 0.24, 2e9 times tol off.
        f = canonical_families(7, 15, 0.11, "retrograde")[1]
        assert compute_C(f).nodes > 256

    def test_each_node_evaluated_once(self, monkeypatch):
        nodes = []
        integrand = coefficient.track_integrand

        def recorded(families, i, n):
            nodes.append(np.ravel(i / n))  # node F_c + i*pi/n at u*pi past F_c
            return integrand(families, i, n)

        monkeypatch.setattr(coefficient, "track_integrand", recorded)
        res = compute_C(ResonantFamily(2, 7, 0.4))
        # the n-node grid is summed over the n/2 + 1 nodes u = 2j/n of half a
        # period, each evaluated once, whatever the order of the calls
        u = np.sort(np.concatenate(nodes))
        assert np.array_equal(u, np.arange(res.nodes // 2 + 1) * (2.0 / res.nodes))

    def test_first_levels_take_one_call(self, monkeypatch):
        # Levels 64 ... 512 come from one integrand call: a family that stops
        # at 512 nodes makes exactly one.
        calls = []
        integrand = coefficient.track_integrand

        def counted(families, i, n):
            calls.append(n)
            return integrand(families, i, n)

        monkeypatch.setattr(coefficient, "track_integrand", counted)
        for f in canonical_families(2, 7, 0.3):
            calls.clear()
            assert compute_C(f).nodes == 512
            assert calls == [512]

    def test_chunked_levels_are_bit_identical(self, monkeypatch):
        # A grazing family that converges at 131,072 nodes: summed 64
        # midpoints at a time, every field is the same as in full chunks,
        # alone and in a 2-family batch (one family a call: at _CHUNK = 64 a
        # call holds at most _CHUNK // _N_START = 1).  Three families in calls
        # of 2 nodes, one family a call.
        f = canonical_families(5, 7, 0.55, "retrograde")[0]
        pair = [f, f.sibling()]
        smooth = [ResonantFamily(1, 3, 0.3), ResonantFamily(2, 7, 0.4), ResonantFamily(3, 1, 0.2)]
        res, batch, small = compute_C(f), compute_Cs(pair), compute_Cs(smooth)
        assert res.nodes >= 2**17
        monkeypatch.setattr(coefficient, "_CHUNK", 64)
        assert compute_C(f) == res
        assert compute_Cs(pair) == batch
        monkeypatch.setattr(coefficient, "_CHUNK", 2)
        assert compute_Cs(smooth) == small

    @pytest.mark.parametrize(
        "family",
        [ResonantFamily(2, 7, 0.4), ResonantFamily(2, 1, 0.3)],
        ids=["2:7 direct", "2:1 direct"],
    )
    def test_nested_grid_matches_uniform_grid(self, family):
        # The midpoints (2k+1)*pi/n must be the odd nodes of the 2n-node grid.
        # The half-period sum takes node n - j as the mirror image of node j,
        # so it may differ from the uniform grid's by h * sum |w[n-j] - w[j]|,
        # the roundoff asymmetry of those node values.  That bound holds C2 of
        # 2:7 (an exact zero, summed to roundoff); 1e-13 relative holds the rest.
        res = compute_C(family)
        n = res.nodes
        h = 2.0 * math.pi / n
        values = track_integrand(family, np.arange(n) * h)
        for got, ref, w in zip((res.C1, res.C2), trapezoid_pair(family, n), values):
            asymmetry = h * math.fsum(np.abs(w[1 : n // 2] - w[: n // 2 : -1]))
            assert abs(got - ref) <= max(1e-13 * abs(ref), asymmetry)

    @pytest.mark.parametrize(
        "family",
        [
            ResonantFamily(1, 3, 0.3, n_l=1),
            ResonantFamily(3, 7, 0.3, n_l=1),
            ResonantFamily(1, 3, 0.5, n_l=1, direction="retrograde"),
        ],
        ids=["1:3 direct", "3:7 direct", "1:3 retrograde"],
    )
    def test_shifted_family_matches_shifted_grid(self, family):
        # An n_l = 1 family is even about F_c = pi/q, so its grid is the
        # uniform one shifted by pi/q, off the unshifted nodes for q = 3, 7.
        res = compute_C(family)
        ref = sum(trapezoid_pair(family, res.nodes, shift=math.pi / family.q))
        assert abs((res.C1 + res.C2) - ref) <= 1e-13 * abs(ref)

    def test_retrograde_value_finite_and_smaller(self):
        res = compute_C(ResonantFamily(1, 2, 0.2, direction="retrograde"), tol=1e-12)
        assert res.C == pytest.approx(-1.0162052346731067, rel=1e-9)

    @pytest.mark.parametrize(
        "family",
        [
            ResonantFamily(2, 7, 0.4),
            ResonantFamily(1, 2, 0.2, direction="retrograde"),
            canonical_families(1, 2, 0.58)[1],
        ],
        ids=["2:7 direct", "1:2 retrograde", "1:2 family 2 grazing"],
    )
    def test_running_sum_matches_fsum_grid(self, family, monkeypatch):
        # Replay every level with fsum over the node values so far in F
        # order, weighted 1, 2, ..., 2, 1 over the half period, on the
        # integrand values compute_C itself receives, and replay the
        # stopping rule on the level values.
        calls = []
        integrand = coefficient.track_integrand

        def recorded(families, i, n):
            # node F_c + i*pi/n sits at u*pi past F_c; i/n is exact
            w = integrand(families, i, n)
            calls.append(tuple(np.ravel(x) for x in (i / n, *w)))
            return w

        monkeypatch.setattr(coefficient, "track_integrand", recorded)
        tol = 1e-10
        res = compute_C(family, tol)
        u, v1, v2 = (np.concatenate(x) for x in zip(*calls))
        assert u.size == res.nodes // 2 + 1
        levels, n = [], coefficient._N_START
        while n <= res.nodes:
            # the level's nodes u = 2j/n, picked by position
            on_level = np.flatnonzero(u * (n // 2) % 1.0 == 0.0)
            order = on_level[np.argsort(u[on_level])]
            assert order.size == n // 2 + 1
            assert np.all(np.diff(u[order]) == 2.0 / n)
            weights = np.full(order.size, 2.0)
            weights[[0, -1]] = 1.0
            h = 2.0 * math.pi / n
            levels.append(tuple(h * math.fsum(weights * v[order]) for v in (v1, v2)))
            n *= 2
        assert (res.C1, res.C2) == levels[-1]
        t = [c1 + c2 for c1, c2 in levels]
        d = [math.nan] + [abs(b - a) for a, b in zip(t, t[1:])]  # d[k] = |t[k] - t[k-1]|
        stops = []  # err_estimate if compute_C stops at level k >= 1, else None
        for k in range(1, len(t)):
            bound = tol * max(1.0, abs(t[k]))
            early = k >= 3 and (
                d[k] ** 2 < bound * d[k - 1] and d[k] < d[k - 1] / 4 and d[k - 1] < d[k - 2] / 4
            )
            stops.append(d[k] ** 2 / d[k - 1] if early else d[k] if d[k] < bound else None)
        assert stops[:-1] == [None] * (len(stops) - 1)
        assert res.err_estimate == stops[-1]


class TestLockstep:
    # An early stop (256 nodes), a grazing track (131,072 nodes), a collision
    # and a node cap: each leaves the batch on its own.
    MIX = [
        ResonantFamily(1, 3, 0.3),
        canonical_families(5, 7, 0.55, "retrograde")[0],
        ResonantFamily(3, 1, 1.0 - 3.0 ** (-2.0 / 3.0)),
        canonical_families(10, 9, 0.07798046698579171, "retrograde")[1],
    ]

    @staticmethod
    def _alone(f):
        try:
            return compute_C(f)
        except (CollisionError, ConvergenceError) as exc:
            return exc

    @staticmethod
    def _assert_same(got, ref, order=None):
        """got is ref's result, or an error of its type, message and min_delta1."""
        if isinstance(ref, Exception):
            assert type(got) is type(ref), order
            assert str(got) == str(ref), order
            assert got.min_delta1 == ref.min_delta1, order
        else:
            assert got == ref, order

    def test_every_order_matches_one_family_runs(self):
        alone = [self._alone(f) for f in self.MIX]
        assert [type(a) for a in alone] == [
            coefficient.CoefficientResult,
            coefficient.CoefficientResult,
            CollisionError,
            ConvergenceError,
        ]
        assert alone[0].nodes == 256 and alone[1].nodes >= 2**17
        for order in itertools.permutations(range(len(self.MIX))):
            batch = compute_Cs([self.MIX[k] for k in order])
            for k, got in zip(order, batch):
                self._assert_same(got, alone[k], order)

    def test_shared_index_rows_match_own_rows(self):
        # A broadcast index row shares sin E and cos E across the families of
        # equal (n_l, q); own rows take them per family.  Same values.
        fams = [f for e in (0.2, 0.6) for f in canonical_families(3, 7, e, "retrograde")]
        n, i = 2**10, np.arange(1, 2**10, 2)
        shared = track_integrand(fams, np.broadcast_to(i, (len(fams), i.size)), n)
        own = track_integrand(fams, np.tile(i, (len(fams), 1)), n)
        for a, b in zip(shared, own):
            assert np.array_equal(a, b)
        for k, f in enumerate(fams):
            for a, b in zip(shared, track_integrand([f], i[None], n)):
                assert np.array_equal(a[k], b[0])

    def test_grid_family_rows_match_their_families(self):
        # The batch columns, built once and taken by slice or by rows, give
        # the bits the families give directly, with and without shared E.
        fams = [f for e in (0.2, 0.6) for f in canonical_families(3, 7, e, "retrograde")]
        fams.append(ResonantFamily(2, 5, 0.4))
        grid = GridFamilies.of(fams)
        n, i = 2**10, np.arange(1, 2**10, 2)
        for rows, subset in (([4, 0, 3], [fams[4], fams[0], fams[3]]), (slice(1, 4), fams[1:4])):
            for index in (np.broadcast_to(i, (len(subset), i.size)), np.tile(i, (len(subset), 1))):
                for a, b in zip(track_integrand(grid[rows], index, n), track_integrand(subset, index, n)):
                    assert np.array_equal(a, b)

    def test_empty_batch(self):
        assert compute_Cs([]) == []

    def test_one_table_per_batch(self, monkeypatch):
        # compute_Cs builds one GridFamilies per call, and with it each
        # family's anomaly_beta once, also when a family collides and the
        # table is cut to the live tracks.
        tables, betas = [], []
        of, beta = GridFamilies.of.__func__, kepler.anomaly_beta

        def counted_of(cls, families):
            tables.append(len(families))
            return of(cls, families)

        def counted_beta(e):
            betas.append(e)
            return beta(e)

        monkeypatch.setattr(GridFamilies, "of", classmethod(counted_of))
        for module in (kepler, perturbation, coefficient):
            if hasattr(module, "anomaly_beta"):
                monkeypatch.setattr(module, "anomaly_beta", counted_beta)
        e_star = 1.0 - 3.0 ** (-2.0 / 3.0)
        collides = [*canonical_families(3, 1, e_star), *canonical_families(2, 5, 0.4, "retrograde")]
        for batch in ([ResonantFamily(1, 3, 0.3)], collides):
            tables.clear()
            betas.clear()
            out = compute_Cs(batch)
            assert tables == [len(batch)]
            assert sorted(betas) == sorted(f.e for f in batch)
        assert isinstance(out[0], CollisionError)
        assert all(isinstance(r, coefficient.CoefficientResult) for r in out[1:])

    @staticmethod
    def _record_calls(monkeypatch):
        """Record (families, indices per family, n, last index) of every
        integrand call compute_Cs makes."""
        calls = []
        integrand = coefficient.track_integrand

        def recorded(families, i, n):
            calls.append((len(families), i.shape[1], n, int(i[0, -1])))
            return integrand(families, i, n)

        monkeypatch.setattr(coefficient, "track_integrand", recorded)
        return calls

    @staticmethod
    def _check_call_shapes(calls):
        # At most B = _CHUNK // _N_START families a call, and at least
        # _CHUNK // B indices a family, except in the call that ends a level
        # (its last index is n on the first levels, n - 1 on the midpoints).
        bound = coefficient._CHUNK // coefficient._N_START
        assert calls
        for families, indices, n, last in calls:
            assert families <= bound
            assert indices >= coefficient._CHUNK // bound or last in (n, n - 1)

    def test_batch_beyond_family_bound_matches_one_family_runs(self, monkeypatch):
        # B = 2**9 // 64 = 8 families a call, and NODE_CAP 2**14: the grazing
        # track then caps too.  Families leave at different levels, so the
        # blocks of B change from level to level.
        monkeypatch.setattr(coefficient, "_CHUNK", 2**9)
        monkeypatch.setattr(coefficient, "NODE_CAP", 2**14)
        fams = self.MIX + [
            f for e in (0.2, 0.45, 0.7) for f in canonical_families(3, 7, e, "retrograde")
        ]
        fams += canonical_families(2, 7, 0.6)
        assert len(fams) > coefficient._CHUNK // coefficient._N_START
        alone = [self._alone(f) for f in fams]
        calls = self._record_calls(monkeypatch)
        batch = compute_Cs(fams)
        self._check_call_shapes(calls)
        assert max(c[0] for c in calls) == 8
        assert {type(a) for a in alone} == {
            coefficient.CoefficientResult, CollisionError, ConvergenceError
        }
        for got, ref in zip(batch, alone):
            self._assert_same(got, ref)

    def test_calls_bound_families_and_keep_indices(self, monkeypatch):
        # 200 families at the default constants: two blocks a level, each
        # call with at least 64 indices a family.  One block of 200 would
        # give each family 8,192 // 200 = 40.
        fams = [f for e in np.linspace(0.05, 0.5, 100) for f in canonical_families(1, 3, e)]
        calls = self._record_calls(monkeypatch)
        batch = compute_Cs(fams)
        assert all(isinstance(r, coefficient.CoefficientResult) for r in batch)
        self._check_call_shapes(calls)
        assert sorted({c[0] for c in calls if c[2] == coefficient._N_FIRST}) == [72, 128]

    # Several q, n_l = 0 and 1, n_g = 1, both directions and a collision;
    # stops at 256, 512 and 1,024 nodes.
    GUARDED = [
        *canonical_families(1, 3, 0.3),
        ResonantFamily(2, 7, 0.4),
        *canonical_families(1, 2, 0.2, "retrograde"),
        canonical_families(2, 5, 0.3, "retrograde")[1],
        ResonantFamily(3, 1, 1.0 - 3.0 ** (-2.0 / 3.0)),
    ]

    @pytest.mark.parametrize("chunk", [2, 64, None])
    def test_mixed_batch_matches_one_family_entries(self, chunk, monkeypatch):
        # One guard sample and one first-level call for the whole batch give
        # each family the entry it gets alone, at any bound on a call.
        alone = [compute_Cs([f])[0] for f in self.GUARDED]
        assert isinstance(alone[-1], CollisionError)
        assert sorted({a.nodes for a in alone[:-1]}) == [256, 512, 1024]
        if chunk is not None:
            monkeypatch.setattr(coefficient, "_CHUNK", chunk)
        for got, ref in zip(compute_Cs(self.GUARDED), alone):
            self._assert_same(got, ref)


_SUMMAND = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_subnormal=True)
# Every finite double: subnormals, both zeros and +-1.7e308.
_DOUBLE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


def _units(values, counts):
    """Exact sum of values, each counts[k] times, in units of 1 / _UNIT."""
    total = sum(Fraction(float(x)) * int(c) for x, c in zip(values, counts)) * coefficient._UNIT
    assert total.denominator == 1
    return total.numerator


class TestExactSum:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SUMMAND, max_size=200), st.lists(st.integers(0, 200), max_size=4))
    def test_chunked_sum_equals_fsum(self, values, cuts):
        chunks = np.split(np.array(values, dtype=float), sorted(min(c, len(values)) for c in cuts))
        total = sum(exact_sum(c) for c in chunks)
        assert total / coefficient._UNIT == math.fsum(values)

    def test_exact_cancellation(self):
        small = [1.0, -2.0**-60, 3.0e-320, 0.1]
        values = [1e16, -1e16] * 50 + small + [-1e16, 1e16] * 50
        v = np.array(values)
        total = exact_sum(v[:101]) + exact_sum(v[101:])
        assert total / coefficient._UNIT == math.fsum(values) == math.fsum(small)
        # One exponent bin whose high parts cancel while its low parts do not.
        pair = exact_sum(np.array([1.0 + 2.0**-40, -1.0]))
        assert pair / coefficient._UNIT == 2.0**-40

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_DOUBLE, min_size=1, max_size=40),
        st.integers(1, 4),
        st.integers(0, coefficient._CHUNK),
        st.integers(0, 2**32 - 1),
    )
    def test_fused_row_sums_are_exact(self, values, rows, cols, seed):
        # Rows of up to _CHUNK values drawn from a few doubles, each doubled
        # or not by a per-column shift, as in compute_Cs' first level.
        rng = np.random.default_rng(seed)
        pick = rng.integers(0, len(values), (rows, cols))
        shift = rng.integers(0, 2, cols)
        v = np.array(values)[pick]
        sums = coefficient._exact_sums(v, shift)
        assert len(sums) == rows
        for got, p in zip(sums, pick):
            assert got == _units(values, np.bincount(p, 2.0**shift, len(values)))

    def test_full_row_is_exact(self):
        # The largest folds a row of _CHUNK values makes: all but one value
        # with every mantissa bit set, and the last k binades below them.
        full = np.nextafter(1.0, 0.0)
        for k in range(40):
            v = np.full(coefficient._CHUNK, full)
            v[-1] = full * 2.0**-k
            values, counts = np.unique(v, return_counts=True)
            assert coefficient._exact_sums(v[None], 1) == [2 * _units(values, counts)], k

    def test_long_sums_are_exact(self):
        # 2**17 values, more than the 2**13 a row that a fold of 13 exponent
        # bins holds exactly: every mantissa bit set, equal, and with one
        # value 12 binades below, in the lowest bin of the same fold.
        full = np.nextafter(1.0, 0.0)
        equal = np.full(2**17, full)
        below = equal.copy()
        below[-1] = full * 2.0**-12
        rng = np.random.default_rng(5)
        spread = rng.standard_normal(2**17) * 2.0 ** rng.integers(-80, 80, 2**17)
        for v in (equal, -equal, below, spread):
            values, counts = np.unique(v, return_counts=True)
            assert exact_sum(v) == _units(values, counts)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            exact_sum(np.array([1.5e308, 1.5e308])) / coefficient._UNIT


class TestFormulationEquivalence:
    @pytest.mark.parametrize(
        "family",
        [
            ResonantFamily(1, 3, 0.3),
            ResonantFamily(2, 7, 0.4),
            ResonantFamily(1, 2, 0.2, direction="retrograde"),
        ],
        ids=["1:3 direct", "2:7 direct", "1:2 retrograde"],
    )
    def test_three_formulations_agree(self, family):
        c_track = compute_C(family, tol=1e-12).C
        c_ll = compute_C_via_omega_ll(family)
        c_gg = compute_C_via_omega_gg(family)
        assert c_ll == pytest.approx(c_track, abs=1e-8 * max(1.0, abs(c_track)))
        assert c_gg == pytest.approx(c_track, abs=1e-8 * max(1.0, abs(c_track)))


class TestScaling:
    def test_direct_order_of_vanishing(self):
        assert _fit_slope(1, 3, "direct", 0) == pytest.approx(2.0, abs=0.05)
        assert _fit_slope(2, 7, "direct", 1) == pytest.approx(5.0, abs=0.05)

    def test_retrograde_order_of_vanishing(self):
        assert _fit_slope(1, 2, "retrograde", 0) == pytest.approx(3.0, abs=0.05)

    def test_family_sum_decays_one_order_faster(self):
        e_grid = (0.003, 0.006, 0.012, 0.024)
        m = 2  # 1:3 leading exponent
        sums, firsts = [], []
        for e in e_grid:
            f1, f2 = canonical_families(1, 3, e)
            c1 = compute_C(f1, tol=1e-13).C
            c2 = compute_C(f2, tol=1e-13).C
            sums.append(abs(c1 + c2))
            firsts.append(abs(c1))
        slope_sum = np.polyfit(np.log(e_grid), np.log(sums), 1)[0]
        slope_first = np.polyfit(np.log(e_grid), np.log(firsts), 1)[0]
        assert slope_first == pytest.approx(m, abs=0.1)
        assert slope_sum >= m + 0.9


# Every canonical family with coprime p != q <= 9, both directions.
_SMALL_FAMILIES = [
    f
    for p, q in itertools.product(range(1, 10), repeat=2)
    if p != q and math.gcd(p, q) == 1
    for direction in ("direct", "retrograde")
    for e in (0.05, 0.3, 0.7)
    for f in canonical_families(p, q, e, direction)
]
_SAMPLE_STEP = 2.0 * math.pi / 4096


def _scan_min(f, center, half_width, points=4001):
    """(F, Delta1) at the least of `points` uniform samples of center +- half_width."""
    F = np.linspace(center - half_width, center + half_width, points)
    d1 = track_arrays(f, F)[3]
    j = int(np.argmin(d1))
    return F[j], d1[j]


class TestMinDelta1:
    def test_never_above_the_brent_oracle(self):
        # The parabolic refinement ends at or below scipy's bounded Brent
        # search (measured: 1.3e-13 relative above it at most).  Where it
        # ends lower, a two-stage dense scan of the sampled basin confirms
        # that the oracle's value is not the basin's minimum, and finds
        # nothing below the package's value beyond the roundoff of Delta1:
        # the phase theta, up to (p + q)*pi in size, carries ~1e-14 absolute.
        lower = 0
        for f in _SMALL_FAMILIES:
            new, old = min_delta1(f), min_delta1_brent(f)
            assert new <= old * (1.0 + 1e-12), f
            if new < old * (1.0 - 1e-12):
                lower += 1
                # the basin the package refines: in the lower half for n_l = 0
                F = np.arange(2049 if f.n_l == 0 else 4096) * _SAMPLE_STEP
                Fi = F[int(np.argmin(track_arrays(f, F)[3]))]
                x, _ = _scan_min(f, Fi, _SAMPLE_STEP)
                _, scanned = _scan_min(f, x, 2.0 * _SAMPLE_STEP / 2000)
                assert scanned < old, f
                assert new <= scanned * (1.0 + 1e-12) + 1e-14, f
        assert lower > 0

    def test_half_sample_for_even_grid(self):
        # For n_l = 0 the sample grid is symmetric about F_c = 0: its upper
        # half holds the mirror images of the lower half's basins, so the
        # half sample finds the full sample's basin (the same index or its
        # mirror, up to a neighbour for a minimum half-way between nodes) and
        # its value, up to the roundoff of the mirrored phases.
        F = np.arange(4096) * _SAMPLE_STEP
        for f in _SMALL_FAMILIES:
            if f.n_l != 0:
                continue
            d1 = track_arrays(f, F)[3]
            full, half = int(np.argmin(d1)), int(np.argmin(d1[:2049]))
            assert min(abs(full - half), abs(full - (4096 - half))) <= 1, f
            assert d1[half] == pytest.approx(d1[full], rel=1e-11, abs=0.0), f
            assert min_delta1(f) <= d1[half]


class TestGuardSample:
    @pytest.mark.parametrize("chunk", [1000, None])
    def test_rows_match_float_track(self, chunk, monkeypatch):
        # One batch of every small family.  Each point the bounded guard
        # evaluates, in numpy calls of at most _CHUNK points, is the float
        # track's Delta1 there, bit for bit, and the guard evaluates few of
        # the sample's points.
        if chunk is not None:
            monkeypatch.setattr(coefficient, "_CHUNK", chunk)
        fams = _SMALL_FAMILIES + TestLockstep.GUARDED
        calls, sizes = [], []
        guard, delta1 = coefficient._guard_delta1, coefficient.delta1

        def recorded(g, j):
            out = guard(g, j)
            # each evaluated row's family, known by its constants
            consts = zip(*(c[:, 0].tolist() for c in (g.e, g.p, g.q, g.lpi, g.gpi)))
            for key, jr, dr in zip(consts, np.broadcast_to(j, out.shape), out):
                calls.append((key, jr.copy(), dr.copy()))
            return out

        def sized(r, theta):
            sizes.append(np.size(theta))
            return delta1(r, theta)

        monkeypatch.setattr(coefficient, "_guard_delta1", recorded)
        monkeypatch.setattr(coefficient, "delta1", sized)
        coefficient.min_delta1s(fams)
        assert max(sizes) <= coefficient._CHUNK
        grid = GridFamilies.of(fams)
        keys = zip(*(c[:, 0].tolist() for c in (grid.e, grid.p, grid.q, grid.lpi, grid.gpi)))
        family = dict(zip(keys, fams))
        for key, j, d in calls:
            assert np.array_equal(d, track_arrays(family[key], j * _SAMPLE_STEP)[3]), family[key]
        sample = sum(2049 if f.n_l == 0 else 4096 for f in fams)
        assert sum(d.size for _, _, d in calls) < sample / 3

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 40),
                st.integers(1, 40),
                st.sampled_from(["direct", "retrograde"]),
                st.integers(0, 1),
                st.floats(0.01, 0.97),
            ).filter(lambda x: x[0] != x[1] and math.gcd(x[0], x[1]) == 1),
            min_size=1,
            max_size=4,
        )
    )
    # least samples inside the last cell of the n_l = 1 sample (j = 4081, 4085)
    @example([(13, 7, "retrograde", 1, 0.1), (15, 8, "retrograde", 1, 0.1)])
    @settings(max_examples=150, deadline=None)
    def test_bounded_guard_matches_full_sample(self, draws):
        # Both n_l (odd p) or both n_g (even p), in batches that mix q.
        fams = [canonical_families(p, q, e, d)[which] for p, q, d, which, e in draws]
        got = coefficient.min_delta1s(fams)
        assert [x.hex() for x in got] == [min_delta1_full(f).hex() for f in fams]

    def test_speed_bound_is_load_bearing(self):
        # With a quarter of the speed bound the guard skips cells that hold
        # the least sample, and at least one result changes.
        grid = GridFamilies.of(_SMALL_FAMILIES)
        grid.speed *= 0.25  # a view of the table
        got = coefficient.min_delta1s(grid)
        assert any(g != min_delta1_full(f) for g, f in zip(got, _SMALL_FAMILIES))

    def test_end_image_is_not_a_sample(self, monkeypatch):
        # For n_l = 1 the coarse pass reaches j = _SAMPLES (F = 2*pi), the
        # image of j = 0, not a sample of its own.  A synthetic Delta1 one ulp
        # below d(0) there, and above it everywhere else, leaves j = 0 the
        # first least of j = 0 ... _SAMPLES - 1.
        n = coefficient._SAMPLES
        end = np.nextafter(1.0, 0.0)

        def d(j):
            return np.where(j == n, end, 1.0 + 1e-3 * (1.0 - np.cos(j * (2.0 * math.pi / n))))

        def synthetic(g, j):
            return np.broadcast_to(d(j), (len(g), j.shape[1])).copy()

        monkeypatch.setattr(coefficient, "_guard_delta1", synthetic)
        grid = GridFamilies.of([canonical_families(1, 3, 0.3)[1]])
        first, values = coefficient._guard_brackets(grid)
        assert first == [0]
        assert values == [[float(d(-1)), 1.0, float(d(1))]]

    @pytest.mark.parametrize("family", TestLockstep.GUARDED, ids=str)
    def test_float_refinement_matches_float_track(self, family):
        # The refinement's Delta1 on Python floats through math is within
        # 4 ulp of numpy's float track.
        F = np.random.default_rng(7).uniform(0.0, 2.0 * math.pi, 500)
        ref = track_arrays(family, F)[3]
        (d,) = delta1_at(GridFamilies.of([family]))
        got = np.array([d(x) for x in F.tolist()])
        assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(ref))

    @pytest.mark.xfail(
        strict=True,
        reason="min_delta1 refines only the least of its 4,096 samples; for this narrow "
        "close pass that is the local minimum 0.0264745 at F ~ 1.4759, not 0.0225583 at "
        "F ~ 1.9246 (ROADMAP items 5 and 9: refine every sampled local minimum with the "
        "reference refresh)",
    )
    def test_narrow_close_pass_found(self):
        f = canonical_families(15, 13, 0.07093487512020555, "retrograde")[1]
        F = np.arange(2**16) * (2.0 * math.pi / 2**16)
        scanned = track_arrays(f, F)[3].min()
        assert scanned == pytest.approx(0.0225583, rel=1e-3)
        assert min_delta1(f) <= scanned


class TestSweep:
    def test_opposite_signs(self):
        rows = sweep_e(1, 3, "direct", [0.1, 0.2, 0.3], tol=1e-10)
        assert [r.e for r in rows] == [0.1, 0.2, 0.3]
        for r in rows:
            assert r.status_1 == r.status_2 == "ok"
            assert r.C_family1 * r.C_family2 < 0.0

    def test_collision_rows_flagged_not_dropped(self):
        e_star = 1.0 - 3.0 ** (-2.0 / 3.0)
        rows = sweep_e(3, 1, "direct", [0.1, e_star], tol=1e-10)
        assert len(rows) == 2
        assert rows[0].status_1 == "ok"
        assert rows[1].status_1 == "collision"
        assert rows[1].C_family1 is None
        assert rows[1].min_delta1_1 is not None

    def test_min_delta1_once_per_family(self, monkeypatch):
        calls = []
        md = coefficient.min_delta1
        guard = coefficient.min_delta1s

        def counted(families):
            # each family by its constants (e, n_l*pi, n_g*pi)
            g = families if isinstance(families, GridFamilies) else GridFamilies.of(families)
            calls.extend(zip(*(c[:, 0].tolist() for c in (g.e, g.lpi, g.gpi))))
            return guard(families)

        monkeypatch.setattr(coefficient, "min_delta1s", counted)
        monkeypatch.setattr(coefficient, "NODE_CAP", 256)
        e_star = 1.0 - 3.0 ** (-2.0 / 3.0)
        grid = [0.1, e_star]
        rows = sweep_e(3, 1, "direct", grid, tol=0.0)
        assert [(r.status_1, r.status_2) for r in rows] == [
            ("no-convergence", "no-convergence"),
            ("collision", "no-convergence"),
        ]
        assert len(calls) == len(set(calls)) == 4
        for r, e in zip(rows, grid):
            f1, f2 = canonical_families(3, 1, e)
            assert (r.min_delta1_1, r.min_delta1_2) == (md(f1), md(f2))
