"""Quadrature tests for the stability coefficient: convergence, the C1/C2
split, equality of the three formulations, collision handling, scaling laws,
and eccentricity sweeps."""

import itertools
import math
import random
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


# Coprime (p, q), both below 16, with q >= 2: C2 = 0.
_COPRIME_Q_ABOVE_1 = [
    (p, q) for p in range(1, 16) for q in range(2, 16) if p != q and math.gcd(p, q) == 1
]


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

    def test_c2_trapezoid_is_roundoff_for_q_above_1(self):
        # Along the track e^(i theta)/r = const * B(E) * e^(-+ipF) with B
        # 2*pi-periodic in E = qF, so the F-harmonics of cos(theta)/r are
        # jq -+ p, none 0 for coprime q >= 2: C2 = 0 at every e (ROADMAP
        # item 12).  The float kernel's trapezoid at each family's converged
        # nodes is roundoff (measured 1.1e-14 at most over these 120).
        rng = random.Random(7)
        fams = []
        for _ in range(60):
            p, q = rng.choice(_COPRIME_Q_ABOVE_1)
            fams += canonical_families(
                p, q, rng.uniform(0.02, 0.85), rng.choice(["direct", "retrograde"])
            )
        done = [
            (f, r) for f, r in zip(fams, compute_Cs(fams))
            if isinstance(r, coefficient.CoefficientResult)
        ]
        assert len(done) >= 100
        for f, r in done:
            assert abs(trapezoid_pair(f, r.nodes)[1]) < 1e-13, f

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
        # A grazing family that converges at 131,072 nodes on the trapezoid
        # (with the panel switch raised to the node cap): summed 64
        # midpoints at a time, every field is the same as in full chunks,
        # alone and in a 2-family batch (one family a call: at _CHUNK = 64 a
        # call holds at most _CHUNK // _N_START = 1).  On panels, as it runs
        # by default, its rows go in calls of at most 64 nodes, one panel a
        # call, with the same result.  Three families in calls of 2 nodes,
        # one family a call.
        f = canonical_families(5, 7, 0.55, "retrograde")[0]
        pair = [f, f.sibling()]
        smooth = [ResonantFamily(1, 3, 0.3), ResonantFamily(2, 7, 0.4), ResonantFamily(3, 1, 0.2)]
        switch, panels = coefficient._SWITCH, compute_C(f)
        monkeypatch.setattr(coefficient, "_SWITCH", coefficient.NODE_CAP)
        res, batch, small = compute_C(f), compute_Cs(pair), compute_Cs(smooth)
        assert res.nodes >= 2**17
        monkeypatch.setattr(coefficient, "_CHUNK", 64)
        assert compute_C(f) == res
        assert compute_Cs(pair) == batch
        monkeypatch.setattr(coefficient, "_SWITCH", switch)
        assert panels.rule == "panels" and compute_C(f) == panels
        monkeypatch.setattr(coefficient, "_CHUNK", 2)
        assert compute_Cs(smooth) == small

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 2.0**-60, reason="long double is not extended precision"
    )
    @pytest.mark.parametrize(
        "p,q,e,which",
        [
            (5, 7, 0.25, 0),
            (7, 15, 0.6598103462577234, 0),
            (7, 8, 0.1, 1),
            (10, 9, 0.07798046698579171, 1),
            (13, 12, 0.05, 1),
            (1, 2, 0.6, 1),
        ],
    )
    def test_panel_rule_within_tol_of_extended_precision(self, p, q, e, which):
        # Close passes (min Delta1 1.2e-3, 1.4e-3, 1.7e-3 and 7.5e-4; the
        # guard reports 6.3e-3 for the third, test_narrow_close_pass_found)
        # that run on panels.  The trapezoid was 48, 6.8 and 3.5 tol units
        # off the long double sums for the first three, and ran to the node
        # cap on the fourth; the panel rule's off-grid nodes, with their half
        # phases reduced about 0, come within 2 units (one unit is
        # tol * max(1, |C1 + C2|)).  13:12 family 2 has a panel symmetric
        # about F_c; 1:2 family 2 (62/sigma ~ 20,500) starts on panels.
        f = canonical_families(p, q, e, "retrograde")[which]
        res = compute_C(f)
        ref = sum(trapezoid_pair_longdouble(f, 2**20))
        assert res.rule == "panels" and res.C2 == 0.0
        assert abs(res.C1 + res.C2 - ref) <= 2 * 1e-10 * max(1.0, abs(ref))

    def test_trapezoid_stop_is_not_aliased(self):
        # Every level 128 ... 512 aliases the harmonic 512 alike (C1 =
        # 0.3047965), so the levels agree to 1e-10 and the stopping rule
        # would stop at 512 nodes, where n*sigma is 7.8: no family stops
        # below _N_SIGMA_MIN / sigma nodes.  The long double trapezoid at
        # 2**13 nodes gives C1 = -2.3e-18, and the panel rule 3.8e-16.
        f = canonical_families(8, 13, 0.05, "retrograde")[0]
        res = compute_C(f)
        ref, _ = trapezoid_pair_longdouble(f, 2**13)
        assert abs(res.C1 - ref) <= 1e-10 * max(1.0, abs(ref))

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
        # 2:7 (0.0, an exact zero that the uniform grid sums to roundoff);
        # 1e-13 relative holds the rest.
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
            ResonantFamily(2, 1, 0.3, direction="retrograde"),
        ],
        ids=["2:7 direct", "1:2 retrograde", "1:2 family 2 grazing", "2:1 retrograde"],
    )
    def test_running_sum_matches_fsum_grid(self, family, monkeypatch):
        # Replay every level with fsum over the node values so far in F
        # order, weighted 1, 2, ..., 2, 1 over the half period, on the
        # integrand values compute_C itself receives, and replay the
        # stopping rule on the level values.  C1 is the fsum level; so is
        # C2 for q = 1, while for q >= 2 it is 0.0 and T_n = C1.
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
        assert res.C1 == levels[-1][0]
        if family.q == 1:
            assert (res.C1, res.C2) == levels[-1]
        else:
            assert res.C2 == 0.0
            levels = [(c1, 0.0) for c1, _ in levels]
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


# compute_C from before the C2 = 0 rule, when every family summed
# cos(theta)/r; q = 1 results keep these bits.  (p, n_l, n_g, direction) at
# q = 1, e = 0.3 -> (C, C1, C2, nodes, err_estimate).
_Q1_PINNED = {
    (2, 0, 0, "direct"): (
        47809.91623082622, -636.3152518165033, 2.2165437377173753, 128, 2.1600499167107046e-12,
    ),
    (2, 0, 1, "direct"): (
        123.1822962798261, 0.5827877915219823, -2.2165437377173753, 256, 2.220446049250313e-16,
    ),
    (2, 0, 0, "retrograde"): (
        20.57798126022385, -0.2911671649306404, 0.01824321189588906, 2048, 5.034387356166747e-21,
    ),
    (2, 0, 1, "retrograde"): (
        -9.799388727648065, 0.14821164150290514, -0.018243211895889438, 512, 5.200413271595201e-15,
    ),
    (3, 0, 0, "direct"): (726.7283517445569, -5.120844076620586, 0.8370511334660723, 256, 0.0),
    (3, 1, 0, "direct"): (
        73.03517039305405, 0.40653600799891004, -0.8370511334660728, 256, 5.551115123125783e-17,
    ),
    (3, 0, 0, "retrograde"): (
        2.740806749776162, -0.021371992501464356, 0.005215957601964067, 512, 5.164617689566768e-15,
    ),
    (3, 1, 0, "retrograde"): (
        -2.4461574879014596, 0.01963514485310394, -0.00521595760196429, 512, 6.344599000719902e-21,
    ),
    (4, 0, 0, "direct"): (
        119.03221516546658, -0.7148734446800422, 0.3201949982058323, 256, 4.7128967395337895e-14,
    ),
    (4, 0, 1, "direct"): (
        25.260595583022024, 0.2364377346124313, -0.3201949982058324, 256, 3.8011260805603797e-13,
    ),
    (4, 0, 0, "retrograde"): (
        0.8421099890244177, -0.004398561166870091, 0.0016063535131138871, 512, 7.043213970486063e-20,
    ),
    (4, 0, 1, "retrograde"): (
        -0.8157169509177425, 0.004311049031914171, -0.0016063535131140105, 512, 8.210153951828877e-23,
    ),
}


class TestC2Rule:
    # C2 = 0 for q >= 2 (test_c2_trapezoid_is_roundoff_for_q_above_1 is the
    # oracle for the argument): the lockstep sums cos(theta)/r for q = 1
    # rows only.

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(_COPRIME_Q_ABOVE_1),
        st.floats(0.02, 0.85),
        st.sampled_from(["direct", "retrograde"]),
    )
    @example((3, 7), 0.3, "direct")  # n_l = 1
    @example((2, 5), 0.4, "retrograde")  # n_g = 1
    def test_c2_is_zero_for_q_above_1(self, pq, e, direction):
        for f in canonical_families(*pq, e, direction):
            try:
                res = compute_C(f)
            except (CollisionError, ConvergenceError):
                continue
            assert res.C2 == 0.0, f
            assert res.C == -6.0 * math.pi * f.p**2 * res.C1, f

    def test_q1_results_keep_their_bits(self):
        # alone and in a batch whose q = 1 rows sit between q >= 2 rows
        fams = [
            ResonantFamily(p, 1, 0.3, n_l, n_g, direction)
            for p, n_l, n_g, direction in _Q1_PINNED
        ]
        others = [ResonantFamily(2, 7, 0.4), canonical_families(3, 5, 0.5, "retrograde")[1]]
        batch = compute_Cs([others[0], *fams[:6], others[1], *fams[6:]])
        del batch[7]
        for f, mixed, pinned in zip(fams, batch[1:], _Q1_PINNED.values()):
            for res in (compute_C(f), mixed):
                assert (res.C, res.C1, res.C2, res.nodes, res.err_estimate) == pinned, f

    @pytest.mark.parametrize("chunk", [None, 2**8])
    @pytest.mark.parametrize("flip", [False, True])
    def test_mixed_batch_keeps_its_calls(self, chunk, flip, monkeypatch):
        # One q = 1 family (2,048 nodes) and one q >= 2 family (1,024): the
        # same integrand calls as when both summed C2, (families, indices
        # a family, n) each.
        if chunk is not None:
            monkeypatch.setattr(coefficient, "_CHUNK", chunk)
        fams = [
            ResonantFamily(2, 1, 0.3, direction="retrograde"),
            ResonantFamily(2, 7, 0.6, direction="retrograde"),
        ]
        alone = [compute_C(f) for f in fams]
        if flip:
            fams, alone = fams[::-1], alone[::-1]
        calls = []
        integrand = coefficient.track_integrand

        def counted(families, i, n):
            calls.append((len(families), i.shape[1], n))
            return integrand(families, i, n)

        monkeypatch.setattr(coefficient, "track_integrand", counted)
        assert compute_Cs(fams) == alone
        assert [r.nodes for r in alone] == ([1024, 2048] if flip else [2048, 1024])
        assert calls == {
            None: [(2, 257, 512), (2, 256, 512), (1, 512, 1024)],
            2**8: [(2, 257, 512), (2, 128, 512), (2, 128, 512), (1, 256, 1024), (1, 256, 1024)],
        }[chunk]


class TestLockstep:
    # An early stop (256 nodes), a grazing track (131,072 nodes), a collision
    # and a node cap on the trapezoid (the panel switch, and with it the
    # sigma-start, raised past the node cap).  By default the last two start
    # on panels (62/sigma is 1.0e5 and 1.6e6) and converge there.  Each
    # leaves the batch on its own.
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

    def test_every_order_matches_one_family_runs(self, monkeypatch):
        # 10:9 r e=0.1 family 2 (62/sigma = 3.7e6) starts on panels all the
        # same; it goes into every order of MIX, at each place in turn.
        monkeypatch.setattr(coefficient, "_SWITCH", 2 * coefficient.NODE_CAP)
        mix = self.MIX + [canonical_families(10, 9, 0.1, "retrograde")[1]]
        alone = [self._alone(f) for f in mix]
        assert [type(a) for a in alone] == [
            coefficient.CoefficientResult,
            coefficient.CoefficientResult,
            CollisionError,
            ConvergenceError,
            coefficient.CoefficientResult,
        ]
        assert alone[0].nodes == 256 and alone[1].nodes >= 2**17
        assert [alone[k].rule for k in (0, 1, 4)] == ["trapezoid", "trapezoid", "panels"]
        for m, order in enumerate(itertools.permutations(range(len(self.MIX)))):
            order = [*order[: m % len(mix)], len(self.MIX), *order[m % len(mix) :]]
            batch = compute_Cs([mix[k] for k in order])
            for k, got in zip(order, batch):
                self._assert_same(got, alone[k], order)

    def test_panel_stops_and_caps_match_one_family_runs(self, monkeypatch):
        # The switch at 1,024 nodes and a node cap of 4,096: both grazing
        # tracks start on panels, evaluating no grid node.  The 5:7 track
        # converges there (1,548 nodes), and the 10:9 track, which needs
        # 4,883 panel nodes a period, fails at 2,451 with the trapezoid's
        # message, having evaluated 1,290 panel points: 10 panels of the half
        # period (2 * 9 + 1 = 19 a period) at 17, 16, 32 and 64 new points.
        # Every order of the batch gives each family's own result.
        monkeypatch.setattr(coefficient, "_SWITCH", 2**10)
        monkeypatch.setattr(coefficient, "NODE_CAP", 2**12)
        points = []
        integrand = coefficient.track_integrand

        def counted(families, i, n, x=None):
            points.append(i.size if x is not None else -i.size)
            return integrand(families, i, n, x)

        monkeypatch.setattr(coefficient, "track_integrand", counted)
        alone = [self._alone(f) for f in self.MIX]
        assert [getattr(a, "rule", None) for a in alone] == ["trapezoid", "panels", None, None]
        assert str(alone[3]) == "quadrature did not reach tol=1e-10 at 2451 nodes"
        assert isinstance(alone[3], ConvergenceError) and isinstance(alone[2], CollisionError)
        for f in self.MIX[1::2]:
            points.clear()
            self._alone(f)
            assert min(points) > 0
        assert sum(points) == 1290 <= coefficient.NODE_CAP
        for order in itertools.permutations(range(len(self.MIX))):
            batch = compute_Cs([self.MIX[k] for k in order])
            for k, got in zip(order, batch):
                self._assert_same(got, alone[k], order)

    def test_shared_index_rows_match_own_rows(self):
        # The same indices for every family, as a broadcast row per family,
        # as one row of their own per family, or as a single (1, N) row that
        # broadcasts against the families' columns: every row is evaluated
        # on its own, and each family gets the same bits from all three.
        fams = [f for e in (0.2, 0.6) for f in canonical_families(3, 7, e, "retrograde")]
        n, i = 2**10, np.arange(1, 2**10, 2)
        shared = track_integrand(fams, np.broadcast_to(i, (len(fams), i.size)), n)
        own = track_integrand(fams, np.tile(i, (len(fams), 1)), n)
        single = track_integrand(fams, i[None, :], n)
        for a, b, c in zip(shared, own, single):
            assert a.shape == c.shape == (len(fams), i.size)
            assert np.array_equal(a, b) and np.array_equal(a, c)
        for k, f in enumerate(fams):
            for a, b in zip(shared, track_integrand([f], i[None], n)):
                assert np.array_equal(a[k], b[0])

    def test_grid_family_rows_match_their_families(self):
        # The batch columns, built once and taken by slice or by rows, give
        # the bits the families give directly, for broadcast and own rows.
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

        def recorded(families, i, n, x=None):
            if x is None:  # the panel rule's off-grid nodes are not recorded
                calls.append((len(families), i.shape[1], n, int(i[0, -1])))
            return integrand(families, i, n, x)

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
        # B = 2**9 // 64 = 8 families a call, and NODE_CAP 2**12: the 10:9
        # track caps on panels, as in test_panel_stops_and_caps_match_one_family_runs.
        # Families leave at different levels, so the blocks of B change from
        # level to level.
        monkeypatch.setattr(coefficient, "_CHUNK", 2**9)
        monkeypatch.setattr(coefficient, "NODE_CAP", 2**12)
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

    def test_first_pass_takes_one_call_and_coarse_guard_one_row(self, monkeypatch):
        # A sweep-sized batch of 34 families: the 257 first-pass indices go in
        # one call, where _CHUNK nodes a call would split them
        # (34 * 257 > 8,192), and the guard's 257 coarse samples go as one
        # (1, 257) row for all, in calls of at most _CHUNK points.
        fams = [f for e in np.linspace(0.05, 0.45, 17) for f in canonical_families(1, 3, e)]
        first, coarse = [], []
        integrand, track = coefficient.track_integrand, coefficient.float_track

        def counted(families, i, n):
            if n == coefficient._N_FIRST:
                first.append((len(families), i.shape))
            return integrand(families, i, n)

        def sampled(families, F):
            if len(F) == 1:  # the coarse pass's one row
                coarse.append((len(families), F.shape))
            return track(families, F)

        monkeypatch.setattr(coefficient, "track_integrand", counted)
        monkeypatch.setattr(coefficient, "float_track", sampled)
        out = compute_Cs(fams)
        assert all(isinstance(r, coefficient.CoefficientResult) for r in out)
        assert first == [(34, (1, 257))]
        per_call = coefficient._CHUNK // 257
        assert coarse == [(per_call, (1, 257)), (34 - per_call, (1, 257))]
        assert [r.min_delta1 for r in out] == [min_delta1_full(f) for f in fams]

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


class TestSigmaStart:
    """A family whose trapezoid would need 62/sigma > _SWITCH nodes, sigma
    the guard's minimum of Delta1 over track_speed at its F, starts on
    panels; the others run on the trapezoid."""

    @staticmethod
    def _predicted(fams):
        g = GridFamilies.of(fams)
        F, md = coefficient._guard_minima(g)
        return (62.0 * coefficient.track_speed(g, np.array(F)[:, None])[:, 0] / md).tolist()

    def test_grazing_family_evaluates_no_grid_node(self, monkeypatch):
        # 1:2 r e=0.6 family 2 (62/sigma ~ 20,500): no grid call holds its
        # row (n_l = 1), and it converges on panels; family 1 runs on the
        # trapezoid.
        fams = canonical_families(1, 2, 0.6, "retrograde")
        assert self._predicted(fams)[1] == pytest.approx(20470, rel=1e-3)
        alone = [compute_C(f) for f in fams]
        rows = []
        integrand = coefficient.track_integrand

        def recorded(families, i, n, x=None):
            if x is None:
                rows.extend(families.lpi[:, 0].tolist())
            return integrand(families, i, n, x)

        monkeypatch.setattr(coefficient, "track_integrand", recorded)
        assert compute_Cs(list(fams)) == alone
        assert rows and set(rows) == {0.0}
        assert [r.rule for r in alone] == ["trapezoid", "panels"]
        assert alone[1].nodes < coefficient._SWITCH

    def test_stop_at_the_switch_keeps_trapezoid_bits(self):
        # 3:5 d e=0.4 family 1 (62/sigma ~ 14,060) stops on the trapezoid at
        # 2**14 nodes with the bits it had before the sigma-start.
        f = canonical_families(3, 5, 0.4)[0]
        assert self._predicted([f])[0] <= coefficient._SWITCH
        res = compute_C(f)
        assert (res.rule, res.nodes) == ("trapezoid", coefficient._SWITCH)
        assert [x.hex() for x in (res.C, res.C1, res.C2, res.err_estimate)] == [
            "0x1.77d284dd68dc8p+19", "-0x1.1b9005ad0abc8p+12", "0x0.0p+0", "0x1.0e20d9c0975dbp-49",
        ]

    def test_fallback_at_the_production_switch(self, monkeypatch):
        # 9:11 r e=0.06 family 2: 62/sigma (~15,579) under-predicts the
        # trapezoid's count, so at the default switch it starts on the
        # trapezoid, is still short of tol at 2**14 nodes, and moves to
        # panels, where it converges on fewer nodes than that.
        f = canonical_families(9, 11, 0.06, "retrograde")[1]
        assert self._predicted([f])[0] <= coefficient._SWITCH
        bases = []
        integrand = coefficient.track_integrand

        def recorded(families, i, n, x=None):
            if x is None:
                bases.append(n)
            return integrand(families, i, n, x)

        monkeypatch.setattr(coefficient, "track_integrand", recorded)
        res = compute_C(f)
        # the midpoints of the 2**14-node level are the odd indices at base 2**13
        assert bases and max(bases) == coefficient._SWITCH // 2
        assert res.rule == "panels" and res.nodes < 2**14

    # Half-period layouts: one panel on F_c alone (2:1 n_g=0), one interior
    # panel alone (1:3 n_l=1), panels on both symmetry points (1:3 n_l=0,
    # 3:1, 2:1 n_g=1), and an end panel with interior ones (2:7, 1:2 r,
    # 2:5 r, 3:2); the q = 1 families sum C2 on panels too.
    LAYOUTS = [
        *canonical_families(1, 3, 0.3),
        ResonantFamily(2, 7, 0.4),
        ResonantFamily(3, 1, 0.2),
        *canonical_families(1, 2, 0.2, "retrograde"),
        *canonical_families(2, 1, 0.3),
        *canonical_families(2, 5, 0.3, "retrograde"),
        *canonical_families(3, 2, 0.5),
    ]

    def test_every_layout_matches_the_trapezoid(self, monkeypatch):
        # With the switch at 0 every family starts on panels, and each lands
        # within a tol unit of its trapezoid value.
        trapezoid = compute_Cs(self.LAYOUTS)
        monkeypatch.setattr(coefficient, "_SWITCH", 0)
        for f, ref, got in zip(self.LAYOUTS, trapezoid, compute_Cs(self.LAYOUTS)):
            assert (ref.rule, got.rule) == ("trapezoid", "panels"), f
            assert (got.C2 != 0.0) == (f.q == 1), f
            t = ref.C1 + ref.C2
            assert abs(got.C1 + got.C2 - t) <= 1e-10 * max(1.0, abs(t)), f

    def test_one_panel_call_for_started_and_switched(self, monkeypatch):
        # With the switch at 1,024 nodes: 5:7 r e=0.55 family 1 starts on
        # panels, and 5:14 d e=0.744 family 1 (62/sigma ~ 1,021, 2,048
        # trapezoid nodes) switches at 1,024; both go into the batch's one
        # panel call, and each gets its own result.
        monkeypatch.setattr(coefficient, "_SWITCH", 2**10)
        fams = [
            ResonantFamily(1, 3, 0.3),
            canonical_families(5, 7, 0.55, "retrograde")[0],
            canonical_families(5, 14, 0.7442612310901489)[0],
        ]
        predicted = self._predicted(fams)
        assert predicted[1] > 2**10 >= predicted[2]
        alone = [compute_C(f) for f in fams]
        assert [r.rule for r in alone] == ["trapezoid", "panels", "panels"]
        calls, panels = [], coefficient._panels

        def recorded(live, grid, tol, out):
            calls.append(sorted(t.index for t in live))
            return panels(live, grid, tol, out)

        monkeypatch.setattr(coefficient, "_panels", recorded)
        for order in itertools.permutations(range(3)):
            calls.clear()
            assert compute_Cs([fams[k] for k in order]) == [alone[k] for k in order]
            assert calls == [sorted(order.index(k) for k in (1, 2))]


class TestPredictedLevels:
    """The trapezoid's first pass runs to the largest power of two within
    62/sigma nodes of every family of the batch (the 62 scaled by
    ln(tol) / ln(QUAD_TOL)), and the panel rule's levels up to _CC_FIRST
    come from one call; every result keeps the bits of level-by-level
    passes."""

    # q = 1 and q >= 2, n_l = 0 and 1, n_g = 1, both directions; stops at
    # 512 ... 8,192 trapezoid nodes, panel families (1:2 r e=0.6 and 5:7 r
    # e=0.55 family 1) and an aliased level that n*sigma >= 20 turns down
    # (8:13 r e=0.05).
    FAMILIES = [
        ResonantFamily(2, 1, 0.3, direction="retrograde"),
        *canonical_families(3, 1, 0.2),
        *canonical_families(4, 5, 0.55, "retrograde"),
        *canonical_families(9, 5, 0.21166008640516337, "retrograde"),
        *canonical_families(1, 2, 0.6, "retrograde"),
        *canonical_families(5, 7, 0.55, "retrograde"),
        canonical_families(8, 13, 0.05, "retrograde")[0],
    ]

    @staticmethod
    def _tops(monkeypatch, predict=True):
        """Record the top of every first pass; without predict, every first
        pass runs to _N_FIRST nodes as before the prediction."""
        tops, first = [], coefficient._first_pass_nodes

        def recorded(live, tol):
            top = first(live, tol) if predict else coefficient._N_FIRST
            tops.append(top)
            return top

        monkeypatch.setattr(coefficient, "_first_pass_nodes", recorded)
        return tops

    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    def test_prediction_keeps_every_bit(self, tol, monkeypatch):
        fams = self.FAMILIES
        wide = [f for e in np.linspace(0.05, 0.5, 70) for f in canonical_families(1, 3, e)]
        assert len(wide) > coefficient._CHUNK // coefficient._N_START
        tops = self._tops(monkeypatch)
        on = [compute_Cs([f], tol)[0] for f in fams], compute_Cs(fams, tol), compute_Cs(wide, tol)
        assert max(tops) >= 2**12 and tops[-1] == coefficient._N_FIRST
        self._tops(monkeypatch, predict=False)
        off = [compute_Cs([f], tol)[0] for f in fams], compute_Cs(fams, tol), compute_Cs(wide, tol)
        assert on == off
        alone, batch, _ = on
        assert batch == alone
        assert {r.rule for r in alone} == {"trapezoid", "panels"}
        assert all(isinstance(r, coefficient.CoefficientResult) for r in on[2])

    def test_tol_and_batch_bound_the_first_pass(self):
        # 62/sigma = 5,000: 4,096 nodes at the default tol, 3,000 and so
        # 2,048 at tol 1e-6.  62/sigma = 1e6: _ROW values a row hold 8,192
        # nodes for 2 families; 34 and 128 families keep the pass's memory
        # at 1,024 and 512.
        f = ResonantFamily(1, 3, 0.3)

        def tracks(k, need):
            return [coefficient._Track(j, f, 62.0, need) for j in range(k)]

        first = coefficient._first_pass_nodes
        assert first(tracks(2, 5000.0), 1e-10) == 4096
        assert first(tracks(2, 5000.0), 1e-6) == 2048
        assert first(tracks(2, 100.0), 1e-10) == coefficient._N_FIRST
        assert first(tracks(1, 100.0) + tracks(1, 5000.0), 1e-10) == coefficient._N_FIRST
        assert [first(tracks(k, 1e6), 1e-10) for k in (1, 2, 34, 128, 200)] == [
            8192, 8192, 1024, 512, 512,
        ]
        assert first([], 1e-10) == coefficient._N_FIRST

    def test_one_first_pass_call_to_4096_nodes(self, monkeypatch):
        # 4:5 r e=0.55: both families stop at 4,096 nodes, within 62/sigma of
        # each, and all their grid nodes come from one integrand call.
        fams = canonical_families(4, 5, 0.55, "retrograde")
        calls = []
        integrand = coefficient.track_integrand

        def counted(families, i, n, x=None):
            calls.append((len(families), i.shape, n))
            return integrand(families, i, n, x)

        monkeypatch.setattr(coefficient, "track_integrand", counted)
        out = compute_Cs(fams)
        assert [(r.rule, r.nodes) for r in out] == [("trapezoid", 4096)] * 2
        assert calls == [(2, (1, 2049), 4096)]

    @pytest.mark.parametrize(
        "p,q,e,which,calls",
        [(1, 2, 0.6, 1, [129]), (5, 7, 0.25, 0, [129, 128])],
        ids=["stops at 128", "stops at 256"],
    )
    def test_one_panel_call_up_to_128(self, p, q, e, which, calls, monkeypatch):
        # The levels 16 ... 128 read one call's 129 nodes a panel; the level
        # 256 evaluates its 128 new ones.  Level by level, from 17 nodes a
        # panel, every field is the same.
        f = canonical_families(p, q, e, "retrograde")[which]
        sizes, values = [], coefficient._panel_values

        def counted(rows, y):
            sizes.append(y.size)
            return values(rows, y)

        monkeypatch.setattr(coefficient, "_panel_values", counted)
        res = compute_C(f)
        assert res.rule == "panels" and sizes == calls
        assert res.nodes % (coefficient._CC_FIRST * len(calls) + 1) == 0
        sizes.clear()
        monkeypatch.setattr(coefficient, "_CC_FIRST", coefficient._CC_START)
        assert compute_C(f) == res
        assert sizes == [17, 16, 32, 64, 128][: len(calls) + 3]


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
        # evaluates, in numpy calls of at most _CHUNK points (or one row),
        # whether the families have rows of their own or one row for all, is
        # the float track's Delta1 there, bit for bit, and the guard
        # evaluates few of the sample's points.
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
            sizes.append(np.shape(theta))
            return delta1(r, theta)

        monkeypatch.setattr(coefficient, "_guard_delta1", recorded)
        monkeypatch.setattr(coefficient, "delta1", sized)
        coefficient.min_delta1s(fams)
        assert all(rows * cols <= max(cols, coefficient._CHUNK) for rows, cols in sizes)
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
        reason="min_delta1 refines only the least of its 4,096 samples; for a narrow "
        "close pass that can be another local minimum: 0.0264745 at F ~ 1.4759, not "
        "0.0225583 at F ~ 1.9246, for 15:13, and 0.0063091, not 0.0016675, for 7:8 "
        "(ROADMAP items 5 and 9: refine every sampled local minimum with the "
        "reference refresh)",
    )
    @pytest.mark.parametrize(
        "p,q,e,which,points,reached",
        [
            (15, 13, 0.07093487512020555, 1, 2**16, 0.0225583),
            # a pass too narrow for 2**16 points (0.0018045 there)
            (7, 8, 0.1, 1, 2**20, 0.0016677),
        ],
    )
    def test_narrow_close_pass_found(self, p, q, e, which, points, reached):
        f = canonical_families(p, q, e, "retrograde")[which]
        F = np.arange(points) * (2.0 * math.pi / points)
        scanned = track_arrays(f, F)[3].min()
        assert scanned == pytest.approx(reached, rel=1e-3)
        assert min_delta1(f) <= scanned


class TestPanelMinima:
    """The panel rule's minima (_panel_minima): the local minima of the
    half period's sample, each end against its mirror neighbour, refined by
    the guard's _refine_min off the symmetry points."""

    @staticmethod
    def _minima(f):
        _, centre, sigma, twice = coefficient._panel_minima(GridFamilies.of([f]))
        return f.n_l * math.pi / f.q + centre * (math.pi / coefficient._BASE), sigma, twice

    def test_grazing_track_minima(self, monkeypatch):
        # 13:12 r e=0.05 family 2 has 13 local minima of Delta1 on
        # [F_c, F_c + pi], one of them on a symmetry point: 2*12 + 1 = 25 a
        # period.  Each is a local minimum of the float track with a height
        # above the real axis.  In a batch of three the sample goes in calls
        # of at most _CHUNK points, and each family's minima are the ones it
        # has alone.  The sample is the guard's: one (1, 2049) row of j
        # through _guard_delta1, from F_c.
        f = canonical_families(13, 12, 0.05, "retrograde")[1]
        F, sigma, twice = self._minima(f)
        fc = f.n_l * math.pi / f.q
        assert F.size == 13 and np.all(sigma > 0.0)
        assert np.count_nonzero(~twice) == 1 and 2 * np.count_nonzero(twice) + 1 == 25
        assert np.all((F >= fc) & (F <= fc + math.pi))
        d = track_arrays(f, F)[3]
        assert np.all(track_arrays(f, F - 1e-6)[3] >= d)
        assert np.all(track_arrays(f, F + 1e-6)[3] >= d)
        sizes, samples = [], []
        track, guard = coefficient.float_track, coefficient._guard_delta1

        def sized(g, x):
            sizes.append(len(g) * x.shape[1])
            return track(g, x)

        def sampled(g, j, start=0.0):
            samples.append((len(g), j.shape, np.array_equal(start, g.lpi / g.q)))
            return guard(g, j, start)

        monkeypatch.setattr(coefficient, "float_track", sized)
        monkeypatch.setattr(coefficient, "_guard_delta1", sampled)
        rows, _, batch, folds = coefficient._panel_minima(GridFamilies.of([f] * 3))
        assert samples == [(3, (1, 2049), True)]
        assert max(sizes) <= coefficient._CHUNK
        assert np.array_equal(rows, np.repeat([0, 1, 2], 13))
        assert np.array_equal(batch, np.tile(sigma, 3))
        assert np.array_equal(folds, np.tile(twice, 3))

    @pytest.mark.parametrize(
        "p,q,e,which",
        [(13, 12, 0.05, 1), (5, 7, 0.25, 0), (7, 8, 0.1, 1), (10, 9, 0.07798046698579171, 1)],
    )
    def test_half_period_minima_mirror_the_period(self, p, q, e, which):
        # The local minima of the period's sample F_c + j*2*pi/_SAMPLES,
        # taken cyclically, are those of the half period and the mirror
        # images _SAMPLES - j of the ones off the symmetry points.
        f = canonical_families(p, q, e, "retrograde")[which]
        n = coefficient._SAMPLES
        d = track_arrays(f, f.n_l * math.pi / f.q + np.arange(n) * _SAMPLE_STEP)[3]
        full = np.flatnonzero((d <= np.roll(d, 1)) & (d < np.roll(d, -1)))
        F, _, twice = self._minima(f)
        j = np.rint((F - f.n_l * math.pi / f.q) / _SAMPLE_STEP).astype(int)
        assert sorted(full) == sorted([*j % n, *(n - j[twice])])

    def test_minima_on_both_symmetry_points(self):
        # 5:7 r e=0.25 family 1 has minima exactly at F_c and F_c + pi.
        f = canonical_families(5, 7, 0.25, "retrograde")[0]
        _, centre, _, twice = coefficient._panel_minima(GridFamilies.of([f]))
        assert not twice[0] and not twice[-1] and np.all(twice[1:-1])
        assert centre[0] == 0.0 and centre[-1] == coefficient._BASE

    @pytest.mark.parametrize(
        "p,q,e,direction,which",
        [
            (5, 7, 0.25, "retrograde", 0),
            (7, 15, 0.6598103462577234, "retrograde", 0),
            (10, 9, 0.07798046698579171, "retrograde", 1),
            (3, 1, 1.0 - 3.0 ** (-2.0 / 3.0) + 1e-5, "direct", 0),
        ],
    )
    def test_least_minimum_is_min_delta1(self, p, q, e, direction, which):
        f = canonical_families(p, q, e, direction)[which]
        F, _, _ = self._minima(f)
        assert track_arrays(f, F)[3].min() == pytest.approx(min_delta1(f), rel=1e-12, abs=0.0)

    def test_finds_the_pass_the_guard_misses(self):
        # 7:8 r e=0.1 family 2: the guard's least sample leads it to 0.0063091,
        # and the panel rule refines the narrow pass at 0.0016675 as well
        # (test_narrow_close_pass_found).
        f = canonical_families(7, 8, 0.1, "retrograde")[1]
        F, _, _ = self._minima(f)
        least = track_arrays(f, F)[3].min()
        assert least == pytest.approx(0.0016675, rel=1e-4)
        assert least < min_delta1(f)


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
        # The guard (_guard_minima, which min_delta1s reads too) runs once
        # per family: the sigma-start reads the F it returns.
        calls = []
        md = coefficient.min_delta1
        guard = coefficient._guard_minima

        def counted(families):
            # each family by its constants (e, n_l*pi, n_g*pi)
            g = families if isinstance(families, GridFamilies) else GridFamilies.of(families)
            calls.extend(zip(*(c[:, 0].tolist() for c in (g.e, g.lpi, g.gpi))))
            return guard(families)

        monkeypatch.setattr(coefficient, "_guard_minima", counted)
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
