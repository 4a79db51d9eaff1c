"""Disturbing-function and resonant-track tests."""

import math

import mpmath
import numpy as np
import pytest

from oracles import integrand_thetatheta, omega_polar, track_longdouble
from rtbp_resonance.coefficient import NODE_CAP, compute_C
from rtbp_resonance.errors import CollisionError, ValidationError
from rtbp_resonance.perturbation import (
    GridFamilies,
    ResonantFamily,
    _grid_track,
    canonical_families,
    delaunay_initial_state,
    delta1,
    float_track,
    track_arrays,
    track_integrand,
)

_COPRIME = [
    (p, q) for p in range(1, 16) for q in range(1, 16) if p != q and math.gcd(p, q) == 1
]


class TestResonantFamily:
    def test_coprimality(self):
        with pytest.raises(ValidationError):
            ResonantFamily(2, 4, 0.1)

    def test_unity_ratio_excluded(self):
        with pytest.raises(ValidationError):
            ResonantFamily(1, 1, 0.1)

    def test_eccentricity_bounds(self):
        for e in (0.0, 1.0, -0.2):
            with pytest.raises(ValidationError):
                ResonantFamily(1, 3, e)

    def test_canonical_form(self):
        with pytest.raises(ValidationError):
            ResonantFamily(1, 3, 0.1, n_l=0, n_g=1)  # odd p needs n_g = 0
        with pytest.raises(ValidationError):
            ResonantFamily(2, 3, 0.1, n_l=1, n_g=0)  # even p needs n_l = 0

    def test_siblings(self):
        f1, f2 = canonical_families(1, 3, 0.2)
        assert (f1.n_l, f1.n_g) == (0, 0) and (f2.n_l, f2.n_g) == (1, 0)
        g1, g2 = canonical_families(2, 7, 0.2)
        assert (g1.n_l, g1.n_g) == (0, 0) and (g2.n_l, g2.n_g) == (0, 1)
        assert f2.sibling() == f1

    def test_semimajor_axis(self):
        assert ResonantFamily(2, 7, 0.1).semimajor_axis == pytest.approx((2 / 7) ** (2 / 3))

    def test_initial_delaunay(self):
        f = ResonantFamily(1, 2, 0.2, direction="retrograde")
        s = delaunay_initial_state(f)
        assert s.L == pytest.approx(-((0.5) ** (1 / 3)))
        assert s.G == pytest.approx(s.L * math.sqrt(1 - 0.04))


class TestOmega:
    def test_opposition(self):
        assert omega_polar(2.0, math.pi) == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_conjunction(self):
        assert omega_polar(2.0, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_collision(self):
        with pytest.raises(CollisionError):
            omega_polar(1.0, 0.0)


def _fd_thetatheta(r, theta, h=1e-2):
    def f(th):
        return r / math.sqrt(1.0 + r * r - 2.0 * r * math.cos(th))

    def d2(hh):
        return (f(theta + hh) - 2.0 * f(theta) + f(theta - hh)) / (hh * hh)

    a, b, c = d2(h), d2(h / 2.0), d2(h / 4.0)
    ab = (4.0 * b - a) / 3.0
    bc = (4.0 * c - b) / 3.0
    return (16.0 * bc - ab) / 15.0


class TestDelta1:
    @pytest.mark.parametrize(
        "r,theta",
        [
            (1.0 + 1e-6, 1e-6),
            (1.0 - 1e-6, 1e-6),
            (1.0 + 1e-6, -1e-6),
            (1.0 - 1e-6, -1e-6),
            (1.0 + 1e-6, 0.0),
            (1.0 - 1e-6, 0.0),
            (1.0, 1e-6),
            (0.5, 0.3),
            (1.7, 2.4),
            (0.93, -5.1),
            (2.5, 40.0),
        ],
    )
    def test_matches_50_digit_value(self, r, theta):
        # 1 + r^2 - 2 r cos(theta) cancels at r ~ 1, theta ~ 0; the computed
        # form must not lose digits there.
        with mpmath.workdps(50):
            ref = mpmath.sqrt(1 + mpmath.mpf(r) ** 2 - 2 * r * mpmath.cos(mpmath.mpf(theta)))
            got = delta1(r, theta)
            assert abs((got - ref) / ref) <= 4e-16


class TestIntegrand:
    @pytest.mark.parametrize("r,theta", [(2.0, 0.0), (2.0, math.pi), (0.7, 1.1), (1.6, 2.4)])
    def test_finite_difference_oracle(self, r, theta):
        expected = _fd_thetatheta(r, theta) + math.cos(theta) / r
        assert integrand_thetatheta(r, theta) == pytest.approx(expected, abs=1e-8)

    def test_oracle_grid(self):
        for r in np.linspace(0.3, 2.5, 9):
            for theta in np.linspace(0.3, 2 * math.pi - 0.3, 11):
                if abs(math.hypot(r * math.cos(theta) - 1.0, r * math.sin(theta))) < 0.15:
                    continue
                expected = _fd_thetatheta(r, theta) + math.cos(theta) / r
                assert integrand_thetatheta(r, theta) == pytest.approx(expected, abs=1e-8)

    def test_even_in_theta(self):
        for r, theta in [(0.8, 0.9), (1.7, 2.2)]:
            assert integrand_thetatheta(r, theta) == integrand_thetatheta(r, -theta)

    def test_collision(self):
        with pytest.raises(CollisionError):
            integrand_thetatheta(1.0, 0.0)


class TestTrack:
    def test_perihelion_start(self):
        r, theta, t, _ = track_arrays(ResonantFamily(1, 3, 0.3), 0.0)
        assert t == 0.0 and theta == 0.0
        assert r == pytest.approx((1 / 3) ** (2 / 3) * 0.7)

    def test_shifted_family_start(self):
        r, theta, t, _ = track_arrays(ResonantFamily(1, 3, 0.3, n_l=1), 0.0)
        assert t == pytest.approx(-math.pi / 3)
        assert theta == pytest.approx(math.pi / 3)

    def test_retrograde_start(self):
        r, theta, t, _ = track_arrays(ResonantFamily(1, 3, 0.3, direction="retrograde"), 0.0)
        assert t == 0.0 and theta == 0.0
        assert r == pytest.approx((1 / 3) ** (2 / 3) * 0.7)

    def test_batched_float_track_rows_match_track_arrays(self):
        # A batch of both directions, n_l and n_g each 0 and 1, and q = 1, 3
        # and 7, each shared by several families: as a broadcast row of F per
        # family, as a single (1, N) row for all, and as one row of its own
        # per family, every row is track_arrays of its family, bit for bit.
        fams = [
            f
            for p, q in ((3, 1), (1, 3), (2, 3), (3, 7), (2, 7))
            for direction in ("direct", "retrograde")
            for f in canonical_families(p, q, 0.4, direction)
        ]
        F = np.linspace(0.0, 2.0 * math.pi, 9)  # F[4] is pi
        shared = np.broadcast_to(F, (len(fams), F.size))
        own = F + 0.01 * np.arange(len(fams))[:, None]
        for given, rows in ((shared, shared), (F[None, :], shared), (own, own)):
            got = float_track(fams, given)
            assert all(x.shape == rows.shape for x in got)
            for f, Ff, *row in zip(fams, rows, *got):
                for a, b in zip(row, track_arrays(f, Ff)[:3]):
                    assert a.tobytes() == b.tobytes(), f
        # The retrograde n_l = 1 row of 3:1 at F = pi has l = n_l*pi, so
        # t = (l - n_l*pi)*(-p)/q is -0.0 where (n_l*pi - l)*p/q is +0.0.
        f = ResonantFamily(3, 1, 0.4, n_l=1, direction="retrograde")
        t = float_track(fams, shared)[2][fams.index(f), 4]
        l = math.pi - f.e * math.sin(math.pi)
        assert l == math.pi
        assert t == (math.pi - l) * f.p / f.q and math.copysign(1.0, t) == -1.0

    @pytest.mark.parametrize("direction", ["direct", "retrograde"])
    @pytest.mark.parametrize("p,q", [(1, 3), (2, 7), (3, 2)])
    def test_closure_after_full_period(self, p, q, direction):
        f = ResonantFamily(p, q, 0.21, direction=direction)
        F = np.linspace(0.0, 1.9, 7)
        r1, th1, _, d1 = track_arrays(f, F)
        r2, th2, _, d2 = track_arrays(f, F + 2.0 * math.pi)
        winding = 2.0 * math.pi * ((q - p) if direction == "direct" else (q + p))
        assert np.max(np.abs(r2 - r1)) <= 1e-12
        assert np.max(np.abs(d2 - d1)) <= 1e-12
        assert np.max(np.abs(th2 - th1 - winding)) <= 1e-10

    @pytest.mark.parametrize("e", [0.05, 0.3, 0.6, 0.85])
    @pytest.mark.parametrize("direction", ["direct", "retrograde"])
    def test_integrands_even_about_symmetry_point(self, direction, e):
        # Reversing symmetry: both integrands are even about F_c = n_l*pi/q,
        # which the half-period quadrature relies on.  Roundoff in the phase
        # theta, amplified by 1/Delta1 on close passes, is the only difference.
        u = np.linspace(0.0, math.pi, 513)[1:]
        for p, q in _COPRIME:
            for f in canonical_families(p, q, e, direction):
                Fc = f.n_l * math.pi / q
                scale = 1e-12 / min(1.0, float(np.min(track_arrays(f, Fc + u)[3])))
                for a, b in zip(track_integrand(f, Fc + u), track_integrand(f, Fc - u)):
                    assert np.max(np.abs(a - b)) <= scale * np.max(np.abs(a)), f

    @pytest.mark.parametrize("e", [0.05, 0.4, 0.8])
    def test_grid_kernel_matches_float_kernel(self, e):
        # The integer-phase kernel on the nodes F_c + i*pi/n against the float
        # kernel at the same F over one period.  The difference is the float
        # phases' roundoff (up to (p + q)*pi), amplified on close passes.
        n = 1024
        i = np.arange(2 * n)
        for p, q in _COPRIME:
            if max(p, q) > 11:
                continue
            for direction in ("direct", "retrograde"):
                for f in canonical_families(p, q, e, direction):
                    F = f.n_l * math.pi / q + i * (math.pi / n)
                    for a, b in zip(track_integrand(f, F), track_integrand([f], i[None], n)):
                        assert np.max(np.abs(a - b[0])) <= 1e-11 * np.max(np.abs(a)), f

    def test_off_grid_kernel_at_x_zero_is_the_grid_kernel(self):
        # With x = 0 the off-grid kernel (the panel rule's) gives the grid
        # nodes' r bit for bit wherever the reduced index of E/2 stays below
        # n, and tan(theta/2) wherever that of theta/2 does too.  Elsewhere it
        # reduces the half phases about 0 instead of pi/2, so they differ
        # from the grid kernel's by their rounding only, as does r - 1 formed
        # as (a - 1) - a*e*cos(E).
        n = 1024
        i = np.arange(-n, 3 * n)[None]
        for p, q in _COPRIME:
            if max(p, q) > 11:
                continue
            for direction in ("direct", "retrograde"):
                for f in canonical_families(p, q, 0.4, direction):
                    g = GridFamilies.of([f])
                    r, r1, tau = _grid_track(g, i, n)
                    r0, r10, tau0 = _grid_track(g, i, n, np.zeros(i.shape))
                    same_E = (g.n_l * n + g.q * i) % (2 * n) < n
                    kept = same_E & ((g.turns * n + g.k * i) % (2 * n) < n)
                    assert np.array_equal(r0[same_E], r[same_E]), f
                    assert kept.any() and np.array_equal(tau0[kept], tau[kept]), f
                    assert np.max(np.abs(r0 - r) / r) <= 1e-15, f
                    turn = np.arctan(tau0) - np.arctan(tau)
                    turn -= math.pi * np.round(turn / math.pi)
                    assert np.max(np.abs(turn)) <= 4e-15, f
                    assert np.max(np.abs(r10 - r1) / np.maximum(1.0, r)) <= 1e-15, f

    def test_off_grid_kernel_matches_longdouble_track(self):
        # Random off-grid nodes F_c + (i + x)*pi/2^20 over a period, on
        # grazing (the first four) and smooth tracks: the kernel's theta/2
        # (mod pi) and r - 1 are within 1e-15 of the long double track
        # formulas at the same F.  The float track at the float F is up to
        # 5e-14 and 3e-14 off.
        base = 2**20
        rng = np.random.default_rng(33)
        cases = [
            (5, 7, 0.25, "retrograde", 0),
            (7, 15, 0.6598103462577234, "retrograde", 0),
            (7, 8, 0.1, "retrograde", 1),
            (10, 9, 0.07798046698579171, "retrograde", 1),
            (1, 3, 0.3, "direct", 0),
            (3, 1, 0.5, "direct", 1),
            (13, 14, 0.8, "retrograde", 1),
        ]
        pi = 4 * np.arctan(np.longdouble(1))
        for p, q, e, direction, which in cases:
            f = canonical_families(p, q, e, direction)[which]
            i = rng.integers(-base, 3 * base, 2000)
            x = rng.uniform(-0.5, 0.5, i.size)
            r, theta = track_longdouble(f, f.n_l * pi / q + (i.astype(np.longdouble) + x) * (pi / base))
            _, r1, tau = _grid_track([f], i[None], base, x[None])
            turn = np.arctan(tau[0]) - theta / 2
            assert np.max(np.abs(turn - pi * np.round(turn / pi))) <= 1e-15, f
            assert np.max(np.abs(r1[0] - (r - 1))) <= 1e-15, f

    def test_grazing_track_converges_on_panels(self):
        # 13:12 retrograde e=0.05 family 2 has 25 local minima of Delta1 a
        # period: it leaves the trapezoid for 25 panels and converges well
        # inside the node cap, at the long double trapezoid sum at 2^20 nodes
        # (0.02156169684151535) within tol; C2 of the q >= 2 family is 0.0.
        f = canonical_families(13, 12, 0.05, "retrograde")[1]
        res = compute_C(f)
        assert res.rule == "panels" and res.C2 == 0.0
        assert res.nodes % 25 == 0 and res.nodes < NODE_CAP
        assert res.C1 == pytest.approx(0.02156169684151535, rel=0, abs=1e-10)

    @pytest.mark.parametrize("e", [0.05, 0.4, 0.8])
    def test_grid_kernel_finite_at_tangent_poles(self, e):
        # The grid kernel takes tan(E/2) and tan(theta/2).  For odd q and
        # n_l = 0 the end node i = n of every level has E = pi, the pole of
        # tan(E/2); for n_l + n_g = 1 the node i = 0 has theta/2 = pi/2 up to
        # roundoff, the pole of tan(theta/2).  Both give finite values within
        # the bound of test_grid_kernel_matches_float_kernel.
        i = np.arange(2048)
        for p, q in _COPRIME:
            if max(p, q) > 11:
                continue
            for direction in ("direct", "retrograde"):
                for f in canonical_families(p, q, e, direction):
                    Fc = f.n_l * math.pi / q
                    period = track_integrand(f, Fc + i * (math.pi / 1024))
                    scale = [np.max(np.abs(a)) for a in period]
                    ends = track_integrand(f, Fc + np.array([0.0, math.pi]))
                    for n in [2**k for k in range(6, 21)]:
                        if f.n_l + f.n_g == 1:
                            tau = _grid_track([f], np.zeros((1, 1), np.int64), n)[-1]
                            assert abs(tau[0, 0]) > 1e15
                        grid = track_integrand([f], np.array([[0, n]]), n)
                        for a, b, s in zip(ends, grid, scale):
                            assert np.all(np.isfinite(b)), f
                            assert np.max(np.abs(a - b[0])) <= 1e-11 * s, (f, n)

    def test_grid_kernel_raises_at_collision(self):
        # 3:1 at e = 1 - 1/a, where a*(1 - e) rounds to 1: the node i = 0
        # (E = 0, theta = 0) lies on the small primary, so Delta1^2 = 0 there.
        a = ResonantFamily(3, 1, 0.5).semimajor_axis
        f = ResonantFamily(3, 1, 1.0 - 1.0 / a)
        assert a * (1.0 - f.e) == 1.0
        with pytest.raises(CollisionError):
            track_integrand([f], np.arange(3)[None], 64)
        with pytest.raises(CollisionError):
            track_integrand(f, np.zeros(1))

    @pytest.mark.parametrize("n", [0, 3, 96])
    def test_grid_kernel_needs_power_of_two(self, n):
        # the phases are reduced by a mask, which is a modulus only for 2^k
        with pytest.raises(ValidationError):
            track_integrand([ResonantFamily(1, 3, 0.3)], np.arange(4)[None], n)

    def test_theta_continuous(self):
        f = ResonantFamily(2, 7, 0.4)
        F = np.linspace(0.0, 2.0 * math.pi, 4001)
        _, theta, _, _ = track_arrays(f, F)
        assert np.max(np.abs(np.diff(theta))) < 0.1

    @pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 3), (2, 7), (3, 1)])
    def test_track_avoids_small_primary_at_moderate_e(self, p, q):
        from rtbp_resonance.coefficient import min_delta1

        for e in (0.05, 0.1, 0.2):
            for f in canonical_families(p, q, e):
                assert min_delta1(f) > 0.0
