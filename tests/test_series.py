"""Series-machinery tests: polynomials in D = alpha d/dalpha applied to
Laplace coefficients against integral oracles, identities of operator
polynomials (coefficient tuples, D^0 first), the beta substitution, the
leading operator against the printed formula and a contour integral, the
leading coefficients against the quadrature and an extended-precision sum of
their series, and the finite-e C2 against the quadrature and an
extended-precision sum of its series."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import c2_series_mp, leading_c1_mp, leading_c1_operator_fractions
import rtbp_resonance.series as series
from rtbp_resonance.coefficient import compute_C
from rtbp_resonance.errors import ConvergenceError, ValidationError
from rtbp_resonance.perturbation import ResonantFamily, canonical_families
from rtbp_resonance.series import (
    beta_series,
    c2_value,
    dpoly_binomial,
    laplace_b,
    leading_coefficient,
)


def _laplace_oracle(n, alpha, order):
    """Quadrature oracle for b_n and derivatives (differentiation under the
    integral sign, so every order is its own well-conditioned quadrature)."""

    def term(j):
        if j == 0:
            f = lambda t: (1 + alpha**2 - 2 * alpha * math.cos(t)) ** -0.5
        elif j == 1:
            f = lambda t: -(alpha - math.cos(t)) * (1 + alpha**2 - 2 * alpha * math.cos(t)) ** -1.5
        else:
            f = lambda t: (
                3 * (alpha - math.cos(t)) ** 2 * (1 + alpha**2 - 2 * alpha * math.cos(t)) ** -2.5
                - (1 + alpha**2 - 2 * alpha * math.cos(t)) ** -1.5
            )
        return quad(lambda t: math.cos(n * t) * f(t), 0.0, 2 * math.pi, limit=400)[0] / math.pi

    return [term(j) for j in range(order + 1)]


class TestLaplace:
    def test_constant_mode_limit(self):
        assert laplace_b(0, 1e-6) == pytest.approx(2.0, abs=1e-11)

    def test_higher_modes_vanish(self):
        assert abs(laplace_b(2, 1e-4)) < 1e-7

    @pytest.mark.parametrize("n,alpha", [(1, (1 / 3) ** (2 / 3)), (2, 0.35), (7, 0.8)])
    def test_oracle_with_derivatives(self, n, alpha):
        # P(D) from b, b' and b'': D b = alpha b', D^2 b = alpha^2 b'' + alpha b',
        # and D (alpha b) = alpha b + alpha^2 b' (shift=1).
        b0, b1, b2 = _laplace_oracle(n, alpha, 2)
        mixed = (Fraction(3, 2), -2, Fraction(1, 3))
        cases = [
            (laplace_b(n, alpha), b0),
            (laplace_b(n, alpha, (0, 1)), alpha * b1),
            (laplace_b(n, alpha, (0, 0, 1)), alpha**2 * b2 + alpha * b1),
            (laplace_b(n, alpha, mixed), 1.5 * b0 - 2 * alpha * b1 + (alpha**2 * b2 + alpha * b1) / 3),
            (laplace_b(n, alpha, (0, 1), shift=1), alpha * b0 + alpha**2 * b1),
        ]
        for got, want in cases:
            assert got == pytest.approx(want, abs=1e-11)

    def test_domain(self):
        with pytest.raises(ValidationError):
            laplace_b(1, 1.2)

    def test_non_convergence_is_convergence_error(self):
        # A valid alpha whose series needs more than the term cap is a
        # failed computation, not bad input.
        with pytest.raises(ConvergenceError):
            laplace_b(1, 0.99999)


D = (0, 1)  # the operator D itself


def _eval(P, n) -> Fraction:
    """P(n): the eigenvalue of P(D) on alpha^n, since D(alpha^n) = n alpha^n."""
    acc = Fraction(0)
    for c in reversed(P):
        acc = acc * n + c
    return acc


def _combine(terms) -> tuple:
    """Sum of c * P over (c, P) pairs, without trailing zeros."""
    out = [Fraction(0)] * max(len(P) for _, P in terms)
    for c, P in terms:
        for k, x in enumerate(P):
            out[k] += c * x
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class TestOperatorPolynomial:
    def test_d_eigenvalue(self):
        for n in range(-3, 6):
            assert _eval(D, n) == n

    def test_binomial_identity_on_powers(self):
        # binom(D + q, k) alpha^n = binom(n + q, k) alpha^n, exactly.
        for q in (1, 3):
            for k in (0, 1, 2, 4):
                P = dpoly_binomial((q, 1), k)
                for n in range(0, 7):
                    assert _eval(P, n) == Fraction(math.comb(n + q, k))

    def test_ring_operations(self):
        D2_minus_1 = _combine([(1, series._mul(D, D)), (-1, (1,))])
        assert tuple(series._mul((1, 1), (-1, 1))) == D2_minus_1


class TestBetaSubstitution:
    def test_fixed_point_termwise(self):
        # beta solves beta = (e/2)(1 + beta^2) as a formal series.
        order = 11
        b = beta_series(order)
        b2 = [sum(b[j] * b[i - j] for j in range(i + 1)) for i in range(order + 1)]
        rhs = [Fraction(0)] * (order + 1)
        rhs[1] = Fraction(1, 2)
        for i in range(order):
            rhs[i + 1] += Fraction(1, 2) * b2[i]
        assert b == rhs

    def test_numeric_value(self):
        e = 0.3
        b_closed = (1.0 - math.sqrt(1.0 - e * e)) / e
        b_series_val = sum(float(c) * e**i for i, c in enumerate(beta_series(21)))
        assert b_series_val == pytest.approx(b_closed, abs=1e-14)


def closed_form_c1_operator(p: int, q: int) -> tuple:
    """Printed finite operator sum for the direct-family e^{|p-q|} coefficient
    of C1, without the -2*pi*q^2*(-1)^(n_g q + n_l p) prefactor.

    p < q: ((-1)^(q-p)/2^(q-p)) * sum_k binom(D+q, k) p^(q-p-k)/(q-p-k)!
    p > q: ((-1)^(p-q)/2^(p-q)) * sum_k (-1)^k binom(-D-q, k) p^(p-q-k)/(p-q-k)!
    (applied to alpha*b_q at alpha=(p/q)^(2/3), resp. b_q at alpha=(q/p)^(2/3)).
    """
    m = abs(p - q)
    X, flip = ((q, 1), 1) if p < q else ((-q, -1), -1)
    return _combine(
        [
            (Fraction((-1) ** m * flip**k * p ** (m - k), 2**m * math.factorial(m - k)),
             dpoly_binomial(X, k))
            for k in range(m + 1)
        ]
    )


_COPRIME_15 = [
    (p, q) for p in range(1, 16) for q in range(1, 16) if p != q and math.gcd(p, q) == 1
]


_COPRIME_40 = [
    (p, q) for p in range(1, 41) for q in range(1, 41) if p != q and math.gcd(p, q) == 1
]


class TestLaurentMachinery:
    @pytest.mark.parametrize("direction", ["direct", "retrograde"])
    def test_integer_numerators_match_fraction_sums(self, direction):
        # Every coprime p != q <= 40: the integer numerators over 2^m m!
        # reduce to the coefficients of the term-by-term Fraction sum.  The
        # retrograde degrees reach 79 (39:40, 40:39), past the float range of
        # laplace_b, so only this direct call covers them.
        degrees = set()
        for p, q in _COPRIME_40:
            P = series._leading_c1_operator(p, q, direction)
            assert P == leading_c1_operator_fractions(p, q, direction), (p, q)
            degrees.add(len(P) - 1)
        assert max(degrees) == (39 if direction == "direct" else 79)

    @pytest.mark.parametrize("p,q", [(p, q) for p, q in _COPRIME_15 if p < q])
    def test_interior_resonance_printed_formula(self, p, q):
        # Orbit inside the unit circle (p < q): the assembled machinery
        # reproduces the printed finite operator sum exactly.
        assert series._leading_c1_operator(p, q, "direct") == closed_form_c1_operator(p, q)

    @pytest.mark.parametrize("p,q", [(p, q) for p, q in _COPRIME_15 if p > q])
    def test_exterior_resonance_printed_formula_sign(self, p, q):
        # Orbit outside the unit circle (p > q): the printed operator sum
        # differs from the assembled machinery by exactly (-1)^(p-q); the
        # quadrature limit (below) sides with the machinery, so the printed
        # overall sign is documented here as a known discrepancy.
        P = series._leading_c1_operator(p, q, "direct")
        Q = _combine([((-1) ** (p - q), closed_form_c1_operator(p, q))])
        assert P == Q

    @pytest.mark.parametrize(
        "p,q,direction",
        [
            (1, 3, "direct"),
            (2, 7, "retrograde"),
            (5, 3, "direct"),
            (3, 2, "retrograde"),
            (4, 7, "retrograde"),
            (7, 2, "direct"),
            (5, 4, "retrograde"),
        ],
    )
    def test_matches_fourier_cauchy_oracle(self, p, q, direction):
        # The leading operator, evaluated on alpha^D (D -> an integer
        # eigenvalue), against a double contour integral of the generating
        # function whose e^m term it is; that harmonic (|k| = m) starts at e^m.
        m = abs(p - q) if direction == "direct" else p + q
        k = (p - q) if direction == "direct" else -(p + q)
        s = -1 if direction == "retrograde" else 1
        x = p / 2
        P = series._leading_c1_operator(p, q, direction)
        for d in range(q, q + m + 1):
            a, b, c = (-d, d + q, d - q) if p < q else (d, q - d, -q - d)
            want = _fourier_cauchy_coefficients(a, b, c, s, x, k, m)
            got = float(_eval(P, d))
            assert abs(got - want[m]) <= 1e-8 * abs(got)
            assert all(abs(w) <= 1e-8 * abs(got) for w in want[:m])


def _fourier_cauchy_coefficients(a, b, c, s, x, k, m):
    """e^0..e^m coefficients of the w^k coefficient of
    (1+beta^2)^a (1-beta/w)^b (1-beta w)^c exp(s x e (w - 1/w)),
    beta = (1 - sqrt(1 - e^2))/e, by the 96 x 96 trapezoid rule over e on the
    circle |e| = 0.5 and w on the unit circle (Cauchy's formula in both)."""
    t = 2.0 * np.pi * np.arange(96) / 96
    e = 0.5 * np.exp(1j * t)[:, None]
    w = np.exp(1j * t)[None, :]
    beta = (1.0 - np.sqrt(1.0 - e * e)) / e
    f = (
        (1.0 + beta * beta) ** a
        * (1.0 - beta / w) ** b
        * (1.0 - beta * w) ** c
        * np.exp(s * x * e * (w - 1.0 / w))
    )
    fk = np.mean(f * w ** (-k), axis=1)
    return [np.mean(fk * e[:, 0] ** (-i)) for i in range(m + 1)]


def _quadrature_leading(f0: ResonantFamily, e_pair=(0.002, 0.001)):
    """Richardson limit of compute_C(e)/e^m as e -> 0.

    Within one family the correction after e^m sits at e^{m+2} from the same
    harmonic plus e^{2m} from the even harmonics, so the relative error of
    C/e^m is O(e^{min(2, m)})."""
    m = abs(f0.p - f0.q) if f0.direction == "direct" else f0.p + f0.q
    if m == 1:
        e_pair = (0.002, 0.001, 0.0005)
    vals = []
    for e in e_pair:
        f = ResonantFamily(f0.p, f0.q, e, f0.n_l, f0.n_g, f0.direction)
        vals.append(compute_C(f, tol=1e-14).C / e**m)
    if m == 1:
        # two Richardson levels over a ratio-2 ladder: kill e, then e^2
        r1 = [2.0 * b - a for a, b in zip(vals, vals[1:])]
        return (4.0 * r1[1] - r1[0]) / 3.0
    r = (e_pair[0] / e_pair[1]) ** 2
    return (r * vals[1] - vals[0]) / (r - 1.0)


class TestLeadingCoefficient:
    @pytest.mark.parametrize(
        "p,q,direction,rel",
        [
            (1, 3, "direct", 1e-4),
            (1, 2, "direct", 1e-4),
            (3, 2, "direct", 1e-4),
            (2, 1, "direct", 1e-4),
            (1, 2, "retrograde", 1e-4),
            (2, 1, "retrograde", 2e-4),
        ],
    )
    def test_quadrature_limit(self, p, q, direction, rel):
        f = canonical_families(p, q, 0.1, direction)[0]
        lead = leading_coefficient(f)
        assert lead.exponent == (abs(p - q) if direction == "direct" else p + q)
        assert lead.value == pytest.approx(_quadrature_leading(f), rel=rel)

    @pytest.mark.parametrize(
        "p,q,direction",
        [
            (5, 14, "retrograde"),
            (5, 13, "retrograde"),
            (13, 11, "retrograde"),
            (1, 3, "direct"),
            (2, 7, "retrograde"),
        ],
    )
    def test_matches_extended_precision_series(self, p, q, direction):
        # Operators of degree 2 to 24: the float sum stays within a few ulps
        # of the same series summed in 40 digits.
        for f in canonical_families(p, q, 0.1, direction):
            ref = leading_c1_mp(f)
            assert abs(series.leading_c1_coefficient(f) - ref) <= 5e-15 * abs(ref)

    def test_exterior_q1_includes_tangential_term(self):
        # p = 2, q = 1: the cos(theta)/r integral contributes at the same
        # leading order e^{p-1} = e^{|p-q|}.
        f = canonical_families(2, 1, 0.1)[0]
        assert series.leading_c2_coefficient(f) != 0.0
        only_c1 = -6.0 * math.pi * f.p**2 * series.leading_c1_coefficient(f)
        assert leading_coefficient(f).value != pytest.approx(only_c1, rel=1e-3)

    def test_c2_leading_zero_unless_q1(self):
        assert series.leading_c2_coefficient(canonical_families(2, 3, 0.1)[0]) == 0.0
        assert series.leading_c2_coefficient(canonical_families(1, 3, 0.1)[0]) == 0.0

    def test_sum_to_zero_all_small_ratios(self):
        for p in range(1, 10):
            for q in range(1, 10):
                if p == q or math.gcd(p, q) != 1:
                    continue
                for direction in ("direct", "retrograde"):
                    f1, f2 = canonical_families(p, q, 0.1, direction)
                    v1 = leading_coefficient(f1).value
                    v2 = leading_coefficient(f2).value
                    assert v1 != 0.0
                    assert abs(v1 + v2) <= 1e-12 * abs(v1)

    def test_unity_ratio_rejected(self):
        with pytest.raises(ValidationError):
            ResonantFamily(1, 1, 0.1)

    def test_cached_value_is_bit_identical(self):
        # All 284 (p, q, direction) with coprime p != q <= 15: the memoized
        # -2*pi*q^2*laplace_b times the family's sign is the uncached formula
        # (-2*pi*q^2*sign)*laplace_b, since multiplying by +-1 is exact.
        resonances = 0
        for p in range(1, 16):
            for q in range(1, 16):
                if p == q or math.gcd(p, q) != 1:
                    continue
                alpha, shift = ((p / q) ** (2.0 / 3.0), 1) if p < q else ((q / p) ** (2.0 / 3.0), 0)
                for direction in ("direct", "retrograde"):
                    resonances += 1
                    P = series._leading_c1_operator(p, q, direction)
                    for f in canonical_families(p, q, 0.1, direction):
                        sign = (-1) ** (q * f.n_g + p * f.n_l)
                        c1 = -2.0 * math.pi * q * q * sign * laplace_b(q, alpha, P, shift)
                        c = -6.0 * math.pi * p**2 * (c1 + series.leading_c2_coefficient(f))
                        assert leading_coefficient(f).value.hex() == c.hex(), f
        assert resonances == 284

    def test_one_laplace_sum_per_resonance(self, monkeypatch):
        calls = []
        original = series.laplace_b

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(series, "laplace_b", counted)
        for e in (0.1, 0.3):
            for f in canonical_families(3, 5, e, "retrograde"):
                leading_coefficient(f)
        assert len(calls) == 1


class TestFiniteEccentricityC2:
    @pytest.mark.parametrize("direction", ["direct", "retrograde"])
    def test_matches_quadrature_split(self, direction):
        f = ResonantFamily(2, 1, 0.15, direction=direction)
        res = compute_C(f, tol=1e-13)
        assert c2_value(f) == pytest.approx(res.C2, abs=1e-12)

    def test_zero_for_q_not_1(self):
        assert c2_value(ResonantFamily(2, 3, 0.2)) == 0.0

    def test_unconverged_series_raises(self, monkeypatch):
        # With J = 1 the terms are (m + 1) * beta^m; beta = 0.986 at e = 0.9999
        # needs ~2,900 terms to fall below 1e-18 of the sum, past the 1000 cap.
        monkeypatch.setattr(series.mpmath, "besselj", lambda k, x: 1.0)
        with pytest.raises(ConvergenceError, match="did not converge"):
            c2_value(ResonantFamily(2, 1, 0.9999))

    @pytest.mark.parametrize(
        "p,e,direction",
        [
            (15, 0.01, "direct"),
            (15, 0.01, "retrograde"),
            (7, 0.01, "retrograde"),
            (14, 0.6, "retrograde"),
            (2, 0.9, "direct"),
        ],
    )
    def test_matches_extended_precision_series(self, p, e, direction):
        # At e = 0.01 the 15:1 direct series starts at J_14(0.15) = 2.0e-27.
        for f in canonical_families(p, 1, e, direction):
            ref = c2_series_mp(f)
            assert abs(c2_value(f) - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("direction", ["direct", "retrograde"])
    def test_large_argument(self, direction):
        # e p = 54.9, where the alternating power series of J_k cancels catastrophically.
        f = ResonantFamily(61, 1, 0.9, direction=direction)
        assert c2_value(f) == pytest.approx(compute_C(f, tol=1e-13).C2, rel=0, abs=1e-12)
