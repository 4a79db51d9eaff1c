"""Closed-form leading coefficients of C(e,p,q).

The leading power of e in C(e,p,q) is m = |p-q| for direct families and p+q
for retrograde ones.  Its coefficient is assembled from two pieces:

  * Laplace coefficients b_n(alpha), the Fourier coefficients of
    (1 + alpha^2 - 2 alpha cos(theta))^(-1/2), summed as their
    hypergeometric power series in alpha;
  * a polynomial in the shift operator D = alpha d/dalpha, which transports
    the Laplace coefficients from the mean radius to the instantaneous one.

The operator is the e^m term of one harmonic of a product of two binomial
factors in beta(e) = e/2 + ..., a (1+beta^2) power and a Bessel exponential.
At that order only the lowest term of each factor survives, so it is one
finite sum over i of binom(X, i) (+-1/2)^i (+-p/2)^(m-i) / (m-i)!
(`_leading_c1_operator`).  Every term is a polynomial in D with integer
coefficients over the one denominator 2^m m!, so the sum is taken in
Python integers and reduced once: over the 138 resonances of the `coeff`
benchmark panel (m <= 29) that takes 0.012 s, against 0.27 s for the same
sum in Fraction arithmetic, and 2.3 ms at m = 75 (2-core Xeon VM).

The operator P is a plain tuple of exact Fraction coefficients, D^0 first,
with no trailing zeros, so len(P) - 1 is its degree.  Since D alpha^x =
x alpha^x, P(D) acts on the Laplace series term by term as the number P(x)
(`laplace_b`); floats enter only in that final sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .errors import ConvergenceError, ValidationError
from .perturbation import ResonantFamily

# ---------------------------------------------------------------------------
# Laplace coefficients
# ---------------------------------------------------------------------------


def laplace_b(n: int, alpha: float, P=(1,), shift: int = 0) -> float:
    """P(D) applied to alpha^shift * b_n(alpha), with D = alpha d/dalpha.

    b_n is defined by 1/sqrt(1 + alpha^2 - 2 alpha cos(theta))
    = (1/2) * sum_n b_n(alpha) exp(i n theta), i.e.
    b_n(alpha) = 2 sum_{m>=0} c_m alpha^(n+2m) with
    c_m = (1/2)_m (1/2)_(n+m) / (m! (n+m)!).

    D alpha^x = x alpha^x, so P(D) multiplies the term v alpha^x,
    x = n + 2m + shift, by the number P(x) (Horner on the float coefficients
    of P, D^0 first).  The sum stops once v x^deg(P) of the next term is
    below 1e-18 of its positive sum so far.  Requires 0 < alpha < 1.  Raises
    ConvergenceError if x^deg(P) or a coefficient of P is beyond the float
    range (retrograde leading coefficients with deg(P) = p + q >= 79 and
    p/q near 1, whose series run to large x).
    """
    n = abs(int(n))
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"laplace_b requires 0 < alpha < 1, got {alpha}")
    deg = max(len(P) - 1, 0)
    try:
        coeffs = [float(c) for c in reversed(P)]
        # c_0 = (1/2)_n / n!
        c = 1.0
        for i in range(n):
            c *= (0.5 + i) / (i + 1.0)
        v = 2.0 * c * alpha ** (n + shift)  # running term of the series of alpha^shift b_n
        total = scale = 0.0
        m = 0
        while True:
            x = n + 2 * m + shift
            Px = 0.0
            for a in coeffs:
                Px = Px * x + a
            total += v * Px
            scale += v * x**deg
            v *= (0.5 + m) * (0.5 + n + m) / ((m + 1.0) * (n + m + 1.0)) * alpha * alpha
            m += 1
            if v * (x + 2) ** deg < 1e-18 * (scale + 1.0) and m > deg + 2:
                break
            if m > 200000:
                raise ConvergenceError(f"laplace_b series did not converge at alpha={alpha}")
    except OverflowError:
        raise _float_range_error(deg, alpha) from None
    return total


def _float_range_error(deg: int, alpha: float) -> ConvergenceError:
    return ConvergenceError(
        f"laplace_b for an operator of degree {deg} leaves the float range at alpha={alpha}"
    )


# ---------------------------------------------------------------------------
# Polynomials in the operator D = alpha d/dalpha
# ---------------------------------------------------------------------------


def _mul(a, b) -> list:
    """Product of two polynomials in D given as coefficient sequences."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _binomials(P, order: int) -> list[tuple]:
    """[binom(P, 0), ..., binom(P, order)] by binom(P, n) = binom(P, n-1) (P-n+1) / n."""
    out = [(Fraction(1),)]
    for n in range(1, order + 1):
        out.append(tuple(c / n for c in _mul(out[-1], (P[0] - (n - 1), *P[1:]))))
    return out


def dpoly_binomial(P, k: int) -> tuple:
    """binom(P, k) = P (P-1) ... (P-k+1) / k! for a coefficient tuple P."""
    return _binomials(P, k)[-1]


# ---------------------------------------------------------------------------
# Formal power series in e
# ---------------------------------------------------------------------------


def beta_series(order: int) -> list[Fraction]:
    """Series of beta(e) where e = 2 beta / (1 + beta^2).

    beta = (1 - sqrt(1 - e^2)) / e is the Catalan series
    sum_n Catalan(n) (e/2)^(2n+1) = e/2 + e^3/8 + e^5/16 + ...
    """
    b = [Fraction(0)] * (order + 1)
    for i in range(1, order + 1, 2):
        n = i // 2
        b[i] = Fraction(math.comb(2 * n, n), (n + 1) * 2**i)
    return b


# ---------------------------------------------------------------------------
# Leading coefficients of C1, C2, and C
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeadingCoefficient:
    """Coefficient of e^exponent in the expansion of C(e,p,q) about e = 0."""

    family: ResonantFamily
    exponent: int
    value: float


@lru_cache(maxsize=None)
def _leading_c1_operator(p: int, q: int, direction: str) -> tuple:
    """Coefficients (D^0 first) of the polynomial in D giving the e^m
    coefficient of C1 up to the -2*pi*q^2*(sign) prefactor, from the n = +-q
    Laurent terms.

    That coefficient is the e^m term of the w^k harmonic (w = z^q, |k| = m)
    of (1+beta^2)^A (1 - beta/w)^B (1 - beta w)^C exp(s e (w - 1/w)), with
    s = p/2 (direct) or -p/2 (retrograde).  beta starts at e/2, so at order
    |k| only the lowest term of each factor survives (d'Alembert): the
    (1+beta^2)^A factor drops out and one sum over i remains,

        k < 0:  (-1)^m sum_i binom(B, i) (1/2)^i s^(m-i) / (m-i)!
        k > 0:         sum_i binom(C, i) (-1/2)^i s^(m-i) / (m-i)!

    k < 0 for retrograde families and direct ones with p < q.  Inside the
    unit circle (p < q) B = D+q; outside it the expansion is in alpha = 1/r,
    which inverts the shift operator: B = q-D and C = -q-D.

    Both sums read sign * sum_i binom(X, i) (h/2)^i (t/2)^(m-i) / (m-i)!
    with X = x0 + x1*D, h = +-1 and t = 2s.  As binom(X, i) / (m-i)! =
    X (X-1) ... (X-i+1) binom(m, i) / m!, the i-th term is the integer
    polynomial sign X (X-1) ... (X-i+1) h^i t^(m-i) binom(m, i) over the one
    denominator 2^m m!.  The numerators are summed in Python integers, O(m^2)
    operations on integers of O(m log m) bits, and each coefficient is
    reduced once, at the end.  The D^m coefficient comes from i = m alone,
    sign h^m x1^m / (2^m m!) = +-1/(2^m m!) with |h| = |x1| = 1, so the
    tuple has m + 1 entries and len - 1 is the degree.

    Memoized: the operator depends on neither e nor the family, and it is
    immutable.
    """
    m = abs(p - q) if direction == "direct" else p + q
    t = p if direction == "direct" else -p
    if direction == "direct" and p > q:
        (x0, x1), h, sign = (-q, -1), -1, 1
    else:
        (x0, x1), h, sign = ((q, 1) if p < q else (q, -1)), 1, (-1) ** m
    falling = [1]  # X (X-1) ... (X-i+1), D^0 first
    total = [0] * (m + 1)
    for i in range(m + 1):
        w = sign * h**i * t ** (m - i) * math.comb(m, i)
        for k, c in enumerate(falling):
            total[k] += c * w
        # times X - i = (x0 - i) + x1*D
        falling = [c * (x0 - i) + b * x1 for c, b in zip(falling + [0], [0, *falling])]
    den = 2**m * math.factorial(m)
    return tuple(Fraction(c, den) for c in total)


def leading_c1_coefficient(f: ResonantFamily) -> float:
    """Coefficient of e^m in C1 (m = |p-q| direct, p+q retrograde).

    It is the family's sign (-1)^(q*n_g + p*n_l) times _leading_c1_unsigned,
    which depends on (p, q, direction) alone; multiplying by +-1 is exact, so
    the value is the same as (-2*pi*q^2*sign) * laplace_b(...).
    """
    return (-1) ** (f.q * f.n_g + f.p * f.n_l) * _leading_c1_unsigned(f.p, f.q, f.direction)


@lru_cache(maxsize=None)
def _leading_c1_unsigned(p: int, q: int, direction: str) -> float:
    """-2*pi*q^2 * laplace_b(q, alpha, P, shift): the e^m coefficient of C1
    of the family with n_l = n_g = 0.

    The operator has degree m, and laplace_b runs at least m + 3 terms, so its
    stopping test forms x^m at some x >= q + 2m + 4: once that is beyond the
    float range, laplace_b's ConvergenceError is raised before the exact
    operator is built, whose cost grows faster than m^2 (2.3 ms at m = 75,
    3.5 s at m = 801 on a 2-core Xeon VM).

    Memoized: both families of a resonance, and every e, share it.  A raised
    error is not cached.
    """
    if p < q:  # P acts on alpha * b_q
        alpha, shift = (p / q) ** (2.0 / 3.0), 1
    else:
        alpha, shift = (q / p) ** (2.0 / 3.0), 0
    m = abs(p - q) if direction == "direct" else p + q
    # x >= 2**(bit_length - 1), so x^m >= 2**1024 overflows for certain
    if m * ((q + 2 * m + 4 + shift).bit_length() - 1) >= 1024:
        raise _float_range_error(m, alpha)
    P = _leading_c1_operator(p, q, direction)
    return -2.0 * math.pi * q * q * laplace_b(q, alpha, P, shift)


def leading_c2_coefficient(f: ResonantFamily) -> float:
    """Coefficient of e^m in C2; zero unless q = 1."""
    if f.q != 1:
        return 0.0
    p = f.p
    sign = (-1) ** (f.n_g + f.n_l * p)
    if f.direction == "direct":
        s = Fraction(0)
        for j in range(p):
            s += Fraction((j + 1) * p ** (p - 1 - j), math.factorial(p - 1 - j))
        return sign * 2.0 * math.pi * p ** (-2.0 / 3.0) * float(s) / 2 ** (p - 1)
    s = Fraction(p ** (p + 1), math.factorial(p + 1))
    return sign * 2.0 * math.pi * p ** (-2.0 / 3.0) * float(s) / 2 ** (p + 1)


def leading_coefficient(f: ResonantFamily) -> LeadingCoefficient:
    """Leading coefficient of C(e,p,q) = -6*pi*p^2*(C1 + C2) in powers of e."""
    m = abs(f.p - f.q) if f.direction == "direct" else f.p + f.q
    value = -6.0 * math.pi * f.p**2 * (leading_c1_coefficient(f) + leading_c2_coefficient(f))
    return LeadingCoefficient(family=f, exponent=m, value=value)


def c2_value(f: ResonantFamily) -> float:
    """Finite-e value of C2 for q = 1 from its Bessel series (zero for q != 1).

    C2 = +-2 pi (1 + beta^2) p^(-2/3) sum_m (m + 1) beta^m J_k(e p), with J_k
    from mpmath, k = p - 1 - m (direct) or p + 1 + m (retrograde) and beta =
    e / (1 + sqrt(1 - e^2)).  Raises ConvergenceError if the terms have not
    fallen below 1e-18 of the sum after 1000 of them.
    """
    if f.q != 1:
        return 0.0
    p, e = f.p, f.e
    beta = e / (1.0 + math.sqrt(1.0 - e * e))
    sign = (-1) ** (f.n_g + f.n_l * p)
    total = 0.0
    m = 0
    bm = 1.0
    while True:
        k = (p - 1 - m) if f.direction == "direct" else (m + p + 1)
        term = (m + 1) * bm * float(mpmath.besselj(k, e * p))
        total += term
        bm *= beta
        m += 1
        if m > 5 and abs(term) < 1e-18 * (abs(total) + 1e-30):
            break
        if m > 1000:
            raise ConvergenceError(f"C2 Bessel series did not converge in 1000 terms for {f}")
    return sign * 2.0 * math.pi * (1.0 + beta * beta) * p ** (-2.0 / 3.0) * total
