"""Reference implementations the tests compare the package against.

None of these is run by a CLI command; each is an independent or unfused
route to a quantity the package computes another way:

- `trapezoid_pair`: the plain (non-nested) trapezoid values of (C1, C2).
- `exact_sum`: the exact sum of any number of doubles, through the
  package's row sums (`coefficient._exact_sums`).
- `trapezoid_pair_longdouble`: the same trapezoid values from the float
  track formulas (E = q*F, theta unreduced) evaluated in numpy's long double
  (80-bit extended on x86), whose phase roundoff lies far below the float
  kernel's; `track_longdouble` and `track_integrand_longdouble` are its
  track and integrands at any F.
- `min_delta1_brent`: the minimum of Delta1 from the full 4096-point sample
  and scipy's bounded Brent search (the package's former `min_delta1`).
- `min_delta1_full`: the package's `min_delta1` from every point of its
  sample, where the package's bounded guard skips most of them.
- `compute_C_via_omega_ll`, `compute_C_via_omega_gg`: C from time integrals
  of Omega_ll and Omega_gg.  They share no code with the track quadrature
  beyond the coordinate stack and the family's initial Delaunay state:
  derivatives are taken by finite differences of the disturbing function
  `omega_polar` in Delaunay variables.
- `integrand_thetatheta`: the quadrature kernel at an arbitrary (r, theta),
  for finite-difference checks of the closed form `compute_C` runs.
- `unperturbed_flow`: the exact mu = 0 Delaunay flow.
- `rtbp_jacobian`: the 4x4 Jacobian of the full problem's vector field,
  the unfused reference for the verifier's variational equations.
- `c2_series_mp`: the Bessel series of `series.c2_value` summed in 50-digit
  mpmath arithmetic.
- `leading_c1_mp`: the Laplace series of `series.leading_c1_coefficient`
  summed in extended-precision mpmath arithmetic.
- `leading_c1_operator_fractions`: the leading operator of
  `series._leading_c1_operator` from its defining sum taken term by term in
  reduced `Fraction`s at one large integer D and read back by Kronecker
  substitution, where the package expands integer numerators over one common
  denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import fsum

import mpmath
import numpy as np
from scipy.optimize import minimize_scalar

from rtbp_resonance.coefficient import _ROW, _exact_sums, _level, _refine_min
from rtbp_resonance.errors import CollisionError, ValidationError
from rtbp_resonance.kepler import DelaunayState, true_anomaly
from rtbp_resonance.perturbation import (
    GridFamilies,
    ResonantFamily,
    _delta1_sq,
    _integrand_parts,
    delaunay_initial_state,
    delta1,
    delta1_at,
    track_arrays,
    track_integrand,
)
from rtbp_resonance.series import _leading_c1_operator
from rtbp_resonance.verifier import _primary_forces

TWO_PI = 2.0 * math.pi
# Default time nodes and finite-difference step of the Omega_ll / Omega_gg
# oracles, and the Newton steps of their Kepler solve.
_ORACLE_NODES = 2048
_ORACLE_STEP = 2e-2
_KEPLER_NEWTON_STEPS = 12
# Nodes per long double evaluation: bounds the oracle's memory.
_LONGDOUBLE_CHUNK = 2**16


def trapezoid_pair(f: ResonantFamily, n: int, shift: float = 0.0):
    """Periodic trapezoid values of (C1, C2) on the n-node uniform F grid
    shift + j*2*pi/n, j = 0 ... n-1."""
    F = shift + np.arange(n) * (2.0 * math.pi / n)
    return _level(*map(exact_sum, track_integrand(f, F)), n)


def exact_sum(v) -> int:
    """Exact sum of the finite doubles v, of any length, as an integer number
    of 1 / _UNIT: the package's _exact_sums over rows of at most _ROW = 2**13
    values, the most for which its folds of 13 exponent bins stay exact."""
    v = np.ravel(v)
    rows = max(1, -(-v.size // _ROW))
    padded = np.zeros((rows, -(-v.size // rows)))  # the zeros add nothing
    padded.flat[: v.size] = v
    return sum(_exact_sums(padded))


def trapezoid_pair_longdouble(f: ResonantFamily, n: int):
    """(C1, C2) of the n-node grid F_c + j*2*pi/n, F_c = n_l*pi/q, summed in
    long double from the float track formulas of `track_arrays` with the
    family's float e and semimajor axis as inputs, rounded to float at the end."""
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    sums = [ld(0), ld(0)]
    for start in range(0, n, _LONGDOUBLE_CHUNK):
        j = np.arange(start, min(start + _LONGDOUBLE_CHUNK, n)).astype(ld)
        for k, w in enumerate(track_integrand_longdouble(f, f.n_l * pi / f.q + j * (2 * pi / n))):
            sums[k] += np.sum(w)
    return tuple(float(s * (2 * pi / n)) for s in sums)


def track_longdouble(f: ResonantFamily, F):
    """(r, theta) at the long double values F, from the float track formulas
    of `track_arrays` in long double with the family's float e and
    semimajor axis as inputs."""
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    e, a, ratio = ld(f.e), ld(f.semimajor_axis), ld(f.p) / ld(f.q)
    beta = e / (1 + np.sqrt(1 - e * e))
    E = f.q * F
    sinE, cosE = np.sin(E), np.cos(E)
    t = (E - e * sinE - f.n_l * pi) * ratio
    if f.retrograde:
        t = -t
    theta = E + 2 * np.arctan(beta * sinE / (1 - beta * cosE)) + f.n_g * pi - t
    return a * (1 - e * cosE), theta


def track_integrand_longdouble(f: ResonantFamily, F):
    """The two integrands of `track_integrand` at the long double values F
    (track_longdouble)."""
    r, theta = track_longdouble(f, F)
    half = theta / 2
    sh = np.sin(half)
    sh2 = sh * sh
    s2 = (2 * sh * np.cos(half)) ** 2
    return _integrand_parts(r, sh2, s2, _delta1_sq(r, sh2))


def min_delta1_brent(f: ResonantFamily) -> float:
    """Least of Delta1 on the grid j*2*pi/4096, j = 0 ... 4095, refined by
    scipy's bounded Brent search inside the argmin's two grid neighbours."""
    n = 4096
    F = np.arange(n) * (2.0 * math.pi / n)
    _, _, _, d1 = track_arrays(f, F)
    i = int(np.argmin(d1))
    h = 2.0 * math.pi / n

    def d(Fv):
        return track_arrays(f, Fv)[3]

    res = minimize_scalar(
        d, bounds=(F[i] - h, F[i] + h), method="bounded", options={"xatol": 1e-10}
    )
    return float(min(res.fun, d1[i]))


def min_delta1_full(f: ResonantFamily) -> float:
    """The least of Delta1 on the grid j*2*pi/4096, j = 0 ... 2048 (n_l = 0)
    or 0 ... 4095 (n_l = 1), every sample evaluated by `track_arrays`, refined
    by the package's `_refine_min` inside the least one's two grid
    neighbours (the first least on a tie, as np.argmin takes it)."""
    n = 4096
    h = 2.0 * math.pi / n
    top = n // 2 if f.n_l == 0 else n - 1
    d1 = track_arrays(f, np.arange(-1, top + 2) * h)[3]  # d1[i] is the sample j = i - 1
    i = 1 + int(np.argmin(d1[1:-1]))
    x = [(j - 1) * h for j in (i - 1, i, i + 1)]
    return _refine_min(delta1_at(GridFamilies.of([f]))[0], x, d1[i - 1 : i + 2].tolist())[1]


def omega_polar(r, theta):
    """Disturbing function 1/Delta1 - cos(theta)/r^2 - 1/r."""
    d = delta1(r, theta)
    if np.any(d == 0.0) or np.any(np.asarray(r) <= 0.0):
        raise CollisionError("disturbing function evaluated at a collision")
    return 1.0 / d - np.cos(theta) / (r * r) - 1.0 / r


def integrand_thetatheta(r, theta):
    """(r/Delta1)_thetatheta + cos(theta)/r with r held fixed."""
    half = 0.5 * np.asarray(theta)
    sh = np.sin(half)
    d2 = _delta1_sq(r, sh * sh)
    if not np.all(d2 > 0.0) or np.any(np.asarray(r) <= 0.0):
        raise CollisionError("integrand evaluated at a collision")
    c1, c2 = _integrand_parts(r, sh * sh, (2.0 * sh * np.cos(half)) ** 2, d2)
    return c1 + c2


def _eccentric_anomaly(l, e: float):
    """E - e*sin(E) = l for an array of l: Newton from E = pi within each
    2*pi period of l, which converges for every 0 <= e < 1; its fixed steps
    reach roundoff for e <= 0.99."""
    l = np.asarray(l, dtype=float)
    E = l - np.mod(l, TWO_PI) + math.pi
    for _ in range(_KEPLER_NEWTON_STEPS):
        E = E - (E - e * np.sin(E) - l) / (1.0 - e * np.cos(E))
    return E


def omega_delaunay(L: float, G: float, l, g):
    """Disturbing function as a function of the Delaunay variables (l, g arrays)."""
    e = math.sqrt(max(0.0, 1.0 - G * G / (L * L)))
    E = _eccentric_anomaly(l, e)
    r = L * L * (1.0 - e * np.cos(E))
    return omega_polar(r, true_anomaly(E, e) + g)


def _second_derivative(fun, x, h):
    """Central second difference with two Richardson steps (O(h^6))."""
    f0 = fun(x)
    d2 = lambda hh: (fun(x + hh) - 2.0 * f0 + fun(x - hh)) / (hh * hh)
    a, b, c = d2(h), d2(h / 2.0), d2(h / 4.0)
    ab = (4.0 * b - a) / 3.0
    bc = (4.0 * c - b) / 3.0
    return (16.0 * bc - ab) / 15.0


def _time_integral(f: ResonantFamily, integrand, nodes: int) -> float:
    """Trapezoid integral over one period T = 2*pi*p of integrand(L, G, l, g)
    on `nodes` equal time steps along the mu = 0 family, whose angles advance
    from their initial values as l' = +-q/p and g' = -1."""
    d = delaunay_initial_state(f)
    sign = -1.0 if f.retrograde else 1.0
    T = 2.0 * math.pi * f.p
    ts = np.arange(nodes) * (T / nodes)
    vals = integrand(d.L, d.G, d.l + sign * f.q * ts / f.p, d.g - ts)
    return (T / nodes) * fsum(vals.tolist())


def compute_C_via_omega_ll(f: ResonantFamily, nodes=_ORACLE_NODES, step=_ORACLE_STEP) -> float:
    """C from the time integral of Omega_ll (finite-difference oracle)."""

    def omega_ll(L, G, l, g):
        return _second_derivative(lambda ll: omega_delaunay(L, G, ll, g), l, step)

    scale = -6.0 * math.pi * f.q ** (4.0 / 3.0) / f.p ** (1.0 / 3.0)
    return scale * _time_integral(f, omega_ll, nodes)


def compute_C_via_omega_gg(f: ResonantFamily, nodes=_ORACLE_NODES, step=_ORACLE_STEP) -> float:
    """C from the time integral of Omega_gg (finite-difference oracle)."""

    def omega_gg(L, G, l, g):
        return _second_derivative(lambda gg: omega_delaunay(L, G, l, gg), g, step)

    scale = -6.0 * math.pi * f.p ** (5.0 / 3.0) / f.q ** (2.0 / 3.0)
    return scale * _time_integral(f, omega_gg, nodes)


def unperturbed_flow(s: DelaunayState, t: float) -> DelaunayState:
    """Exact mu=0 flow: ldot = L^-3, gdot = -1, L and G constant.

    Angles are reduced mod 2*pi (this is an API-boundary operation).
    """
    if s.L == 0.0:
        raise ValidationError("L = 0")
    return DelaunayState(L=s.L, G=s.G, l=(s.l + t / s.L**3) % TWO_PI, g=(s.g - t) % TWO_PI)


def rtbp_jacobian(s, mu: float) -> np.ndarray:
    """4x4 Jacobian of the full problem's vector field at the state s
    (p_x, p_y, x, y), for propagating variational equations."""
    _, _, x, y = np.asarray(s, dtype=float)[:4].tolist()
    _, _, gxx, gxy, gyy = _primary_forces(x, y, mu)
    return np.array(
        [
            [0.0, 1.0, gxx, gxy],
            [-1.0, 0.0, gxy, gyy],
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, -1.0, 0.0],
        ]
    )


def c2_series_mp(f: ResonantFamily) -> float:
    """C2 of a q = 1 family from the series of `series.c2_value` in 50 digits.

    beta and e p are formed in 50 digits from the exact float e, and the sum
    runs until it is past the largest |J_k| (m > 2p) and a term falls below
    1e-50 of it.
    """
    p = f.p
    with mpmath.workdps(50):
        e = mpmath.mpf(f.e)
        beta = (1 - mpmath.sqrt(1 - e * e)) / e
        total = mpmath.mpf(0)
        m = 0
        while True:
            k = (p - 1 - m) if f.direction == "direct" else (m + p + 1)
            term = (m + 1) * beta**m * mpmath.besselj(k, e * p)
            total += term
            m += 1
            if m > 2 * p and abs(term) < mpmath.mpf("1e-50") * abs(total):
                break
        sign = (-1) ** (f.n_g + f.n_l * p)
        return float(sign * 2 * mpmath.pi * (1 + beta**2) * mpmath.cbrt(p) ** -2 * total)


def leading_c1_mp(f: ResonantFamily, dps: int = 40) -> float:
    """Coefficient of e^m in C1 from the series of `series.laplace_b`, summed
    in dps digits.

    alpha is the package's float alpha.  Each term 2 c_m P(x) alpha^x,
    x = q + 2m + shift, takes P(x) exactly in Fractions; the sum runs until
    the bound v x^deg(P) on the next term falls below 10^-dps of the positive
    sum of v x^deg(P), v being the term without P.
    """
    p, q = f.p, f.q
    P = _leading_c1_operator(p, q, f.direction)
    shift, alpha = (1, (p / q) ** (2.0 / 3.0)) if p < q else (0, (q / p) ** (2.0 / 3.0))
    deg = len(P) - 1
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        eps = mpmath.mpf(10) ** -dps
        v = 2 * a ** (q + shift)
        for i in range(q):
            v *= mpmath.mpf(2 * i + 1) / (2 * i + 2)
        total = scale = mpmath.mpf(0)
        m = 0
        while True:
            x = q + 2 * m + shift
            Px = sum(c * x**k for k, c in enumerate(P))
            total += v * Px.numerator / Px.denominator
            scale += v * x**deg
            v *= mpmath.mpf((2 * m + 1) * (2 * q + 2 * m + 1)) / (4 * (m + 1) * (q + m + 1)) * a * a
            m += 1
            if v * (x + 2) ** deg < eps * scale and m > deg + 2:
                break
        sign = (-1) ** (q * f.n_g + p * f.n_l)
        return float(-2 * mpmath.pi * q * q * sign * total)


def leading_c1_operator_fractions(p: int, q: int, direction: str) -> tuple:
    """The coefficients (D^0 first, no trailing zeros) of
    `series._leading_c1_operator`, from its defining sum over i of
    binom(X, i) (+-1/2)^i (+-p/2)^(m-i) / (m-i)!, with X = D+q, q-D or -q-D
    as there, without expanding a polynomial in D.

    binom(X, i) = X (X-1) ... (X-i+1) / i!, so term i is the reduced
    Fraction v_i = (+-1/2)^i (+-p/2)^(m-i) / ((m-i)! i!) times that falling
    factorial.  With L the least common denominator of the v_i, L times the
    sum is a polynomial in D with integer coefficients; the sum is taken
    term by term in Fractions at D = 2^K, where each falling factorial is an
    integer, and 2^(K-1) above the size of every coefficient makes them the
    balanced base-2^K digits of the value (Kronecker substitution: von zur
    Gathen and Gerhard, *Modern Computer Algebra*, sec. 8.4).  That is m + 1
    Fraction terms, where an expanded sum takes about m^2 / 2.  The size
    bound takes the l1 norm of X - j as 1 + |x0 - j|.
    """
    m = abs(p - q) if direction == "direct" else p + q
    t = p if direction == "direct" else -p
    if direction == "direct" and p > q:
        (x0, x1), h, sign = (-q, -1), -1, 1
    else:
        (x0, x1), h, sign = ((q, 1) if p < q else (q, -1)), 1, (-1) ** m
    v = [
        Fraction(sign * h**i * t ** (m - i), 2**m * math.factorial(m - i) * math.factorial(i))
        for i in range(m + 1)
    ]
    scale = math.lcm(*(c.denominator for c in v))
    # |L v_i| times the l1 norm of X (X-1) ... (X-i+1), in bits, at most
    bits, norm = 0, 1
    for i, c in enumerate(v):
        bits = max(bits, abs(c.numerator).bit_length() - c.denominator.bit_length() + 1
                   + scale.bit_length() + norm.bit_length())
        norm *= 1 + abs(x0 - i)
    K = bits + (m + 1).bit_length() + 1
    X = x0 + x1 * 2**K
    value, falling = Fraction(0), 1
    for i, c in enumerate(v):
        value += c * scale * falling
        falling *= X - i
    assert value.denominator == 1
    n, out, B = value.numerator, [], 2**K
    while n:
        d = n & (B - 1)  # n mod B, also for negative n
        d -= B if d >= B >> 1 else 0
        out.append(Fraction(d, scale))
        n = (n - d) >> K
    return tuple(out)
