"""Numerical evaluation of the stability coefficient C(e, p, q).

C(e,p,q) = -6*pi*p^2 * (C1 + C2) with
    C1 = integral over F in [0, 2*pi) of (r/Delta1)_thetatheta
    C2 = integral over F in [0, 2*pi) of cos(theta)/r
along the resonant track.  The integrands are periodic and analytic in F,
so the uniform trapezoid rule converges geometrically, at a rate set by the
nearest complex collision.  Both are even about F_c = n_l*pi/q (the
family's reversing symmetry), so on the grid F_c + j*2*pi/n the sum over a
period is the sum over [F_c, F_c + pi] with its two end nodes counted once
and every interior node twice: an n-node level evaluates the integrands
n/2 + 1 times.  The grid is nested: each doubling evaluates the integrands
only at the new midpoints of that half period and adds them, doubled, to an
exact running sum, so every level value is the correctly rounded trapezoid
sum (the value fsum would give over the n node values) and no node value
is kept.  Every node is F_c + i*pi/n for an integer i, and the integrands
are evaluated from i with their phases reduced exactly (track_integrand
with n given; see perturbation).

With T_n = C1 + C2 on n nodes, d_n = |T_n - T_{n/2}| and
b = tol * max(1, |T_n|) (absolute for small sums, relative for the large
sums of grazing tracks, whose roundoff floor can lie above a fixed absolute
bound), doubling stops at T_n when
  - d_n^2 < b * d_{n/2}, d_n < d_{n/2}/4 and d_{n/2} < d_{n/4}/4
    (err_estimate d_n^2 / d_{n/2}), or else when
  - d_n < b (err_estimate d_n).
The first rule reads geometric convergence off two contractions in a row
and predicts the error of T_n from the ratio d_n / d_{n/2}, which saves the
last doubling, about half of a family's evaluations.  err_estimate is a
truncation error only, with no roundoff floor: on a close pass the node
values' roundoff, amplified by the cancellation between their large
positive and negative parts, can exceed it.

The collision guard takes the track's minimum Delta1 (min_delta1) from a
uniform sample, half of it for n_l = 0 by the same symmetry, refined by a
few parabolic steps on Delta1^2; no scipy is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ConvergenceError
from .perturbation import ResonantFamily, canonical_families, track_arrays, track_integrand

COLLISION_DELTA = 1e-6
# A level evaluates at most NODE_CAP / 4 new nodes, far below the 2**26 values
# per call up to which _exact_sum is exact.
NODE_CAP = 2**20
_N_START = 64
# Midpoints per integrand call: bounds a level's memory.  The exact sums are
# additive, so the result does not depend on it.
_CHUNK = 2**13
# frexp exponents of finite doubles lie in [-1073, 1024]; _EXP_OFFSET makes
# them bincount bins, and an exact sum counts units of 1 / _UNIT.
_EXP_OFFSET = 1073
_UNIT = 2 ** (_EXP_OFFSET + 53)
# min_delta1: grid samples per period, and the refinement's evaluation
# budget, least predicted relative drop of Delta1^2 and shortest step in F.
_SAMPLES = 4096
_REFINE_STEPS = 40
_REFINE_RTOL = 1e-16
_REFINE_XTOL = 1e-10
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class CoefficientResult:
    C: float
    C1: float
    C2: float
    nodes: int
    err_estimate: float
    min_delta1: float


def min_delta1(f: ResonantFamily) -> float:
    """Global minimum of Delta1 over the track: the least of _SAMPLES uniform
    samples j*2*pi/_SAMPLES, refined inside its two grid neighbours.

    Delta1 is even about F_c = n_l*pi/q.  For n_l = 0 the grid is symmetric
    about F_c = 0, so only j = 0 ... _SAMPLES/2 are evaluated; for n_l = 1 it
    is not, and all _SAMPLES are.  The grid values at j = -1 and one past the
    last sample are evaluated too, so the sampled minimum always has both
    neighbours (_refine_min).
    """
    h = 2.0 * math.pi / _SAMPLES
    last = _SAMPLES // 2 if f.n_l == 0 else _SAMPLES - 1
    F = np.arange(-1, last + 2) * h
    d1 = track_arrays(f, F)[3]
    i = 1 + int(np.argmin(d1[1:-1]))
    return _refine_min(lambda x: float(track_arrays(f, x)[3]), F[i - 1 : i + 2], d1[i - 1 : i + 2])


def _refine_min(d, x, v) -> float:
    """Least value of d found inside [x0, x2] by safeguarded successive
    parabolic steps on d^2, from the bracket x0 < x1 < x2 with values v.

    d^2 is smooth where d = Delta1 has a corner at a collision, so the
    parabola through the three best points predicts its minimum.  A step that
    is not convex or leaves the bracket is a golden-section step into the
    larger side instead.  The loop stops once the parabola predicts a drop
    of d^2 below _REFINE_RTOL of its value (d at its float resolution) or a
    step of at most _REFINE_XTOL (inside the roundoff of d, whose phase
    carries ~1e-14 absolute error), or after _REFINE_STEPS evaluations.
    """
    (a, b, c), (da, db, dc) = x.tolist(), v.tolist()
    for _ in range(_REFINE_STEPS):
        gb = db * db
        u, w = a - b, c - b
        A, C = da * da - gb, dc * dc - gb
        k = (A / u - C / w) / (u - w)  # d^2 ~ gb + s (x - b) + k (x - b)^2
        s = A / u - k * u
        t = b - 0.5 * s / k if k > 0.0 else b
        # predicted drop s^2 / 4k negligible, or a step inside the roundoff
        if k > 0.0 and (s * s <= 4.0 * k * _REFINE_RTOL * gb or abs(t - b) <= _REFINE_XTOL):
            break
        if not a < t < c or t == b:
            t = b + _GOLDEN * (w if w > -u else u)
            if t == b:
                break
        dt = d(t)
        if dt < db:
            if t < b:
                c, dc = b, db
            else:
                a, da = b, db
            b, db = t, dt
        elif t < b:
            a, da = t, dt
        else:
            c, dc = t, dt
    return db


def compute_C(f: ResonantFamily, tol: float = 1e-10) -> CoefficientResult:
    """Evaluate C(e,p,q) for one family by spectral trapezoid quadrature.

    The grid F_c + j*2*pi/n, F_c = n_l*pi/q, starts at _N_START nodes and
    doubles.  The integrands are even about F_c, so only the n/2 + 1 nodes of
    [F_c, F_c + pi] are evaluated: the two ends count once and the others
    twice.  Each doubling evaluates the n/2 new midpoints F_c + (2k+1)*pi/n
    and adds twice their sum to one exact integer sum per integrand; the level
    values round those sums once, exactly as fsum over all 2n node values
    would.  ``nodes`` is the full-period n.  It stops by either rule of the
    module docstring: a predicted error within tol * max(1, |C1 + C2|) after
    two contractions by more than 4, or successive values of C1 + C2 within
    it (an absolute tolerance below |C1 + C2| = 1, a relative one above it);
    tol = 0 never stops.

    Raises CollisionError when the track comes within COLLISION_DELTA of the
    small primary, and ConvergenceError if the node cap is hit first; both
    carry the track's minimum Delta1 as their ``min_delta1`` attribute.
    """
    md = min_delta1(f)
    if md <= COLLISION_DELTA:
        raise _with_min_delta1(
            CollisionError(f"track reaches Delta1 = {md:.3e} <= {COLLISION_DELTA} for {f}"), md
        )
    n = _N_START
    # The level's nodes F_c + j*2*pi/n, j = 0 ... n/2, are the even indices of
    # the grid F_c + i*pi/n.
    s1, s2 = (
        2 * _exact_sum(w) - _exact_sum(w[[0, -1]])
        for w in track_integrand(f, np.arange(0, n + 1, 2), n)
    )
    c1, c2 = _level(s1, s2, n)
    d_prev = d_prev2 = math.nan  # d_{n/2} and d_{n/4}; nan fails every comparison
    while True:
        if 2 * n > NODE_CAP:
            raise _with_min_delta1(
                ConvergenceError(f"quadrature did not reach tol={tol} at {n} nodes"), md
            )
        # The midpoints are the odd indices of the grid F_c + i*pi/n inside
        # (F_c, F_c + pi), each standing for itself and its mirror image;
        # they are evaluated and summed _CHUNK at a time.
        for k in range(0, n // 2, _CHUNK):
            w1, w2 = track_integrand(f, 2 * np.arange(k, min(k + _CHUNK, n // 2)) + 1, n)
            s1 += 2 * _exact_sum(w1)
            s2 += 2 * _exact_sum(w2)
        n *= 2
        prev = c1 + c2
        c1, c2 = _level(s1, s2, n)
        d = abs((c1 + c2) - prev)
        bound = tol * max(1.0, abs(c1 + c2))
        if d * d < bound * d_prev and 4.0 * d < d_prev and 4.0 * d_prev < d_prev2:
            err = d * d / d_prev
            break
        if d < bound:
            err = d
            break
        d_prev, d_prev2 = d, d_prev
    scale = -6.0 * math.pi * f.p**2
    return CoefficientResult(
        C=scale * (c1 + c2),
        C1=c1,
        C2=c2,
        nodes=n,
        err_estimate=err,
        min_delta1=md,
    )


def _exact_sum(v) -> int:
    """Exact sum of the finite doubles v, as an integer number of 1 / _UNIT.

    With frexp's exponent e, each value is (hi + lo) * 2**(e - 26), hi an
    integer with |hi| <= 2**26 and lo a multiple of 2**-27 in [0, 1); both
    splits are exact.  hi and lo are summed per exponent by bincount: for
    fewer than 2**26 values every partial sum is below 2**53 on its grid, so
    the bins are exact in any order of addition.  Bin b = e + _EXP_OFFSET
    holds (hi * 2**27 + lo * 2**27) << b units, and the bins fold into one
    Python integer.
    """
    m, e = np.frexp(v)
    e += _EXP_OFFSET
    m *= 2.0**26
    hi = np.floor(m)
    m -= hi
    his = np.bincount(e, weights=hi)
    los = np.bincount(e, weights=m)
    bins = np.flatnonzero((his != 0.0) | (los != 0.0))
    total = 0
    for b, h, lo in zip(bins.tolist(), his[bins].tolist(), (los[bins] * 2.0**27).tolist()):
        total += ((int(h) << 27) + int(lo)) << b
    return total


def _level(s1: int, s2: int, n: int):
    """Trapezoid values of (C1, C2) on an n-node grid from exact node sums.

    Python rounds int / int correctly, ties to even, so each node sum is
    rounded once to the double that fsum over the node values returns.
    """
    h = 2.0 * math.pi / n
    return h * (s1 / _UNIT), h * (s2 / _UNIT)


def _with_min_delta1(exc: Exception, md: float) -> Exception:
    exc.min_delta1 = md
    return exc


@dataclass(frozen=True)
class SweepRow:
    e: float
    C_family1: float | None
    C_family2: float | None
    min_delta1_1: float | None
    min_delta1_2: float | None
    status_1: str
    status_2: str


def _compute_C_status(f: ResonantFamily, tol: float):
    """(result, min_delta1, status) of compute_C(f, tol).

    A collision or a node cap is returned, not raised: the result is None and
    the status "collision" or "no-convergence"; otherwise the status is "ok".
    """
    try:
        res = compute_C(f, tol)
        return res, res.min_delta1, "ok"
    except CollisionError as exc:
        return None, exc.min_delta1, "collision"
    except ConvergenceError as exc:
        return None, exc.min_delta1, "no-convergence"


def _sweep_entry(task):
    p, q, direction, e, tol, which = task
    res, md, status = _compute_C_status(canonical_families(p, q, e, direction)[which], tol)
    return (None if res is None else res.C), md, status


def sweep_e(p, q, direction, e_grid, tol: float = 1e-10, map_fn=map):
    """Evaluate both canonical families over an e grid.

    Rows with collision or convergence failures are flagged in their status
    columns rather than dropped.  map_fn allows a parallel map (the worker is
    a picklable top-level function; rows stay in grid order regardless of
    schedule).
    """
    tasks = [(p, q, direction, float(e), tol, which) for e in e_grid for which in (0, 1)]
    results = list(map_fn(_sweep_entry, tasks))
    rows = []
    for i, e in enumerate(e_grid):
        (c1, d1, s1), (c2, d2, s2) = results[2 * i], results[2 * i + 1]
        rows.append(
            SweepRow(
                e=float(e),
                C_family1=c1,
                C_family2=c2,
                min_delta1_1=d1,
                min_delta1_2=d2,
                status_1=s1,
                status_2=s2,
            )
        )
    return rows

