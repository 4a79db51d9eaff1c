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

compute_Cs runs a batch of families in lockstep: all start at _N_START
nodes and double together, each leaving on its own stopping rule, node cap
or collision, so each result is the one compute_C (the one-family case)
gives alone.  A level evaluates the integrands of the families still in the
batch in one call per _CHUNK nodes (the bound is on families times indices
per call, so memory does not grow with the batch) and per block of at most
_CHUNK // _N_START = 128 families (a call's Python work is linear in its
families, so without that bound a level of a large batch would cost its
families squared times the indices over _CHUNK).  The indices are shared as
one broadcast row: sin E and cos E are then taken once per distinct (n_l, q),
e.g. one or two rows for the 34 families of a sweep over 17 e.
The call's values go through one exact-sum pass (_exact_sums), which bins
every (family, integrand) value by exponent at once and folds the bins into
a few floats per family and integrand before the Python integer sum.

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
from .perturbation import (
    GridFamilies,
    ResonantFamily,
    canonical_families,
    track_arrays,
    track_integrand,
)

COLLISION_DELTA = 1e-6
# A level evaluates at most NODE_CAP / 4 new nodes per family, summed in rows
# of at most _CHUNK values: within the 2**13 a row (_ROW) up to which
# _exact_sums' folds of 13 exponent bins are exact.
NODE_CAP = 2**20
_N_START = 64
# Nodes per integrand call across a compute_Cs batch (families times
# indices): bounds a level's memory.  At most _ROW.  A call holds at most
# _CHUNK // _N_START = 128 families (_add_node_sums).  The exact sums are
# additive, so the result does not depend on either bound.
_CHUNK = 2**13
# frexp exponents of finite doubles lie in [-1073, 1024]; _EXP_OFFSET makes
# them bit offsets, and an exact sum counts units of 1 / _UNIT.  _exact_sums
# folds _FOLD adjacent exponent bins into one float, exact for rows of at
# most _ROW values.
_EXP_OFFSET = 1073
_UNIT = 2 ** (_EXP_OFFSET + 53)
_FOLD = 13
_ROW = 2**13
_FOLD_WEIGHTS = 2.0 ** np.arange(_FOLD)
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


@dataclass
class _Track:
    """One family's state in compute_Cs: its exact node sums (units of
    1 / _UNIT), level values and last two level differences."""

    index: int
    family: ResonantFamily
    md: float
    s1: int = 0
    s2: int = 0
    c1: float = math.nan
    c2: float = math.nan
    d_prev: float = math.nan  # d_{n/2}; nan fails every comparison
    d_prev2: float = math.nan  # d_{n/4}


def compute_Cs(families, tol: float = 1e-10) -> list:
    """compute_C(f, tol) for each of the families, in lockstep.

    Every family starts at _N_START nodes and all double together: a level
    costs one integrand call and one exact-sum pass per chunk of at most
    _CHUNK nodes and at most _CHUNK // _N_START families.  The kernel's
    per-family constants (GridFamilies) are built once for the batch and cut
    to the live families whenever one leaves.  Each family leaves on its own
    stopping rule, at the node cap or at the collision guard.  The list holds,
    in the order of families, each one's CoefficientResult or the
    CollisionError or ConvergenceError compute_C would raise, whatever else is
    in the batch.
    """
    out = [None] * len(families)
    live = []
    for k, f in enumerate(families):
        md = min_delta1(f)
        if md <= COLLISION_DELTA:
            out[k] = _with_min_delta1(
                CollisionError(f"track reaches Delta1 = {md:.3e} <= {COLLISION_DELTA} for {f}"), md
            )
        else:
            live.append(_Track(k, f, md))
    grid = GridFamilies.of([t.family for t in live])  # one row per live track
    n = _N_START
    # The first level's nodes F_c + j*2*pi/n, j = 0 ... n/2, are the even
    # grid indices 0 ... n; the two ends count once, the others twice.
    doubled = np.ones(n // 2 + 1, dtype=np.int64)
    doubled[[0, -1]] = 0
    _add_node_sums(live, grid, n, 0, doubled)
    for t in live:
        t.c1, t.c2 = _level(t.s1, t.s2, n)
    while live:
        if 2 * n > NODE_CAP:
            for t in live:
                out[t.index] = _with_min_delta1(
                    ConvergenceError(f"quadrature did not reach tol={tol} at {n} nodes"), t.md
                )
            break
        # The midpoints are the odd grid indices inside (F_c, F_c + pi), each
        # standing for itself and its mirror image.
        _add_node_sums(live, grid, n, 1, np.broadcast_to(1, n // 2))
        n *= 2
        keep = []
        for k, t in enumerate(live):
            prev = t.c1 + t.c2
            t.c1, t.c2 = _level(t.s1, t.s2, n)
            d = abs((t.c1 + t.c2) - prev)
            bound = tol * max(1.0, abs(t.c1 + t.c2))
            if d * d < bound * t.d_prev and 4.0 * d < t.d_prev and 4.0 * t.d_prev < t.d_prev2:
                err = d * d / t.d_prev
            elif d < bound:
                err = d
            else:
                t.d_prev, t.d_prev2 = d, t.d_prev
                keep.append(k)
                continue
            out[t.index] = CoefficientResult(
                C=-6.0 * math.pi * t.family.p**2 * (t.c1 + t.c2),
                C1=t.c1,
                C2=t.c2,
                nodes=n,
                err_estimate=err,
                min_delta1=t.md,
            )
        if len(keep) < len(live):
            live, grid = [live[k] for k in keep], grid[keep]
    return out


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
    tol = 0 never stops.  This is the one-family case of compute_Cs.

    Raises CollisionError when the track comes within COLLISION_DELTA of the
    small primary, and ConvergenceError if the node cap is hit first; both
    carry the track's minimum Delta1 as their ``min_delta1`` attribute.
    """
    (res,) = compute_Cs([f], tol)
    if isinstance(res, Exception):
        raise res
    return res


def _add_node_sums(tracks, grid, n: int, first: int, shift):
    """Add to each track's s1 and s2 the exact sums of its two integrands at
    the grid indices first, first + 2, ..., one per entry of shift, each value
    times 2**shift.  grid holds the tracks' GridFamilies, one row per track.

    Each integrand call takes a block of at most _CHUNK // _N_START tracks
    (see the module docstring) on at most _CHUNK nodes, the indices passed as
    one broadcast row per family.
    """
    per_call = max(1, _CHUNK // _N_START)
    for a in range(0, len(tracks), per_call):
        block = tracks[a : a + per_call]
        fams = grid[a : a + per_call] if len(tracks) > per_call else grid
        step = _CHUNK // len(block)
        for b in range(0, shift.size, step):
            i = first + 2 * np.arange(b, min(b + step, shift.size))
            w1, w2 = track_integrand(fams, np.broadcast_to(i, (len(block), i.size)), n)
            sums = _exact_sums(np.concatenate((w1, w2)), shift[b : b + step])
            for t, s1, s2 in zip(block, sums, sums[len(block) :]):
                t.s1 += s1
                t.s2 += s2


def _exact_sums(v, shift=0) -> list:
    """Exact sums of the rows of v, finite doubles with at most _ROW values a
    row, each value times 2**shift (shift broadcasts along a row), as integer
    numbers of 1 / _UNIT.

    With frexp's exponent e, each value is (hi * 2**27 + lo) * 2**(e - 53),
    hi an integer with |hi| <= 2**26 and lo an integer in [0, 2**27); both
    splits are exact.  Two bincounts over all rows at once put lo in bin e
    and hi in bin e + 27 of its row, the bins cut to the exponent span of the
    call.
    Then _FOLD adjacent bins fold into one float, bin t of a fold weighted
    2**t.  A value adds to a fold at most once (its two bins are 27 apart),
    less than 2**27 * 2**(_FOLD - 1) = 2**39 in size, so N <= _ROW = 2**13
    values keep every partial sum of a fold below 2**52: the bins and folds
    are exact in any order of addition.  The few folds of a row then add up
    as Python integers, each shifted by its lowest bin.
    """
    rows = v.shape[0]
    if not v.size:
        return [0] * rows
    m, e = np.frexp(v)
    e += shift
    m *= 2.0**26
    hi = np.floor(m)
    m -= hi
    m *= 2.0**27
    low = int(e.min())
    width = -(-(int(e.max()) + 28 - low) // _FOLD) * _FOLD
    e -= low
    b = e + (np.arange(rows) * width)[:, None]
    bins = np.bincount(b.ravel(), m.ravel(), rows * width)
    b += 27
    bins += np.bincount(b.ravel(), hi.ravel(), rows * width)
    folds = (bins.reshape(rows, -1, _FOLD) @ _FOLD_WEIGHTS).astype(np.int64)
    sums = []
    for row in folds[:, ::-1].tolist():
        total = 0
        for x in row:
            total = (total << _FOLD) + x
        sums.append(total << (low + _EXP_OFFSET))
    return sums


def _exact_sum(v) -> int:
    """Exact sum of the finite doubles v, of any length, as an integer number
    of 1 / _UNIT: _exact_sums over rows of at most _ROW = 2**13 values, the
    most for which its folds of _FOLD = 13 exponent bins stay exact."""
    v = np.ravel(v)
    rows = max(1, -(-v.size // _ROW))
    padded = np.zeros((rows, -(-v.size // rows)))  # the zeros add nothing
    padded.flat[: v.size] = v
    return sum(_exact_sums(padded))


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


def quadrature_status(res) -> str:
    """Status of one compute_Cs entry: "collision" or "no-convergence" for
    its two errors, "ok" for a result."""
    if isinstance(res, CollisionError):
        return "collision"
    if isinstance(res, ConvergenceError):
        return "no-convergence"
    return "ok"


def sweep_e(p, q, direction, e_grid, tol: float = 1e-10):
    """Evaluate both canonical families over an e grid as one compute_Cs
    lockstep, in one process: its integrand calls hold at most
    _CHUNK // _N_START families each, so the time grows linearly with the grid.
    Rows with collision or convergence failures are flagged in their status
    columns rather than dropped.
    """
    grid = [float(e) for e in e_grid]
    results = compute_Cs([f for e in grid for f in canonical_families(p, q, e, direction)], tol)
    rows = []
    for e, r1, r2 in zip(grid, results[::2], results[1::2]):
        s1, s2 = quadrature_status(r1), quadrature_status(r2)
        rows.append(
            SweepRow(
                e=e,
                C_family1=r1.C if s1 == "ok" else None,
                C_family2=r2.C if s2 == "ok" else None,
                min_delta1_1=r1.min_delta1,
                min_delta1_2=r2.min_delta1,
                status_1=s1,
                status_2=s2,
            )
        )
    return rows
