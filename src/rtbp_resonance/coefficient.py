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
are evaluated from i with their phases reduced exactly, from one tangent of
each half phase, tan(E/2) and tan(theta/2) (track_integrand with n given;
see perturbation).

compute_Cs runs a batch of families in lockstep: all start at _N_START
nodes and double together, each leaving on its own stopping rule, node cap
or collision, so each result is the one compute_C (the one-family case)
gives alone.  The levels _N_START ... _N_FIRST = 512 come from one pass over
the even indices 0 ... 512 of the 512-node grid, each value summed into the
first level it lies on: a phase reduced at base 512 is the one reduced at
the lower base times a power of two, so every node keeps its bits, and most
families (those that stop at 512 nodes) make one integrand call where four
level calls cost more in fixed numpy overhead than in nodes.  A family that
stops at 128 or 256 nodes evaluates the nodes up to 512 all the same.  Each
later level evaluates its new midpoints.  A pass evaluates the integrands of
the families still in the batch in one call per _CHUNK nodes (the bound is
on families times indices per call, so memory does not grow with the batch)
and per block of at most _CHUNK // _N_START = 128 families (a call's Python
work is linear in its families, so without that bound a level of a large
batch would cost its families squared times the indices over _CHUNK).  The
indices are shared as one broadcast row: tan(E/2), and sin E and cos E from
it, are then taken once per distinct (n_l, q), e.g. one or two rows for the
34 families of a sweep over 17 e.  The call's values go through one
exact-sum pass (_exact_sums), which bins every (family, integrand, level)
value by exponent at once and folds the bins into a few floats per family,
integrand and level before the Python integer sum.

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
uniform sample of _SAMPLES points, half of it for n_l = 0 by the same
symmetry, refined by a few parabolic steps on Delta1^2; no scipy is
involved.  compute_Cs guards its whole batch at once (min_delta1s), and only
the least sample matters, so the guard finds it by branch and bound without
evaluating most of the sample.  Delta1 changes at most V per unit of F, so
between two samples of every _STRIDE-th one, H apart, no sample lies below
their mean minus V*H/2 and a slack for the float track's roundoff.  Every
_STRIDE-th sample is evaluated, then only the cells whose bound reaches the
least of those samples (15% of the sample over the sweep benchmark's
panel).  Every evaluated sample keeps the bits of the float track
(track_arrays) and no skipped one can be the least, so the refinement starts
from the bracket and values the full sample gives, and min_delta1 is the
same float.

This module evaluates no track formula: the searches and sums above read
perturbation, which owns the track.  The grid kernel is track_integrand with
n given; the guard's samples are perturbation.float_track, its refinement's
Delta1 on Python floats is perturbation.delta1_at, and V and the slack are
the speed and slack columns of the batch's one GridFamilies table, which
compute_Cs builds once and passes to min_delta1s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CollisionError, ConvergenceError
from .perturbation import (
    GridFamilies,
    ResonantFamily,
    canonical_families,
    delta1,
    delta1_at,
    float_track,
    track_integrand,
)

COLLISION_DELTA = 1e-6
# A level evaluates at most NODE_CAP / 4 new nodes per family, summed in rows
# of at most _CHUNK values: within the 2**13 a row (_ROW) up to which
# _exact_sums' folds of 13 exponent bins are exact.
NODE_CAP = 2**20
_N_START = 64
# The levels _N_START ... _N_FIRST come from one pass over the even grid
# indices 0 ... _N_FIRST at base _N_FIRST (at most NODE_CAP).
_N_FIRST = 512
# Nodes per integrand call across a compute_Cs batch (families times
# indices): bounds a level's memory.  At most _ROW.  A call holds at most
# _CHUNK // _N_START = 128 families (_add_node_sums).  The exact sums are
# additive, so the result does not depend on either bound.  A guard sample
# call holds at most _CHUNK points (_guard_delta1).
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
# min_delta1: grid samples per period, the stride of the guard's coarse
# sample (_guard_brackets), and the refinement's evaluation budget, least
# predicted relative drop of Delta1^2 and shortest step in F.
_SAMPLES = 4096
_STRIDE = 16
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
    about F_c = 0, so only j = 0 ... _SAMPLES/2 are sampled; for n_l = 1 it
    is not, and all _SAMPLES are.  The least sample is found without
    evaluating most of them (min_delta1s), and its two grid neighbours
    (j = -1 and one past the last sample included) bracket the refinement
    (_refine_min).  This is the one-family case of min_delta1s.
    """
    (md,) = min_delta1s([f])
    return md


def min_delta1s(families) -> list:
    """min_delta1(f) for each of the families (a sequence of families, or
    their GridFamilies): guarded in blocks of at most _CHUNK // _N_START
    families, as many as an integrand call holds (_guard_brackets), then
    refined one by one on Python floats (delta1_at)."""
    g = families if isinstance(families, GridFamilies) else GridFamilies.of(families)
    h = 2.0 * math.pi / _SAMPLES
    per_block = max(1, _CHUNK // _N_START)
    out = []
    for b in range(0, len(g), per_block):
        block = g[b : b + per_block] if len(g) > per_block else g
        for d, j, v in zip(delta1_at(block), *_guard_brackets(block)):
            out.append(_refine_min(d, [(j - 1) * h, j * h, (j + 1) * h], v))
    return out


def _guard_brackets(g):
    """For each family of the GridFamilies g: the first least of Delta1 d(j)
    over the sample F = j*2*pi/_SAMPLES, j = 0 ... span - n_l
    (span = _SAMPLES/2 for n_l = 0 and _SAMPLES for n_l = 1), as the list of j
    and the list of [d(j - 1), d(j), d(j + 1)], bit for bit as the full
    sample gives them.

    The coarse samples j = 0, _STRIDE, ... up to the longest span are
    evaluated in one 2-D pass.  No sample of a cell between two of them,
    H = _STRIDE*2*pi/_SAMPLES apart, lies below their mean minus
    drop = V*H/2 + slack (a V-Lipschitz function cannot, and slack covers the
    float track's roundoff in the three values; g.speed and g.slack).  So one
    more pass evaluates only the cells inside span whose bound reaches the
    least coarse sample: every sample left out lies above the least sample,
    so the least evaluated value and its first index are the full sample's.
    A last pass evaluates its two neighbours.
    """
    n_l = g.n_l[:, 0]
    drop = (g.speed * (_STRIDE * math.pi / _SAMPLES) + g.slack)[:, 0]
    span = (_SAMPLES // 2) << n_l
    coarse = np.arange(0, int(span.max()) + 1, _STRIDE)
    d = _guard_delta1(g, coarse[None, :])
    low = 0.5 * (d[:, :-1] + d[:, 1:]) - drop[:, None]
    d[coarse > (span - n_l)[:, None]] = np.inf  # past the sample; j = _SAMPLES is j = 0's image
    least = d.min(axis=1)
    r, c = np.nonzero((low <= least[:, None]) & (coarse[1:] <= span[:, None]))
    j = coarse[c][:, None] + np.arange(1, _STRIDE)  # the samples inside each cell
    fine = _guard_delta1(g[r], j)
    # the least evaluated value of each family, and the first sample that has it
    np.minimum.at(least, r, fine.min(axis=1))
    none = _SAMPLES + 1
    hits = d == least[:, None]
    first = np.where(hits.any(axis=1), coarse[hits.argmax(axis=1)], none)
    hits = fine == least[r][:, None]
    at = j[np.arange(r.size), hits.argmax(axis=1)]
    np.minimum.at(first, r, np.where(hits.any(axis=1), at, none))
    sides = _guard_delta1(g, first[:, None] + [-1, 1])
    return first.tolist(), np.column_stack((sides[:, 0], least, sides[:, 1])).tolist()


def _guard_delta1(g, j):
    """Delta1 at the samples F = j*2*pi/_SAMPLES of the families of the
    GridFamilies g, with one row of int j per family or one row shared by
    all, bit for bit as track_arrays(f, F)[3] gives it (float_track), in
    numpy calls of at most _CHUNK points (or one row).  A shared row goes to
    float_track as a stride-0 broadcast, so it takes sin E and cos E once per
    distinct q.
    """
    step = max(1, _CHUNK // j.shape[1])
    F = j * (2.0 * math.pi / _SAMPLES)
    out = []
    for b in range(0, len(g), step):
        part = g[b : b + step] if len(g) > step else g
        Fb = F[b : b + step] if len(F) > 1 else np.broadcast_to(F, (len(part), F.shape[1]))
        r, theta, _ = float_track(part, Fb)
        out.append(delta1(r, theta))
    return out[0] if len(out) == 1 else np.concatenate(out)


def _refine_min(d, x, v) -> float:
    """Least value of d found inside [x0, x2] by safeguarded successive
    parabolic steps on d^2, from the bracket x0 < x1 < x2 with values v
    (sequences of three floats).

    d^2 is smooth where d = Delta1 has a corner at a collision, so the
    parabola through the three best points predicts its minimum.  A step that
    is not convex or leaves the bracket is a golden-section step into the
    larger side instead.  The loop stops once the parabola predicts a drop
    of d^2 below _REFINE_RTOL of its value (d at its float resolution) or a
    step of at most _REFINE_XTOL (inside the roundoff of d, whose phase
    carries ~1e-14 absolute error), or after _REFINE_STEPS evaluations.
    """
    (a, b, c), (da, db, dc) = x, v
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
    1 / _UNIT), the node sums of the levels evaluated ahead of it, its level
    values and last two level differences."""

    index: int
    family: ResonantFamily
    md: float
    s1: int = 0
    s2: int = 0
    ahead: list = field(default_factory=list)  # (s1, s2) added by each next level
    c1: float = math.nan
    c2: float = math.nan
    d_prev: float = math.nan  # d_{n/2}; nan fails every comparison
    d_prev2: float = math.nan  # d_{n/4}


def compute_Cs(families, tol: float = 1e-10) -> list:
    """compute_C(f, tol) for each of the families, in lockstep.

    The collision guard runs on the whole batch at once (min_delta1s).  Every
    family starts at _N_START nodes and all double together.  The levels
    _N_START ... _N_FIRST come from one pass over the nodes of the _N_FIRST
    grid, one integrand call and one exact-sum pass per chunk, that sums each
    family's nodes by the first level they lie on; each later level costs one
    integrand call and one exact-sum pass per chunk of its midpoints.  A
    chunk holds at most _CHUNK nodes and at most _CHUNK // _N_START families.
    The batch's per-family constants (GridFamilies) are built once, serve
    the guard and the kernel, and are cut to the live families whenever one
    collides or leaves.  Each family leaves on its own stopping rule, at the
    node cap or at the collision guard.  The list holds, in the order of
    families, each one's CoefficientResult or the CollisionError or
    ConvergenceError compute_C would raise, whatever else is in the batch.
    """
    grid = GridFamilies.of(families)  # one row per family, then per live track
    out = [None] * len(families)
    live = []
    for k, (f, md) in enumerate(zip(families, min_delta1s(grid))):
        if md <= COLLISION_DELTA:
            out[k] = _with_min_delta1(
                CollisionError(f"track reaches Delta1 = {md:.3e} <= {COLLISION_DELTA} for {f}"), md
            )
        else:
            live.append(_Track(k, f, md))
    if len(live) < len(families):
        grid = grid[[t.index for t in live]]
    # The first levels' nodes F_c + j*2*pi/n, j = 0 ... n/2, are the even
    # indices 0 ... top of the top-node grid; the two ends count once, the
    # others twice.  Level m (_N_START << m nodes) adds the entries at the
    # odd multiples of top / (_N_START << m) along that row.
    top = min(_N_FIRST, NODE_CAP)
    doubled = np.ones(top // 2 + 1, dtype=np.int64)
    doubled[0] = doubled[-1] = 0
    levels = (top // _N_START).bit_length()
    level = np.zeros(doubled.size, dtype=np.int64)
    for m in range(1, levels):
        s = top // (_N_START << m)
        level[s :: 2 * s] = m
    _add_node_sums(live, grid, top, 0, doubled, level, levels)
    n = _N_START
    while live:
        keep = []
        for k, t in enumerate(live):
            prev = t.c1 + t.c2  # nan on the first level, which never stops
            s1, s2 = t.ahead.pop(0)
            t.s1 += s1
            t.s2 += s2
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
        if not keep:
            break
        if len(keep) < len(live):
            live, grid = [live[k] for k in keep], grid[keep]
        if live and not live[0].ahead:  # the live tracks hold the same levels
            if 2 * n > NODE_CAP:
                for t in live:
                    out[t.index] = _with_min_delta1(
                        ConvergenceError(f"quadrature did not reach tol={tol} at {n} nodes"), t.md
                    )
                break
            # The midpoints are the odd grid indices inside (F_c, F_c + pi),
            # each standing for itself and its mirror image.
            _add_node_sums(live, grid, n, 1, np.broadcast_to(1, n // 2))
        n *= 2
    return out


def compute_C(f: ResonantFamily, tol: float = 1e-10) -> CoefficientResult:
    """Evaluate C(e,p,q) for one family by spectral trapezoid quadrature.

    The grid F_c + j*2*pi/n, F_c = n_l*pi/q, starts at _N_START nodes and
    doubles.  The integrands are even about F_c, so only the n/2 + 1 nodes of
    [F_c, F_c + pi] are evaluated: the two ends count once and the others
    twice.  Each doubling adds twice the sum of the n/2 new midpoints
    F_c + (2k+1)*pi/n to one exact integer sum per integrand (the nodes of
    the levels up to _N_FIRST are evaluated in one pass); the level values
    round those sums once, exactly as fsum over all 2n node values would.
    ``nodes`` is the full-period n.  It stops by either rule of the module
    docstring: a predicted error within tol * max(1, |C1 + C2|) after
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


def _add_node_sums(tracks, grid, n: int, first: int, shift, level=0, levels: int = 1):
    """Append to each track's ahead the exact sums of its two integrands at
    the grid indices first, first + 2, ... (base n), one per entry of shift,
    each value times 2**shift, split into levels sums by the level of each
    index (level broadcasts along shift).  grid holds the tracks'
    GridFamilies, one row per track.

    Each integrand call takes a block of at most _CHUNK // _N_START tracks
    (see the module docstring) on at most _CHUNK nodes, the indices passed as
    one broadcast row per family.
    """
    per_call = max(1, _CHUNK // _N_START)
    level = np.broadcast_to(level, shift.shape)
    for a in range(0, len(tracks), per_call):
        block = tracks[a : a + per_call]
        fams = grid[a : a + per_call] if len(tracks) > per_call else grid
        step = _CHUNK // len(block)
        total = [0] * (2 * len(block) * levels)
        for b in range(0, shift.size, step):
            i = first + 2 * np.arange(b, min(b + step, shift.size))
            w1, w2 = track_integrand(fams, np.broadcast_to(i, (len(block), i.size)), n)
            cut = slice(b, b + step)
            sums = _exact_sums(np.concatenate((w1, w2)), shift[cut], level[cut], levels)
            total = [x + y for x, y in zip(total, sums)]
        for k, t in enumerate(block):
            s1 = total[k * levels : (k + 1) * levels]
            s2 = total[(len(block) + k) * levels : (len(block) + k + 1) * levels]
            t.ahead += zip(s1, s2)


def _exact_sums(v, shift=0, group=0, groups: int = 1) -> list:
    """Exact sums of the values of each row of v that share a group, as
    integer numbers of 1 / _UNIT: groups sums a row, row by row.  v holds
    finite doubles, at most _ROW a row; each value counts times 2**shift, and
    shift and group (in range(groups)) broadcast along a row.

    With frexp's exponent e, each value is (hi * 2**27 + lo) * 2**(e - 53),
    hi an integer with |hi| <= 2**26 and lo an integer in [0, 2**27); both
    splits are exact.  Two bincounts over all rows at once put lo in bin e
    and hi in bin e + 27 of its row and group, the bins cut to the exponent
    span of the call.
    Then _FOLD adjacent bins fold into one float, bin t of a fold weighted
    2**t.  A value adds to a fold at most once (its two bins are 27 apart),
    less than 2**27 * 2**(_FOLD - 1) = 2**39 in size, so N <= _ROW = 2**13
    values keep every partial sum of a fold below 2**52: the bins and folds
    are exact in any order of addition.  The few folds of a row and group
    then add up as Python integers, each shifted by its lowest bin.
    """
    rows = v.shape[0] * groups
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
    b = e + (np.arange(0, rows, groups)[:, None] + group) * width
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
