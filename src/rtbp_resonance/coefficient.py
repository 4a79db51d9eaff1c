"""Numerical evaluation of the stability coefficient C(e, p, q).

C(e,p,q) = -6*pi*p^2 * (C1 + C2) with
    C1 = integral over F in [0, 2*pi) of (r/Delta1)_thetatheta
    C2 = integral over F in [0, 2*pi) of cos(theta)/r
along the resonant track.  C2 is 0 at every e for q >= 2: along the track
e^(i*theta)/r = const * B(E) * e^(-+i*p*F) with B 2*pi-periodic in E = qF
(nu - E, e*sin(E) and r are), so the F-harmonics of cos(theta)/r are
j*q -+ p, none of them 0 for coprime q >= 2.  Its trapezoid sum would be
roundoff, which can be most of a small C, so C2 is set to 0.0 there and
only q = 1 families sum cos(theta)/r.

Two rules sum the integrals.  The integrands are periodic and analytic in
F, so the uniform trapezoid rule below converges geometrically, at a rate
set by the nearest complex collision: its error falls like e^(-sigma*n) for
a close pass to the small primary at height sigma above the real axis
(Trefethen and Weideman, SIAM Review 56, 2014), so it needs about 62/sigma
nodes, and a few grazing families would take most of the work.  The panel
rule (_panels) cuts the half period [F_c, F_c + pi] midway between adjacent
minima of Delta1, maps each panel by a sinh toward its close pass and sums
it by nested Clenshaw-Curtis rules, which need a number of nodes that does
not grow with 1/sigma.  sigma is known before any node is evaluated: the
collision guard's least Delta1 over |d(r e^(i theta))/dF| at the F where
the guard found it (track_speed).  A family whose predicted count 62/sigma
passes _SWITCH = 2**14 starts on panels and evaluates no grid node; every
other family starts on the trapezoid, and one still short of tol when the
trapezoid would double past _SWITCH nodes moves to panels too.  That
fallback catches the under-predictions of 62/sigma (n*sigma at the
trapezoid's stop runs up to about 91): 9:11 retrograde e=0.06 family 2 is
predicted at 15,579 nodes, would take 32,768 on the trapezoid and takes
2,580 on panels.  The switch level was chosen by timing the benchmark's
sweep and coeff panels: at 2**13 the median sweep request paid the panel
rule's fixed cost (its minimum search and its first levels) on families the
trapezoid finishes at 2**14, and at 2**15 the panels' totals were 7% slower.
Every family the sigma-start does not send to panels runs on the trapezoid
as it did without it, with the same bits; sigma also sets how deep the
trapezoid's first pass goes and the level below which it may not stop.

Both rules fold the period onto the half period [F_c, F_c + pi],
F_c = n_l*pi/q: the integrands are even about both of its ends (the
family's reversing symmetry), so a node or panel inside it counts twice, by
an exact *2 in the exact sums, and one on an end once.  A result's rule
field names the rule that produced it ("trapezoid" or "panels") and its
nodes that rule's node count over the whole period, folded the same way;
neither rule passes NODE_CAP nodes so counted, and a family that would
fails with the same ConvergenceError.

The trapezoid: the n-node grid F_c + j*2*pi/n has the nodes F_c + i*pi/n,
i = 0, 2, ..., n, on the half period, the ends i = 0 and n counted once: a
level evaluates the integrands n/2 + 1 times.  The grid is nested: each
doubling evaluates the integrands only at the new midpoints of that half
period (the odd i) and adds them, folded, to an exact running sum, so every
level value is the correctly rounded trapezoid sum (the value fsum would
give over the n node values) and no node value is kept.  The integrands are
evaluated from i with their phases reduced exactly, from one tangent of
each half phase, tan(E/2) and tan(theta/2) (track_integrand with n given;
see perturbation).

compute_Cs runs a batch of families in lockstep: all start at _N_START
nodes and double together, each leaving on its own stopping rule, node cap
or collision, so each result is the one compute_C (the one-family case)
gives alone.  The levels _N_START ... top come from one first pass over the
even indices 0 ... top of the top-node grid, each value summed into the
first level it lies on: a phase reduced at base 2**k*n is the one reduced
at base n times 2**k, so every node keeps its bits, and one integrand call
replaces a call a level, whose fixed numpy overhead costs more than its
nodes at these sizes.  top is the largest power of two within the count
sigma predicts for every family of the batch, _N_SIGMA / sigma with the
_N_SIGMA = 62 scaled by ln(tol) / ln(QUAD_TOL) (a looser tol stops sooner),
and at least _N_FIRST = 512; it is at most _SWITCH, its top/2 + 1 indices
a family at most the _ROW values an exact row sum holds, and a call at most
the 128 x 257 nodes of a full block at 512 (_first_pass_nodes): 2**13 for
the 2 families of a coeff request, 2**10 for the 34 of a sweep request.  A
family that stops below top evaluates the nodes up to top all the same.
Each later level evaluates its new midpoints.  A pass evaluates the
integrands of the families still in the batch in blocks of at most
_CHUNK // _N_START = 128 families (a call's Python work is linear in its
families, so without that bound a level of a large batch would cost its
families squared times the indices over _CHUNK): the first pass in one call
per block, and each later level in one call per _CHUNK nodes (the bound is
on families times indices per call, so memory does not grow with the
batch).  The indices go as one row for all the block's families.  The
call's values go through one exact-sum pass (_exact_sums) of
(r/Delta1)_thetatheta for every family and cos(theta)/r for the q = 1
families only, which bins every (family, integrand, level) value by
exponent at once and folds the bins into a few floats per family, integrand
and level before the Python integer sum.

With T_n = C1 + C2 on n nodes (T_n = C1 for q >= 2), d_n = |T_n - T_{n/2}|
and b = tol * max(1, |T_n|) (absolute for small sums, relative for the large
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
positive and negative parts, can exceed it.  Neither rule stops the
trapezoid below n*sigma = _N_SIGMA_MIN = 20: levels that all alias one
slowly decaying harmonic alike agree to tol far from the integral (8:13
retrograde e=0.05 family 1 reads C1 = 0.3047965 at 128 ... 512 nodes, where
n*sigma is at most 7.8, and roundoff at 4,096).  The panel rule stops by
the same rule, its levels being n = _CC_START, 2*_CC_START, ... nodes a
panel.

The panel rule covers the half period [F_c, F_c + pi] only.  The local
minima F_k of Delta1 there are those of the sample F_c + j*2*pi/_SAMPLES,
j = 0 ... _SAMPLES/2 (the collision guard's spacing, and for n_l = 0 its
own half sample, below), each end compared with its mirror neighbour.  A
minimum at an end lies exactly on its symmetry point; the others are
refined by the guard's parabolic steps on Delta1^2 (_refine_min), so every
minimum of Delta1 has one sampler, one refinement and one stopping rule;
sigma_k = Delta1(F_k) / |d(r e^(i theta))/dF| from the closed-form speed
(perturbation.track_speed).  The panel of F_k runs between the midpoints to
its neighbouring minima, or to F_c or F_c + pi past the first or last, and
a minimum on a symmetry point takes one panel symmetric about it.  Each
panel's fold (2, or 1 on a symmetry point) multiplies its weights and its
node count.  Each panel is mapped by F = F_k + sigma_k*sinh(mu_k*y - eta_k),
y in [-1, 1].  Its nodes are off the grid but in its integer form,
F_c + (i + x)*pi/_BASE with i an integer and |x| <= 1/2, evaluated by the
off-grid kernel (track_integrand with x): F_k is split into its nearest
grid index and a fraction, the fraction plus sigma_k*sinh(.) is carried in
grid units and rounded to i and x per node, so E/2 and theta/2 keep the
integer-phase roundoff (reduced about 0, see perturbation._grid_track)
where float nodes put C 1e-10 to 1e-8 off.  The Clenshaw-Curtis weights
come from one FFT a level (_cc_weights, cached per n), and each level's
node values times weights are summed exactly (_exact_sums), so that a
family's result does not depend on its batch.  The levels _CC_START ...
_CC_FIRST = 128 read every (128/n)-th of one call's nodes cos(j*pi/128),
j = 0 ... 128, a panel (cos(j*pi/n) is cos(j*(128/n)*pi/128) to the bit),
and each later level evaluates its new nodes.  Every panel of every family
on the panel rule is one row of each level's integrand calls.  A family
that leaves the trapezoid at the _SWITCH fallback enters as a fresh track,
and each keeps its place in the batch until the last one stops.

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
n given and evaluates integrand nodes only; both minimum searches sample
Delta1 through one function (_guard_delta1, on perturbation.float_track),
their refinement's Delta1 on Python floats is perturbation.delta1_at, and
V and the slack are the speed and slack columns of the batch's one
GridFamilies table, which compute_Cs builds once and passes to min_delta1s.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

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
    track_speed,
)

COLLISION_DELTA = 1e-6
# The default tolerance on C1 + C2 (relative where |C1 + C2| > 1).
QUAD_TOL = 1e-10
# A level evaluates at most NODE_CAP / 4 new nodes per family, summed in rows
# of at most _CHUNK values: within the 2**13 a row (_ROW) up to which
# _exact_sums' folds of 13 exponent bins are exact.
NODE_CAP = 2**20
_N_START = 64
# The levels _N_START ... top come from one pass over the even grid indices
# 0 ... top at base top, a power of two from _N_FIRST up to the count sigma
# predicts (_first_pass_nodes; at most NODE_CAP).
_N_FIRST = 512
# Nodes per integrand call of a later level across a compute_Cs batch
# (families times indices): bounds a level's memory.  At most _ROW.  A call
# holds at most _CHUNK // _N_START = 128 families (_add_node_sums), and the
# first pass makes one call per block of them, of at most 128 x 257 nodes.
# The exact sums are additive, so the result does not depend on either
# bound.  A guard call holds at most _CHUNK points, or one row
# (_guard_delta1).
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
# _N_SIGMA / sigma predicts the trapezoid's node count, sigma the height of
# the nearest complex collision (compute_Cs): over the sweep benchmark's
# panel n*sigma at the stop is 43 at the 5th percentile and 72 at the median
# (more where the large primary, not sigma, sets the rate).  A family whose
# trapezoid would need _N_SIGMA / sigma > _SWITCH nodes starts on the panel
# rule (_panels), and the first pass runs to at most _N_SIGMA / sigma nodes.
# No family stops on the trapezoid below _N_SIGMA_MIN / sigma nodes: of the
# 5,397 trapezoid families of the benchmark's sweep and coeff panels and the
# grid of coprime p != q <= 15, both directions, e = 0.05 ... 0.85 step 0.1,
# the 19 that stopped below it (n*sigma 7.0-19.9, all retrograde at
# e = 0.05) stopped on aliased levels that agree (8:13 r family 1: C = -367.7
# at 512 nodes, roundoff at 4,096), and the least n*sigma of a sound stop is
# 21.0 (11:3 r e = 0.05).
_N_SIGMA = 62.0
_N_SIGMA_MIN = 20.0
# The panel rule: a family still short of tol when the trapezoid would
# double past _SWITCH nodes moves to it too.  Its nodes are
# F_c + (i + x)*pi/_BASE; it takes the minima of Delta1 on the half period
# at the guard's spacing 2*pi/_SAMPLES, refined by _refine_min, and starts at
# _CC_START + 1 Clenshaw-Curtis nodes a panel.  Its levels up to _CC_FIRST
# read one call's _CC_FIRST + 1 nodes a panel: every panel family of the
# panels and grid above stops at 128 or 256.
_SWITCH = 2**14
_BASE = 2**20
_CC_START = 16
_CC_FIRST = 128


@dataclass(frozen=True)
class CoefficientResult:
    C: float
    C1: float
    C2: float
    nodes: int
    err_estimate: float
    min_delta1: float
    rule: str = "trapezoid"


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
    return _guard_minima(families)[1]


def _guard_minima(families) -> tuple:
    """(F, md): for each of the families, the F at which min_delta1s refines
    its minimum and the minimum min_delta1s returns, as two lists."""
    g = families if isinstance(families, GridFamilies) else GridFamilies.of(families)
    h = 2.0 * math.pi / _SAMPLES
    per_block = max(1, _CHUNK // _N_START)
    out = []
    for b in range(0, len(g), per_block):
        block = g[b : b + per_block] if len(g) > per_block else g
        for d, j, v in zip(delta1_at(block), *_guard_brackets(block)):
            out.append(_refine_min(d, [(j - 1) * h, j * h, (j + 1) * h], v))
    return [x for x, _ in out], [md for _, md in out]


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


def _guard_delta1(g, j, start=0.0):
    """Delta1 at the samples F = j*2*pi/_SAMPLES + start of the families of
    the GridFamilies g, with one row of int j per family or one row for all
    and start a float or one (families, 1) column, bit for bit as
    track_arrays(f, F)[3] gives it (float_track), in numpy calls of at most
    _CHUNK points (or one row).
    """
    F = j * (2.0 * math.pi / _SAMPLES) + start
    step = max(1, _CHUNK // F.shape[1])
    out = [
        delta1(*float_track(g[b : b + step], F[b : b + step] if len(F) > 1 else F)[:2])
        for b in range(0, len(g), step)
    ]
    return out[0] if len(out) == 1 else np.concatenate(out)


def _refine_min(d, x, v) -> tuple:
    """(x, d(x)) at the least value of d found inside [x0, x2] by safeguarded
    successive parabolic steps on d^2, from the bracket x0 < x1 < x2 with
    values v (sequences of three floats).

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
    return b, db


@dataclass
class _Track:
    """One family's state in compute_Cs: its exact node sums (units of
    1 / _UNIT; s2 stays 0 for q >= 2), the node sums of the levels evaluated
    ahead of it, its level values and last two level differences."""

    index: int
    family: ResonantFamily
    md: float
    v: float  # |d(r e^(i theta))/dF| where the guard found md: sigma = md / v
    s1: int = 0
    s2: int = 0
    ahead: list = field(default_factory=list)  # (s1, s2) added by each next level
    c1: float = math.nan
    c2: float = math.nan
    d_prev: float = math.nan  # d_{n/2}; nan fails every comparison
    d_prev2: float = math.nan  # d_{n/4}


def compute_Cs(families, tol: float = QUAD_TOL) -> list:
    """compute_C(f, tol) for each of the families, in lockstep.

    The collision guard runs on the whole batch at once (_guard_minima), and
    a family whose trapezoid would need 62/sigma > _SWITCH nodes (sigma =
    min_delta1 / track_speed at the guard's F) waits for the panel rule.
    Every other family starts at _N_START nodes and all double together.
    The levels _N_START ... top come from one pass over the nodes of the
    top-node grid, top the count sigma predicts for every one of them
    (_first_pass_nodes), one integrand call and one exact-sum pass per block
    of at most _CHUNK // _N_START families (all their top // 2 + 1 indices,
    up to 128 x 257 nodes a call), that sums each family's nodes by the
    first level they lie on; each later level costs one integrand call and
    one exact-sum pass per chunk of its midpoints, at most _CHUNK nodes of
    one block.  No family stops on a level below _N_SIGMA_MIN / sigma nodes.
    The batch's per-family constants (GridFamilies) are built once, serve
    the guard and the kernel, and are cut to the live families whenever one
    collides or leaves.  Each family leaves on its own stopping rule, at the
    node cap or at the collision guard; the families still running when the
    trapezoid would double past _SWITCH nodes join the waiting ones, as
    fresh tracks, in the batch's one call of the panel rule (_panels).  The
    list holds, in the order of families, each one's CoefficientResult or
    the CollisionError or ConvergenceError compute_C would raise, whatever
    else is in the batch.
    """
    table = GridFamilies.of(families)  # one row per family
    out = [None] * len(families)
    live, panels = [], []  # the trapezoid's tracks, and the panel rule's
    at, mds = _guard_minima(table)
    # |d(r e^(i theta))/dF| at the guard's minimum: sigma = md / speed there
    speed = track_speed(table, np.array(at, dtype=float)[:, None])[:, 0].tolist()
    for k, (f, md, v) in enumerate(zip(families, mds, speed)):
        if md <= COLLISION_DELTA:
            out[k] = _with_min_delta1(
                CollisionError(f"track reaches Delta1 = {md:.3e} <= {COLLISION_DELTA} for {f}"), md
            )
        elif _N_SIGMA * v > _SWITCH * md:  # the trapezoid would need 62/sigma > _SWITCH nodes
            panels.append(_Track(k, f, md, v))
        else:
            live.append(_Track(k, f, md, v))
    grid = table if len(live) == len(families) else table[[t.index for t in live]]
    # The first levels' nodes F_c + j*2*pi/n, j = 0 ... n/2, are the even
    # indices 0 ... top of the top-node grid.  Level m (_N_START << m nodes)
    # adds the entries at the odd multiples of top / (_N_START << m) along
    # that row.
    top = _first_pass_nodes(live, tol)
    levels = (top // _N_START).bit_length()
    level = np.zeros(top // 2 + 1, dtype=np.int64)
    for m in range(1, levels):
        s = top // (_N_START << m)
        level[s :: 2 * s] = m
    _add_node_sums(live, grid, top, 0, level.size, level, levels)
    n = _N_START
    while live:
        keep = []
        for k, t in enumerate(live):
            s1, s2 = t.ahead.pop(0)
            t.s1 += s1
            t.s2 += s2
            # the first level never stops, nor one below _N_SIGMA_MIN / sigma nodes
            err = _stop(t, *_level(t.s1, t.s2, n), tol, n * t.md >= _N_SIGMA_MIN * t.v)
            if err is None:
                keep.append(k)
            else:
                out[t.index] = _result(t, n, err, "trapezoid")
        if not keep:
            break
        if len(keep) < len(live):
            live, grid = [live[k] for k in keep], grid[keep]
        if not live[0].ahead:  # the live tracks hold the same levels
            if 2 * n > NODE_CAP:
                _fail(live, tol, n, out)
                break
            if 2 * n > _SWITCH:
                panels += [_Track(t.index, t.family, t.md, t.v) for t in live]
                break
            # the midpoints: the odd grid indices inside (F_c, F_c + pi)
            _add_node_sums(live, grid, n, 1, n // 2)
        n *= 2
    if panels:
        _panels(panels, table[[t.index for t in panels]], tol, out)
    return out


def _first_pass_nodes(live, tol: float) -> int:
    """The top of the trapezoid's first pass over the tracks live: the
    largest power of two within _N_SIGMA / sigma nodes of every track, that
    count scaled by ln(tol) / ln(QUAD_TOL) (the error falls like
    e^(-sigma*n), so a looser tol stops sooner), and at least _N_FIRST.  It
    is bounded by _SWITCH, NODE_CAP, _ROW values a row and the memory of a
    pass at _N_FIRST: a block of families times top/2 + 1 indices a call."""
    scale = math.log(tol) / math.log(QUAD_TOL) if tol > 0.0 else math.inf
    need = min((_N_SIGMA * scale * t.v / t.md for t in live), default=0.0)
    per_call = max(1, _CHUNK // _N_START)  # families a call
    block = max(1, min(len(live), per_call))
    indices = min(_ROW, per_call * (_N_FIRST // 2 + 1) // block)  # top/2 + 1 at most
    bound = min(need, _SWITCH, NODE_CAP, 2 * (indices - 1))
    top = _N_FIRST
    while 2 * top <= bound:
        top *= 2
    return min(top, NODE_CAP)


def _stop(t: _Track, c1: float, c2: float, tol: float, ready: bool = True):
    """Take the level values (c1, c2) into the track t: its err_estimate if
    the stopping rule of the module docstring stops it there (never unless
    ready), else None."""
    prev = t.c1 + t.c2  # nan on a rule's first level
    t.c1, t.c2 = c1, c2
    d = abs((c1 + c2) - prev)
    bound = tol * max(1.0, abs(c1 + c2))
    if ready and d * d < bound * t.d_prev and 4.0 * d < t.d_prev and 4.0 * t.d_prev < t.d_prev2:
        return d * d / t.d_prev
    if ready and d < bound:
        return d
    t.d_prev, t.d_prev2 = d, t.d_prev
    return None


def _result(t: _Track, nodes: int, err: float, rule: str) -> CoefficientResult:
    return CoefficientResult(
        C=-6.0 * math.pi * t.family.p**2 * (t.c1 + t.c2),
        C1=t.c1,
        C2=t.c2,
        nodes=nodes,
        err_estimate=err,
        min_delta1=t.md,
        rule=rule,
    )


def _fail(tracks, tol: float, nodes: int, out):
    for t in tracks:
        out[t.index] = _with_min_delta1(
            ConvergenceError(f"quadrature did not reach tol={tol} at {nodes} nodes"), t.md
        )


def _panels(live, grid, tol: float, out):
    """The panel rule for the fresh tracks live (grid their GridFamilies),
    which run it together; each one's result or ConvergenceError goes to out.

    The half period [F_c, F_c + pi] is cut midway between adjacent minima F_k
    of Delta1 (_panel_minima) and at its ends, a minimum on F_c or F_c + pi
    taking one panel symmetric about it, and the panel of F_k is mapped from
    y in [-1, 1] by F = F_k + sigma_k*sinh(mu_k*y - eta_k), where sigma_k =
    Delta1(F_k) / |d(r e^(i theta))/dF| is the height of the nearest complex
    collision above the real axis: the map spreads the close pass over a
    width in y that does not shrink with sigma_k (Johnston and Elliott, Int.
    J. Numer. Meth. Engng 62, 2005).  Nested Clenshaw-Curtis rules of n + 1
    nodes a panel, n = _CC_START, 2*_CC_START, ..., read the levels up to
    _CC_FIRST off one call's _CC_FIRST + 1 nodes and evaluate only the new
    nodes at each later doubling, every panel of every live track as one row
    of the integrand calls (_panel_values).  A panel's fold (2 off the
    symmetry points, else 1) multiplies its weights and counts its panels
    over the period.  A track stops by the rule of the module docstring on
    T_n = C1 + C2; its node count is its panels over the period times n + 1,
    and it fails when the next level would pass NODE_CAP.  Each track keeps
    its place in live, the index of its rows, until the last one stops.
    """
    track, centre, sigma, twice = _panel_minima(grid)
    # each panel runs from the cut before its minimum to the cut after it,
    # within [F_c, F_c + pi] (0 ... _BASE grid units), and a panel on a
    # symmetry point as far beyond it as it reaches inside
    last = np.append(track[1:] != track[:-1], True)
    first = np.roll(last, 1)
    hi = np.where(last, float(_BASE), 0.5 * (centre + np.roll(centre, -1)))
    lo = np.where(first, 0.0, np.roll(hi, 1))
    at_fc = ~twice & (centre == 0.0)
    at_pi = ~twice & ~at_fc
    lo[at_fc] = -hi[at_fc]
    hi[at_pi] = 2 * _BASE - lo[at_pi]
    # In grid units, F_k = F_c + I + c with I an integer, and a node lies
    # s*sinh(mu*y - eta) from F_k.
    I = np.rint(centre)
    s = (sigma * (_BASE / math.pi))[:, None]
    ua, ub = np.arcsinh((lo - centre)[:, None] / s), np.arcsinh((hi - centre)[:, None] / s)
    rows = _PanelRows(
        grid[track], track, I.astype(np.int64)[:, None], (centre - I)[:, None], s,
        0.5 * (ub - ua), -0.5 * (ub + ua), np.where(twice, 2.0, 1.0)[:, None],
    )
    # the period's panels: fold counts each one and its mirror image
    panels = np.bincount(track, rows.fold[:, 0], len(live))
    # dF/dy times each integrand at the nodes cos(j*pi/held), one row a
    # panel: level n reads every (held/n)-th of them
    held = _CC_FIRST
    v1, v2 = _panel_values(rows, np.cos(np.arange(held + 1) * (math.pi / held)))
    n = _CC_START
    running = list(range(len(live)))  # the places of the tracks still running
    while True:
        weights = _cc_weights(n) * rows.fold  # a mirror image counts by an exact *2
        with_c2 = np.flatnonzero(rows.g.q[:, 0] == 1)  # C2 is 0 for q >= 2
        u1, u2 = v1[:, :: held // n], v2[:, :: held // n]
        s1 = _panel_sums(u1 * weights, rows.track, len(live))
        s2 = _panel_sums(u2[with_c2] * weights[with_c2], rows.track[with_c2], len(live))
        keep = []
        for k in running:
            t = live[k]
            err = _stop(t, s1[k] / _UNIT, s2[k] / _UNIT, tol)
            nodes = int(panels[k]) * (n + 1)
            if err is not None:
                out[t.index] = _result(t, nodes, err, "panels")
            elif panels[k] * (2 * n + 1) > NODE_CAP:
                _fail([t], tol, nodes, out)
            else:
                keep.append(k)
        if not keep:
            return
        if len(keep) < len(running):
            running = keep
            cut = np.isin(rows.track, keep)
            rows = rows.cut(cut)
            v1, v2 = v1[cut], v2[cut]
        n *= 2
        if n > held:
            w1, w2 = _panel_values(rows, np.cos(np.arange(1, n, 2) * (math.pi / n)))
            v1, v2, held = _nest(v1, w1), _nest(v2, w2), n


def _panel_sums(v, track, tracks: int) -> list:
    """Exact sums of the values v (one row a panel, track its track) over
    each of the tracks' panels, as integers of 1 / _UNIT, so that each
    track's sum is the same in any batch (a float matrix product may round
    differently with the shape of its operand)."""
    sums = [0] * tracks
    rows = [0] * len(v)
    for a in range(0, v.shape[1], _ROW):
        rows = [x + y for x, y in zip(rows, _exact_sums(v[:, a : a + _ROW]))]
    for k, x in zip(track.tolist(), rows):
        sums[k] += x
    return sums


@dataclass
class _PanelRows:
    """The panels of the running tracks in _panels, one row each: their
    families' GridFamilies g, their track's place in _panels' live list, and
    the map's constants I (int64), c, s, mu and eta, and the symmetry fold,
    2.0 for a panel that stands for its mirror image too and 1.0 for one on
    a symmetry point, (panels, 1) columns."""

    g: GridFamilies
    track: np.ndarray
    I: np.ndarray
    c: np.ndarray
    s: np.ndarray
    mu: np.ndarray
    eta: np.ndarray
    fold: np.ndarray

    def cut(self, rows) -> "_PanelRows":
        """The rows (a mask), each track keeping its place."""
        return _PanelRows(*(getattr(self, f.name)[rows] for f in fields(self)))


def _panel_values(rows: _PanelRows, y):
    """Both integrands times dF/dy at the points y of [-1, 1] of every panel
    of rows, as (panels, len(y)) arrays.  Each node is F_c + (i + x)*pi/_BASE
    with i an integer and |x| <= 1/2, evaluated by the off-grid kernel
    (track_integrand with x).  The nodes go in chunks of at most _CHUNK, or
    one panel, so that no temporary grows with the batch."""
    step = max(1, _CHUNK // y.size)
    out = np.empty((2, len(rows.track), y.size))
    for a in range(0, len(rows.track), step):
        b = slice(a, a + step)
        arg = rows.mu[b] * y - rows.eta[b]
        u = rows.c[b] + rows.s[b] * np.sinh(arg)
        shift = np.rint(u)
        w = track_integrand(rows.g[b], rows.I[b] + shift.astype(np.int64), _BASE, u - shift)
        jac = (math.pi / _BASE) * rows.s[b] * rows.mu[b] * np.cosh(arg)
        for k in (0, 1):
            np.multiply(jac, w[k], out=out[k, b])
    return out[0], out[1]


def _nest(old, new):
    """Node values of the next nested level: old at the even nodes, new at
    the odd ones."""
    out = np.empty((old.shape[0], old.shape[1] + new.shape[1]))
    out[:, ::2], out[:, 1::2] = old, new
    return out


@functools.lru_cache(maxsize=None)
def _cc_weights(n: int):
    """Clenshaw-Curtis weights of the nodes cos(j*pi/n), j = 0 ... n, on
    [-1, 1] (n even), from one real FFT of length n:
    w_j = (c_j/n) * (1 - sum_{k=1}^{n/2} b_k cos(2*k*j*pi/n) / (4k^2 - 1)),
    with c_j and b_k 1 at the ends of their ranges and 2 elsewhere
    (Waldvogel, BIT 46, 2006)."""
    k = np.arange(n // 2 + 1)
    a = np.zeros(n)
    a[: n // 2 + 1] = -2.0 / (4.0 * k * k - 1.0)
    a[0] = 1.0
    a[n // 2] *= 0.5
    half = np.fft.rfft(a).real  # j = 0 ... n/2; j and n - j agree
    w = np.concatenate((half, half[-2::-1])) * (2.0 / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _panel_minima(grid):
    """(track, centre, sigma, twice) for the local minima of Delta1 on the
    half period [F_c, F_c + pi] of the families of the GridFamilies grid, in
    order of family and then of F: each minimum's family (its row of grid),
    F_k = F_c + centre*pi/_BASE, sigma_k = Delta1(F_k) /
    |d(r e^(i theta))/dF| (track_speed), and whether F_k has a mirror image
    F_c - (F_k - F_c) of its own (False on the symmetry points F_c and
    F_c + pi).

    Delta1 is even about F_c and F_c + pi, so the minima are the local minima
    of the sample F = F_c + j*2*pi/_SAMPLES, j = 0 ... _SAMPLES/2 (the guard's
    spacing, and for n_l = 0 its half sample, bit for bit), each end
    compared with its mirror neighbour j = 1 or _SAMPLES/2 - 1, evaluated by
    the guard's sampler (_guard_delta1).  A minimum at an end lies on its
    symmetry point; every other is refined inside its two neighbours by the
    guard's _refine_min on Python floats (delta1_at).
    """
    h = 2.0 * math.pi / _SAMPLES
    half = _SAMPLES // 2
    fc = grid.lpi / grid.q  # F_c, one (families, 1) column
    d = _guard_delta1(grid, np.arange(half + 1)[None, :], fc)
    left = np.concatenate((d[:, 1:2], d[:, :-1]), axis=1)
    right = np.concatenate((d[:, 1:], d[:, -2:-1]), axis=1)
    track, j = np.nonzero((d <= left) & (d < right))
    twice = (j > 0) & (j < half)
    d1 = delta1_at(grid)
    centre = np.where(j == 0, 0.0, float(_BASE))
    dmin = d[track, j]
    at = j * h + fc[track, 0]  # the sample's F
    start = fc[:, 0].tolist()
    for m, t, k in zip(np.flatnonzero(twice).tolist(), track[twice].tolist(), j[twice].tolist()):
        x = [(k + i) * h + start[t] for i in (-1, 0, 1)]
        at[m], dmin[m] = _refine_min(d1[t], x, d[t, k - 1 : k + 2].tolist())
        centre[m] = (at[m] - start[t]) * (_BASE / math.pi)
    return track, centre, dmin / track_speed(grid[track], at[:, None])[:, 0], twice


def compute_C(f: ResonantFamily, tol: float = QUAD_TOL) -> CoefficientResult:
    """Evaluate C(e,p,q) for one family by spectral quadrature: the
    trapezoid rule below, or the panel rule of the module docstring for a
    family whose trapezoid would need 62/sigma > _SWITCH nodes or is still
    short of tol past them (its rule field says which).

    The grid F_c + j*2*pi/n, F_c = n_l*pi/q, starts at _N_START nodes and
    doubles.  The integrands are even about F_c, so only the n/2 + 1 nodes of
    [F_c, F_c + pi] are evaluated: the two ends count once and the others
    twice.  Each doubling adds twice the sum of the n/2 new midpoints
    F_c + (2k+1)*pi/n to one exact integer sum per integrand (the nodes of
    the levels up to the count sigma predicts, at least _N_FIRST, are
    evaluated in one pass); the level values round those sums once, exactly
    as fsum over all 2n node values would.  For q >= 2, C2 is 0.0 (see the
    module docstring) and only C1 is summed.  ``nodes`` is the full-period
    n.  It stops, on no level below _N_SIGMA_MIN / sigma nodes, by either
    rule of the module docstring on T_n = C1 + C2 (C1 for q >= 2): a
    predicted error within tol * max(1, |T_n|) after two contractions by
    more than 4, or successive values of T_n within it (an absolute
    tolerance below |T_n| = 1, a relative one above it); tol = 0 never
    stops.  This is the one-family case of compute_Cs.

    Raises CollisionError when the track comes within COLLISION_DELTA of the
    small primary, and ConvergenceError if the node cap is hit first; both
    carry the track's minimum Delta1 as their ``min_delta1`` attribute.
    """
    (res,) = compute_Cs([f], tol)
    if isinstance(res, Exception):
        raise res
    return res


def _add_node_sums(tracks, grid, n: int, first: int, count: int, level=0, levels: int = 1):
    """Append to each track's ahead the exact sums of its two integrands at
    the count grid indices i = first, first + 2, ... (base n, first 0 or 1)
    of [F_c, F_c + pi], split into levels sums by the level of each index
    (level[i // 2]; level broadcasts along the indices).  The fold doubles
    each value but those at the ends (i a multiple of n).
    cos(theta)/r is summed for the q = 1 tracks only; a q >= 2 track's C2
    sums are 0.  grid holds the tracks' GridFamilies, one row per track.

    Each integrand call takes a block of at most _CHUNK // _N_START tracks
    (see the module docstring), the indices passed as one row for all of
    them: all the indices on the first pass (levels > 1), at most _CHUNK
    nodes on a later level.
    """
    per_call = max(1, _CHUNK // _N_START)
    level = np.broadcast_to(level, count)
    for a in range(0, len(tracks), per_call):
        block = tracks[a : a + per_call]
        fams = grid[a : a + per_call] if len(tracks) > per_call else grid
        with_c2 = np.flatnonzero(fams.q[:, 0] == 1)  # C2 is 0 for q >= 2
        step = count if levels > 1 else _CHUNK // len(block)
        total = [0] * ((len(block) + with_c2.size) * levels)
        for b in range(0, count, step):
            i = first + 2 * np.arange(b, min(b + step, count))
            w1, w2 = track_integrand(fams, i[None, :], n)
            shift = i % n != 0  # the symmetry fold: 2**1, or 2**0 at an end
            sums = _exact_sums(np.concatenate((w1, w2[with_c2])), shift, level[i // 2], levels)
            total = [x + y for x, y in zip(total, sums)]
        s2 = [[0] * levels] * len(block)
        for j, k in enumerate(with_c2.tolist(), len(block)):
            s2[k] = total[j * levels : (j + 1) * levels]
        for k, t in enumerate(block):
            t.ahead += zip(total[k * levels : (k + 1) * levels], s2[k])


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


def sweep_e(p, q, direction, e_grid, tol: float = QUAD_TOL):
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
