"""Draw the benchmark's request panels and compute their reference values.

    python3 perfbench/make_refs.py sweep|coeff|verify

Run from the repository root.  Each workload runs a fixed panel of requests,
so every request a run sends has a stored reference.  A panel is a
systematic sample, drawn once from PANEL_SEED, of a candidate population
sorted by the input properties that set the work per request: grazing
families (min Delta1 < GRAZING_DELTA1), whose quadrature converges slowly or
runs to the node cap, and the leading series order m.  So a panel carries
the population's proportions of each.

The references come from the package's public API at tighter tolerances
than the CLI defaults:

* quadrature families: ``compute_C`` at REF_TOL.  Where that stops at the
  node cap (grazing tracks, whose roundoff floor exceeds an absolute
  tolerance), the reference is a periodic trapezoid sum of ``track_integrand``
  with a roundoff-aware relative stopping rule, marked as such; if that
  does not settle either, the family has no reference.  Collisions store
  ``min_delta1`` and no C.
* every family also stores ``leading_coefficient`` (exponent and value);
  ``verify`` families store the Newton integrations per mu of the CLI's
  default mu list, an input property of the orbit at this commit.

The output goes to ``perfbench/refs/<workload>.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from math import fsum

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from rtbp_resonance import (  # noqa: E402
    canonical_families,
    compute_C,
    leading_coefficient,
    verifier,
)
from rtbp_resonance.coefficient import min_delta1  # noqa: E402
from rtbp_resonance.errors import CollisionError, ConvergenceError, RtbpError  # noqa: E402
from rtbp_resonance.perturbation import track_integrand  # noqa: E402
from workloads import GRAZING_DELTA1  # noqa: E402

PANEL_SEED = 20051028
REF_TOL = 1e-13
REL_NODE_CAP = 2**24
CHUNK = 2**18
DIRECTIONS = ("direct", "retrograde")
SWEEP_GRID = dict(e_min=0.05, e_max=0.85, e_step=0.05)
PANEL = {"sweep": 30, "coeff": 160, "verify": 14}
COEFF_CANDIDATES = 600
VERIFY_CANDIDATES = 120
MU_LIST = (1e-4, 3e-5, 1e-5, 3e-6)  # the CLI's default --mu-list


def coprime_pairs(p_max, q_max):
    return [
        (p, q)
        for p in range(1, p_max + 1)
        for q in range(1, q_max + 1)
        if p != q and math.gcd(p, q) == 1
    ]


def sweep_grid():
    """The grid the CLI builds from --e-min/--e-max/--e-step (same arithmetic)."""
    g = SWEEP_GRID
    n = int(math.floor((g["e_max"] - g["e_min"]) / g["e_step"] + 1e-9)) + 1
    return [g["e_min"] + i * g["e_step"] for i in range(n)]


def relative_trapezoid(f):
    """C by nested node doubling until successive sums agree to roundoff, or None.

    Each doubling evaluates only the new midpoints, in chunks of CHUNK nodes.
    """
    n = 64
    c1, c2 = track_integrand(f, np.arange(n) * (2.0 * math.pi / n))
    total, scale = fsum(c1) + fsum(c2), fsum(np.abs(c1)) + fsum(np.abs(c2))
    while 2 * n <= REL_NODE_CAP:
        parts, abs_parts = [total], [scale]
        for start in range(0, n, CHUNK):
            k = np.arange(start, min(n, start + CHUNK))
            c1, c2 = track_integrand(f, (2 * k + 1) * (math.pi / n))
            parts += [fsum(c1), fsum(c2)]
            abs_parts += [fsum(np.abs(c1)), fsum(np.abs(c2))]
        new_total, scale = fsum(parts), fsum(abs_parts)
        h = math.pi / n
        settled = abs(h * new_total - 2.0 * h * total) <= 1e-13 * h * scale
        total, n = new_total, 2 * n
        if settled:
            return -6.0 * math.pi * f.p**2 * h * total
    return None


def family_ref(f):
    md = min_delta1(f)
    try:
        return {"C": compute_C(f, REF_TOL).C, "min_delta1": md, "ref": "compute_C"}
    except CollisionError:
        return {"C": None, "min_delta1": md, "ref": "collision"}
    except ConvergenceError:
        C = relative_trapezoid(f)
        return {"C": C, "min_delta1": md, "ref": "relative-trapezoid" if C is not None else "none"}


def panel(candidates, key, size, rng):
    """Systematic sample of `size` candidates sorted by `key`."""
    order = sorted(candidates, key=key)
    u = rng.random()
    return [order[int((k + u) * len(order) / size)] for k in range(size)]


def grazing(fams):
    return sum(min_delta1(f) < GRAZING_DELTA1 for f in fams)


def series_order(p, q, d):
    return abs(p - q) if d == "direct" else p + q


def make_sweep(rng):
    grid = sweep_grid()
    candidates = [
        (grazing([f for e in grid for f in canonical_families(p, q, e, d)]), p, q, d)
        for p, q in coprime_pairs(9, 9)
        for d in DIRECTIONS
    ]
    requests = []
    for g, p, q, d in panel(candidates, lambda c: c, PANEL["sweep"], rng):
        rows = [[family_ref(f) for f in canonical_families(p, q, e, d)] for e in grid]
        lead = _leading(p, q, d)
        rows = [[ref | lead[k] for k, ref in enumerate(row)] for row in rows]
        requests.append({"p": p, "q": q, "direction": d, "rows": rows})
        print(p, q, d, g, file=sys.stderr, flush=True)
    return {"grid": SWEEP_GRID, "e": grid, "requests": requests}


@functools.lru_cache(maxsize=None)
def _leading(p, q, d):
    """Leading-coefficient entries of both families (they do not depend on e)."""
    return tuple(
        {"leading_exponent": lc.exponent, "leading_coefficient": lc.value}
        for lc in map(leading_coefficient, canonical_families(p, q, 0.5, d))
    )


def _draw(rng, pairs, n, e_lo, e_hi):
    draws = []
    for _ in range(n):
        p, q = rng.choice(pairs)
        draws.append((p, q, rng.choice(DIRECTIONS), rng.uniform(e_lo, e_hi)))
    return draws


def make_coeff(rng):
    candidates = _draw(rng, coprime_pairs(15, 15), COEFF_CANDIDATES, 0.05, 0.85)
    key = {c: (grazing(canonical_families(*c[:2], c[3], c[2])), series_order(*c[:3]), c)
           for c in candidates}
    requests = []
    for p, q, d, e in panel(candidates, key.get, PANEL["coeff"], rng):
        fams = [
            family_ref(f) | lead
            for f, lead in zip(canonical_families(p, q, e, d), _leading(p, q, d))
        ]
        requests.append({"p": p, "q": q, "direction": d, "e": e, "families": fams})
        print(p, q, d, e, file=sys.stderr, flush=True)
    return {"requests": requests}


def newton_iterations(f):
    """Integrations per Newton solve at each mu (None where it diverges)."""
    calls = []
    solve_ivp = verifier.solve_ivp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_ivp(*args, **kwargs)

    verifier.solve_ivp = counted
    try:
        its = []
        for mu in MU_LIST:
            calls.clear()
            try:
                verifier.refine_periodic_orbit(f, mu, 1e-10)
                its.append(len(calls))
            except RtbpError:
                its.append(None)
        return its
    finally:
        verifier.solve_ivp = solve_ivp


def make_verify(rng):
    candidates = _draw(rng, coprime_pairs(3, 7), VERIFY_CANDIDATES, 0.1, 0.5)
    requests = []
    for p, q, d, e in panel(candidates, lambda c: (c[2], c), PANEL["verify"], rng):
        fams = [
            family_ref(f) | lead | {"newton_iterations": newton_iterations(f)}
            for f, lead in zip(canonical_families(p, q, e, d), _leading(p, q, d))
        ]
        requests.append({"p": p, "q": q, "direction": d, "e": e, "families": fams})
        print(p, q, d, e, file=sys.stderr, flush=True)
    return {"requests": requests}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=("sweep", "coeff", "verify"))
    args = ap.parse_args()
    make = {"sweep": make_sweep, "coeff": make_coeff, "verify": make_verify}[args.workload]
    data = make(random.Random(f"{PANEL_SEED}-{args.workload}"))
    data["panel_seed"] = PANEL_SEED
    data["ref_tol"] = REF_TOL
    out = os.path.join(ROOT, "perfbench", "refs", f"{args.workload}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
