"""The benchmark's three workloads, their panels and seeded request orders.

Every workload is one closed-loop client: it sends its next CLI request,
``rtbp_resonance.cli.main([...])`` in-process, only after the previous one
has returned.  Requests come from a fixed panel stored with its reference
values in ``perfbench/refs/<workload>.json``.  ``make_refs.py`` drew each
panel once from its population, as a sample that keeps the population's
share of grazing tracks and of series orders.  The program sees only the
generated CLI arguments.

A run sends the panel once, in an order drawn from the seed.  The panel is
sized so that one pass takes about PANEL_SECONDS on a 2-core Intel Xeon VM;
a run asked for fewer seconds sends that share of it, a seeded subset.  So
at the benchmark's own ``run_seconds`` every run meets the same mix and the
seed changes only the order (and with it the state of warm caches each
request meets).  Why a fixed mix: the work per request spans more than a
hundredfold between a smooth track and one that runs to the node cap, and a
time-boxed random draw of a few dozen requests moved ``families_per_s`` by
10-50% from seed to seed, more than any useful bound.  Why one pass: a
request sent twice would let an in-process cache answer it for free, which
no user of single-point requests sees.

Why each workload exists:

* ``sweep`` -- C(e) curves are the paper's headline output.  Resonances with
  p, q <= 9, both directions; each request is one ``sweep --jobs 1`` over
  e = 0.05 ... 0.85 in steps of 0.05.  The quadrature layers
  (``coefficient``, ``perturbation``, ``kepler``) do nearly all the work;
  ``series`` and ``verifier`` do none.  The grid crosses grazing tracks
  naturally, so the smooth node-doubling path and the node-cap path both
  run, in their real proportions.
* ``coeff`` -- single-point ``coeff`` requests, p, q <= 15, both directions,
  e ~ U(0.05, 0.85).  Quadrature runs at one e per resonance with nothing
  reused across a grid, and each request also assembles the exact leading
  series of both families and writes one JSON record.  A per-resonance cache
  or pool that helps ``sweep`` and costs single-point use shows here.
* ``verify`` -- ``verify`` requests, p <= 3, q <= 7, both directions,
  e ~ U(0.1, 0.5), the default mu list and no ``--cache-dir``.  Newton
  shooting and monodromy do more than 95% of the work; one ``compute_C`` per
  family and no series.  It carries the accuracy metrics that a faster
  integrator or a half-period monodromy must not worsen.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

GRAZING_DELTA1 = 0.05
PANEL_SECONDS = 25
HERE = os.path.dirname(os.path.abspath(__file__))


def _family_argv(command, req):
    return [command, "--p", str(req["p"]), "--q", str(req["q"]), "--direction", req["direction"]]


def _sweep_argv(req, panel):
    g = panel["grid"]
    return _family_argv("sweep", req) + [
        "--e-min", repr(g["e_min"]), "--e-max", repr(g["e_max"]), "--e-step", repr(g["e_step"]),
        "--jobs", "1",
    ]


def _coeff_argv(req, panel):
    return _family_argv("coeff", req) + ["--e", repr(req["e"])]


def _verify_argv(req, panel):
    return _family_argv("verify", req) + ["--e", repr(req["e"])]


def families(req):
    """Reference entries of every family a request attempts."""
    if "rows" in req:
        return [f for row in req["rows"] for f in row]
    return req["families"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable
    warmup: tuple

    def load(self):
        with open(os.path.join(HERE, "refs", f"{self.name}.json")) as fh:
            return json.load(fh)

    def requests(self, panel, seed, seconds):
        """The requests of one run: a seeded order of (a share of) the panel."""
        reqs = panel["requests"]
        n = min(len(reqs), math.ceil(len(reqs) * seconds / PANEL_SECONDS))
        return random.Random(seed).sample(reqs, n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep",
            why="C(e) curves over a fixed e grid: quadrature layers only, "
                "smooth and node-cap tracks in real proportion",
            argv=_sweep_argv,
            warmup=("sweep", "--p", "1", "--q", "3", "--e-min", "0.05", "--e-max", "0.85",
                    "--e-step", "0.05", "--jobs", "1"),
        ),
        Workload(
            name="coeff",
            why="single-point coeff requests: quadrature at one e with no reuse, "
                "plus exact series assembly and one JSON record",
            argv=_coeff_argv,
            warmup=("coeff", "--p", "1", "--q", "3", "--e", "0.3"),
        ),
        Workload(
            name="verify",
            why="full-problem verify requests: Newton shooting and monodromy dominate; "
                "carries the accuracy metrics",
            argv=_verify_argv,
            warmup=("verify", "--p", "2", "--q", "1", "--e", "0.3"),
        ),
    )
}
