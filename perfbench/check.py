"""Output checks: every CLI response against the stored references.

Each attempted family gets one outcome:

* ``ok`` -- the returned values match the reference;
* ``collision`` -- a collision the reference confirms (min Delta1 <=
  COLLISION_DELTA): a correct outcome, not a failure;
* ``no-convergence`` / ``corrector-divergence`` -- the program's typed
  failures;
* ``no-result`` -- the family's sibling collided and the request exited 2
  before this family's value was written;
* ``unreferenced`` -- a value returned where the reference has none; it
  cannot be checked, so it counts as failed and is reported;
* ``mismatch`` / ``bad-exit`` -- wrong values, a broken family-pair
  identity, malformed output or an unexpected exit code.  These make the run
  incorrect.

Everything but ``ok`` and ``collision`` counts toward ``failed_share``.  The
``timings`` field of JSON records is ignored.
"""

from __future__ import annotations

import csv
import io
import json
import math

# rtbp_resonance.coefficient.COLLISION_DELTA at the reference commit, pinned
# here so that a change to the package's threshold cannot turn failures into
# confirmed collisions.
COLLISION_DELTA = 1e-6
C_RTOL = 1e-8  # the CLI's quadrature tolerance is absolute (1e-10 on C1 + C2)
C_ATOL = 1e-9
DELTA_RTOL = 1e-6
SERIES_RTOL = 1e-9
FAILED = (
    "no-convergence", "corrector-divergence", "no-result", "unreferenced", "mismatch", "bad-exit",
)
INCORRECT = ("mismatch", "bad-exit")


def _close(value, ref, rtol, atol=0.0):
    return value is not None and math.isfinite(value) and abs(value - ref) <= rtol * abs(ref) + atol


def _check_C(p, value, ref):
    """Outcome of one returned quadrature C against its reference entry."""
    if ref["C"] is None:
        return "unreferenced"
    atol = C_ATOL * 6.0 * math.pi * p * p
    return "ok" if _close(value, ref["C"], C_RTOL, atol) else "mismatch"


def _failed_request(req, rc, err):
    """Outcomes of a request that exited 2; its output is lost for both families."""
    if rc != 2 or "computation failed" not in err:
        return ["bad-exit", "bad-exit"]
    if "quadrature did not reach" in err:
        return ["no-convergence", "no-convergence"]
    if "Delta1" in err:  # a CollisionError is correct only where the reference confirms it
        hit = [f["min_delta1"] <= COLLISION_DELTA for f in req["families"]]
        return ["collision" if h else "no-result" for h in hit] if any(hit) else ["mismatch"] * 2
    return ["bad-exit", "bad-exit"]


def check_coeff(req, rc, out, err):
    if rc != 0:
        return [dict(outcome=o) for o in _failed_request(req, rc, err)]
    try:
        fams = json.loads(out)["outputs"]["families"]
        assert len(fams) == 2
    except (ValueError, KeyError, TypeError, AssertionError):
        return [dict(outcome="bad-exit") for _ in req["families"]]
    results = []
    for got, ref in zip(fams, req["families"]):
        outcome = _check_C(req["p"], got["C"], ref)
        scale = -6.0 * math.pi * req["p"] ** 2
        if not (
            _close(got["C"], scale * (got["C1"] + got["C2"]), 1e-12, 1e-12)
            and _close(got["min_delta1"], ref["min_delta1"], DELTA_RTOL, 1e-12)
            and got["leading_exponent"] == ref["leading_exponent"]
            and _close(got["leading_coefficient"], ref["leading_coefficient"], SERIES_RTOL)
        ):
            outcome = "mismatch"
        results.append(dict(outcome=outcome))
    # family-pair identity: the leading coefficients of the two families cancel
    lc = [got["leading_coefficient"] for got in fams]
    if abs(lc[0] + lc[1]) > SERIES_RTOL * max(abs(lc[0]), abs(lc[1])):
        results = [dict(outcome="mismatch") for _ in results]
    return results


def check_sweep(req, rc, out, err, grid):
    n = 2 * len(grid)
    if rc not in (0, 2):  # 2: every row failed, the CSV is still written
        return [dict(outcome="bad-exit")] * n
    try:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["e", "C_family1", "C_family2", "min_delta1_1", "min_delta1_2",
                           "status_1", "status_2"]
        rows = rows[1:]
        assert len(rows) == len(grid)
    except (IndexError, AssertionError):
        return [dict(outcome="bad-exit")] * n
    results = []
    for row, e, refs in zip(rows, grid, req["rows"]):
        for k, ref in enumerate(refs):
            C, md, status = row[1 + k], row[3 + k], row[5 + k]
            md = float(md) if md else None
            same_e = _close(float(row[0]), e, 1e-15)
            if not same_e or not _close(md, ref["min_delta1"], DELTA_RTOL, 1e-12):
                outcome = "mismatch"
            elif status == "ok":
                outcome = _check_C(req["p"], float(C), ref)
            elif status == "collision":
                confirmed = max(md, ref["min_delta1"]) <= COLLISION_DELTA
                outcome = "collision" if confirmed else "mismatch"
            elif status == "no-convergence":
                outcome = "no-convergence"
            else:
                outcome = "mismatch"
            results.append(dict(outcome=outcome))
    return results


def check_verify(req, rc, out, err):
    if rc != 0:
        return [dict(outcome=o) for o in _failed_request(req, rc, err)]
    try:
        fams = json.loads(out)["outputs"]["families"]
        assert len(fams) == 2
    except (ValueError, KeyError, TypeError, AssertionError):
        return [dict(outcome="bad-exit") for _ in req["families"]]
    results = []
    for got, ref in zip(fams, req["families"]):
        if got["status"] != "ok":
            ok_status = got["status"] == "corrector-divergence"
            results.append(dict(outcome="corrector-divergence" if ok_status else "mismatch"))
            continue
        outcome = _check_C(req["p"], got["C_quadrature"], ref)
        rel = None
        if outcome == "ok":
            C_ext = got["extrapolated_C"]
            rel = abs(C_ext - got["C_quadrature"]) / abs(got["C_quadrature"])
            if not (math.isfinite(rel) and _close(got["relative_error"], rel, 1e-12, 1e-300)):
                outcome, rel = "mismatch", None
        results.append(dict(outcome=outcome, rel_err=rel))
    return results


def check(workload, req, rc, out, err, panel):
    if workload == "sweep":
        return check_sweep(req, rc, out, err, panel["e"])
    return {"coeff": check_coeff, "verify": check_verify}[workload](req, rc, out, err)
