"""Benchmark of the rtbp-resonance CLI: one closed-loop client per workload.

    python3 perfbench/run.py --workload sweep|coeff|verify --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  One
process, no worker pool (``sweep --jobs 1``), one BLAS thread.

Times are in seconds of the reference host.  The host shares its cores with
other machines and its speed drifts by up to 2x within minutes, which moved
raw wall-clock metrics by 25-45% between runs.  So a fixed calibration
kernel runs before and after every timed request (and every set-up
interpreter), and each wall time is scaled by CAL_REF_S over the mean of
its two calibrations; the raw wall times are printed too.  Over five runs
each on a 2-core Intel Xeon VM, this cut the spread (interquartile range
over median) of the ``coeff`` throughput from 38% to 3%.

``--trace 0`` measures the end-to-end metrics: it times fresh interpreters
that import the CLI and answer the workload's warm-up request (``setup_s``),
then sends the workload's panel once in a seeded order (``workloads.py``),
each request after the previous one returned.  ``--trace 1`` sends the same
requests twice each, once plain and once under the tracer, and reports the
per-layer metrics.  Every response is checked against the stored
references (``check.py``).  The last line of stdout is the result as one
JSON object; the lines before it explain the run, and the ``metrics`` line
adds the metrics that are reported but not gated (``request_s_p90``,
``failed_share`` and the ``verify`` accuracy figures).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread limits)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from check import FAILED, INCORRECT, check  # noqa: E402
from spans import EXACT_COUNTS, IMPORTS, PER_LAYER, Tracer  # noqa: E402
from workloads import GRAZING_DELTA1, WORKLOADS, families  # noqa: E402

SETUP_REPEATS = 5
CAL_REF_S = 0.0075  # the calibration kernel on the quiet reference host
_CAL_X = np.linspace(0.0, 6.0, 20000)
SETUP_CODE = "import sys; from rtbp_resonance.cli import main; sys.exit(main(sys.argv[1:]))"

# Gated metrics: every run reports each of them (BENCHMARK.json end_to_end).
END_TO_END = {
    "setup_s": "s",
    "families_per_s": "1/s",
    "request_s_p50": "s",
    "within_1pct_share": "ratio",
    "peak_rss_mb": "MB",
}
# Reported, not gated: 0 on some workloads, undefined on others, or (the
# p90) resting on fewer than ten samples beyond it except on coeff.
REPORTED = {
    "request_s_p90": "s",
    "failed_share": "ratio",
    "verify_rel_err_p50": "ratio",
    "verify_within_1pct_share": "ratio",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def calibration_s():
    """Seconds the fixed calibration kernel (a Python loop, NumPy passes) takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i * 0.5) % 3.0
    for _ in range(20):
        acc += float(np.sqrt(1.0 + _CAL_X * _CAL_X - 2.0 * _CAL_X * np.cos(_CAL_X)).sum())
    return time.perf_counter() - t0


def host_factors(cals):
    """Scale factor of each interval between consecutive calibrations."""
    return [CAL_REF_S / (0.5 * (a + b)) for a, b in zip(cals, cals[1:])]


def measure_setup(warmup):
    """Median seconds of a fresh interpreter answering the warm-up request."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibration_s()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *warmup], cwd=ROOT, env=child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True, timeout=120,
        )
        wall = time.perf_counter() - t0
        times.append(wall * host_factors([before, calibration_s()])[0])
    return statistics.median(times)


def import_times(repeats=3):
    """Median cumulative import seconds of IMPORTS in fresh interpreters."""
    samples = defaultdict(list)
    for _ in range(repeats):
        before = calibration_s()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rtbp_resonance.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True, timeout=120,
        )
        factor = host_factors([before, calibration_s()])[0]
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORTS:
                samples[parts[2].strip()].append(int(parts[1]) * 1e-6 * factor)
    return {mod: statistics.median(samples[mod]) for mod in IMPORTS}


def call(cli, argv):
    """One request through cli.main in-process: (exit code, stdout, stderr, seconds).

    An exception escaping main is recorded as exit code None, which the
    check counts as an unexpected exit.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception:
            rc = None
            traceback.print_exc()
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def quartiles(values):
    return [round(v, 6) for v in statistics.quantiles(values, n=4)]


def input_properties(workload, seed, reqs, outcomes):
    """Properties of the inputs a run met, so claims can cite who has them."""
    fams = [f for r in reqs for f in families(r)]
    props = {
        "seed": seed,
        "requests": len(reqs),
        "families": len(fams),
        "grazing_share": sum(f["min_delta1"] < GRAZING_DELTA1 for f in fams) / len(fams),
        "node_cap_hits": sum(o == "no-convergence" for o in outcomes),
        "collision_share": sum(o == "collision" for o in outcomes) / len(outcomes),
        # a sweep request's rows share one resonance: count its two families once
        "series_order_hist": dict(sorted(Counter(
            f["leading_exponent"] for r in reqs for f in families(r)[:2]
        ).items())),
    }
    if workload.name == "verify":
        its = [n for f in fams for n in f["newton_iterations"] if n is not None]
        props["newton_iterations_per_orbit"] = sum(its) / len(its)
    return props


def summarize(workload, seed, done, panel):
    """Check every response; print outcomes and input properties.

    ``done`` holds (request, exit code, stdout, stderr, seconds).  Returns
    (correct, requests failed, family outcomes, verify relative errors); a
    request failed when it exited non-zero or its output failed the check.
    """
    outcomes, rel_errs, req_failed = [], [], 0
    for req, rc, out, err, _ in done:
        res = check(workload.name, req, rc, out, err, panel)
        outcomes += [o["outcome"] for o in res]
        rel_errs += [o["rel_err"] for o in res if o.get("rel_err") is not None]
        req_failed += rc != 0 or any(o["outcome"] in INCORRECT for o in res)
    print("outcomes", json.dumps(dict(Counter(outcomes))))
    print("inputs", json.dumps(input_properties(workload, seed, [d[0] for d in done], outcomes)))
    correct = not any(o in INCORRECT for o in outcomes)
    return correct, req_failed, outcomes, rel_errs


def end_to_end(workload, seed, seconds, cli, panel):
    setup_s = measure_setup(workload.warmup)
    call(cli, workload.warmup)  # let lazy set-up finish in this process too
    done, cals = [], [calibration_s()]
    for req in workload.requests(panel, seed, seconds):
        done.append((req, *call(cli, workload.argv(req, panel))))
        cals.append(calibration_s())
    factors = host_factors(cals)
    raw = [d[-1] for d in done]
    times = [t * f for t, f in zip(raw, factors)]

    print(f"workload={workload.name} seed={seed} requests={len(done)} "
          f"request_s_quartiles={quartiles(times)} raw_wall_s={sum(raw):.3f} "
          f"raw_request_s_quartiles={quartiles(raw)} host_factor_quartiles={quartiles(factors)}")
    correct, req_failed, outcomes, rel_errs = summarize(workload, seed, done, panel)
    within = sum(o in ("ok", "collision") for o in outcomes) - sum(r > 0.01 for r in rel_errs)
    metrics = {
        "setup_s": setup_s,
        "families_per_s": len(outcomes) / sum(times),
        "request_s_p50": statistics.median(times),
        "request_s_p90": statistics.quantiles(times, n=10, method="inclusive")[8],
        "within_1pct_share": within / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": sum(o in FAILED for o in outcomes) / len(outcomes),
    }
    if rel_errs:
        metrics["verify_rel_err_p50"] = statistics.median(rel_errs)
        metrics["verify_within_1pct_share"] = metrics["within_1pct_share"]
    print("metrics", json.dumps({
        k: {"value": v, "unit": (END_TO_END | REPORTED)[k]} for k, v in metrics.items()
    }))
    return correct, len(done), req_failed, metrics


def traced(workload, seed, seconds, cli, panel):
    call(cli, workload.warmup)
    reqs = workload.requests(panel, seed, seconds)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    done, factors = [], {}
    for i, req in enumerate(reqs):
        argv = workload.argv(req, panel)
        # alternate which side goes first so warm caches favour neither
        for under_trace in (False, True) if i % 2 == 0 else (True, False):
            before = calibration_s()
            if under_trace:
                tracer.request = i
                tracer.install()
            try:
                result = call(cli, argv)
            finally:
                tracer.uninstall()
            factor = host_factors([before, calibration_s()])[0]
            if under_trace:
                done.append((req, *result))
                factors[i] = factor
                traced_s += result[-1] * factor
            else:
                plain_s += result[-1] * factor
    out_bytes = sum(len(d[2].encode()) for d in done) / len(done)
    import_s = import_times()
    metrics = tracer.metrics(out_bytes, traced_s / plain_s - 1.0, import_s, factors)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tracer.dump(os.path.join(HERE, "out", f"trace-{workload.name}-seed{seed}.json"), factors)
    print(f"workload={workload.name} seed={seed} traced_requests={len(reqs)} "
          f"plain_s={plain_s:.3f} traced_s={traced_s:.3f}")
    print("exact_counts", json.dumps({k: metrics[k] for k in EXACT_COUNTS}))
    correct, req_failed, _, _ = summarize(workload, seed, done, panel)
    return correct, len(reqs), req_failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time the panel share is sized for")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rtbp_resonance", "cli.py")):
        sys.stderr.write(f"perfbench: no package source under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    from rtbp_resonance import cli

    workload = WORKLOADS[args.workload]
    panel = workload.load()
    if args.trace:
        correct, attempted, failed, metrics = traced(workload, args.seed, args.seconds, cli, panel)
        units = PER_LAYER
    else:
        correct, attempted, failed, metrics = end_to_end(
            workload, args.seed, args.seconds, cli, panel
        )
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
