"""Compare a parent result set with a change result set.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory of run outputs, one file per run, each holding
the stdout of ``perfbench/run.py`` (for example
``python3 perfbench/run.py --workload coeff --seed 3 --seconds 25 --trace 0
> parent/coeff-3-0.txt``).  Runs pair up by workload and seed.

For each workload and metric (the gated end-to-end metrics, then the
reported ones from the ``metrics`` line) it prints both medians with their
quartiles, the pair wins of the change, and a verdict:

* ``improved``: the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the parent's own
  spread (the distance between its quartiles);
* ``no worse``: the change's median is not worse than the parent's by more
  than the metric's bound from BENCHMARK.json;
* ``unresolved``: the parent's spread is wider than the bound and not every
  change run beats every parent run;
* ``worse``: otherwise;
* ``not gated``: a reported metric without a bound that did not improve.

From traced runs it prints the per-layer medians and their deltas, which
show where a saving landed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
REPORTED = [
    {"name": "request_s_p90", "better": "lower"},
    {"name": "failed_share", "better": "lower"},
    {"name": "verify_rel_err_p50", "better": "lower"},
    {"name": "verify_within_1pct_share", "better": "higher"},
]


def load(directory):
    """{(workload, trace): {seed: metrics}} from the run outputs in a directory."""
    runs = defaultdict(dict)
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as fh:
            lines = fh.read().splitlines()
        if not lines or not lines[-1].startswith('{"correct"'):
            print(f"skipped {name}: no result line", file=sys.stderr)
            continue
        head = dict(kv.split("=", 1) for kv in lines[0].split() if "=" in kv)
        metrics = json.loads(lines[-1])["metrics"]
        for line in lines:
            if line.startswith("metrics "):
                metrics = json.loads(line[len("metrics "):]) | metrics
        trace = int("traced_requests" in head)
        runs[(head["workload"], trace)][int(head["seed"])] = {
            k: v["value"] for k, v in metrics.items()
        }
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """The choosing-metrics rule for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p1, pm, p3 = quartiles(list(parent.values()))
    _, cm, _ = quartiles(list(change.values()))
    spread = p3 - p1
    all_better = all(sign * (c - p) > 0 for c in change.values() for p in parent.values())
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) > spread:
        v = "improved"
    elif bound is None:
        v = "not gated"
    elif spread > bound * abs(pm) and not all_better:
        v = "unresolved"
    elif sign * (cm - pm) >= -bound * abs(pm):
        v = "no worse"
    else:
        v = "worse"
    return wins, len(pairs), v


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parent, change = load(args.parent), load(args.change)
    worst = "improved"
    print(f"{'workload':8} {'metric':24} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'wins':7} verdict")
    for w in spec["workloads"]:
        key = (w["name"], 0)
        if key not in parent or key not in change:
            print(f"{w['name']:8} (no untraced runs in both sets)")
            continue
        for m in spec["end_to_end"] + REPORTED:
            pv = {s: r[m["name"]] for s, r in parent[key].items() if m["name"] in r}
            cv = {s: r[m["name"]] for s, r in change[key].items() if m["name"] in r}
            if not pv or not cv:
                continue
            wins, n, v = verdict(pv, cv, m["better"], m.get("bound"))
            if v in ("worse", "unresolved"):
                worst = v if worst != "worse" else worst
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"  # noqa: E731
            print(f"{w['name']:8} {m['name']:24} {fmt(quartiles(list(pv.values()))):34} "
                  f"{fmt(quartiles(list(cv.values()))):34} {wins}/{n:<5} {v}")
    for w in spec["workloads"]:
        key = (w["name"], 1)
        if key not in parent or key not in change:
            continue
        print(f"\nper-layer medians, {w['name']} (traced runs)")
        for m in spec["per_layer"]:
            pm = statistics.median(r[m["name"]] for r in parent[key].values())
            cm = statistics.median(r[m["name"]] for r in change[key].values())
            if pm or cm:
                print(f"  {m['name']:36} {pm:14.6g} -> {cm:14.6g}  "
                      f"delta {cm - pm:+.6g} {m['unit']}")
    return 1 if worst == "worse" else 0


if __name__ == "__main__":
    sys.exit(main())
