"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest perfbench -q

They take a few minutes: the exact-count test makes two traced runs of
every workload.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)

from rtbp_resonance import cli  # noqa: E402
from check import check  # noqa: E402
from spans import EXACT_COUNTS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in spec["end_to_end"]) == spec["end_to_end"][0]["bound"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counts_repeat_bit_for_bit(workload):
    counts = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        counts.append(json.loads(next(l for l in lines if l.startswith("exact_counts"))[13:]))
        result = json.loads(lines[-1])
        assert result["correct"]
        assert set(result["metrics"]) == set(PER_LAYER)
    assert counts[0] == counts[1]
    assert set(counts[0]) == set(EXACT_COUNTS)


def _first(workload):
    w = WORKLOADS[workload]
    panel = w.load()
    req = panel["requests"][0]
    rc, out, err, _ = run.call(cli, w.argv(req, panel))
    return panel, req, rc, out, err


def test_check_accepts_true_coeff_output():
    panel, req, rc, out, err = _first("coeff")
    outcomes = [o["outcome"] for o in check("coeff", req, rc, out, err, panel)]
    assert outcomes and set(outcomes) <= {"ok", "no-convergence"}


def test_check_rejects_a_wrong_coefficient_and_a_broken_family_pair():
    panel, req, rc, out, err = _first("coeff")
    assert rc == 0
    rec = json.loads(out)
    rec["outputs"]["families"][0]["C"] += 1e-6 * (1.0 + abs(rec["outputs"]["families"][0]["C"]))
    bad = check("coeff", req, rc, json.dumps(rec), err, panel)
    assert bad[0]["outcome"] == "mismatch"
    rec = json.loads(out)
    rec["outputs"]["families"][1]["leading_coefficient"] *= -1.0
    req = json.loads(json.dumps(req))
    req["families"][1]["leading_coefficient"] *= -1.0  # only the identity can catch it now
    bad = check("coeff", req, rc, json.dumps(rec), err, panel)
    assert {o["outcome"] for o in bad} == {"mismatch"}


def test_check_rejects_a_wrong_sweep_row():
    panel, req, rc, out, err = _first("sweep")
    lines = out.splitlines()
    i = next(i for i, line in enumerate(lines) if line.split(",")[5] == "ok")
    cells = lines[i].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-6) + 1e-6)  # beyond both tolerances
    lines[i] = ",".join(cells)
    outcomes = [o["outcome"] for o in check("sweep", req, rc, "\n".join(lines), err, panel)]
    assert outcomes.count("mismatch") == 1
    assert outcomes[2 * (i - 1)] == "mismatch"


def test_missing_package_source_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = _bench("--workload", "coeff", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
