"""The failure messages the benchmark parses.

`perfbench/check.py` classifies a `coeff` request that exits 2 by the text
of its stderr.  These tests feed the unchanged checker the CLI's real output
for a node-cap failure and for a collision, so a reworded error message
fails here rather than as a miscounted benchmark run.
"""

import importlib.util
import os

from rtbp_resonance import coefficient
from rtbp_resonance.cli import main
from rtbp_resonance.coefficient import min_delta1
from rtbp_resonance.perturbation import canonical_families

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _check():
    spec = importlib.util.spec_from_file_location(
        "perfbench_check", os.path.join(ROOT, "perfbench", "check.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _coeff(capsys, p, q, e, direction):
    argv = ["coeff", "--p", str(p), "--q", str(q), "--e", repr(e), "--direction", direction]
    code = main(argv)
    captured = capsys.readouterr()
    families = canonical_families(p, q, e, direction)
    request = {"p": p, "families": [{"min_delta1": min_delta1(f)} for f in families]}
    return request, code, captured.out, captured.err


def test_node_cap_is_no_convergence(capsys, monkeypatch):
    # A retrograde grazing track whose families start on panels and converge
    # there on 4,883 nodes a period; a node cap of 2^12 stops both at 2,451.
    monkeypatch.setattr(coefficient, "NODE_CAP", 2**12)
    req, code, out, err = _coeff(capsys, 10, 9, 0.07798046698579171, "retrograde")
    assert code == 2 and "quadrature did not reach tol=1e-10 at 2451 nodes" in err
    outcomes = [r["outcome"] for r in _check().check_coeff(req, code, out, err)]
    assert outcomes == ["no-convergence", "no-convergence"]


def test_collision_is_confirmed(capsys):
    # The first 3:1 family reaches the small primary (Delta1 = 0) at this e.
    e_star = 1.0 - 3.0 ** (-2.0 / 3.0)
    req, code, out, err = _coeff(capsys, 3, 1, e_star, "direct")
    assert code == 2 and "Delta1 = 0.000e+00" in err
    outcomes = [r["outcome"] for r in _check().check_coeff(req, code, out, err)]
    assert outcomes == ["collision", "no-result"]
