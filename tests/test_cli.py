"""Command-line interface tests: JSON/CSV output, exit codes, the config-file
mechanism, determinism, the sweep's `--jobs` compatibility, caching, and the
regularization self-check battery."""

import json
import math
import subprocess
import sys

import pytest

from oracles import compute_C_via_omega_gg
from rtbp_resonance import cli, coefficient, levi_civita, series
from rtbp_resonance.cli import main
from rtbp_resonance.perturbation import canonical_families
from rtbp_resonance.verifier import verify_families

E_GRID_12 = ",".join(f"{0.05 * k:.2f}" for k in range(1, 13))


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeff:
    def test_record_shape_and_signs(self, capsys):
        code, out, _ = _run(
            capsys, ["coeff", "--p", "1", "--q", "3", "--e", "0.3", "--tol", "1e-10"]
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["schema_version"] == 2
        assert rec["command"] == "coeff"
        assert rec["status"] == "ok"
        fams = rec["outputs"]["families"]
        assert len(fams) == 2
        assert [f["rule"] for f in fams] == ["trapezoid", "trapezoid"]
        assert fams[0]["C"] * fams[1]["C"] < 0.0
        assert fams[0]["C"] == pytest.approx(39.21035800269192, rel=1e-9)
        assert rec["timings"]["seconds"] == round(rec["timings"]["seconds"], 6)
        for fam in fams:
            assert fam["min_delta1"] > 0.0
            assert fam["leading_exponent"] == 2

    def test_full_precision_round_trip(self, capsys):
        _, out, _ = _run(capsys, ["coeff", "--p", "1", "--q", "3", "--e", "0.3"])
        fam = json.loads(out)["outputs"]["families"][0]
        # 17 significant digits reconstruct the binary double exactly
        assert fam["C"] == float(f"{fam['C']:.17g}")

    def test_grazing_family_reports_the_panel_rule(self, capsys):
        # Family 1 passes the small primary at Delta1 = 1.4e-3 and leaves the
        # trapezoid for panels; its record is compute_C's, with rule panels.
        argv = ["coeff", "--p", "7", "--q", "15", "--e", "0.6598103462577234",
                "--direction", "retrograde"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        fam = json.loads(out)["outputs"]["families"][0]
        res = coefficient.compute_C(canonical_families(7, 15, 0.6598103462577234, "retrograde")[0])
        assert fam["rule"] == res.rule == "panels"
        assert (fam["C"], fam["nodes"], fam["err_estimate"]) == (res.C, res.nodes, res.err_estimate)

    def test_identical_ratio_rejected(self, capsys):
        code, _, err = _run(capsys, ["coeff", "--p", "2", "--q", "2", "--e", "0.1"])
        assert code == 1
        assert "error" in err

    def test_missing_required_flag(self, capsys):
        code, _, _ = _run(capsys, ["coeff", "--p", "1", "--q", "3"])
        assert code == 1

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "rec.json"
        code, out, _ = _run(
            capsys,
            ["coeff", "--p", "1", "--q", "3", "--e", "0.3", "--output", str(path)],
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["command"] == "coeff"


    def test_grazing_retrograde_family_converges(self, capsys):
        # 5:9 retrograde at e = 0.55 grazes the small primary (min Delta1
        # 1.9e-3); family 1 converges with the cancellation-free Delta1 and
        # matches the Omega_gg time integral on a fine grid.
        argv = ["coeff", "--p", "5", "--q", "9", "--e", "0.55", "--direction", "retrograde"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        fam1 = json.loads(out)["outputs"]["families"][0]
        f = canonical_families(5, 9, 0.55, "retrograde")[0]
        ref = compute_C_via_omega_gg(f, nodes=2**17, step=1e-3)
        assert abs(fam1["C"] - ref) <= 1e-8 * abs(ref)


class TestSeries:
    def test_leading_term_tracks_quadrature(self, capsys):
        e = 0.01
        code, out, _ = _run(
            capsys, ["series", "--p", "2", "--q", "7", "--e", f"{e}"]
        )
        assert code == 0
        fams = json.loads(out)["outputs"]["families"]
        assert fams[0]["leading_exponent"] == 5
        assert fams[0]["leading_coefficient"] == pytest.approx(-3137.045240950772, rel=1e-9)
        code2, out2, _ = _run(capsys, ["coeff", "--p", "2", "--q", "7", "--e", f"{e}", "--tol", "1e-13"])
        c_quad = json.loads(out2)["outputs"]["families"][0]["C"]
        assert fams[0]["leading_term"] == pytest.approx(c_quad, rel=0.02)

    def test_e_optional(self, capsys):
        code, out, _ = _run(capsys, ["series", "--p", "1", "--q", "2"])
        assert code == 0
        fam = json.loads(out)["outputs"]["families"][0]
        assert "leading_term" not in fam
        assert fam["leading_exponent"] == 1

    @pytest.mark.parametrize("p,q", [(39, 40), (99, 100)])
    def test_leading_coefficient_beyond_float_range_is_computation_failure(self, capsys, p, q):
        # m = p + q >= 79 near p/q = 1: the bound v x^m of the series'
        # stopping test leaves the float range, a failed computation (exit 2)
        # naming the degree.
        argv = ["series", "--p", str(p), "--q", str(q), "--direction", "retrograde"]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("computation failed:") and f"degree {p + q} " in err

    def test_float_range_failure_comes_before_the_operator(self, capsys, monkeypatch):
        # 400:401 retrograde, m = 801: the series must leave the float range,
        # so the request fails before building the exact degree-801 operator,
        # whose cost grows faster than m^2 (3.5 s on a 2-core Xeon VM).
        def build(*args):
            raise AssertionError("the operator was built")

        monkeypatch.setattr(series, "_leading_c1_operator", build)
        code, out, err = _run(capsys, ["series", "--p", "400", "--q", "401", "--direction", "retrograde"])
        assert code == 2 and out == ""
        assert err.startswith("computation failed:") and "degree 801 " in err

    def test_laplace_non_convergence_is_computation_failure(self, capsys):
        # alpha = (99999/100000)^(2/3) is valid input, but b_q needs more
        # than the series term cap: a failed computation (exit 2).
        code, out, err = _run(capsys, ["series", "--p", "99999", "--q", "100000"])
        assert code == 2 and out == ""
        assert err.startswith("computation failed:")


class TestSweep:
    def test_header_and_rows(self, capsys):
        code, out, _ = _run(
            capsys, ["sweep", "--p", "1", "--q", "3", "--e-grid", E_GRID_12, "--jobs", "1"]
        )
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "e,C_family1,C_family2,min_delta1_1,min_delta1_2,status_1,status_2"
        assert len(lines) == 13
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[5] == cells[6] == "ok"
            assert float(cells[1]) * float(cells[2]) < 0.0

    def test_range_grid(self, capsys):
        code, out, _ = _run(
            capsys,
            ["sweep", "--p", "1", "--q", "3", "--e-min", "0.1", "--e-max", "0.3",
             "--e-step", "0.1", "--jobs", "1"],
        )
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        got = [float(line.split(",")[0]) for line in lines[1:]]
        assert got == pytest.approx([0.1, 0.2, 0.3], abs=1e-12)

    def test_incomplete_range_rejected(self, capsys):
        code, _, err = _run(
            capsys, ["sweep", "--p", "1", "--q", "3", "--e-min", "0.1", "--jobs", "1"]
        )
        assert code == 1 and "error" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--e-step=nan"],
            ["--e-min=nan"],
            ["--e-max=inf"],
            ["--e-step=inf"],
            ["--e-min=-1e308", "--e-max=1e308", "--e-step=1"],
            # finite, but 2e11 and 2e299 grid points: rejected before the list is built
            ["--e-step=1e-12"],
            ["--e-step=1e-300"],
        ],
    )
    def test_non_finite_range_rejected(self, capsys, flags):
        argv = ["sweep", "--p", "1", "--q", "3", "--e-min=0.1", "--e-max=0.3",
                "--e-step=0.1", *flags, "--jobs", "1"]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: --e-min, --e-max, --e-step and their step count")

    @pytest.mark.parametrize("grid", [["--e-grid", "0.3"], []], ids=["grid", "empty"])
    def test_negative_jobs_rejected(self, capsys, grid):
        code, out, err = _run(capsys, ["sweep", "--p", "1", "--q", "3", *grid, "--jobs", "-3"])
        assert code == 1 and out == ""
        assert err.startswith("error: --jobs must be 0 or positive (a sweep runs in one process)")

    def test_empty_grid_emits_header_only(self, capsys):
        code, out, _ = _run(capsys, ["sweep", "--p", "1", "--q", "3", "--jobs", "1"])
        assert code == 0
        assert out.rstrip("\n").split("\n") == [
            "e,C_family1,C_family2,min_delta1_1,min_delta1_2,status_1,status_2"
        ]

    def test_collision_row_flagged(self, capsys):
        # the first 3:1 family hits the small primary at this eccentricity;
        # its sibling does not, so the sweep still succeeds overall
        e_star = 1.0 - 3.0 ** (-2.0 / 3.0)
        code, out, _ = _run(
            capsys,
            ["sweep", "--p", "3", "--q", "1", "--e-grid", f"{e_star:.17g}", "--jobs", "1"],
        )
        assert code == 0
        row = out.rstrip("\n").split("\n")[1].split(",")
        assert row[5] == "collision" and row[6] == "ok"
        assert row[1] == ""  # no value, flagged instead of dropped
        assert float(row[3]) < 1e-6

    def test_every_row_failed_exits_2_with_the_csv(self, capsys, monkeypatch):
        # a node cap of 2**7 stops every family before its stopping rule
        monkeypatch.setattr(coefficient, "NODE_CAP", 2**7)
        code, out, err = _run(
            capsys, ["sweep", "--p", "1", "--q", "3", "--e-grid", "0.2,0.3", "--jobs", "1"]
        )
        assert code == 2 and err == ""
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "e,C_family1,C_family2,min_delta1_1,min_delta1_2,status_1,status_2"
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] == cells[2] == ""
            assert float(cells[3]) > 0.0 and float(cells[4]) > 0.0
            assert cells[5] == cells[6] == "no-convergence"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--e-min", "0.1", "--e-max", "0.3", "--e-step", "0"], "--e-step must be positive"),
            (["--e-grid", "0.3,1.2"], "eccentricity grid must lie in (0, 1)"),
        ],
        ids=["zero-step", "e-outside"],
    )
    def test_bad_grid_rejected(self, capsys, flags, message):
        code, out, err = _run(capsys, ["sweep", "--p", "1", "--q", "3", *flags, "--jobs", "1"])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("jobs", ["0", "2", "3", "100000"])
    def test_jobs_accepted_and_output_unchanged(self, capsys, tmp_path, jobs):
        # --jobs still parses, and a sweep runs in one process whatever it is.
        argv = ["sweep", "--p", "1", "--q", "3", "--e-grid", "0.1,0.2,0.3"]
        code, ref, _ = _run(capsys, argv + ["--jobs", "1"])
        assert code == 0
        assert _run(capsys, argv + ["--jobs", jobs]) == (0, ref, "")
        # byte-identical when written to a file, too
        path = tmp_path / "sweep.csv"
        assert _run(capsys, argv + ["--jobs", jobs, "--output", str(path)]) == (0, "", "")
        assert path.read_text() == ref


class TestConfig:
    @pytest.mark.parametrize(
        "spelling",
        [["--config", "{}"], ["--config={}"], ["--conf", "{}"]],
        ids=["separate", "equals", "abbreviated"],
    )
    def test_file_sets_flags(self, capsys, tmp_path, spelling):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 1\nq = 3\ne = 0.3  # moderate eccentricity\n")
        code, out, _ = _run(capsys, ["coeff"] + [s.format(cfg) for s in spelling])
        assert code == 0
        assert json.loads(out)["inputs"]["e"] == 0.3

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 1\nq = 3\ne = 0.3\n")
        _, out, _ = _run(capsys, ["coeff", "--config", str(cfg), "--e", "0.2"])
        assert json.loads(out)["inputs"]["e"] == 0.2

    def test_malformed_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("p 1\n")
        code, _, err = _run(capsys, ["coeff", "--config", str(cfg)])
        assert code == 1 and "error" in err

    def test_comment_and_blank_lines_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a 1:3 family\n\np = 1\n   # indented comment\nq = 3\ne = 0.3\n")
        code, out, _ = _run(capsys, ["coeff", "--config", str(cfg)])
        assert code == 0
        inputs = json.loads(out)["inputs"]
        assert (inputs["p"], inputs["q"], inputs["e"]) == (1, 3, 0.3)

    def test_file_not_text(self, capsys, tmp_path):
        # bytes that are not UTF-8 make one error line and exit 1, no traceback
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe\x00")
        code, out, err = _run(
            capsys, ["coeff", "--config", str(cfg), "--p", "1", "--q", "3", "--e", "0.3"]
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and str(cfg) in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = _run(
            capsys, ["coeff", "--config", str(tmp_path / "nope.cfg"), "--e", "0.3"]
        )
        assert code == 1

    def test_ambiguous_abbreviation_reported(self, capsys, tmp_path):
        # for verify, --co could be --config or --corrector-tol: no file is opened
        code, out, err = _run(
            capsys,
            ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--co", str(tmp_path / "nope.cfg")],
        )
        assert code == 1 and out == ""
        assert "ambiguous option: --co could match --config, --corrector-tol" in err


class TestParserReuse:
    """main builds its parser once per process; a call must not see state
    left by an earlier one."""

    @staticmethod
    def _fresh_parsers():
        cli.build_parser.cache_clear()
        cli._config_finder.cache_clear()

    @staticmethod
    def _strip_timings(out):
        try:
            record = json.loads(out)
        except ValueError:
            return out
        record.pop("timings", None)
        return record

    def test_sequence_matches_fresh_parsers(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 1\nq = 3\ne = 0.3\ndirection = retrograde\ntol = 1e-9\n")
        calls = [
            ["coeff", "--config", str(cfg)],
            ["coeff", "--p", "1", "--q", "3", "--e", "0.3"],  # the file's flags must not carry over
            ["coeff", "--e", "0.2"],
            ["--version"],
            ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--co", str(cfg)],
            ["coeff", "--p", "1", "--q", "2", "--e", "0.25"],
            ["sweep", "--p", "1", "--q", "3", "--e-grid", "0.2,0.3", "--jobs", "1"],
            ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--family", "1",
             "--mu-list", "1e-4,3e-5"],
        ]
        fresh = []
        for argv in calls:
            self._fresh_parsers()
            fresh.append(_run(capsys, argv))
        self._fresh_parsers()
        reused = [_run(capsys, argv) for argv in calls]
        assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 1, 0, 0, 0]
        for argv, (code, out, err), (code2, out2, err2) in zip(calls, fresh, reused):
            assert (code2, err2) == (code, err), argv
            assert self._strip_timings(out2) == self._strip_timings(out), argv
        assert cli.build_parser.cache_info().misses == 1
        configured, plain = (json.loads(reused[i][1])["inputs"] for i in (0, 1))
        assert (configured["direction"], configured["tol"]) == ("retrograde", 1e-9)
        assert (plain["direction"], plain["tol"]) == ("direct", 1e-10)
        assert "--p, --q" in reused[2][2]
        assert reused[3][1] == cli.__version__ + "\n"


@pytest.mark.parametrize("value", ["0", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["coeff", "--p", "1", "--q", "3", "--e", "0.3", "--tol"],
        ["sweep", "--p", "1", "--q", "3", "--e-grid", "0.3", "--jobs", "1", "--tol"],
        ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--tol"],
        ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--corrector-tol"],
    ],
    ids=["coeff-tol", "sweep-tol", "verify-tol", "verify-corrector-tol"],
)
def test_tolerance_must_be_positive_and_finite(capsys, argv, value):
    code, out, err = _run(capsys, argv + [value])
    assert code == 1 and out == ""
    assert err.startswith("error:")


class TestVerify:
    def test_cached_rerun_is_identical_and_fast(self, capsys, tmp_path):
        import time

        argv = [
            "verify", "--p", "1", "--q", "3", "--e", "0.3", "--family", "1",
            "--mu-list", "1e-4,3e-5", "--cache-dir", str(tmp_path / "cache"),
        ]
        code1, out1, _ = _run(capsys, argv)
        assert code1 == 0
        t0 = time.perf_counter()
        code2, out2, _ = _run(capsys, argv)
        elapsed = time.perf_counter() - t0
        assert code2 == 0
        assert out2 == out1
        assert elapsed < 1.0

        rec = json.loads(out1)
        fam = rec["outputs"]["families"][0]
        assert fam["status"] == "ok"
        assert all(p["status"] == "ok" for p in fam["per_mu"])
        assert fam["C_quadrature"] == pytest.approx(39.21035800269192, rel=1e-9)
        # a two-point fit at these mu is within a few percent of the quadrature
        assert fam["relative_error"] < 0.05

    @pytest.mark.parametrize("junk", ['{"status": "ok", trunc', "[1]"], ids=["truncated", "list"])
    def test_unparsable_entry_is_recomputed(self, capsys, tmp_path, junk):
        cache = tmp_path / "cache"
        argv = ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--family", "1",
                "--mu-list", "1e-4,3e-5", "--cache-dir", str(cache)]
        _, fresh, _ = _run(capsys, argv)
        (entry,) = cache.glob("*.json")
        entry.write_text(junk)
        code, out, err = _run(capsys, argv)
        assert code == 0 and err == ""
        strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "timings"}
        assert strip(out) == strip(fresh)
        assert entry.read_text() == out.rstrip("\n")

    def test_unreadable_entry_is_a_miss(self, capsys, tmp_path):
        # a directory at the entry's path cannot be read or replaced: the
        # record still comes out, and the failed store is one warning
        cache = tmp_path / "cache"
        argv = ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--family", "1",
                "--mu-list", "1e-4,3e-5", "--cache-dir", str(cache)]
        _, fresh, _ = _run(capsys, argv)
        (entry,) = cache.glob("*.json")
        entry.unlink()
        entry.mkdir()
        code, out, err = _run(capsys, argv)
        assert code == 0
        strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "timings"}
        assert strip(out) == strip(fresh)
        assert err.startswith("warning: ") and err.count("\n") == 1
        assert str(entry) in err
        # bytes that do not decode are a miss too, and the entry is rewritten
        entry.rmdir()
        entry.write_bytes(b"\xff\xfe{")
        code, out, err = _run(capsys, argv)
        assert code == 0 and err == ""
        assert strip(out) == strip(fresh)
        assert entry.read_text() == out.rstrip("\n")

    def test_unwritable_cache_keeps_the_record(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        argv = ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--family", "1",
                "--mu-list", "1e-4,3e-5"]
        _, plain, _ = _run(capsys, argv)
        code, out, err = _run(capsys, argv + ["--cache-dir", str(blocker / "cache")])
        assert code == 0
        strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "timings"}
        assert strip(out) == strip(plain)
        assert err.startswith("warning: ") and err.count("\n") == 1
        assert str(blocker) in err

    def test_key_change_misses_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        base = ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--family", "1",
                "--cache-dir", str(cache)]
        _run(capsys, base + ["--mu-list", "1e-4,3e-5"])
        assert len(list(cache.glob("*.json"))) == 1
        _run(capsys, base + ["--mu-list", "1e-4,1e-5"])
        assert len(list(cache.glob("*.json"))) == 2

    def test_other_version_misses_cache(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        argv = ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--family", "1",
                "--mu-list", "1e-4,3e-5", "--cache-dir", str(cache)]
        monkeypatch.setattr(cli, "__version__", "1.0.0")
        try:
            _run(capsys, argv)
        finally:
            monkeypatch.undo()
            # the parser is built once per process and keeps the version it read
            cli.build_parser.cache_clear()
        _, out, _ = _run(capsys, argv)
        assert len(list(cache.glob("*.json"))) == 2
        assert json.loads(out)["version"] == cli.__version__

    def test_large_mu_divergence_reported(self, capsys):
        code, out, err = _run(
            capsys,
            ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--family", "1",
             "--mu-list", "0.1"],
        )
        assert code == 2
        rec = json.loads(out)
        assert rec["status"] == "corrector-divergence"
        per = rec["outputs"]["families"][0]["per_mu"][0]
        assert per["status"].startswith("corrector-divergence")
        assert per["C_estimate"] is None

    def test_failed_mu_leaves_fit_unchanged(self, capsys):
        base = ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--family", "1"]
        code, out, _ = _run(capsys, base + ["--mu-list", "1e-4,0.1,3e-5"])
        assert code == 0
        rec = json.loads(out)
        assert rec["status"] == "ok"
        fam = rec["outputs"]["families"][0]
        middle = fam["per_mu"][1]
        assert middle["C_estimate"] is None
        assert middle["status"].startswith("corrector-divergence")
        f = canonical_families(1, 3, 0.3)[0]
        assert fam["extrapolated_C"] == verify_families([f], (1e-4, 0.1, 3e-5))[0].C
        _, out2, _ = _run(capsys, base + ["--mu-list", "1e-4,3e-5"])
        # a failed mu must not move the fit
        assert fam["extrapolated_C"] == json.loads(out2)["outputs"]["families"][0]["extrapolated_C"]

    def test_repeated_mu_flagged_not_fitted(self, capsys):
        code, out, _ = _run(
            capsys,
            ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--family", "1",
             "--mu-list", "1e-4,1e-4"],
        )
        assert code == 2
        rec = json.loads(out)
        assert rec["status"] == "insufficient-mu"
        fam = rec["outputs"]["families"][0]
        assert fam["status"] == "insufficient-mu"
        assert fam["extrapolated_C"] is None
        assert all(p["status"] == "ok" and p["C_estimate"] is not None for p in fam["per_mu"])

    def test_quadrature_failure_keeps_the_fits(self, capsys, tmp_path, monkeypatch):
        # Both grazing tracks start on panels (62/sigma is 9.9e4 and 3.7e6);
        # family 1 converges on 2,451 panel nodes, and family 2, which needs
        # 4,883, runs to a node cap of 4,096.  Both Newton fits converge.
        monkeypatch.setattr(coefficient, "NODE_CAP", 2**12)
        argv = ["verify", "--p", "10", "--q", "9", "--e", "0.1",
                "--direction", "retrograde", "--mu-list", "1e-4,3e-5"]
        code, out, err = _run(capsys, argv)
        assert code == 0 and err == ""
        rec = json.loads(out)
        assert rec["status"] == "ok"
        fam1, fam2 = rec["outputs"]["families"]
        assert fam2["status"] == "no-convergence"
        assert fam2["C_quadrature"] is None and fam2["relative_error"] is None
        assert fam2["extrapolated_C"] is not None and fam2["fit_residual"] is not None
        assert all(p["status"] == "ok" for p in fam2["per_mu"])
        assert fam1["status"] == "ok" and fam1["C_quadrature"] is not None

        # Alone, the family makes a no-convergence record, cached and exiting 2.
        cached = argv + ["--family", "2", "--cache-dir", str(tmp_path)]
        code, out, err = _run(capsys, cached)
        assert code == 2 and err == ""
        rec = json.loads(out)
        assert rec["status"] == "no-convergence"
        assert rec["outputs"]["families"] == [fam2]
        (entry,) = tmp_path.glob("*.json")
        assert entry.read_text() == out.rstrip("\n")
        assert _run(capsys, cached) == (2, out, "")

    @pytest.mark.parametrize("e", [0.97, 0.99])
    def test_near_collision_families_right_or_flagged(self, capsys, e):
        # Perihelion 0.014 and 0.0048 from the large primary.  Both families
        # converge at every default mu and are within 1% of the quadrature
        # (measured 2.7e-5 and 3.0e-4 at e = 0.97, 6.5e-4 and 3.8e-3 at
        # e = 0.99); a family that failed would carry a typed status instead.
        argv = ["verify", "--p", "1", "--q", "3", "--e", repr(e)]
        code, out, err = _run(capsys, argv)
        assert code == 0 and err == ""
        rec = json.loads(out)
        assert rec["status"] == "ok"
        fam1, fam2 = rec["outputs"]["families"]
        for fam in (fam1, fam2):
            assert fam["status"] == "ok" and fam["relative_error"] < 0.01
            assert [p["status"] for p in fam["per_mu"]] == ["ok"] * 4
        if e == 0.97:
            # alone, family 2 makes the same entry and an ok record
            code, out, _ = _run(capsys, argv + ["--family", "2"])
            assert code == 0
            assert json.loads(out)["outputs"]["families"] == [fam2]

    def test_empty_mu_list_rejected(self, capsys):
        code, _, _ = _run(
            capsys,
            ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--mu-list", ","],
        )
        assert code == 1

    def test_unparsable_mu_rejected(self, capsys):
        code, out, err = _run(
            capsys, ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--mu-list", "1e-4,abc"]
        )
        assert (code, out, err) == (1, "", "error: bad number list '1e-4,abc'\n")

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_mu_rejected(self, capsys, tmp_path, value):
        # A non-finite mu would be written as Infinity/NaN, which is not JSON.
        argv = ["verify", "--p", "1", "--q", "3", "--e", "0.3", "--family", "1",
                "--mu-list", f"1e-4,{value},3e-5", "--cache-dir", str(tmp_path)]
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: --mu-list must hold finite values")
        assert list(tmp_path.iterdir()) == []


class TestRegularize:
    def test_default_battery_passes(self, capsys):
        code, out, _ = _run(capsys, ["regularize"])
        assert code == 0
        rec = json.loads(out)
        checks = rec["outputs"]["checks"]
        assert set(checks) == {
            "symplecticity", "conservation", "round_trip", "frequencies", "cycles"
        }
        assert all(c["ok"] for c in checks.values())
        assert checks["cycles"]["r_cycle"][0] == pytest.approx(2 * math.pi, abs=1e-8)

    def test_negative_G_passes(self, capsys):
        code, out, _ = _run(capsys, ["regularize", "--angular-momentum", "-0.3"])
        assert code == 0
        assert all(c["ok"] for c in json.loads(out)["outputs"]["checks"].values())

    def test_angles_compared_mod_two_pi(self, capsys):
        # the chart returns g = 0.4 - 2*pi here: the same angle
        code, out, _ = _run(capsys, ["regularize", "--angular-momentum", "2.9", "--action", "1.75"])
        assert code == 0
        assert all(c["ok"] for c in json.loads(out)["outputs"]["checks"].values())

    def test_zero_angular_momentum_rejected(self, capsys):
        code, _, err = _run(capsys, ["regularize", "--angular-momentum", "0"])
        assert code == 1 and "G = 0" in err

    def test_unbound_rejected(self, capsys):
        code, _, err = _run(capsys, ["regularize", "--jacobi-constant", "0.5"])
        assert code == 1 and "G + 2C" in err

    def test_non_positive_action_rejected(self, capsys):
        code, out, err = _run(capsys, ["regularize", "--action", "-1"])
        assert (code, out, err) == (1, "", "error: need L > 0 and |G| < 2L\n")

    @pytest.mark.parametrize(
        "flag", ["--jacobi-constant=nan", "--jacobi-constant=-inf", "--action=inf"]
    )
    def test_non_finite_input_rejected(self, capsys, flag):
        code, out, err = _run(capsys, ["regularize", flag])
        assert code == 1 and out == ""
        assert err.startswith("error: need finite L, G and C")

    def test_underflowing_radius_rejected(self, capsys):
        # -2C overflows to inf, so a = L / sqrt(-G - 2C) and the radius are 0.
        code, out, err = _run(capsys, ["regularize", "--jacobi-constant=-1e308"])
        assert code == 1 and out == ""
        assert err.startswith("error: radius underflows to 0")

    @pytest.mark.parametrize("action", ["1e8", "1e10", "1e308"])
    def test_eccentricity_rounding_to_one_rejected(self, capsys, action):
        # G^2/(4L^2) below half an ulp of 1: the chart's e = sqrt(1 - G^2/(4L^2)) is 1.
        code, out, err = _run(capsys, ["regularize", "--action", action])
        assert code == 1 and out == ""
        assert err.startswith("error: G^2/(4L^2) = ")
        assert f"at L={float(action)}, G=0.3 is too small" in err

    def test_large_action_stops_at_the_evaluation_budget(self, capsys):
        # e = 1 - 1.1e-10: the 10-period K-flow would need ~1e7 evaluations.
        code, out, err = _run(capsys, ["regularize", "--action", "1e4"])
        assert code == 2 and out == ""
        assert err.startswith("computation failed: K-flow integration")
        assert f"budget of {levi_civita._MAX_RHS_EVALS} right-hand-side evaluations" in err

    def test_negative_exponent_value_is_read_as_a_number(self, capsys):
        code, out, _ = _run(capsys, ["regularize", "--jacobi-constant", "-1.5e0"])
        assert code == 0
        assert json.loads(out)["inputs"]["jacobi_constant"] == -1.5
        code, out, err = _run(capsys, ["regularize", "--jacobi-constant", "-1e308"])
        assert code == 1 and out == ""
        assert err.startswith("error: radius underflows to 0")


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rtbp_resonance.cli", "series", "--p", "1", "--q", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "series"

    def test_version_flag(self, capsys):
        code, out, _ = _run(capsys, ["--version"])
        assert code == 0
        assert out.strip() == "1.10.0"

    def test_top_level_help(self, capsys):
        # the description is the user-facing module docstring, with the
        # exit codes and no note on how the parser is built
        code, out, err = _run(capsys, ["--help"])
        assert code == 0 and err == ""
        text = " ".join(out.split())
        assert text.startswith("usage: rtbp-resonance ")
        assert "Exit codes: 0 success, 1 validation error, 2 computation failure." in text
        assert "argument parser" not in text and "once per process" not in text

    @pytest.mark.parametrize("command", ["coeff", "sweep", "series", "verify", "regularize"])
    def test_subcommand_help(self, capsys, command):
        code, out, err = _run(capsys, [command, "--help"])
        assert code == 0 and err == ""
        assert out.startswith(f"usage: rtbp-resonance {command} ")

    def test_unknown_command(self, capsys):
        code, _, _ = _run(capsys, ["frobnicate"])
        assert code == 1
