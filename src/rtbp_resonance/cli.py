"""Command-line front end: coefficient evaluation, sweeps, series,
full-problem verification, and regularization self-checks.

Single-run commands emit a versioned JSON record; `sweep` emits CSV with the
fixed header `e,C_family1,C_family2,min_delta1_1,min_delta1_2,status_1,status_2`.
A plain-text key=value config file can pre-set any flag (flags win).  Exit
codes: 0 success, 1 validation error, 2 computation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import sys
import tempfile
import time

from . import __version__
from .coefficient import QUAD_TOL, SweepRow, compute_Cs, quadrature_status, sweep_e
from .errors import RtbpError, ValidationError
from .levi_civita import regularization_checks
from .perturbation import ResonantFamily, canonical_families
from .series import leading_coefficient
from .verifier import CORRECTOR_TOL, DEFAULT_MU_LIST, verify_families

SCHEMA_VERSION = 2
# Most points an --e-min/--e-max/--e-step grid may hold.
_GRID_MAX = 10**6
_QUAD_TOL_HELP = "quadrature tolerance on C1 + C2, relative where |C1 + C2| > 1"
# A verify record takes the first of its families' statuses in this order.
_VERIFY_STATUS_ORDER = (
    "ok", "corrector-divergence", "collision", "no-convergence", "insufficient-mu",
)


def _record(command: str, inputs: dict, outputs: dict, status: str, t0: float) -> str:
    """JSON text of the versioned record of one CLI invocation started at t0.
    Its seconds are rounded to the microsecond, so their digits do not make
    the sizes of two otherwise identical records differ beyond that."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "status": status,
        "timings": {"seconds": round(time.perf_counter() - t0, 6)},
        "version": __version__,
    }
    return json.dumps(record, indent=2, sort_keys=True)


def _output(path: str | None):
    """A context for the stream a command writes to: stdout, looked up at call
    time, for no path or `-`, else the file at path, opened with newline=""."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _emit(text: str, output: str | None):
    with _output(output) as fh:
        fh.write(text + "\n")


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage/validation errors, which reads a
    negative number in exponent notation (`-1.5e0`) as a value, not a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


class _QuietParser(_Parser):
    """argparse that raises ValidationError instead of reporting and exiting."""

    def error(self, message):
        raise ValidationError(message)


def _parse_float_list(text: str):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad number list {text!r}") from exc
    return values


def _family_args(sp):
    sp.add_argument("--p", type=int, required=True, help="resonance numerator p")
    sp.add_argument("--q", type=int, required=True, help="resonance denominator q")
    sp.add_argument(
        "--direction",
        choices=("direct", "retrograde"),
        default="direct",
        help="sense of circulation relative to the frame",
    )


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The parser of `main`, built once per process and reused with a fresh
    namespace per call, so values read here (the version string, the default
    mu list) are frozen then; each subcommand sets `run`, the function `main`
    calls with the parsed namespace.  The module docstring, all of it for
    users, is the top-level help's description."""
    parser = _Parser(prog="rtbp-resonance", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None)
    common.add_argument("--output", default=None, help="output file (default stdout)")

    sp = sub.add_parser("coeff", parents=[common], help="stability coefficient of both families")
    _family_args(sp)
    sp.add_argument("--e", type=float, required=True, help="eccentricity in (0, 1)")
    sp.add_argument("--tol", type=float, default=QUAD_TOL, help=_QUAD_TOL_HELP)
    sp.set_defaults(run=cmd_coeff)

    sp = sub.add_parser("sweep", parents=[common], help="CSV sweep of C over an eccentricity grid")
    _family_args(sp)
    sp.add_argument("--e-grid", default=None, help="comma-separated eccentricities")
    sp.add_argument("--e-min", type=float, default=None)
    sp.add_argument("--e-max", type=float, default=None)
    sp.add_argument("--e-step", type=float, default=None)
    sp.add_argument("--tol", type=float, default=QUAD_TOL, help=_QUAD_TOL_HELP)
    sp.add_argument(
        "--jobs", type=int, default=0,
        help="accepted for compatibility (0 or positive); a sweep runs in one process",
    )
    sp.set_defaults(run=cmd_sweep)

    sp = sub.add_parser(
        "series", parents=[common], help="leading series coefficient of both families"
    )
    _family_args(sp)
    sp.add_argument("--e", type=float, default=None, help="optionally evaluate c*e^m here")
    sp.set_defaults(run=cmd_series)

    sp = sub.add_parser(
        "verify", parents=[common], help="monodromy verification against the quadrature"
    )
    _family_args(sp)
    sp.add_argument("--e", type=float, required=True)
    sp.add_argument("--family", choices=("1", "2", "both"), default="both")
    sp.add_argument("--mu-list", default=",".join(repr(m) for m in DEFAULT_MU_LIST))
    sp.add_argument(
        "--corrector-tol", type=float, default=CORRECTOR_TOL,
        help="Newton closure tolerance on y and p_x at the half period and on every "
        "segment defect",
    )
    sp.add_argument("--tol", type=float, default=QUAD_TOL, help=_QUAD_TOL_HELP)
    sp.add_argument("--cache-dir", default=None, help="cache directory for verification runs")
    sp.set_defaults(run=cmd_verify)

    sp = sub.add_parser("regularize", parents=[common], help="Levi-Civita self-checks at mu = 0")
    sp.add_argument("--jacobi-constant", type=float, default=-1.5)
    sp.add_argument("--angular-momentum", type=float, default=0.3, help="G (twice h)")
    sp.add_argument("--action", type=float, default=0.8, help="action L")
    sp.set_defaults(run=cmd_regularize)

    return parser


@functools.lru_cache(maxsize=None)
def _config_finder(command: argparse.ArgumentParser) -> _QuietParser:
    """A parser with a subcommand's option strings, each taking an optional value."""
    finder = _QuietParser(add_help=False)
    for action in command._actions:
        finder.add_argument(*action.option_strings, dest=action.dest, nargs="?")
    return finder


def _inject_config(argv, parser):
    """Expand `--config FILE` into flags placed before the explicit flags.

    The file holds one `key = value` pair per line (# comments allowed); keys
    match the long option names.  Injected flags precede the command line
    ones, so explicit flags override the file.
    """
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return argv
    # A finder with the command's own option strings resolves the option, so
    # `--config=FILE` and abbreviations such as `--conf FILE` count too.  An
    # abbreviation the command finds ambiguous (`--co`) and a bare `--config`
    # are left for the command's parser to report.
    try:
        path = _config_finder(command).parse_known_args(argv[1:])[0].config
    except ValidationError:
        return argv
    if path is None:
        return argv
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        msg = f"config file {path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        raise ValidationError(msg) from None
    injected = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"bad config line {line!r} in {path}")
        key, value = (part.strip() for part in line.split("=", 1))
        injected += [f"--{key}", value]
    # Keep the subcommand first, then config-derived flags, then explicit ones.
    return argv[:1] + injected + argv[1:]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _leading(f: ResonantFamily) -> dict:
    """The leading series fields of a family's coeff and series entries."""
    lead = leading_coefficient(f)
    return {"leading_exponent": lead.exponent, "leading_coefficient": lead.value}


def cmd_coeff(args) -> int:
    t0 = time.perf_counter()
    families = canonical_families(args.p, args.q, args.e, args.direction)
    outputs = {"families": []}
    for f, res in zip(families, compute_Cs(families, args.tol)):
        if isinstance(res, Exception):
            raise res
        outputs["families"].append(
            {"family": dataclasses.asdict(f)} | dataclasses.asdict(res) | _leading(f)
        )
    inputs = {"p": args.p, "q": args.q, "e": args.e, "direction": args.direction, "tol": args.tol}
    _emit(_record("coeff", inputs, outputs, "ok", t0), args.output)
    return 0


def _resolve_grid(args):
    if args.e_grid is not None:
        return _parse_float_list(args.e_grid)
    if args.e_min is None and args.e_max is None and args.e_step is None:
        return []
    if args.e_min is None or args.e_max is None or args.e_step is None:
        raise ValidationError("--e-min, --e-max and --e-step must be given together")
    if args.e_step <= 0.0:
        raise ValidationError("--e-step must be positive")
    span = (args.e_max - args.e_min) / args.e_step
    finite = all(map(math.isfinite, (args.e_min, args.e_max, args.e_step, span)))
    # Bounded before the grid is built: a tiny finite step asks for an unbounded list.
    if not finite or span + 1e-9 >= _GRID_MAX:
        raise ValidationError(
            "--e-min, --e-max, --e-step and their step count must be finite,"
            f" with at most {_GRID_MAX} grid points"
        )
    n = int(math.floor(span + 1e-9)) + 1
    return [args.e_min + i * args.e_step for i in range(max(0, n))]


def cmd_sweep(args) -> int:
    grid = _resolve_grid(args)
    if any(not 0.0 < e < 1.0 for e in grid):
        raise ValidationError("eccentricity grid must lie in (0, 1)")
    # Validate the family parameters up front (an empty grid builds no family).
    ResonantFamily(args.p, args.q, 0.5, 0, 0, args.direction)
    if args.jobs < 0:
        raise ValidationError(
            f"--jobs must be 0 or positive (a sweep runs in one process), got {args.jobs}"
        )
    rows = sweep_e(args.p, args.q, args.direction, grid, args.tol)

    def cell(v):
        return "" if v is None else v if isinstance(v, str) else f"{v:.17g}"

    with _output(args.output) as out:
        writer = csv.writer(out, lineterminator="\n")
        names = [field.name for field in dataclasses.fields(SweepRow)]
        writer.writerow(names)
        for row in rows:
            writer.writerow(cell(getattr(row, name)) for name in names)
    if rows and all(r.status_1 != "ok" and r.status_2 != "ok" for r in rows):
        return 2
    return 0


def cmd_series(args) -> int:
    t0 = time.perf_counter()
    # Validate e only when given (the leading coefficient itself is e-free).
    probe_e = args.e if args.e is not None else 0.5
    families = canonical_families(args.p, args.q, probe_e, args.direction)
    outputs = {"families": []}
    for f in families:
        lead = _leading(f)
        entry = {"family": dataclasses.asdict(f) | {"e": args.e}} | lead
        if args.e is not None:
            entry["leading_term"] = lead["leading_coefficient"] * args.e**lead["leading_exponent"]
        outputs["families"].append(entry)
    inputs = {"p": args.p, "q": args.q, "e": args.e, "direction": args.direction}
    _emit(_record("series", inputs, outputs, "ok", t0), args.output)
    return 0


def _cache_path(cache_dir: str, key: dict) -> str:
    # The package version is part of the key: a record computed by other
    # code must not answer for this one.
    digest = hashlib.sha256(
        json.dumps(key | {"version": __version__}, sort_keys=True).encode()
    ).hexdigest()
    return os.path.join(cache_dir, f"{digest}.json")


def _cache_store(path: str, text: str):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)  # atomic: readers never observe partial records
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _verify_entry(f: ResonantFamily, res, quad) -> dict:
    per_mu = [
        {
            "mu": mu,
            "C_estimate": est,
            "status": "ok" if err is None else f"corrector-divergence: {err}",
        }
        for mu, est, err in zip(res.mu_list, res.estimates, res.errors)
    ]
    entry = {"family": dataclasses.asdict(f), "per_mu": per_mu}
    if res.C is None:
        # No fit: a mu diverged, or the list held fewer than two distinct mu.
        diverged = any(err is not None for err in res.errors)
        status = "corrector-divergence" if diverged else "insufficient-mu"
        entry.update({"extrapolated_C": None, "status": status})
        return entry
    # A quadrature that collides or hits its node cap keeps the fit and
    # takes the family's status, as in `sweep`.
    status = quadrature_status(quad)
    C_quad = quad.C if status == "ok" else None
    entry.update(
        {
            "extrapolated_C": res.C,
            "fit_residual": res.fit_residual,
            "C_quadrature": C_quad,
            "relative_error": None if C_quad is None else abs(res.C - C_quad) / abs(C_quad),
            "status": status,
        }
    )
    return entry


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    mu_list = _parse_float_list(args.mu_list)
    if not mu_list:
        raise ValidationError("--mu-list must contain at least one value")
    if not all(math.isfinite(mu) for mu in mu_list):
        raise ValidationError(f"--mu-list must hold finite values, got {args.mu_list}")
    families = canonical_families(args.p, args.q, args.e, args.direction)
    selected = {"1": [families[0]], "2": [families[1]], "both": list(families)}[args.family]

    key = {
        "command": "verify",
        "families": [dataclasses.asdict(f) for f in selected],
        "mu_list": mu_list,
        "corrector_tol": args.corrector_tol,
        "quad_tol": args.tol,
    }
    cache_path = _cache_path(args.cache_dir, key) if args.cache_dir else None
    if cache_path and os.path.exists(cache_path):
        try:
            with open(cache_path) as fh:
                text = fh.read().rstrip("\n")
            record = json.loads(text)
        except (OSError, ValueError):  # unreadable (UnicodeDecodeError too) or unparsable
            record = None
        if isinstance(record, dict):  # anything else is a miss, overwritten below
            _emit(text, args.output)
            return 0 if record.get("status") == "ok" else 2

    results = verify_families(selected, mu_list, args.corrector_tol)
    # The quadrature reference, in one lockstep, of every family with a fit.
    fitted = [f for f, res in zip(selected, results) if res.C is not None]
    quads = dict(zip(fitted, compute_Cs(fitted, args.tol)))
    outputs = {"families": [
        _verify_entry(f, res, quads.get(f)) for f, res in zip(selected, results)
    ]}
    statuses = {e["status"] for e in outputs["families"]}
    status = next(s for s in _VERIFY_STATUS_ORDER if s in statuses)
    text = _record("verify", key | {"e": args.e, "direction": args.direction}, outputs, status, t0)
    _emit(text, args.output)
    if cache_path:
        try:
            _cache_store(cache_path, text)
        except OSError as exc:  # the record stands without its cache entry
            sys.stderr.write(f"warning: {exc}\n")
    return 0 if status == "ok" else 2


def cmd_regularize(args) -> int:
    t0 = time.perf_counter()
    checks = regularization_checks(args.jacobi_constant, args.angular_momentum, args.action)
    all_ok = all(c["ok"] for c in checks.values())
    inputs = {
        "jacobi_constant": args.jacobi_constant,
        "angular_momentum": args.angular_momentum,
        "action": args.action,
    }
    status = "ok" if all_ok else "check-failed"
    _emit(_record("regularize", inputs, {"checks": checks}, status, t0), args.output)
    return 0 if all_ok else 2


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _inject_config(argv, parser)
        args = parser.parse_args(argv)
        for name in ("tol", "corrector_tol"):
            value = getattr(args, name, None)
            if value is not None and not 0.0 < value < math.inf:
                flag = "--" + name.replace("_", "-")
                raise ValidationError(f"{flag} must be positive and finite, got {value}")
        return args.run(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except RtbpError as exc:
        sys.stderr.write(f"computation failed: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
