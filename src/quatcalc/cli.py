"""Command line front end for the verification suites.

Every subcommand runs a deterministic battery of checks, optionally writes a
CSV report, prints a one-line summary per suite and exits with 0 when all
checks pass, 1 when any fails, and 2 on usage or configuration errors.  The
same seed and options always produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from importlib import resources
from typing import Optional, Sequence

from . import identities, tables, theorems
from .derivatives import takes_arrays
from .filters import ExperimentConfig, QVector, run_experiment
from .quaternion import ONE, Quaternion, format_quaternion, parse_quaternion
from .sampling import make_rng, random_quaternion
from .tables import TableEntry
from .theorems import DivergenceError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

DEFAULT_SEED = identities.DEFAULT_SEED
# Panel refinement stalls at the finite-difference noise of the integrand,
# so the >= 10x shrink requirement stops below this residual.
REFINEMENT_FLOOR = 1e-9

TABLE_TOLERANCES = {"table": 1e-5}
MVT_TOLERANCES = {"mvt": 1e-7}
TAYLOR_TOLERANCES = {"slope_low": 2.7, "slope_high": 3.3}
DESCENT_TOLERANCES = {"grad": 1e-6}
# The Taylor slope bounds delimit a range, so unlike the residual tolerances
# they may be negative.
SIGNED_TOLERANCES = {"slope_low", "slope_high"}

TAYLOR_SCALES = (1e-1, 3.1622776601683795e-2, 1e-2,
                 3.1622776601683795e-3, 1e-3)
MVT_REFINEMENT_PANELS = (4, 16, 64, 256)
MVT_FINAL_PANELS = 1000

CONFIG_KEYS = {"variant", "taps", "alpha", "steps", "snr_db", "seed",
               "kind", "nonlinearity", "threshold"}
CONFIG_REQUIRED = {"variant", "taps", "alpha", "steps", "snr_db", "seed"}


class CliError(Exception):
    """Anything that should terminate with the usage/config exit code."""


def _fmt(x: float) -> str:
    return "%.17g" % x


def _fmt_q(q: Optional[Quaternion]) -> str:
    return format_quaternion(q) if q is not None else ""


def _fmt_pass(ok: bool) -> str:
    return "true" if ok else "false"


def _parse_tolerances(pairs: Optional[Sequence[str]],
                      defaults: dict[str, float]) -> dict[str, float]:
    tols = dict(defaults)
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep:
            raise CliError(f"--tol expects name=value, got {pair!r}")
        if name not in tols:
            raise CliError(f"unknown tolerance name {name!r}; "
                           f"choices: {', '.join(sorted(tols))}")
        try:
            tols[name] = float(value)
        except ValueError:
            raise CliError(f"--tol {name}: {value!r} is not a number")
        if math.isnan(tols[name]):
            raise CliError(f"--tol {name}: NaN is not a tolerance")
        if tols[name] < 0.0 and name not in SIGNED_TOLERANCES:
            raise CliError(f"--tol {name}: must be nonnegative, got {value!r}")
    return tols


def _write_csv(path: Optional[str], header: Sequence[str],
               rows: Sequence[Sequence[str]]) -> None:
    if path is None:
        return
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")
    print(f"wrote {path}")


def _report(path: Optional[str], header: Sequence[str],
            rows: Sequence[Sequence[str]], title: str, oks: Sequence[bool],
            extra: str = "") -> int:
    """Write the CSV, print the one-line summary and verdict, return the exit code."""
    _write_csv(path, header, rows)
    failures = sum(1 for ok in oks if not ok)
    line = f"{title}: {len(oks)} checks, {failures} failures"
    if extra:
        line += f" ({extra})"
    print(line)
    print("PASS" if failures == 0 else "FAIL")
    return EXIT_PASS if failures == 0 else EXIT_FAIL


def _positive(value: int, what: str) -> int:
    if value < 1:
        raise CliError(f"{what} must be a positive integer")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: numpy seeds must be non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def cmd_verify(args: argparse.Namespace) -> int:
    points = _positive(args.points, "--points")
    try:
        result = identities.run_identity_suite(
            points=points, seed=args.seed,
            tolerances=_parse_tolerances(args.tol, identities.DEFAULT_TOLERANCES))
    except ValueError as exc:
        raise CliError(str(exc))
    rows = [(r.identity, _fmt_q(r.point), _fmt_q(r.mu), _fmt_q(r.nu),
             _fmt(r.residual), _fmt(r.tol), _fmt_pass(r.passed))
            for r in result.records]
    skips = result.product_skips + result.chain_skips
    return _report(args.out, ("identity", "point", "mu", "nu", "residual",
                              "tol", "pass"), rows, "identity suite",
                   [r.passed for r in result.records],
                   f"{skips} degenerate draws skipped")


def cmd_table(args: argparse.Namespace) -> int:
    points = _positive(args.points, "--points")
    tols = _parse_tolerances(args.tol, TABLE_TOLERANCES)
    tol = tols["table"]
    specs = tables.catalogue()
    if args.family:
        known = {spec.name for spec in specs}
        missing = set(args.family) - known
        if missing:
            raise CliError(f"unknown families: {', '.join(sorted(missing))}")
        specs = tuple(s for s in specs if s.name in args.family)
    rng = make_rng(args.seed)
    rows = []
    oks = []
    for spec in specs:
        for _ in range(points):
            entry = spec.sample_entry(rng)
            q = spec.sample_point(entry, rng)
            mu = random_quaternion(rng, -2.0, 2.0, min_modulus=0.1)
            check = tables.cross_validate(entry, q, mu)
            for column, closed, numerical, residual in (
                    ("mu", check.closed_mu, check.numerical_mu, check.residual_mu),
                    ("mu_conj", check.closed_mu_conj, check.numerical_mu_conj,
                     check.residual_mu_conj)):
                ok = residual <= tol
                oks.append(ok)
                rows.append((spec.name, _fmt_q(q), _fmt_q(mu), column,
                             _fmt_q(closed), _fmt_q(numerical),
                             _fmt(residual), _fmt_pass(ok)))
    return _report(args.out, ("family", "point", "mu", "column", "closed_form",
                              "numerical", "residual", "pass"), rows,
                   "derivative table", oks,
                   f"{len(specs)} families, {points} points each")


@takes_arrays
def _mod2(p: Quaternion) -> Quaternion:
    return type(p).from_real(p.modulus_squared())


_EXPONENTIAL = tables.as_function(TableEntry(family="exponential",
                                             terms=tables.DEFAULT_EXP_TERMS))


def _taylor_functions():
    def power3(p: Quaternion) -> Quaternion:
        return p * p * p

    # The conjugate-sandwich quadratic form only matches the expansion for
    # real-valued functions, so the center branch is checked on one.
    return (("power3", power3, False),
            ("exponential", _EXPONENTIAL, False),
            ("modulus_squared", _mod2, False),
            ("modulus_squared", _mod2, True))


def cmd_taylor(args: argparse.Namespace) -> int:
    tols = _parse_tolerances(args.tol, TAYLOR_TOLERANCES)
    rng = make_rng(args.seed)
    q0 = random_quaternion(rng, -1.0, 1.0)
    direction = random_quaternion(rng, -1.0, 1.0, min_modulus=0.3)
    rows = []
    oks = []
    for name, fn, center in _taylor_functions():
        fit = theorems.taylor_remainder_slope(fn, q0, direction, TAYLOR_SCALES,
                                              center=center)
        ok = fit.at_floor or tols["slope_low"] <= fit.slope <= tols["slope_high"]
        oks.append(ok)
        branch = "center" if center else "left"
        for scale, error in zip(fit.scales, fit.errors):
            rows.append((name, _fmt(scale), _fmt(error), _fmt(fit.slope),
                         branch, _fmt_pass(ok)))
    return _report(args.out, ("function", "scale", "error", "slope", "branch",
                              "pass"), rows, "taylor remainder", oks)


def _mvt_functions():
    @takes_arrays
    def sq(p: Quaternion) -> Quaternion:
        return p * p

    return (("square", sq, False),
            ("modulus_squared", _mod2, False),
            ("modulus_squared", _mod2, True),
            ("exponential", _EXPONENTIAL, False))


def cmd_mvt(args: argparse.Namespace) -> int:
    tols = _parse_tolerances(args.tol, MVT_TOLERANCES)
    rng = make_rng(args.seed)
    q0 = random_quaternion(rng, -2.0, 2.0)
    q1 = random_quaternion(rng, -2.0, 2.0)
    rows = []
    oks = []
    for name, fn, real_form in _mvt_functions():
        form = "real" if real_form else "general"
        previous = None
        for panels in MVT_REFINEMENT_PANELS + (MVT_FINAL_PANELS,):
            check = theorems.mvt_left(fn, q0, q1, panels=panels,
                                      real_form=real_form)
            if panels == MVT_FINAL_PANELS:
                tol = tols["mvt"]
            elif previous is None:
                tol = math.inf
            else:
                tol = max(previous / 10.0, REFINEMENT_FLOOR)
            ok = check.residual <= tol
            oks.append(ok)
            rows.append((name, form, _fmt_q(q0), _fmt_q(q1), str(panels),
                         _fmt(check.residual), _fmt(tol), _fmt_pass(ok)))
            previous = check.residual
    return _report(args.out, ("function", "form", "q0", "q1", "panels",
                              "residual", "tol", "pass"), rows, "mean value", oks)


def cmd_descend(args: argparse.Namespace) -> int:
    tols = _parse_tolerances(args.tol, DESCENT_TOLERANCES)
    try:
        target = parse_quaternion(args.target)
        start = parse_quaternion(args.start)
    except ValueError as exc:
        raise CliError(str(exc))
    entry = TableEntry(family="linear_modulus_squared", omega=ONE, nu=ONE,
                       lam=-target)
    objective = tables.as_function(entry)
    gradient = lambda p: tables.conj_gradient(entry, p)
    try:
        trace = theorems.steepest_descent(objective, start, args.alpha,
                                          max_iters=args.max_iters,
                                          grad_tol=tols["grad"],
                                          gradient=gradient)
    except ValueError as exc:
        raise CliError(str(exc))
    except DivergenceError as exc:
        print(f"descent: {exc}")
        print("FAIL")
        return EXIT_FAIL
    rows = [(str(idx), _fmt_q(q), _fmt(value), _fmt(grad_norm))
            for idx, (q, value, grad_norm)
            in enumerate(zip(trace.iterates, trace.values, trace.grad_norms))]
    return _report(args.out, ("iter", "q", "value", "grad_norm"), rows,
                   "steepest descent", [trace.grad_norms[-1] <= tols["grad"]],
                   f"{len(trace.iterates) - 1} iterations, final gradient "
                   f"{_fmt(trace.grad_norms[-1])}")


def _bundled_config(name: str):
    return resources.files("quatcalc").joinpath("configs", f"{name}.json")


def _load_filter_config(spec: str) -> tuple[ExperimentConfig, Optional[float]]:
    source = _bundled_config(spec) if not spec.endswith(".json") else None
    try:
        if source is not None and source.is_file():
            text = source.read_text()
        else:
            with open(spec) as handle:
                text = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read config {spec!r}: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"config {spec!r} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise CliError("config must be a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = CONFIG_REQUIRED - set(raw)
    if missing:
        raise CliError(f"missing config keys: {', '.join(sorted(missing))}")
    # float() and int() would take "0.1", True and False; JSON gives numbers.
    for key in ("steps", "seed", "alpha", "snr_db", "threshold"):
        if isinstance(raw.get(key), (bool, str)):
            raise CliError(f"bad config value: {key} must be a number, got {raw[key]!r}")
    for key in ("steps", "seed"):
        value = raw[key]
        if isinstance(value, float) and not value.is_integer():
            raise CliError(f"{key} must be an integer, got {value!r}")
    try:
        taps = _parse_taps(raw["taps"])
        config = ExperimentConfig(
            variant=str(raw["variant"]), taps=taps,
            alpha=float(raw["alpha"]), steps=int(raw["steps"]),
            snr_db=float(raw["snr_db"]), seed=int(raw["seed"]),
            kind=str(raw.get("kind", "fir_channel")),
            nonlinearity=raw.get("nonlinearity"))
        threshold = raw.get("threshold")
        if threshold is not None:
            threshold = float(threshold)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad config value: {exc}")
    if threshold is not None and not math.isfinite(threshold):
        raise CliError(f"threshold must be finite, got {threshold!r}")
    return config, threshold


def _parse_taps(raw):
    if not isinstance(raw, list) or not raw:
        raise CliError("taps must be a non-empty list")
    if isinstance(raw[0], list) and raw[0] and isinstance(raw[0][0], list):
        if len(raw) != 4:
            raise CliError("widely linear taps need exactly four branches")
        return tuple(QVector.from_components(branch) for branch in raw)
    return QVector.from_components(raw)


def cmd_filter(args: argparse.Namespace) -> int:
    config, threshold = _load_filter_config(args.config)
    try:
        result = run_experiment(config)
    except ValueError as exc:
        raise CliError(str(exc))
    except DivergenceError as exc:
        print(f"filter: {exc}")
        print("FAIL")
        return EXIT_FAIL
    rows = [(str(idx), _fmt(sq), _fmt(werr))
            for idx, (sq, werr) in enumerate(zip(result.mse_curve,
                                                 result.weight_error_curve))]
    final = result.final_weight_error
    extra = f"{result.steps} steps, final weight error {_fmt(final)}"
    if threshold is not None:
        extra += f", threshold {_fmt(threshold)}"
    return _report(args.out, ("step", "sq_error", "weight_error"), rows,
                   f"{config.variant} run",
                   [threshold is None or final < threshold], extra)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatcalc",
        description="Verification suites for the quaternion calculus engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, points=None):
        p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                       help="random seed (default %(default)s)")
        p.add_argument("--out", metavar="PATH",
                       help="write a CSV report to PATH")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="override a named tolerance (repeatable)")
        if points is not None:
            p.add_argument("--points", type=int, default=points,
                           help="sample points (default %(default)s)")

    p = sub.add_parser("verify", help="run the calculus identity suite")
    add_common(p, points=identities.DEFAULT_POINTS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="cross-validate the derivative tables")
    add_common(p, points=50)
    p.add_argument("--family", action="append", metavar="NAME",
                   help="restrict to one family (repeatable)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("taylor", help="second-order remainder decay")
    add_common(p)
    p.set_defaults(func=cmd_taylor)

    p = sub.add_parser("mvt", help="mean value checks with panel refinement")
    add_common(p)
    p.set_defaults(func=cmd_mvt)

    p = sub.add_parser("descend", help="steepest descent on |q - c|^2")
    add_common(p)
    p.add_argument("--target", default="1+2i+3j+4k",
                   help="minimizer c (default %(default)s)")
    p.add_argument("--start", default="0", help="initial point")
    p.add_argument("--alpha", type=float, default=0.4, help="step size")
    p.add_argument("--max-iters", type=int, default=100,
                   help="iteration budget")
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("filter", help="run an adaptive filter experiment")
    p.add_argument("--config", default="qlms",
                   help="JSON config path, or a bundled name: qlms, wl_qlms")
    p.add_argument("--out", metavar="PATH", help="write a CSV report to PATH")
    p.set_defaults(func=cmd_filter)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
