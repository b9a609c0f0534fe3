"""Command line front end for the verification suites.

Every subcommand runs a deterministic battery of checks, optionally writes a
CSV report, prints a one-line summary per suite and exits with 0 when all
checks pass, 1 when any fails, and 2 on usage or configuration errors.  The
same seed and options always produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from importlib import resources
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from . import identities, tables, theorems
from .filters import ExperimentConfig, run_experiment
from .quaternion import (ONE, QUATERNION_TEMPLATE, Quaternion, format_quaternion,
                         parse_quaternion, real_number)
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
# Points per batched table cross-check: what a large --points holds at once.
TABLE_CHUNK = 1024
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

# ExperimentConfig's fields, those without a default required, and the threshold.
CONFIG_KEYS = set(ExperimentConfig._fields) | {"threshold"}
CONFIG_REQUIRED = set(ExperimentConfig._fields) - set(ExperimentConfig._field_defaults)


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


def _lines(rows: Iterable[Sequence[str]]) -> Iterable[str]:
    """Each row's fields joined by commas, one line each.  No quoting: every
    field is program-made (numbers, fixed names, true/false or empty), so
    none holds a comma, quote or line break."""
    return (",".join(row) + "\n" for row in rows)


def _write_csv(path: str, header: Sequence[str], blocks: Iterable[str]) -> None:
    """Write the header line, then each block of whole lines as it comes."""
    try:
        with open(path, "w", newline="") as handle:
            handle.write(",".join(header) + "\n")
            handle.writelines(blocks)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")
    print(f"wrote {path}")


def _report(path: Optional[str], header: Sequence[str],
            blocks: Iterable[str], title: str, oks: Sequence[bool],
            extra: str = "") -> int:
    """Write the CSV, print the one-line summary and verdict, return the exit code.

    ``blocks`` is the CSV body as text, one or more whole lines per block:
    a row's line from _lines, or a chunk of rows from one template.  It is
    consumed once, and only when there is a CSV to write.  It may fill
    ``oks`` as it goes; a caller whose verdicts come that way makes them
    itself when there is no path.
    """
    if path is not None:
        _write_csv(path, header, blocks)
    failures = sum(1 for ok in oks if not ok)
    line = f"{title}: {len(oks)} checks, {failures} failures"
    if extra:
        line += f" ({extra})"
    print(line)
    print("PASS" if failures == 0 else "FAIL")
    return EXIT_PASS if failures == 0 else EXIT_FAIL


def _integer(least: int, expected: str):
    """argparse type of an integer option >= ``least``: overlong bad text names the digit limit."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            if 0 < limit < len(text):
                raise argparse.ArgumentTypeError(f"must be {expected} of at most {limit} digits")
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value

    return parse


def cmd_verify(args: argparse.Namespace) -> int:
    result = identities.run_identity_suite(
        points=args.points, seed=args.seed,
        tolerances=_parse_tolerances(args.tol, identities.DEFAULT_TOLERANCES))
    skips = result.product_skips + result.chain_skips
    return _report(args.out, ("identity", "point", "mu", "nu", "residual",
                              "tol", "pass"), _lines(_verify_rows(result.records)), "identity suite",
                   [r.passed for r in result.records],
                   f"{skips} degenerate draws skipped")


def _verify_rows(records):
    """The suite's CSV rows.  A point's records come one after another and
    share its point, mu and nu objects, so each column formats a quaternion
    only when it is not the one it formatted last."""
    last = [None] * 3
    texts = [""] * 3
    for r in records:
        cells = []
        for col, q in enumerate((r.point, r.mu, r.nu)):
            if q is not last[col] and q is not None:
                last[col], texts[col] = q, _fmt_q(q)
            cells.append("" if q is None else texts[col])
        yield (r.identity, *cells, _fmt(r.residual), _fmt(r.tol), _fmt_pass(r.passed))


def cmd_table(args: argparse.Namespace) -> int:
    tols = _parse_tolerances(args.tol, TABLE_TOLERANCES)
    specs = tables.catalogue()
    if args.family:
        known = {spec.name for spec in specs}
        missing = set(args.family) - known
        if missing:
            raise CliError(f"unknown families: {', '.join(sorted(missing))}")
        specs = tuple(s for s in specs if s.name in args.family)
    oks: list[bool] = []
    chunks = _table_checks(specs, args.points, make_rng(args.seed), tols["table"], oks)
    if args.out is None:
        # The verdicts come from the residuals alone: no row text is made.
        for _ in chunks:
            pass
    return _report(args.out, ("family", "point", "mu", "column", "closed_form",
                              "numerical", "residual", "pass"), map(_table_block, chunks),
                   "derivative table", oks,
                   f"{len(specs)} families, {args.points} points each")


def _table_checks(specs, points: int, rng, tol: float, oks: list[bool]):
    """The table's cross-checks, one chunk of points at a time: (family,
    points, axes, CrossCheck, verdicts[point, row]).  Each point's mu row,
    then its mu_conj row, adds its verdict to ``oks`` as the chunk is made."""
    for spec in specs:
        for start in range(0, points, TABLE_CHUNK):
            entry, qs, mus = tables.sample_batch(spec, rng, min(TABLE_CHUNK, points - start))
            check = tables.cross_validate(entry, qs, mus)
            # A CrossCheck's fields alternate between the mu and mu_conj columns.
            passed = np.stack(check[4:], axis=1) <= tol
            oks.extend(passed.ravel().tolist())
            yield spec.name, qs, mus, check, passed


def _table_block(chunk) -> str:
    """A chunk's CSV text: the family's row-pair template, one % repeated
    once per point, the point's mu row and then its mu_conj row."""
    family, qs, mus, check, passed = chunk
    count = len(passed)
    pair = "".join(f"{family},%s,{column},{QUATERNION_TEMPLATE},"
                   f"{QUATERNION_TEMPLATE},%.17g,%s\n" for column in ("mu", "mu_conj"))
    point_axis = f"{QUATERNION_TEMPLATE},{QUATERNION_TEMPLATE}"
    # "point,axis" is formatted once per point, for both of its rows.
    located = [point_axis % tuple(c) for c in np.concatenate((qs.c, mus.c)).T.tolist()]
    # cells[point, row]: "point,axis", the closed form's and the numerical
    # components, residual, verdict.  The four quaternion fields stack as
    # (closed/numerical, row, component, point).
    cells = np.empty((count, 2, 11), dtype=object)
    cells[:, :, 0] = np.array(located, dtype=object)[:, None]
    cells[:, :, 1:9] = np.stack([field.c for field in check[:4]]) \
        .reshape(2, 2, 4, count).transpose(3, 1, 0, 2).reshape(count, 2, 8)
    cells[:, :, 9] = np.stack(check[4:], axis=1)
    cells[:, :, 10] = np.where(passed, "true", "false")
    return pair * count % tuple(cells.ravel().tolist())


# The functions mvt and taylor differentiate are catalogue entries.
_SQUARE = tables.as_function(TableEntry(family="square"))
_MOD2 = tables.as_function(TableEntry(family="modulus_squared"))
_EXPONENTIAL = tables.as_function(TableEntry(family="exponential"))

# (name, function, center branch).  The conjugate-sandwich quadratic form
# only matches the expansion for real-valued functions, so the center
# branch is checked on one.
TAYLOR_FUNCTIONS = (("power3", tables.as_function(TableEntry("power", n=3)), False),
                    ("exponential", _EXPONENTIAL, False),
                    ("modulus_squared", _MOD2, False),
                    ("modulus_squared", _MOD2, True))
# (name, function, real form).
MVT_FUNCTIONS = (("square", _SQUARE, False),
                 ("modulus_squared", _MOD2, False),
                 ("modulus_squared", _MOD2, True),
                 ("exponential", _EXPONENTIAL, False))


def cmd_taylor(args: argparse.Namespace) -> int:
    tols = _parse_tolerances(args.tol, TAYLOR_TOLERANCES)
    if tols["slope_low"] > tols["slope_high"]:
        raise CliError(f"--tol slope_low={tols['slope_low']!r} exceeds "
                       f"slope_high={tols['slope_high']!r}: no slope can pass")
    rng = make_rng(args.seed)
    q0 = random_quaternion(rng, -1.0, 1.0)
    direction = random_quaternion(rng, -1.0, 1.0, min_modulus=0.3)
    rows = []
    oks = []
    for name, fn, center in TAYLOR_FUNCTIONS:
        fit = theorems.taylor_remainder_slope(fn, q0, direction, TAYLOR_SCALES,
                                              center=center)
        ok = fit.at_floor or tols["slope_low"] <= fit.slope <= tols["slope_high"]
        oks.append(ok)
        branch = "center" if center else "left"
        for scale, error in zip(fit.scales, fit.errors):
            rows.append((name, _fmt(scale), _fmt(error), _fmt(fit.slope),
                         branch, _fmt_pass(ok)))
    return _report(args.out, ("function", "scale", "error", "slope", "branch",
                              "pass"), _lines(rows), "taylor remainder", oks)


def cmd_mvt(args: argparse.Namespace) -> int:
    tols = _parse_tolerances(args.tol, MVT_TOLERANCES)
    rng = make_rng(args.seed)
    q0 = random_quaternion(rng, -2.0, 2.0)
    q1 = random_quaternion(rng, -2.0, 2.0)
    rows = []
    oks = []
    for name, fn, real_form in MVT_FUNCTIONS:
        form = "real" if real_form else "general"
        previous = None
        for check in theorems.mvt_left(fn, q0, q1, real_form=real_form,
                                       panels=MVT_REFINEMENT_PANELS + (MVT_FINAL_PANELS,)):
            if check.panels == MVT_FINAL_PANELS:
                tol = tols["mvt"]
            elif previous is None:
                tol = math.inf
            else:
                tol = max(previous / 10.0, REFINEMENT_FLOOR)
            ok = check.residual <= tol
            oks.append(ok)
            rows.append((name, form, _fmt_q(q0), _fmt_q(q1), str(check.panels),
                         _fmt(check.residual), _fmt(tol), _fmt_pass(ok)))
            previous = check.residual
    return _report(args.out, ("function", "form", "q0", "q1", "panels",
                              "residual", "tol", "pass"), _lines(rows), "mean value", oks)


def cmd_descend(args: argparse.Namespace) -> int:
    tols = _parse_tolerances(args.tol, DESCENT_TOLERANCES)
    target = parse_quaternion(args.target)
    start = parse_quaternion(args.start)
    entry = TableEntry(family="linear_modulus_squared", omega=ONE, nu=ONE,
                       lam=-target)
    objective = tables.as_function(entry)
    gradient = lambda p: tables.conj_gradient(entry, p)
    try:
        trace = theorems.steepest_descent(objective, start, args.alpha,
                                          max_iters=args.max_iters,
                                          grad_tol=tols["grad"],
                                          gradient=gradient)
    except DivergenceError as exc:
        print(f"descent: {exc}")
        print("FAIL")
        return EXIT_FAIL
    rows = [(str(idx), _fmt_q(q), _fmt(value), _fmt(grad_norm))
            for idx, (q, value, grad_norm)
            in enumerate(zip(trace.iterates, trace.values, trace.grad_norms))]
    return _report(args.out, ("iter", "q", "value", "grad_norm"), _lines(rows),
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
    except ValueError:  # an integer past Python's int-string digit limit, before any key
        raise CliError(f"config {spec!r} is not valid JSON: it holds an integer of more "
                       f"than {sys.get_int_max_str_digits()} digits")
    if not isinstance(raw, dict):
        raise CliError("config must be a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = CONFIG_REQUIRED - set(raw)
    if missing:
        raise CliError(f"missing config keys: {', '.join(sorted(missing))}")
    # JSON has one number type: an integer-valued float counts as an integer.
    for key in ("steps", "seed"):
        if isinstance(raw[key], float) and raw[key].is_integer():
            raw[key] = int(raw[key])
    threshold = raw.pop("threshold", None)
    if threshold is not None:
        try:
            finite = math.isfinite(real_number("threshold", threshold, "a number"))
        except ValueError as exc:
            raise CliError(f"bad config value: {exc}")
        if not finite:
            raise CliError(f"threshold must be finite, got {threshold!r}")
    return ExperimentConfig(**raw), threshold


def cmd_filter(args: argparse.Namespace) -> int:
    config, threshold = _load_filter_config(args.config)
    try:
        result = run_experiment(config)
    except DivergenceError as exc:
        print(f"filter: {exc}")
        print("FAIL")
        return EXIT_FAIL
    final = result.final_weight_error
    extra = f"{result.steps} steps, final weight error {_fmt(final)}"
    if threshold is not None:
        extra += f", threshold {_fmt(threshold)}"
    return _report(args.out, ("step", "sq_error", "weight_error"), _filter_body(result),
                   f"{config.variant} run",
                   [threshold is None or final < threshold], extra)


def _filter_body(result):
    """The whole CSV body as one block from one template, a line per step:
    the bytes of str(step) and _fmt of the two errors, joined by commas."""
    steps = len(result.mse_curve)
    yield "%d,%.17g,%.17g\n" * steps % tuple(chain.from_iterable(
        zip(range(steps), result.mse_curve, result.weight_error_curve)))


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.

    Not at import: the subcommands are looked up when it is built, so a
    cmd_* function replaced before the first main call is the one it runs.
    parse_args leaves the parser as it found it, so every call shares it.
    """
    parser = argparse.ArgumentParser(
        prog="quatcalc",
        description="Verification suites for the quaternion calculus engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, points=None):
        p.add_argument("--seed", type=_integer(0, "a non-negative integer"), default=DEFAULT_SEED,
                       help="random seed (default %(default)s)")
        p.add_argument("--out", metavar="PATH",
                       help="write a CSV report to PATH")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="override a named tolerance (repeatable)")
        if points is not None:
            p.add_argument("--points", type=_integer(1, "a positive integer"), default=points,
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
    p.add_argument("--max-iters", type=_integer(0, "a non-negative integer"), default=100,
                   help="iteration budget")
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("filter", help="run an adaptive filter experiment")
    p.add_argument("--config", default="qlms",
                   help="JSON config path, or a bundled name: qlms, wl_qlms")
    p.add_argument("--out", metavar="PATH", help="write a CSV report to PATH")
    p.set_defaults(func=cmd_filter)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return exc.code
    # A ValueError is bad input, whichever subcommand meets it.
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
