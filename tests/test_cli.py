"""CLI behavior: exit codes, CSV schemas, determinism, error handling."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quatcalc import cli, derivatives, identities, tables, theorems
from quatcalc.cli import main
from quatcalc.filters import ExperimentConfig, run_experiment
from quatcalc.quaternion import QArray, format_quaternion
from quatcalc.sampling import make_rng, random_quaternion

RUNS = {
    "verify": ["verify", "--points", "3"],
    "table": ["table", "--points", "2"],
    "taylor": ["taylor"],
    "mvt": ["mvt"],
    "descend": ["descend"],
}

HEADERS = {
    "verify": ["identity", "point", "mu", "nu", "residual", "tol", "pass"],
    "table": ["family", "point", "mu", "column", "closed_form", "numerical",
              "residual", "pass"],
    "taylor": ["function", "scale", "error", "slope", "branch", "pass"],
    "mvt": ["function", "form", "q0", "q1", "panels", "residual", "tol",
            "pass"],
    "descend": ["iter", "q", "value", "grad_norm"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_subcommand_passes_and_writes_schema(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    code = main(RUNS[name] + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.out
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == HEADERS[name]
    assert len(rows) > 1
    width = len(HEADERS[name])
    assert all(len(row) == width for row in rows[1:])


def test_verify_deterministic_output(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["verify", "--points", "3", "--seed", "99", "--out", str(a)]) == 0
    assert main(["verify", "--points", "3", "--seed", "99", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_default_verify_evaluates_nothing_point_by_point(monkeypatch, tmp_path):
    # Every function a default verify differentiates has an array form, and
    # every check, the rule draws' included, runs on arrays: a call of
    # derivatives._evaluate would mean some check fell back to one point.
    calls = []
    evaluate = derivatives._evaluate
    monkeypatch.setattr(derivatives, "_evaluate",
                        lambda f, p: calls.append(p) or evaluate(f, p))
    assert main(["verify", "--out", str(tmp_path / "verify.csv")]) == 0
    assert len(calls) == 0


def test_verify_rows_format_each_quaternion_once(monkeypatch):
    records = identities.run_identity_suite(points=4, seed=7).records
    expected = [(r.identity, cli._fmt_q(r.point), cli._fmt_q(r.mu), cli._fmt_q(r.nu),
                 cli._fmt(r.residual), cli._fmt(r.tol), cli._fmt_pass(r.passed))
                for r in records]
    formatted = []
    fmt_q = cli._fmt_q
    monkeypatch.setattr(cli, "_fmt_q", lambda q: formatted.append(q) or fmt_q(q))
    assert list(cli._verify_rows(records)) == expected
    assert len(formatted) == len({id(q) for r in records for q in (r.point, r.mu, r.nu)
                                  if q is not None})


def test_verify_seed_changes_output(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["verify", "--points", "3", "--seed", "1", "--out", str(a)])
    main(["verify", "--points", "3", "--seed", "2", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_verify_tolerance_override_fails(capsys):
    code = main(["verify", "--points", "3", "--tol", "product_rule=1e-15"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_zero_points(capsys):
    code = main(["verify", "--points", "0"])
    assert code == 2
    assert "positive" in capsys.readouterr().err


def test_unknown_tolerance_name_is_config_error(capsys):
    code = main(["verify", "--tol", "bogus=1"])
    assert code == 2
    assert "unknown tolerance name" in capsys.readouterr().err


def test_malformed_tolerance_is_config_error(capsys):
    assert main(["verify", "--tol", "golden"]) == 2
    assert main(["verify", "--tol", "golden=abc"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "--tol", "golden=nan"],
    ["table", "--tol", "table=nan"],
    ["taylor", "--tol", "slope_low=nan"],
    ["taylor", "--tol", "slope_high=NaN"],
    ["mvt", "--tol", "mvt=nan"],
    ["descend", "--tol", "grad=nan"],
    ["verify", "--tol", "product_rule=-1e-6"],
    ["table", "--tol", "table=-1"],
    ["mvt", "--tol", "mvt=-1"],
    ["descend", "--tol", "grad=-1"],
])
def test_nan_or_negative_tolerance_is_config_error(argv, capsys):
    assert main(argv) == 2
    name = argv[-1].partition("=")[0]
    assert f"--tol {name}" in capsys.readouterr().err


def test_zero_and_negative_slope_tolerances_stay_legal(capsys):
    assert main(["taylor", "--tol", "slope_low=-1"]) == 0
    assert main(["verify", "--points", "1", "--tol", "counter_gap=0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("low,high", [("3", "1"), ("9", None), (None, "2")])
def test_an_empty_slope_range_is_config_error(low, high, capsys):
    # slope_low=3 with slope_high=1 passed only the rows at the floor and
    # exited 1; either bound alone can empty the range with the other's default.
    argv = ["taylor"]
    for name, value in (("slope_low", low), ("slope_high", high)):
        if value is not None:
            argv += ["--tol", f"{name}={value}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    low, high = float(low or cli.TAYLOR_TOLERANCES["slope_low"]), \
        float(high or cli.TAYLOR_TOLERANCES["slope_high"])
    assert captured.err == (f"error: --tol slope_low={low!r} exceeds slope_high={high!r}: "
                            f"no slope can pass\n")


def test_an_equal_slope_pair_stays_legal(capsys):
    assert main(["taylor", "--tol", "slope_low=3", "--tol", "slope_high=3"]) == 1
    assert "4 checks, 2 failures" in capsys.readouterr().out


def test_table_family_filter(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["table", "--points", "3", "--family", "linear",
                 "--family", "square", "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert {row[0] for row in rows} == {"linear", "square"}
    assert len(rows) == 12  # 2 families x 3 points x 2 columns


def test_table_chunks_write_the_same_bytes(tmp_path, capsys, monkeypatch):
    argv = ["table", "--points", "7", "--family", "power", "--family",
            "linear_unit_vector", "--out"]
    assert main(argv + [str(tmp_path / "whole.csv")]) == 0
    monkeypatch.setattr(cli, "TABLE_CHUNK", 3)
    assert main(argv + [str(tmp_path / "chunked.csv")]) == 0
    capsys.readouterr()
    assert (tmp_path / "whole.csv").read_bytes() == (tmp_path / "chunked.csv").read_bytes()


def oracle_table_rows(specs, points, rng, tol, oks):
    """The table's rows as the CLI made them with one-point draws: each
    chunk's entries, points and axes drawn one by one, then restacked."""
    for spec in specs:
        for start in range(0, points, cli.TABLE_CHUNK):
            entries, qs, mus = [], [], []
            for _ in range(min(cli.TABLE_CHUNK, points - start)):
                entries.append(spec.sample_entry(rng))
                qs.append(spec.sample_point(entries[-1], rng))
                mus.append(random_quaternion(rng, -2.0, 2.0,
                                             min_modulus=tables.AXIS_MODULUS))
            check = tables.cross_validate(entries, QArray(list(zip(*qs))),
                                          QArray(list(zip(*mus))))
            columns = [[format_quaternion(tuple(c)) for c in field.c.T.tolist()]
                       for field in check[:4]] + [field.tolist() for field in check[4:]]
            for q, mu, *fields in zip(qs, mus, *columns):
                point, axis = format_quaternion(q), format_quaternion(mu)
                for column, (closed, numerical, residual) in (("mu", fields[0::2]),
                                                              ("mu_conj", fields[1::2])):
                    ok = residual <= tol
                    oks.append(ok)
                    yield (spec.name, point, axis, column, closed, numerical,
                           cli._fmt(residual), cli._fmt_pass(ok))


@pytest.mark.parametrize("axis_modulus,tol,failures", [
    (0.1, cli.TABLE_TOLERANCES["table"], 0), (1.5, cli.TABLE_TOLERANCES["table"], 0),
    (0.1, 1e-10, 21)], ids=["default", "rejecting", "mixed"])
def test_table_writes_the_one_point_draws_bytes(axis_modulus, tol, failures, tmp_path,
                                                 capsys, monkeypatch):
    # Seven points in chunks of three; power draws one point at a time, the
    # others in bulk.  An axis bound of 1.5 rejects about one axis in ten,
    # so the bulk draws replay.  At 1e-10 some rows pass and some fail, so
    # the pass column and the order of the verdicts show.
    families = ("power", "linear_unit_vector", "conj_inverse", "square", "exponential")
    monkeypatch.setattr(cli, "TABLE_CHUNK", 3)
    monkeypatch.setattr(tables, "AXIS_MODULUS", axis_modulus)
    replays = []
    sample_one = tables.sample_one
    monkeypatch.setattr(tables, "sample_one", lambda spec, rng: replays.append(
        spec.name) or sample_one(spec, rng))
    out = tmp_path / "t.csv"
    argv = ["table", "--points", "7", "--seed", "5", "--tol", f"table={tol!r}",
            "--out", str(out)]
    code = main(argv + [arg for name in families for arg in ("--family", name)])
    assert code == (cli.EXIT_FAIL if failures else cli.EXIT_PASS)
    assert capsys.readouterr().out == (
        f"wrote {out}\nderivative table: 70 checks, {failures} failures "
        f"(5 families, 7 points each)\n{'FAIL' if failures else 'PASS'}\n")
    oks = []
    specs = [spec for spec in tables.catalogue() if spec.name in families]
    rows = oracle_table_rows(specs, 7, make_rng(5), tol, oks)
    expected = "".join(",".join(row) + "\n" for row in [HEADERS["table"], *rows])
    assert out.read_text() == expected
    assert len(oks) == 2 * 7 * len(families) and oks.count(False) == failures
    assert replays.count("power") == 7
    assert (len(replays) > 7) == (axis_modulus > 0.1)


def test_write_csv_leaves_empty_fields_bare(tmp_path, capsys):
    # verify leaves mu and nu blank on records without an axis.
    header, rows = ("a", "b", "c"), [("x", "", ""), ("", "y", "")]
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    cli._write_csv(str(ours), header, cli._lines(rows))
    assert capsys.readouterr().out == f"wrote {ours}\n"
    with open(theirs, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    assert ours.read_bytes() == theirs.read_bytes() == b"a,b,c\nx,,\n,y,\n"


@pytest.mark.parametrize("tol", [None, "1e-10"], ids=["default", "mixed"])
def test_table_streams_its_rows_with_the_same_summary(tol, tmp_path, capsys, monkeypatch):
    argv = ["table", "--family", "linear", "--points", "5000"]
    argv += ["--tol", f"table={tol}"] if tol else []
    out = tmp_path / "t.csv"
    code = main(argv + ["--out", str(out)])
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 10000
    failures = sum(row.endswith(",false") for row in rows)
    # At 1e-10 some rows pass and some fail.
    assert (0 < failures < 10000) if tol else failures == 0
    assert code == (cli.EXIT_FAIL if failures else cli.EXIT_PASS)
    summary = (f"derivative table: 10000 checks, {failures} failures "
               f"(1 families, 5000 points each)\n{'FAIL' if failures else 'PASS'}\n")
    assert capsys.readouterr().out == f"wrote {out}\n{summary}"
    # Without --out no row text is made; the verdicts come from the residuals.
    monkeypatch.setattr(cli, "_table_block", lambda chunk: pytest.fail("row text made"))
    assert main(argv) == code
    assert capsys.readouterr().out == summary


def test_filter_makes_no_csv_text_without_out(tmp_path, capsys, monkeypatch):
    out = tmp_path / "f.csv"
    assert main(["filter", "--out", str(out)]) == cli.EXIT_PASS
    summary = capsys.readouterr().out.split("\n", 1)[1]

    def unformatted(result):
        pytest.fail("CSV text made")
        yield

    monkeypatch.setattr(cli, "_filter_body", unformatted)
    assert main(["filter"]) == cli.EXIT_PASS
    assert capsys.readouterr().out == summary


def test_table_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "t.csv"
    assert main(["table", "--points", "2", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {path}: [Errno 2] "
                            f"No such file or directory: '{path}'\n")


def test_table_unknown_family(capsys):
    assert main(["table", "--family", "nope"]) == 2
    assert "unknown families" in capsys.readouterr().err


def test_mvt_and_taylor_differentiate_catalogue_functions():
    # Every tables.as_function(entry) closure shares one code object.
    catalogue_code = tables.as_function(tables.TableEntry(family="square")).__code__
    for name, fn, _ in cli.MVT_FUNCTIONS + cli.TAYLOR_FUNCTIONS:
        assert fn.__code__ is catalogue_code, name


def test_descend_reaches_target(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["descend", "--target", "1+2i+3j+4k", "--alpha", "0.4",
                 "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert len(rows) <= 101
    assert float(rows[-1][3]) <= 1e-6
    # objective column decreases
    values = [float(row[2]) for row in rows]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_descend_bad_target(capsys):
    assert main(["descend", "--target", "abc"]) == 2
    assert "bad quaternion term" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--target", "--start"])
def test_descend_rejects_a_literal_too_large_for_a_double(option, capsys):
    assert main(["descend", option, "1e999"]) == 2
    err = capsys.readouterr().err
    assert "'1e999'" in err and "not finite" in err
    assert "function evaluation" not in err


@pytest.mark.parametrize("option, value", [("--alpha", "nan"), ("--alpha", "inf"),
                                           ("--alpha", "-0.4"), ("--max-iters", "-3")])
def test_descend_rejects_bad_step_and_budget(option, value, capsys):
    assert main(["descend", option, value]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["verify", "table", "taylor", "mvt", "descend"])
def test_negative_seed_is_usage_error(name, capsys):
    assert main([name, "--seed", "-1"]) == 2
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("name,option", [("verify", "--seed"), ("verify", "--points"),
                                         ("descend", "--max-iters")])
def test_an_integer_option_past_the_digit_limit_names_the_limit(name, option, capsys):
    # Each echoed all the digits, and --points and --max-iters did not say why.
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    assert main([name, option, digits]) == 2
    err = capsys.readouterr().err
    assert f"{option}: must be a " in err
    assert f"integer of at most {sys.get_int_max_str_digits()} digits" in err
    assert digits[:100] not in err


def test_argparse_exits_become_return_codes(capsys):
    assert main(["verify", "--points", "abc"]) == 2
    assert "--points: invalid int value: 'abc'" in capsys.readouterr().err
    assert main(["verify", "--help"]) == 0
    assert "usage: quatcalc verify" in capsys.readouterr().out


@pytest.mark.parametrize("name,module,attr", [("table", tables, "sample_batch"),
                                              ("mvt", theorems, "mvt_left"),
                                              ("taylor", theorems, "taylor_remainder_slope")],
                         ids=["table", "mvt", "taylor"])
def test_a_value_error_inside_any_subcommand_exits_2(name, module, attr, monkeypatch, capsys):
    def fails(*args, **kwargs):
        raise ValueError("planted failure")

    monkeypatch.setattr(module, attr, fails)
    assert main(RUNS[name]) == 2
    assert capsys.readouterr().err == "error: planted failure\n"


SRC = Path(__file__).resolve().parents[1] / "src"


def test_the_one_parser_carries_nothing_from_call_to_call(tmp_path, capsys):
    # A fresh interpreter builds no parser at import; its one taylor run
    # gives the bytes a reused parser must give after a failing call.
    fresh = tmp_path / "fresh.csv"
    script = ("import sys; from quatcalc import cli; "
              "assert cli.build_parser.cache_info().currsize == 0; "
              "sys.exit(cli.main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-c", script, "taylor", "--out", str(fresh)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert main(["taylor", "--tol", "slope_low=3.2"]) == 1
    shared = tmp_path / "shared.csv"
    assert main(["taylor", "--out", str(shared)]) == 0
    assert shared.read_bytes() == fresh.read_bytes()
    assert main(["taylor", "--seed", "x"]) == 2
    assert main(["taylor", "--help"]) == 0
    assert "usage: quatcalc taylor" in capsys.readouterr().out
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv,code,stream,text", [
    (["verify", "--points", "3"], 0, "stdout", "PASS"),
    (["verify", "--points", "3", "--tol", "product_rule=1e-15"], 1, "stdout", "FAIL"),
    (["filter", "--config", "missing.json"], 2, "stderr", "error:"),
], ids=["pass", "fail", "error"])
def test_module_entry_point_in_a_fresh_interpreter(argv, code, stream, text, tmp_path):
    # python -m quatcalc.cli: a cold import of the package and sys.exit(main()).
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "quatcalc.cli", *argv], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == code
    assert getattr(run, stream).splitlines()[-1].startswith(text)


def test_descend_divergent_step(capsys):
    code = main(["descend", "--alpha", "4.5"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_descend_overflowing_step_is_rejected(capsys):
    # The objective overflows on the second step; it is reported, not run
    # through NaN iterations.
    assert main(["descend", "--alpha", "1e100"]) == 2
    assert "function evaluation is not finite" in capsys.readouterr().err


def test_filter_bundled_config(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code = main(["filter", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "qlms run" in captured.out
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["step", "sq_error", "weight_error"]
    assert len(rows) == 5001
    assert float(rows[-1][2]) < 1e-2


def test_filter_custom_config(tmp_path, capsys):
    config = {"variant": "qlms",
              "taps": [[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]],
              "alpha": 0.02, "steps": 500, "snr_db": 40, "seed": 3}
    path = tmp_path / "small.json"
    path.write_text(json.dumps(config))
    assert main(["filter", "--config", str(path)]) == 0
    assert "qlms run" in capsys.readouterr().out


def test_filter_body_is_one_line_per_step_of_the_curves(tmp_path, capsys):
    config = {"variant": "qlms",
              "taps": [[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]],
              "alpha": 0.02, "steps": 7, "snr_db": 40, "seed": 3}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "f.csv"
    assert main(["filter", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    result = run_experiment(ExperimentConfig(**config))
    lines = ["%d,%.17g,%.17g\n" % row for row in
             zip(range(7), result.mse_curve, result.weight_error_curve)]
    assert out.read_text() == "step,sq_error,weight_error\n" + "".join(lines)
    assert len(result.mse_curve) == len(result.weight_error_curve) == 7


def test_filter_threshold_failure(tmp_path, capsys):
    config = {"variant": "qlms",
              "taps": [[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]],
              "alpha": 0.02, "steps": 50, "snr_db": 40, "seed": 3,
              "threshold": 1e-9}
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(config))
    assert main(["filter", "--config", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


class _Digits(str):
    """A JSON integer, written out as its digits: json.dumps cannot write
    an int too long for str()."""


@pytest.mark.parametrize("mutation,message", [
    ({"variant": "rls"}, "unknown filter variant"),
    ({"kind": "pink"}, "unknown signal kind"),
    ({"nonlinearity": "relu"}, "unknown nonlinearity"),
    ({"alpha": "fast"}, "alpha must be a real number"),
    ({"alpha": float("nan")}, "alpha must be finite and non-negative"),
    ({"alpha": float("inf")}, "alpha must be finite and non-negative"),
    ({"alpha": -0.02}, "alpha must be finite and non-negative"),
    ({"snr_db": float("nan")}, "snr_db must be"),
    ({"steps": 10.7}, "steps must be an integer"),
    ({"threshold": float("nan")}, "threshold must be finite"),
    ({"threshold": float("inf")}, "threshold must be finite"),
    ({"threshold": "low"}, "bad config value"),
    ({"nonlinearity": ["tanh"]}, "unknown nonlinearity"),
    # JSON bools and strings are not numbers: the code that reads the key refuses them.
    ({"seed": True}, "seed must be a nonnegative integer"),
    ({"seed": "3"}, "seed must be a nonnegative integer"),
    ({"steps": True}, "steps must be an integer"),
    ({"steps": "500"}, "steps must be an integer"),
    ({"alpha": "0.1"}, "alpha must be a real number"),
    ({"alpha": False}, "alpha must be a real number"),
    ({"snr_db": "40"}, "snr_db must be a real number"),
    ({"threshold": True}, "threshold must be a number"),
    ({"threshold": "0.5"}, "threshold must be a number"),
    # JSON integers have no range: 1 followed by 400 zeros has no double.
    ({"alpha": 10 ** 400}, "alpha must be a real number within a double's range"),
    ({"snr_db": 10 ** 400}, "snr_db must be a real number within a double's range"),
    ({"threshold": 10 ** 400}, "threshold must be a number within a double's range"),
    ({"taps": [[float("nan"), 0.0, 0.0, 0.0], [0.1, 0.0, 0.0, 0.0]]}, "taps must be finite"),
    ({"taps": [[1e308, 0.0, 0.0, 0.0], [0.1, 0.0, 0.0, 0.0]]}, "desired signal is not finite"),
    ({"taps": []}, "four branches"),
    ({"taps": [[0.5, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]}, "four branches"),
    ({"taps": [[0.5, 0.0, 0.0]]}, "four branches"),
    ({"taps": [["x", 0.0, 0.0, 0.0]]}, "four branches"),
    ({"taps": {"a": 1}}, "four branches"),
    ({"taps": [[[0.5, 0.0, 0.0, 0.0]]] * 3}, "four branches"),
    ({"nonlinearity": "tanh"}, "nonlinearity applies to qngd only"),
    ({"taps": [["0.7", "-0.3", "0.2", "0.1"]]}, "four branches"),
    # Python reads no integer of more than 4,300 digits from a string.
    ({"seed": _Digits("1" * 4301)},
     "bad.json' is not valid JSON: it holds an integer of more than 4300 digits"),
])
def test_filter_config_validation(tmp_path, capsys, mutation, message):
    config = {"variant": "qlms",
              "taps": [[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]],
              "alpha": 0.02, "steps": 500, "snr_db": 40, "seed": 3}
    config.update(mutation)
    path = tmp_path / "bad.json"
    text = json.dumps(config)
    for value in mutation.values():
        if isinstance(value, _Digits):
            text = text.replace(json.dumps(value), value)
    path.write_text(text)
    assert main(["filter", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    # No message passes on advice to call into Python, which a CLI user cannot follow.
    assert "sys." not in err


def test_filter_edge_values_stay_legal(tmp_path, capsys):
    # alpha = 0 freezes the weights and snr_db = inf means a noise-free run.
    config = {"variant": "qlms",
              "taps": [[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]],
              "alpha": 0, "steps": 50.0, "snr_db": float("inf"), "seed": 3}
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(config))
    assert main(["filter", "--config", str(path)]) == 0
    assert "50 steps, final weight error 1)" in capsys.readouterr().out
    config.update(steps=1e3, seed=3.0)
    path.write_text(json.dumps(config))
    assert main(["filter", "--config", str(path)]) == 0
    assert "1000 steps" in capsys.readouterr().out


def test_filter_integer_valued_floats_write_the_integer_run(tmp_path, capsys):
    config = {"variant": "qlms",
              "taps": [[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]],
              "alpha": 0.02, "steps": 500, "snr_db": 40, "seed": 3}
    reports = []
    for steps, seed in ((500, 3), (500.0, 3.0)):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**config, "steps": steps, "seed": seed}))
        out = tmp_path / f"run_{len(reports)}.csv"
        assert main(["filter", "--config", str(path), "--out", str(out)]) == 0
        reports.append((out.read_bytes(), capsys.readouterr().out.replace(str(out), "")))
    assert reports[0] == reports[1]


def test_filter_missing_and_unknown_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"variant": "qlms"}))
    assert main(["filter", "--config", str(path)]) == 2
    assert "missing config keys" in capsys.readouterr().err
    path.write_text(json.dumps({
        "variant": "qlms", "taps": [[0.5, 0.0, 0.0, 0.0]], "alpha": 0.1,
        "steps": 10, "snr_db": 40, "seed": 1, "extra": True}))
    assert main(["filter", "--config", str(path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_filter_nonexistent_config(capsys):
    assert main(["filter", "--config", "/does/not/exist.json"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_filter_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["filter", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_filter_wl_taps_shape_error(tmp_path, capsys):
    config = {"variant": "wl_qlms",
              "taps": [[[0.5, 0.0, 0.0, 0.0]], [[0.5, 0.0, 0.0, 0.0]]],
              "alpha": 0.02, "steps": 100, "snr_db": 40, "seed": 3}
    path = tmp_path / "wl.json"
    path.write_text(json.dumps(config))
    assert main(["filter", "--config", str(path)]) == 2
    assert "four branches" in capsys.readouterr().err
