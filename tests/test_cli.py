"""CLI behavior: exit codes, CSV schemas, determinism, error handling."""

import csv
import json

import pytest

from quatcalc.cli import main

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


def test_table_family_filter(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["table", "--points", "3", "--family", "linear",
                 "--family", "square", "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert {row[0] for row in rows} == {"linear", "square"}
    assert len(rows) == 12  # 2 families x 3 points x 2 columns


def test_table_unknown_family(capsys):
    assert main(["table", "--family", "nope"]) == 2
    assert "unknown families" in capsys.readouterr().err


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


@pytest.mark.parametrize("option, value", [("--alpha", "nan"), ("--alpha", "inf"),
                                           ("--alpha", "-0.4"), ("--max-iters", "-3")])
def test_descend_rejects_bad_step_and_budget(option, value, capsys):
    assert main(["descend", option, value]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["verify", "table", "taylor", "mvt", "descend"])
def test_negative_seed_is_usage_error(name, capsys):
    with pytest.raises(SystemExit) as info:
        main([name, "--seed", "-1"])
    assert info.value.code == 2
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err


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


def test_filter_threshold_failure(tmp_path, capsys):
    config = {"variant": "qlms",
              "taps": [[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]],
              "alpha": 0.02, "steps": 50, "snr_db": 40, "seed": 3,
              "threshold": 1e-9}
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(config))
    assert main(["filter", "--config", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("mutation,message", [
    ({"variant": "rls"}, "unknown filter variant"),
    ({"kind": "pink"}, "unknown signal kind"),
    ({"nonlinearity": "relu"}, "unknown nonlinearity"),
    ({"alpha": "fast"}, "bad config value"),
    ({"alpha": float("nan")}, "alpha must be finite and non-negative"),
    ({"alpha": float("inf")}, "alpha must be finite and non-negative"),
    ({"alpha": -0.02}, "alpha must be finite and non-negative"),
    ({"snr_db": float("nan")}, "snr_db must be"),
    ({"steps": 10.7}, "steps must be an integer"),
    ({"threshold": float("nan")}, "threshold must be finite"),
    ({"threshold": float("inf")}, "threshold must be finite"),
    ({"threshold": "low"}, "bad config value"),
    ({"nonlinearity": ["tanh"]}, "unknown nonlinearity"),
    # JSON bools and strings are not numbers, though float() and int() take them.
    ({"seed": True}, "seed must be a number"),
    ({"seed": "3"}, "seed must be a number"),
    ({"steps": True}, "steps must be a number"),
    ({"steps": "500"}, "steps must be a number"),
    ({"alpha": "0.1"}, "alpha must be a number"),
    ({"alpha": False}, "alpha must be a number"),
    ({"snr_db": "40"}, "snr_db must be a number"),
    ({"threshold": True}, "threshold must be a number"),
    ({"threshold": "0.5"}, "threshold must be a number"),
    ({"taps": [[float("nan"), 0.0, 0.0, 0.0], [0.1, 0.0, 0.0, 0.0]]}, "taps must be finite"),
    ({"taps": [[1e308, 0.0, 0.0, 0.0], [0.1, 0.0, 0.0, 0.0]]}, "desired signal is not finite"),
])
def test_filter_config_validation(tmp_path, capsys, mutation, message):
    config = {"variant": "qlms",
              "taps": [[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]],
              "alpha": 0.02, "steps": 500, "snr_db": 40, "seed": 3}
    config.update(mutation)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["filter", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


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
