"""Byte pins: the CSV of each default-seed CLI run, by sha256.

Paths in the pinned command lines are relative to the repository root.

Same seed, same bytes: a change that moves any CSV cell of these runs,
even in the last ulp, fails here and has to say which columns moved and why.
"""

import csv
import hashlib
import math
from pathlib import Path

import pytest

from quatcalc import cli, filters

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = {
    ("verify",):
        "1df5357bdb5ef0bf7625c0001d9ff069486a0c97644ac85c3309e504f148782b",
    # The identity_suite benchmark workload's call.
    ("verify", "--points", "150"):
        "4259feaa2aeb98db0cee24abfd344e20dbad2d8d929d5e35d74e3928e16ac2ad",
    ("table",):
        "8836a3e7b87eb33eb8e92f48cb720fc792459756f6f8c1bceb7caa6745f80685",
    # The derivative_table benchmark workload's call.
    ("table", "--points", "200"):
        "afcfd332f3567877c7ea50399464a6a81bf357dba0e201aef09955434119486e",
    ("mvt",):
        "19e792a8b6bf05a84323dde352011abdc3c75c1daae3d4b887a2683d44640c14",
    ("taylor",):
        "d68324ebd26fd9ec14c84eff1e36d3b82661d9de623ed8f560f6c72f1e1c1afc",
    ("descend",):
        "a5fde767a11edfefbf71f0654487a94680a984c43783113cd17edb32f6d6408c",
    ("filter", "--config", "qlms"):
        "abb4984d2c363f373043cf4e20b2bba034bf7da26f481fcc86699ca7f371c8f6",
    ("filter", "--config", "wl_qlms"):
        "bc19f2bc5da36a5d6d0be0f4e9009119c63c525b52f7b9f81f6afab6ad8c78a2",
    ("filter", "--config", "perfbench/configs/qngd.json"):
        "43d5db24f2a05869859bae56608346597492739a129d3a5bafbe292fecdb4985",
}


def _run(argv, tmp_path, capsys, monkeypatch) -> Path:
    monkeypatch.chdir(ROOT)
    path = tmp_path / "out.csv"
    assert cli.main(list(argv) + ["--out", str(path)]) == cli.EXIT_PASS
    capsys.readouterr()
    return path


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_default_run_writes_pinned_bytes(argv, tmp_path, capsys, monkeypatch):
    path = _run(argv, tmp_path, capsys, monkeypatch)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_no_field_needs_csv_quoting(argv, tmp_path, capsys, monkeypatch):
    # The CSV lines are joined without quoting, so csv.reader must read each
    # one back as its plain split on commas.
    path = _run(argv, tmp_path, capsys, monkeypatch)
    with open(path, newline="") as handle:
        fields = list(csv.reader(handle))
    assert fields == [line.split(",") for line in path.read_text().split("\n")[:-1]]


@pytest.mark.parametrize("argv", [argv for argv in GOLDEN if argv[0] == "filter"],
                         ids=" ".join)
def test_filter_bytes_do_not_depend_on_the_builtin_sum(argv, tmp_path, capsys,
                                                        monkeypatch):
    # Python 3.12+ compensates a float sum(), as math.fsum does: a builtin
    # sum() of the signal power moved the noise and every filter cell there.
    monkeypatch.setattr(filters, "sum", math.fsum, raising=False)
    path = _run(argv, tmp_path, capsys, monkeypatch)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[argv]
