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
        "e50143925839e108387df7d128d55fed0c6782f836c11a80ace5548adf5821c5",
    # The identity_suite benchmark workload's call.
    ("verify", "--points", "150"):
        "171aa0c81a5563867ea148362b4b9e6c910578fbbe86849ff17e719c6d96949a",
    ("table",):
        "b185084b2dfa55bf9d90c5906dfdfd209ad75fb41a5374e3d47df510bf56d73c",
    # The derivative_table benchmark workload's call.
    ("table", "--points", "200"):
        "b4d92198a2475fffa912475d64da63293c78c194185bf1bc51f9ff5fa0c03016",
    ("mvt",):
        "be0b331bf11f48a336073b4131523e0e2dd29b95dac23c64b66659883756156b",
    ("taylor",):
        "6d4eb3c25d00ea8aeaa56c632dbef3709bad35cef10cf63d04399d964a88e9df",
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
