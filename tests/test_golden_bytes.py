"""Byte pins: the CSV of each default-seed CLI run, by sha256.

Same seed, same bytes: a change that moves any CSV cell of these runs,
even in the last ulp, fails here and has to say which columns moved and why.
"""

import hashlib

import pytest

from quatcalc import cli

GOLDEN = {
    ("verify",):
        "1df5357bdb5ef0bf7625c0001d9ff069486a0c97644ac85c3309e504f148782b",
    ("table",):
        "d5f55050b79a0e4563304fe67c6e260549ceb5363a94e721951b22e191d94bd6",
    ("mvt",):
        "19e792a8b6bf05a84323dde352011abdc3c75c1daae3d4b887a2683d44640c14",
    ("taylor",):
        "d68324ebd26fd9ec14c84eff1e36d3b82661d9de623ed8f560f6c72f1e1c1afc",
    ("descend",):
        "a5fde767a11edfefbf71f0654487a94680a984c43783113cd17edb32f6d6408c",
    ("filter", "--config", "qlms"):
        "abb4984d2c363f373043cf4e20b2bba034bf7da26f481fcc86699ca7f371c8f6",
    ("filter", "--config", "wl_qlms"):
        "a0b2ae154fae11fb6e09de80e055a7657fb638c46925fd63710591f9847548e1",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_default_run_writes_pinned_bytes(argv, tmp_path, capsys):
    path = tmp_path / "out.csv"
    assert cli.main(list(argv) + ["--out", str(path)]) == cli.EXIT_PASS
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[argv]
