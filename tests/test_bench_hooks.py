"""The benchmark's hooks into the package still resolve.

perfbench/spans.py wraps package functions by name and perfbench/micro.py
calls the per-sample filter steps and the one-point table cross-check by
name, so a rename in src/ breaks a traced benchmark run without failing any
other test.  This runs both in a fresh interpreter and edits nothing under
perfbench/.
"""

import json
import subprocess
import sys
from pathlib import Path

from quatcalc.tables import catalogue

ROOT = Path(__file__).resolve().parent.parent

HOOKS = """
import sys
sys.path[:0] = ["src", "perfbench"]
import spans
spans.install(spans.Tracer())
import micro
sys.exit(micro.main(["micro", "1", "perfbench/configs/qngd.json", sys.argv[1]]))
"""


def test_spans_install_and_micro_run(tmp_path):
    out = tmp_path / "micro.json"
    proc = subprocess.run([sys.executable, "-B", "-c", HOOKS, str(out)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    timings = json.loads(out.read_text())
    # One-point cross_validate timings, one per family.
    for spec in catalogue():
        assert timings[f"tables.cross_validate_us.{spec.name}"] > 0.0
