"""The benchmark's hooks into the package still resolve.

perfbench/spans.py wraps package functions by name and perfbench/micro.py
calls the per-sample filter steps and the one-point table cross-check by
name, so a rename in src/ breaks a traced benchmark run without failing any
other test.  This runs both in a fresh interpreter, then a traced verify
whose CSV must match an untraced run's, and edits nothing under perfbench/.
"""

import json
import subprocess
import sys
from pathlib import Path

from quatcalc import cli
from quatcalc.tables import catalogue

ROOT = Path(__file__).resolve().parent.parent

HOOKS = """
import json
import sys
sys.path[:0] = ["src", "perfbench"]
import spans
tracer = spans.Tracer()
spans.install(tracer)
import micro
from quatcalc import cli
if micro.main(["micro", "1", "perfbench/configs/qngd.json", sys.argv[1]]) != 0:
    sys.exit(1)
start = len(tracer.names)
code = cli.main(["verify", "--points", "3", "--out", sys.argv[2]])
names = tracer.names[start:]
print(json.dumps({name: names.count(name) for name in set(names)}))
sys.exit(code)
"""


def test_spans_install_and_micro_run(tmp_path):
    out = tmp_path / "micro.json"
    traced = tmp_path / "traced.csv"
    proc = subprocess.run([sys.executable, "-B", "-c", HOOKS, str(out), str(traced)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    timings = json.loads(out.read_text())
    # One-point cross_validate timings, one per family.
    for spec in catalogue():
        assert timings[f"tables.cross_validate_us.{spec.name}"] > 0.0
    # Per-sample step timings through filters.wl_qlms_step and qngd_step.
    for variant in ("wl_qlms", "qngd"):
        assert timings[f"filters.step_us.{variant}"] > 0.0
    # A traced verify writes the untraced bytes, and its spans take in the
    # identity suite's calls on arrays of points too.
    plain = tmp_path / "plain.csv"
    assert cli.main(["verify", "--points", "3", "--out", str(plain)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    spans = json.loads(proc.stdout.splitlines()[-1])
    assert spans["derivatives.real_partials"] > 0
    assert spans["identities.golden_records"] == 1
