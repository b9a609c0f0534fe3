"""The benchmark's hooks into the package still resolve.

perfbench/spans.py wraps package functions by name and perfbench/micro.py
calls the per-sample filter steps and the one-point table cross-check by
name, so a rename in src/ breaks a traced benchmark run without failing any
other test.  This runs both in a fresh interpreter, then a traced verify,
table and filter whose CSVs must match untraced runs', as the digests of a
traced benchmark run must, and edits nothing under perfbench/.
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
spans = {}
for argv in json.loads(sys.argv[2]):
    start = len(tracer.names)
    if cli.main(argv) != 0:
        sys.exit(1)
    names = tracer.names[start:]
    spans[argv[0]] = {name: names.count(name) for name in set(names)}
print(json.dumps(spans))
"""


def test_spans_install_and_micro_run(tmp_path):
    out = tmp_path / "micro.json"
    config = json.loads((ROOT / "perfbench" / "configs" / "qngd.json").read_text())
    short = tmp_path / "short.json"
    short.write_text(json.dumps({**config, "steps": 50}))
    runs = {"verify": ["verify", "--points", "3"],
            "table": ["table", "--points", "3"],
            "filter": ["filter", "--config", str(short)]}
    traced = [argv + ["--out", str(tmp_path / f"traced_{name}.csv")]
              for name, argv in runs.items()]
    proc = subprocess.run([sys.executable, "-B", "-c", HOOKS, str(out), json.dumps(traced)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    timings = json.loads(out.read_text())
    # One-point cross_validate timings, one per family.
    for spec in catalogue():
        assert timings[f"tables.cross_validate_us.{spec.name}"] > 0.0
    # Per-sample step timings through filters.wl_qlms_step and qngd_step.
    for variant in ("wl_qlms", "qngd"):
        assert timings[f"filters.step_us.{variant}"] > 0.0
    # Each traced run writes the untraced bytes.
    for name, argv in runs.items():
        plain = tmp_path / f"plain_{name}.csv"
        assert cli.main(argv + ["--out", str(plain)]) == 0
        assert (tmp_path / f"traced_{name}.csv").read_bytes() == plain.read_bytes()
    # The spans take in the calls on arrays of points too.
    spans = json.loads(proc.stdout.splitlines()[-1])
    assert spans["verify"]["derivatives.real_partials"] > 0
    assert spans["verify"]["identities.golden_records"] == 1
    assert spans["table"]["tables.cross_validate"] == len(catalogue())
    assert spans["filter"]["filters.run_experiment"] == 1
