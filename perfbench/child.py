"""One run process: a closed loop of ``quatcalc.cli.main`` calls.

    python3 perfbench/child.py PLAN.json RESULT.json

PLAN.json holds ``calls`` (a list of CLI argument lists), ``trace`` and
``spans_path``.  The process imports the package, notes the monotonic time
at which ``cli.main`` is first entered, makes each call in turn with its
output captured, and writes RESULT.json.  With ``trace`` set it wraps the
package modules first, writes the spans to ``spans_path`` and adds the
per-layer figures to the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main(argv: list[str]) -> int:
    with open(argv[1]) as handle:
        plan = json.load(handle)
    import numpy
    from quatcalc import cli

    tracer = None
    if plan["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    calls = []
    main_entered = time.monotonic()
    for call_argv in plan["calls"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(call_argv)
            except SystemExit as exc:
                code = exc.code
        calls.append({"argv": call_argv, "exit": code,
                      "seconds": time.perf_counter() - start,
                      "stdout": out.getvalue(), "stderr": err.getvalue()})
    result = {"main_entered": main_entered, "numpy": numpy.__version__,
              "calls": calls}
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        tracer.dump(plan["spans_path"])
    with open(argv[2], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
