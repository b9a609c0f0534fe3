"""Tests of the benchmark's tracing: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer, layer_metrics, replace_everywhere, self_times  # noqa: E402


def test_self_time_of_a_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]; d [8, 12]
    # starts inside b and outlives it, so only [8, 9] counts against b.
    starts = [0.0, 1.0, 5.0, 6.0, 8.0]
    ends = [10.0, 4.0, 9.0, 7.0, 12.0]
    parents = [-1, 0, 0, 2, 2]
    assert self_times(starts, ends, parents) == [3.0, 3.0, 2.0, 1.0, 4.0]


def test_self_time_merges_overlapping_children():
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 5.0, 6.0]
    assert self_times(starts, ends, [-1, 0, 0])[0] == 5.0


def _ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_span_wrapper_returns_the_value_and_records_one_span_per_call():
    tracer = Tracer(clock=_ticking_clock())
    marker = object()
    inner = tracer.span("m.inner", lambda x: (x, marker))
    outer = tracer.span("m.outer", lambda x: inner(x + 1))
    assert outer(1) == (2, marker)
    assert inner(5)[1] is marker
    assert tracer.names == ["m.outer", "m.inner", "m.inner"]
    assert tracer.parents == [-1, 0, -1]
    assert all(e > s for s, e in zip(tracer.starts, tracer.ends))


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=_ticking_clock())

    def boom():
        raise ValueError("x")

    wrapped = tracer.span("m.boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    after = tracer.span("m.after", lambda: 1)
    after()
    assert tracer.parents == [-1, -1]
    assert tracer.ends[0] > tracer.starts[0]


def test_counter_counts_each_call_once_and_keeps_the_value():
    tracer = Tracer()
    result = [1, 2]
    counted = tracer.counter("m.calls", lambda *a, **k: result)
    assert counted(1, key=2) is result
    counted()
    assert tracer.count("m.calls") == 2
    assert tracer.names == []


def test_wrappers_reach_re_imported_names():
    def fn(x):
        return x * 2

    home = types.ModuleType("home")
    home.fn = fn
    user = types.ModuleType("user")
    user.fn = fn
    user.other = len
    tracer = Tracer()
    wrapped = tracer.counter("home.fn", fn)
    replace_everywhere([home, user], {id(fn): (fn, wrapped)})
    assert home.fn is wrapped and user.fn is wrapped and user.other is len
    assert home.fn(3) == 6 and user.fn(4) == 8
    assert tracer.count("home.fn") == 2


def test_layer_metrics_sum_self_time_and_count_hr_under_theorems():
    tracer = Tracer(clock=_ticking_clock())
    partials = tracer.span("derivatives.real_partials", lambda: None)

    def hr():
        partials()

    left_hr = tracer.span("derivatives.left_hr", hr)
    mvt = tracer.span("theorems.mvt_left", lambda: (left_hr(), left_hr()))
    mvt()
    left_hr()
    draws = tracer.span("identities.product_rule_records", lambda: ([1, 2, 3], 1))
    draws()
    out = layer_metrics(tracer)
    assert out["theorems.hr_calls"] == 2
    assert out["derivatives.projection.calls"] == 3
    assert out["derivatives.real_partials.calls"] == 3
    assert out["derivatives.projection.self_s"] == 3 * 2.0
    assert out["theorems.mvt_left.self_s"] == 9.0 - 3.0 - 3.0
    assert out["identities.draw_yield"] == 0.75


def test_benchmark_json_names_every_traced_metric():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(layer_metrics(Tracer())) <= per_layer
    import run
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _child(tmp_path: Path, tag: str, trace: bool) -> tuple[dict, bytes]:
    out = tmp_path / f"{tag}.csv"
    plan = tmp_path / f"{tag}-plan.json"
    result = tmp_path / f"{tag}-result.json"
    plan.write_text(json.dumps({"calls": [["verify", "--out", str(out)]],
                                "trace": trace,
                                "spans_path": str(tmp_path / f"{tag}-spans.json")}))
    subprocess.run([sys.executable, str(HERE / "child.py"), str(plan), str(result)],
                   check=True, timeout=120, cwd=tmp_path,
                   env={"PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1"})
    return json.loads(result.read_text()), out.read_bytes()


def test_traced_verify_counts_evaluations_and_changes_no_byte(tmp_path):
    plain, plain_csv = _child(tmp_path, "plain", trace=False)
    traced, traced_csv = _child(tmp_path, "traced", trace=True)
    assert traced_csv == plain_csv
    assert plain["calls"][0]["exit"] == traced["calls"][0]["exit"] == 0
    assert traced["layers"]["derivatives.evals"] == 27089
    dumped = json.loads((tmp_path / "traced-spans.json").read_text())
    assert dumped[0][0] == "cli.cmd_verify" and dumped[0][3] == -1
    assert all(parent < idx for idx, (_, _, _, parent) in enumerate(dumped))
    assert sum(name == "derivatives.real_partials" for name, *_ in dumped) \
        == traced["layers"]["derivatives.real_partials.calls"]
