"""Benchmark of the quatcalc command line suites.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout; the package is imported from ``src``.
Each workload is a closed loop, one client: a run process (``child.py``)
makes the workload's CLI calls through ``quatcalc.cli.main``, one after
another, and exits; the next run process starts when the last one has
ended.  Run processes keep starting until ``--seconds`` are used, and each
metric is the median over them.  The CLI gets ``--seed N``, and the filter
configs are copied with their seed set to N.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
Before the timed loop it makes the same calls once at the seeds the package
ships with (the CLI default seed and the bundled config seeds); that call
warms the caches, and ``worst_margin`` is read from its CSVs, so the margin
depends on the code alone.  The seeded calls are checked, not used for the
margin: their worst residual/tol moves by half its median from seed to seed.

Times are scaled by the machine's speed during the run.  On a shared
machine the same work takes up to 1.6 times longer from one minute to the
next, and CPU time moves with wall time, so raw medians spread too far
between runs.  Each timed run process is followed by ``yardstick.py``, a
fixed pure-Python job, on the same CPU, and the medians of wall, set-up and
work time are multiplied by YARDSTICK_S over the median yardstick time: the
times the run would take on a machine where the yardstick takes YARDSTICK_S.
The raw times and the yardsticks stay in the results file.

With ``--trace 1`` the run alternates untraced and traced run processes on
the same inputs, requires equal CSV digests from both, and reports the
per-layer metrics of BENCHMARK.json, then runs ``micro.py`` for the
microbenchmarks.  Every run writes a results file with machine facts, every
run process and every CSV digest to ``.perfbench/results/``.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

IDENTITY_POINTS = 150
TABLE_POINTS = 200
TABLE_TOL = 1e-5  # the CLI's default ``table`` tolerance
# The bundled config runs 20,000 steps, which made run processes of 5-9 s and
# left three or four per run; its weight error is steady from step 2,000.
WL_QLMS_STEPS = 5000
MIN_PROCESSES = 3
# Times are scaled to a machine on which yardstick.py takes this long, about
# its median on a quiet 2-core Xeon guest.
YARDSTICK_S = 0.3
RUN_LIMIT_S = 170.0
SUMMARY = re.compile(r"^.+: (\d+) checks, (\d+) failures", re.MULTILINE)


@dataclass(frozen=True)
class Call:
    """One CLI call of a workload and how its output is checked."""

    name: str
    argv: tuple[str, ...]
    margin: Optional[str] = None  # "tol_column", "table" or "filter"
    nominal_checks: int = 1  # counted as failed when the call gives no summary
    threshold: float = math.nan
    steps: int = 0


def _seed_args(seed: Optional[int]) -> tuple[str, ...]:
    return () if seed is None else ("--seed", str(seed))


def _filter_call(name: str, source: Path, seed: Optional[int], work: Path,
                 steps: Optional[int] = None) -> Call:
    with open(source) as handle:
        config = json.load(handle)
    if seed is not None:
        config["seed"] = seed
    if steps is not None:
        config["steps"] = steps
    path = work / f"{name}.json"
    with open(path, "w") as handle:
        json.dump(config, handle)
    return Call(name, ("filter", "--config", str(path)), margin="filter",
                threshold=float(config["threshold"]), steps=int(config["steps"]))


def identity_suite(seed: Optional[int], work: Path) -> list[Call]:
    return [Call("verify", ("verify", "--points", str(IDENTITY_POINTS))
                 + _seed_args(seed), margin="tol_column",
                 nominal_checks=2 + 18 * IDENTITY_POINTS + 130)]


def derivative_table(seed: Optional[int], work: Path) -> list[Call]:
    return [Call("table", ("table", "--points", str(TABLE_POINTS))
                 + _seed_args(seed), margin="table",
                 nominal_checks=2 * 28 * TABLE_POINTS)]


def filter_stream(seed: Optional[int], work: Path) -> list[Call]:
    return [_filter_call("wl_qlms", SRC / "quatcalc" / "configs" / "wl_qlms.json",
                         seed, work, steps=WL_QLMS_STEPS),
            _filter_call("qngd", HERE / "configs" / "qngd.json", seed, work)]


def theorem_checks(seed: Optional[int], work: Path) -> list[Call]:
    return [Call("mvt", ("mvt",) + _seed_args(seed), margin="tol_column",
                 nominal_checks=20),
            Call("taylor", ("taylor",) + _seed_args(seed), nominal_checks=4),
            Call("descend", ("descend",) + _seed_args(seed))]


WORKLOADS = {"identity_suite": identity_suite,
             "derivative_table": derivative_table,
             "filter_stream": filter_stream,
             "theorem_checks": theorem_checks}


class Run:
    """Run processes of one benchmark run, their records and any problems."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.count = 0
        self.records: list[dict] = []
        self.yardsticks: list[float] = []
        self.problems: list[str] = []

    def spawn(self, script: str, args: list[str]) -> tuple[int, float, float]:
        """Run one process to its end; return (exit code, wall s, peak RSS MB)."""
        log = self.work / f"log-{self.count}.txt"
        with open(log, "w") as handle:
            start = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / script)] + args,
                                    stdout=handle, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.work)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.problems.append(f"{script} exited with {proc.returncode}: "
                                 f"{log.read_text()[-2000:]}")
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def yardstick(self) -> None:
        """Note how long the yardstick process takes now, start to exit."""
        self.yardsticks.append(self.spawn("yardstick.py", [])[1])

    def process(self, calls: list[Call], trace: bool = False) -> dict:
        """Make the calls in one run process and check every output."""
        tag = self.count
        self.count += 1
        argvs = [list(c.argv) + ["--out", str(self.work / f"{c.name}-{tag}.csv")]
                 for c in calls]
        plan, result_path = self.work / f"plan-{tag}.json", self.work / f"result-{tag}.json"
        with open(plan, "w") as handle:
            json.dump({"calls": argvs, "trace": trace,
                       "spans_path": str(self.work / f"spans-{tag}.json")}, handle)
        start = time.monotonic()
        code, wall, rss = self.spawn("child.py", [str(plan), str(result_path)])
        record = {"trace": trace, "wall_s": wall, "peak_rss_mb": rss,
                  "attempted": 0, "failed": 0, "units": 0, "margin": 0.0,
                  "digests": {}, "tag": tag}
        result = None
        if code == 0:
            with open(result_path) as handle:
                result = json.load(handle)
            record["setup_s"] = result["main_entered"] - start
            record["numpy"] = result["numpy"]
            record["layers"] = result.get("layers")
        for idx, call in enumerate(calls):
            outcome = result["calls"][idx] if result else None
            self._check(call, outcome, Path(argvs[idx][-1]), record)
        if result:
            record["work_per_s"] = record["units"] / (wall - record["setup_s"])
        self.records.append(record)
        return record

    def _check(self, call: Call, outcome: Optional[dict], csv_path: Path,
               record: dict) -> None:
        summary = SUMMARY.search(outcome["stdout"]) if outcome else None
        if summary is None or outcome["exit"] not in (0, 1):
            checks = int(summary.group(1)) if summary else call.nominal_checks
            record["attempted"] += checks
            record["failed"] += checks
            self.problems.append(f"{call.name}: no summary or exit "
                                 f"{outcome and outcome['exit']}")
            return
        checks, failures = int(summary.group(1)), int(summary.group(2))
        if (outcome["exit"] == 0) != (failures == 0):
            self.problems.append(f"{call.name}: exit {outcome['exit']} with "
                                 f"{failures} failures")
            failures = checks
        record["attempted"] += checks
        record["failed"] += failures
        record["units"] += call.steps or checks
        if not csv_path.is_file():
            self.problems.append(f"{call.name}: wrote no CSV")
            return
        with open(csv_path, "rb") as handle:
            record["digests"][call.name] = hashlib.sha256(handle.read()).hexdigest()
        if call.margin is None:
            return
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        if not rows:
            self.problems.append(f"{call.name}: empty CSV")
            return
        margin = csv_margin(call, rows)
        if call.margin == "filter" and len(rows) != call.steps:
            self.problems.append(f"{call.name}: {len(rows)} rows for {call.steps} steps")
        if margin > 1.0 and failures == 0:
            self.problems.append(f"{call.name}: margin {margin} but no failure")
        record["margin"] = max(record["margin"], margin)


def csv_margin(call: Call, rows: list[dict]) -> float:
    """Largest residual over tolerance in a call's CSV."""
    if call.margin == "filter":
        return float(rows[-1]["weight_error"]) / call.threshold
    if call.margin == "table":
        return max(float(r["residual"]) for r in rows) / TABLE_TOL
    worst = 0.0
    for row in rows:
        residual, tol = float(row["residual"]), float(row["tol"])
        if tol > 0.0:
            worst = max(worst, residual / tol)
        elif residual > 0.0:
            worst = math.inf
    return worst


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def _check_repeats(run: Run, records: list[dict]) -> None:
    """Same code and seed: every run process must write the same CSV bytes."""
    first = records[0]["digests"]
    for record in records[1:]:
        if record["digests"] != first:
            run.problems.append(f"CSV digests of process {record['tag']} differ "
                                f"from process {records[0]['tag']}")


def _loop(run: Run, seconds: float, step) -> None:
    """Call step() until ``seconds`` are used, at least MIN_PROCESSES times."""
    start = time.monotonic()
    walls: list[float] = []
    while len(walls) < MIN_PROCESSES or \
            time.monotonic() - start + statistics.median(walls) <= seconds:
        t0 = time.monotonic()
        step()
        walls.append(time.monotonic() - t0)
        if run.problems or time.monotonic() > run.deadline - 2 * walls[-1]:
            break


def end_to_end(run: Run, workload: str, seed: int, seconds: float) -> dict:
    make = WORKLOADS[workload]
    reference = run.process(make(None, run.work))
    calls = make(seed, run.work)
    timed: list[dict] = []
    setups: list[dict] = []
    run.yardstick()

    def step():
        timed.append(run.process(calls))
        setups.append(run.process([]))  # one more set-up sample
        run.yardstick()

    _loop(run, seconds, step)
    _check_repeats(run, timed)
    if any("setup_s" not in r for r in timed + setups):
        return {}
    scale = YARDSTICK_S / statistics.median(run.yardsticks)
    attempted = sum(r["attempted"] for r in run.records)
    failed = sum(r["failed"] for r in run.records)
    return {"setup_s": _median(timed + setups, "setup_s") * scale,
            "wall_s": _median(timed, "wall_s") * scale,
            "work_per_s": _median(timed, "work_per_s") / scale,
            "peak_rss_mb": _median(timed, "peak_rss_mb"),
            "pass_share": 1.0 - failed / attempted,
            "worst_margin": reference["margin"]}


def per_layer(run: Run, workload: str, seed: int, seconds: float) -> dict:
    calls = WORKLOADS[workload](seed, run.work)
    run.process([])  # import once so that byte-code caches are warm
    plain: list[dict] = []
    traced: list[dict] = []

    def pair():
        plain.append(run.process(calls))
        traced.append(run.process(calls, trace=True))

    _loop(run, seconds, pair)
    _check_repeats(run, plain + traced)
    layers = [r["layers"] for r in traced if r.get("layers")]
    if len(layers) != len(traced):
        return {}
    out = {}
    for name, value in layers[0].items():
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):
            out[name] = statistics.median(values)
        else:
            out[name] = value
            if any(v != value for v in values):
                run.problems.append(f"count {name} differs between processes: {values}")
    out["derivatives.evals_per_check"] = out["derivatives.evals"] / traced[0]["attempted"]
    out["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    micro_path = run.work / "micro.json"
    code, _, _ = run.spawn("micro.py", [str(seed), str(HERE / "configs" / "qngd.json"),
                                        str(micro_path)])
    if code == 0:
        with open(micro_path) as handle:
            out.update(json.load(handle))
    return out


def machine_facts(seed: int, numpy_version: Optional[str]) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy_version, "git_commit": git_commit(), "seed": seed}


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    """One benchmark run; returns the result object printed last."""
    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    run = Run(work, time.monotonic() + RUN_LIMIT_S)
    try:
        measure = per_layer if trace else end_to_end
        measured = measure(run, workload, seed, seconds)
        wanted = spec["per_layer" if trace else "end_to_end"]
        metrics = {}
        for metric in wanted:
            value = measured.pop(metric["name"], None)
            if value is None:
                run.problems.append(f"metric {metric['name']} was not measured")
                continue
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        if measured:
            run.problems.append(f"measured metrics not named in BENCHMARK.json: "
                                f"{sorted(measured)}")
        numpy_version = next((r["numpy"] for r in run.records if "numpy" in r), None)
        result = {"correct": not run.problems,
                  "attempted": max(1, sum(r["attempted"] for r in run.records)),
                  "failed": sum(r["failed"] for r in run.records),
                  "metrics": metrics}
        results_dir = STATE / "results"
        results_dir.mkdir(exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        spans = sorted(work.glob("spans-*.json"))
        if spans:
            shutil.copy(spans[-1], results_dir / f"{stem}.spans.json")
        with open(results_dir / f"{stem}.json", "w") as handle:
            json.dump({"workload": workload, "seconds": seconds, "trace": trace,
                       "machine": machine_facts(seed, numpy_version),
                       "problems": run.problems, "processes": run.records,
                       "yardsticks": run.yardsticks,
                       **result}, handle, indent=1)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through the normal path on SIGTERM, so a running child is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Run processes and yardsticks share one CPU, so that each yardstick
    # sees the contention of the processes next to it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "quatcalc" / "cli.py").is_file():
        print(f"error: no quatcalc sources under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC) as handle:
        spec = json.load(handle)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        results[name] = result
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        print(f"{name} fail_share {result['failed'] / result['attempted']:.6g} "
              f"share ({result['failed']} of {result['attempted']} checks)")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{m}": e for w, r in results.items()
                             for m, e in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
