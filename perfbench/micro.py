"""Per-layer microbenchmarks and fixed per-check evaluation counts.

Run as its own process with ``src`` on the path:

    python3 perfbench/micro.py SEED QNGD_CONFIG RESULT.json

Each timing is the median over ``REPEATS`` timed batches, so one slow batch
on a shared machine does not move it.  The evaluation counts are exact: they
count calls of ``derivatives._evaluate`` for one call of each check at one
fixed point.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import timeit

from quatcalc import derivatives, filters, tables
from quatcalc.cli import _load_filter_config
from quatcalc.quaternion import Quaternion
from quatcalc.sampling import make_rng, random_quaternion

from spans import Tracer

REPEATS = 5
Q = Quaternion(0.3, -1.2, 0.7, 1.9)
MU = Quaternion(0.8, 0.4, -1.1, 0.6)
NU = Quaternion(-0.5, 1.3, 0.2, -0.9)


def _square(p: Quaternion) -> Quaternion:
    return p * p


def _mod2(p: Quaternion) -> Quaternion:
    return Quaternion.from_real(p.modulus_squared())


def per_call(fn, number: int) -> float:
    """Median seconds per call of fn() over REPEATS batches of ``number``."""
    clock = time.perf_counter
    batches = []
    for _ in range(REPEATS):
        start = clock()
        for _ in range(number):
            fn()
        batches.append((clock() - start) / number)
    return statistics.median(batches)


def scalar_ops() -> dict[str, float]:
    out = {}
    for name, statement in (("mul", "p * q"), ("add", "p + q")):
        timer = timeit.Timer(statement, globals={"p": Q, "q": MU})
        batches = [t / 20000 for t in timer.repeat(REPEATS, 20000)]
        out[f"quaternion.{name}_ns"] = statistics.median(batches) * 1e9
    return out


def derivative_calls() -> dict[str, float]:
    return {
        "derivatives.real_partials_us":
            per_call(lambda: derivatives.real_partials(_square, Q), 500) * 1e6,
        "derivatives.left_ghr_us":
            per_call(lambda: derivatives.left_ghr(_square, Q, MU), 500) * 1e6,
    }


def table_checks(seed: int) -> dict[str, float]:
    rng = make_rng(seed)
    out = {}
    for spec in tables.catalogue():
        entry = spec.sample_entry(rng)
        q = spec.sample_point(entry, rng)
        mu = random_quaternion(rng, -2.0, 2.0, min_modulus=0.1)
        out[f"tables.cross_validate_us.{spec.name}"] = per_call(
            lambda: tables.cross_validate(entry, q, mu), 40) * 1e6
    return out


def filter_steps(seed: int, qngd_config: str) -> dict[str, float]:
    out = {}
    for variant, source in (("wl_qlms", "wl_qlms"), ("qngd", qngd_config)):
        config, _ = _load_filter_config(source)
        steps = 400 if variant == "wl_qlms" else 60
        stream = filters.generate_signal(config.kind, config.taps, steps,
                                         config.snr_db, seed)
        taps = len(stream[0][0])
        if variant == "wl_qlms":
            start, step = filters.wl_qlms_state(taps, config.alpha), filters.wl_qlms_step
        else:
            phi = filters.NONLINEARITIES[config.nonlinearity]
            start, step = filters.qngd_state(taps, config.alpha, phi), filters.qngd_step

        def run():
            state = start
            for x, d in stream:
                state, _ = step(state, x, d)

        out[f"filters.step_us.{variant}"] = per_call(run, 1) / steps * 1e6
    return out


def evaluation_counts() -> dict[str, int]:
    """Calls of derivatives._evaluate spent by one call of each check."""
    tracer = Tracer()
    original = derivatives._evaluate
    counting = tracer.counter("evals", original)
    linear = tables.as_function(tables.TableEntry(
        family="linear", omega=MU, nu=NU, lam=Q))
    checks = {
        "conjugation_relation":
            lambda: derivatives.conjugation_relation(_square, Q, MU),
        "check_chain_rule":
            lambda: derivatives.check_chain_rule(_square, linear, Q, MU, NU),
        "check_product_rule":
            lambda: derivatives.check_product_rule(_square, linear, Q, MU),
        "second_order_left":
            lambda: derivatives.second_order_left(_mod2, Q, MU, NU),
    }
    out = {}
    derivatives._evaluate = counting
    try:
        for name, check in checks.items():
            before = tracer.count("evals")
            check()
            out[f"derivatives.evals.{name}"] = tracer.count("evals") - before
    finally:
        derivatives._evaluate = original
    return out


def main(argv: list[str]) -> int:
    seed, qngd_config, result_path = int(argv[1]), argv[2], argv[3]
    out = {}
    out.update(evaluation_counts())
    out.update(scalar_ops())
    out.update(derivative_calls())
    out.update(table_checks(seed))
    out.update(filter_steps(seed, qngd_config))
    with open(result_path, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
