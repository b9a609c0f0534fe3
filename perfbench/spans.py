"""In-memory spans and call counters wrapped around the quatcalc modules.

A span records (name, start, end, parent) for one call of a wrapped
function; hot scalar operations get a bare call counter instead, because a
span per Quaternion product would cost more than the product itself.
Wrappers replace the module attributes, and every quatcalc module that
re-imported the same function object gets the wrapper too, so callers inside
the package are caught as well as calls from the CLI.

``LAYER_GROUPS`` maps each per-layer metric prefix to the spans it sums.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Iterable, Sequence

# Functions that record a span, by module.
SPANNED = {
    "derivatives": ("real_partials", "left_hr", "right_hr", "left_ghr",
                    "right_ghr", "second_order_left", "second_order_right",
                    "check_product_rule", "check_chain_rule",
                    "conjugation_relation", "differential_consistency"),
    "tables": ("cross_validate", "derivative"),
    "theorems": ("mvt_left", "taylor_remainder_slope", "steepest_descent"),
    "filters": ("generate_signal", "run_experiment", "qlms_step",
                "wl_qlms_step", "qngd_step"),
    "identities": ("golden_records", "ghr_linear_records",
                   "structural_records", "counter_example_records",
                   "reconstruction_record", "second_order_records",
                   "product_rule_records", "chain_rule_records"),
    "sampling": ("random_quaternion",),
    "cli": ("cmd_verify", "cmd_table", "cmd_taylor", "cmd_mvt",
            "cmd_descend", "cmd_filter", "_fmt", "_fmt_q", "_fmt_pass",
            "_write_csv"),
}

# Functions that only count calls: (module, attribute) -> counter name.
COUNTED = {
    ("quaternion", "mu_basis"): "quaternion.mu_basis_calls",
    ("derivatives", "_evaluate"): "derivatives.evals",
}

IDENTITY_GROUPS = SPANNED["identities"]

# Per-layer metric prefix -> the spans whose calls and self time it sums.
LAYER_GROUPS = {
    "derivatives.real_partials": ("derivatives.real_partials",),
    "derivatives.projection": ("derivatives.left_hr", "derivatives.right_hr",
                               "derivatives.left_ghr", "derivatives.right_ghr"),
    "derivatives.second_order": ("derivatives.second_order_left",
                                 "derivatives.second_order_right"),
    "derivatives.rule_checks": ("derivatives.check_product_rule",
                                "derivatives.check_chain_rule",
                                "derivatives.conjugation_relation",
                                "derivatives.differential_consistency"),
    "tables.cross_validate": ("tables.cross_validate",),
    "tables.derivative": ("tables.derivative",),
    "theorems.mvt_left": ("theorems.mvt_left",),
    "theorems.taylor_remainder_slope": ("theorems.taylor_remainder_slope",),
    "theorems.steepest_descent": ("theorems.steepest_descent",),
    "filters.generate_signal": ("filters.generate_signal",),
    "filters.run_experiment": ("filters.run_experiment",),
    "sampling.random_quaternion": ("sampling.random_quaternion",),
    "cli.format": ("cli._fmt", "cli._fmt_q", "cli._fmt_pass"),
    "cli.write_csv": ("cli._write_csv",),
}

# Functions whose return values are kept: the draw loops report how many
# draws they skipped, which gives identities.draw_yield.
KEEP_RESULTS = ("identities.product_rule_records",
                "identities.chain_rule_records")


class Tracer:
    """Span and counter store for one process; spans stay in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.results: dict[str, list] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so that every call records one span called ``name``."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack, clock = self.parents, self._stack, self.clock
        kept = self.results.setdefault(name, []) if name in KEEP_RESULTS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                value = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if kept is not None:
                kept.append(value)
            return value

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so that every call adds one to the counter ``name``."""
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def dump(self, path: str) -> None:
        """Write every span as [name, start, end, parent index]."""
        with open(path, "w") as handle:
            json.dump([[n, s, e, p] for n, s, e, p in
                       zip(self.names, self.starts, self.ends, self.parents)],
                      handle)


def replace_everywhere(modules: Iterable, originals: dict) -> None:
    """Swap each original function for its wrapper in every module holding it.

    ``originals`` maps id(function) -> (function, wrapper).
    """
    for module in modules:
        for key, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])


def install(tracer: Tracer) -> None:
    """Wrap the quatcalc modules in place; this process keeps the wrappers."""
    import importlib

    modules = {name: importlib.import_module(f"quatcalc.{name}")
               for name in ("quaternion", "derivatives", "tables", "theorems",
                            "filters", "identities", "sampling", "cli")}
    originals = {}
    for module_name, attrs in SPANNED.items():
        for attr in attrs:
            fn = getattr(modules[module_name], attr)
            originals[id(fn)] = (fn, tracer.span(f"{module_name}.{attr}", fn))
    for (module_name, attr), name in COUNTED.items():
        fn = getattr(modules[module_name], attr)
        originals[id(fn)] = (fn, tracer.counter(name, fn))
    replace_everywhere(modules.values(), originals)
    quaternion = modules["quaternion"].Quaternion
    quaternion.__mul__ = tracer.counter("quaternion.mul_calls",
                                        quaternion.__mul__)


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in starts]
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, kids in enumerate(children):
        start, end = starts[idx], ends[idx]
        covered = 0.0
        cursor = start
        clipped = sorted((max(starts[k], start), min(ends[k], end)) for k in kids)
        for k_start, k_end in clipped:
            k_start = max(k_start, cursor)
            if k_end > k_start:
                covered += k_end - k_start
                cursor = k_end
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced process."""
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    under_theorems = []
    hr_calls = 0
    for idx, name in enumerate(tracer.names):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[idx]
        total_s[name] = total_s.get(name, 0.0) + tracer.ends[idx] - tracer.starts[idx]
        parent = tracer.parents[idx]
        inside = parent >= 0 and (under_theorems[parent]
                                  or tracer.names[parent].startswith("theorems."))
        under_theorems.append(inside)
        if inside and name == "derivatives.left_hr":
            hr_calls += 1

    out: dict[str, float] = {
        "quaternion.mul_calls": tracer.count("quaternion.mul_calls"),
        "quaternion.mu_basis_calls": tracer.count("quaternion.mu_basis_calls"),
        "derivatives.evals": tracer.count("derivatives.evals"),
        "theorems.hr_calls": hr_calls,
    }
    for prefix, members in LAYER_GROUPS.items():
        out[f"{prefix}.calls"] = sum(calls.get(m, 0) for m in members)
        out[f"{prefix}.self_s"] = sum(self_s.get(m, 0.0) for m in members)
    for group in IDENTITY_GROUPS:
        out[f"identities.{group}.total_s"] = total_s.get(f"identities.{group}", 0.0)
    kept = [value for name in KEEP_RESULTS for value in tracer.results.get(name, ())]
    records = sum(len(recs) for recs, _ in kept)
    skips = sum(skipped for _, skipped in kept)
    out["identities.draw_yield"] = records / (records + skips) if records + skips else 1.0
    return out
