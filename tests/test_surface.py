"""The package's public surface is what its commands and benchmark hooks run.

Every name quatcalc exports, and every public method of a class it exports,
must be used in src/quatcalc outside its own definition and outside the
definitions that only tests reach, or be named by the benchmark hooks
(perfbench/spans.py wraps functions by name, perfbench/micro.py calls
them), or be in KEPT with the reason it stays.  A helper that only tests
call belongs in tests/.
"""

import ast
from pathlib import Path

import quatcalc

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quatcalc"
HOOKS = (ROOT / "perfbench" / "spans.py", ROOT / "perfbench" / "micro.py")

KEPT = {
    "qlms_state": "the per-sample filter API's QLMS start state, next to qlms_step, "
                  "which spans.py wraps; it stays as long as that API does",
}

# Private derivatives names that other modules may read, with the reason.
# Anything else (the stencil steps, its evaluation or its differences)
# stays inside derivatives, so no second stencil grows elsewhere.
SHARED_PRIVATE = {
    "_evaluate": "theorems takes f's finite value at a segment end or a descent "
                 "iterate from the engine's one-point evaluation",
}


def _exports() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _scan(trees) -> list[tuple[bool, str, frozenset]]:
    """(is an attribute, name, enclosing definitions) for each name loaded
    and attribute read in the trees, except inside a definition of its own
    name."""
    uses = []

    def walk(node, owners):
        for child in ast.iter_child_nodes(node):
            inside = owners
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inside = owners | {child.name}
            elif isinstance(child, ast.Name) and child.id not in owners:
                uses.append((False, child.id, owners))
            elif isinstance(child, ast.Attribute) and child.attr not in owners:
                uses.append((True, child.attr, owners))
            walk(child, inside)

    for tree in trees:
        walk(tree, frozenset())
    return uses


def _live(uses, exports, methods, kept, hooks=(set(), set())) -> tuple[set[str], set[str]]:
    """Names and attributes used outside the definitions that only tests
    reach: the kept names, and every export or public method that no
    other use reaches, found again until none is added.  So a name whose
    only caller only tests reach counts as unused."""
    test_only = set(kept)
    while True:
        names = {n for attr, n, owners in uses if not attr and not owners & test_only}
        attributes = {n for attr, n, owners in uses if attr and not owners & test_only}
        names |= hooks[0]
        attributes |= hooks[1]
        unreached = {e for e in exports if e not in names | attributes}
        unreached |= {m for m in methods if m not in attributes}
        if unreached <= test_only:
            return names, attributes
        test_only |= unreached


def _uses() -> tuple[set[str], set[str]]:
    """Names loaded, and attributes read, in the package's modules, each
    outside the definitions of the functions and classes of that name and
    outside the definitions that only tests reach."""
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")
             if path.name != "__init__.py"]
    exports = _exports()
    return _live(_scan(trees), exports, _public_methods(set(exports)).values(),
                 KEPT, _hook_uses())


def _hook_uses() -> tuple[set[str], set[str]]:
    """Names loaded in the benchmark hooks, and the attributes they read or
    name as identifier strings (spans.py wraps by getattr)."""
    names, attributes = set(), set()
    for path in HOOKS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                attributes.add(node.value)
    return names, attributes


def _public_methods(exports) -> dict[str, str]:
    """Qualified name -> method name for the exported classes' public methods."""
    methods = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in exports:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        methods[f"{node.name}.{item.name}"] = item.name
    return methods


def test_every_export_is_used_by_the_package_or_the_benchmark():
    exports = _exports()
    assert all(hasattr(quatcalc, name) for name in exports)
    used = set().union(*_uses())
    unused = [name for name in exports if name not in used and name not in KEPT]
    assert unused == [], f"exported but used only by tests: {unused}"


def test_every_public_method_of_an_export_is_used():
    # A method is used through an attribute; a bare name of the same
    # spelling (a loop variable m, say) is not a use.
    used = _uses()[1]
    methods = _public_methods(set(_exports()))
    unused = [qualified for qualified, name in methods.items() if name not in used]
    assert unused == [], f"public methods used only by tests: {unused}"


def test_kept_names_are_exported_and_otherwise_unused():
    # A kept name that gained a caller, or left the exports, leaves the list.
    used = set().union(*_uses())
    exports = set(_exports())
    for name, reason in KEPT.items():
        assert name in exports and reason
        assert name not in used, f"{name} no longer needs KEPT"


def test_a_use_inside_a_name_only_tests_reach_is_no_use():
    # kept_api is kept; helper's only caller is kept_api, and deep's only
    # caller is helper, so neither is used.  Tool.run is called by used.
    source = """
def kept_api():
    return helper()

def helper():
    return deep()

def deep():
    return 1

def used():
    return Tool().run()

class Tool:
    def run(self):
        return deep

    def idle(self):
        return helper()

main = used
"""
    exports = ["kept_api", "helper", "deep", "used", "Tool"]
    names, attributes = _live(_scan([ast.parse(source)]), exports, ["run", "idle"],
                              {"kept_api"})
    assert names == {"used", "Tool", "deep", "main"} and attributes == {"run"}


def _private_derivatives_reads(tree) -> set[str]:
    """The private derivatives names a module reads: derivatives._x, and _x
    imported from derivatives."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "derivatives" and node.attr.startswith("_"):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[-1] == "derivatives":
            reads |= {alias.name for alias in node.names if alias.name.startswith("_")}
    return reads


def test_no_other_module_reads_a_private_derivatives_name():
    reads = {path.name: _private_derivatives_reads(ast.parse(path.read_text()))
             for path in SRC.glob("*.py") if path.name != "derivatives.py"}
    unshared = {name: sorted(found - set(SHARED_PRIVATE)) for name, found in reads.items()
                if found - set(SHARED_PRIVATE)}
    assert unshared == {}, f"private derivatives names read elsewhere: {unshared}"
    assert set().union(*reads.values()) == set(SHARED_PRIVATE), "SHARED_PRIVATE names no reader"


def test_a_private_derivatives_read_is_found_in_either_form():
    source = """
from . import derivatives
from .derivatives import _STEPS, real_partials

def jacobian(f, s):
    return derivatives._evaluate_stencil(f, s + _STEPS[1e-6][0], 1), derivatives.left_hr
"""
    assert _private_derivatives_reads(ast.parse(source)) == {"_STEPS", "_evaluate_stencil"}


# sampling.make_rng checks every seed and builds every generator.
GENERATOR_BUILDERS = {"SeedSequence", "Philox", "Generator"}


def _generator_calls(tree) -> list[str]:
    """The generator builders a module calls, as np.random.X(...) or X(...);
    a name in a type annotation is no call."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in GENERATOR_BUILDERS:
                calls.append(name)
    return calls


def test_only_sampling_builds_random_generators():
    calls = {path.name: _generator_calls(ast.parse(path.read_text()))
             for path in SRC.glob("*.py")}
    assert {name: found for name, found in calls.items()
            if found and name != "sampling.py"} == {}
    assert set(calls["sampling.py"]) == GENERATOR_BUILDERS


def test_a_generator_call_is_found_in_either_form_and_an_annotation_is_not():
    source = """
import numpy as np
from numpy.random import SeedSequence

def draw(rng: np.random.Generator, seed: int) -> np.random.Generator:
    children = SeedSequence(seed).spawn(2)
    return np.random.Generator(np.random.Philox(children[0]))
"""
    assert sorted(_generator_calls(ast.parse(source))) == ["Generator", "Philox", "SeedSequence"]


def _number_checks(tree) -> list[str]:
    """What spells out what a number is: an import of numbers, in either
    form, and each isinstance call whose types name bool."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "numbers"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numbers":
            found.append(f"from {node.module} import")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" \
                and len(node.args) == 2 and any(isinstance(name, ast.Name) and name.id == "bool"
                                                for name in ast.walk(node.args[1])):
            found.append("isinstance(..., bool)")
    return found


# Every form the scan finds, and an annotation and an isinstance without bool.
NUMBER_CHECKS = """
import numbers
from numbers import Integral

def count(n, flag: bool):
    return isinstance(n, Integral) and not isinstance(n, (bool, str)) and isinstance(flag, int)
"""


def test_only_quaternion_says_what_a_number_is():
    # quaternion.real_number and quaternion.integer are the checks of an
    # outside number; every other module calls them.
    assert _number_checks(ast.parse(NUMBER_CHECKS)) == [
        "import numbers", "from numbers import", "isinstance(..., bool)"]
    found = {path.name: _number_checks(ast.parse(path.read_text())) for path in SRC.glob("*.py")}
    assert {name: checks for name, checks in found.items()
            if checks and name != "quaternion.py"} == {}
    assert found["quaternion.py"]


def _record_faults(tree) -> list[str]:
    """What keeps a module from declaring every record as a NamedTuple: an
    import of dataclasses, and each class with annotated fields that is
    not a NamedTuple, by name or as typing.NamedTuple."""
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            faults += [f"import {alias.name}" for alias in node.names
                       if alias.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
            faults.append(f"from {node.module} import")
        elif isinstance(node, ast.ClassDef) \
                and any(isinstance(item, ast.AnnAssign) for item in node.body) \
                and "NamedTuple" not in {getattr(base, "id", getattr(base, "attr", None))
                                         for base in node.bases}:
            faults.append(f"class {node.name}")
    return faults


def test_every_record_is_a_named_tuple():
    faults = {path.name: found for path in SRC.glob("*.py")
              if (found := _record_faults(ast.parse(path.read_text())))}
    assert faults == {}


def test_a_record_fault_is_found_in_every_form():
    source = """
import dataclasses
import typing
from dataclasses import dataclass
from typing import NamedTuple

@dataclass(frozen=True)
class Frozen:
    x: float

class Named(NamedTuple):
    x: float

class Qualified(typing.NamedTuple):
    x: float

class Plain:
    def method(self):
        y: float = 1.0
        return y
"""
    assert _record_faults(ast.parse(source)) == [
        "import dataclasses", "from dataclasses import", "class Frozen"]
