"""The package's public surface is what its commands and benchmark hooks run.

Every name quatcalc exports, and every public method of a class it exports,
must be used in src/quatcalc outside its own definition, or be named by the
benchmark hooks (perfbench/spans.py wraps functions by name,
perfbench/micro.py calls them), or be in KEPT with the reason it stays.  A
helper that only tests call belongs in tests/.
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
    "taylor2_left": "states the paper's second-order Taylor expansion, which "
                    "taylor_remainder_slope evaluates scale by scale",
    "mvt_error_bound_check": "states the paper's mean value error bound 2 L |lambda|^2",
}


def _exports() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _uses() -> tuple[set[str], set[str]]:
    """Names loaded, and attributes read, in the package's modules, each
    outside the definitions of the functions and classes of that name."""
    names, attributes = set(), set()

    def walk(node, owners):
        for child in ast.iter_child_nodes(node):
            inside = owners
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inside = owners | {child.name}
            elif isinstance(child, ast.Name) and child.id not in owners:
                names.add(child.id)
            elif isinstance(child, ast.Attribute) and child.attr not in owners:
                attributes.add(child.attr)
            walk(child, inside)

    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            walk(ast.parse(path.read_text()), frozenset())
    return names, attributes


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
    used = set().union(*_uses(), *_hook_uses())
    unused = [name for name in exports if name not in used and name not in KEPT]
    assert unused == [], f"exported but used only by tests: {unused}"


def test_every_public_method_of_an_export_is_used():
    # A method is used through an attribute; a bare name of the same
    # spelling (a loop variable m, say) is not a use.
    used = _uses()[1] | _hook_uses()[1]
    methods = _public_methods(set(_exports()))
    unused = [qualified for qualified, name in methods.items() if name not in used]
    assert unused == [], f"public methods used only by tests: {unused}"


def test_kept_names_are_exported_and_otherwise_unused():
    # A kept name that gained a caller, or left the exports, leaves the list.
    used = set().union(*_uses(), *_hook_uses())
    exports = set(_exports())
    for name, reason in KEPT.items():
        assert name in exports and reason
        assert name not in used, f"{name} no longer needs KEPT"
