"""README's Determinism promise as a check: src/quatcalc makes no reduction
whose order is not its own.

Every float sum in the package runs left to right in the order the scalar
code adds, through quaternion.ordered_sum, chained + or np.add.accumulate,
so the same seed gives the same bytes whatever the BLAS build, the CPU or
the Python version.  A call that leaves the order to a library fails here
unless KEPT names its place with the reason it is exact.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quatcalc"

# Builtin sum() is compensated on Python 3.12+ and math.fsum rounds once;
# np.sum, .sum(), np.mean and np.add.reduce add pairwise; np.dot, @,
# np.matmul and np.einsum go to BLAS or to their own blocking.
NAMES = {"sum", "fsum"}
ATTRIBUTES = {"sum", "fsum", "mean", "dot", "matmul", "einsum"}
ADD_METHODS = {"reduce", "reduceat"}

# (module, enclosing definitions) -> why the reduction there is exact.
KEPT = {
    ("cli", "_report"):
        "counts the failed checks: a sum of ints is exact in any order",
    ("theorems", "taylor_remainder_slope"):
        "counts the scales above the noise floor: a sum of bools",
    ("tables", "affine_input.columns"):
        "sum(rest, first) adds Quaternions from the first term, through "
        "Quaternion.__add__ left to right; Python compensates only float sums",
}


def _reduction(node: ast.AST):
    """The name of the order-dependent reduction node makes, or None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id in NAMES:
        return func.id
    if isinstance(func, ast.Attribute):
        if func.attr in ATTRIBUTES:
            return func.attr
        if (func.attr in ADD_METHODS and isinstance(func.value, ast.Attribute)
                and func.value.attr == "add"):
            return f"add.{func.attr}"
    return None


def _reductions() -> list[tuple[str, str, int, str]]:
    """(module, enclosing definitions, line, reduction) for each one in src."""
    found = []

    def walk(node, module, owners):
        for child in ast.iter_child_nodes(node):
            inside = owners
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inside = owners + (child.name,)
            name = _reduction(child)
            if name is not None:
                found.append((module, ".".join(owners), child.lineno, name))
            walk(child, module, inside)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, ())
    return found


def test_src_makes_no_order_dependent_reduction():
    stray = [f"{module}.py:{line} {name} in {owner or 'module level'}"
             for module, owner, line, name in _reductions() if (module, owner) not in KEPT]
    assert stray == []


def test_every_kept_place_still_reduces():
    # A kept entry whose reduction has gone is stale and must go too.
    assert {(module, owner) for module, owner, _, _ in _reductions()} >= set(KEPT)


def test_the_guard_sees_each_reduction():
    source = """
def f(x, y, m):
    a = sum(x) + math.fsum(x) + fsum(x) + np.sum(x) + x.sum() + np.mean(x)
    b = np.dot(x, y) + x.dot(y) + np.matmul(x, y) + np.einsum("i,i", x, y)
    c = np.add.reduce(x) + np.add.reduceat(x, [0]) + x @ y
    m @= y
    ok = np.add.accumulate(x) + functools.reduce(np.maximum, x)
"""
    names = [name for node in ast.walk(ast.parse(source))
             for name in [_reduction(node)] if name is not None]
    assert sorted(names) == sorted(["sum", "fsum", "fsum", "sum", "sum", "mean", "dot",
                                    "dot", "matmul", "einsum", "add.reduce",
                                    "add.reduceat", "@", "@"])
