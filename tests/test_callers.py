"""Code with no caller is deleted: every public function, class and method of
the package is named somewhere in the package besides its own definition, or
in the benchmark harness (`perfbench/*.py`, which names its traced targets as
dotted strings)."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "lefschetz").glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))

# public names with no caller in the package, each with its reason
ALLOWED = {
    "euler_poincare_trace": "the reference that tests/test_formula.py compares spectral_term against",
}

DOTTED = re.compile(r"[A-Za-z_][\w.]*\Z")


def names_used(tree, strings=False) -> Counter:
    """Every name read as a variable or an attribute (imports are not uses);
    with `strings`, also each part of a dotted-name string constant."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.match(node.value):
                used.update(node.value.split("."))
    return used


def public_definitions(tree):
    """(qualified name, node) of each public module-level function or class
    and each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PACKAGE}
    used = sum((names_used(tree) for tree in trees.values()), Counter())
    used += sum((names_used(ast.parse(p.read_text()), strings=True) for p in HARNESS), Counter())
    uncalled = []
    for path, tree in trees.items():
        for qualname, node in public_definitions(tree):
            # a recursive call inside its own definition is not a caller
            if used[node.name] - names_used(node)[node.name] <= 0:
                uncalled.append(f"{path.stem}.{qualname}")
    bare = {name.rsplit(".", 1)[-1] for name in uncalled}
    assert [name for name in uncalled if name.rsplit(".", 1)[-1] not in ALLOWED] == []
    assert set(ALLOWED) <= bare, "an allowed name has a caller now: take it off ALLOWED"
