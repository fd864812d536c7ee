"""Every public name in the library has a caller.

Each public top-level function or class, and each public method or
property, of a module in ``src/annigraph`` must be referenced (as a name or
an attribute) somewhere outside its own definition, in ``src/annigraph`` or
in ``perfbench``.  Imports do not count, and neither do the tests: a name
only the tests use belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "annigraph").glob("*.py"))
CALLERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (m for m in node.body if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_"))


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    refs = [(node, node.id if isinstance(node, ast.Name) else node.attr)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        for definition in _public_definitions(trees[path]):
            inside = {id(n) for n in ast.walk(definition)}
            if not any(name == definition.name and id(node) not in inside
                       for node, name in refs):
                unused.append(f"{path.name}:{definition.name}")
    assert unused == [], f"public names with no caller: {unused}"
