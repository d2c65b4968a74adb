"""Every top-level function, class and method of the package is reached from
the package itself: a name that only tests use is a route no run takes."""

import ast
from pathlib import Path

import gharnack

SRC = Path(gharnack.__file__).parent

# Names kept for the tests alone, each with the reason it stays.
ALLOWED = {
    # the one-row unit-coefficient case of solve_stack, the G-heat oracle
    # of criterion 01 and of the gheat tests
    "solve_g_heat",
    # the every-node oracle of one control, for the coupled-pass tests
    "simulate_bundle",
}


def definitions(tree):
    """(name, node) of each top-level function and class and of each method
    of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield sub.name, sub


def referenced(tree, name, skip):
    """Whether an ast.Name or ast.Attribute in `tree`, outside the subtree
    `skip`, uses `name`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def test_every_definition_is_referenced_in_the_package():
    unreached = []
    defined = set()
    for module, tree in TREES.items():
        for name, node in definitions(tree):
            defined.add(name)
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in ALLOWED:
                continue
            if not any(referenced(t, name, node) for t in TREES.values()):
                unreached.append(f"{module}:{name}")
    assert not unreached, f"defined but never used in src/: {unreached}"
    assert ALLOWED <= defined, f"stale allow-list: {ALLOWED - defined}"
