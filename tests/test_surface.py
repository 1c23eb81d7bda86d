"""Every public name of the package is read outside the tests.

A public module-level name (function, class or constant) in src/centaut
counts as read when a Name or an Attribute node of that name appears in a
package module outside its own definition (__init__.py, which only
re-exports, left out), in demos/ or in perfbench/; a public method or
property of a class only when an Attribute node does, so a call of the
builtin pow is no read of a method pow.  A name that only tests read is
pinned in TEST_ONLY with why it stays; none is, and a new one fails here
until it is read, deleted or pinned.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "centaut"

TEST_ONLY: dict[str, str] = {}


def _public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each public module-level def, class and
    assigned name, and of each public method or property of a class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in found if not name.split(".")[-1].startswith("_")]


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read by a Name or an Attribute node, and,
    keyed "." + name, by an Attribute node alone."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
            reads["." + node.attr] += 1
    return reads


def _key(name: str) -> str:
    """The _reads key that counts a read of a definition: a method's
    (qualified "Class.method") by an Attribute node alone."""
    return "." + name.split(".")[-1] if "." in name else name


def test_test_only_names_are_pinned():
    trees = {
        p.stem: ast.parse(p.read_text(), filename=str(p))
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }
    reads = sum(map(_reads, trees.values()), Counter())
    for folder in ("demos", "perfbench"):
        for p in sorted((ROOT / folder).rglob("*.py")):
            reads += _reads(ast.parse(p.read_text(), filename=str(p)))
    unread = {
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name, node in _public_definitions(tree)
        if reads[_key(name)] == _reads(node)[_key(name)]
    }
    assert unread == set(TEST_ONLY)
