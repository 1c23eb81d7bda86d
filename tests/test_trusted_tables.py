"""Only the listed functions wrap a table as a Group unvalidated.

The Group constructor trusts its table.  A Group(...) call in src/centaut
is allowed only in the functions below, each for the reason given; every
other table, a formula builder's included, goes through
group_from_cayley_table.  A new builder that calls Group directly fails
here until it is listed with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "centaut"

TRUSTED: dict[str, str] = {
    "families.cyclic": "addition mod m is a group",
    "groups.group_from_cayley_table": "its table has just passed the validator",
    "groups.group_from_permutations": "a closure of permutations is a group",
    "groups.direct_product": "the product of two groups' tables, cell by cell, is a group",
    "structure.quotient": "cosets of a subgroup checked normal form a group",
}


class _GroupCalls(ast.NodeVisitor):
    """The scopes, "module.function" or "module.Class.method" (nested defs
    appended), that call Group by the Name Group or an Attribute .Group."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found: set[str] = set()

    def visit_FunctionDef(self, node: ast.AST) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        f = node.func
        if (isinstance(f, ast.Name) and f.id == "Group") or (
            isinstance(f, ast.Attribute) and f.attr == "Group"
        ):
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def test_only_the_listed_functions_build_unvalidated_groups():
    calls = set()
    for p in sorted(SRC.glob("*.py")):
        finder = _GroupCalls(p.stem)
        finder.visit(ast.parse(p.read_text(), filename=str(p)))
        calls |= finder.found
    assert calls == set(TRUSTED)
