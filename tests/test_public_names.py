"""Every public function and class of the package is used by the package itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rieszlab"

# Called only by tests until ROADMAP item 2 decides whether the suite checks
# the paper's hypotheses on alpha through it or it is deleted.
EXEMPT = {"validate_alpha"}


def test_no_public_name_is_used_only_by_tests():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    public = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = set()
    for module, tree in trees.items():
        if module == "__init__.py":
            continue  # a re-export is not a use
        for statement in tree.body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
            used |= names - {getattr(statement, "name", None)}  # a definition's own body does not count
    assert sorted(public - used - EXEMPT) == []
