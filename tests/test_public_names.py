"""Names of the package: each public one is used by the package itself, no function defaults its
tolerance, and every module-level import is used."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rieszlab"


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
    assert sorted(public - used) == []


def test_no_public_function_has_a_default_tolerance():
    # every check takes the run's tolerance; a default would be a second, unused one
    defaulted = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args.posonlyargs + node.args.args
                named = dict(zip([a.arg for a in args[len(args) - len(node.args.defaults):]], node.args.defaults))
                named.update({a.arg: d for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d})
                if "tolerance" in named:
                    defaulted.append(f"{path.name}:{node.name}")
    assert defaulted == []


def test_every_module_level_import_is_used():
    # __init__ imports to re-export, and `from __future__` binds no name
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update({(a.asname or a.name.split(".")[0]): a.name for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update({(a.asname or a.name): a.name for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{name}" for name in bound if name not in used]
    assert unused == []
