"""Static hygiene of the package: no name a module defines for itself goes
unused.

For each module of ``src/unanimity`` except ``__init__.py`` (whose imports
are the public re-exports), every imported name, every top-level private
function or class and every module constant (an upper-case top-level
name) must be read somewhere in the module itself.  Leftovers of a
refactor fail here.  Every public top-level function or class is
imported by another module of the package or listed in
``unanimity.__all__``: code that only tests call belongs under ``tests/``.
``solvers.py`` also never reads an attribute named ``query``: its scans
ask agents through ``Oracle.rejecters``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "unanimity"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defined(tree: ast.Module) -> dict[str, str]:
    """The names the module defines for its own use, each with its kind."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).partition(".")[0]] = "import"
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                names[node.name] = "private " + type(node).__name__
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.lstrip("_").isupper():
                    names[target.id] = "constant"
    return names


def _read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_modules_found():
    assert {"core.py", "instances.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_names(path):
    tree = _parse(path)
    read = _read(tree)
    unused = sorted(f"{name} ({kind})" for name, kind in _defined(tree).items()
                    if name not in read)
    assert not unused, f"{path.name} never reads: {', '.join(unused)}"


def _exported() -> set[str]:
    for node in _parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("unanimity/__init__.py defines no __all__")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_names_are_used_or_exported(path):
    used = _exported()
    for other in MODULES:
        if other != path:
            used.update(alias.name for node in ast.walk(_parse(other))
                        if isinstance(node, ast.ImportFrom)
                        and node.module == f"unanimity.{path.stem}"
                        for alias in node.names)
    unused = [node.name for node in _parse(path).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert not unused, (f"{path.name} defines {', '.join(unused)}, which no other "
                        "module imports and unanimity.__all__ does not list")


def test_solvers_ask_agents_only_through_rejecters():
    # Every scan over agents goes through Oracle.rejecters, so the scan can
    # change in one place; a solver that reads ``.query`` asks on its own.
    tree = _parse(PACKAGE / "solvers.py")
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "query"]
    assert not lines, f"solvers.py reads .query on line(s) {lines}"
