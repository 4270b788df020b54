"""Layering: every module of the package imports at module level only, so
the import graph is the one the module headers show, and exact rational
arithmetic has one owner, `linalg`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flagmann"


def imports_in_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.add(f"{path.name}:{node.lineno}")
    return found


def test_no_import_inside_a_function():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    found = set().union(*map(imports_in_functions, modules))
    assert not found, f"imports inside function bodies: {sorted(found)}"


def imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module)
    return found


def test_only_linalg_imports_fractions():
    users = sorted(p.name for p in SRC.glob("*.py") if "fractions" in imported_modules(p))
    assert users == ["linalg.py"]
