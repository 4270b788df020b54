"""Layering: every module of the package imports at module level only, so
the import graph is the one the module headers show."""

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
