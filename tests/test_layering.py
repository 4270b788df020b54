"""Layering: every module of the package imports at module level only, so
the import graph is the one the module headers show, exact rational
arithmetic has one owner, `linalg`, and the oracle imports nothing from the
recursion it checks; no nested function calls itself; the
oracle's interval tuples have one owner; every name the benchmark's tracer
wraps or reads still exists; and the package's public names are the pinned
ones, each with a caller outside the tests."""

import ast
import importlib.util
import re
import types
from pathlib import Path

import flagmann

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


def self_referencing_nested_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner)):
                found.add(f"{path.name}:{inner.lineno} {inner.name}")
    return found


def test_no_nested_function_refers_to_itself():
    # such a function and its closure cell form a reference cycle on every
    # call, which only the cyclic garbage collector frees
    modules = sorted(SRC.glob("*.py"))
    found = set().union(*map(self_referencing_nested_functions, modules))
    assert not found, f"self-referencing nested functions: {sorted(found)}"


def imported_modules(path: Path) -> set[str]:
    """Every module a file imports; a relative import inside the package
    is named from the package, as `flagmann.linalg`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(f"{SRC.name}.{node.module}")
        elif isinstance(node, ast.ImportFrom):
            found.update(f"{SRC.name}.{alias.name}" for alias in node.names)
    return found


def test_only_linalg_imports_fractions():
    users = sorted(p.name for p in SRC.glob("*.py") if "fractions" in imported_modules(p))
    assert users == ["linalg.py"]


def test_the_oracle_imports_nothing_from_the_recursion(tmp_path):
    # both layers drop zero and repeated steps at their own memo; the oracle
    # that checks the recursion shares none of its code
    found = imported_modules(SRC / "counting.py")
    assert "flagmann.linalg" in found and "flagmann.poincare" not in found
    assert "flagmann.counting" in imported_modules(SRC / "poincare.py")
    planted = tmp_path / "planted.py"
    for line in ("from .poincare import _distinct_steps", "from . import poincare"):
        planted.write_text(line + "\n")
        assert imported_modules(planted) == {"flagmann.poincare"}


def enclosing_uses(path: Path, name: str) -> list[tuple[str, ...]]:
    """The enclosing class and function names of every read of `name`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    stack = [(tree, ())]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing += (node.name,)
        elif isinstance(node, ast.Name) and node.id == name:
            found.append(enclosing)
        stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    return found


def test_only_the_counter_lists_intervals():
    # every interval of the oracle's walk goes through the tuples the
    # counter keeps under its memo bound
    uses = enclosing_uses(SRC / "counting.py", "subspaces_between")
    assert uses and set(uses) == {("_Counter", "between")}, uses


def load_tracer():
    path = SRC.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    # the traced benchmark reports null for a span or cache it cannot find
    tracer = load_tracer()
    missing = [f"{m}.{p}" for m, p, _ in tracer.SPANS if tracer.resolve(m, p) is None]
    assert not missing, f"traced names the package no longer has: {missing}"
    for module, name in tracer.CACHES:
        found = tracer.resolve(module, name)
        assert found and hasattr(found[2], "cache_info"), f"{module}.{name} has no cache_info"


PUBLIC_NAMES = [
    "BudgetExceededError", "DynkinClass", "ExtendedQuiver", "FiberReport",
    "FlagType", "FlagmannError", "InputError", "InternalConsistencyError", "PoincareEngine",
    "PoincarePolynomial", "PrimeField", "QQ", "Quiver", "Rationals", "Rep0Representation",
    "Representation", "RootMultiset", "UnsupportedQuiverError",
    "VerificationError", "build_rep", "classify_dynkin", "count_flags", "count_strata",
    "direct_sum", "directed_order", "engine_for", "enumerate_flags", "enumerate_splittings",
    "euler_form", "ext1_dim", "extend_quiver", "flag_differences",
    "flag_to_subrep", "flag_types", "gaussian_binomial", "hom_dim", "hom_dim_rep0",
    "indecomposable_for_root", "load_quiver", "parse_flag_type", "parse_quiver",
    "parse_rep_spec", "phi", "poincare", "positive_roots", "quotient_by_flag",
    "quotient_representation", "rigid_dimension", "sample_flags", "stratum_counts",
    "stratum_rank", "subrepresentation", "verify_fiber_rank",
]


def test_public_names_are_pinned():
    # an API change shows in this list's diff; submodules are left out, as
    # which of them are attributes depends on what the process imported
    names = sorted(
        name
        for name in dir(flagmann)
        if not name.startswith("_") and not isinstance(getattr(flagmann, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def names_loaded(path: Path) -> set[str]:
    """Names a module reads, as a bare name or an attribute, leaving out
    the reads inside a function or class of that same name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    stack = [(tree, ())]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing += (node.name,)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in enclosing:
                found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    return found


def test_every_public_name_has_a_caller():
    # a public name that only the tests use is API nothing needs; a use in
    # another module of the package or in the benchmark's scripts counts
    used = set().union(*(names_loaded(p) for p in SRC.glob("*.py") if p.name != "__init__.py"))
    bench = "\n".join(
        p.read_text(encoding="utf-8") for p in (SRC.parents[1] / "perfbench").glob("*.py")
    )
    unused = [
        name
        for name in PUBLIC_NAMES
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", bench)
    ]
    assert not unused, f"public names with no caller outside the tests: {unused}"
