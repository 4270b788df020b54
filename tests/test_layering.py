"""Layering: every module of the package imports at module level only, so
the import graph is the one the module headers show, exact rational
arithmetic has one owner, `linalg`, and the oracle imports nothing from the
recursion it checks; no nested function calls itself, the functions that
do are pinned, and only the summand recursion's engine names
RecursionError; the oracle's interval tuples have one owner, and a
bounded interval is listed one way; the CLI writes no line through
`sys.stdout`; every name the benchmark's tracer wraps or reads still
exists; and the package's public names are the pinned ones, each with a
caller outside the tests."""

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


def self_calling_functions(path: Path) -> set[str]:
    """Every function that calls itself by name, as `module.Class.name`; a
    method calls itself through `self`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    stack = [(tree, (path.stem,), False)]
    while stack:
        node, scope, in_class = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                f = call.func if isinstance(call, ast.Call) else None
                if in_class:
                    hit = isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    hit = hit and (f.value.id, f.attr) == ("self", node.name)
                else:
                    hit = isinstance(f, ast.Name) and f.id == node.name
                if hit:
                    found.add(".".join(scope + (node.name,)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        stack.extend(
            (child, scope, isinstance(node, ast.ClassDef)) for child in ast.iter_child_nodes(node)
        )
    return found


def test_the_recursions_are_pinned(tmp_path):
    # `_poincare_seq` takes a frame per summand, and is the only one that
    # grows with the input; `_Counter.count` calls itself once, for its last
    # two differences, and `indecomposable_for_root` once, from F_p to QQ
    found = set().union(*map(self_calling_functions, SRC.glob("*.py")))
    assert found == {
        "counting._Counter.count",
        "poincare.PoincareEngine._poincare_seq",
        "reps.indecomposable_for_root",
    }
    planted = tmp_path / "planted.py"
    planted.write_text(
        "def f(n):\n    return f(n - 1) if n else 0\n\n"
        "class C:\n    def g(self):\n        return self.g()\n\n"
        "    def h(self, other):\n        return self.g() + other.h(self)\n"
    )
    assert self_calling_functions(planted) == {"planted.f", "planted.C.g"}


def test_only_the_engine_names_recursion_error():
    # the summand recursion owns the depth policy: `PoincareEngine.poincare`
    # refuses too many summands and turns an overflow into a budget error,
    # so no other module catches or raises RecursionError
    users = sorted(p.name for p in SRC.glob("*.py") if "RecursionError" in names_loaded(p))
    assert users == ["poincare.py"]


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
    # every interval of the oracle's walk, unbounded ones included, goes
    # through the tuples the counter keeps under its memo bound, and the
    # oracle reads no listing of subspaces kept anywhere else
    path = SRC / "counting.py"
    uses = enclosing_uses(path, "subspaces_between")
    assert uses and set(uses) == {("_Counter", "between")}, uses
    imported = {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "subspaces_between" in imported and "_rref_bases" not in imported
    assert "_rref_bases" not in names_loaded(path)


def calls_in(path: Path, function: str, callee: str) -> list[int]:
    """The lines where a module-level function calls `callee` by name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (func,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    return [
        n.lineno
        for n in ast.walk(func)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == callee
    ]


def test_one_listing_path_per_interval():
    # the unbounded interval yields the RREF bases verbatim; every bounded
    # one, with or without a lower bound, goes through the quotient lift
    assert len(calls_in(SRC / "linalg.py", "subspaces_between", "_rref_bases")) == 2


def test_the_cli_prints_through_print():
    # one way to write a line: no wrapper around sys.stdout
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and n.attr == "stdout"
        and isinstance(n.value, ast.Name)
        and n.value.id == "sys"
    ]
    assert not found, found


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
    "flag_types", "gaussian_binomial", "hom_dim", "hom_dim_rep0",
    "indecomposable_for_root", "load_quiver", "parse_flag_type", "parse_quiver",
    "parse_rep_spec", "phi", "poincare", "positive_roots",
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
