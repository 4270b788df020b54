"""Per-layer spans and counters for the traced benchmark run.

Wrappers are resolved by name when `Tracer.install()` runs and are installed
only in traced children.  A function is wrapped where it is defined and in
every `flagmann` module that imported it, so calls across layers go through
the wrapper.  A name the program no longer has is skipped, and each metric
that depends on it is reported as null.

A timed span records calls, inclusive seconds (outermost activation only)
and self seconds: its duration minus the time of the timed spans it
directly encloses.  Spans entered while no other span is open add their
duration to `top_s`, the time the trace covers.  Calls that take
microseconds are counted, not timed.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time

perf = time.perf_counter

# (module, attribute path, kind): kind is "time", "count" or "gen"
SPANS = (
    ("cli", "main", "time"),
    ("poincare", "PoincareEngine.poincare", "time"),
    ("poincare", "PoincareEngine.base_case", "time"),
    ("poincare", "PoincareEngine.base_case_rigid_interpolation", "time"),
    ("poincare", "enumerate_splittings", "time"),
    ("poincare", "directed_order", "time"),
    ("counting", "count_flags", "time"),
    ("counting", "candidate_estimate", "count"),
    ("counting", "enumerate_flags", "gen"),
    ("counting", "stratum_counts", "time"),
    ("linalg", "rref_rows", "time"),
    ("linalg", "mat_mul_rows", "time"),
    ("linalg", "intersect_rowspaces", "count"),
    ("quiver", "euler_form", "count"),
    ("quiver", "flag_differences", "count"),
    ("quiver", "FlagType.__post_init__", "count"),
    ("reps", "indecomposable_for_root", "time"),
    ("reps", "hom_dim", "time"),
    ("reps", "quotient_representation", "time"),
    ("reps", "subrepresentation", "time"),
    ("extended", "verify_fiber_rank", "time"),
    ("extended", "hom_dim_rep0", "time"),
    ("extended", "phi", "time"),
)

# process-wide caches read through cache_info(); the cold-start check uses them
CACHES = (
    ("poincare", "enumerate_splittings"),
    ("linalg", "image_rowspace"),
    ("linalg", "quotient_map_rows"),
    ("linalg", "preimage_rowspace"),
    ("reps", "build_rep"),
    ("reps", "indecomposable_for_root"),
)


def resolve(module: str, path: str):
    """(owner, attribute, object) for `flagmann.<module>.<path>`, or None."""
    try:
        owner = importlib.import_module(f"flagmann.{module}")
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, parts[-1], None)
    if obj is None:
        return None
    return owner, parts[-1], obj


def cache_sizes() -> dict:
    """currsize of each process-wide cache, None where the name is gone."""
    out = {}
    for module, name in CACHES:
        found = resolve(module, name)
        info = getattr(found[2], "cache_info", None) if found else None
        out[f"{module}.{name}"] = info().currsize if info else None
    return out


class _Stat:
    __slots__ = ("calls", "s", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.missing: set[str] = set()
        self.originals: dict[str, object] = {}
        self.stack: list[list] = []  # [key, seconds covered by child spans]
        self.top_s = 0.0  # seconds covered by spans entered with an empty stack
        self.count_by_prime = {"p2": 0.0, "p3": 0.0, "pge5": 0.0}
        self.candidates = 0
        self.base_case_counts = 0
        self.rigid_max_prime = 0
        self.splits = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self.gc_gen2 = 0
        self._gc_t0 = 0.0

    # -- wrappers ------------------------------------------------------------

    def _timed(self, key: str, fn, after=None):
        st = self.stats[key]
        stack = self.stack

        def wrapper(*args, **kwargs):
            st.calls += 1
            if st.active:  # re-entrant call: already inside the outer span
                return fn(*args, **kwargs)
            st.active = 1
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                st.active = 0
                st.s += dt
                st.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_s += dt
            if after is not None:
                after(args, result, dt)
            return result

        return wrapper

    def _counted(self, key: str, fn, after=None):
        st = self.stats[key]

        def wrapper(*args, **kwargs):
            st.calls += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result, 0.0)
            return result

        return wrapper

    def _generator(self, key: str, fn):
        """Times each resumption of a generator, not the consumer between them."""
        st = self.stats[key]
        stack = self.stack

        def wrapper(*args, **kwargs):
            st.calls += 1
            it = fn(*args, **kwargs)

            def resumed():
                while True:
                    frame = [key, 0.0]
                    stack.append(frame)
                    t0 = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = perf() - t0
                        stack.pop()
                        st.s += dt
                        st.self_s += dt - frame[1]
                        if stack:
                            stack[-1][1] += dt
                        else:
                            self.top_s += dt
                    yield item

            return resumed()

        return wrapper

    # -- hooks that turn calls into layer counters ----------------------------

    def _after_count_flags(self, args, result, dt):
        p = args[0].field.p
        self.count_by_prime["p2" if p == 2 else "p3" if p == 3 else "pge5"] += dt
        base = self.stats.get("poincare.PoincareEngine.base_case")
        if base is not None and base.active:
            self.base_case_counts += 1
        rigid = self.stats.get("poincare.PoincareEngine.base_case_rigid_interpolation")
        if rigid is not None and rigid.active:
            self.rigid_max_prime = max(self.rigid_max_prime, p)

    def _after_candidate_estimate(self, args, result, dt):
        if self.stack and self.stack[-1][0] == "counting.count_flags":
            self.candidates += result

    def _after_splittings(self, args, result, dt):
        self.splits += len(result)

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = perf()
        else:
            self.gc_s += perf() - self._gc_t0
            self.gc_collections += 1
            self.gc_gen2 += info.get("generation") == 2

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "counting.count_flags": self._after_count_flags,
            "counting.candidate_estimate": self._after_candidate_estimate,
            "poincare.enumerate_splittings": self._after_splittings,
        }
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "flagmann"]
        for module, path, kind in SPANS:
            key = f"{module}.{path}"
            found = resolve(module, path)
            if found is None:
                self.missing.add(key)
                continue
            owner, attr, orig = found
            self.stats[key] = _Stat()
            self.originals[key] = orig
            if kind == "gen":
                wrapper = self._generator(key, orig)
            elif kind == "count":
                wrapper = self._counted(key, orig, hooks.get(key))
            else:
                wrapper = self._timed(key, orig, hooks.get(key))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)
        gc.callbacks.append(self._gc)

    def uninstall(self) -> None:
        if self._gc in gc.callbacks:
            gc.callbacks.remove(self._gc)

    # -- report ----------------------------------------------------------------

    def _stat(self, key: str, field: str):
        if key in self.missing:
            return None
        st = self.stats[key]
        return st.calls if field == "calls" else getattr(st, field)

    def metrics(self) -> dict:
        """Raw per-layer values for this child (timings in seconds)."""
        out = {}
        for module, path, kind in SPANS:
            key = f"{module}.{path}"
            for field in ("calls", "s", "self_s"):
                out[f"{key}.{field}"] = self._stat(key, field)
        for module, name in CACHES:
            key = f"{module}.{name}"
            found = resolve(module, name)
            orig = self.originals.get(key, found[2] if found else None)
            info = getattr(orig, "cache_info", None)
            if info is None:
                out[f"{key}.misses"] = out[f"{key}.hit_ratio"] = None
                continue
            ci = info()
            out[f"{key}.misses"] = ci.misses
            out[f"{key}.hit_ratio"] = ci.hits / (ci.hits + ci.misses) if ci.hits + ci.misses else 0.0
        linalg = importlib.import_module("flagmann.linalg")
        out["linalg.lru_entries"] = sum(
            fn.cache_info().currsize for fn in vars(linalg).values() if hasattr(fn, "cache_info")
        )
        count_known = "counting.count_flags" not in self.missing
        for bucket, seconds in self.count_by_prime.items():
            out[f"counting.count_flags.{bucket}_s"] = seconds if count_known else None
        out["counting.candidates_estimated"] = (
            self.candidates if "counting.candidate_estimate" not in self.missing else None
        )
        out["poincare.PoincareEngine.base_case.count_calls"] = (
            self.base_case_counts if count_known else None
        )
        out["poincare.PoincareEngine.base_case_rigid_interpolation.max_prime"] = (
            self.rigid_max_prime if count_known else None
        )
        out["poincare.enumerate_splittings.splits"] = (
            self.splits if "poincare.enumerate_splittings" not in self.missing else None
        )
        out["trace.top_s"] = self.top_s
        out["runtime.gc_s"] = self.gc_s
        out["runtime.gc_collections"] = self.gc_collections
        out["runtime.gc_gen2"] = self.gc_gen2
        return out
