"""Seeded inputs and per-instance runners for the four benchmark workloads.

Inputs are made by `generate(name, seed, cfg)` in a generator process and
handed to each measured child as plain JSON, so a child starts with the
program's caches cold.  Only the standard library and the program's public
API are used; nothing here imports the test suite.

A runner is made by `prepare(name, inputs, workdir, digest)` after the
program is imported.  It returns a list of `(instances, unit)` pairs and a
`finish()` callback that runs the untimed correctness checks and returns
`(failed, note)`.  Every unit is a closure that feeds its canonical output
to `digest` and returns `(instances, failed, output_bytes, detail)`.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, product

# ---------------------------------------------------------------------------
# Quivers, by orientation index (bit k of the index reverses edge k)
# ---------------------------------------------------------------------------

BASE_EDGES = {
    "A4": (("1", "2"), ("2", "3"), ("3", "4")),
    "D4": (("1", "2"), ("3", "2"), ("4", "2")),
    "E6": (("1", "3"), ("3", "4"), ("2", "4"), ("4", "5"), ("5", "6")),
}


def orientation(kind: str, index: int) -> dict:
    edges = BASE_EDGES[kind]
    n = len(edges) + 1
    arrows = [
        (t, s) if index >> k & 1 else (s, t) for k, (s, t) in enumerate(edges)
    ]
    return {"vertices": [str(i + 1) for i in range(n)], "arrows": arrows}


def orientation_count(kind: str) -> int:
    return 1 << len(BASE_EDGES[kind])


def quiver_text(spec: dict) -> str:
    lines = ["vertices: " + " ".join(spec["vertices"])]
    lines += [f"arrow: {s} -> {t}" for s, t in spec["arrows"]]
    return "\n".join(lines) + "\n"


def _quiver(flagmann, spec: dict):
    return flagmann.Quiver(tuple(spec["vertices"]), tuple(map(tuple, spec["arrows"])))


# ---------------------------------------------------------------------------
# Combinatorics owned by the benchmark
# ---------------------------------------------------------------------------


def _vsum(vectors, n: int) -> tuple:
    out = [0] * n
    for v in vectors:
        for i, x in enumerate(v):
            out[i] += x
    return tuple(out)


def multisets_upto(roots, max_entry: int, max_total: int):
    """Nonempty root multisets (as root lists) under per-vertex and total caps,
    in the criterion-1 sweep order."""
    n = len(roots[0])

    def rec(i, acc, total):
        if acc:
            yield tuple(acc)
        for j in range(i, len(roots)):
            new = tuple(a + b for a, b in zip(total, roots[j]))
            if sum(new) > max_total or any(x > max_entry for x in new):
                continue
            acc.append(roots[j])
            yield from rec(j, acc, new)
            acc.pop()

    yield from rec(0, [], (0,) * n)


def flag_chains(weight, d_max: int):
    """Monotone flag types (step tuples) ending at `weight`, 1..d_max steps."""
    weight = tuple(weight)
    for d in range(1, d_max + 1):

        def chains(r, prev, acc):
            if r == d - 1:
                yield tuple(acc) + (weight,)
                return
            for step in product(*(range(p, w + 1) for p, w in zip(prev, weight))):
                acc.append(step)
                yield from chains(r + 1, step, acc)
                acc.pop()

        yield from chains(0, (0,) * len(weight), [])


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def candidate_bound(dims, steps, q: int) -> int:
    """Product of Gaussian binomials over the flag steps: the size of the
    brute-force search space before arrow constraints prune it."""
    est = 1
    prev = (0,) * len(dims)
    for step in steps[:-1]:
        for n_i, p_i, k_i in zip(dims, prev, step):
            est *= gaussian_binomial(n_i - p_i, k_i - p_i, q)
        prev = step
    return est


def digest_update(h, obj) -> None:
    h.update(json.dumps(obj, separators=(",", ":")).encode())
    h.update(b"\n")


# ---------------------------------------------------------------------------
# Generation (runs in the generator process; may use the program freely)
# ---------------------------------------------------------------------------


def _gen_d4_verify(flagmann, rng: random.Random, cfg: dict) -> dict:
    caps = cfg["caps"]
    quivers, instances = {}, []
    for o in range(orientation_count("D4")):
        spec = orientation("D4", o)
        quivers[str(o)] = spec
        roots = flagmann.positive_roots(_quiver(flagmann, spec))
        sweep = [
            (ms, steps)
            for ms in multisets_upto(roots, caps["max_entry"], caps["max_total"])
            for steps in flag_chains(_vsum(ms, len(spec["vertices"])), caps["max_steps"])
        ]
        # windows of consecutive instances keep the memo sharing between
        # neighbours that the full sweep has; one window in each of
        # `windows` equal segments keeps the mix of small and large
        # multisets the same for every seed
        segment, width = len(sweep) // cfg["windows"], cfg["window"]
        for k in range(cfg["windows"]):
            start = k * segment + rng.randrange(segment - width + 1)
            for ms, steps in sweep[start : start + width]:
                instances.append([o, [list(r) for r in ms], [list(s) for s in steps]])
    return {"quivers": quivers, "instances": instances}


def _gen_large_rep(flagmann, rng: random.Random, cfg: dict) -> dict:
    caps = cfg["caps"]
    k, total, d = caps["summands"], caps["total_dim"], caps["flag_steps"]
    # orientations and flag shapes (where the summand list is cut) cycle
    # evenly, so seeds differ in the summands drawn, not in the mix of shapes
    cut_sets = list(combinations(range(1, k), d - 1))
    quivers, instances = {}, []
    roots_of = {}
    for i in range(cfg["instances"]):
        o = i % orientation_count("D4")
        cuts = cut_sets[i % len(cut_sets)] + (k,)
        if o not in roots_of:
            quivers[str(o)] = orientation("D4", o)
            roots_of[o] = flagmann.positive_roots(_quiver(flagmann, quivers[str(o)]))
        roots = roots_of[o]
        while True:  # redraw until the total dimension is exactly the cap
            summands = [roots[rng.randrange(len(roots))] for _ in range(k)]
            if sum(map(sum, summands)) == total:
                break
        order = summands[:]
        rng.shuffle(order)
        steps = [_vsum(order[:c], len(roots[0])) for c in cuts]
        instances.append([o, [list(r) for r in summands], [list(s) for s in steps]])
    return {"quivers": quivers, "instances": instances, "oracle_limit": cfg["oracle_limit"]}


def _first_primes(k: int) -> list[int]:
    out, cand = [], 2
    while len(out) < k:
        if all(cand % p for p in out):
            out.append(cand)
        cand += 1
    return out


def _e6_search_space(flagmann, quiver, cfg: dict) -> tuple[int, int]:
    """(rows, search space) of one check-odd call: the search space sums the
    candidate bound at each prime the interpolation counts at (the first
    D + 2 primes, D the expected dimension, which depends on orientation)."""
    rows = space = 0
    for root in flagmann.positive_roots(quiver):
        if sum(root) > cfg["max_dim"]:
            continue
        for steps in flag_chains(root, cfg["d_max"]):
            dim = max(flagmann.rigid_dimension(quiver, flagmann.FlagType(steps)), 0)
            rows += 1
            space += sum(candidate_bound(root, steps, p) for p in _first_primes(dim + 2))
    return rows, space


def _gen_e6_check_odd(flagmann, rng: random.Random, cfg: dict) -> dict:
    """One orientation from each of `orientations` equal strata of the 32,
    ranked by search space.  Orientations differ in cost by up to a factor 2,
    but those with the same search space make the same count_flags calls on
    the same candidates; so in each stratum the seed draws among the
    orientations whose search space is that of the stratum's middle one.
    Seeds then change the quivers and their output, not the mix of costs."""
    sized = []
    for o in range(orientation_count("E6")):
        rows, space = _e6_search_space(flagmann, _quiver(flagmann, orientation("E6", o)), cfg)
        sized.append((space, o, rows))
    sized.sort()
    width = len(sized) // cfg["orientations"]
    quivers, calls = {}, []
    for k in range(cfg["orientations"]):
        middle = sized[k * width + width // 2][0]
        peers = [(o, rows) for space, o, rows in sized if space == middle]
        o, rows = peers[rng.randrange(len(peers))]
        quivers[str(o)] = orientation("E6", o)
        calls.append([o, rows])
    rng.shuffle(calls)
    return {"quivers": quivers, "calls": calls, "max_dim": cfg["max_dim"], "d_max": cfg["d_max"]}


def _random_steps(rng: random.Random, weight, d: int):
    steps = [tuple(weight)]
    for _ in range(d - 1):
        steps.insert(0, tuple(rng.randint(0, x) for x in steps[0]))
    return steps


def _gen_bundle(flagmann, rng: random.Random, cfg: dict) -> dict:
    """Criterion-4 draws over the A4 and D4 orientations; a draw is kept when
    Ext^1(W, V) = 0 and both flag varieties are nonempty over F_2."""
    pool = [("A4", o) for o in range(orientation_count("A4"))]
    pool += [("D4", o) for o in range(orientation_count("D4"))]
    field = flagmann.PrimeField(2)
    quivers, instances = {}, []
    while len(instances) < cfg["instances"]:
        # orientations and flag lengths cycle evenly, so seeds differ in the
        # roots and steps drawn, not in the mix of quivers and flag lengths
        kind, o = pool[len(instances) % len(pool)]
        d = 2 + len(instances) // len(pool) % (cfg["caps"]["max_flag_steps"] - 1)
        key = f"{kind}.{o}"
        spec = orientation(kind, o)
        quiver = _quiver(flagmann, spec)
        roots = flagmann.positive_roots(quiver)
        v_roots = [roots[rng.randrange(len(roots))] for _ in range(rng.randint(1, cfg["caps"]["v_summands"]))]
        w_root = roots[rng.randrange(len(roots))]
        if sum(map(sum, v_roots)) + sum(w_root) > cfg["caps"]["max_total_dim"]:
            continue
        v_rep = flagmann.build_rep(flagmann.RootMultiset.from_roots(quiver, v_roots), field)
        w_rep = flagmann.build_rep(flagmann.RootMultiset.from_roots(quiver, [w_root]), field)
        if flagmann.ext1_dim(w_rep, v_rep) != 0:
            continue
        v_steps = _random_steps(rng, v_rep.dims, d)
        w_steps = _random_steps(rng, w_rep.dims, d)
        if not flagmann.count_flags(v_rep, flagmann.FlagType(tuple(v_steps))):
            continue
        if not flagmann.count_flags(w_rep, flagmann.FlagType(tuple(w_steps))):
            continue
        quivers[key] = spec
        instances.append(
            [key, [list(r) for r in v_roots], [list(w_root)],
             [list(s) for s in v_steps], [list(s) for s in w_steps]]
        )
    return {"quivers": quivers, "instances": instances}


GENERATORS = {
    "d4_verify": _gen_d4_verify,
    "large_rep": _gen_large_rep,
    "e6_check_odd": _gen_e6_check_odd,
    "bundle": _gen_bundle,
}


def generate(name: str, seed: int, cfg: dict) -> dict:
    import flagmann

    return GENERATORS[name](flagmann, random.Random(f"{name}:{seed}"), cfg)


# ---------------------------------------------------------------------------
# Runners (run in the measured child)
# ---------------------------------------------------------------------------


def _cli(flagmann_cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            flagmann_cli.main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _prep_d4_verify(flagmann, inputs, workdir, h):
    quivers = {o: _quiver(flagmann, s) for o, s in inputs["quivers"].items()}
    fields = [flagmann.PrimeField(2), flagmann.PrimeField(3)]
    units = []
    for o, ms, steps in inputs["instances"]:
        multiset = flagmann.RootMultiset.from_roots(quivers[str(o)], ms)
        flag = flagmann.FlagType(tuple(map(tuple, steps)))

        def unit(multiset=multiset, flag=flag):
            poly = flagmann.poincare(multiset, flag)
            bad = 0
            for field in fields:
                counted = flagmann.count_flags(flagmann.build_rep(multiset, field), flag)
                if counted != poly.evaluate(field.p):
                    bad = 1
            digest_update(h, poly.coefficients)
            return 1, bad, 0, f"count differs for {multiset.items} {flag.steps}" if bad else ""

        units.append((1, unit))
    return units, lambda: (0, "")


def _parse_coefficients(text: str):
    first = text.splitlines()[0] if text else ""
    try:
        return [int(c) for c in first.split()]
    except ValueError:
        return None


def _prep_large_rep(flagmann, inputs, workdir, h):
    import flagmann.cli as cli

    paths = {}
    for o, spec in inputs["quivers"].items():
        paths[o] = os.path.join(workdir, f"d4_{o}.qv")
        with open(paths[o], "w", encoding="utf-8") as fh:
            fh.write(quiver_text(spec))
    units, results = [], [None] * len(inputs["instances"])
    for i, (o, summands, steps) in enumerate(inputs["instances"]):
        rep_path = os.path.join(workdir, f"rep_{i}.rep")
        with open(rep_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"summand: {','.join(map(str, r))} x 1\n" for r in summands)
        flag = ";".join(",".join(map(str, s)) for s in steps)
        argv = ["poincare", "--quiver", paths[str(o)], "--rep", rep_path, "--flag", flag]

        def unit(argv=argv, i=i):
            code, out, err = _cli(cli, argv)
            h.update(out.encode())
            coeffs = results[i] = _parse_coefficients(out)
            # the flag is built from summands, so the variety is never empty
            bad = code != 0 or not coeffs or any(c < 0 for c in coeffs) or coeffs == [0]
            return 1, int(bad), len(out.encode()), f"instance {i}: exit {code} {err.strip()}" if bad else ""

        units.append((1, unit))

    def finish():
        """Re-count over F_2, by brute force, every instance whose search space
        is small enough; the polynomial must evaluate to that count."""
        field = flagmann.PrimeField(2)
        limit = inputs["oracle_limit"]
        checked = failed = 0
        for (o, summands, steps), coeffs in zip(inputs["instances"], results):
            dims = _vsum(summands, len(summands[0]))
            if not coeffs or candidate_bound(dims, steps, 2) > limit:
                continue
            quiver = _quiver(flagmann, inputs["quivers"][str(o)])
            ms = flagmann.RootMultiset.from_roots(quiver, summands)
            counted = flagmann.count_flags(
                flagmann.build_rep(ms, field), flagmann.FlagType(tuple(map(tuple, steps)))
            )
            checked += 1
            failed += counted != sum(c * 2**k for k, c in enumerate(coeffs))
        return failed, f"{checked} of {len(results)} instances re-counted over F_2"

    return units, finish


def _prep_e6_check_odd(flagmann, inputs, workdir, h):
    import flagmann.cli as cli

    units = []
    for o, rows in inputs["calls"]:
        path = os.path.join(workdir, f"e6_{o}.qv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(quiver_text(inputs["quivers"][str(o)]))
        argv = [
            "check-odd", "--quiver", path, "--max-dim", str(inputs["max_dim"]),
            "--d-max", str(inputs["d_max"]), "--json",
        ]

        def unit(argv=argv, rows=rows):
            code, out, err = _cli(cli, argv)
            h.update(out.encode())
            try:
                got = json.loads(out)["instances"]
            except (ValueError, KeyError, TypeError):
                return rows, rows, len(out.encode()), f"exit {code}: {err.strip()}"
            bad = sum(1 for row in got if row["status"] in ("fail", "budget"))
            bad += abs(rows - len(got))
            return rows, min(bad, rows), len(out.encode()), f"exit {code}: {bad} bad rows" if bad or code else ""

        units.append((rows, unit))
    return units, lambda: (0, "")


def _prep_bundle(flagmann, inputs, workdir, h):
    field = flagmann.PrimeField(2)
    quivers = {k: _quiver(flagmann, s) for k, s in inputs["quivers"].items()}
    units = []
    for i, (key, v_roots, w_roots, v_steps, w_steps) in enumerate(inputs["instances"]):
        quiver = quivers[key]
        v_ms = flagmann.RootMultiset.from_roots(quiver, v_roots)
        w_ms = flagmann.RootMultiset.from_roots(quiver, w_roots)
        v_flag = flagmann.FlagType(tuple(map(tuple, v_steps)))
        w_flag = flagmann.FlagType(tuple(map(tuple, w_steps)))
        u_flag = flagmann.FlagType(
            tuple(tuple(a + b for a, b in zip(vs, ws)) for vs, ws in zip(v_steps, w_steps))
        )

        def unit(v_ms=v_ms, w_ms=w_ms, v_flag=v_flag, w_flag=w_flag, u_flag=u_flag, i=i):
            v_rep = flagmann.build_rep(v_ms, field)
            w_rep = flagmann.build_rep(w_ms, field)
            report = flagmann.verify_fiber_rank(v_rep, w_rep, v_flag, w_flag, samples=3, seed=i)
            u_rep = flagmann.direct_sum(v_rep, w_rep)
            embedded = tuple(
                tuple(tuple(int(j == k) for j in range(u_rep.dims[x])) for k in range(v_rep.dims[x]))
                for x in range(len(v_rep.dims))
            )
            stratum = flagmann.count_strata(u_rep, embedded, u_flag, v_flag, w_flag)
            expected = 2**report.expected_rank * report.sub_flag_count * report.quot_flag_count
            digest_update(h, [report.expected_rank, list(report.fiber_dims),
                              report.sub_flag_count, report.quot_flag_count, stratum])
            bad = not report.ok or stratum != expected
            return 1, int(bad), 0, f"instance {i}: stratum {stratum} != {expected}" if bad else ""

        units.append((1, unit))
    return units, lambda: (0, "")


PREPARERS = {
    "d4_verify": _prep_d4_verify,
    "large_rep": _prep_large_rep,
    "e6_check_odd": _prep_e6_check_odd,
    "bundle": _prep_bundle,
}


def prepare(name: str, inputs: dict, workdir: str, h):
    import flagmann

    return PREPARERS[name](flagmann, inputs, workdir, h)
