"""Shared constructors, exhaustive generators and row-tuple references for
the test suite.  A matrix is a tuple of row tuples, as in `flagmann.linalg`."""

from fractions import Fraction
from itertools import product
from operator import add, sub

from flagmann import FlagType, Quiver, Representation, RootMultiset, enumerate_flags, positive_roots
from flagmann.errors import InputError
from flagmann.extended import Rep0Representation, _embedding
from flagmann.linalg import (
    _rref_bases,
    mat_mul_rows,
    null_space_rows,
    rowspace_leq,
    rref_rows,
)
from flagmann.reps import _hom_system, quotient_maps, sub_maps, subrep_subspaces


def quiver_a(n: int, directions=None) -> Quiver:
    """Path quiver on vertices 1..n; directions[i] = 1 reverses edge i."""
    names = tuple(str(i + 1) for i in range(n))
    directions = directions or [0] * (n - 1)
    arrows = []
    for i, d in enumerate(directions):
        e = (names[i], names[i + 1])
        arrows.append(e if d == 0 else (e[1], e[0]))
    return Quiver(names, tuple(arrows))


def quiver_d(n: int, directions=None) -> Quiver:
    """D(n): path 1..n-2 with forks n-1, n attached to vertex n-2."""
    names = tuple(str(i + 1) for i in range(n))
    edges = [(names[i], names[i + 1]) for i in range(n - 3)]
    edges += [(names[n - 2], names[n - 3]), (names[n - 1], names[n - 3])]
    directions = directions or [0] * len(edges)
    arrows = tuple(e if d == 0 else (e[1], e[0]) for e, d in zip(edges, directions))
    return Quiver(names, arrows)


def quiver_e(n: int) -> Quiver:
    """E(n), arrows oriented along increasing standard labels."""
    names = tuple(str(i + 1) for i in range(n))
    edges = [("1", "3"), ("3", "4"), ("2", "4")]
    edges += [(str(i), str(i + 1)) for i in range(4, n)]
    return Quiver(names, tuple(edges))


def all_orientations(quiver: Quiver):
    """Every orientation of the underlying graph of `quiver`."""
    for dirs in product((0, 1), repeat=len(quiver.arrows)):
        arrows = tuple(
            (s, t) if d == 0 else (t, s) for (s, t), d in zip(quiver.arrows, dirs)
        )
        yield Quiver(quiver.vertices, arrows)


def multisets_upto(quiver, roots, max_entry: int, max_total: int):
    """Nonempty root multisets with per-vertex and total dimension caps."""

    def rec(i, acc, total):
        if acc:
            yield RootMultiset.from_roots(quiver, tuple(acc))
        for j in range(i, len(roots)):
            new = tuple(a + b for a, b in zip(total, roots[j]))
            if sum(new) > max_total or any(x > max_entry for x in new):
                continue
            acc.append(roots[j])
            yield from rec(j, acc, new)
            acc.pop()

    yield from rec(0, [], tuple(0 for _ in range(quiver.n)))


def random_instance(rng, base: Quiver):
    """A random orientation of `base`, 1-4 random positive roots as a
    multiset, and a flag type of 1-3 steps ending at their total: half the
    time made of partial sums of the summands, half the time of random steps.
    """
    quiver = Quiver(
        base.vertices,
        tuple((s, t) if rng.random() < 0.5 else (t, s) for s, t in base.arrows),
    )
    roots = positive_roots(quiver)
    drawn = [rng.choice(roots) for _ in range(rng.randint(1, 4))]
    ms = RootMultiset.from_roots(quiver, tuple(drawn))
    d = rng.randint(1, 3)
    if rng.random() < 0.5:
        # partial sums of the summands: never an empty variety
        cuts = sorted(rng.randint(0, len(drawn)) for _ in range(d - 1))
        zero = (0,) * quiver.n
        steps = [tuple(map(sum, zip(zero, *drawn[:c]))) for c in cuts]
        steps.append(ms.total)
    else:
        steps = [ms.total]
        for _ in range(d - 1):
            steps.insert(0, tuple(rng.randint(0, x) for x in steps[0]))
    return ms, FlagType(tuple(steps))


def subreps(rep: Representation, target):
    """The arrow-stable subspace tuples of dimensions `target`, as the first
    steps of the two-step flags of type (target, dim rep), in their order."""
    for point in enumerate_flags(rep, FlagType((target, rep.dims))):
        yield point[0]


def apply_rows(m, vec, p: int):
    """The matrix `m` (rows over source coordinates) applied to one column
    vector, entry by entry: the reference for the one-product image."""
    if p:
        return tuple(sum(x * v for x, v in zip(row, vec)) % p for row in m)
    return tuple(Fraction(sum(x * v for x, v in zip(row, vec))) for row in m)


def zassenhaus_intersection(a, b, n: int, p: int):
    """The intersection of two row spaces inside F^n by the Zassenhaus block:
    reduce the rows (a | a) and (b | 0); the rows whose first half vanished
    span the intersection in their second half.  The reference for the
    kernel form of `intersect_rowspaces`."""
    zero = tuple([0] * n) if p else tuple([Fraction(0)] * n)
    block = [row + row for row in a] + [row + zero for row in b]
    red, _ = rref_rows(tuple(block), p)
    out = [row[n:] for row in red if not any(row[:n])]
    return rref_rows(tuple(out), p)[0]


def is_stable_rowwise(rep: Representation, subspaces) -> bool:
    """Whether every arrow maps each basis row of its source subspace into its
    target subspace, one row at a time."""
    p = rep.field.char
    return all(
        rowspace_leq((apply_rows(m, vec, p),), subspaces[t], p)
        for (s, t), m in zip(rep.quiver.arrow_indices, rep.maps)
        for vec in subspaces[s]
    )


def brute_force_flags(rep: Representation, flag_type: FlagType) -> list:
    """Every flag of `flag_type` in `rep`, by brute force: each step is a
    product of per-vertex RREF bases kept when every arrow maps it into
    itself, and consecutive steps are chained by containment."""
    p = rep.field.char
    layers = []
    for step in flag_type.steps:
        layers.append([
            subs
            for subs in product(*(_rref_bases(n, k, p) for n, k in zip(rep.dims, step)))
            if is_stable_rowwise(rep, subs)
        ])
    return [
        chain
        for chain in product(*layers)
        if all(
            rowspace_leq(low, high, p)
            for a, b in zip(chain, chain[1:])
            for low, high in zip(a, b)
        )
    ]


def chains(r: int, prev, weight):
    """Monotone chains of r steps between prev and weight, lexicographically,
    one frame per step: the reference for the order of `flag_types`."""
    if r == 0:
        yield ()
        return
    for step in product(*(range(p, w + 1) for p, w in zip(prev, weight))):
        for rest in chains(r - 1, step, weight):
            yield (step,) + rest


def format_quiver(quiver: Quiver) -> str:
    """The quiver in the text format `parse_quiver` reads."""
    lines = ["vertices: " + " ".join(quiver.vertices)]
    lines += [f"arrow: {s} -> {t}" for s, t in quiver.arrows]
    return "\n".join(lines) + "\n"


def zeros(field, nrows: int, ncols: int):
    return tuple((field.coerce(0),) * ncols for _ in range(nrows))


def mat_mul(field, a, b, ncols: int):
    """a * b; `ncols` is the width of b, which a b with no rows cannot show."""
    return mat_mul_rows(a, b, field.char) if b else zeros(field, len(a), ncols)


def mat_sub(field, a, b):
    return tuple(tuple(field.coerce(x - y) for x, y in zip(r, s)) for r, s in zip(a, b))


def zero_representation(quiver: Quiver, field) -> Representation:
    return Representation(quiver, field, (0,) * quiver.n, ((),) * len(quiver.arrows))


def simple_representation(quiver: Quiver, vertex: str, field) -> Representation:
    dims = tuple(int(v == vertex) for v in quiver.vertices)
    maps = tuple(zeros(field, dims[t], dims[s]) for s, t in quiver.arrow_indices)
    return Representation(quiver, field, dims, maps)


def hom_space(w_rep: Representation, v_rep: Representation):
    """Basis of Hom(W, V); each element is one v_i x w_i matrix per vertex i."""
    rows, total, offsets = _hom_system(w_rep, v_rep)
    return tuple(
        tuple(
            tuple(vec[off + a * wi : off + (a + 1) * wi] for a in range(vi))
            for off, vi, wi in zip(offsets, v_rep.dims, w_rep.dims)
        )
        for vec in null_space_rows(rows, total, v_rep.field.char)
    )


def layer(r0, r: int) -> Representation:
    """Layer r (0-based) of a layered representation, over the base quiver."""
    ext = r0.extended
    dims = tuple(r0.rep.dims[ext.vertex_position(i, r)] for i in range(ext.n))
    maps = tuple(r0.rep.maps[ext.horizontal_position(r, a)] for a in range(len(ext.base.arrows)))
    return Representation(ext.base, r0.rep.field, dims, maps)


def vertical_map(r0, r: int, i: int):
    """The vertical arrow from vertex i of layer r to layer r + 1."""
    return r0.rep.maps[r0.extended.vertical_position(r, i)]


def flag_subspaces(v_rep: Representation, point: tuple) -> tuple:
    """The flag read as a subspace tuple over the extended quiver.

    Validates each step's bases and arrow stability, then the inclusions; the
    result indexes subspaces layer-major like the extended quiver's vertices.
    The check a point from outside the program would need, kept as the
    witness that every point `enumerate_flags` yields passes it.
    """
    if not point:
        raise InputError("depth must be >= 1, got 0")
    p = v_rep.field.char
    canon = [subrep_subspaces(v_rep, step) for step in point]
    for prev, cur in zip(canon, canon[1:]):
        if not all(rowspace_leq(a, b, p) for a, b in zip(prev, cur)):
            raise InputError("flag steps are not nested")
    if tuple(len(b) for b in canon[-1]) != v_rep.dims:
        raise InputError("top flag step is not the whole representation")
    return tuple(basis for step in canon for basis in step)


def flag_to_subrep(v_rep: Representation, point: tuple) -> Rep0Representation:
    """The flag as a subrepresentation of the layer-constant embedding, the
    point validated first: the reference for `verify_fiber_rank`'s sub side."""
    ext, _, maps = _embedding(v_rep, len(point))
    subs = flag_subspaces(v_rep, point)
    dims, maps = sub_maps(ext.quiver.arrow_indices, maps, subs, v_rep.field.char)
    return Rep0Representation(ext, Representation(ext.quiver, v_rep.field, dims, maps))


def quotient_by_flag(v_rep: Representation, point: tuple) -> Rep0Representation:
    """The quotient of the layer-constant embedding by the flag
    subrepresentation, the point validated first: the reference for
    `verify_fiber_rank`'s quotient side."""
    ext, dims, maps = _embedding(v_rep, len(point))
    subs = flag_subspaces(v_rep, point)
    dims, maps = quotient_maps(ext.quiver.arrow_indices, dims, maps, subs, v_rep.field.char)
    return Rep0Representation(ext, Representation(ext.quiver, v_rep.field, dims, maps))


def poly_mul(f: dict, g: dict) -> dict:
    """The product of two polynomials kept as {exponent tuple: coefficient}."""
    out: dict = {}
    for a, x in f.items():
        for b, y in g.items():
            e = tuple(map(add, a, b))
            out[e] = out.get(e, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _poly_div(num: dict, den: dict) -> dict:
    """The exact quotient num / den, by long division on lex-largest terms."""
    lead = max(den)
    rest, out = dict(num), {}
    while rest:
        top = max(rest)
        c, r = divmod(rest[top], den[lead])
        e = tuple(map(sub, top, lead))
        assert not r and min(e) >= 0, "inexact division"
        out[e] = c
        for d, x in den.items():
            k = tuple(map(add, e, d))
            v = rest.get(k, 0) - c * x
            if v:
                rest[k] = v
            else:
                rest.pop(k, None)
    return out


def _mutate(m: list, b: list, k: int, top: bool) -> list:
    """Rows `m` of an extended exchange matrix whose top part is `b`,
    mutated at k; `top` says whether `m` is that top part."""
    return [
        [
            -x if j == k or (top and i == k)
            else x + ((row[k] > 0) - (row[k] < 0)) * max(row[k] * b[k][j], 0)
            for j, x in enumerate(row)
        ]
        for i, row in enumerate(m)
    ]


def f_polynomials(quiver: Quiver, roots) -> dict:
    """The F-polynomial of each indecomposable whose dimension vector is in
    `roots`, as {exponent tuple: coefficient}, keyed by that vector.

    Uses the quiver's arrows alone, by the Fomin-Zelevinsky recurrence with
    principal coefficients ("Cluster algebras IV", eq. (5.3)): with
    b_ij = #(i->j) - #(j->i) and C the coefficient rows, mutating at k gives
    F'_k = (y^[C_k]+ prod F_i^[b_ik]+ + y^[-C_k]+ prod F_i^[-b_ik]+) / F_k.
    It mutates again and again at a sink of the current exchange matrix, the
    least often mutated one first, and names each new F-polynomial by its
    top monomial y^(dim M).
    """
    n = len(quiver.vertices)
    index = {v: i for i, v in enumerate(quiver.vertices)}
    b = [[0] * n for _ in range(n)]
    for s, t in quiver.arrows:
        b[index[s]][index[t]] += 1
        b[index[t]][index[s]] -= 1
    c = [[int(i == j) for j in range(n)] for i in range(n)]
    f = [{(0,) * n: 1}] * n
    made = [0] * n
    found: dict = {}
    while not set(roots) <= found.keys():
        assert sum(made) <= 4 * n * (len(roots) + n), "mutation found no new roots"
        k = min((i for i in range(n) if max(b[i]) <= 0), key=lambda i: (made[i], i))
        made[k] += 1
        terms = []
        for sign in (1, -1):
            term = {tuple(max(sign * c[j][k], 0) for j in range(n)): 1}
            for i in range(n):
                for _ in range(max(sign * b[i][k], 0)):
                    term = poly_mul(term, f[i])
            terms.append(term)
        num = dict(terms[0])
        for e, x in terms[1].items():
            num[e] = num.get(e, 0) + x
        f[k] = _poly_div(num, f[k])
        found.setdefault(max(f[k], key=sum), f[k])
        b, c = _mutate(b, b, k, True), _mutate(c, b, k, False)
    return {root: found[root] for root in roots}
