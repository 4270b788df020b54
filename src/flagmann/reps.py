"""Concrete quiver representations over an exact field.

Representations are immutable: a dimension vector plus one matrix per arrow
(shape target x source), a tuple of row tuples.  Input representations are
described as multisets of positive roots; the matching indecomposables are
built deterministically over QQ by sink/source reflections starting from
simple representations, and the one over F_p is that one reduced mod p, so
the same root yields the same matrices over every field by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError, InternalConsistencyError
from .linalg import (
    QQ,
    FieldSpec,
    PrimeField,
    mat_mul_rows,
    quotient_map_rows,
    rank_rows,
    rowspace_leq,
    rref_rows,
)
from .quiver import (
    DimVector,
    Quiver,
    _peel,
    _reflect,
    _undirected_adjacency,
    euler_form,
    positive_roots,
    read_input,
)

Subspaces = tuple  # per-vertex tuple of RREF row bases


@dataclass(frozen=True)
class Representation:
    """A dimension vector and, per arrow s -> t, a dims[t] x dims[s] matrix
    as a tuple of row tuples with entries in the field's canonical form."""

    quiver: Quiver
    field: FieldSpec
    dims: DimVector
    maps: tuple

    def __post_init__(self):
        dims = self.quiver.check_dim_vector(self.dims)
        object.__setattr__(self, "dims", dims)
        if len(self.maps) != len(self.quiver.arrows):
            raise InputError("one matrix per arrow required")
        for (s, t), m in zip(self.quiver.arrow_indices, self.maps):
            if len(m) != dims[t] or any(len(row) != dims[s] for row in m):
                raise InputError(
                    f"arrow matrix with row widths {tuple(map(len, m))} does not match "
                    f"dimensions {(dims[t], dims[s])}"
                )


def _sum_maps(quiver: Quiver, field: FieldSpec, parts) -> tuple:
    """Each arrow's block-diagonal matrix of the summands `parts`, in order.
    A block's width is its summand's source dimension: a block with no rows
    has none to read it from."""
    zero = (field.coerce(0),)
    maps = []
    for a, (s, _) in enumerate(quiver.arrow_indices):
        ncols = sum(rep.dims[s] for rep in parts)
        rows = []
        left = 0
        for rep in parts:
            right = ncols - left - rep.dims[s]
            rows.extend(zero * left + row + zero * right for row in rep.maps[a])
            left += rep.dims[s]
        maps.append(tuple(rows))
    return tuple(maps)


def direct_sum(a: Representation, b: Representation) -> Representation:
    """Block-diagonal sum; `a` occupies the leading coordinates at each vertex."""
    if a.quiver != b.quiver or a.field != b.field:
        raise InputError("direct sum needs matching quiver and field")
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    return Representation(a.quiver, a.field, dims, _sum_maps(a.quiver, a.field, (a, b)))


# ---------------------------------------------------------------------------
# Root multisets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootMultiset:
    """A direct-sum description: positive roots with multiplicities."""

    quiver: Quiver
    items: tuple[tuple[DimVector, int], ...]

    def __post_init__(self):
        roots = positive_roots(self.quiver)
        order = {r: i for i, r in enumerate(roots)}
        merged: dict[DimVector, int] = {}
        for root, mult in self.items:
            root = tuple(int(x) for x in root)
            if root not in order:
                raise InputError(f"{root} is not a positive root of this quiver")
            if mult < 1:
                raise InputError(f"multiplicity must be >= 1, got {mult}")
            merged[root] = merged.get(root, 0) + int(mult)
        canon = tuple(sorted(merged.items(), key=lambda kv: order[kv[0]]))
        object.__setattr__(self, "items", canon)

    @classmethod
    def from_roots(cls, quiver: Quiver, roots) -> "RootMultiset":
        return cls(quiver, tuple((tuple(r), 1) for r in roots))

    @property
    def total(self) -> DimVector:
        vec = [0] * self.quiver.n
        for root, mult in self.items:
            for i, x in enumerate(root):
                vec[i] += mult * x
        return tuple(vec)

    def expand(self) -> tuple[DimVector, ...]:
        out = []
        for root, mult in self.items:
            out.extend([root] * mult)
        return tuple(out)


def parse_rep_spec(text: str, quiver: Quiver) -> RootMultiset:
    """Parse ``summand: 1,1 x 2`` lines into a root multiset."""
    items = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("summand:"):
            raise InputError(f"line {lineno}: expected a 'summand:' line")
        root_part, *mult_part = line[len("summand:") :].rsplit("x", 1)
        root_part = root_part.strip()
        try:
            root = tuple(int(x) for x in root_part.split(","))
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad root {root_part!r}") from exc
        try:
            mult = int(mult_part[0]) if mult_part else 1
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad multiplicity {mult_part[0]!r}") from exc
        items.append((root, mult))
    return RootMultiset(quiver, tuple(items))


def load_rep_spec(path, quiver: Quiver) -> RootMultiset:
    return parse_rep_spec(read_input(path, "representation"), quiver)


# ---------------------------------------------------------------------------
# Hom and Ext
# ---------------------------------------------------------------------------


def _hom_system(w_rep: Representation, v_rep: Representation):
    """Coefficient rows of the linear system cutting out Hom(W, V).

    Unknowns are the entries of one matrix f_i per vertex (shape v_i x w_i),
    vertex blocks in order, row-major inside a block; one equation per arrow
    h: i -> j and position (a, c) enforcing (f_j W_h - V_h f_i)[a, c] = 0.
    """
    q = w_rep.quiver
    wd, vd = w_rep.dims, v_rep.dims
    offsets = []
    total = 0
    for i in range(q.n):
        offsets.append(total)
        total += vd[i] * wd[i]
    zero = v_rep.field.coerce(0)
    rows = []
    for (i, j), wm, vm in zip(q.arrow_indices, w_rep.maps, v_rep.maps):
        for a in range(vd[j]):
            for c in range(wd[i]):
                row = [zero] * total
                for b in range(wd[j]):
                    row[offsets[j] + a * wd[j] + b] = wm[b][c]
                for b in range(vd[i]):
                    row[offsets[i] + b * wd[i] + c] -= vm[a][b]
                if v_rep.field.char:
                    row = [x % v_rep.field.char for x in row]
                rows.append(tuple(row))
    return tuple(rows), total, offsets


def hom_dim(w_rep: Representation, v_rep: Representation) -> int:
    """Exact dimension of the space of morphisms W -> V."""
    if w_rep.quiver != v_rep.quiver or w_rep.field != v_rep.field:
        raise InputError("Hom needs matching quiver and field")
    rows, total, _ = _hom_system(w_rep, v_rep)
    return total - rank_rows(rows, v_rep.field.char)


def ext1_dim(w_rep: Representation, v_rep: Representation) -> int:
    """dim Ext^1(W, V) = dim Hom(W, V) - <dim W, dim V>; always >= 0."""
    h = hom_dim(w_rep, v_rep)
    e = h - euler_form(w_rep.quiver, w_rep.dims, v_rep.dims)
    if e < 0:
        raise InternalConsistencyError(
            f"negative Ext dimension {e} for dims {w_rep.dims} -> {v_rep.dims}"
        )
    return e


# ---------------------------------------------------------------------------
# Indecomposables by reflections
# ---------------------------------------------------------------------------


def admissible_vertex_order(quiver: Quiver) -> tuple[int, ...]:
    """Vertex indices ordered so each is a sink of the preceding reflections.

    Equivalently: repeatedly peel a sink of the induced subquiver on the
    remaining vertices (smallest index first).  Fails on directed cycles.
    """
    arrows = quiver.arrow_indices
    return _peel(range(quiver.n), lambda i, j: (i, j) in arrows, "quiver has a directed cycle")


def _reflection_walk(quiver: Quiver, root: DimVector) -> Representation:
    """The indecomposable for a positive root over QQ: walk the root down to a
    simple one along the cyclic admissible reflection sequence, then lift the
    simple representation back with source reflections.

    The lift runs on raw data: the orientation as `(s, t)` pairs, the
    dimensions, and one tuple of rows per arrow; only the result is
    validated.  A source reflection at `i` replaces V_i by the cokernel of
    V_i -> sum of the targets of its arrows, and every reversed arrow gets
    the induced projection.
    """
    adj = _undirected_adjacency(quiver)
    order = admissible_vertex_order(quiver)
    arrows = list(quiver.arrow_indices)
    word: list[int] = []
    cur = root
    step = 0
    while True:
        if step > 10000:
            raise InternalConsistencyError("reflection walk did not terminate")
        i = order[step % quiver.n]
        nxt = _reflect(cur, i, adj)
        if any(x < 0 for x in nxt):
            if sum(cur) != 1 or cur[i] != 1:
                raise InternalConsistencyError("reflection walk ended off a simple root")
            break
        word.append(i)
        # the sink reflection at i reverses the arrows at i
        arrows = [(t, s) if i in (s, t) else (s, t) for s, t in arrows]
        cur = nxt
        step += 1
    dims = list(cur)
    maps = [tuple(() for _ in range(dims[t])) for _, t in arrows]
    for i in reversed(word):
        if any(t == i for _, t in arrows):
            raise InternalConsistencyError(f"vertex {quiver.vertices[i]} is not a source")
        out_arrows = [a for a, (s, _) in enumerate(arrows) if s == i]
        # column space of the stacked map, as a row space of its transpose
        stacked_cols = tuple(
            tuple(row[c] for a in out_arrows for row in maps[a]) for c in range(dims[i])
        )
        colspace, _ = rref_rows(stacked_cols, 0)
        if len(colspace) != dims[i]:
            raise InternalConsistencyError("reflection hit a non-injective map")
        total = sum(dims[arrows[a][1]] for a in out_arrows)
        qmap, _ = quotient_map_rows(colspace, total, 0)
        off = 0
        for a in out_arrows:
            j = arrows[a][1]
            maps[a] = tuple(row[off : off + dims[j]] for row in qmap)
            arrows[a] = (j, i)
            off += dims[j]
        dims[i] = total - dims[i]
    return Representation(quiver, QQ, tuple(dims), tuple(maps))


def _reduce_mod_p(rep: Representation, field: PrimeField) -> Representation:
    """The entrywise reduction a/b -> a * b^-1 of a rational representation."""
    p = field.p
    maps = []
    for m in rep.maps:
        rows = []
        for row in m:
            if any(x.denominator % p == 0 for x in row):
                raise InternalConsistencyError(
                    f"an indecomposable over QQ has an entry with denominator divisible by {p}"
                )
            rows.append(tuple(x.numerator * pow(x.denominator, -1, p) % p for x in row))
        maps.append(tuple(rows))
    return Representation(rep.quiver, field, rep.dims, tuple(maps))


@lru_cache(maxsize=None)
def indecomposable_for_root(quiver: Quiver, root: DimVector, field: FieldSpec) -> Representation:
    """The indecomposable representation with the given root as dimension vector.

    Built once over QQ by reflections (`_reflection_walk`); over F_p it is the
    reduction of that one.  Deterministic; verified over every field to have
    a one-dimensional endomorphism ring, which makes a reduction mod p the
    indecomposable of F_p for this root.
    """
    root = quiver.check_dim_vector(root)
    if root not in positive_roots(quiver):
        raise InputError(f"{root} is not a positive root of this quiver")
    if field.char:
        rep = _reduce_mod_p(indecomposable_for_root(quiver, root, QQ), field)
    else:
        rep = _reflection_walk(quiver, root)
    if rep.quiver != quiver or rep.dims != root:
        raise InternalConsistencyError("reflection construction missed its target")
    if hom_dim(rep, rep) != 1:
        raise InternalConsistencyError(f"endomorphisms of the root {root} are not scalar")
    return rep


@lru_cache(maxsize=None)
def build_rep(multiset: RootMultiset, field: FieldSpec) -> Representation:
    """Block-diagonal sum of the indecomposables named by the multiset."""
    quiver = multiset.quiver
    parts = [indecomposable_for_root(quiver, root, field) for root in multiset.expand()]
    return Representation(quiver, field, multiset.total, _sum_maps(quiver, field, parts))


# ---------------------------------------------------------------------------
# Subrepresentations and quotients
# ---------------------------------------------------------------------------


def canonical_subspaces(rep: Representation, subspaces: Subspaces) -> Subspaces:
    """One RREF basis per vertex, coerced into the field; rejects a wrong vertex
    count, a wrong ambient width and a dependent basis."""
    p = rep.field.char
    if len(subspaces) != rep.quiver.n:
        raise InputError("one subspace per vertex required")
    out = []
    for i, basis in enumerate(subspaces):
        rows = tuple(tuple(rep.field.coerce(x) for x in row) for row in basis)
        if any(len(row) != rep.dims[i] for row in rows):
            raise InputError(f"subspace basis at vertex {i} has wrong ambient dimension")
        red, _ = rref_rows(rows, p)
        if len(red) != len(rows):
            raise InputError(f"subspace basis at vertex {i} is not independent")
        out.append(red)
    return tuple(out)


def _is_stable(rep: Representation, canon: Subspaces) -> bool:
    """Each arrow maps its source subspace into its target subspace: the
    images of a source basis are its product with the transposed map, which
    skips the basis's zero entries.  An arrow from a zero subspace or into a
    whole target space needs no check."""
    p = rep.field.char
    for (s, t), m in zip(rep.quiver.arrow_indices, rep.maps):
        if canon[s] and len(canon[t]) < rep.dims[t]:
            images = mat_mul_rows(canon[s], tuple(zip(*m)), p)
            if not rowspace_leq(images, canon[t], p):
                return False
    return True


def subrep_subspaces(rep: Representation, subspaces: Subspaces) -> Subspaces:
    """The canonical bases of an arrow-stable subspace tuple; InputError otherwise."""
    canon = canonical_subspaces(rep, subspaces)
    if not _is_stable(rep, canon):
        raise InputError("subspaces are not arrow-stable")
    return canon


def sub_maps(arrow_indices, maps, subspaces, p):
    """Dimensions and arrow matrices of the subrepresentation on arrow-stable
    RREF subspaces, in their bases: an image's coordinates are its entries at the
    target basis's pivot columns.  No validation."""
    pivots = [tuple(next(c for c, x in enumerate(row) if x) for row in b) for b in subspaces]
    smaps = []
    for (s, t), m in zip(arrow_indices, maps):
        pivot_rows = tuple(m[c] for c in pivots[t])
        smaps.append(mat_mul_rows(pivot_rows, tuple(zip(*subspaces[s])), p))
    return tuple(map(len, subspaces)), tuple(smaps)


def subrepresentation(rep: Representation, subspaces: Subspaces) -> Representation:
    """The subrepresentation carried by arrow-stable subspaces, in their bases."""
    subspaces = subrep_subspaces(rep, subspaces)
    sub = sub_maps(rep.quiver.arrow_indices, rep.maps, subspaces, rep.field.char)
    return Representation(rep.quiver, rep.field, *sub)


def quotient_maps(arrow_indices, dims, maps, subspaces, p):
    """Dimensions and arrow matrices of the quotient by arrow-stable RREF
    subspaces, in complement coordinates.  No validation: the hot path of the
    counting oracle."""
    qmats = []
    nonpivots = []
    for n, basis in zip(dims, subspaces):
        qm, np = quotient_map_rows(basis, n, p)
        qmats.append(qm)
        nonpivots.append(np)
    qmaps = []
    for (s, t), m in zip(arrow_indices, maps):
        lifted = tuple(tuple(row[c] for c in nonpivots[s]) for row in m)
        qmaps.append(mat_mul_rows(qmats[t], lifted, p))
    return tuple(map(len, nonpivots)), tuple(qmaps)


def quotient_representation(rep: Representation, subspaces: Subspaces) -> Representation:
    """The quotient by an arrow-stable tuple of subspaces, in complement coordinates."""
    subspaces = subrep_subspaces(rep, subspaces)
    quot = quotient_maps(rep.quiver.arrow_indices, rep.dims, rep.maps, subspaces, rep.field.char)
    return Representation(rep.quiver, rep.field, *quot)
