"""The layered quiver picture of flags.

A depth-d extension of a quiver repeats it in d layers joined by vertical
arrows.  Representations whose layer squares commute form the category where
a flag in V becomes an honest subrepresentation of the layer-constant
embedding of V, and where the fiber of a stratum over a pair of flags is a
Hom space computable by exact linear algebra.  That computation is what this
module provides, together with a sampling verifier for the bundle-rank
formula.  A flag is the step tuple `enumerate_flags` yields; a conversion
validates it once (`flag_subspaces`) and builds its sub and quotient from
the embedding's row tuples.  The embedding itself is not checked, as each of
its squares reads V_h * 1 = 1 * V_h; only the result is, as a representation
whose layer squares must commute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .counting import count_flags, sample_flags
from .errors import InputError
from .linalg import PrimeField, identity_rows, mat_mul_rows, rowspace_leq
from .quiver import FlagType, Quiver
from .reps import (
    Representation,
    ext1_dim,
    hom_dim,
    quotient_maps,
    sub_maps,
    subrep_subspaces,
)
from .poincare import stratum_rank


@dataclass(frozen=True)
class ExtendedQuiver:
    """d layers of a base quiver, joined by vertical arrows layer r -> r+1.

    Vertices are layer-major: position(i, r) = r*n + i for layer r in 0..d-1.
    Horizontal arrows come first (layer by layer in base-arrow order), then
    the verticals (layer by layer in vertex order).
    """

    base: Quiver
    depth: int
    quiver: Quiver

    @property
    def n(self) -> int:
        return self.base.n

    def vertex_position(self, i: int, r: int) -> int:
        return r * self.n + i

    def horizontal_position(self, r: int, arrow: int) -> int:
        return r * len(self.base.arrows) + arrow

    def vertical_position(self, r: int, i: int) -> int:
        return self.depth * len(self.base.arrows) + r * self.n + i


@lru_cache(maxsize=None)
def extend_quiver(base: Quiver, depth: int) -> ExtendedQuiver:
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    names = [f"{v}#{r + 1}" for r in range(depth) for v in base.vertices]
    arrows = []
    for r in range(depth):
        for s, t in base.arrows:
            arrows.append((f"{s}#{r + 1}", f"{t}#{r + 1}"))
    for r in range(depth - 1):
        for v in base.vertices:
            arrows.append((f"{v}#{r + 1}", f"{v}#{r + 2}"))
    return ExtendedQuiver(base, depth, Quiver(tuple(names), tuple(arrows)))


@dataclass(frozen=True)
class Rep0Representation:
    """A representation of the extended quiver whose layer squares commute."""

    extended: ExtendedQuiver
    rep: Representation

    def __post_init__(self):
        if self.rep.quiver != self.extended.quiver:
            raise InputError("representation does not live on the extended quiver")
        _check_squares(self.extended, self.rep.dims, self.rep.maps, self.rep.field.char)


def _check_squares(ext: ExtendedQuiver, dims: tuple, maps: tuple, p: int) -> None:
    """Raise unless every layer square of the arrow matrices commutes."""

    def product(a, b, ncols):
        # an inner dimension 0 gives the zero matrix
        return mat_mul_rows(a, b, p) if b else tuple((0,) * ncols for _ in a)

    for r in range(ext.depth - 1):
        for a, (i, j) in enumerate(ext.base.arrow_indices):
            top = maps[ext.horizontal_position(r, a)]
            bottom = maps[ext.horizontal_position(r + 1, a)]
            vert_i = maps[ext.vertical_position(r, i)]
            vert_j = maps[ext.vertical_position(r, j)]
            ncols = dims[ext.vertex_position(i, r)]
            if product(vert_j, top, ncols) != product(bottom, vert_i, ncols):
                raise InputError(
                    f"layer square at arrow {ext.base.arrows[a]} between layers "
                    f"{r + 1} and {r + 2} does not commute"
                )


def _embedding(v_rep: Representation, depth: int) -> tuple:
    """The layer-constant embedding as (extended quiver, dims, arrow
    matrices): V's maps in every layer, identity verticals."""
    ext = extend_quiver(v_rep.quiver, depth)
    ids = tuple(identity_rows(n, v_rep.field.char) for n in v_rep.dims)
    return ext, v_rep.dims * depth, v_rep.maps * depth + ids * (depth - 1)


def phi(v_rep: Representation, depth: int) -> Rep0Representation:
    """Layer-constant embedding: every layer is V, verticals are identities."""
    ext, dims, maps = _embedding(v_rep, depth)
    return Rep0Representation(ext, Representation(ext.quiver, v_rep.field, dims, maps))


def flag_subspaces(v_rep: Representation, point: tuple) -> tuple:
    """The flag read as a subspace tuple over the extended quiver.

    Validates each step's bases and arrow stability, then the inclusions; the
    result indexes subspaces layer-major like the extended quiver's vertices.
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
    """The flag as a subrepresentation of the layer-constant embedding."""
    ext, _, maps = _embedding(v_rep, len(point))
    subs = flag_subspaces(v_rep, point)
    dims, maps = sub_maps(ext.quiver.arrow_indices, maps, subs, v_rep.field.char)
    return Rep0Representation(ext, Representation(ext.quiver, v_rep.field, dims, maps))


def quotient_by_flag(v_rep: Representation, point: tuple) -> Rep0Representation:
    """The quotient of the layer-constant embedding by the flag subrepresentation."""
    ext, dims, maps = _embedding(v_rep, len(point))
    subs = flag_subspaces(v_rep, point)
    dims, maps = quotient_maps(ext.quiver.arrow_indices, dims, maps, subs, v_rep.field.char)
    return Rep0Representation(ext, Representation(ext.quiver, v_rep.field, dims, maps))


def hom_dim_rep0(w0: Rep0Representation, v0: Rep0Representation) -> int:
    """Morphisms commuting with all horizontal and vertical structure maps."""
    if w0.extended != v0.extended:
        raise InputError("representations live on different extended quivers")
    return hom_dim(w0.rep, v0.rep)


@dataclass(frozen=True)
class FiberReport:
    prime: int
    expected_rank: int
    fiber_dims: tuple[int, ...]
    deviations: tuple[str, ...]
    sub_flag_count: int
    quot_flag_count: int

    @property
    def ok(self) -> bool:
        return not self.deviations


def verify_fiber_rank(
    v_rep: Representation,
    w_rep: Representation,
    sub_flag: FlagType,
    quot_flag: FlagType,
    samples: int = 5,
    seed: int = 0,
    budget: int | None = None,
) -> FiberReport:
    """Check the stratum fiber dimension against the bundle-rank formula.

    Samples flag pairs over the representations' prime field and computes the
    Hom space from the quotient-side flag subrepresentation into the quotient
    of the sub-side embedding; every sample must equal the predicted rank.
    """
    if v_rep.quiver != w_rep.quiver or v_rep.field != w_rep.field:
        raise InputError("representations must share a quiver and a field")
    if not isinstance(v_rep.field, PrimeField):
        raise InputError("fiber verification works over a prime field")
    if sub_flag.d != quot_flag.d:
        raise InputError("flag types of different lengths")
    e = ext1_dim(w_rep, v_rep)
    if e:
        raise InputError(f"precondition Ext^1(W, V) = 0 fails: dimension {e}")
    expected = stratum_rank(v_rep.quiver, quot_flag, sub_flag)
    sub_count = count_flags(v_rep, sub_flag, budget)
    quot_count = count_flags(w_rep, quot_flag, budget)
    rng = random.Random(seed)
    v_pool = sample_flags(v_rep, sub_flag, samples, rng, sub_count)
    w_pool = sample_flags(w_rep, quot_flag, samples, rng, quot_count)
    fiber_dims = []
    deviations = []
    for v_point, w_point in zip(v_pool, w_pool):
        w_sub = flag_to_subrep(w_rep, w_point)
        v_quot = quotient_by_flag(v_rep, v_point)
        dim = hom_dim_rep0(w_sub, v_quot)
        fiber_dims.append(dim)
        if dim != expected:
            v_dims, w_dims = (tuple(tuple(map(len, s)) for s in pt) for pt in (v_point, w_point))
            deviations.append(
                f"fiber dimension {dim} != rank {expected} at flags {v_dims} / {w_dims}"
            )
    return FiberReport(
        prime=v_rep.field.p,
        expected_rank=expected,
        fiber_dims=tuple(fiber_dims),
        deviations=tuple(deviations),
        sub_flag_count=sub_count,
        quot_flag_count=quot_count,
    )
