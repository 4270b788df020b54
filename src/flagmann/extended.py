"""The layered quiver picture of flags.

A depth-d extension of a quiver repeats it in d layers joined by vertical
arrows.  Representations whose layer squares commute form the category where
a flag in V becomes an honest subrepresentation of the layer-constant
embedding of V, and where the fiber of a stratum over a pair of flags is a
Hom space computable by exact linear algebra.  That computation is what this
module provides, together with a sampling verifier for the bundle-rank
formula.  A flag is the step tuple `enumerate_flags` yields, already
canonical, arrow-stable and nested; the verifier builds its sub and quotient
from the embedding's row tuples without checking the point again.  The
embedding itself is not checked, as each of its squares reads
V_h * 1 = 1 * V_h; only the result is, as a representation whose layer
squares must commute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .counting import count_flags, sample_flags
from .errors import InputError
from .linalg import PrimeField, identity_rows, mat_mul_rows
from .quiver import FlagType, Quiver
from .reps import Representation, ext1_dim, hom_dim, quotient_maps, sub_maps
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
    ext, v_dims, v_maps = _embedding(v_rep, sub_flag.d)
    _, _, w_maps = _embedding(w_rep, sub_flag.d)
    arrows, p = ext.quiver.arrow_indices, v_rep.field.p

    def layered(dims, maps):
        return Rep0Representation(ext, Representation(ext.quiver, v_rep.field, dims, maps))

    fiber_dims = []
    deviations = []
    for v_point, w_point in zip(v_pool, w_pool):
        # a point from `enumerate_flags` needs no check; its sub and quotient do
        w_sub = layered(*sub_maps(arrows, w_maps, sum(w_point, ()), p))
        v_quot = layered(*quotient_maps(arrows, v_dims, v_maps, sum(v_point, ()), p))
        dim = hom_dim_rep0(w_sub, v_quot)
        fiber_dims.append(dim)
        if dim != expected:
            v_steps, w_steps = (tuple(tuple(map(len, s)) for s in pt) for pt in (v_point, w_point))
            deviations.append(
                f"fiber dimension {dim} != rank {expected} at flags {v_steps} / {w_steps}"
            )
    return FiberReport(
        prime=v_rep.field.p,
        expected_rank=expected,
        fiber_dims=tuple(fiber_dims),
        deviations=tuple(deviations),
        sub_flag_count=sub_count,
        quot_flag_count=quot_count,
    )
