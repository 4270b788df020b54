"""Relations every answer obeys, checked without the oracle's help.

Duality: DV, the dual of V on the opposite quiver, has each map transposed;
a flag U_1 <= ... <= U_d = V goes to its annihilators, a flag of type
u* = (top - u_{d-1}, ..., top - u_1, top) in DV.  The dual of a root's
indecomposable is the opposite quiver's one for the same root, so oracle
counts and recursion polynomials both obey it.

Palindromy: a nonempty flag variety of a rigid representation is smooth and
projective of dimension `rigid_dimension`, so its count polynomial is
palindromic of that degree."""

import random

import pytest

from flagmann import QQ, FlagType, PoincareEngine, PrimeField, Quiver, Representation, RootMultiset
from flagmann import build_rep, count_flags, ext1_dim, rigid_dimension

from helpers import quiver_a, quiver_d, quiver_e, random_instance


def opposite(quiver: Quiver) -> Quiver:
    return Quiver(quiver.vertices, tuple((t, s) for s, t in quiver.arrows))


def dual(rep: Representation) -> Representation:
    # rows from the dims: a map with no rows becomes dims[s] empty rows
    maps = tuple(
        tuple(tuple(m[r][c] for r in range(rep.dims[t])) for c in range(rep.dims[s]))
        for (s, t), m in zip(rep.quiver.arrow_indices, rep.maps)
    )
    return Representation(opposite(rep.quiver), rep.field, rep.dims, maps)


def dual_type(u: FlagType) -> FlagType:
    top = u.weight
    steps = [tuple(t - x for t, x in zip(top, step)) for step in reversed(u.steps[:-1])]
    return FlagType((*steps, top))


def instances(seed: int, bases, per_base: int):
    """Seeded instances of 1-4 summands on random orientations of each base,
    total dimension at most 7."""
    rng = random.Random(seed)
    out = []
    for base in bases:
        stop = len(out) + per_base
        while len(out) < stop:
            ms, u = random_instance(rng, base)
            if sum(ms.total) <= 7:
                out.append((ms, u))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_oracle_counts_agree_with_the_dual(p):
    bases = (quiver_a(5), quiver_d(5), quiver_d(6), quiver_e(6), quiver_e(7))
    nonzero = 0
    for ms, u in instances(p, bases, 40):
        rep = build_rep(ms, PrimeField(p))
        n = count_flags(rep, u)
        assert count_flags(dual(rep), dual_type(u)) == n, (ms, u)
        nonzero += n > 0
    assert nonzero >= 150


def test_recursion_agrees_with_the_dual():
    # a fresh engine on each side, so neither reads the other's memo
    cases = nonzero = 0
    for ms, u in instances(7, (quiver_a(5), quiver_d(5), quiver_e(6)), 40):
        op = opposite(ms.quiver)
        lhs = PoincareEngine(ms.quiver).poincare(ms, u)
        rhs = PoincareEngine(op).poincare(RootMultiset(op, ms.items), dual_type(u))
        assert lhs == rhs, (ms, u)
        cases += 1
        nonzero += not lhs.is_zero
    assert cases == 120 and nonzero >= 100


def test_rigid_answers_are_palindromic_of_rigid_dimension():
    # rigidity read off Ext^1(V, V) over Q, not from the engine; a fresh
    # engine per draw, so every answer is computed from scratch
    rng = random.Random(20190)
    cases = nonempty = several = 0
    for base in (quiver_a(5), quiver_d(5), quiver_d(6), quiver_e(6), quiver_e(7), quiver_e(8)):
        stop = cases + 40
        while cases < stop:
            ms, u = random_instance(rng, base)
            if sum(ms.total) > 8:
                continue
            rep = build_rep(ms, QQ)
            if ext1_dim(rep, rep):
                continue
            cases += 1
            poly = PoincareEngine(ms.quiver).poincare(ms, u)
            if poly.is_zero:
                continue
            assert poly.coefficients == poly.coefficients[::-1], (ms, u)
            assert poly.degree == rigid_dimension(ms.quiver, u), (ms, u)
            nonempty += 1
            several += len(ms.expand()) >= 2
    assert cases == 240 and nonempty >= 180 and several >= 50
