"""The hot paths leave no reference cycles: each call below, on inputs no
cache has seen, frees everything it made by reference counting alone, so
the cyclic collector finds nothing afterwards."""

import gc

import pytest

from flagmann import (
    QQ,
    FlagType,
    PrimeField,
    Quiver,
    RootMultiset,
    build_rep,
    count_flags,
    enumerate_flags,
    flag_types,
    indecomposable_for_root,
    poincare,
    positive_roots,
)


def fresh_d4(tag: str) -> Quiver:
    """A D4 quiver whose vertex names no other test uses, so every cache misses."""
    v = tuple(f"gc-{tag}-{i}" for i in range(4))
    return Quiver(v, ((v[0], v[1]), (v[2], v[1]), (v[3], v[1])))


def multiset(quiver: Quiver) -> RootMultiset:
    return RootMultiset(quiver, (((1, 1, 1, 1), 2), ((0, 1, 1, 1), 1), ((1, 1, 0, 0), 1)))


CALLS = {
    "indecomposable_for_root": lambda q: [
        indecomposable_for_root(q, root, field)
        for field in (QQ, PrimeField(3))
        for root in positive_roots(q)
    ],
    "count_flags_2_steps": lambda q: count_flags(
        build_rep(multiset(q), PrimeField(3)), FlagType(((1, 2, 1, 1), (3, 4, 3, 3)))
    ),
    "count_flags_3_steps": lambda q: count_flags(
        build_rep(multiset(q), PrimeField(3)),
        FlagType(((1, 1, 0, 1), (2, 3, 2, 2), (3, 4, 3, 3))),
    ),
    "enumerate_flags": lambda q: list(
        enumerate_flags(
            build_rep(multiset(q), PrimeField(2)),
            FlagType(((1, 1, 0, 1), (2, 3, 2, 2), (3, 4, 3, 3))),
        )
    ),
    "poincare": lambda q: poincare(
        multiset(q), FlagType(((1, 1, 0, 1), (2, 3, 2, 2), (3, 4, 3, 3)))
    ),
    "flag_types": lambda q: list(flag_types((2, 2, 1, 1), 3)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_leaves_no_cyclic_garbage(name):
    quiver = fresh_d4(name)
    gc.collect()
    gc.disable()
    try:
        result = CALLS[name](quiver)
        found = gc.collect()
    finally:
        gc.enable()
    assert result
    assert found == 0, f"{name} left {found} objects that only the cyclic collector frees"
