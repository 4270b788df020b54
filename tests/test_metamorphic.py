"""Relations every answer obeys, checked without the oracle's help.

Duality: DV, the dual of V on the opposite quiver, has each map transposed;
a flag U_1 <= ... <= U_d = V goes to its annihilators, a flag of type
u* = (top - u_{d-1}, ..., top - u_1, top) in DV.  The dual of a root's
indecomposable is the opposite quiver's one for the same root, so oracle
counts and recursion polynomials both obey it.

Palindromy: a nonempty flag variety of a rigid representation is smooth and
projective of dimension `rigid_dimension`, so its count polynomial is
palindromic of that degree.

Order independence: the recursion may peel the summands off in any order
with Ext^1(earlier, later) = 0; each such order gives the same polynomial.

Zero and repeated steps: a flag of type (0; a; a; b) is a flag of type
(a; b), so both memos key the two as one variety; the enumeration keeps
every raw step and is the reference for both.

F-polynomials: the F-polynomial of an indecomposable M, made from the
quiver's arrows alone by cluster mutation, has the Euler characteristic of
the quiver Grassmannian Gr_e(M) as its coefficient of y^(dim M - e), and F
is multiplicative on direct sums.  The Euler characteristic is the cell
count at q = 1, so this witness uses no field at all."""

import importlib
import operator
import random
from itertools import product

import pytest

from flagmann import QQ, FlagType, PoincareEngine, PoincarePolynomial, PrimeField, Quiver
from flagmann import Representation, RootMultiset, build_rep, count_flags, counting
from flagmann import directed_order, enumerate_flags, poincare, positive_roots
from flagmann import ext1_dim, indecomposable_for_root, rigid_dimension
from flagmann.errors import BudgetExceededError

from helpers import all_orientations, f_polynomials, poly_mul, quiver_a, quiver_d, quiver_e
from helpers import random_instance


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
            assert len(poly.coefficients) - 1 == rigid_dimension(ms.quiver, u), (ms, u)
            nonempty += 1
            several += len(ms.expand()) >= 2
    assert cases == 240 and nonempty >= 180 and several >= 50


def last_first_order(ms: RootMultiset) -> tuple:
    """A second directed order: place, again and again, the last remaining
    root in canonical order that has no Ext^1 into another remaining root."""
    indec = {root: indecomposable_for_root(ms.quiver, root, QQ) for root, _ in ms.items}
    left = list(indec)
    placed = []
    while left:
        pick = next(
            a for a in reversed(left)
            if not any(b != a and ext1_dim(indec[a], indec[b]) for b in left)
        )
        placed.append(pick)
        left.remove(pick)
    return tuple(placed)


def test_directed_order_does_not_matter():
    # a fresh engine on each side, so neither reads the other's memo; an
    # instance over budget on either side is counted, as the budget outcome
    # may depend on the order
    rng = random.Random(1909)
    cases = reordered = over_budget = 0
    for base in (quiver_a(5), quiver_d(5), quiver_d(6), quiver_e(6), quiver_e(7), quiver_e(8)):
        stop = cases + 70
        while cases < stop:
            ms, u = random_instance(rng, base)
            if sum(ms.total) > 8:
                continue
            cases += 1
            order = last_first_order(ms)
            reordered += order != directed_order(ms)
            seq = tuple(sorted(ms.expand(), key=order.index))
            try:
                lhs = PoincareEngine(ms.quiver)._poincare_seq(seq, u.steps)
                rhs = PoincareEngine(ms.quiver).poincare(ms, u)
            except BudgetExceededError:
                over_budget += 1
                continue
            assert PoincarePolynomial(lhs) == rhs, (ms, u, order)
    assert cases == 420 and reordered >= 120 and over_budget <= 5


def padded(u: FlagType, rng) -> list[FlagType]:
    """The variety of `u` written with a leading zero step, with a repeated
    interior step, with a repeated last step, and with all three."""
    steps, top = u.steps, u.weight
    if u.d > 1:
        i = rng.randrange(u.d - 1)
        interior = steps[: i + 1] + steps[i:]
    else:
        mid = tuple(rng.randint(0, x) for x in top)
        interior = (mid, mid, top)
    zero = (0,) * len(top)
    return [
        FlagType((zero,) + steps),
        FlagType(interior),
        FlagType(steps + (top,)),
        FlagType((zero,) + interior + (top,)),
    ]


def test_zero_and_repeated_steps_match_the_raw_enumeration():
    # a fresh engine per flag, so each answer is computed from its own steps
    rng = random.Random(21)
    cases = nonzero = 0
    for base in (quiver_a(2), quiver_a(3), quiver_d(4)):
        stop = cases + 12
        while cases < stop:
            ms, u = random_instance(rng, base)
            if sum(ms.total) > 5:
                continue
            cases += 1
            for v in padded(u, rng):
                poly = PoincareEngine(ms.quiver).poincare(ms, v)
                for p in (2, 3):
                    rep = build_rep(ms, PrimeField(p))
                    points = len(list(enumerate_flags(rep, v)))
                    assert count_flags(rep, v) == poly.evaluate(p) == points, (ms, v, p)
                    nonzero += points > 0
    assert cases == 36 and nonzero >= 200


def test_a_padded_flag_is_one_memo_entry(monkeypatch):
    # (0; a; a; b) after (a; b): no recursion entry, no oracle call or
    # count memo entry; (0; root), (root; root) after (root): no base case
    quiver = quiver_d(4)
    ms = RootMultiset(quiver, (((0, 1, 0, 0), 1), ((1, 1, 1, 1), 1)))
    a, b = (0, 1, 0, 0), ms.total
    zero = (0, 0, 0, 0)
    calls = []

    def counted(rep, u, budget=None):
        calls.append(u.steps)
        return count_flags(rep, u, budget)

    monkeypatch.setattr(importlib.import_module("flagmann.poincare"), "count_flags", counted)
    eng = PoincareEngine(quiver)
    plain = eng.poincare(ms, FlagType((a, b)))
    entries, made = len(eng._poly), len(calls)
    assert made and eng.poincare(ms, FlagType((zero, a, a, b))) == plain
    assert (len(eng._poly), len(calls)) == (entries, made)

    root = (1, 1, 1, 1)
    point = eng.base_case(root, FlagType((root,)))
    entries, made = len(eng._poly), len(calls)
    for steps in ((zero, root), (root, root)):
        assert eng.base_case(root, FlagType(steps)) == point
    assert (len(eng._poly), len(calls)) == (entries, made)

    monkeypatch.setattr(counting, "_counters", {})
    rep = build_rep(ms, PrimeField(3))
    n = count_flags(rep, FlagType((a, b)))
    memo = counting._counter(rep, FlagType((a, b))).memo
    entries = len(memo)
    assert count_flags(rep, FlagType((zero, a, a, b))) == n == plain.evaluate(3)
    assert len(memo) == entries


def test_base_cases_match_f_polynomials():
    # every (root, e) pair of every orientation of A3, A4 and D4, and of the
    # standard D5 and E6: 3,354 pairs
    quivers = [
        *all_orientations(quiver_a(3)),
        *all_orientations(quiver_a(4)),
        *all_orientations(quiver_d(4)),
        quiver_d(5),
        quiver_e(6),
    ]
    pairs = 0
    for quiver in quivers:
        roots = positive_roots(quiver)
        fpolys = f_polynomials(quiver, roots)
        eng = PoincareEngine(quiver)
        for root in roots:
            for e in product(*(range(x + 1) for x in root)):
                chi = eng.base_case(root, FlagType((e, root))).evaluate(1)
                top = tuple(map(operator.sub, root, e))
                assert chi == fpolys[root].get(top, 0), (quiver.arrows, root, e)
                pairs += 1
    assert pairs == 3354


def test_direct_sums_match_products_of_f_polynomials():
    # 100 seeded D5 and E6 multisets of 2-4 summands, of total dimension up
    # to 25; 30 seeded e each, or every e of a smaller box
    rng = random.Random(1909)
    pairs, largest = 0, 0
    for quiver in (quiver_d(5), quiver_e(6)):
        roots = positive_roots(quiver)
        fpolys = f_polynomials(quiver, roots)
        for _ in range(50):
            drawn = tuple(rng.choice(roots) for _ in range(rng.randint(2, 4)))
            ms = RootMultiset.from_roots(quiver, drawn)
            fpoly = {(0,) * quiver.n: 1}
            for root in drawn:
                fpoly = poly_mul(fpoly, fpolys[root])
            total = ms.total
            box = list(product(*(range(x + 1) for x in total)))
            for e in rng.sample(box, min(30, len(box))):
                chi = poincare(ms, FlagType((e, total))).evaluate(1)
                top = tuple(map(operator.sub, total, e))
                assert chi == fpoly.get(top, 0), (quiver.arrows, ms.items, e)
                pairs += 1
            largest = max(largest, sum(total))
    assert (pairs, largest) == (2720, 25)
