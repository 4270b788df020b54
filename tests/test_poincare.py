"""The polynomial engine: splittings, ranks, directed order, base cases,
and oracle equivalence of the full recursion on small sweeps."""

import hashlib
import importlib
import random
import sys
from itertools import combinations, product

import pytest

from flagmann import (
    FlagType,
    PoincareEngine,
    PoincarePolynomial,
    PrimeField,
    Quiver,
    RootMultiset,
    build_rep,
    count_flags,
    directed_order,
    engine_for,
    enumerate_splittings,
    euler_form,
    flag_types,
    poincare,
    positive_roots,
    rigid_dimension,
    stratum_rank,
)
from flagmann.counting import candidate_estimate
from flagmann.errors import (
    BudgetExceededError,
    InputError,
    UnsupportedQuiverError,
    VerificationError,
)
from flagmann.quiver import flag_differences

from helpers import (
    all_orientations,
    multisets_upto,
    quiver_a,
    quiver_d,
    quiver_e,
    random_instance,
)

A2 = quiver_a(2)
ONE = Quiver(("x",), ())


class TestPolynomial:
    def test_canonical_form(self):
        assert PoincarePolynomial((1, 0, 0)).coefficients == (1,)
        assert PoincarePolynomial((0, 0)).is_zero

    def test_arithmetic(self):
        # sums, products and shifts happen on coefficient tuples inside the
        # recursion, checked by the oracle-equivalence tests below
        assert PoincarePolynomial((1, 1)).evaluate(3) == 4
        assert PoincarePolynomial((1, 2, 2, 1)).evaluate(2) == 21  # complete flags in F_2^3
        assert PoincarePolynomial.zero().evaluate(5) == 0

    def test_factor_binomial(self):
        m, rest = PoincarePolynomial((1, 2, 1)).factor_binomial()
        assert (m, rest.coefficients) == (2, (1,))
        m, rest = PoincarePolynomial((1, 2, 2, 1)).factor_binomial()
        assert m == 1 and rest.coefficients == (1, 1, 1)
        m, rest = PoincarePolynomial((1, 0, 1)).factor_binomial()
        assert m == 0
        # a quotient of one coefficient leaves a nonzero remainder next time
        m, rest = PoincarePolynomial((1, 1)).factor_binomial()
        assert (m, rest.coefficients) == (1, (1,))
        m, rest = PoincarePolynomial((3,)).factor_binomial()
        assert (m, rest.coefficients) == (0, (3,))

    def test_format(self):
        assert PoincarePolynomial((1, 2, 2, 1)).format_coefficients() == "1 2 2 1"
        assert PoincarePolynomial.zero().format_coefficients() == "0"
        assert str(PoincarePolynomial((1, 1))) == "1 + q"
        assert str(PoincarePolynomial((1, 0, 1))) == "1 + q^2"


class TestStratumRank:
    def test_single_step_is_zero(self):
        assert stratum_rank(A2, FlagType(((1, 0),)), FlagType(((0, 1),))) == 0

    def test_a2_worked_example(self):
        v = FlagType(((0, 1), (1, 1)))
        w = FlagType(((1, 0), (1, 0)))
        assert stratum_rank(A2, w, v) == 1

    def test_one_vertex(self):
        v = FlagType(((1,), (2,)))
        w = FlagType(((0,), (1,)))
        assert stratum_rank(ONE, w, v) == 0

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            stratum_rank(A2, FlagType(((1, 0),)), FlagType(((0, 1), (1, 1))))

    def test_wrong_width(self):
        with pytest.raises(InputError):
            stratum_rank(A2, FlagType(((0,), (1,))), FlagType(((1,), (1,))))
        with pytest.raises(InputError):
            rigid_dimension(A2, FlagType(((0, 0, 1), (1, 1, 1))))


class TestRigidDimension:
    def test_complete_flag_dim3(self):
        assert rigid_dimension(ONE, FlagType(((1,), (2,), (3,)))) == 3

    def test_trivial_flag(self):
        assert rigid_dimension(A2, FlagType(((1, 1),))) == 0

    def test_a2_example(self):
        assert rigid_dimension(A2, FlagType(((0, 1), (1, 1)))) == 0


def _monotone(steps):
    return all(x <= y for a, b in zip(steps, steps[1:]) for x, y in zip(a, b))


def _reference_splittings(quiver, u, sub_total):
    """Every (v, w, rank) with v + w = u step by step and v ending at
    sub_total, both sides monotone, found by brute force and ordered from the
    top step down; the rank is the double sum over r < t of <wbar_r, vbar_t>."""
    boxes = [product(*(range(x + 1) for x in step)) for step in u.steps[:-1]]
    out = []
    for lower in product(*boxes):
        v_steps = lower + (sub_total,)
        w_steps = tuple(
            tuple(a - b for a, b in zip(us, vs)) for us, vs in zip(u.steps, v_steps)
        )
        if min(min(s) for s in w_steps) < 0:
            continue
        if not (_monotone(v_steps) and _monotone(w_steps)):
            continue
        wbar = flag_differences(FlagType(w_steps))
        vbar = flag_differences(FlagType(v_steps))
        rank = sum(
            euler_form(quiver, wbar[r], vbar[t])
            for r in range(u.d - 1)
            for t in range(r + 1, u.d)
        )
        out.append((v_steps, w_steps, rank))
    out.sort(key=lambda split: split[0][-2::-1])
    return out


def _splitting_cases():
    """(quiver, u, sub_total, quot_total) draws, seeded.

    Every orientation of A3 and D4 with every weight of total <= 5 and
    entries <= 3, three draws of a flag type and a sub/quotient cut for each
    flag length 1..3; then 300 draws over random E6 orientations.
    """
    rng = random.Random(1909)

    def flag(weight, d):
        columns = [sorted(rng.randint(0, x) for _ in range(d - 1)) + [x] for x in weight]
        return FlagType(tuple(zip(*columns)))

    def case(quiver, weight, d):
        sub_total = tuple(rng.randint(0, x) for x in weight)
        quot_total = tuple(x - s for x, s in zip(weight, sub_total))
        return quiver, flag(weight, d), sub_total, quot_total

    for base in (quiver_a(3), quiver_d(4)):
        for quiver in all_orientations(base):
            for weight in product(range(4), repeat=quiver.n):
                if sum(weight) <= 5:
                    for d in (1, 2, 3) * 3:
                        yield case(quiver, weight, d)
    e6 = list(all_orientations(quiver_e(6)))
    for _ in range(300):
        weight = tuple(rng.randint(0, 2) for _ in range(6))
        yield case(rng.choice(e6), weight, rng.randint(1, 3))


class TestSplittings:
    def test_one_vertex_example(self):
        u = FlagType(((1,), (2,)))
        splits = enumerate_splittings(ONE, u.steps, (1,))
        subs = sorted(sub for sub, _, _ in splits)
        assert subs == [((0,), (1,)), ((1,), (1,))]

    def test_constant_flag_forces_constant_splits(self):
        u = FlagType(((1, 1), (1, 1)))
        splits = enumerate_splittings(A2, u.steps, (0, 1))
        assert len(splits) == 1
        assert splits[0][0] == ((1, 0), (1, 0))

    def test_zero_quotient_single_split(self):
        u = FlagType(((0, 1), (1, 1)))
        splits = enumerate_splittings(A2, u.steps, (0, 0))
        assert len(splits) == 1
        assert splits[0][1] == ((0, 0), (0, 0))

    def test_complement_and_monotone(self):
        cases = [(A2, FlagType(((1, 1), (2, 1), (2, 2))), (1, 1), (1, 1))]
        for quiver, u, sub_total, quot_total in cases + list(_splitting_cases()):
            for v, w, _ in enumerate_splittings(quiver, u.steps, quot_total):
                assert v[-1] == sub_total and w[-1] == quot_total
                for vs, ws, us in zip(v, w, u.steps):
                    assert tuple(a + b for a, b in zip(vs, ws)) == us
                assert min(min(s) for s in v + w) >= 0
                assert _monotone(v) and _monotone(w)

    def test_same_splits_as_reference(self):
        for quiver, u, sub_total, quot_total in _splitting_cases():
            got = enumerate_splittings(quiver, u.steps, quot_total)
            want = _reference_splittings(quiver, u, sub_total)
            assert list(got) == want, (
                quiver.arrows,
                u.steps,
                sub_total,
            )
            for sub, quot, rank in got:
                assert stratum_rank(quiver, FlagType(quot), FlagType(sub)) == rank

    def test_bad_totals(self):
        u = FlagType(((0, 1), (1, 1)))
        for quot_total in (
            (1, 0, 0),  # wrong length
            (1,),
            (-1, 0),  # negative entry
            (0, 2),  # above the weight (1, 1)
        ):
            with pytest.raises(InputError):
                enumerate_splittings(A2, u.steps, quot_total)


class TestDirectedOrder:
    def test_a2_example(self):
        ms = RootMultiset(A2, (((1, 0), 1), ((0, 1), 1), ((1, 1), 1)))
        # canonical input order is (0,1), (1,0), (1,1); S1 must follow S2
        assert directed_order(ms) == ((0, 1), (1, 0), (1, 1))

    def test_single_root(self):
        ms = RootMultiset(A2, (((1, 1), 1),))
        assert directed_order(ms) == ((1, 1),)

    def test_stability_when_no_constraints(self):
        ms = RootMultiset(A2, (((0, 1), 1), ((1, 1), 1)))
        assert directed_order(ms) == ((0, 1), (1, 1))

    def test_order_property(self):
        from flagmann import QQ, ext1_dim, indecomposable_for_root

        for quiver in (quiver_a(3), quiver_d(4)):
            ms = RootMultiset.from_roots(quiver, positive_roots(quiver))
            order = directed_order(ms)
            reps = [indecomposable_for_root(quiver, r, QQ) for r in order]
            for i in range(len(order)):
                for j in range(i, len(order)):
                    assert ext1_dim(reps[i], reps[j]) == 0

    def test_small_multisets_digest(self):
        # sha256 of the order of every multiset of at most 3 distinct roots
        # on every A4 and D4 orientation and one E6 orientation, recorded
        # before the topological sort lost its in-degree tables
        quivers = [*all_orientations(quiver_a(4)), *all_orientations(quiver_d(4)), quiver_e(6)]
        h = hashlib.sha256()
        for quiver in quivers:
            roots = positive_roots(quiver)
            for k in (1, 2, 3):
                for subset in combinations(roots, k):
                    order = directed_order(RootMultiset.from_roots(quiver, subset))
                    h.update(repr((quiver.arrows, order)).encode())
        assert h.hexdigest() == (
            "5cc8d1e010bedc14130ea82b0def8367801007123d4e1e86bc5934b878a77397"
        )

    def test_cycle_is_unsupported(self, monkeypatch):
        monkeypatch.setattr(importlib.import_module("flagmann.poincare"), "_ext1_roots", lambda *a: 1)
        ms = RootMultiset(A2, (((0, 1), 1), ((1, 1), 1)))
        with pytest.raises(UnsupportedQuiverError, match="cycle"):
            directed_order(ms)


class TestBaseCases:
    def test_type_a_values(self):
        eng = engine_for(A2)
        assert eng.base_case((1, 1), FlagType(((0, 1), (1, 1)))).coefficients == (1,)
        assert eng.base_case((1, 1), FlagType(((1, 0), (1, 1)))).is_zero
        one_a = engine_for(quiver_a(1))
        assert one_a.base_case((1,), FlagType(((1,),))).coefficients == (1,)

    def test_type_d_values(self):
        d4 = engine_for(quiver_d(4))
        high = (1, 2, 1, 1)
        line_flag = FlagType(((0, 1, 0, 0), high))
        assert d4.base_case(high, line_flag).coefficients == (1, 1)
        assert d4.base_case(high, FlagType((high,))).coefficients == (1,)
        small = (1, 1, 0, 0)
        assert d4.base_case(small, FlagType(((0, 1, 0, 0), small))).coefficients == (1,)

    def test_interpolation_matches_known_cases(self):
        ms = RootMultiset(ONE, (((1,), 2),))
        u = FlagType(((1,), (2,)))
        assert engine_for(ONE).base_case_rigid_interpolation(ms, u).coefficients == (1, 1)
        d4 = quiver_d(4)
        msd = RootMultiset(d4, (((1, 2, 1, 1), 1),))
        ud = FlagType(((0, 1, 0, 0), (1, 2, 1, 1)))
        assert engine_for(d4).base_case_rigid_interpolation(msd, ud).coefficients == (1, 1)

    @pytest.mark.parametrize(
        "copies, steps, expected",
        [
            (4, ((2,), (4,)), (1, 1, 2, 1, 1)),  # Gr(2, 4): D = 4, counts at 2, 3, 5
            (4, ((1,), (2,), (3,), (4,)), (1, 3, 5, 6, 5, 3, 1)),  # complete flags
            (5, ((2,), (5,)), (1, 1, 2, 2, 2, 1, 1)),  # Gr(2, 5): D = 6, up to 7
        ],
        ids=["gr24", "complete4", "gr25"],
    )
    def test_interpolation_fits_grassmannians(self, copies, steps, expected):
        ms = RootMultiset(ONE, (((1,), copies),))
        poly = PoincareEngine(ONE).base_case_rigid_interpolation(ms, FlagType(steps))
        assert poly.coefficients == expected

    @pytest.mark.parametrize(
        "counted, top, match",
        [
            ((1, 2), 2, "gives"),  # not palindromic: P = 1 + q fails at q = 2
            ((2, 2), 2, "gives"),  # constant term 2
            ((2, 0, 1), 3, "not a nonnegative integer"),  # c_1 = 1/2
            ((1, -1, 1), 3, "not a nonnegative integer"),  # c_1 = -1
            ((-2, 1), 1, "0 at q = 2 but 1 at q = 3"),  # q - 2: empty over F_2 only
        ],
        ids=["asymmetric", "constant-2", "non-integral", "negative", "empty-at-2-only"],
    )
    def test_interpolation_rejects_bad_counts(self, counted, top, match, monkeypatch):
        # P^1 (D = 1) or P^2 (D = 2) over A1, with counts from a wrong polynomial
        eng = PoincareEngine(ONE)

        def count(ms, u, q):
            return sum(c * q**i for i, c in enumerate(counted))

        monkeypatch.setattr(eng, "count", count)
        ms = RootMultiset(ONE, (((1,), top),))
        with pytest.raises(VerificationError, match=match):
            eng.base_case_rigid_interpolation(ms, FlagType(((1,), (top,))))

    def test_interpolation_trivial_flag(self):
        ms = RootMultiset(ONE, (((1,), 3),))
        poly = engine_for(ONE).base_case_rigid_interpolation(ms, FlagType(((3,),)))
        assert poly.coefficients == (1,)

    def test_interpolation_rejects_non_rigid(self):
        ms = RootMultiset(A2, (((1, 0), 1), ((0, 1), 1)))
        with pytest.raises(InputError):
            engine_for(A2).base_case_rigid_interpolation(ms, FlagType(((1, 1),)))

    def test_interpolation_budget_names_instance(self):
        ms = RootMultiset(ONE, (((1,), 4),))
        u = FlagType(((1,), (2,), (3,), (4,)))
        with pytest.raises(BudgetExceededError, match="out of desk range"):
            PoincareEngine(ONE, budget=2).base_case_rigid_interpolation(ms, u)


class TestPoincare:
    def test_grassmannian_of_plane(self):
        ms = RootMultiset(ONE, (((1,), 2),))
        assert poincare(ms, FlagType(((1,), (2,)))).coefficients == (1, 1)

    def test_complete_flags_dim3(self):
        ms = RootMultiset(ONE, (((1,), 3),))
        got = poincare(ms, FlagType(((1,), (2,), (3,))))
        assert got.coefficients == (1, 2, 2, 1)

    def test_a2_unconstrained_line(self):
        ms = RootMultiset(A2, (((1, 1), 1), ((0, 1), 1)))
        assert poincare(ms, FlagType(((0, 1), (1, 2)))).coefficients == (1, 1)

    def test_a2_empty(self):
        ms = RootMultiset(A2, (((1, 1), 1),))
        assert poincare(ms, FlagType(((1, 0), (1, 1)))).is_zero

    def test_weight_mismatch(self):
        ms = RootMultiset(A2, (((1, 1), 1),))
        with pytest.raises(InputError):
            poincare(ms, FlagType(((1, 0), (2, 1))))

    def test_multiset_of_another_quiver(self):
        ms = RootMultiset(quiver_a(2, [1]), (((1, 1), 1),))
        with pytest.raises(InputError, match="^multiset belongs to a different quiver$"):
            engine_for(A2).poincare(ms, FlagType(((1, 1),)))

    def test_deep_summand_recursion_is_a_budget_error(self):
        # a count just under the limit passes the up-front guard; the frames
        # above the recursion tip it over, and that is a budget error too
        n = sys.getrecursionlimit() - 1
        ms = RootMultiset(ONE, (((1,), n),))
        with pytest.raises(
            BudgetExceededError, match="^recursion deeper than the interpreter allows$"
        ):
            PoincareEngine(ONE).poincare(ms, FlagType(((n,),)))

    def test_non_dynkin_is_unsupported(self):
        kronecker = Quiver(("a", "b"), (("a", "b"), ("a", "b")))
        with pytest.raises(
            UnsupportedQuiverError, match="^the recursion needs a Dynkin quiver$"
        ):
            engine_for(kronecker)

    def test_oracle_equivalence_small(self):
        # a rank <= 4 cross-section of the big acceptance sweep, at q = 5 too
        for quiver, max_total, d_max in (
            (A2, 4, 3),
            (quiver_a(4), 4, 3),
            (quiver_d(4), 4, 2),
        ):
            eng = PoincareEngine(quiver)
            roots = positive_roots(quiver)
            for ms in multisets_upto(quiver, roots, 2, max_total):
                for u in flag_types(ms.total, d_max):
                    poly = eng.poincare(ms, u)
                    for q in (2, 3, 5):
                        assert poly.evaluate(q) == eng.count(ms, u, q)

    def test_any_valid_order_gives_same_result(self):
        quiver = quiver_a(3)
        eng = PoincareEngine(quiver)
        ms = RootMultiset.from_roots(quiver, [(1, 0, 0), (0, 1, 1), (1, 1, 1)])
        u = FlagType(((1, 1, 0), (2, 2, 2)))
        reference = eng.poincare(ms, u)
        from flagmann import QQ, ext1_dim, indecomposable_for_root
        from itertools import permutations

        seqs = 0
        for perm in permutations(ms.expand()):
            reps = [indecomposable_for_root(quiver, r, QQ) for r in perm]
            valid = all(
                ext1_dim(reps[i], reps[j]) == 0
                for i in range(len(perm))
                for j in range(i, len(perm))
            )
            if valid:
                seqs += 1
                assert eng._poincare_seq(perm, u.steps) == reference.coefficients
        assert seqs >= 2

    def test_random_quivers_match_counts(self):
        # seeded differential sweep beyond the fixed A2/A3/D4 ones: random
        # orientations of A4, A5, D5, D6 and E6, random root multisets and
        # flag types, the recursion against the oracle at q = 2 and 3, and
        # every nonempty rigid result palindromic with constant term 1
        rng = random.Random(2019)
        shapes = (quiver_a(4), quiver_a(5), quiver_d(5), quiver_d(6), quiver_e(6))
        cases = recursed = rigid = 0
        while cases < 400:
            ms, u = random_instance(rng, shapes[cases % 5])
            reps = [build_rep(ms, PrimeField(q)) for q in (2, 3)]
            # small enough to count quickly, and far inside the default budget
            if candidate_estimate(reps[1], u) > 20000:
                continue
            poly = poincare(ms, u)
            for q, rep in zip((2, 3), reps):
                assert poly.evaluate(q) == count_flags(rep, u), (ms.quiver, ms.items, u.steps)
            if not poly.is_zero and engine_for(ms.quiver).multiset_is_rigid(ms):
                assert len(poly.coefficients) - 1 == rigid_dimension(ms.quiver, u)
                # smooth and paved by affines: palindromic, one 0-cell
                assert poly.coefficients == poly.coefficients[::-1]
                assert poly.coefficients[0] == 1
                rigid += 1
            recursed += len(ms.expand()) > 1 and not poly.is_zero
            cases += 1
        assert recursed >= 200 and rigid >= 100

    def test_nonnegative_and_constant_term(self):
        quiver = quiver_d(4)
        eng = PoincareEngine(quiver)
        roots = positive_roots(quiver)
        for ms in multisets_upto(quiver, roots, 2, 4):
            for u in flag_types(ms.total, 2):
                poly = eng.poincare(ms, u)
                assert all(c >= 0 for c in poly.coefficients)
                if not poly.is_zero:
                    assert poly.coefficients[0] >= 1

    def test_indecomposable_classification(self):
        a4 = quiver_a(4)
        eng = PoincareEngine(a4)
        for root in positive_roots(a4):
            for u in flag_types(root, 3):
                poly = eng.base_case(root, u)
                assert poly.coefficients in ((), (1,))
        d4 = quiver_d(4)
        engd = PoincareEngine(d4)
        binomials = {(), (1,), (1, 1), (1, 2, 1), (1, 3, 3, 1)}
        for root in positive_roots(d4):
            for u in flag_types(root, 2):
                poly = engd.base_case(root, u)
                assert poly.coefficients in binomials

    def test_rigid_degree(self):
        quiver = quiver_d(4)
        eng = PoincareEngine(quiver)
        roots = positive_roots(quiver)
        for ms in multisets_upto(quiver, roots, 2, 4):
            if not eng.multiset_is_rigid(ms):
                continue
            for u in flag_types(ms.total, 2):
                poly = eng.poincare(ms, u)
                if not poly.is_zero:
                    assert len(poly.coefficients) - 1 == rigid_dimension(quiver, u)

    def test_e6_small_root(self):
        e6 = quiver_e(6)
        eng = PoincareEngine(e6)
        roots = positive_roots(e6)
        root = roots[6]  # a height-2 root
        for u in flag_types(root, 2):
            poly = eng.base_case(root, u)
            assert all(c >= 0 for c in poly.coefficients)
            for q in (2, 3):
                assert poly.evaluate(q) == eng.count(
                    RootMultiset(e6, ((root, 1),)), u, q
                )
