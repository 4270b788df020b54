"""Representations: Hom/Ext against a brute-force morphism enumeration,
reflection-built indecomposables, direct sums, sub- and quotient objects."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from flagmann import (
    PrimeField,
    QQ,
    Representation,
    RootMultiset,
    build_rep,
    direct_sum,
    euler_form,
    ext1_dim,
    hom_dim,
    indecomposable_for_root,
    parse_rep_spec,
    positive_roots,
    quotient_representation,
    subrepresentation,
)
from flagmann import reps
from flagmann.errors import InputError, InternalConsistencyError
from flagmann.linalg import rank_rows, rref_rows
from flagmann.reps import admissible_vertex_order, canonical_subspaces, subrep_subspaces

from helpers import all_orientations, apply_rows, hom_space, is_stable_rowwise, mat_mul
from helpers import quiver_a, quiver_d, quiver_e, simple_representation, zero_representation

A2 = quiver_a(2)
F2 = PrimeField(2)


def rep_a2(dims, entries, field=QQ):
    """An A2 representation from the single arrow matrix given as rows."""
    m = tuple(tuple(field.coerce(x) for x in row) for row in entries)
    return Representation(A2, field, dims, (m,))


def hom_dim_by_enumeration(w_rep, v_rep):
    """Oracle: count all commuting matrix tuples over F_2 and take log2."""
    assert w_rep.field == F2 and v_rep.field == F2
    quiver = w_rep.quiver
    shapes = [(v_rep.dims[i], w_rep.dims[i]) for i in range(quiver.n)]
    spaces = [list(product(range(2), repeat=r * c)) for r, c in shapes]
    count = 0
    for combo in product(*spaces):
        mats = [
            tuple(tuple(flat[a * c + b] for b in range(c)) for a in range(r))
            for (r, c), flat in zip(shapes, combo)
        ]
        ok = True
        for (s, t), wm, vm in zip(quiver.arrow_indices, w_rep.maps, v_rep.maps):
            n = w_rep.dims[s]
            if mat_mul(F2, mats[t], wm, n) != mat_mul(F2, vm, mats[s], n):
                ok = False
                break
        if ok:
            count += 1
    dim = count.bit_length() - 1
    assert 2**dim == count
    return dim


class TestRepresentationValidation:
    def test_malformed_maps_rejected(self):
        # A2's one arrow 1 -> 2 takes dims[1] rows of width dims[0]
        cases = [
            ((1, 1), ()),  # no map
            ((1, 1), (((1,),), ((1,),))),  # two maps
            ((1, 2), (((1,),),)),  # one row of two
            ((2, 2), (((1, 0), (1,)),)),  # a ragged row
            ((2, 0), (((), ()),)),  # a 2 x 0 map where a 0 x 2 one belongs
            ((0, 2), ((),)),  # a 0 x 2 map where a 2 x 0 one belongs
        ]
        for dims, maps in cases:
            with pytest.raises(InputError, match="arrow matrix|one matrix per arrow"):
                Representation(A2, QQ, dims, maps)
        assert Representation(A2, QQ, (2, 0), ((),)).maps == ((),)
        assert Representation(A2, QQ, (0, 2), (((), ()),)).maps == (((), ()),)


class TestHomDim:
    def test_a2_worked_examples(self):
        p = rep_a2((1, 1), [[1]])
        s1 = rep_a2((1, 0), [])
        assert hom_dim(p, s1) == 1
        assert hom_dim(s1, p) == 0
        assert hom_dim(p, p) == 1

    def test_matches_enumeration_oracle(self):
        reps = [
            rep_a2((1, 1), [[1]], F2),
            rep_a2((1, 0), [], F2),
            rep_a2((0, 1), [[]], F2),
            rep_a2((1, 1), [[0]], F2),
            rep_a2((2, 1), [[1, 0]], F2),
            rep_a2((1, 2), [[1], [0]], F2),
        ]
        for w in reps:
            for v in reps:
                assert hom_dim(w, v) == hom_dim_by_enumeration(w, v)

    def test_hom_space_elements_commute(self):
        p = rep_a2((1, 1), [[1]])
        s2 = rep_a2((0, 1), [[]])
        basis = hom_space(p, s2)
        assert len(basis) == hom_dim(p, s2)
        w = rep_a2((2, 2), [[1, 0], [0, 1]])
        basis = hom_space(w, w)
        assert len(basis) == hom_dim(w, w) == 4
        for mats in basis:
            for (s, t), wm, vm in zip(A2.arrow_indices, w.maps, w.maps):
                n = w.dims[s]
                assert mat_mul(QQ, mats[t], wm, n) == mat_mul(QQ, vm, mats[s], n)

    def test_field_mismatch_rejected(self):
        with pytest.raises(InputError):
            hom_dim(rep_a2((1, 0), [], F2), rep_a2((1, 0), [], QQ))


class TestExt1:
    def test_a2_examples(self):
        s1 = rep_a2((1, 0), [])
        s2 = rep_a2((0, 1), [[]])
        p = rep_a2((1, 1), [[1]])
        assert ext1_dim(s1, s2) == 1
        assert ext1_dim(s2, s1) == 0
        for root in positive_roots(A2):
            x = indecomposable_for_root(A2, root, QQ)
            assert ext1_dim(p, x) == 0  # (1,1) is projective

    def test_rigidity(self):
        s1 = rep_a2((1, 0), [])
        s2 = rep_a2((0, 1), [[]])
        p = rep_a2((1, 1), [[1]])
        assert ext1_dim(p, p) == 0
        assert ext1_dim(s1, s1) == 0 and ext1_dim(s2, s2) == 0
        assert ext1_dim(direct_sum(s1, s2), direct_sum(s1, s2)) != 0


class TestIndecomposables:
    @pytest.mark.parametrize(
        "quiver", [quiver_a(2), quiver_a(3), quiver_d(4), quiver_e(6)]
    )
    def test_all_roots_give_bricks(self, quiver):
        for root in positive_roots(quiver):
            rep = indecomposable_for_root(quiver, root, QQ)
            assert rep.dims == root
            assert hom_dim(rep, rep) == 1
            assert ext1_dim(rep, rep) == 0

    def test_every_orientation_of_d4(self):
        for quiver in all_orientations(quiver_d(4)):
            root = max(positive_roots(quiver), key=sum)
            rep = indecomposable_for_root(quiver, root, QQ)
            assert rep.dims == root
            assert hom_dim(rep, rep) == 1

    def test_a2_arrow_map_invertible(self):
        rep = indecomposable_for_root(A2, (1, 1), QQ)
        assert rank_rows(rep.maps[0], 0) == 1

    def test_simple_roots_give_simples(self):
        rep = indecomposable_for_root(A2, (1, 0), QQ)
        assert rep.dims == (1, 0)
        assert rep.maps[0] == ()

    def test_d4_highest_root_maps(self):
        quiver = quiver_d(4)  # arrows 1->2, 3->2, 4->2
        rep = indecomposable_for_root(quiver, (1, 2, 1, 1), QQ)
        images = []
        for (s, t), m in zip(quiver.arrow_indices, rep.maps):
            if t == 1:
                assert rank_rows(m, 0) == 1
                images.append(tuple(m[r][0] for r in range(2)))
        # the three image lines in the middle plane are pairwise distinct
        for i in range(3):
            for j in range(i + 1, 3):
                assert rank_rows((images[i], images[j]), 0) == 2

    def test_field_independence(self):
        for quiver in (quiver_a(3), quiver_d(4)):
            roots = positive_roots(quiver)
            for a in roots:
                for b in roots:
                    expected = hom_dim(
                        indecomposable_for_root(quiver, a, QQ),
                        indecomposable_for_root(quiver, b, QQ),
                    )
                    for p in (2, 3, 5):
                        fp = PrimeField(p)
                        got = hom_dim(
                            indecomposable_for_root(quiver, a, fp),
                            indecomposable_for_root(quiver, b, fp),
                        )
                        assert got == expected

    def test_euler_identity_exhaustive(self):
        for quiver in (quiver_a(3), quiver_d(4)):
            roots = positive_roots(quiver)
            reps = {r: indecomposable_for_root(quiver, r, QQ) for r in roots}
            for a in roots:
                for b in roots:
                    lhs = hom_dim(reps[a], reps[b]) - ext1_dim(reps[a], reps[b])
                    assert lhs == euler_form(quiver, a, b)

    def test_non_root_rejected(self):
        with pytest.raises(InputError):
            indecomposable_for_root(A2, (2, 1), QQ)

    @pytest.mark.parametrize(
        "quivers, primes, count, digest",
        [
            (list(all_orientations(quiver_a(4))), (2, 3, 5), 320,
             "7658062985c9d3b3450670859f6913c0aa5ed867f0ae6f275bd53ba0bbe4868b"),
            (list(all_orientations(quiver_d(4))), (2, 3, 5), 384,
             "f0effbe2aace4b03d41c0367945af122664144e7366a83e7bfc10c82185d8f3d"),
            (list(all_orientations(quiver_e(6))), (2, 3, 5), 4608,
             "80c4ba2e8fa8649a1f7c8d2072056ddd288d3ab20c13a9e081bd3652cab80c94"),
            ([quiver_e(7)], (2, 3), 189,
             "6f11e7e381c2f9f09f963206002a9541784bb0309e304316a65efd54a676734f"),
            ([quiver_e(8)], (2, 3), 360,
             "0b184a78d04c855ae19f4226824786773d9ec5286fdc310cccfd95d8522a8347"),
        ],
        ids=["A4", "D4", "E6", "E7", "E8"],
    )
    def test_pinned_matrices(self, quivers, primes, count, digest):
        # sha256 of (dims, arrow-matrix entries) of every indecomposable, over
        # QQ and each prime field, recorded when every field still ran its
        # own reflection walk (E8: before the walk ran on raw row tuples)
        fields = (QQ,) + tuple(PrimeField(p) for p in primes)
        sha = hashlib.sha256()
        built = 0
        for quiver in quivers:
            for field in fields:
                for root in positive_roots(quiver):
                    rep = indecomposable_for_root(quiver, root, field)
                    sha.update(repr((rep.dims, rep.maps)).encode())
                    built += 1
        assert built == count
        assert sha.hexdigest() == digest

    def test_reduction_rejects_a_denominator_divisible_by_p(self, monkeypatch):
        build = reps.indecomposable_for_root.__wrapped__  # past the cache
        halved = Representation(A2, QQ, (1, 1), (((Fraction(1, 2),),),))
        monkeypatch.setattr(reps, "indecomposable_for_root", lambda *args: halved)
        with pytest.raises(InternalConsistencyError, match="divisible by 2"):
            build(A2, (1, 1), F2)
        assert build(A2, (1, 1), PrimeField(3)).maps[0] == ((2,),)


class TestRootMultisetAndBuild:
    def test_canonical_merge(self):
        ms = RootMultiset(A2, (((1, 1), 1), ((1, 0), 2), ((1, 1), 1)))
        assert ms.items == (((1, 0), 2), ((1, 1), 2))
        assert ms.total == (4, 2)
        assert len(ms.expand()) == 4

    def test_invalid_root_rejected(self):
        with pytest.raises(InputError):
            RootMultiset(A2, (((2, 0), 1),))

    def test_direct_sum_needs_one_quiver(self):
        a = indecomposable_for_root(A2, (1, 0), QQ)
        b = indecomposable_for_root(quiver_a(2, [1]), (1, 0), QQ)
        with pytest.raises(InputError, match="^direct sum needs matching quiver and field$"):
            direct_sum(a, b)

    def test_sum_of_simples(self):
        ms = RootMultiset(A2, (((1, 0), 1), ((0, 1), 1)))
        rep = build_rep(ms, QQ)
        assert rep.dims == (1, 1)
        assert rep.maps[0] == ((0,),)

    def test_double_projective(self):
        ms = RootMultiset(A2, (((1, 1), 2),))
        rep = build_rep(ms, QQ)
        assert rep.dims == (2, 2)
        assert rank_rows(rep.maps[0], 0) == 2

    def test_empty_multiset(self):
        rep = build_rep(RootMultiset(A2, ()), QQ)
        assert rep.dims == (0, 0)

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "F3"])
    def test_matches_a_fold_of_direct_sums(self, field):
        # build_rep assembles each arrow's block diagonal once; the reference
        # folds direct_sum one summand at a time
        cases = [
            (quiver_a(4, [0, 1, 0]), 0, ((0, 3), (4, 2), (9, 1))),
            (quiver_d(4, [1, 0, 1]), 5, ((0, 1), (5, 3), (11, 2))),
            (quiver_e(6), 0, ((1, 1), (20, 2), (35, 1), (7, 4))),
        ]
        for quiver, orientation, picks in cases:
            quiver = list(all_orientations(quiver))[orientation]
            roots = positive_roots(quiver)
            ms = RootMultiset(quiver, tuple((roots[i], mult) for i, mult in picks))
            folded = zero_representation(quiver, field)
            for root in ms.expand():
                folded = direct_sum(folded, indecomposable_for_root(quiver, root, field))
            assert build_rep(ms, field) == folded

    def test_hom_additive_in_sums(self):
        roots = positive_roots(A2)
        reps = {r: indecomposable_for_root(A2, r, QQ) for r in roots}
        for a in roots:
            for b in roots:
                for c in roots:
                    lhs = hom_dim(direct_sum(reps[a], reps[b]), reps[c])
                    assert lhs == hom_dim(reps[a], reps[c]) + hom_dim(reps[b], reps[c])
                    rhs = hom_dim(reps[a], direct_sum(reps[b], reps[c]))
                    assert rhs == hom_dim(reps[a], reps[b]) + hom_dim(reps[a], reps[c])

    def test_parse_rep_spec(self):
        ms = parse_rep_spec("# rep\nsummand: 1,1 x 2\nsummand: 0,1\nsummand: 1,0x3\n", A2)
        assert ms.items == (((0, 1), 1), ((1, 0), 3), ((1, 1), 2))
        with pytest.raises(InputError):
            parse_rep_spec("summand: 9,9\n", A2)
        with pytest.raises(InputError):
            parse_rep_spec("blob: 1,1\n", A2)


class TestSubAndQuotient:
    def test_zero_and_full_are_stable(self):
        p = rep_a2((1, 1), [[1]])
        zero = ((), ())
        full = (((1,),), ((1,),))
        assert subrep_subspaces(p, zero) == zero
        assert subrep_subspaces(p, full) == full

    def test_image_line_constraint(self):
        p = rep_a2((1, 1), [[1]])
        with pytest.raises(InputError, match="not arrow-stable"):
            subrep_subspaces(p, (((1,),), ()))
        assert subrep_subspaces(p, ((), ((1,),))) == ((), ((1,),))

    def test_subrep_and_quotient_shapes(self):
        w = build_rep(RootMultiset(A2, (((1, 1), 1), ((1, 0), 1))), F2)
        subs = (((1, 0),), ((1,),))  # the projective summand
        assert subrep_subspaces(w, subs) == subs
        sub = subrepresentation(w, subs)
        assert sub.dims == (1, 1)
        quot = quotient_representation(w, subs)
        assert quot.dims == (1, 0)
        assert hom_dim(quot, quot) == 1

    def test_unstable_subspaces_rejected(self):
        p = rep_a2((1, 1), [[1]])
        with pytest.raises(InputError, match="not arrow-stable"):
            quotient_representation(p, (((1,),), ()))
        with pytest.raises(InputError, match="not arrow-stable"):
            subrepresentation(p, (((1,),), ()))

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "F3"])
    def test_quotient_by_zero_and_by_everything(self, field):
        d4 = quiver_d(4)
        rep = build_rep(RootMultiset(d4, (((1, 2, 1, 1), 1), ((0, 1, 0, 1), 1))), field)
        same = quotient_representation(rep, ((),) * d4.n)
        assert same.dims == rep.dims
        assert same.maps == rep.maps
        full = tuple(
            tuple(tuple(int(j == k) for j in range(n)) for k in range(n)) for n in rep.dims
        )
        zero = quotient_representation(rep, full)
        assert zero.dims == (0, 0, 0, 0)
        assert zero.maps == ((),) * 3

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "F3"])
    def test_quotient_with_one_zero_end(self, field):
        # S1 + S2: the quotient by vertex 1 keeps a 1 x 0 map, by vertex 2 a 0 x 1 map
        ss = rep_a2((1, 1), [[0]], field)
        assert quotient_representation(ss, (((1,),), ())).maps == (((),),)
        assert quotient_representation(ss, ((), ((1,),))).maps == ((),)


def random_subspaces(rng, rep):
    """Random RREF subspaces, half the time closed under the arrows and now
    and then the whole space at one vertex."""
    field, p = rep.field, rep.field.char
    subs = [
        rref_rows(
            tuple(
                tuple(field.coerce(rng.randint(-2, 2)) for _ in range(n))
                for _ in range(rng.randint(0, n))
            ),
            p,
        )[0]
        for n in rep.dims
    ]
    if rng.random() < 0.3:
        i = rng.randrange(rep.quiver.n)
        n = rep.dims[i]
        subs[i] = tuple(tuple(field.coerce(int(a == b)) for b in range(n)) for a in range(n))
    if rng.random() < 0.5:
        for _ in range(rep.quiver.n):
            for (s, t), m in zip(rep.quiver.arrow_indices, rep.maps):
                images = tuple(apply_rows(m, vec, p) for vec in subs[s])
                subs[t] = rref_rows(subs[t] + images, p)[0]
    return tuple(subs)


class TestArrowStability:
    @pytest.mark.parametrize("field", [F2, PrimeField(3), QQ], ids=["F2", "F3", "QQ"])
    def test_agrees_with_the_row_by_row_check(self, field):
        rng = random.Random(2029)
        quivers = list(all_orientations(quiver_a(3))) + list(all_orientations(quiver_d(4)))
        seen = Counter()
        for _ in range(400):
            quiver = rng.choice(quivers)
            dims = tuple(rng.randint(0, 3) for _ in quiver.vertices)
            maps = tuple(
                tuple(
                    tuple(field.coerce(rng.randint(-2, 2)) for _ in range(dims[s]))
                    for _ in range(dims[t])
                )
                for s, t in quiver.arrow_indices
            )
            rep = Representation(quiver, field, dims, maps)
            canon = canonical_subspaces(rep, random_subspaces(rng, rep))
            want = is_stable_rowwise(rep, canon)
            assert reps._is_stable(rep, canon) == want
            if want:
                assert subrep_subspaces(rep, canon) == canon
            else:
                with pytest.raises(InputError, match="not arrow-stable"):
                    subrep_subspaces(rep, canon)
            seen["stable" if want else "unstable"] += 1
            for s, t in quiver.arrow_indices:
                seen["zero source"] += dims[s] == 0
                seen["zero target"] += dims[t] == 0
                seen["whole target"] += 0 < len(canon[t]) == dims[t] and bool(canon[s])
        assert min(seen.values()) >= 20 and len(seen) == 5, seen


class TestAdmissibleOrder:
    def test_sinks_first(self):
        quiver = quiver_a(3, [0, 0])  # 1 -> 2 -> 3
        order = admissible_vertex_order(quiver)
        assert order == (2, 1, 0)

    def test_cycle_rejected(self):
        from flagmann.errors import UnsupportedQuiverError

        cyc = __import__("flagmann").Quiver(
            ("1", "2", "3"), (("1", "2"), ("2", "3"), ("3", "1"))
        )
        with pytest.raises(UnsupportedQuiverError):
            admissible_vertex_order(cyc)

    def test_zero_rep(self):
        z = zero_representation(A2, QQ)
        assert hom_dim(z, z) == 0
        s = simple_representation(A2, "1", QQ)
        assert hom_dim(z, s) == 0
