"""The layered picture: the extension construction, the layer-constant
embedding, flags as subrepresentations, and the bundle-rank fiber check."""

import hashlib
import importlib
import random
from fractions import Fraction
from itertools import cycle, islice

import pytest

from flagmann import (
    FlagType,
    PrimeField,
    QQ,
    Representation,
    RootMultiset,
    build_rep,
    enumerate_flags,
    ext1_dim,
    extend_quiver,
    flag_types,
    hom_dim,
    hom_dim_rep0,
    indecomposable_for_root,
    phi,
    positive_roots,
    quotient_representation,
    subrepresentation,
    verify_fiber_rank,
)
from flagmann.errors import InputError
from flagmann.extended import Rep0Representation

from helpers import (
    all_orientations,
    apply_rows,
    flag_subspaces,
    flag_to_subrep,
    hom_space,
    layer,
    mat_mul,
    mat_sub,
    multisets_upto,
    quiver_a,
    quiver_d,
    quotient_by_flag,
    vertical_map,
    zeros,
)

A2 = quiver_a(2)
A3 = quiver_a(3)
F2 = PrimeField(2)
F3 = PrimeField(3)


class TestExtendedQuiver:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_vertex_and_arrow_counts(self, d):
        ext = extend_quiver(A3, d)
        assert ext.quiver.n == A3.n * d
        assert len(ext.quiver.arrows) == len(A3.arrows) * d + A3.n * (d - 1)

    def test_positions_consistent(self):
        ext = extend_quiver(A2, 3)
        for r in range(3):
            for i in range(2):
                pos = ext.vertex_position(i, r)
                assert ext.quiver.vertices[pos] == f"{A2.vertices[i]}#{r + 1}"

    def test_bad_depth(self):
        with pytest.raises(InputError):
            extend_quiver(A2, 0)

    def test_rep0_needs_the_extended_quiver(self):
        rep = indecomposable_for_root(A2, (1, 1), F2)
        message = "^representation does not live on the extended quiver$"
        with pytest.raises(InputError, match=message):
            Rep0Representation(extend_quiver(A2, 2), rep)


class TestPhi:
    def test_depth_one_is_relabeling(self):
        p = indecomposable_for_root(A2, (1, 1), QQ)
        img = phi(p, 1)
        assert img.rep.dims == p.dims
        assert img.rep.maps == p.maps

    def test_layers_and_verticals(self):
        p = indecomposable_for_root(A2, (1, 1), QQ)
        img = phi(p, 2)
        for r in range(2):
            assert layer(img, r).dims == p.dims
            assert layer(img, r).maps == p.maps
        for i in range(2):
            assert vertical_map(img, 0, i) == ((Fraction(1),),)

    def test_squares_validated(self):
        # tamper with one vertical map to break a square
        p = indecomposable_for_root(A2, (1, 1), QQ)
        img = phi(p, 2)
        maps = list(img.rep.maps)
        pos = img.extended.vertical_position(0, 0)
        maps[pos] = zeros(QQ, 1, 1)
        bad = Representation(img.extended.quiver, QQ, img.rep.dims, tuple(maps))
        with pytest.raises(InputError):
            Rep0Representation(img.extended, bad)

    @pytest.mark.parametrize(
        "dims, zero_side",
        [
            # vertex 2 is 0 in layer 1: vert_2 * top has inner dimension 0
            ((1, 0, 1, 1), "vert_j * top"),
            # vertex 1 is 0 in layer 2: bottom * vert_1 has inner dimension 0
            ((1, 1, 0, 1), "bottom * vert_i"),
        ],
    )
    def test_square_with_zero_inner_dimension(self, dims, zero_side):
        # A2 in two layers; the square commutes iff the product that does not
        # pass through the zero space is 0
        ext = extend_quiver(A2, 2)
        top_pos, bottom_pos = ext.horizontal_position(0, 0), ext.horizontal_position(1, 0)
        vi_pos, vj_pos = ext.vertical_position(0, 0), ext.vertical_position(0, 1)

        def rep0(x, y):
            maps = []
            for pos, (s, t) in enumerate(ext.quiver.arrow_indices):
                m = zeros(QQ, dims[t], dims[s])
                if zero_side == "vert_j * top" and pos in (bottom_pos, vi_pos):
                    m = ((Fraction(x if pos == bottom_pos else y),),)
                if zero_side == "bottom * vert_i" and pos in (top_pos, vj_pos):
                    m = ((Fraction(x if pos == top_pos else y),),)
                maps.append(m)
            return Rep0Representation(ext, Representation(ext.quiver, QQ, dims, tuple(maps)))

        rep0(1, 0)
        rep0(0, 1)
        with pytest.raises(
            InputError, match=r"layer square at arrow \('1', '2'\) between layers 1 and 2"
        ):
            rep0(1, 1)


class TestFlagToSubrep:
    def test_dims_match_flag_type(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        u = FlagType(((0, 1), (1, 1)))
        point = next(iter(enumerate_flags(p, u)))
        sub = flag_to_subrep(p, point)
        ext = sub.extended
        for r in range(2):
            for i in range(2):
                assert sub.rep.dims[ext.vertex_position(i, r)] == u.steps[r][i]

    def test_zero_first_step(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        u = FlagType(((0, 0), (1, 1)))
        point = next(iter(enumerate_flags(p, u)))
        sub = flag_to_subrep(p, point)
        assert layer(sub, 0).dims == (0, 0)
        assert layer(sub, 1).dims == (1, 1)

    def test_invalid_flag_rejected(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        cases = [
            (((((1,),), ()), (((1,),), ((1,),))), "not arrow-stable"),  # step 1
            (((((1,), (1,)), ((1,),)), (((1,),), ((1,),))), "not independent"),
            (((((1, 0),), ((1,),)),), "wrong ambient dimension"),
            (((((1,),),),), "one subspace per vertex"),
            ((((), ((1,),)), ((), ())), "not nested"),
            ((((), ((1,),)),), "top flag step"),
        ]
        for steps, message in cases:
            with pytest.raises(InputError, match=message):
                flag_subspaces(p, steps)

    def test_empty_flag_rejected(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        for convert in (flag_subspaces, flag_to_subrep, quotient_by_flag):
            with pytest.raises(InputError, match="depth must be >= 1, got 0"):
                convert(p, ())

    def test_pinned_matrices(self):
        # sha256 of (dims, arrow-matrix entries) of the flag subrepresentation
        # and the quotient for every flag with d <= 3, recorded before the
        # subspace validation moved into flagmann.reps
        cases = [
            (A3, (((1, 1, 1), 1), ((0, 1, 0), 1))),
            (quiver_a(3, [0, 1]), (((1, 1, 0), 1), ((0, 1, 1), 1))),
            (quiver_d(4), (((1, 2, 1, 1), 1),)),
            (quiver_d(4, [1, 0, 1]), (((0, 1, 1, 0), 1), ((0, 1, 0, 0), 1))),
        ]
        digest = hashlib.sha256()
        flags = 0
        for quiver, items in cases:
            for field in (F2, F3):
                rep = build_rep(RootMultiset(quiver, items), field)
                for u in flag_types(rep.dims, 3):
                    for point in enumerate_flags(rep, u):
                        for r0 in (flag_to_subrep(rep, point), quotient_by_flag(rep, point)):
                            digest.update(repr((r0.rep.dims, r0.rep.maps)).encode())
                        flags += 1
        assert flags == 491
        assert digest.hexdigest() == (
            "738f59c2ead742349b7a9cf30efb3e6714c1fb514303e18d0a2f44fd98316557"
        )


def random_a4_d4(seed):
    """A seeded direct sum of 1-3 indecomposables on a random A4 or D4
    orientation, per-vertex dimension <= 2 and total <= 4."""
    rng = random.Random(seed)
    quiver = rng.choice(list(all_orientations(rng.choice([quiver_a(4), quiver_d(4)]))))
    pool = list(positive_roots(quiver)) * 2
    rng.shuffle(pool)
    roots, total, size = [], (0,) * quiver.n, rng.randint(1, 3)
    for root in pool:
        new = tuple(a + b for a, b in zip(total, root))
        if len(roots) < size and sum(new) <= 4 and max(new) <= 2:
            roots.append(root)
            total = new
    return RootMultiset.from_roots(quiver, roots)


class TestConversionsMatchReference:
    """The raw conversions against the validated composition of `phi`,
    `flag_subspaces` and `subrepresentation` / `quotient_representation`."""

    @staticmethod
    def check(rep, point):
        ambient = phi(rep, len(point)).rep
        subs = flag_subspaces(rep, point)
        sub = flag_to_subrep(rep, point).rep
        assert sub == subrepresentation(ambient, subs)
        assert quotient_by_flag(rep, point).rep == quotient_representation(ambient, subs)
        # the inclusion is a morphism: each basis row's image is the
        # combination of target basis rows that the sub's matrix names
        for (s, t), m, sm in zip(ambient.quiver.arrow_indices, ambient.maps, sub.maps):
            for c, row in enumerate(subs[s]):
                combo = (
                    sum(sm[r][c] * subs[t][r][k] for r in range(len(subs[t])))
                    for k in range(len(m))
                )
                image = apply_rows(m, row, rep.field.char)
                assert image == tuple(rep.field.coerce(x) for x in combo)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_a4_d4_every_flag(self, seed):
        ms = random_a4_d4(seed)
        flags = 0
        for field in (F2, F3):
            rep = build_rep(ms, field)
            for u in flag_types(rep.dims, 3):
                for point in enumerate_flags(rep, u):
                    self.check(rep, point)
                    flags += 1
        assert flags > 0

    def test_hand_built_rationals_with_zero_steps(self):
        # A2 with a non-integral map; bases given out of RREF
        m = ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(3)))
        rep = Representation(A2, QQ, (2, 2), (m,))
        line = (((2, 4),), ((Fraction(1, 3), 1),))  # M (1, 2) = (2, 6)
        full = (((1, 0), (0, 1)), ((1, 0), (0, 1)))
        points = [
            (((), ()), line, full),
            (((), ()), ((), ()), line, full),
            (line, (((1, 2),), ((1, 0), (0, 1))), full),
            (((), ()), full),
        ]
        for steps in points:
            self.check(rep, steps)


class TestHomRep0:
    def test_worked_fiber_example(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        s1 = indecomposable_for_root(A2, (1, 0), F2)
        v_point = next(iter(enumerate_flags(p, FlagType(((0, 1), (1, 1))))))
        w_point = next(iter(enumerate_flags(s1, FlagType(((1, 0), (1, 0))))))
        w_sub = flag_to_subrep(s1, w_point)
        v_quot = quotient_by_flag(p, v_point)
        assert hom_dim_rep0(w_sub, v_quot) == 1

    def test_hom_into_zero(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        full_point = next(iter(enumerate_flags(p, FlagType(((1, 1), (1, 1))))))
        quot = quotient_by_flag(p, full_point)  # zero representation
        sub = flag_to_subrep(p, full_point)
        assert hom_dim_rep0(sub, quot) == 0

    @pytest.mark.parametrize("d", [2, 3])
    def test_full_faithfulness(self, d):
        roots = positive_roots(A3)
        reps = {r: indecomposable_for_root(A3, r, QQ) for r in roots}
        for a in roots[:4]:
            for b in roots[:4]:
                lhs = hom_dim_rep0(phi(reps[a], d), phi(reps[b], d))
                assert lhs == hom_dim(reps[a], reps[b])

    def test_mismatched_depths_rejected(self):
        p = indecomposable_for_root(A2, (1, 1), QQ)
        with pytest.raises(InputError):
            hom_dim_rep0(phi(p, 2), phi(p, 3))


def connecting_map_dims(w0, q0):
    """Kernel and image of the layer-comparison map, built from scratch.

    Domain: direct sum of Hom(W_r, Q_r) over layers; the map sends (f_r) to
    (vq_r . f_r - f_{r+1} . vw_r) in Hom(W_r, Q_{r+1}).  Returns the kernel
    dimension and the codomain Hom dimensions.
    """
    from flagmann.linalg import rank_rows

    d = w0.extended.depth
    field = w0.rep.field
    w_layers = [layer(w0, r) for r in range(d)]
    q_layers = [layer(q0, r) for r in range(d)]
    bases = [hom_space(w_layers[r], q_layers[r]) for r in range(d)]
    dom_dim = sum(len(b) for b in bases)
    rows = []  # one row per domain basis vector: stacked raw entries
    n = w0.extended.n
    for r in range(d):
        for mats in bases[r]:
            row = []
            for rr in range(d - 1):
                for i in range(n):
                    wv = vertical_map(w0, rr, i)
                    qv = vertical_map(q0, rr, i)
                    nrows, ncols = q_layers[rr + 1].dims[i], w_layers[rr].dims[i]
                    block = zeros(field, nrows, ncols)
                    if rr == r:
                        block = mat_mul(field, qv, mats[i], ncols)
                    elif rr == r - 1:
                        block = mat_sub(field, block, mat_mul(field, mats[i], wv, ncols))
                    row.extend(x for mrow in block for x in mrow)
            rows.append(tuple(row))
    rank = rank_rows(tuple(rows), field.char)
    codim = sum(hom_dim(w_layers[r], q_layers[r + 1]) for r in range(d - 1))
    return dom_dim - rank, rank, codim


class TestExactnessBookkeeping:
    def test_kernel_two_ways_and_surjectivity(self):
        # Ext^1(W, V) = 0 pairs: the comparison map must be onto, so the
        # direct kernel equals the alternating sum of layer Hom dimensions
        cases = [
            (A2, (1, 1), (1, 0), ((0, 1), (1, 1)), ((1, 0), (1, 0))),
            (A2, (0, 1), (1, 1), ((0, 1), (0, 1)), ((0, 1), (1, 1))),
            (A3, (1, 1, 1), (1, 0, 0), ((0, 1, 1), (1, 1, 1)), ((0, 0, 0), (1, 0, 0))),
        ]
        for quiver, v_root, w_root, v_steps, w_steps in cases:
            v = indecomposable_for_root(quiver, v_root, F3)
            w = indecomposable_for_root(quiver, w_root, F3)
            assert ext1_dim(w, v) == 0
            v_point = next(iter(enumerate_flags(v, FlagType(v_steps))))
            w_point = next(iter(enumerate_flags(w, FlagType(w_steps))))
            w_sub = flag_to_subrep(w, w_point)
            v_quot = quotient_by_flag(v, v_point)
            kernel, rank, codim = connecting_map_dims(w_sub, v_quot)
            assert rank == codim  # the comparison map is onto
            direct = hom_dim_rep0(w_sub, v_quot)
            assert kernel == direct
            dom = sum(
                hom_dim(layer(w_sub, r), layer(v_quot, r)) for r in range(w_sub.extended.depth)
            )
            assert direct == dom - codim


class TestVerifyFiberRank:
    def test_a2_worked_example(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        s1 = indecomposable_for_root(A2, (1, 0), F2)
        report = verify_fiber_rank(
            p, s1, FlagType(((0, 1), (1, 1))), FlagType(((1, 0), (1, 0))), samples=4
        )
        assert report.expected_rank == 1
        assert report.fiber_dims == (1, 1, 1, 1)
        assert report.ok

    def test_zero_quotient_side(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        zero = build_rep(RootMultiset(A2, ()), F2)
        report = verify_fiber_rank(
            p, zero, FlagType(((0, 1), (1, 1))), FlagType(((0, 0), (0, 0))), samples=3
        )
        assert report.expected_rank == 0
        assert report.ok
        assert all(x == 0 for x in report.fiber_dims)

    def test_fields_and_lengths_checked(self):
        p2 = indecomposable_for_root(A2, (1, 1), F2)
        s1 = indecomposable_for_root(A2, (1, 0), F2)
        v_flag, w_flag = FlagType(((0, 1), (1, 1))), FlagType(((1, 0), (1, 0)))
        cases = [
            (indecomposable_for_root(A2, (1, 1), F3), s1, v_flag, w_flag,
             "representations must share a quiver and a field"),
            (indecomposable_for_root(A2, (1, 1), QQ), indecomposable_for_root(A2, (1, 0), QQ),
             v_flag, w_flag, "fiber verification works over a prime field"),
            (p2, s1, v_flag, FlagType(((1, 0),)), "flag types of different lengths"),
        ]
        for v_rep, w_rep, sub_flag, quot_flag, message in cases:
            with pytest.raises(InputError, match=f"^{message}$"):
                verify_fiber_rank(v_rep, w_rep, sub_flag, quot_flag)

    def test_precondition_enforced(self):
        s1 = indecomposable_for_root(A2, (1, 0), F2)
        s2 = indecomposable_for_root(A2, (0, 1), F2)
        with pytest.raises(InputError, match="Ext"):
            verify_fiber_rank(
                s2, s1, FlagType(((0, 1), (0, 1))), FlagType(((1, 0), (1, 0)))
            )

    def test_d4_sampled(self):
        d4 = quiver_d(4)
        high = indecomposable_for_root(d4, (1, 2, 1, 1), F3)
        small = indecomposable_for_root(d4, (0, 1, 1, 0), F3)
        if ext1_dim(small, high) == 0:
            v_rep, w_rep = high, small
        else:
            v_rep, w_rep = small, high
        assert ext1_dim(w_rep, v_rep) == 0
        v_flag = FlagType(((0, 1, 0, 0), v_rep.dims))
        w_flag = FlagType(((0, 0, 0, 0), w_rep.dims))
        report = verify_fiber_rank(v_rep, w_rep, v_flag, w_flag, samples=5, seed=1)
        assert report.ok

    def test_sampled_points_match_validated_references(self, monkeypatch):
        # with every flag of a representation as the pool on one side and the
        # zero representation on the other, the sub and quotient that
        # `verify_fiber_rank` hands to `hom_dim_rep0` are those of the
        # references that check each point first
        extended = importlib.import_module("flagmann.extended")
        monkeypatch.setattr(
            extended,
            "sample_flags",
            lambda rep, u, count, rng, size: list(islice(cycle(enumerate_flags(rep, u)), count)),
        )
        pairs = []
        monkeypatch.setattr(extended, "hom_dim_rep0", lambda w0, v0: pairs.append((w0, v0)) or 0)
        flags = 0
        for quiver in (A2, A3, quiver_d(4)):
            for ms in multisets_upto(quiver, positive_roots(quiver), 2, 3):
                for field in (F2, F3):
                    rep = build_rep(ms, field)
                    zero = build_rep(RootMultiset(quiver, ()), field)
                    for u in flag_types(rep.dims, 3):
                        points = list(enumerate_flags(rep, u))
                        none = FlagType(((0,) * quiver.n,) * u.d)
                        pairs.clear()
                        verify_fiber_rank(rep, zero, u, none, samples=len(points))
                        assert [v0 for _, v0 in pairs] == [
                            quotient_by_flag(rep, point) for point in points
                        ]
                        pairs.clear()
                        verify_fiber_rank(zero, rep, none, u, samples=len(points))
                        assert [w0 for w0, _ in pairs] == [
                            flag_to_subrep(rep, point) for point in points
                        ]
                        flags += len(points)
        assert flags == 4658

    def test_sampled_points_are_not_validated_again(self, monkeypatch):
        # a point from `enumerate_flags` is canonical already; running it
        # through the subspace validation again is the cost this spares
        def refuse(rep, subspaces):
            raise AssertionError("a sampled flag point was validated again")

        monkeypatch.setattr(importlib.import_module("flagmann.reps"), "canonical_subspaces", refuse)
        d4 = quiver_d(4)
        v_rep = build_rep(RootMultiset(d4, (((1, 2, 1, 1), 1), ((0, 1, 0, 0), 1))), F3)
        w_rep = build_rep(RootMultiset(d4, (((1, 1, 0, 0), 1), ((0, 1, 0, 0), 1))), F3)
        v_flag = FlagType(((0, 1, 0, 0), (1, 2, 0, 1), (1, 3, 1, 1)))
        w_flag = FlagType(((0, 1, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0)))
        report = verify_fiber_rank(v_rep, w_rep, v_flag, w_flag, samples=6, seed=3)
        assert report.ok
        assert report.fiber_dims == (1,) * 6
