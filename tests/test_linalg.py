"""Exact linear algebra: rank/kernel contracts, canonical subspace
enumeration against the Gaussian binomial, quotient/preimage machinery."""

import random
from fractions import Fraction

import pytest

from flagmann import PrimeField, QQ, gaussian_binomial
from flagmann.errors import InputError
from flagmann.linalg import (
    _rref_bases,
    identity_rows,
    image_rowspace,
    intersect_rowspaces,
    mat_mul_rows,
    null_space_rows,
    preimage_rowspace,
    quotient_map_rows,
    rank_rows,
    rowspace_leq,
    rref_rows,
    subspaces_between,
)

from helpers import apply_rows, zeros


class TestFields:
    def test_prime_field_rejects_composites(self):
        with pytest.raises(InputError):
            PrimeField(6)
        with pytest.raises(InputError):
            PrimeField(1)
        assert PrimeField(2).char == 2
        assert QQ.char == 0

    def test_coerce(self):
        assert PrimeField(5).coerce(-3) == 2
        assert QQ.coerce(2) == Fraction(2)


class TestMatrix:
    def test_rank_identity(self):
        assert rank_rows(identity_rows(2, 0), 0) == 2

    def test_identity_entries_follow_the_characteristic(self):
        over_q = identity_rows(3, 0)
        assert over_q == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert all(type(x) is Fraction for row in over_q for x in row)
        for p in (2, 5):
            rows = identity_rows(3, p)
            assert rows == over_q
            assert all(type(x) is int for row in rows for x in row)
        assert identity_rows(0, 3) == ()
        # cached: a repeated call hands back the same tuple
        assert identity_rows(4, 2) is identity_rows(4, 2)
        assert identity_rows(4, 0) is identity_rows(4, 0)

    def test_rank_zero_matrix(self):
        assert rank_rows(zeros(QQ, 3, 4), 0) == 0

    def test_rank_proportional_rows(self):
        assert rank_rows(((1, 2), (2, 4)), 0) == 1

    def test_rank_over_qq_matches_rref(self):
        # the fraction-free rank over QQ against the RREF, on seeded random
        # matrices: non-integral entries, zero rows, low rank, thin shapes
        rng = random.Random(1909)

        def entry():
            if rng.random() < 0.4:
                return Fraction(0)
            return Fraction(rng.randint(-4, 4), rng.randint(1, 6))

        cases = [(), ((),), ((), ()), ((Fraction(0),) * 3,) * 2, ((1, 2), (2, 4))]
        for _ in range(300):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            shape = rng.random()
            if shape < 0.2:
                nrows = 1
            elif shape < 0.4:
                ncols = 1
            if rng.random() < 0.5:
                rows = tuple(tuple(entry() for _ in range(ncols)) for _ in range(nrows))
            else:
                inner = rng.randint(1, 3)
                a = tuple(tuple(entry() for _ in range(inner)) for _ in range(nrows))
                b = tuple(tuple(entry() for _ in range(ncols)) for _ in range(inner))
                rows = mat_mul_rows(a, b, 0)
            if rng.random() < 0.3:
                rows += ((Fraction(0),) * ncols,)
            cases.append(tuple(rng.sample(rows, len(rows))))
        assert any(x.denominator > 1 for rows in cases for row in rows for x in row)
        for rows in cases:
            assert rank_rows(rows, 0) == len(rref_rows(rows, 0)[0]), rows

    def test_kernel_identity_empty(self):
        assert null_space_rows(identity_rows(3, 0), 3, 0) == ()

    def test_kernel_zero_matrix(self):
        assert len(null_space_rows(zeros(QQ, 2, 3), 3, 0)) == 3

    def test_kernel_f2_line(self):
        assert null_space_rows(((1, 1),), 2, 2) == ((1, 1),)

    def test_rank_nullity(self):
        cases = [
            (QQ, [[1, 2, 3], [4, 5, 6]]),
            (QQ, [[0, 0], [0, 0]]),
            (PrimeField(3), [[1, 2], [2, 1], [0, 1]]),
            (PrimeField(5), [[1, 2, 3, 4]]),
        ]
        for field, rows in cases:
            m, p = tuple(map(tuple, rows)), field.char
            assert rank_rows(m, p) + len(null_space_rows(m, len(m[0]), p)) == len(m[0])

    def test_kernel_vectors_annihilate(self):
        m = ((1, 2, 0), (0, 1, 1))
        for vec in null_space_rows(m, 3, 3):
            assert all(x == 0 for x in apply_rows(m, vec, 3))

    def test_mul_values(self):
        assert mat_mul_rows(((1, 2), (3, 4)), ((0, 1), (1, 0)), 5) == ((2, 1), (4, 3))


class TestSubspaceEnumeration:
    def test_lines_in_f2_squared(self):
        assert len(tuple(_rref_bases(2, 1, 2))) == 3

    def test_lines_in_f3_cubed(self):
        # (3^3 - 1) / (3 - 1) = 13
        assert len(tuple(_rref_bases(3, 1, 3))) == 13

    def test_whole_space_unique(self):
        assert len(tuple(_rref_bases(2, 2, 5))) == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_counts_match_gaussian_binomial(self, p):
        for n in range(5):
            for k in range(n + 1):
                got = tuple(_rref_bases(n, k, p))
                assert len(got) == gaussian_binomial(n, k, p)
                assert len(set(got)) == len(got)

    def test_enumeration_is_deterministic(self):
        # two fresh runs give the same bases in the same order
        assert tuple(_rref_bases(4, 2, 3)) == tuple(_rref_bases(4, 2, 3))

    def test_order_is_pinned(self):
        # pivot sets in lexicographic order; within one, the first row and
        # its first free column vary fastest
        assert list(_rref_bases(3, 1, 2)) == [
            ((1, 0, 0),), ((1, 1, 0),), ((1, 0, 1),), ((1, 1, 1),),
            ((0, 1, 0),), ((0, 1, 1),), ((0, 0, 1),),
        ]
        assert list(_rref_bases(3, 2, 2)) == [
            ((1, 0, 0), (0, 1, 0)), ((1, 0, 1), (0, 1, 0)), ((1, 0, 0), (0, 1, 1)),
            ((1, 0, 1), (0, 1, 1)), ((1, 0, 0), (0, 0, 1)), ((1, 1, 0), (0, 0, 1)),
            ((0, 1, 0), (0, 0, 1)),
        ]

    def test_bases_are_rref(self):
        for basis in _rref_bases(4, 2, 2):
            red, _ = rref_rows(basis, 2)
            assert red == basis


class TestRowspaceToolkit:
    def test_subspaces_between_counts(self):
        p = 3
        full = tuple(tuple(1 if j == i else 0 for j in range(3)) for i in range(3))
        line = ((1, 0, 0),)
        planes = list(subspaces_between(line, full, 2, p))
        # planes through a line in F_3^3: [2 choose 1]_3 = 4
        assert len(planes) == 4
        for pl in planes:
            assert rowspace_leq(((1, 0, 0),), pl, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_subspaces_between_yields_rref(self, p):
        # seeded bounds, with and without a lower one: every yielded basis is
        # its own RREF, lies between the bounds, and the count is the
        # Gaussian binomial of the gap
        rng = random.Random(p)
        for _ in range(60):
            n = rng.randint(1, 5)
            ku = rng.randint(1, n)
            upper = rng.choice(tuple(_rref_bases(n, ku, p)))
            kl = rng.choice([0, 0, rng.randint(0, ku)])
            t = rng.choice(tuple(_rref_bases(ku, kl, p)))
            lower = rref_rows(mat_mul_rows(t, upper, p), p)[0]
            for k in range(kl, ku + 1):
                got = list(subspaces_between(lower, upper, k, p))
                assert len(set(got)) == len(got) == gaussian_binomial(ku - kl, k - kl, p)
                for basis in got:
                    assert rref_rows(basis, p)[0] == basis
                    assert rowspace_leq(lower, basis, p) and rowspace_leq(basis, upper, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_listing_order_is_pinned(self, p):
        # enumerate_flags' order, sample_flags' picks and the bundle golden
        # digest follow this sequence: the unbounded interval lists the
        # RREF bases verbatim, a bounded one lifts each basis of the
        # quotient upper/lower into upper and adds lower
        def lift(lower, upper, k):
            # lower in upper's coordinates, read at upper's pivot columns;
            # each basis of the quotient goes to the unit vectors at the
            # columns where those coordinates have no pivot
            ku = len(upper)
            pivots = [next(c for c, x in enumerate(row) if x) for row in upper]
            coords = rref_rows(tuple(tuple(row[c] for c in pivots) for row in lower), p)[0]
            lead = {next(c for c, x in enumerate(row) if x) for row in coords}
            section = tuple(identity_rows(ku, p)[c] for c in range(ku) if c not in lead)
            return [
                rref_rows(mat_mul_rows(mat_mul_rows(t, section, p), upper, p) + lower, p)[0]
                for t in _rref_bases(len(section), k - len(lower), p)
            ]

        rng = random.Random(p)
        shapes = set()
        for _ in range(40):
            n = rng.randint(1, 4)
            ku = rng.randint(1, n)
            upper = rng.choice(tuple(_rref_bases(n, ku, p)))
            kl = rng.choice([0, 0, rng.randint(0, ku)])
            t = rng.choice(tuple(_rref_bases(ku, kl, p)))
            lower = rref_rows(mat_mul_rows(t, upper, p), p)[0]
            for k in range(-1, ku + 2):
                got = list(subspaces_between(lower, upper, k, p))
                if k < kl or k > ku:
                    shape, want = "out of range", []
                elif k == kl:
                    shape, want = "k == dim lower", [lower]
                elif not lower and ku == n:
                    shape, want = "unbounded", list(_rref_bases(n, k, p))
                elif not lower:
                    shape = "no lower bound"
                    want = [mat_mul_rows(s, upper, p) for s in _rref_bases(ku, k, p)]
                else:
                    shape, want = "general", lift(lower, upper, k)
                assert got == want, (shape, lower, upper, k)
                shapes.add(shape)
        assert len(shapes) == 5

    def test_subspaces_between_trivial_gap(self):
        line = ((1, 2),)
        assert list(subspaces_between(line, line, 1, 5)) == [line]

    def test_quotient_map_and_section(self):
        basis = ((1, 0, 2),)
        q, nonpivots = quotient_map_rows(basis, 3, 5)
        assert nonpivots == (1, 2)
        # the quotient map kills the subspace
        assert all(x == 0 for row in mat_mul_rows(q, tuple(zip(*basis)), 5) for x in row)

    def test_image_and_preimage(self):
        p = 2
        m = ((1, 0), (0, 0))  # projection to the first coordinate
        img = image_rowspace(m, ((0, 1),), p)
        assert img == ()
        pre = preimage_rowspace(m, ((0, 1),), 2, p)
        # vectors mapping into the second axis: kernel of the projection
        assert pre == ((0, 1),)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_image_is_the_rowwise_image(self, p):
        # seeded maps, some with no rows, and bases, some empty: the image
        # by one product equals the RREF of the images row by row
        rng = random.Random(p)
        kinds = set()
        for _ in range(80):
            n, t = rng.randint(1, 4), rng.randint(0, 3)
            m = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(t))
            basis = rng.choice(tuple(_rref_bases(n, rng.randint(0, n), p)))
            kinds.add((bool(m), bool(basis)))
            want = rref_rows(tuple(apply_rows(m, vec, p) for vec in basis), p)[0]
            assert image_rowspace(m, basis, p) == want
        assert len(kinds) == 4

    @pytest.mark.parametrize("p", [2, 3, 5, 0])
    def test_rowspace_leq_matches_rank(self, p):
        # seeded pairs, small often a combination of big's rows: containment
        # holds exactly when adding small's rows keeps big's rank
        rng = random.Random(p)

        def rows(count, n):
            if p:
                return tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(count))
            return tuple(
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)) for _ in range(count)
            )

        kinds = set()
        for _ in range(200):
            n = rng.randint(1, 4)
            if rng.random() < 0.2:
                big = identity_rows(n, p)
            else:
                big = rref_rows(rows(rng.randint(0, n), n), p)[0]
            small = rows(rng.randint(0, 3), n)
            if big and rng.random() < 0.5:
                small = mat_mul_rows(rows(len(small), len(big)), big, p)
            if small and rng.random() < 0.3:
                small += zeros(PrimeField(p) if p else QQ, 1, n)
            got = rowspace_leq(small, big, p)
            assert got == (len(rref_rows(big + small, p)[0]) == len(big))
            kinds.add(got)
            if not small:
                kinds.add("empty small")
            if not big:
                kinds.add("empty big")
            if len(big) == n:
                kinds.add("whole big")
            if any(not any(row) for row in small):
                kinds.add("zero row")
        assert kinds == {True, False, "empty small", "empty big", "whole big", "zero row"}

    def test_sum_and_intersection(self):
        p = 3
        a = ((1, 0, 0),)
        b = ((0, 1, 0),)
        assert len(rref_rows(a + b, p)[0]) == 2
        assert intersect_rowspaces(a, b, 3, p) == ()
        c = ((1, 0, 0), (0, 1, 0))
        assert intersect_rowspaces(c, a, 3, p) == a

    def test_null_space_of_empty(self):
        assert len(null_space_rows((), 3, 2)) == 3
