"""The counting oracle: subrepresentation enumeration, flag counts, strata,
the partition identity, budget guardrail and deterministic ordering."""

import hashlib
import inspect
import random
import tracemalloc
from collections import Counter

import pytest

from flagmann import (
    FlagType,
    PrimeField,
    QQ,
    Quiver,
    Representation,
    RootMultiset,
    build_rep,
    count_flags,
    count_strata,
    direct_sum,
    enumerate_flags,
    flag_types,
    indecomposable_for_root,
    positive_roots,
    sample_flags,
    stratum_counts,
)
from flagmann import counting
from flagmann.counting import candidate_estimate
from flagmann.errors import BudgetExceededError, InputError, InternalConsistencyError
from flagmann.linalg import _rref_bases, identity_rows, mat_mul_rows, rref_rows, subspaces_between
from flagmann.reps import quotient_maps

from helpers import (
    all_orientations,
    brute_force_flags,
    flag_subspaces,
    multisets_upto,
    quiver_a,
    quiver_d,
    quiver_e,
    random_instance,
    subreps,
)

A2 = quiver_a(2)
F2 = PrimeField(2)
F3 = PrimeField(3)
ONE = __import__("flagmann").Quiver(("x",), ())


def one_vertex_rep(dim, field):
    ms = RootMultiset(ONE, (((1,), dim),)) if dim else RootMultiset(ONE, ())
    return build_rep(ms, field)


def embedded_first_block(v_rep, u_rep):
    return tuple(
        tuple(tuple(1 if j == k else 0 for j in range(u_rep.dims[i])) for k in range(v_rep.dims[i]))
        for i in range(v_rep.quiver.n)
    )


class TestEnumerateSubreps:
    # subrepresentations of dimension k are the first steps of the two-step
    # flags of type (k, dim V), which `enumerate_flags` walks
    def test_projective_line_targets(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        # vertex 2 of P is a line, and nothing at vertex 1 never obstructs it
        assert len(list(subreps(p, (0, 1)))) == 1
        # full vertex 1 forces the image line at vertex 2
        assert len(list(subreps(p, (1, 1)))) == 1
        assert len(list(subreps(p, (0, 0)))) == 1
        # (1, 0) is not arrow-stable in the projective
        assert len(list(subreps(p, (1, 0)))) == 0

    def test_line_targets_with_big_socle(self):
        # dims (1, 2): with nothing at vertex 1, every line at vertex 2 is
        # stable, 3 of them over F_2; a full vertex 1 pins the image line
        w = build_rep(RootMultiset(A2, (((1, 1), 1), ((0, 1), 1))), F2)
        assert len(list(subreps(w, (0, 1)))) == 3
        assert len(list(subreps(w, (1, 1)))) == 1

    def test_yields_are_unique_and_deterministic(self):
        w = build_rep(RootMultiset(A2, (((1, 1), 1), ((0, 1), 1))), F3)
        first = list(subreps(w, (1, 1)))
        second = list(subreps(w, (1, 1)))
        assert first == second
        assert len(set(first)) == len(first)


class TestCountFlags:
    def test_lines_in_plane(self):
        assert count_flags(one_vertex_rep(2, F2), FlagType(((1,), (2,)))) == 3

    def test_complete_flags_dim3(self):
        assert count_flags(one_vertex_rep(3, F2), FlagType(((1,), (2,), (3,)))) == 21

    def test_empty_variety(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        assert count_flags(p, FlagType(((1, 0), (1, 1)))) == 0

    def test_trivial_flag_is_one_point(self):
        for rep in (one_vertex_rep(3, F3), indecomposable_for_root(A2, (1, 1), F3)):
            assert count_flags(rep, FlagType((rep.dims,))) == 1

    def test_count_matches_enumeration(self):
        for quiver in (A2, quiver_a(3)):
            roots = positive_roots(quiver)
            for ms in multisets_upto(quiver, roots, 2, 4):
                rep = build_rep(ms, F2)
                for u in flag_types(ms.total, 3):
                    assert count_flags(rep, u) == sum(1 for _ in enumerate_flags(rep, u))

    def test_random_counts_match_enumeration(self):
        # seeded differential sweep beyond the fixed A2/A3 one: random
        # orientations of A4, D4 and E6, random root multisets and flag types
        rng = random.Random(20190)
        shapes = (quiver_a(4), quiver_d(4), quiver_e(6))
        cases = two_step = tabled = zero_vertex = 0
        while cases < 300:
            ms, u = random_instance(rng, shapes[cases % 3])
            rep = build_rep(ms, PrimeField(rng.choice((2, 3, 5))))
            # small enough to enumerate quickly, and far inside the default budget
            if candidate_estimate(rep, u) > 20000:
                continue
            counted = count_flags(rep, u)
            assert counted == sum(1 for _ in enumerate_flags(rep, u))
            if u.d == 2:
                assert counted == len(list(subreps(rep, u.steps[0])))
                two_step += 1
            # three or more steps sum over the first step's quotient table
            tabled += u.d >= 3
            zero_vertex += 0 in ms.total
            cases += 1
        assert two_step >= 60 and tabled >= 60 and zero_vertex >= 60

    def test_width_zero_flags_are_one_point(self):
        empty = Quiver((), ())
        for p in (2, 3, 5):
            field = PrimeField(p)
            reps = (Representation(empty, field, (), ()), build_rep(RootMultiset(A2, ()), field))
            for rep in reps:
                zero = tuple(0 for _ in rep.dims)
                assert list(subreps(rep, zero)) == [tuple(() for _ in rep.dims)]
                for d in (1, 2, 3):
                    u = FlagType((zero,) * d)
                    assert count_flags(rep, u) == 1
                    assert len(list(enumerate_flags(rep, u))) == 1

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    @pytest.mark.parametrize(
        "base", [quiver_a(4), quiver_d(4), quiver_e(6)], ids=["A4", "D4", "E6"]
    )
    def test_quotient_table_tallies_the_walk(self, base, field):
        # each first step's table holds the exact quotient of every walked
        # subrepresentation, counted with multiplicity
        rng = random.Random(4711)
        rows = grouped = tables = 0
        while tables < 20:
            ms, _ = random_instance(rng, base)
            rep = build_rep(ms, field)
            # the dimension of a direct summand, so the table is never empty
            k = (0,) * rep.quiver.n
            for root, mult in ms.items:
                c = rng.randint(0, mult)
                k = tuple(x + c * r for x, r in zip(k, root))
            if candidate_estimate(rep, FlagType((k, rep.dims))) > 2000:
                continue
            tables += 1
            maps = rep.maps
            table = counting._Counter(rep.quiver, field.p).quotients(rep.dims, maps, k)
            subs = list(subreps(rep, k))
            assert sum(table.values()) == len(subs)
            assert table == Counter(
                quotient_maps(rep.quiver.arrow_indices, rep.dims, maps, sub, field.p)
                for sub in subs
            )
            rows += len(table)
            grouped += len(table) < len(subs)
        assert rows >= 20 and grouped >= 1

    def test_tiny_bound_clears_memo_and_tables_mid_count(self, monkeypatch):
        # 3- and 4-step flags counted with both dicts cleared again and again
        # give the counts of the default bound
        rng = random.Random(1789)
        sweep = []
        for base in (quiver_a(4), quiver_d(4), quiver_e(6)) * 4:
            ms, _ = random_instance(rng, base)
            rep = build_rep(ms, PrimeField(rng.choice((2, 3))))
            for d in (3, 4, 3, 4):
                steps = [rep.dims]
                for _ in range(d - 1):
                    steps.insert(0, tuple(rng.randint(0, x) for x in steps[0]))
                u = FlagType(tuple(steps))
                if candidate_estimate(rep, u) <= 20000:
                    sweep.append((rep, u))
        assert len(sweep) >= 30 and {u.d for _, u in sweep} == {3, 4}
        monkeypatch.setattr(counting, "_counters", {})
        expected = [count_flags(rep, u) for rep, u in sweep]
        # the default bound kept every entry of the sweep, far more than 2
        kept = sum(len(c.memo) + len(c.tables) for c in counting._counters.values())
        assert kept >= 100 and sum(map(bool, expected)) >= 20
        monkeypatch.setattr(counting, "_counters", {})
        monkeypatch.setattr(counting, "_MEMO_BOUND", 2)
        for (rep, u), want in zip(sweep, expected):
            assert count_flags(rep, u) == want
            ctr = counting._counter(rep, u)
            assert len(ctr.memo) + len(ctr.tables) <= 2 + 1 + u.d

    def test_aborted_count_stores_no_table_and_no_memo_entry(self, monkeypatch):
        rep = build_rep(RootMultiset(quiver_d(4), (((1, 1, 1, 1), 1), ((0, 1, 0, 0), 2))), F2)
        u = FlagType(((0, 1, 0, 0), (1, 2, 1, 1), rep.dims))
        diffs = counting.flag_differences(u)
        maps = rep.maps
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return quotient_maps(*args)

        monkeypatch.setattr(counting, "_counters", {})
        monkeypatch.setattr(counting, "quotient_maps", failing)
        with pytest.raises(RuntimeError, match="interrupted"):
            count_flags(rep, u)
        ctr = counting._counter(rep, u)
        assert (rep.dims, maps, diffs) not in ctr.memo
        assert (rep.dims, maps, diffs[0]) not in ctr.tables
        monkeypatch.setattr(counting, "quotient_maps", quotient_maps)
        assert count_flags(rep, u) == sum(1 for _ in enumerate_flags(rep, u)) > 0
        assert (rep.dims, maps, diffs[0]) in ctr.tables

    def test_pinned_enumeration(self):
        # sha256 of every enumerate_flags point in yield order, recorded before
        # the oracle counted its last flag step in closed form; it pins the
        # enumeration order and the points
        cases = [
            (quiver_a(3), (((1, 1, 1), 1), ((0, 1, 0), 1), ((1, 1, 0), 1))),
            (quiver_a(3, [0, 1]), (((1, 1, 0), 1), ((0, 1, 1), 1), ((0, 1, 0), 1))),
            (quiver_d(4), (((1, 2, 1, 1), 1), ((0, 1, 0, 0), 1))),
            (quiver_d(4, [1, 0, 1]), (((1, 1, 1, 0), 1), ((0, 1, 0, 1), 1))),
        ]
        digest = hashlib.sha256()
        points = 0
        for quiver, items in cases:
            for field in (F2, F3):
                rep = build_rep(RootMultiset(quiver, items), field)
                for u in flag_types(rep.dims, 3):
                    for point in enumerate_flags(rep, u):
                        digest.update(repr(point).encode())
                        points += 1
        assert points == 2897
        assert digest.hexdigest() == (
            "3329c7d9f6542d89569886f2a0a6a70c6d6a55b13c1a68611e4077bf1ebb31dd"
        )

    def test_flag_points_are_valid(self):
        # every point is already what the validating reference returns:
        # canonical, arrow-stable, nested and of its flag type, which is why
        # `verify_fiber_rank` builds on the points without checking them
        points = 0
        for quiver in (quiver_a(2), quiver_a(3), quiver_d(4)):
            for ms in multisets_upto(quiver, positive_roots(quiver), 2, 4):
                for field in (F2, F3):
                    rep = build_rep(ms, field)
                    for u in flag_types(rep.dims, 3):
                        for point in enumerate_flags(rep, u):
                            assert tuple(tuple(map(len, step)) for step in point) == u.steps
                            assert flag_subspaces(rep, point) == sum(point, ())
                            points += 1
        assert points == 22981

    def test_weight_mismatch(self):
        with pytest.raises(InputError):
            count_flags(one_vertex_rep(2, F2), FlagType(((1,), (3,))))


def long_flag_instance(rng, quiver, field):
    """2-3 seeded roots of `quiver`, at most 2 at a vertex, and a flag type
    of 4 or 5 nonzero differences: the unit vectors that make up their total
    dimension, shuffled and cut into consecutive pieces.  Half the time the
    units of a vertex come after those of every vertex its arrows reach, as
    in a subrepresentation, so that fewer varieties are empty."""
    roots = positive_roots(quiver)
    while True:
        ms = RootMultiset.from_roots(quiver, tuple(rng.sample(roots, rng.randint(2, 3))))
        d = rng.choice((4, 5))
        if sum(ms.total) >= d and max(ms.total) <= 2:
            break
    units = [i for i, x in enumerate(ms.total) for _ in range(x)]
    rng.shuffle(units)
    if rng.random() < 0.5:
        reach = [{i} for i in range(quiver.n)]
        for _ in range(quiver.n):
            for s, t in quiver.arrow_indices:
                reach[s] |= reach[t]
        units.sort(key=lambda i: len(reach[i]))
    step, steps = [0] * quiver.n, []
    cuts = sorted(rng.sample(range(1, len(units)), d - 1)) + [len(units)]
    for lo, hi in zip([0] + cuts, cuts):
        for i in units[lo:hi]:
            step[i] += 1
        steps.append(tuple(step))
    return build_rep(ms, field), FlagType(tuple(steps))


class TestLongFlags:
    """Flags of four and five nonzero differences, which no acceptance
    sweep reaches: the count tallies all but the last two a level at a time."""

    CASES = [
        (quiver, field)
        for base in (quiver_a(3), quiver_d(4))
        for quiver in all_orientations(base)
        for field in (F2, F3)
    ]

    def sweep(self, seed):
        rng = random.Random(seed)
        return [long_flag_instance(rng, quiver, field) for quiver, field in self.CASES * 3]

    def test_counts_match_enumeration(self, monkeypatch):
        count = counting._Counter.count
        depth, deepest = [0], [0]

        def watched(ctr, *args):
            depth[0] += 1
            deepest[0] = max(deepest[0], depth[0])
            try:
                return count(ctr, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(counting, "_counters", {})
        monkeypatch.setattr(counting._Counter, "count", watched)
        sweep = self.sweep(2404)
        nonzero = 0
        for rep, u in sweep:
            want = sum(1 for _ in enumerate_flags(rep, u))
            assert count_flags(rep, u) == want, u.steps
            nonzero += want > 0
        assert {u.d for _, u in sweep} == {4, 5} and nonzero >= 30
        # a call for the last two differences under each counted flag
        assert deepest[0] == 2

    def test_tables_clear_in_the_middle_of_a_level(self, monkeypatch):
        # under a bound of 4 the walk of a quotient a level reached clears the
        # tables the level before it filled; the tally it carries still holds,
        # and a level's tables never pass the bound
        sweep = self.sweep(1909)
        monkeypatch.setattr(counting, "_counters", {})
        monkeypatch.setattr(counting, "_MEMO_BOUND", 4)
        quotients, make_room = counting._Counter.quotients, counting._Counter._make_room
        walked, clears, stored = [None], [], []

        def held(ctr):
            return len(ctr.memo) + len(ctr.tables) + ctr.span_entries

        def walk(ctr, dims, *args):
            walked[0] = dims
            try:
                return quotients(ctr, dims, *args)
            finally:
                walked[0] = None
                stored.append(held(ctr))

        def watched(ctr, extra):
            before = held(ctr)
            make_room(ctr, extra)
            if walked[0] not in (None, rep.dims) and before and not held(ctr):
                clears.append(before)

        monkeypatch.setattr(counting._Counter, "quotients", walk)
        monkeypatch.setattr(counting._Counter, "_make_room", watched)
        for rep, u in sweep:
            assert count_flags(rep, u) == sum(1 for _ in enumerate_flags(rep, u)), u.steps
        assert len(clears) >= 40 and max(stored) <= 4

    def test_a_long_path_counts_in_a_shallow_stack(self, shallow_stack):
        # A_300 with every map the identity of F_2: the one flag of 300
        # steps fills the vertices from the sink
        n = 300
        rep = Representation(quiver_a(n), F2, (1,) * n, (((1,),),) * (n - 1))
        steps = tuple(tuple(int(i >= n - j) for i in range(n)) for j in range(1, n + 1))
        assert count_flags(rep, FlagType(steps)) == 1


def random_interval(rng, n, p):
    """Seeded RREF bases low <= up inside F_p^n and a dimension between them."""
    ku = rng.randint(0, n)
    up = rng.choice(tuple(_rref_bases(n, ku, p)))
    kl = rng.randint(0, ku)
    low = rref_rows(mat_mul_rows(rng.choice(tuple(_rref_bases(ku, kl, p))), up, p), p)[0]
    return low, up, rng.randint(kl, ku)


class TestIntervalTuples:
    """The counter lists the subspaces between two bounds once, in the order
    of `subspaces_between`, and keeps no more of them than the memo bound."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_tuple_is_the_enumeration_and_is_kept(self, p):
        rng = random.Random(p)
        ctr = counting._Counter(quiver_a(2), p)
        kinds = Counter()
        for _ in range(200):
            low, up, k = random_interval(rng, rng.randint(0, 4), p)
            got = ctr.between(low, up, k)
            assert got == tuple(subspaces_between(low, up, k, p))
            if k == len(low):
                kinds["point"] += 1
            elif not low and up == identity_rows(len(up), p):
                assert ctr.spans[low, up, k] is got
                kinds["unbounded"] += 1
            else:
                assert ctr.spans[low, up, k] is got
                kinds["stored"] += 1
            if k > len(low):
                assert ctr.between(low, up, k) is got
        assert min(kinds.values()) >= 10 and len(kinds) == 3, kinds
        assert ctr.span_entries == sum(map(len, ctr.spans.values()))

    def test_interval_over_the_bound_is_streamed(self, monkeypatch):
        monkeypatch.setattr(counting, "_MEMO_BOUND", 6)
        ctr = counting._Counter(quiver_a(2), 2)
        whole = identity_rows(4, 2)
        e1, e2, e3 = whole[:3]
        # 7 planes through a line in F_2^4, 15 lines in F_2^4
        for low, up, k in (((e1,), whole, 2), ((), whole, 1)):
            big = ctr.between(low, up, k)
            assert inspect.isgenerator(big)
            assert tuple(big) == tuple(subspaces_between(low, up, k, 2))
        assert not ctr.spans and ctr.span_entries == 0
        # 3 planes through a line in a 3-space: stored and counted
        first = ctr.between((e1,), (e1, e2, e3), 2)
        assert ctr.spans == {((e1,), (e1, e2, e3), 2): first} and ctr.span_entries == 3
        # 3 more with one memo entry pass the bound: all tables clear first
        ctr.memo["entry"] = 1
        ctr._vertex_order([2, 1])
        assert ctr.orders
        second = ctr.between((e2,), (e1, e2, e3), 2)
        assert ctr.spans == {((e2,), (e1, e2, e3), 2): second} and ctr.span_entries == 3
        assert not ctr.memo and not ctr.orders

    def test_streamed_interval_holds_no_listing(self, monkeypatch):
        # the 200,787 planes of F_2^8, over a bound of 1,000: the stream
        # keeps one basis at a time, and no cache elsewhere lists them
        monkeypatch.setattr(counting, "_MEMO_BOUND", 1_000)
        ctr = counting._Counter(quiver_a(2), 2)
        whole = identity_rows(8, 2)
        tracemalloc.start()
        try:
            big = iter(ctr.between((), whole, 4))
            next(big)
            after_first = tracemalloc.get_traced_memory()[0]
            rest = sum(1 for _ in big)
            after_last = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 1 + rest == 200_787
        assert after_first < 1 << 20 and after_last < 1 << 20, (after_first, after_last)
        assert not ctr.spans and ctr.span_entries == 0

    def test_counts_survive_clears_under_a_small_bound(self, monkeypatch):
        monkeypatch.setattr(counting, "_counters", {})
        monkeypatch.setattr(counting, "_MEMO_BOUND", 8)
        clears = []
        make_room = counting._Counter._make_room

        def held(ctr):
            return len(ctr.memo) + len(ctr.tables) + ctr.span_entries

        def watched(ctr, extra):
            before = held(ctr)
            make_room(ctr, extra)
            if before and not held(ctr):
                clears.append(before)

        monkeypatch.setattr(counting._Counter, "_make_room", watched)
        rng = random.Random(1838)
        checked = nonzero = 0
        for quiver in all_orientations(quiver_d(4)):
            roots = positive_roots(quiver)
            for field in (F2, F3):
                drawn = [rng.choice(roots) for _ in range(3)]
                rep = build_rep(RootMultiset.from_roots(quiver, tuple(drawn)), field)
                types = [u for u in flag_types(rep.dims, 3) if u.d == 3]
                for u in rng.sample(types, min(6, len(types))):
                    want = len(brute_force_flags(rep, u))
                    assert count_flags(rep, u) == want, u.steps
                    nonzero += want > 0
                    ctr = counting._counter(rep, u)
                    assert ctr.span_entries == sum(map(len, ctr.spans.values())) <= 8
                    checked += 1
        assert checked >= 90 and nonzero >= 40 and len(clears) >= 50


NON_TREE_QUIVERS = {
    "kronecker": Quiver(("a", "b"), (("a", "b"), ("a", "b"))),
    "square": Quiver(("a", "b", "c", "d"), (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))),
    "isolated": Quiver(("a", "b", "c"), (("a", "b"),)),
}


class TestNonTreeQuivers:
    """Parallel arrows, a cycle in the underlying graph and an isolated
    vertex: the oracle's walk meets a vertex with two fixed neighbours and a
    frontier that does not touch the chosen vertices, which no Dynkin quiver
    gives it."""

    @pytest.mark.parametrize("name", sorted(NON_TREE_QUIVERS))
    def test_oracle_matches_brute_force(self, name):
        quiver = NON_TREE_QUIVERS[name]
        rng = random.Random(5)
        types = 0
        for field in (F2, F3):
            for _ in range(6):
                dims = tuple(rng.randint(1, 2) for _ in quiver.vertices)
                maps = tuple(
                    tuple(
                        tuple(rng.randrange(field.p) for _ in range(dims[s]))
                        for _ in range(dims[t])
                    )
                    for s, t in quiver.arrow_indices
                )
                rep = Representation(quiver, field, dims, maps)
                for u in flag_types(dims, 3):
                    want = brute_force_flags(rep, u)
                    got = list(enumerate_flags(rep, u))
                    assert len(got) == len(set(got)) and set(got) == set(want), u.steps
                    assert count_flags(rep, u) == len(want), u.steps
                    types += 1
        assert types > 0


class TestStrata:
    def test_partition_identity(self):
        quiver = quiver_d(4)
        v = indecomposable_for_root(quiver, (1, 2, 1, 1), F2)
        w = indecomposable_for_root(quiver, (0, 1, 0, 1), F2)
        u_rep = direct_sum(v, w)
        sub = embedded_first_block(v, u_rep)
        for u in flag_types(u_rep.dims, 2):
            table = stratum_counts(u_rep, sub, u)
            assert sum(table.values()) == count_flags(u_rep, u)

    def test_w_zero_reduces_to_subrep_count(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        z = build_rep(RootMultiset(A2, ()), F2)
        u_rep = direct_sum(p, z)
        sub = embedded_first_block(p, u_rep)
        u = FlagType(((0, 1), (1, 1)))
        assert count_strata(u_rep, sub, u, u) == count_flags(p, u)

    def test_worked_a2_strata(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        s1 = indecomposable_for_root(A2, (1, 0), F2)
        u_rep = direct_sum(p, s1)
        sub = embedded_first_block(p, u_rep)
        u = FlagType(((1, 1), (2, 1)))
        # strata by intersection type with P: worked out by hand over F_2
        v_image = FlagType(((0, 1), (1, 1)))
        v_full = FlagType(((1, 1), (1, 1)))
        assert count_strata(u_rep, sub, u, v_image) == 2
        assert count_strata(u_rep, sub, u, v_full) == 1
        assert count_flags(u_rep, u) == 3

    def test_w_complement_validated(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        s1 = indecomposable_for_root(A2, (1, 0), F2)
        u_rep = direct_sum(p, s1)
        sub = embedded_first_block(p, u_rep)
        u = FlagType(((1, 1), (2, 1)))
        v = FlagType(((0, 1), (1, 1)))
        w_ok = FlagType(((1, 0), (1, 0)))
        assert count_strata(u_rep, sub, u, v, w_ok) == 2
        with pytest.raises(InputError):
            count_strata(u_rep, sub, u, v, FlagType(((0, 0), (1, 0))))

    def test_step_count_mismatch(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        s1 = indecomposable_for_root(A2, (1, 0), F2)
        u_rep = direct_sum(p, s1)
        sub = embedded_first_block(p, u_rep)
        u = FlagType(((0, 1), (1, 1), (2, 1)))
        v = FlagType(((0, 1), (1, 1), (1, 1)))
        assert count_strata(u_rep, sub, u, v, FlagType(((0, 0), (0, 0), (1, 0)))) == 1
        with pytest.raises(InputError, match="different lengths"):
            count_strata(u_rep, sub, u, FlagType(((1, 1),)))
        with pytest.raises(InputError, match="different lengths"):
            count_strata(u_rep, sub, u, v, FlagType(((1, 0),)))


    def test_sub_spaces_validated(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        s1 = indecomposable_for_root(A2, (1, 0), F2)
        u_rep = direct_sum(p, s1)
        u = FlagType(((1, 1), (2, 1)))
        # the line at vertex 1 alone is not arrow-stable in P
        with pytest.raises(InputError, match="not arrow-stable"):
            stratum_counts(u_rep, (((1, 0),), ()), u)
        with pytest.raises(InputError, match="not independent"):
            stratum_counts(u_rep, (((1, 0), (1, 0)), ((1,),)), u)
        # the same subspaces in a non-canonical basis give the same table
        sub = embedded_first_block(p, u_rep)
        assert stratum_counts(u_rep, sub, u) == stratum_counts(u_rep, (((1, 0),), ((3,),)), u)


class TestBudget:
    def test_budget_error(self):
        rep = one_vertex_rep(3, F3)
        u = FlagType(((1,), (2,), (3,)))
        with pytest.raises(BudgetExceededError):
            count_flags(rep, u, budget=2)

    def test_estimate_is_an_upper_bound(self):
        rep = one_vertex_rep(3, F2)
        u = FlagType(((1,), (2,), (3,)))
        assert candidate_estimate(rep, u) >= 21

    def test_rational_representation_rejected(self):
        rep = one_vertex_rep(2, QQ)
        message = "^the counting oracle needs a representation over a prime field$"
        with pytest.raises(InputError, match=message):
            count_flags(rep, FlagType(((1,), (2,))))

    @pytest.mark.parametrize("entry", ["count_flags", "enumerate_flags", "stratum_counts"])
    def test_field_then_weight_then_budget(self, entry):
        # each entry checks the field, then the flag type's weight, then the
        # budget; the enumeration checks on its first step
        enter = {
            "count_flags": lambda rep, u: count_flags(rep, u, budget=1),
            "enumerate_flags": lambda rep, u: next(enumerate_flags(rep, u)),
            "stratum_counts": lambda rep, u: stratum_counts(rep, ((),), u, budget=1),
        }[entry]
        wrong = FlagType(((1,), (2,)))
        with pytest.raises(InputError, match="^the counting oracle needs a representation"):
            enter(one_vertex_rep(3, QQ), wrong)
        rep = one_vertex_rep(3, F2)
        assert candidate_estimate(rep, wrong) > 1
        with pytest.raises(InputError, match=r"^flag type of weight \(2,\) inside dimensions \(3,\)$"):
            enter(rep, wrong)


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        rep = one_vertex_rep(3, F3)
        u = FlagType(((1,), (3,)))
        size = count_flags(rep, u)
        a = sample_flags(rep, u, 5, random.Random(0), size)
        b = sample_flags(rep, u, 5, random.Random(0), size)
        assert a == b

    def test_negative_count_rejected(self):
        rep = one_vertex_rep(2, F2)
        u = FlagType(((1,), (2,)))
        assert sample_flags(rep, u, 0, random.Random(0), 3) == []
        with pytest.raises(InputError, match="sample count"):
            sample_flags(rep, u, -3, random.Random(0), 3)
        # the count is checked before the pool size is read
        with pytest.raises(InputError, match="sample count"):
            sample_flags(rep, u, -1, random.Random(0), 0)

    def test_empty_pool(self):
        p = indecomposable_for_root(A2, (1, 1), F2)
        u = FlagType(((1, 0), (1, 1)))
        assert sample_flags(p, u, 3, random.Random(0), count_flags(p, u)) == []

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    @pytest.mark.parametrize("base", [quiver_a(3), quiver_d(4)], ids=["A3", "D4"])
    def test_matches_draws_from_the_listed_pool(self, base, field):
        # the same randrange draws, made from the whole enumeration as a list
        rng = random.Random(31)
        sizes = set()
        for trial in range(40):
            ms, u = random_instance(rng, base)
            rep = build_rep(ms, field)
            seed = rng.randrange(10**6)
            pool = list(enumerate_flags(rep, u))
            listed = random.Random(seed)
            expected = (
                [pool[listed.randrange(len(pool))] for _ in range(trial % 8)] if pool else []
            )
            counted = random.Random(seed)
            assert sample_flags(rep, u, trial % 8, counted, count_flags(rep, u)) == expected
            assert counted.getstate() == listed.getstate()
            sizes.add(min(len(pool), 2))
        assert sizes == {0, 1, 2}

    def test_overcount_is_inconsistent(self):
        rep = one_vertex_rep(2, F2)
        u = FlagType(((1,), (2,)))
        with pytest.raises(InternalConsistencyError, match="counted 30 flags"):
            sample_flags(rep, u, 7, random.Random(0), 30)
