"""Quiver combinatorics: Euler form, flag types, Dynkin classification and
positive roots checked against an independent quadratic-form oracle."""

import random
from collections import Counter, deque
from itertools import product
from math import comb, prod

import pytest

from flagmann import (
    FlagType,
    Quiver,
    classify_dynkin,
    euler_form,
    flag_differences,
    flag_types,
    parse_flag_type,
    parse_quiver,
    positive_roots,
)
from flagmann.errors import InputError, UnsupportedQuiverError
from flagmann.cli import main
from flagmann.quiver import parse_dim_vector

from helpers import all_orientations, chains, format_quiver, quiver_a, quiver_d, quiver_e

A2 = quiver_a(2)


def tits_form_roots(quiver, bound):
    """Independent oracle: positive vectors with q(v) = 1 for the Tits form
    q(v) = sum v_i^2 - sum_{edges} v_i v_j of the underlying graph."""
    n = quiver.n
    edges = quiver.arrow_indices
    out = []
    for vec in product(range(bound + 1), repeat=n):
        if not any(vec):
            continue
        q = sum(x * x for x in vec) - sum(vec[s] * vec[t] for s, t in edges)
        if q == 1:
            out.append(vec)
    return set(out)


class TestQuiverType:
    def test_arrow_endpoints_checked(self):
        with pytest.raises(InputError):
            Quiver(("1",), (("1", "2"),))

    def test_loops_rejected(self):
        with pytest.raises(InputError):
            Quiver(("1", "2"), (("1", "1"),))

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(InputError):
            Quiver(("1", "1"), ())


class TestEulerForm:
    def test_a2_examples(self):
        assert euler_form(A2, (1, 0), (0, 1)) == -1
        assert euler_form(A2, (0, 1), (1, 0)) == 0
        assert euler_form(A2, (1, 1), (1, 1)) == 1

    def test_bilinearity(self):
        vecs = [(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (3, 3)]
        for w1 in vecs:
            for w2 in vecs:
                for v in vecs:
                    lhs = euler_form(A2, tuple(a + b for a, b in zip(w1, w2)), v)
                    assert lhs == euler_form(A2, w1, v) + euler_form(A2, w2, v)
                    rhs = euler_form(A2, v, tuple(a + b for a, b in zip(w1, w2)))
                    assert rhs == euler_form(A2, v, w1) + euler_form(A2, v, w2)

    def test_mismatched_lengths(self):
        with pytest.raises(InputError):
            euler_form(A2, (1,), (0, 1))

    def test_root_norm_one(self):
        for quiver in (quiver_a(3), quiver_d(4), quiver_e(6)):
            for root in positive_roots(quiver):
                assert euler_form(quiver, root, root) == 1


class TestFlagType:
    def test_differences_one_vertex(self):
        ft = FlagType(((1,), (2,), (3,)))
        assert flag_differences(ft) == ((1,), (1,), (1,))

    def test_differences_a2(self):
        ft = FlagType(((0, 1), (1, 1)))
        assert flag_differences(ft) == ((0, 1), (1, 0))

    def test_single_step(self):
        ft = FlagType(((1, 1),))
        assert flag_differences(ft) == ((1, 1),)

    def test_prefix_sums_reconstruct(self):
        for steps in [((0, 1), (1, 2), (3, 2)), ((2,), (2,), (5,))]:
            ft = FlagType(steps)
            acc = tuple(0 for _ in steps[0])
            rebuilt = []
            for diff in flag_differences(ft):
                acc = tuple(a + b for a, b in zip(acc, diff))
                rebuilt.append(acc)
            assert tuple(rebuilt) == ft.steps

    def test_monotonicity_enforced(self):
        with pytest.raises(InputError):
            FlagType(((1, 0), (0, 1)))

    @pytest.mark.parametrize(
        "steps, message",
        [
            ((), "at least one step"),
            (((1, 0), (1,)), "inconsistent lengths"),
            (((-1, 0), (1,)), "inconsistent lengths"),
            (((0, -1), (0, 1)), "nonnegative"),
            (((0,), (-1,)), "nonnegative"),
        ],
    )
    def test_malformed_steps_rejected(self, steps, message):
        with pytest.raises(InputError, match=message):
            FlagType(steps)

    def test_entries_coerced_to_int(self):
        assert FlagType((("0", 1), (True, 2))).steps == ((0, 1), (1, 2))


class TestFlagTypes:
    WEIGHTS = [(), (0,), (3,), (0, 0), (2, 1), (1, 0, 2), (1, 2, 1, 1)]

    @pytest.mark.parametrize("weight", WEIGHTS)
    def test_count_per_length(self, weight):
        # per vertex, the d - 1 lower steps are a weakly increasing sequence in 0..w
        by_d = Counter(u.d for u in flag_types(weight, 4))
        for d in range(1, 5):
            assert by_d[d] == prod(comb(w + d - 1, d - 1) for w in weight)

    @pytest.mark.parametrize("weight", WEIGHTS)
    def test_order_and_weight(self, weight):
        types = list(flag_types(weight, 3))
        lengths = [u.d for u in types]
        assert lengths == sorted(lengths)
        for d in (1, 2, 3):
            steps = [u.steps for u in types if u.d == d]
            assert all(s[-1] == weight for s in steps)
            assert all(a < b for a, b in zip(steps, steps[1:]))
        assert types[0] == FlagType((weight,))

    def test_no_steps_no_types(self):
        assert list(flag_types((1, 1), 0)) == []

    def test_order_matches_the_recursive_reference(self):
        # the order feeds the bytes of `check-odd` and the E6 golden digests
        rng = random.Random(24)
        weights = [()] + [
            tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3))) for _ in range(16)
        ]
        assert sum(0 in w for w in weights) >= 4
        for weight in weights:
            for d_max in range(5):
                assert list(flag_types(weight, d_max)) == [
                    FlagType(lower + (weight,))
                    for d in range(1, d_max + 1)
                    for lower in chains(d - 1, (0,) * len(weight), weight)
                ]

    def test_long_chains_take_no_frame_per_step(self, shallow_stack):
        last = deque(flag_types((0, 0), 300), maxlen=1).pop()
        assert last.steps == ((0, 0),) * 300


class TestClassification:
    def test_paths_are_type_a(self):
        for quiver in all_orientations(quiver_a(3)):
            cls = classify_dynkin(quiver)
            assert cls.label() == "A3"

    def test_star_is_d4(self):
        assert classify_dynkin(quiver_d(4)).label() == "D4"

    def test_cycle_is_not_dynkin(self):
        cyc = Quiver(("1", "2", "3"), (("1", "2"), ("2", "3"), ("3", "1")))
        assert not classify_dynkin(cyc).is_dynkin

    def test_parallel_arrows_not_dynkin(self):
        kron = Quiver(("1", "2"), (("1", "2"), ("1", "2")))
        assert not classify_dynkin(kron).is_dynkin

    def test_disconnected_not_dynkin(self):
        two = Quiver(("1", "2"), ())
        assert not classify_dynkin(two).is_dynkin

    def test_e_series(self):
        assert classify_dynkin(quiver_e(6)).label() == "E6"
        assert classify_dynkin(quiver_e(7)).label() == "E7"
        assert classify_dynkin(quiver_e(8)).label() == "E8"

    def test_single_vertex(self):
        assert classify_dynkin(Quiver(("x",), ())).label() == "A1"

    def test_relabel_covers_all_vertices(self):
        for quiver in (quiver_a(4), quiver_d(5), quiver_e(7)):
            cls = classify_dynkin(quiver)
            labels = sorted(cls.relabeling.values())
            assert labels == list(range(1, quiver.n + 1))


def star(*arms):
    """A centre `c` with paths of the given lengths hanging off it."""
    vertices, arrows = ["c"], []
    for a, length in enumerate(arms):
        prev = "c"
        for k in range(length):
            vertices.append(f"{a}.{k}")
            arrows.append((prev, f"{a}.{k}"))
            prev = f"{a}.{k}"
    return Quiver(tuple(vertices), tuple(arrows))


NOT_DYNKIN = {
    "empty": Quiver((), ()),
    "triangle+isolated": Quiver(("1", "2", "3", "4"), (("1", "2"), ("2", "3"), ("3", "1"))),
    "affine-D4": star(1, 1, 1, 1),
    "affine-D5": Quiver(
        tuple("abcdef"), (("a", "c"), ("b", "c"), ("c", "d"), ("d", "e"), ("d", "f"))
    ),
    "affine-E6": star(2, 2, 2),
    "affine-E7": star(1, 3, 3),
    "affine-E8": star(1, 2, 5),
}


class TestRejections:
    """Each rejection of the classifier: an accepted affine quiver would send
    `positive_roots` after an infinite root set."""

    @pytest.mark.parametrize("name", list(NOT_DYNKIN))
    def test_not_dynkin(self, name):
        cls = classify_dynkin(NOT_DYNKIN[name])
        assert not cls.is_dynkin and cls.label() == "not Dynkin"

    def test_roots_of_affine_e8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "e8-affine.qv"
        path.write_text(format_quiver(NOT_DYNKIN["affine-E8"]))
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--quiver", str(path)])
        assert exc.value.code == 2
        assert "not Dynkin" in capsys.readouterr().err


class TestPositiveRoots:
    def test_a2(self):
        assert set(positive_roots(A2)) == {(1, 0), (0, 1), (1, 1)}

    def test_a3_count(self):
        assert len(positive_roots(quiver_a(3))) == 6

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_a_series_count(self, n):
        assert len(positive_roots(quiver_a(n))) == n * (n + 1) // 2

    @pytest.mark.parametrize("n", [4, 5])
    def test_d_series_count(self, n):
        assert len(positive_roots(quiver_d(n))) == n * (n - 1)

    def test_e6_count(self):
        assert len(positive_roots(quiver_e(6))) == 36

    def test_d4_highest_root(self):
        roots = positive_roots(quiver_d(4))
        # the trivalent vertex is '2' (index 1): entry 2 there
        assert (1, 2, 1, 1) in roots
        assert max(roots, key=sum) == (1, 2, 1, 1)

    @pytest.mark.parametrize(
        "quiver,bound",
        [(quiver_a(2), 2), (quiver_a(4), 2), (quiver_d(4), 3), (quiver_d(5), 3), (quiver_e(6), 4)],
    )
    def test_against_tits_form_oracle(self, quiver, bound):
        assert set(positive_roots(quiver)) == tits_form_roots(quiver, bound)

    def test_orientation_independent(self):
        base = quiver_d(4)
        expected = set(positive_roots(base))
        for quiver in all_orientations(base):
            assert set(positive_roots(quiver)) == expected

    def test_each_root_once_deterministic(self):
        roots = positive_roots(quiver_e(6))
        assert len(set(roots)) == len(roots)
        assert roots == positive_roots(quiver_e(6))

    def test_not_dynkin_raises(self):
        cyc = Quiver(("1", "2", "3"), (("1", "2"), ("2", "3"), ("3", "1")))
        with pytest.raises(UnsupportedQuiverError):
            positive_roots(cyc)


class TestTextFormats:
    def test_parse_round_trip(self):
        text = "# a comment\nvertices: a b c\narrow: a -> b\narrow: c -> b\n"
        quiver = parse_quiver(text)
        assert quiver.vertices == ("a", "b", "c")
        assert quiver.arrows == (("a", "b"), ("c", "b"))
        assert parse_quiver(format_quiver(quiver)) == quiver

    def test_parse_errors(self):
        with pytest.raises(InputError):
            parse_quiver("arrow: a -> b\n")
        with pytest.raises(InputError):
            parse_quiver("vertices: a b\nvertices: a b\n")
        with pytest.raises(InputError):
            parse_quiver("vertices: a b\narrow: a b\n")

    def test_dim_vector_and_flag_type(self):
        assert parse_dim_vector("1,2", A2) == (1, 2)
        ft = parse_flag_type("0,1;1,1", A2)
        assert ft.steps == ((0, 1), (1, 1))
        with pytest.raises(InputError):
            parse_dim_vector("1,x", A2)
        with pytest.raises(InputError):
            parse_flag_type("1,1;0,1", A2)
