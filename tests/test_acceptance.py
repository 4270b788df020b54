"""Acceptance criteria, one test per criterion, exact integer checks.

Each test prints a single PASS line with its coverage numbers; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  The heavy sweeps
share engines (and their memo tables) through `engine_for`.
"""

import json
import random

import pytest

from flagmann import (
    FlagType,
    PrimeField,
    QQ,
    RootMultiset,
    build_rep,
    count_flags,
    count_strata,
    direct_sum,
    engine_for,
    ext1_dim,
    euler_form,
    flag_types,
    hom_dim,
    hom_dim_rep0,
    indecomposable_for_root,
    phi,
    positive_roots,
    rigid_dimension,
    stratum_rank,
    verify_fiber_rank,
)
from flagmann.cli import main

from helpers import (
    all_orientations,
    format_quiver,
    multisets_upto,
    quiver_a,
    quiver_d,
    quiver_e,
)

def criterion_sweep_quivers():
    for base in (quiver_a(2), quiver_a(3), quiver_d(4)):
        yield from all_orientations(base)


def test_criterion_1_oracle_equivalence():
    """Polynomials evaluate to the exact F_q point counts."""
    instances = 0
    for quiver in criterion_sweep_quivers():
        eng = engine_for(quiver)
        roots = positive_roots(quiver)
        for ms in multisets_upto(quiver, roots, 3, 6):
            for u in flag_types(ms.total, 3):
                poly = eng.poincare(ms, u)
                for q in (2, 3):
                    counted = eng.count(ms, u, q)
                    assert counted == poly.evaluate(q), (
                        quiver.arrows, ms.items, u.steps, q, counted, poly.coefficients,
                    )
                instances += 1
    assert instances > 100_000
    print(f"\nACCEPTANCE 1 PASS: oracle equivalence on {instances} instances at q in {{2,3}}")


def test_criterion_2_type_a_classification():
    """Type A indecomposables give empty or singleton flag varieties."""
    checked = 0
    for directions in ([0, 0, 0], [0, 1, 0]):
        quiver = quiver_a(4, directions)
        eng = engine_for(quiver)
        for root in positive_roots(quiver):
            for u in flag_types(root, 4):
                poly = eng.base_case(root, u)
                assert poly.coefficients in ((), (1,)), (root, u.steps, poly)
                checked += 1
    print(f"\nACCEPTANCE 2 PASS: {checked} type A flag varieties are all 0 or 1")


def test_criterion_3_type_d_classification():
    """Type D indecomposables: 0, 1 or (1+q)^m with 3^m / 4^m counts."""
    checked = 0
    cases = [quiver_d(4), quiver_d(4, [1, 1, 1]), quiver_d(5)]
    for quiver, d_max in ((cases[0], 3), (cases[1], 3), (cases[2], 3)):
        eng = engine_for(quiver)
        for root in positive_roots(quiver):
            if quiver.n == 5 and max(root) > 2:
                continue  # D5 sweep restricted to entries <= 2 (all roots qualify)
            for u in flag_types(root, d_max):
                poly = eng.base_case(root, u)
                ms = RootMultiset(quiver, ((root, 1),))
                n2, n3 = eng.count(ms, u, 2), eng.count(ms, u, 3)
                if poly.is_zero:
                    assert n2 == 0 and n3 == 0
                else:
                    m, rest = poly.factor_binomial()
                    assert rest.coefficients == (1,), (root, u.steps, poly)
                    assert n2 == 3**m and n3 == 4**m, (root, u.steps, m, n2, n3)
                checked += 1
    print(f"\nACCEPTANCE 3 PASS: {checked} type D flag varieties are 0, 1 or (1+q)^m")


def _random_flag_type(rng, weight, d):
    steps = [tuple(weight)]
    for _ in range(d - 1):
        prev = steps[0]
        steps.insert(0, tuple(rng.randint(0, x) for x in prev))
    return FlagType(tuple(steps))


def test_criterion_4_bundle_rank():
    """Fiber Hom dimension and the F_2 stratum count match the rank formula."""
    rng = random.Random(0)
    pools = [quiver_a(2), quiver_a(3), quiver_d(4)]
    done = 0
    attempts = 0
    while done < 20:
        attempts += 1
        assert attempts < 4000, "sampling failed to find enough instances"
        quiver = pools[rng.randrange(len(pools))]
        roots = positive_roots(quiver)
        v_roots = tuple(roots[rng.randrange(len(roots))] for _ in range(rng.randint(1, 2)))
        w_root = roots[rng.randrange(len(roots))]
        v_ms = RootMultiset.from_roots(quiver, v_roots)
        w_ms = RootMultiset(quiver, ((w_root, 1),))
        field = PrimeField(2)
        v_rep = build_rep(v_ms, field)
        w_rep = build_rep(w_ms, field)
        if ext1_dim(w_rep, v_rep) != 0:
            continue
        d = rng.randint(2, 3)
        v_flag = _random_flag_type(rng, v_rep.dims, d)
        w_flag = _random_flag_type(rng, w_rep.dims, d)
        if count_flags(v_rep, v_flag) == 0 or count_flags(w_rep, w_flag) == 0:
            continue
        report = verify_fiber_rank(v_rep, w_rep, v_flag, w_flag, samples=3, seed=done)
        assert report.ok, report.deviations
        u_rep = direct_sum(v_rep, w_rep)
        embedded = tuple(
            tuple(
                tuple(1 if j == k else 0 for j in range(u_rep.dims[i]))
                for k in range(v_rep.dims[i])
            )
            for i in range(quiver.n)
        )
        u_flag = FlagType(
            tuple(
                tuple(a + b for a, b in zip(vs, ws))
                for vs, ws in zip(v_flag.steps, w_flag.steps)
            )
        )
        stratum = count_strata(u_rep, embedded, u_flag, v_flag, w_flag)
        expected = (
            2 ** stratum_rank(quiver, w_flag, v_flag)
            * count_flags(v_rep, v_flag)
            * count_flags(w_rep, w_flag)
        )
        assert stratum == expected, (quiver.arrows, v_ms.items, w_ms.items)
        done += 1
    print(f"\nACCEPTANCE 4 PASS: bundle rank confirmed on {done} sampled instances")


def test_criterion_5_rigid_dimension():
    """Nonempty rigid flag varieties have polynomial degree = expected dimension."""
    checked = 0
    for quiver in criterion_sweep_quivers():
        eng = engine_for(quiver)
        roots = positive_roots(quiver)
        for ms in multisets_upto(quiver, roots, 3, 6):
            if not eng.multiset_is_rigid(ms):
                continue
            for u in flag_types(ms.total, 3):
                poly = eng.poincare(ms, u)
                if poly.is_zero:
                    continue
                assert len(poly.coefficients) - 1 == rigid_dimension(quiver, u), (
                    quiver.arrows, ms.items, u.steps, poly.coefficients,
                )
                checked += 1
    assert checked > 10_000
    print(f"\nACCEPTANCE 5 PASS: degree = rigid dimension on {checked} nonempty cases")


def test_criterion_6_type_e_desk_scale():
    """E6 indecomposables up to total dimension 8: counts fit one polynomial."""
    quiver = quiver_e(6)
    eng = engine_for(quiver)
    checked = 0
    over_budget = []
    from flagmann.errors import BudgetExceededError

    for root in positive_roots(quiver):
        if sum(root) > 8:
            continue
        for u in flag_types(root, 2):
            ms = RootMultiset(quiver, ((root, 1),))
            try:
                poly = eng.base_case_rigid_interpolation(ms, u)
            except BudgetExceededError as exc:
                over_budget.append((root, u.steps, str(exc)))
                continue
            assert all(c >= 0 for c in poly.coefficients)
            if not poly.is_zero:
                assert len(poly.coefficients) - 1 == rigid_dimension(quiver, u), (root, u.steps)
            checked += 1
    assert not over_budget, f"instances over budget: {over_budget}"
    assert checked > 500
    print(
        f"\nACCEPTANCE 6 PASS: {checked} E6 desk-scale interpolations verified, "
        f"{len(over_budget)} over budget"
    )


def test_criterion_7_euler_identity():
    """hom - ext1 = Euler form, exhaustively over A4 and D4 indecomposables."""
    pairs = 0
    for quiver in (quiver_a(4), quiver_d(4)):
        roots = positive_roots(quiver)
        reps = {r: indecomposable_for_root(quiver, r, QQ) for r in roots}
        for a in roots:
            for b in roots:
                h = hom_dim(reps[a], reps[b])
                e = ext1_dim(reps[a], reps[b])  # raises if negative
                assert h - e == euler_form(quiver, a, b)
                pairs += 1
    assert pairs == 100 + 144
    print(f"\nACCEPTANCE 7 PASS: Euler identity on {pairs} indecomposable pairs")


def test_criterion_8_full_faithfulness():
    """The layer-constant embedding preserves Hom dimensions (A3, d = 2, 3)."""
    quiver = quiver_a(3)
    roots = positive_roots(quiver)
    reps = {r: indecomposable_for_root(quiver, r, QQ) for r in roots}
    pairs = 0
    for d in (2, 3):
        for a in roots:
            for b in roots:
                lhs = hom_dim_rep0(phi(reps[a], d), phi(reps[b], d))
                assert lhs == hom_dim(reps[a], reps[b])
                pairs += 1
    assert pairs == 72
    print(f"\nACCEPTANCE 8 PASS: full faithfulness on {pairs} pairs at d in {{2,3}}")


def test_criterion_9_type_e7_reach(tmp_path, capsys):
    """check-odd on every E7 indecomposable at d <= 2: no row fails and none
    exceeds the default budget."""
    path = tmp_path / "e7.qv"
    path.write_text(format_quiver(quiver_e(7)))
    with pytest.raises(SystemExit) as exc:
        main(["check-odd", "--quiver", str(path), "--max-dim", "99", "--d-max", "2", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert exc.value.code == 0
    assert (report["failures"], report["over_budget"]) == (0, 0)
    rows = len(report["instances"])
    assert rows > 20_000
    print(f"\nACCEPTANCE 9 PASS: {rows} E7 check-odd rows, 0 fail, 0 over budget")
