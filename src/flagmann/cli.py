"""Command-line surface.

Subcommands: ``roots``, ``poincare``, ``check-odd``, ``verify-bundle``.
Exit codes: 0 success, 2 input or precondition error, 3 verification
failure, 4 enumeration budget or recursion depth exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from itertools import repeat

from .counting import count_strata
from .errors import (
    BudgetExceededError,
    FlagmannError,
    InputError,
    VerificationError,
)
from .extended import verify_fiber_rank
from .linalg import PrimeField, identity_rows
from .poincare import PoincarePolynomial, engine_for
from .quiver import (
    FlagType,
    Quiver,
    classify_dynkin,
    flag_types,
    load_quiver,
    parse_flag_type,
    positive_roots,
)
from .reps import build_rep, direct_sum, load_rep_spec


def _poly_lines(poly: PoincarePolynomial) -> list[str]:
    lines = [poly.format_coefficients()]
    m, rest = poly.factor_binomial()
    if m >= 1:
        if rest == PoincarePolynomial.one():
            lines.append(f"factored: (1+q)^{m}")
        else:
            lines.append(f"factored: (1+q)^{m} * ({rest})")
    return lines


def cmd_roots(args) -> int:
    quiver = load_quiver(args.quiver)
    cls = classify_dynkin(quiver)
    if not cls.is_dynkin:
        raise InputError(f"quiver in {args.quiver} is not Dynkin")
    roots = positive_roots(quiver)
    if args.json:
        print(
            json.dumps(
                {
                    "quiver": str(args.quiver),
                    "kind": cls.label(),
                    "roots": [list(r) for r in roots],
                    "count": len(roots),
                    "status": "ok",
                }
            )
        )
    else:
        print(f"type: {cls.label()}")
        print(f"roots: {len(roots)}")
        for r in roots:
            print(",".join(str(x) for x in r))
    return 0


def cmd_poincare(args) -> int:
    quiver = load_quiver(args.quiver)
    multiset = load_rep_spec(args.rep, quiver)
    flag = parse_flag_type(args.flag, quiver)
    engine = engine_for(quiver, args.budget)
    poly = engine.poincare(multiset, flag)
    verified = []
    if args.verify:
        for q in (2, 3):
            counted = engine.count(multiset, flag, q)
            if counted != poly.evaluate(q):
                raise VerificationError(
                    f"count over F_{q} is {counted}, polynomial gives {poly.evaluate(q)}"
                )
            verified.append(q)
    if args.json:
        print(
            json.dumps(
                {
                    "quiver": str(args.quiver),
                    "roots": [[list(r), m] for r, m in multiset.items],
                    "flag_type": [list(s) for s in flag.steps],
                    "coefficients": list(poly.coefficients),
                    "verified_primes": verified,
                    "status": "ok",
                }
            )
        )
    else:
        for line in _poly_lines(poly):
            print(line)
        if verified:
            print(f"verified at q = {', '.join(str(q) for q in verified)}")
    return 0


def _campaign_instance(quiver: Quiver, root, flag: FlagType, budget):
    """One campaign row: the base case of a root, whose fit compares counts
    at q = 2 and 3 among others."""
    engine = engine_for(quiver, budget)
    row = {
        "root": list(root),
        "flag_type": [list(s) for s in flag.steps],
        "coefficients": None,
        "status": "ok",
        "detail": "",
    }
    try:
        row["coefficients"] = list(engine.base_case(root, flag).coefficients)
    except BudgetExceededError as exc:
        row["status"] = "budget"
        row["detail"] = str(exc)
    except VerificationError as exc:
        row["status"] = "fail"
        row["detail"] = str(exc)
    return row


def cmd_check_odd(args) -> int:
    quiver = load_quiver(args.quiver)
    cls = classify_dynkin(quiver)
    if not cls.is_dynkin:
        raise InputError(f"quiver in {args.quiver} is not Dynkin")
    roots = [
        r
        for r in positive_roots(quiver)
        if sum(r) <= args.max_dim and (args.max_entry is None or max(r) <= args.max_entry)
    ]
    job_roots, job_flags = [], []
    for root in roots:
        for flag in flag_types(root, args.d_max):
            job_roots.append(root)
            job_flags.append(flag)
    jobs = (repeat(quiver), job_roots, job_flags, repeat(args.budget))
    # workers beyond the CPU count add processes, not speed; under the fork
    # start method every one of them is forked at the first submit
    workers = min(args.jobs, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_campaign_instance, *jobs, chunksize=16))
    else:
        rows = list(map(_campaign_instance, *jobs))
    failures = sum(1 for row in rows if row["status"] == "fail")
    over_budget = sum(1 for row in rows if row["status"] == "budget")
    if args.json:
        print(
            json.dumps(
                {
                    "quiver": str(args.quiver),
                    "kind": cls.label(),
                    "instances": rows,
                    "failures": failures,
                    "over_budget": over_budget,
                    "status": "ok" if failures == 0 else "fail",
                }
            )
        )
    else:
        for row in rows:
            root = ",".join(str(x) for x in row["root"])
            flag = ";".join(",".join(str(x) for x in s) for s in row["flag_type"])
            coeffs = PoincarePolynomial(tuple(row["coefficients"] or ())).format_coefficients()
            line = f"{row['status']:6s} root={root} flag={flag} poly={coeffs}"
            if row["detail"]:
                line += f"  ({row['detail']})"
            print(line)
        print(
            f"checked {len(rows)} instances: {failures} failures, "
            f"{over_budget} over budget"
        )
    return 0 if failures == 0 else 3


def cmd_verify_bundle(args) -> int:
    quiver = load_quiver(args.quiver)
    field = PrimeField(args.prime)
    v_ms = load_rep_spec(args.v_rep, quiver)
    w_ms = load_rep_spec(args.w_rep, quiver)
    v_flag = parse_flag_type(args.v_flag, quiver)
    w_flag = parse_flag_type(args.w_flag, quiver)
    v_rep = build_rep(v_ms, field)
    w_rep = build_rep(w_ms, field)
    report = verify_fiber_rank(
        v_rep, w_rep, v_flag, w_flag, samples=args.samples, seed=args.seed, budget=args.budget
    )
    # bundle identity over F_p: stratum count = q^rank * |F_v(V)| * |F_w(W)|
    u_rep = direct_sum(v_rep, w_rep)
    u_flag = FlagType(
        tuple(tuple(a + b for a, b in zip(vs, ws)) for vs, ws in zip(v_flag.steps, w_flag.steps))
    )
    embedded = tuple(identity_rows(n, field.p)[:k] for n, k in zip(u_rep.dims, v_rep.dims))
    stratum = count_strata(u_rep, embedded, u_flag, v_flag, w_flag, budget=args.budget)
    # only an empty stratum can have a negative rank
    expected = (
        args.prime**report.expected_rank * report.sub_flag_count * report.quot_flag_count
        if report.expected_rank >= 0
        else 0
    )
    print(f"rank: {report.expected_rank}")
    print(f"flags: {report.sub_flag_count} x {report.quot_flag_count} over F_{report.prime}")
    print(
        "fiber dims: "
        + (" ".join(str(x) for x in report.fiber_dims) if report.fiber_dims else "(none)")
    )
    print(f"stratum count: {stratum}, bundle formula: {expected}")
    if not report.ok or stratum != expected:
        for dev in report.deviations:
            print("deviation: " + dev)
        raise VerificationError("bundle verification failed")
    print("ok")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="flagmann",
        description=(
            "Exact cell-count polynomials for flag varieties of quiver "
            "subrepresentations, verified by finite-field point counts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="list the positive roots of a Dynkin quiver")
    p_roots.add_argument("--quiver", required=True)
    p_roots.add_argument("--json", action="store_true")
    p_roots.set_defaults(func=cmd_roots)

    p_poi = sub.add_parser("poincare", help="compute a cell-count polynomial")
    p_poi.add_argument("--quiver", required=True)
    p_poi.add_argument("--rep", required=True, help="summand list file")
    p_poi.add_argument("--flag", required=True, help="flag type, e.g. 0,1;1,1")
    p_poi.add_argument("--verify", action="store_true", help="re-count over F_2 and F_3")
    p_poi.add_argument("--json", action="store_true")
    p_poi.add_argument("--budget", type=int, default=None)
    p_poi.set_defaults(func=cmd_poincare)

    p_odd = sub.add_parser(
        "check-odd", help="campaign over indecomposables: polynomials vs. counts"
    )
    p_odd.add_argument("--quiver", required=True)
    p_odd.add_argument("--max-dim", type=int, default=6, help="total dimension cap")
    p_odd.add_argument("--max-entry", type=int, default=None, help="per-vertex cap")
    p_odd.add_argument("--d-max", type=int, default=2)
    p_odd.add_argument("--jobs", type=int, default=1)
    p_odd.add_argument("--json", action="store_true")
    p_odd.add_argument("--budget", type=int, default=None)
    p_odd.set_defaults(func=cmd_check_odd)

    p_vb = sub.add_parser(
        "verify-bundle", help="check the stratum bundle rank on sampled flags"
    )
    p_vb.add_argument("--quiver", required=True)
    p_vb.add_argument("--v-rep", required=True, help="sub-side summand file")
    p_vb.add_argument("--w-rep", required=True, help="quotient-side summand file")
    p_vb.add_argument("--v-flag", required=True)
    p_vb.add_argument("--w-flag", required=True)
    p_vb.add_argument("--samples", type=int, default=5)
    p_vb.add_argument("--seed", type=int, default=0)
    p_vb.add_argument("--prime", type=int, default=2)
    p_vb.add_argument("--budget", type=int, default=None)
    p_vb.set_defaults(func=cmd_verify_bundle)

    return parser


def main(argv=None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a budget admits at least one candidate, and a campaign needs a
        # worker, a dimension and a step; a command takes only its own options
        for option in ("budget", "jobs", "max_dim", "d_max"):
            value = getattr(args, option, None)
            if value is not None and value < 1:
                raise InputError(f"--{option.replace('_', '-')} must be at least 1, got {value}")
        code = args.func(args)
    except VerificationError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        code = 3
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        code = 4
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        code = 2
    except FlagmannError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
