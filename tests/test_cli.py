"""Command-line surface: outputs, exit codes, JSON shape, determinism."""

import hashlib
import importlib
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import flagmann
from flagmann import (
    QQ,
    BudgetExceededError,
    FlagType,
    PoincareEngine,
    PrimeField,
    RootMultiset,
    build_rep,
    count_flags,
    engine_for,
    ext1_dim,
    parse_flag_type,
    parse_quiver,
    positive_roots,
)
from flagmann.cli import main

A2_QUIVER = "vertices: 1 2\narrow: 1 -> 2\n"
D4_QUIVER = (
    "vertices: 1 2 3 4\narrow: 1 -> 2\narrow: 3 -> 2\narrow: 4 -> 2\n"
)
A3_QUIVER = "vertices: 1 2 3\narrow: 1 -> 2\narrow: 3 -> 2\n"
E6_QUIVER = (
    "vertices: 1 2 3 4 5 6\n"
    "arrow: 1 -> 3\narrow: 3 -> 4\narrow: 2 -> 4\narrow: 4 -> 5\narrow: 5 -> 6\n"
)
CYCLE_QUIVER = "vertices: 1 2 3\narrow: 1 -> 2\narrow: 2 -> 3\narrow: 3 -> 1\n"


def run_cli(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.fixture
def a2(tmp_path):
    path = tmp_path / "a2.qv"
    path.write_text(A2_QUIVER)
    return path


@pytest.fixture
def d4(tmp_path):
    path = tmp_path / "d4.qv"
    path.write_text(D4_QUIVER)
    return path


class TestRoots:
    def test_a2(self, a2, capsys):
        code, out, _ = run_cli(["roots", "--quiver", str(a2)], capsys)
        assert code == 0
        assert "type: A2" in out
        assert "roots: 3" in out

    def test_d4(self, d4, capsys):
        code, out, _ = run_cli(["roots", "--quiver", str(d4)], capsys)
        assert code == 0
        assert "roots: 12" in out

    def test_json(self, a2, capsys):
        code, out, _ = run_cli(["roots", "--quiver", str(a2), "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "A2"
        assert data["count"] == 3
        assert data["status"] == "ok"

    def test_cycle_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cycle.qv"
        path.write_text(CYCLE_QUIVER)
        code, _, err = run_cli(["roots", "--quiver", str(path)], capsys)
        assert code == 2
        assert "not Dynkin" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(["roots", "--quiver", str(tmp_path / "nope.qv")], capsys)
        assert code == 2

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.qv"
        path.write_bytes(b"vertices: 1 2\xff\n")
        code, out, err = run_cli(["roots", "--quiver", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: cannot read quiver file")


class TestPoincare:
    def test_complete_flags(self, tmp_path, capsys):
        quiver = tmp_path / "one.qv"
        quiver.write_text("vertices: x\n")
        rep = tmp_path / "c3.rep"
        rep.write_text("summand: 1 x 3\n")
        code, out, _ = run_cli(
            [
                "poincare",
                "--quiver", str(quiver),
                "--rep", str(rep),
                "--flag", "1;2;3",
                "--verify",
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "1 2 2 1"
        assert "verified at q = 2, 3" in out

    def test_empty_variety(self, a2, tmp_path, capsys):
        rep = tmp_path / "p.rep"
        rep.write_text("summand: 1,1 x 1\n")
        code, out, _ = run_cli(
            ["poincare", "--quiver", str(a2), "--rep", str(rep), "--flag", "1,0;1,1"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "0"

    @pytest.mark.parametrize(
        "extra, want",
        [
            ([], "0\n"),
            (["--verify"], "0\nverified at q = 2, 3\n"),
            (["--json"], None),
        ],
    )
    def test_empty_variety_bytes(self, a2, tmp_path, capsys, extra, want):
        rep = tmp_path / "p.rep"
        rep.write_text("summand: 1,1\n")
        code, out, err = run_cli(
            ["poincare", "--quiver", str(a2), "--rep", str(rep), "--flag", "1,0;1,1"] + extra,
            capsys,
        )
        assert (code, err) == (0, "")
        if want is None:
            assert json.loads(out)["coefficients"] == []
        else:
            assert out == want

    def test_d4_highest_root_line(self, d4, tmp_path, capsys):
        rep = tmp_path / "high.rep"
        rep.write_text("summand: 1,2,1,1\n")
        code, out, _ = run_cli(
            [
                "poincare",
                "--quiver", str(d4),
                "--rep", str(rep),
                "--flag", "0,1,0,0;1,2,1,1",
                "--verify",
                "--json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["coefficients"] == [1, 1]
        assert data["verified_primes"] == [2, 3]

    def test_factored_output(self, d4, tmp_path, capsys):
        rep = tmp_path / "high.rep"
        rep.write_text("summand: 1,2,1,1\n")
        code, out, _ = run_cli(
            ["poincare", "--quiver", str(d4), "--rep", str(rep), "--flag", "0,1,0,0;1,2,1,1"],
            capsys,
        )
        assert code == 0
        assert "factored: (1+q)^1" in out

    def test_weight_mismatch_exits_2(self, a2, tmp_path, capsys):
        rep = tmp_path / "p.rep"
        rep.write_text("summand: 1,1\n")
        code, _, _ = run_cli(
            ["poincare", "--quiver", str(a2), "--rep", str(rep), "--flag", "0,1;1,2"],
            capsys,
        )
        assert code == 2

    def test_budget_exits_4(self, tmp_path, capsys):
        quiver = tmp_path / "one.qv"
        quiver.write_text("vertices: x\n")
        rep = tmp_path / "c4.rep"
        rep.write_text("summand: 1 x 4\n")
        code, _, err = run_cli(
            [
                "poincare",
                "--quiver", str(quiver),
                "--rep", str(rep),
                "--flag", "1;2;3;4",
                "--verify",
                "--budget", "2",
            ],
            capsys,
        )
        assert code == 4
        assert "budget" in err

    def test_padded_flag_exits_4_alike(self, d4, tmp_path, capsys):
        # zero and repeated steps add a factor 1 to the estimate: the same
        # inputs exit 4, with the same message, in the recursion and the oracle
        rep = tmp_path / "two.rep"
        rep.write_text("summand: 1,2,1,1\nsummand: 0,1,0,0\n")
        plain = "0,1,0,0;1,3,1,1"
        args = ["poincare", "--quiver", str(d4), "--rep", str(rep), "--budget", "3"]
        code, out, err = run_cli(args + ["--flag", plain], capsys)
        assert (code, out) == (4, "")
        assert err == (
            "budget exceeded: base case out of desk range for summands "
            "(((1, 2, 1, 1), 1),): estimated 4 candidate tuples exceeds budget 3\n"
        )
        ms = RootMultiset(parse_quiver(D4_QUIVER), (((1, 2, 1, 1), 1), ((0, 1, 0, 0), 1)))
        v = build_rep(ms, PrimeField(2))
        with pytest.raises(BudgetExceededError) as raw:
            count_flags(v, parse_flag_type(plain, ms.quiver), 3)
        for padded in (
            "0,0,0,0;" + plain,
            "0,1,0,0;0,1,0,0;1,3,1,1",
            plain + ";1,3,1,1",
            "0,0,0,0;0,0,0,0;0,1,0,0;0,1,0,0;1,3,1,1;1,3,1,1",
        ):
            assert run_cli(args + ["--flag", padded], capsys) == (4, "", err)
            with pytest.raises(BudgetExceededError) as exc:
                count_flags(v, parse_flag_type(padded, ms.quiver), 3)
            assert str(exc.value) == str(raw.value) == (
                "estimated 7 candidate tuples exceeds budget 3"
            )

    def test_deep_summand_recursion_exits_4(self, tmp_path, capsys):
        quiver = tmp_path / "one.qv"
        quiver.write_text("vertices: 1\n")
        rep = tmp_path / "many.rep"
        rep.write_text("summand: 1 x 1500\n")
        code, out, err = run_cli(
            ["poincare", "--quiver", str(quiver), "--rep", str(rep), "--flag", "1500"],
            capsys,
        )
        assert code == 4
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("budget exceeded: ") and err.count("\n") == 1
        # a summand count far above the recursion limit is refused before
        # the summands are expanded; the child's address space is capped at
        # 512 MiB, so an expansion would end there in a MemoryError
        rep.write_text("summand: 1 x 30000000\n")
        env = dict(os.environ, PYTHONPATH=str(Path(flagmann.__file__).parents[1]))
        huge = subprocess.run(
            [sys.executable, "-m", "flagmann.cli", "poincare",
             "--quiver", str(quiver), "--rep", str(rep), "--flag", "30000000"],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29)),
        )
        assert (huge.returncode, huge.stdout, huge.stderr) == (
            4, "", "budget exceeded: recursion deeper than the interpreter allows\n"
        )
        # zero steps do not change the variety: a flag of 1,501 steps that
        # are zero but the last is the point the one-step flag is
        rep.write_text("summand: 1\n")
        flag = ";".join(["0"] * 1500 + ["1"])
        code, out, err = run_cli(
            ["poincare", "--quiver", str(quiver), "--rep", str(rep), "--flag", flag], capsys
        )
        assert (code, out, err) == (0, "1\n", "")
        # a count just under the limit passes the guard, and the frames above
        # the recursion tip it over: the library reports that as a budget too
        n = sys.getrecursionlimit() - 1
        rep.write_text(f"summand: 1 x {n}\n")
        assert run_cli(
            ["poincare", "--quiver", str(quiver), "--rep", str(rep), "--flag", str(n)], capsys
        ) == (4, "", "budget exceeded: recursion deeper than the interpreter allows\n")

    def test_non_utf8_rep_exits_2(self, a2, tmp_path, capsys):
        rep = tmp_path / "bad.rep"
        rep.write_bytes(b"summand: 1,1\xff\n")
        code, out, err = run_cli(
            ["poincare", "--quiver", str(a2), "--rep", str(rep), "--flag", "0,1;1,1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: cannot read representation file")

    def test_deterministic_bytes(self, d4, tmp_path, capsys):
        rep = tmp_path / "high.rep"
        rep.write_text("summand: 1,2,1,1\n")
        args = ["poincare", "--quiver", str(d4), "--rep", str(rep), "--flag", "0,1,0,0;1,2,1,1", "--json"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


class TestCheckOdd:
    def test_a2_campaign(self, a2, capsys):
        code, out, _ = run_cli(
            ["check-odd", "--quiver", str(a2), "--max-dim", "2", "--d-max", "2"],
            capsys,
        )
        assert code == 0
        assert "0 failures" in out

    def test_json_structure(self, a2, capsys):
        code, out, _ = run_cli(
            ["check-odd", "--quiver", str(a2), "--max-dim", "2", "--d-max", "2", "--json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["failures"] == 0
        assert data["status"] == "ok"
        assert all(row["status"] == "ok" for row in data["instances"])

    def test_d4_small(self, d4, capsys):
        code, out, _ = run_cli(
            ["check-odd", "--quiver", str(d4), "--max-dim", "3", "--d-max", "2"],
            capsys,
        )
        assert code == 0
        assert "0 failures" in out

    def test_max_entry_filter(self, d4, capsys):
        code, out, _ = run_cli(
            [
                "check-odd",
                "--quiver", str(d4),
                "--max-dim", "9",
                "--max-entry", "1",
                "--d-max", "1",
                "--json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert all(max(row["root"]) <= 1 for row in data["instances"])

    @pytest.mark.parametrize(
        "name, text, args, digest",
        [
            (
                "d4.qv", D4_QUIVER, ["--max-dim", "5", "--d-max", "3"],
                "6290313dba28561ca872a55491eff140a7f119df73a9a08f88d1e85fa484155b",
            ),
            (
                "a3.qv", A3_QUIVER, ["--max-dim", "3", "--d-max", "3", "--json"],
                "d7d76f4f3e8cc0fddd060d01faa79a59c100f8cedef78aa531dfb1d8496a93f5",
            ),
            (
                "e6.qv", E6_QUIVER, ["--max-dim", "11", "--d-max", "2"],
                "97868c195e5a2f13dcd121380244affc1f1a18fd050dbd678cd3765cc9103db8",
            ),
        ],
        ids=["d4-text", "a3-json", "e6-text"],
    )
    def test_pinned_rows(self, name, text, args, digest, tmp_path, monkeypatch, capsys):
        # stdout digests recorded before the flag-type generator moved into
        # flagmann.quiver (D4, A3) and before the type-A, type-D and Lagrange
        # base cases became one palindromic fit (E6, every root); they pin
        # the row order and every row's bytes
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(text)
        code, out, _ = run_cli(["check-odd", "--quiver", name] + args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_row_empty_at_2_only_fails(self, a2, monkeypatch, capsys):
        # the base case witnesses an F_2-empty variety at F_3; a nonzero
        # count there fails the row with the base case's message.  A fresh
        # engine cache, so no base case is memoised yet.
        monkeypatch.setattr(importlib.import_module("flagmann.poincare"), "_engines", {})
        monkeypatch.setattr(PoincareEngine, "count", lambda self, ms, u, q: q - 2)
        code, out, _ = run_cli(
            ["check-odd", "--quiver", str(a2), "--max-dim", "2", "--d-max", "2", "--json"],
            capsys,
        )
        assert code == 3
        data = json.loads(out)
        assert data["status"] == "fail"
        assert data["failures"] == len(data["instances"]) > 0
        for row in data["instances"]:
            assert row["status"] == "fail" and row["coefficients"] is None
            assert row["detail"].startswith("counted 0 at q = 2 but 1 at q = 3")
        # a text row prints its missing coefficients as the zero polynomial
        code, out, _ = run_cli(
            ["check-odd", "--quiver", str(a2), "--max-dim", "2", "--d-max", "2"], capsys
        )
        assert code == 3
        lines = out.splitlines()
        assert lines[0] == (
            "fail   root=0,1 flag=0,1 poly=0  (counted 0 at q = 2 but 1 at q = 3 "
            "for summands (((0, 1), 1),), flag ((0, 1),))"
        )
        assert lines[-1] == "checked 11 instances: 11 failures, 0 over budget"

    def test_parallel_jobs_match_serial(self, a2, capsys):
        args = ["check-odd", "--quiver", str(a2), "--max-dim", "2", "--d-max", "2", "--json"]
        _, serial, _ = run_cli(args, capsys)
        _, parallel, _ = run_cli(args + ["--jobs", "2"], capsys)
        assert serial == parallel

    @pytest.mark.parametrize(
        "jobs, cpus, workers",
        [(100_000, 3, 3), (2, 8, 2), (100_000, None, None), (4, 1, None), (1, 8, None)],
    )
    def test_jobs_capped_at_cpu_count(self, a2, monkeypatch, capsys, jobs, cpus, workers):
        # an in-process stand-in for the pool records how many workers were
        # asked for, so no process starts; None means the serial path ran
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        cli = importlib.import_module("flagmann.cli")
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        args = ["check-odd", "--quiver", str(a2), "--max-dim", "2", "--d-max", "2", "--json"]
        _, serial, _ = run_cli(args, capsys)
        assert asked == []
        code, out, _ = run_cli(args + ["--jobs", str(jobs)], capsys)
        assert code == 0 and out == serial
        assert asked == ([] if workers is None else [workers])


def worked_bundle_args(a2, tmp_path, w_flag="1,0;1,0"):
    """verify-bundle on the README example: V = P(1,1), W = S1 over A2."""
    v = tmp_path / "p.rep"
    v.write_text("summand: 1,1\n")
    w = tmp_path / "s1.rep"
    w.write_text("summand: 1,0\n")
    return [
        "verify-bundle",
        "--quiver", str(a2),
        "--v-rep", str(v),
        "--w-rep", str(w),
        "--v-flag", "0,1;1,1",
        "--w-flag", w_flag,
    ]


class TestRepeatedCalls:
    def test_calls_in_one_process_match_fresh_processes(self, d4, tmp_path, monkeypatch, capsys):
        # the parser is built once per process and engines once per
        # (quiver, budget); a call must not depend on the calls made before
        # it in the same process
        rep = tmp_path / "d4.rep"
        rep.write_text("summand: 1,1,1,1\nsummand: 0,1,0,0\n")
        d4_out = tmp_path / "d4_out.qv"
        d4_out.write_text("vertices: 1 2 3 4\narrow: 2 -> 1\narrow: 2 -> 3\narrow: 4 -> 2\n")
        verify = ["poincare", "--quiver", str(d4), "--rep", str(rep), "--flag", "0,1,0,0;1,2,1,1", "--verify"]
        calls = [
            ["poincare", "--quiver", str(d4), "--rep", str(rep), "--flag", "0,1,0,0;1,2,1,1"],
            verify,
            verify + ["--budget", "2"],
            ["poincare", "--quiver", str(d4_out), "--rep", str(rep), "--flag", "0,1,0,0;1,2,1,1", "--verify"],
            ["check-odd", "--quiver", str(d4), "--max-dim", "3", "--d-max", "2"],
            ["check-odd", "--quiver", str(d4), "--max-dim", "many"],
        ]
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it
        env = dict(os.environ, PYTHONPATH=str(Path(flagmann.__file__).parents[1]))
        for args in calls:
            fresh = subprocess.run(
                [sys.executable, "-m", "flagmann.cli", *args],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert run_cli(args, capsys) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert fresh.returncode == 2 and "invalid int value" in fresh.stderr

    def test_cli_call_fills_the_shared_engine(self, d4, tmp_path, monkeypatch, capsys):
        # a `poincare` call memoises its base case in the engine that
        # `engine_for` hands out, so asking again counts nothing
        monkeypatch.setattr(importlib.import_module("flagmann.poincare"), "_engines", {})
        rep = tmp_path / "high.rep"
        rep.write_text("summand: 1,2,1,1\n")
        args = ["poincare", "--quiver", str(d4), "--rep", str(rep), "--flag", "0,1,0,0;1,2,1,1"]
        assert run_cli(args, capsys)[0] == 0

        def refuse(*args):
            raise AssertionError("counted again")

        monkeypatch.setattr(PoincareEngine, "count", refuse)
        flag = FlagType(((0, 1, 0, 0), (1, 2, 1, 1)))
        poly = engine_for(parse_quiver(D4_QUIVER)).base_case((1, 2, 1, 1), flag)
        assert poly.coefficients == (1, 1)


class TestVerifyBundle:
    def test_empty_stratum_formula_is_integer(self, d4, tmp_path, capsys):
        # the quotient-side flag variety is empty and the rank is -1
        v = tmp_path / "v.rep"
        v.write_text("summand: 1,1,1,1\nsummand: 0,1,0,0\n")
        w = tmp_path / "w.rep"
        w.write_text("summand: 1,1,0,0\n")
        code, out, _ = run_cli(
            [
                "verify-bundle",
                "--quiver", str(d4),
                "--v-rep", str(v),
                "--w-rep", str(w),
                "--v-flag", "0,1,0,0;1,1,1,1;1,2,1,1",
                "--w-flag", "0,0,0,0;1,0,0,0;1,1,0,0",
                "--samples", "6",
                "--prime", "3",
            ],
            capsys,
        )
        assert code == 0
        assert "rank: -1\n" in out
        assert "stratum count: 0, bundle formula: 0\n" in out

    def test_worked_example(self, a2, tmp_path, capsys):
        v = tmp_path / "v.rep"
        v.write_text("summand: 1,1\n")
        w = tmp_path / "w.rep"
        w.write_text("summand: 1,0\n")
        code, out, _ = run_cli(
            [
                "verify-bundle",
                "--quiver", str(a2),
                "--v-rep", str(v),
                "--w-rep", str(w),
                "--v-flag", "0,1;1,1",
                "--w-flag", "1,0;1,0",
                "--samples", "3",
            ],
            capsys,
        )
        assert code == 0
        assert "rank: 1" in out
        assert "ok" in out

    def test_swapped_arguments_exit_2(self, a2, tmp_path, capsys):
        v = tmp_path / "v.rep"
        v.write_text("summand: 0,1\n")
        w = tmp_path / "w.rep"
        w.write_text("summand: 1,0\n")
        code, _, err = run_cli(
            [
                "verify-bundle",
                "--quiver", str(a2),
                "--v-rep", str(v),
                "--w-rep", str(w),
                "--v-flag", "0,1;0,1",
                "--w-flag", "0,0;1,0",
            ],
            capsys,
        )
        assert code == 2
        assert "Ext" in err

    def test_zero_quotient(self, a2, tmp_path, capsys):
        v = tmp_path / "v.rep"
        v.write_text("summand: 1,1\n")
        w = tmp_path / "w.rep"
        w.write_text("")
        code, out, _ = run_cli(
            [
                "verify-bundle",
                "--quiver", str(a2),
                "--v-rep", str(v),
                "--w-rep", str(w),
                "--v-flag", "0,1;1,1",
                "--w-flag", "0,0;0,0",
            ],
            capsys,
        )
        assert code == 0
        assert "rank: 0" in out

    def test_weight_mismatch_exits_2(self, a2, tmp_path, capsys):
        code, out, err = run_cli(worked_bundle_args(a2, tmp_path, w_flag="1,0;1,1"), capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_samples_exit_2(self, a2, tmp_path, capsys):
        args = worked_bundle_args(a2, tmp_path)
        code, out, err = run_cli(args + ["--samples", "-3"], capsys)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        code, out, _ = run_cli(args + ["--samples", "0"], capsys)
        assert code == 0
        assert "fiber dims: (none)" in out

    def test_seeded_runs_digest(self, tmp_path, capsys):
        # exit codes and stdout of seeded A3 and D4 runs with Ext^1(W, V) = 0,
        # recorded before sample_flags stopped listing its pool; they pin
        # every line's bytes, the number of sampled fiber dims included
        rng = random.Random(12)
        digest = hashlib.sha256()
        for text in (A3_QUIVER, D4_QUIVER):
            quiver_path = tmp_path / "q.qv"
            quiver_path.write_text(text)
            quiver = parse_quiver(text)
            roots = positive_roots(quiver)
            runs = 0
            while runs < 10:
                drawn = [
                    [rng.choice(roots) for _ in range(rng.randint(1, k))] for k in (3, 2)
                ]
                v, w = (RootMultiset.from_roots(quiver, summands) for summands in drawn)
                if sum(v.total) + sum(w.total) > 7 or ext1_dim(
                    build_rep(w, QQ), build_rep(v, QQ)
                ):
                    continue
                d = rng.randint(2, 3)
                flags = []
                for summands in drawn:
                    steps = [tuple(map(sum, zip((0,) * quiver.n, *summands)))]
                    if rng.random() < 0.5:
                        # partial sums of the summands: a nonempty variety
                        cuts = sorted(rng.randint(0, len(summands)) for _ in range(d - 1))
                        steps[:0] = [
                            tuple(map(sum, zip((0,) * quiver.n, *summands[:c]))) for c in cuts
                        ]
                    else:
                        for _ in range(d - 1):
                            steps.insert(0, tuple(rng.randint(0, x) for x in steps[0]))
                    flags.append(";".join(",".join(map(str, s)) for s in steps))
                for name, ms in (("v.rep", v), ("w.rep", w)):
                    (tmp_path / name).write_text(
                        "".join(f"summand: {','.join(map(str, r))}\n" for r in ms.expand())
                    )
                code, out, _ = run_cli(
                    [
                        "verify-bundle",
                        "--quiver", str(quiver_path),
                        "--v-rep", str(tmp_path / "v.rep"),
                        "--w-rep", str(tmp_path / "w.rep"),
                        "--v-flag", flags[0],
                        "--w-flag", flags[1],
                        "--samples", str(rng.randint(0, 7)),
                        "--seed", str(rng.randrange(1000)),
                        "--prime", str(rng.choice((2, 3))),
                    ],
                    capsys,
                )
                digest.update(f"{code}\n{out}".encode())
                runs += 1
        assert digest.hexdigest() == (
            "f80d8a87675c359be6bcd3f332040380086d74f3b36014ddf87332502ed521fd"
        )

    @pytest.mark.parametrize(
        "quiver_text, v_text, w_text, v_flag, w_flag, prime, code, digest",
        [
            (
                A2_QUIVER, "summand: 1,1 x 2\n", "summand: 1,0 x 2\nsummand: 1,1\n",
                "0,1;1,2;2,2", "1,0;2,1;3,1", "2", 0,
                "241fad0821465706f93691e2ae6e42655dd08c5daa19e940b49bf46eb528e583",
            ),
            (
                A2_QUIVER, "summand: 1,1 x 2\n", "summand: 1,0 x 2\nsummand: 1,1\n",
                "1,1;1,2;2,2", "1,0;2,1;3,1", "3", 0,
                "6bd892c130b4222797ce60f54df26512674561c80bb52acc2bbcb375eb193f37",
            ),
            (
                D4_QUIVER, "summand: 1,1,1,1\nsummand: 0,1,0,0\n", "summand: 1,1,0,0\n",
                "0,1,0,0;1,1,1,1;1,2,1,1", "0,0,0,0;1,0,0,0;1,1,0,0", "2", 0,
                "0fc8b897d56b554edfa50a7b953f6cd3890c8cb7f8818179da578bd30bee9f9c",
            ),
            (
                D4_QUIVER, "summand: 1,2,1,1\nsummand: 0,1,0,0\n", "summand: 1,1,0,0\nsummand: 0,1,0,0\n",
                "0,1,0,0;1,2,0,1;1,3,1,1", "0,1,0,0;1,1,0,0;1,2,0,0", "3", 0,
                "9e7f231daefb027f4caadb83c816f8c52e59e0a44be6b83342517ecdb9fec563",
            ),
        ],
        ids=["a2-p2", "a2-p3", "d4-p2-empty", "d4-p3"],
    )
    def test_pinned_runs(
        self, quiver_text, v_text, w_text, v_flag, w_flag, prime, code, digest, tmp_path, capsys
    ):
        # exit code and stdout sha256, recorded while every sampled flag
        # point was still validated again before its conversion
        paths = []
        for name, text in (("q.qv", quiver_text), ("v.rep", v_text), ("w.rep", w_text)):
            paths.append(tmp_path / name)
            paths[-1].write_text(text)
        args = [
            "verify-bundle",
            "--quiver", str(paths[0]),
            "--v-rep", str(paths[1]),
            "--w-rep", str(paths[2]),
            "--v-flag", v_flag,
            "--w-flag", w_flag,
            "--samples", "6",
            "--seed", "3",
            "--prime", prime,
        ]
        got, out, _ = run_cli(args, capsys)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)

    def test_budget_exits_4_before_any_output(self, a2, tmp_path, capsys):
        # the flag counts fit a budget of 1; the stratum count does not
        code, out, err = run_cli(worked_bundle_args(a2, tmp_path) + ["--budget", "1"], capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("budget exceeded: ") and err.count("\n") == 1


class TestExitPaths:
    """The failure branches of `main` and the commands' failure output."""

    def test_poincare_verify_mismatch_exits_3(self, tmp_path, monkeypatch, capsys):
        quiver = tmp_path / "one.qv"
        quiver.write_text("vertices: x\n")
        rep = tmp_path / "c3.rep"
        rep.write_text("summand: 1 x 3\n")
        args = ["poincare", "--quiver", str(quiver), "--rep", str(rep), "--flag", "1;2;3"]
        # a fresh engine fills its memo first, so only --verify counts again
        monkeypatch.setattr(importlib.import_module("flagmann.poincare"), "_engines", {})
        assert run_cli(args, capsys)[0] == 0
        monkeypatch.setattr(PoincareEngine, "count", lambda self, ms, u, q: -1)
        code, out, err = run_cli(args + ["--verify"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("verification failure: count over F_2 is -1,")
        assert err.count("\n") == 1

    def test_bundle_deviation_lines(self, a2, tmp_path, monkeypatch, capsys):
        extended = importlib.import_module("flagmann.extended")
        monkeypatch.setattr(extended, "hom_dim_rep0", lambda w0, v0: 7)
        code, out, err = run_cli(worked_bundle_args(a2, tmp_path) + ["--samples", "2"], capsys)
        assert code == 3
        deviation = (
            "deviation: fiber dimension 7 != rank 1 at flags ((0, 1), (1, 1)) / ((1, 0), (1, 0))\n"
        )
        assert out == (
            "rank: 1\n"
            "flags: 1 x 1 over F_2\n"
            "fiber dims: 7 7\n"
            "stratum count: 2, bundle formula: 2\n" + deviation * 2
        )
        assert err == "verification failure: bundle verification failed\n"

    def test_check_odd_budget_rows(self, d4, capsys):
        args = ["check-odd", "--quiver", str(d4), "--max-dim", "5", "--d-max", "2", "--budget", "2"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        lines = out.splitlines()
        budget = [line for line in lines if line.startswith("budget ")]
        assert budget and len(budget) < len(lines) - 1
        assert budget[0] == (
            "budget root=1,2,1,1 flag=0,1,0,0;1,2,1,1 poly=0  (base case out of desk range "
            "for summands (((1, 2, 1, 1), 1),): estimated 3 candidate tuples exceeds budget 2)"
        )
        for line in budget:
            assert line.endswith("exceeds budget 2)")
            assert "  (base case out of desk range for summands " in line
        assert lines[-1].endswith(f"0 failures, {len(budget)} over budget")
        code, out, _ = run_cli(args + ["--json"], capsys)
        assert code == 0
        data = json.loads(out)
        rows = [row for row in data["instances"] if row["status"] == "budget"]
        assert data["status"] == "ok" and data["over_budget"] == len(rows) == len(budget)
        for row in rows:
            assert row["coefficients"] is None
            assert row["detail"].startswith("base case out of desk range for summands ")

    def test_internal_error_exits_1(self, a2, monkeypatch, capsys):
        def planted(quiver):
            raise flagmann.InternalConsistencyError("planted")

        monkeypatch.setattr(importlib.import_module("flagmann.cli"), "classify_dynkin", planted)
        code, out, err = run_cli(["roots", "--quiver", str(a2)], capsys)
        assert code == 1
        assert out == ""
        assert err == "internal error: planted\n"


class TestInputErrors:
    """Each bad input ends with exit 2, no stdout and one stderr line."""

    @pytest.mark.parametrize(
        "quiver_text, rep_text, argv, err",
        [
            ("vertices:\n", "", ["roots"], "error: line 1: empty vertex list"),
            (
                "vertices: a b\nedge: a b\n", "", ["roots"],
                "error: line 2: unrecognized directive 'edge'",
            ),
            (
                "vertices: a b\narrow: a b\n", "", ["roots"],
                "error: line 2: arrow needs 'src -> dst'",
            ),
            (
                "vertices: a b\narrow: a ->\n", "", ["roots"],
                "error: line 2: arrow needs 'src -> dst'",
            ),
            (
                A2_QUIVER, "summand: 1,1 x 0\n", ["poincare", "--flag", "0,1;1,1"],
                "error: multiplicity must be >= 1, got 0",
            ),
            (
                A2_QUIVER, "summand: 1,1 x q\n", ["poincare", "--flag", "0,1;1,1"],
                "error: line 1: bad multiplicity ' q'",
            ),
            (
                # the root is read before the multiplicity
                A2_QUIVER, "summand: 1,x\n", ["poincare", "--flag", "0,1;1,1"],
                "error: line 1: bad root '1,'",
            ),
            (
                A2_QUIVER, "summand: 1,1\n", ["poincare", "--flag", "1,-1;1,1"],
                "error: negative entry in dimension vector (1, -1)",
            ),
            (CYCLE_QUIVER, "", ["check-odd"], "error: quiver in {quiver} is not Dynkin"),
            (
                A2_QUIVER, "summand: 1,1\n", ["verify-bundle", "--prime", "25"],
                "error: PrimeField needs a prime < 2^31, got 25",
            ),
            (
                A2_QUIVER, "summand: 1,1\n", ["verify-bundle", "--prime", "1"],
                "error: PrimeField needs a prime < 2^31, got 1",
            ),
            (
                A2_QUIVER, "summand: 1,1\n", ["poincare", "--flag", "0,1;1,1", "--budget", "0"],
                "error: --budget must be at least 1, got 0",
            ),
            (
                A2_QUIVER, "", ["check-odd", "--budget", "-5"],
                "error: --budget must be at least 1, got -5",
            ),
            (
                A2_QUIVER, "summand: 1,1\n", ["verify-bundle", "--budget", "-5"],
                "error: --budget must be at least 1, got -5",
            ),
            (A2_QUIVER, "", ["check-odd", "--jobs", "0"], "error: --jobs must be at least 1, got 0"),
            (
                A2_QUIVER, "", ["check-odd", "--jobs", "-3"],
                "error: --jobs must be at least 1, got -3",
            ),
            (
                A2_QUIVER, "", ["check-odd", "--max-dim", "-5"],
                "error: --max-dim must be at least 1, got -5",
            ),
            (
                A2_QUIVER, "", ["check-odd", "--d-max", "-1"],
                "error: --d-max must be at least 1, got -1",
            ),
        ],
        ids=[
            "empty-vertex-list", "unknown-directive", "arrow-without-arrow", "arrow-without-dst",
            "multiplicity-0", "bad-multiplicity", "bad-root", "negative-flag-entry",
            "check-odd-cycle", "prime-25", "prime-1", "poincare-budget-0",
            "check-odd-budget-negative", "verify-bundle-budget-negative", "check-odd-jobs-0",
            "check-odd-jobs-negative", "check-odd-max-dim-negative", "check-odd-d-max-negative",
        ],
    )
    def test_exits_2(self, quiver_text, rep_text, argv, err, tmp_path, capsys):
        quiver = tmp_path / "q.qv"
        quiver.write_text(quiver_text)
        rep = tmp_path / "r.rep"
        rep.write_text(rep_text)
        args = [argv[0], "--quiver", str(quiver), *argv[1:]]
        if argv[0] == "poincare":
            args += ["--rep", str(rep)]
        elif argv[0] == "verify-bundle":
            args = worked_bundle_args(quiver, tmp_path) + argv[1:]
        code, out, got = run_cli(args, capsys)
        assert (code, out, got) == (2, "", err.format(quiver=quiver) + "\n")

    def test_empty_representation_verifies(self, a2, tmp_path, capsys):
        # weight 0 forces the empty flag: the polynomial is 1 at every prime
        rep = tmp_path / "empty.rep"
        rep.write_text("")
        args = ["poincare", "--quiver", str(a2), "--rep", str(rep), "--flag", "0,0", "--verify"]
        assert run_cli(args, capsys) == (0, "1\nverified at q = 2, 3\n", "")
