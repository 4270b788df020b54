"""flagmann benchmark: cold-process workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload d4_verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's inputs are generated once
from the seed; then fresh interpreters (`child.py run`) each run the whole
input set with the program's caches cold, one after another (a closed loop,
one instance in flight), until `--seconds` have passed.  A unit's time is its
best over those processes; set-up is timed on them and on extra starts.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` the
processes alternate between untraced and traced, and the per-layer metrics
of the traced ones are printed, with the tracing overhead.  The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
HARD_LIMIT_S = 160  # stop starting processes so the run ends within 180 s
MIN_PROCESSES = 5  # each unit's best time needs several repetitions

# per-layer metrics whose key in a traced child's report differs from the
# metric's name; None marks the ones the parent computes itself
LAYER_KEYS = {
    "quiver.FlagType.constructed": "quiver.FlagType.__post_init__.calls",
    "cli.self_s": "cli.main.self_s",
    "cli.stdout_bytes": None,
    "trace.overhead_ratio": None,
    "trace.coverage": None,
    "trace.timed_s": None,
}

END_TO_END = {
    "instances_per_s": "1/s",
    "instance_p50_ms": "ms",
    "instance_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_json(name: str, where: str = HERE) -> dict:
    with open(os.path.join(where, name), encoding="utf-8") as fh:
        return json.load(fh)


def tail_percentile(units: int) -> int:
    """The highest whole percentile, at most p99, that leaves at least ten
    of a process's units beyond it; 100 (the maximum) when that is below p90."""
    pct = min(99, 100 * (units - 10) // units)
    return pct if pct >= 90 else 100


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile; pct 100 is the maximum."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FLAGMANN_BUDGET", None)  # the budget changes which instances run
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, timeout):
    """Run one child to completion; return (report or None, spawn time, error)."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, *argv], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, t_spawn, "child timed out"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        reason = lines[-1] if lines else err.strip().splitlines()[-1:] or ["no output"]
        return None, t_spawn, f"child exited {proc.returncode}: {reason}"
    return json.loads(lines[-1]), t_spawn, ""


def fresh_workdir(workload: str, seed: int) -> str:
    """An empty work directory, relative to the checkout root; the CLI
    workloads pass paths under it to the program, so it is part of the
    golden stdout and must not depend on anything but workload and seed."""
    workdir = os.path.join(".perfbench_work", f"{workload}-{seed}")
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, workdir))
    return workdir


def generate(workload: str, seed: int, workdir: str, env) -> str:
    """Write the inputs to `workdir`; return an error message or ''."""
    inputs = os.path.join(workdir, "inputs.json")
    argv = ["generate", "--workload", workload, "--seed", str(seed), "--out", inputs]
    return run_child(argv, env, HARD_LIMIT_S)[2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "flagmann", "__init__.py")):
        sys.stderr.write("perfbench: no program sources at src/flagmann; run from a checkout\n")
        return 2
    cfg = load_json("config.json")
    if args.workload not in cfg["workloads"]:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    golden = load_json("golden.json").get(args.workload, {}).get(str(args.seed))

    started = time.monotonic()
    env = child_env()
    workdir = fresh_workdir(args.workload, args.seed)
    load_before = loadavg()
    try:
        plain, traced, setups = [], [], []
        error = generate(args.workload, args.seed, workdir, env)
        measure_end = time.monotonic() + args.seconds
        run_argv = [
            "run", "--workload", args.workload, "--workdir", workdir,
            "--inputs", os.path.join(workdir, "inputs.json"),
        ]
        while not error:
            use_trace = bool(args.trace) and len(traced) < len(plain)
            extra = ["--trace"] if use_trace else []
            if plain:
                # the untimed checks ran in the first process; the outputs
                # of the others must have the same digest
                extra.append("--skip-check")
            left = started + HARD_LIMIT_S - time.monotonic()
            report, t_spawn, error = run_child(run_argv + extra, env, left)
            if report is None:
                break
            report["wall_s"] = time.monotonic() - t_spawn
            (traced if use_trace else plain).append(report)
            if not args.trace:
                # set-up is short and noisy, so each measured process is
                # followed by a start that stops before the first unit
                setups.append(report["t_first"] - t_spawn)
                probe, t_probe, error = run_child(run_argv + ["--setup-only"], env, left)
                if probe is None:
                    break
                setups.append(probe["t_first"] - t_probe)
            now = time.monotonic()
            enough = len(plain) >= MIN_PROCESSES and (not args.trace or traced)
            if now >= measure_end and enough:
                break
            if now + report["wall_s"] > started + HARD_LIMIT_S:
                break
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    load_after = loadavg()
    if error or not plain or (args.trace and not traced):
        sys.stderr.write(f"perfbench: {error or 'too few processes completed'}\n")
        return 1

    reports = plain + traced
    attempted = sum(r["instances"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    digests = {r["digest"] for r in reports}
    problems = [d for r in reports for d in r["details"]][:5]
    if len(digests) != 1:
        problems.append(f"outputs differ between processes: {sorted(digests)}")
    golden_state = "none" if golden is None else "match" if digests == {golden} else "MISMATCH"
    if golden_state == "MISMATCH":
        problems.append(f"output digests {sorted(digests)} differ from golden {golden}")
    correct = failed == 0 and not problems

    tail = tail_percentile(len(plain[0]["latencies"]))
    if args.trace:
        metrics = per_layer(load_json("BENCHMARK.json", ROOT)["per_layer"], plain, traced)
    else:
        metrics = end_to_end(plain, setups, tail)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"processes={len(plain)}+{len(traced)} traced setups={len(setups)} python={sys.version.split()[0]} "
        f"nproc={os.cpu_count()} git={git_rev()} loadavg={load_before} -> {load_after}"
    )
    print(
        f"  per process: {plain[0]['instances']} instances in {len(plain[0]['latencies'])} "
        f"timed units; tail = p{tail} of the units' times; "
        f"golden={golden_state}"
    )
    if plain[0]["note"]:
        print(f"  check: {plain[0]['note']}")
    for problem in problems:
        print(f"  problem: {problem}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def best_times(reports) -> list:
    """Every process runs the same units from cold caches, so unit i does the
    same work in each; its time is the best over the processes.  The machine
    only ever adds time, so the best is the steadiest estimate of the
    program's own cost."""
    return [min(times) for times in zip(*(r["latencies"] for r in reports))]


def end_to_end(plain, setups, tail: int) -> dict:
    best = best_times(plain)
    done = plain[0]["instances"] - max(r["failed"] for r in plain)
    values = {
        "instances_per_s": done / sum(best),
        "instance_p50_ms": statistics.median(best) * 1e3,
        "instance_tail_ms": percentile(best, tail) * 1e3,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        "setup_s": min(setups),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(metrics, plain, traced) -> dict:
    """`metrics` lists the per-layer metrics of BENCHMARK.json; a metric the
    traced children did not report (a function that is gone) reads null."""
    med = statistics.median_low  # a value one traced process actually had
    computed = {
        "cli.stdout_bytes": med(r["stdout_bytes"] for r in traced),
        "trace.overhead_ratio": sum(best_times(traced)) / sum(best_times(plain)),
        "trace.coverage": med(r["layers"]["trace.top_s"] / r["timed_s"] for r in traced),
        "trace.timed_s": med(r["timed_s"] for r in traced),
    }
    out = {}
    for metric in metrics:
        name = metric["name"]
        key = LAYER_KEYS.get(name, name)
        if key is None:
            value = computed[name]
        else:
            values = [r["layers"].get(key) for r in traced]
            value = None if None in values else med(values)
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


if __name__ == "__main__":
    sys.exit(main())
