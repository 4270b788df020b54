"""One benchmark process: either generate a workload's inputs, or run them.

    python3 perfbench/child.py generate --workload W --seed N --out inputs.json
    python3 perfbench/child.py run --workload W --inputs inputs.json --workdir D
        [--trace | --setup-only] [--skip-check]

`run` starts from a fresh interpreter, checks that the program's
process-wide caches are empty, times every unit of the workload and prints
one JSON object on its last stdout line.  With `--setup-only` it stops
before the first unit and reports only when it got there.  It is started
by `run.py`, which sets PYTHONPATH to the program's sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402


def load_config() -> dict:
    with open(os.path.join(HERE, "config.json"), encoding="utf-8") as fh:
        return json.load(fh)


def cmd_generate(args) -> int:
    cfg = load_config()["workloads"][args.workload]
    inputs = workloads.generate(args.workload, args.seed, cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    print(json.dumps({"generated": args.out}))
    return 0


def cmd_run(args) -> int:
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    digest = hashlib.sha256()
    units, finish = workloads.prepare(args.workload, inputs, args.workdir, digest)
    warm = {name: size for name, size in tracer.cache_sizes().items() if size}
    if warm:
        print(json.dumps({"error": f"caches not cold before the first instance: {warm}"}))
        return 3
    if args.setup_only:
        print(json.dumps({"t_first": time.monotonic()}))
        return 0
    tr = tracer.Tracer()
    if args.trace:
        tr.install()
    perf = time.perf_counter
    latencies, details = [], []
    instances = failed = out_bytes = 0
    t_first = time.monotonic()
    t0 = perf()
    for size, unit in units:
        start = perf()
        try:
            n, bad, nbytes, detail = unit()
        except Exception as exc:  # an instance that raises counts as failed
            n, bad, nbytes, detail = size, size, 0, f"{type(exc).__name__}: {exc}"
        latencies.append(perf() - start)
        instances += n
        failed += bad
        out_bytes += nbytes
        if detail and len(details) < 5:
            details.append(detail)
    timed = perf() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tr.uninstall()
    layers = tr.metrics() if args.trace else {}
    late_failed, note = (0, "") if args.skip_check else finish()
    failed += late_failed
    print(
        json.dumps(
            {
                "instances": instances,
                "failed": failed,
                "latencies": latencies,
                "timed_s": timed,
                "t_first": t_first,
                "digest": digest.hexdigest(),
                "stdout_bytes": out_bytes,
                "rss_mb": rss_mb,
                "layers": layers,
                "details": details,
                "note": note,
            }
        )
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    gen = sub.add_parser("generate")
    gen.add_argument("--workload", required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--inputs", required=True)
    run.add_argument("--workdir", required=True)
    run.add_argument("--trace", action="store_true")
    run.add_argument("--setup-only", action="store_true", help="stop before the first unit")
    run.add_argument("--skip-check", action="store_true", help="skip the checks after timing")
    run.set_defaults(func=cmd_run)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
