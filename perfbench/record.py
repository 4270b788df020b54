"""Record the golden output digests of the benchmark workloads.

    python3 perfbench/record.py --seeds 0-24 7919 [--workload W ...]

For each workload and seed this generates the inputs, runs one untraced
process and stores the sha256 of its canonical outputs in golden.json.  Run
it only on a commit whose outputs are known to be right: `run.py` fails any
later run whose outputs differ from the recorded digest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=seeds_arg, required=True)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    names = args.workload or list(run.load_json("config.json")["workloads"])
    path = os.path.join(run.HERE, "golden.json")
    golden = run.load_json("golden.json")
    env = run.child_env()
    for name in names:
        for seed in sorted({s for group in args.seeds for s in group}):
            workdir = run.fresh_workdir(name, seed)
            try:
                error, report = run.generate(name, seed, workdir, env), None
                if not error:
                    inputs = os.path.join(workdir, "inputs.json")
                    argv = ["run", "--workload", name, "--inputs", inputs, "--workdir", workdir]
                    report, _, error = run.run_child(argv, env, run.HARD_LIMIT_S)
            finally:
                shutil.rmtree(os.path.join(run.ROOT, workdir), ignore_errors=True)
            if error or report["failed"]:
                sys.stderr.write(f"{name} seed {seed}: not recorded: {error or report['details']}\n")
                return 1
            golden.setdefault(name, {})[str(seed)] = report["digest"]
            print(f"{name} seed {seed}: {report['digest']}", flush=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(golden, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
