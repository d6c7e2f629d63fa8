"""Benchmark entry point for the cliquesep library.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own fresh, single-threaded interpreter that imports
``cliquesep`` from this checkout's ``src`` (nothing is installed), with
PYTHONHASHSEED fixed, CLIQUESEP_WORKERS unset and the default recursion
limit.  The child's report is relayed; its last line is the JSON result.
With ``--workload all`` every workload runs in turn and the last line merges
their results, metric names prefixed by the workload.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ptas-rects", "exact-rects", "candidates")
CHILD_TIMEOUT_S = 175


def run_one(workload: str, args) -> dict | None:
    env = {k: v for k, v in os.environ.items()
           if k not in ("CLIQUESEP_WORKERS", "PYTHONPATH", "PYTHONSTARTUP")}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-s", str(HERE / "workload.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {workload} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cliquesep" / "__init__.py").is_file():
        print(f"error: no cliquesep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_one(name, args)
        if result is None:
            return 1
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
