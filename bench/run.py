"""Benchmark entry point: run workloads of the stableprob package.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each workload runs in its own process (``worker.py``) with a fixed
PYTHONHASHSEED, from the source tree under ``src/``. The last line printed
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a wrong answer makes the exit code non-zero. With ``all``, every
workload runs in turn and the metrics are keyed ``<workload>.<metric>``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exact", "estimate", "most-stable", "cli")
HASH_SEED = "0"
TIMEOUT_S = 170


def run_workload(name: str, seed: int, seconds: float, trace: int, record: bool) -> tuple[int, list]:
    """(exit code, stdout lines) of one worker process."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if record:
        argv.append("--record")
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload {name} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stableprob benchmark")
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store the answers of the default seed")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stableprob", "__init__.py")):
        print("no stableprob sources under src/; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload != "all":
        code, lines = run_workload(args.workload, args.seed, args.seconds, args.trace, args.record)
        print("\n".join(lines))
        return code
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        code, lines = run_workload(name, args.seed, args.seconds, args.trace, args.record)
        worst = worst or code
        if not lines or not lines[-1].startswith("{"):
            return code or 1
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<52} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
