"""One workload in one process: set up, time a closed loop, check the answers.

``run.py`` starts this file with a fixed PYTHONHASHSEED. The loop has one
client and no threads: the next operation starts when the previous one has
returned. The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import layers
from measure import REFERENCE_KERNEL_S, SpeedGauge, Tracer, summarize
from workloads import WORKLOADS, Context

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
WORK = ".bench_work"
DEFAULT_SEED = 1
SETUPS = 5  # set-up repetitions; setup_s takes their median

END_TO_END = (
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Pass:
    """Closed-loop passes over the cycle of operations; ``first`` keeps
    each operation's first outcome."""

    def __init__(self, ops, first: dict, gauge: SpeedGauge):
        self.ops = ops
        self.first = first
        self.gauge = gauge
        self.records: list[tuple[float, bool]] = []
        self.changed: set[int] = set()
        self.cycles = 0

    def run(self, seconds: float, whole_cycles: bool = False, tracer=None) -> "Pass":
        """Repeat the cycle until ``seconds`` have passed; with
        ``whole_cycles``, end on a cycle boundary so every operation runs
        equally often."""
        deadline = time.perf_counter() + seconds
        while True:
            for k, op in enumerate(self.ops):
                self.gauge.bracket()
                if tracer is not None:
                    tracer.op_id = len(self.records)
                t0 = time.perf_counter()
                answer, failed = op.call()
                t1 = time.perf_counter()
                self.gauge.bracket()
                self.records.append(((t1 - t0) * self.gauge.scale(), failed))
                if k not in self.first:
                    self.first[k] = (answer, failed)
                elif self.first[k] != (answer, failed):
                    self.changed.add(k)
                if t1 >= deadline and not whole_cycles:
                    return self
            self.cycles += 1
            if t1 >= deadline:
                return self


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def gate(plan, workload: str, seed: int, first: dict, changed: set, recording: bool = False) -> tuple[list, list]:
    """(problems, canonical answers) for the operations that ran; a run that
    records the default seed's answers is not compared with the old ones."""
    problems = [f"{plan.ops[k].label}: answer changed between repetitions" for k in sorted(changed)]
    canonical = []
    for k, op in enumerate(plan.ops):
        if k not in first:
            canonical.append(None)
            continue
        answer, failed = first[k]
        problems += op.check(answer, failed)
        canonical.append(op.canonical(answer))
    if seed == DEFAULT_SEED and not recording:
        recorded = load_expected()["workloads"].get(workload, [])
        for k, (want, got) in enumerate(zip(recorded, canonical)):
            if got is not None and want != got:
                problems.append(f"{plan.ops[k].label}: answer differs from the one recorded for seed {seed}")
    return problems, canonical


def record(workload: str, seed: int, canonical: list) -> None:
    if seed != DEFAULT_SEED or None in canonical:
        raise SystemExit("recording needs the default seed and every operation run")
    expected = load_expected()
    expected["workloads"][workload] = canonical
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store this run's answers as the default seed's")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    gauge = SpeedGauge()
    for _ in range(4 * gauge.recent.maxlen):  # the first samples of a process run slow
        gauge.sample()
    started = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import stableprob
    import stableprob.cli

    import_s = (time.perf_counter() - started) * gauge.scale()
    setup_tracer = Tracer()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    setup_times = []
    try:
        for _ in range(SETUPS):
            gauge.bracket()
            begin = time.perf_counter()
            ctx = Context(stableprob, stableprob.cli, workdir, setup_tracer)
            plan = WORKLOADS[args.workload](args.seed, ctx)
            for op in plan.warmup():
                op.call()
            elapsed = time.perf_counter() - begin
            gauge.bracket()
            setup_times.append(elapsed * gauge.scale())
        first: dict = {}
        if args.trace:
            untraced = Pass(plan.ops, first, gauge).run(args.seconds / 2)
            tracer = Tracer()
            first_sample = len(gauge.samples)
            undo = layers.install(tracer)
            try:
                timed = Pass(plan.ops, first, gauge).run(args.seconds / 2, whole_cycles=True, tracer=tracer)
            finally:
                layers.uninstall(undo)
            scale = REFERENCE_KERNEL_S / statistics.median(gauge.samples[first_sample:])
            values = layers.per_layer_metrics(
                tracer, timed.cycles, setup_tracer, SETUPS, plan.refused_at_default_cap, scale
            )
            before, after = summarize(untraced.records), summarize(timed.records)
            for name, _ in layers.OVERHEAD:
                base = name[len("trace.") : -len("_delta")]
                values[name] = after[base] - before[base]
            units = layers.per_layer_names()
            os.makedirs(WORK, exist_ok=True)
            tracer.write(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.tsv"))
            changed = untraced.changed | timed.changed
        else:
            timed = Pass(plan.ops, first, gauge).run(args.seconds, whole_cycles=args.record)
            values = summarize(timed.records)
            values["setup_s"] = import_s + statistics.median(setup_times)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END
            changed = timed.changed
        problems, canonical = gate(plan, args.workload, args.seed, first, changed, args.record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.record and not problems:
        record(args.workload, args.seed, canonical)
    summary = after if args.trace else values
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "operations_per_cycle": len(plan.ops),
        "operations_timed": summary["attempted"],
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "kernel_median_s": statistics.median(gauge.samples),
    }
    print("info " + json.dumps(info))
    for problem in problems:
        print(f"wrong answer: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
