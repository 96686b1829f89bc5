"""Latency accounting and the span recorder of the traced pass."""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from collections import Counter, deque
from fractions import Fraction

FAILED = math.inf  # a failed operation ranks above every success
# calibration_kernel's time on the machine the benchmark was defined on
# (2 shared vCPUs, CPython 3.11.7) when that host ran at full speed
REFERENCE_KERNEL_S = 0.0006


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p % of the
    values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def calibration_kernel():
    """Fixed pure-Python work: dict and tuple traffic plus Fraction
    arithmetic, the mix the package spends its time on. A kernel with ten
    times the entries tracked the n = 48 CLI queries more closely but left
    the exact and estimate workloads less steady."""
    counts = {}
    for i in range(1500):
        key = (i % 97, i * 7 % 13)
        counts[key] = counts.get(key, 0) + 1
    x = Fraction(1, 3)
    for i in range(60):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, 7)
    return sorted(counts.values()), x


class SpeedGauge:
    """The host's current speed, from the calibration kernel.

    A shared host runs this process faster or slower by a third or more
    for seconds to minutes at a time. Timing the kernel twice just before
    and twice just after each operation and scaling the operation's time by
    REFERENCE_KERNEL_S over the median of those four times cancels that
    drift; the figures then read as seconds on the reference machine.
    """

    AROUND = 2  # kernel runs on each side of an operation

    def __init__(self):
        self.recent: deque = deque(maxlen=2 * self.AROUND)
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        calibration_kernel()
        seconds = time.perf_counter() - t0
        self.recent.append(seconds)
        self.samples.append(seconds)
        return seconds

    def bracket(self) -> None:
        """The kernel runs on one side of an operation."""
        for _ in range(self.AROUND):
            self.sample()

    def scale(self) -> float:
        """Factor from seconds measured now to reference seconds."""
        return REFERENCE_KERNEL_S / statistics.median(self.recent)


def summarize(records) -> dict:
    """End-to-end figures of one closed-loop pass.

    ``records`` holds (reference seconds, failed) per timed operation. A
    failed operation takes the FAILED latency, so it sits above every
    success in both percentiles and a refusal turned into an answer never
    reads as slower. ``queries_per_s`` is successful operations over the
    summed time of all operations.
    """
    latencies = [FAILED if failed else seconds for seconds, failed in records]
    failed = sum(failed for _, failed in records)
    return {
        "attempted": len(records),
        "failed": failed,
        "queries_per_s": (len(records) - failed) / sum(seconds for seconds, _ in records),
        "latency_p50_ms": percentile(latencies, 50) * 1000,
        "latency_p90_ms": percentile(latencies, 90) * 1000,
    }


class Tracer:
    """In-memory spans: (name, start, end, parent index, operation id).

    Spans nest by call order; a span's self time is its duration minus the
    time covered by its direct children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = None
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def parent_name(self, index: int):
        parent = self.spans[index][3]
        return None if parent is None else self.spans[parent][0]

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(self, index, result)
            return result

        return traced

    def self_times(self) -> tuple[Counter, Counter]:
        """(summed self seconds, calls) per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            self_s[name] += end - start - inner
            calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
