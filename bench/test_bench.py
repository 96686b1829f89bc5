"""Self-tests of the benchmark's own logic.

    python3 bench/test_bench.py
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import stableprob  # noqa: E402
import stableprob.cli  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from measure import FAILED, REFERENCE_KERNEL_S, SpeedGauge, Tracer, percentile, summarize  # noqa: E402


def context(workdir: str = "") -> workloads.Context:
    return workloads.Context(stableprob, stableprob.cli, workdir, Tracer())


def scratch_dir() -> str:
    """A fresh directory under the checkout's .bench_work."""
    parent = os.path.join(ROOT, worker.WORK)
    os.makedirs(parent, exist_ok=True)
    return tempfile.mkdtemp(dir=parent)


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 21))
        self.assertEqual(percentile(values, 50), 10)
        self.assertEqual(percentile(values, 90), 18)
        self.assertEqual(percentile(values, 100), 20)
        self.assertEqual(percentile(reversed(values), 90), 18)

    def test_small_samples(self):
        self.assertEqual(percentile([7.0], 90), 7.0)
        self.assertEqual(percentile([3, 1], 50), 1)
        self.assertEqual(percentile([3, 1], 90), 3)
        with self.assertRaises(ValueError):
            percentile([], 50)


class FailureAccounting(unittest.TestCase):
    def test_counts_and_shares(self):
        records = [(0.002, False)] * 18 + [(0.0001, True)] * 2
        summary = summarize(records)
        self.assertEqual(summary["attempted"], 20)
        self.assertEqual(summary["failed"], 2)
        self.assertAlmostEqual(summary["queries_per_s"], 18 / (18 * 0.002 + 2 * 0.0001))
        self.assertEqual(summary["latency_p90_ms"], 2.0)

    def test_refusal_ranks_above_every_success(self):
        records = [(0.5, False), (0.0001, True)]
        self.assertEqual(summarize(records)["latency_p90_ms"], FAILED)
        self.assertEqual(summarize(records)["latency_p50_ms"], 500.0)

    def test_answering_a_refusal_never_reads_slower(self):
        rng = random.Random(7)
        for _ in range(200):
            records = [(rng.random(), rng.random() < 0.2) for _ in range(rng.randint(1, 40))]
            refused = [k for k, (_, failed) in enumerate(records) if failed]
            if not refused:
                continue
            answered = list(records)
            answered[rng.choice(refused)] = (rng.random() * 100, False)
            before, after = summarize(records), summarize(answered)
            for metric in ("latency_p50_ms", "latency_p90_ms"):
                self.assertLessEqual(after[metric], before[metric])
            self.assertLess(after["failed"], before["failed"])


class SpeedGaugeScale(unittest.TestCase):
    def test_scale_is_reference_over_recent_median(self):
        gauge = SpeedGauge()
        gauge.recent.extend([0.002, 0.0012, 0.004, 0.003, 0.001])
        self.assertAlmostEqual(gauge.scale(), REFERENCE_KERNEL_S / 0.0021)
        gauge.bracket()
        self.assertEqual(len(gauge.recent), 2 * SpeedGauge.AROUND)
        self.assertEqual(len(gauge.samples), SpeedGauge.AROUND)


class AnswerGate(unittest.TestCase):
    def setUp(self):
        self.spec = gen.perturbed_lottery(random.Random(3), 5, 4, min_orders=3)
        self.op = workloads._exact_op(context(), "perturbed", self.spec)

    def test_right_answer_passes(self):
        answer, failed = self.op.call()
        self.assertFalse(failed)
        self.assertEqual(self.op.check(answer, failed), [])

    def test_corrupted_answer_trips(self):
        answer, _ = self.op.call()
        self.assertNotEqual(self.op.check(answer + Fraction(1, 1000), False), [])

    def test_ladder_checked_against_closed_form(self):
        ladder = gen.ladder(random.Random(1), 5)
        op = workloads._exact_op(context(), "ladder", ladder)
        answer, _ = op.call()
        self.assertEqual(answer, Fraction(3, 4) ** 4)
        self.assertEqual(op.check(answer, False), [])
        self.assertNotEqual(op.check(Fraction(3, 4) ** 3, False), [])

    def test_corrupted_recorded_value_trips(self):
        plan = workloads.Plan([self.op])
        first = {0: self.op.call()}
        answer = str(first[0][0])
        original = worker.load_expected
        try:
            worker.load_expected = lambda: {"workloads": {"exact": [answer]}}
            problems, canonical = worker.gate(plan, "exact", worker.DEFAULT_SEED, first, set())
            self.assertEqual((problems, canonical), ([], [answer]))
            worker.load_expected = lambda: {"workloads": {"exact": [answer + "0"]}}
            problems, _ = worker.gate(plan, "exact", worker.DEFAULT_SEED, first, set())
            self.assertEqual(len(problems), 1)
            problems, _ = worker.gate(plan, "exact", worker.DEFAULT_SEED + 1, first, set())
            self.assertEqual(problems, [])
            problems, _ = worker.gate(plan, "exact", worker.DEFAULT_SEED, first, set(), recording=True)
            self.assertEqual(problems, [])
        finally:
            worker.load_expected = original

    def test_answer_changing_between_repetitions_trips(self):
        plan = workloads.Plan([self.op])
        problems, _ = worker.gate(plan, "exact", 2, {0: self.op.call()}, {0})
        self.assertEqual(len(problems), 1)

    def test_cli_probability_checked(self):
        spec = gen.one_side_lottery(random.Random(4), 6, 2)
        check = workloads._cli_check("probability", spec, "probability")
        p = oracle.stability_probability(spec, spec["pairs"])
        good = '{"payload": {"probability": "%s"}}' % workloads._format(p)
        bad = '{"payload": {"probability": "%s"}}' % workloads._format(p / 2 if p else Fraction(1))
        self.assertEqual(check((0, good), False), [])
        self.assertNotEqual(check((0, bad), False), [])
        self.assertNotEqual(check((2, good), False), [])


class Oracle(unittest.TestCase):
    def test_agrees_with_the_package_on_small_markets(self):
        rng = random.Random(11)
        for trial in range(60):
            if trial % 3 == 0:
                spec = gen.perturbed_lottery(rng, rng.randint(2, 6), 4)
            elif trial % 3 == 1:
                spec = gen.compact_market(rng, rng.randint(2, 5), 3)
            else:
                spec = gen.ragged_lottery(rng, rng.randint(1, 5), rng.randint(1, 5), 3)
            instance, matching = gen.build(spec, stableprob)
            expected = stableprob.stability_probability(instance, matching, method="exact", cap=None)
            self.assertEqual(oracle.stability_probability(spec, spec["pairs"]), expected)

    def test_budget(self):
        spec = gen.ladder(random.Random(2), 6)
        with self.assertRaises(oracle.BudgetExceeded):
            oracle.stability_probability(spec, spec["pairs"], budget=2)


class Generators(unittest.TestCase):
    def specs(self, plan, seed: int, workdir: str) -> list:
        seen = []
        original = workloads._build

        def spy(ctx, spec):
            seen.append(spec)
            return original(ctx, spec)

        workloads._build = spy
        try:
            plan(seed, context(workdir))
        finally:
            workloads._build = original
        return seen

    def test_same_seed_same_inputs(self):
        workdir = scratch_dir()
        try:
            for name, plan in workloads.WORKLOADS.items():
                with self.subTest(workload=name):
                    first = self.specs(plan, 5, workdir)
                    self.assertEqual(first, self.specs(plan, 5, workdir))
                    self.assertNotEqual(first, self.specs(plan, 6, workdir))
        finally:
            shutil.rmtree(workdir)

    def test_cli_files_repeat_byte_for_byte(self):
        contents = []
        for _ in range(2):
            workdir = scratch_dir()
            try:
                workloads.cli_plan(5, context(workdir))
                contents.append(
                    {name: open(os.path.join(workdir, name), "rb").read() for name in sorted(os.listdir(workdir))}
                )
            finally:
                shutil.rmtree(workdir)
        self.assertEqual(contents[0], contents[1])

    def test_ladder_answer(self):
        for n in (2, 3, 6):
            spec = gen.ladder(random.Random(n), n)
            self.assertEqual(oracle.stability_probability(spec, spec["pairs"]), Fraction(3, 4) ** (n - 1))

    def test_modal_matching_is_stable(self):
        rng = random.Random(9)
        for _ in range(20):
            spec = gen.perturbed_lottery(rng, rng.randint(2, 12), 4)
            modal_men = [entry[0][0] for entry in spec["men"]]
            modal_women = [entry[0][0] for entry in spec["women"]]
            self.assertIsNone(oracle.blocking_pair(modal_men, modal_women, spec["pairs"]))


if __name__ == "__main__":
    unittest.main()
