"""The four workloads: seeded inputs, the operations timed, and their checks.

A workload is a cycle of operations that the closed loop repeats. Each
operation returns ``(answer, failed)``; ``failed`` marks a refusal
(``ResourceLimitError``, or exit code 3 from the CLI). The answer gate calls
``check`` on the first answer of every operation that ran and gets back a
list of problems, empty when the answer is right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import gen
import oracle


@dataclass
class Context:
    sp: object  # the stableprob package
    cli: object  # stableprob.cli
    workdir: str  # relative directory for the CLI workload's files
    setup_tracer: object  # records models.instance_build spans


@dataclass
class Op:
    family: str
    label: str
    call: Callable[[], tuple]
    check: Callable[[object, bool], list]
    canonical: Callable[[object], str] = str


@dataclass
class Plan:
    ops: list
    refused_at_default_cap: int = 0  # operations whose support product exceeds DEFAULT_CAP

    def warmup(self) -> list:
        """The first operation of each family."""
        seen = {}
        for op in self.ops:
            seen.setdefault(op.family, op)
        return list(seen.values())


def _build(ctx: Context, spec: dict):
    with ctx.setup_tracer.span("models.instance_build"):
        return gen.build(spec, ctx.sp)


def _guarded(sp, thunk):
    def call():
        try:
            return thunk(), False
        except sp.ResourceLimitError as exc:
            return f"refused: {exc}", True

    return call


def _expect(problems: list, label: str, ok: bool, message: str) -> None:
    if not ok:
        problems.append(f"{label}: {message}")


def _interleave(families: dict) -> list:
    """(family, item) pairs with each family spread evenly over the cycle,
    so no stretch of the run holds only one kind of operation."""
    keyed = []
    for name, items in families.items():
        for i, item in enumerate(items):
            keyed.append(((i + 0.5) / len(items), name, item))
    keyed.sort(key=lambda entry: (entry[0], entry[1]))
    return [(name, item) for _, name, item in keyed]


# -- exact ------------------------------------------------------------------

LADDER_N = 10
# one pattern of the cycle, repeated with fresh instances; the six n = 16
# lotteries hold the median and the ladders the 90th percentile, so neither
# sits on the boundary between two kinds of operation
EXACT_PERTURBED = (8, 10, 12, 14, 16, 16, 16, 16, 16, 16, 20, 24, 28, 32)
EXACT_REPEAT = 4


def exact_plan(seed: int, ctx: Context) -> Plan:
    """Why: the exact engine does almost all the work, with no JSON and no
    sampling. Ladders (3^(n-1) search leaves each) set latency_p90_ms and
    queries_per_s; perturbed lotteries, which the default cap refuses but
    cap=None solves in milliseconds, set latency_p50_ms; small compact
    markets with ties take the linear-extension path."""
    sp = ctx.sp
    rng = random.Random(f"exact-{seed}")
    families = {
        "ladder": [gen.ladder(rng, LADDER_N) for _ in range(4 * EXACT_REPEAT)],
        "perturbed": [
            gen.perturbed_lottery(rng, n, 4, min_orders=3) for n in EXACT_PERTURBED * EXACT_REPEAT
        ],
        "compact": [gen.compact_market(rng, 5, 2) for _ in range(2 * EXACT_REPEAT)],
    }
    ops = []
    refused_at_default_cap = 0
    for family, spec in _interleave(families):
        refused_at_default_cap += gen.support_product(spec) > sp.DEFAULT_CAP
        ops.append(_exact_op(ctx, family, spec))
    return Plan(ops, refused_at_default_cap)


def _exact_op(ctx: Context, family: str, spec: dict) -> Op:
    sp = ctx.sp
    instance, matching = _build(ctx, spec)
    n = len(spec["men"])
    label = f"{family} n={n}"

    def check(answer, failed) -> list:
        if failed:
            return []
        problems = []
        reference = oracle.stability_probability(spec, spec["pairs"])
        _expect(problems, label, answer == reference, f"{answer} != reference {reference}")
        if family == "ladder":
            _expect(problems, label, answer == Fraction(3, 4) ** (n - 1), f"{answer} != (3/4)^{n - 1}")
        forced = sp.stability_probability(instance, matching, method="exact", cap=None)
        _expect(problems, label, forced == answer, f"auto {answer} != method='exact' {forced}")
        return problems

    call = _guarded(sp, lambda: sp.stability_probability(instance, matching, cap=None))
    return Op(family, label, call, check)


# -- estimate ---------------------------------------------------------------

EPS = Fraction(1, 6)
DELTA = Fraction(1, 10**6)
# one pattern of the cycle: the seven n = 24 lotteries hold the median and
# the four n = 13 compact markets the 90th percentile. A sample's cost
# varies by a third between instances of one size, so with a spread of
# sizes around a percentile it moved with the seed's draws.
ESTIMATE_LOTTERY = (8, 10, 12, 14, 16, 18, 20, 22, 24, 24, 24, 24, 24, 24, 24, 32)
ESTIMATE_COMPACT = (8, 10, 12, 13, 13, 13, 13, 16)
ESTIMATE_REPEAT = 6  # more distinct instances, so one seed's draws weigh less


def estimate_plan(seed: int, ctx: Context) -> Plan:
    """Why: the same "how stable is this matching" question answered by
    Hoeffding sampling, so models.sample_profile and core.is_stable do the
    work and the exact engine does none. delta = 1e-6 keeps a chance miss
    of the eps gate out of reach across every seed a run may use."""
    rng = random.Random(f"estimate-{seed}")
    families = {
        "lottery": [
            gen.perturbed_lottery(rng, n, 4, min_orders=3) for n in ESTIMATE_LOTTERY * ESTIMATE_REPEAT
        ],
        "compact": [gen.compact_market(rng, n, 3) for n in ESTIMATE_COMPACT * ESTIMATE_REPEAT],
    }
    ops = [
        _estimate_op(ctx, family, spec, rng.randrange(2**32))
        for family, spec in _interleave(families)
    ]
    return Plan(ops)


def _estimate_op(ctx: Context, family: str, spec: dict, sample_seed: int) -> Op:
    sp = ctx.sp
    instance, matching = _build(ctx, spec)
    label = f"{family} n={len(spec['men'])}"

    def check(answer, failed) -> list:
        if failed:
            return []
        reference = oracle.stability_probability(spec, spec["pairs"])
        error = abs(answer.point_estimate - reference)
        return [f"{label}: estimate {answer.point_estimate} is {error} from {reference}"] if error > EPS else []

    call = _guarded(
        sp,
        lambda: sp.estimate_stability_probability(
            instance, matching, EPS, DELTA, random.Random(sample_seed)
        ),
    )
    return Op(family, label, call, check, lambda a: f"{a.point_estimate} {a.samples}")


# -- most-stable ------------------------------------------------------------

# per pattern of 20: four cheap two-uncertain-men searches; two brute-force
# searches with both sides uncertain; thirteen brute-force searches with
# three uncertain men, which hold both percentiles; and one
# three-uncertain-men search at the top. Brute force on these markets costs
# the same within a few per cent from instance to instance, while the cost
# of a three-uncertain-men search varies by a third or more, and a percentile
# held by the latter would move with the seed.
CONSTANT_UNCERTAIN = ((12, 2), (13, 2), (14, 2), (12, 2), (12, 3))
BRUTE_BOTH_SIDES = (4, 11)  # positions among the pattern's 15 brute-force searches
MOST_STABLE_REPEAT = 9


def most_stable_plan(seed: int, ctx: Context) -> Plan:
    """Why: most-stable search makes thousands of small scoring calls, so
    per-call rebuilding, not search depth, costs the time. Brute force runs
    on n = 6 lotteries with at most two orders per agent: mostly with the
    uncertainty on three men, where the constant-uncertain search must
    agree, and some with both sides uncertain, which score through the exact
    engine. The constant-uncertain search runs on n = 12-14 markets with
    two or three uncertain men."""
    rng = random.Random(f"most-stable-{seed}")
    families = {
        "brute": [
            gen.perturbed_lottery(rng, 6, 2) if i % 15 in BRUTE_BOTH_SIDES else gen.one_side_lottery(rng, 6, 3)
            for i in range(15 * MOST_STABLE_REPEAT)
        ],
        "constant-uncertain": [
            gen.one_side_lottery(rng, n, k) for n, k in CONSTANT_UNCERTAIN * MOST_STABLE_REPEAT
        ],
    }
    return Plan([_most_stable_op(ctx, family, spec) for family, spec in _interleave(families)])


def _most_stable_op(ctx: Context, family: str, spec: dict) -> Op:
    sp = ctx.sp
    instance, matching = _build(ctx, spec)
    n = len(spec["men"])
    label = f"{family} n={n}"
    uncertain = [sum(len(entry) > 1 for entry in spec[side]) for side in ("men", "women")]
    both_apply = family == "brute" and min(uncertain) == 0 and max(uncertain) <= 4

    def check(answer, failed) -> list:
        if failed:
            return []
        problems = []
        pairs = answer.matching.sorted_pairs()
        reference = oracle.stability_probability(spec, pairs)
        _expect(problems, label, answer.probability == reference, f"{answer.probability} != reference {reference} of {pairs}")
        baseline = oracle.stability_probability(spec, spec["pairs"])
        _expect(problems, label, answer.probability >= baseline, f"{answer.probability} below the modal matching's {baseline}")
        if family == "brute":
            _expect(problems, label, answer.examined == math.factorial(n), f"examined {answer.examined}")
            if both_apply:
                other = sp.most_stable_constant_uncertain(instance).probability
                _expect(problems, label, other == answer.probability, f"constant-uncertain gives {other}")
        return problems

    if family == "brute":
        call = _guarded(sp, lambda: sp.most_stable_brute_force(instance))
    else:
        call = _guarded(sp, lambda: sp.most_stable_constant_uncertain(instance))
    return Op(
        family,
        label,
        call,
        check,
        lambda a: f"{a.matching.sorted_pairs()} {a.probability} {a.examined} {a.all_candidates_excluded}",
    )


# -- cli --------------------------------------------------------------------

CLI_EPS = "0.1"
CLI_DELTA = "0.000001"
CLI_REPEAT = 3  # the pattern below, once per set of files


def cli_plan(seed: int, ctx: Context) -> Plan:
    """Why: the only workload that runs jsonio, superstability, reductions
    and the CLI. Whole commands run in-process over instance files written
    here (13-100 KB). One command in twenty asks for an exact probability
    that the default cap refuses today; it passes ``--cap`` with the
    instance's support product, so no operation fails and the refusal
    shows as ``probability.refused_at_default_cap``. Five commands of
    25-35 ms hold the median and four ``one`` queries on n = 48 lotteries
    the 90th percentile."""
    rng = random.Random(f"cli-{seed}")
    os.makedirs(ctx.workdir, exist_ok=True)
    ops = []
    refused_at_default_cap = 0
    for r in range(CLI_REPEAT):
        pattern, raised = _cli_pattern(ctx, rng, seed, lambda name, r=r: os.path.join(ctx.workdir, f"{name}-{r}.json"))
        ops += pattern
        refused_at_default_cap += raised
    return Plan(ops, refused_at_default_cap)


def _cli_pattern(ctx: Context, rng: random.Random, seed: int, path) -> list:
    specs = {
        "lot16": gen.perturbed_lottery(rng, 16, 4, min_orders=3),
        "lot32": gen.perturbed_lottery(rng, 32, 4, min_orders=3),
        **{f"lot48{c}": gen.perturbed_lottery(rng, 48, 4, min_orders=3) for c in "abcd"},
        "bin32": gen.perturbed_lottery(rng, 32, 2),
        "bin48": gen.perturbed_lottery(rng, 48, 2),
        "side32": gen.one_side_lottery(rng, 32, 8),
        "cmp24": gen.compact_market(rng, 24, 3),
        "cmp32": gen.compact_market(rng, 32, 3),
        "strict48": gen.compact_market(rng, 48, 3, strict_men=True),
        "ragged": gen.ragged_lottery(rng, 24, 18, 3),
    }
    formulas = {"c2s7": gen.tree_formula(rng, 7), "c2s8": gen.tree_formula(rng, 8)}
    for name, spec in specs.items():
        _build(ctx, spec)  # the files must hold valid instances
        _write(path(name), gen.instance_document(spec))
        _write(path(f"{name}.mu"), gen.matching_document(spec))
    for name, formula in formulas.items():
        _write(path(name), formula)
    code, text = run_cli(ctx.cli, ["generate", "count2sat", path("c2s7")])
    if code != 0:
        raise RuntimeError(f"generate count2sat failed with exit code {code}")
    with open(path("c2s7.encoded"), "w", encoding="utf-8") as handle:
        handle.write(text)

    def op(command: str, name: str, *extra: str, raise_cap: bool = False) -> Op:
        label = " ".join([command, name, *extra[:2]])
        argv = [command, *(["count2sat"] if command == "generate" else []), path(name), *extra]
        if raise_cap:
            argv = ["--cap", str(gen.support_product(specs[name])), *argv]
            label += " --cap"
        if name == "c2s7.encoded":
            argv += ["--matching", path(name)]
            check = _encoded_check(formulas["c2s7"], label)
        else:
            if command in ("probability", "nonzero", "one"):
                argv += ["--matching", path(f"{name}.mu")]
            kind = "estimate" if "estimate" in extra else command
            check = _cli_check(kind, specs.get(name) or formulas[name], label)
        return Op(command, label, lambda: _cli_call(ctx, argv), check, _digest)

    estimate = ["--method", "estimate", "--eps", CLI_EPS, "--delta", CLI_DELTA, "--seed", str(seed)]
    raised = int(gen.support_product(specs["lot16"]) > ctx.sp.DEFAULT_CAP)
    ops = [
        op("validate", "lot48a"),
        op("generate", "c2s8"),
        op("one", "lot48a"),
        op("nonzero", "cmp24"),
        op("probability", "strict48"),
        op("probability", "lot16", *estimate),
        op("validate", "cmp32"),
        op("one", "lot48b"),
        op("nonzero", "bin48"),
        op("probability", "c2s7.encoded"),
        op("probability", "lot16", raise_cap=True),
        op("nonzero", "lot16"),
        op("one", "lot48c"),
        op("exists-certain", "cmp24"),
        op("complete", "ragged"),
        op("exists-certain", "lot32"),
        op("probability", "side32"),
        op("one", "lot48d"),
        op("one", "cmp24"),
        op("nonzero", "bin32"),
    ]
    return ops, raised


def _write(path: str, document) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def run_cli(cli, argv) -> tuple:
    """(exit code, stdout) of ``cli.main(argv)`` run in-process."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        raise RuntimeError(f"stableprob {' '.join(argv)} exited: {err.getvalue()}") from exc
    return code, out.getvalue()


def _cli_call(ctx: Context, argv) -> tuple:
    code, text = run_cli(ctx.cli, argv)
    return (code, text), code == 3


def _digest(answer) -> str:
    code, text = answer
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


def _index(name: str) -> int:
    return int(name[1:])


def _pairs(document: dict) -> list:
    return sorted((_index(m), _index(w)) for m, w in document["pairs"])


def _format(p: Fraction) -> str:
    return str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"


def _uncertain_count(spec: dict) -> int:
    entries = spec["men"] + spec["women"]
    if spec["model"] == "lottery":
        return sum(len(entry) > 1 for entry in entries)
    return sum(any(len(tier) > 1 for tier in tiers) for tiers in entries)


def _realizable(spec: dict, side: str, agent: int, order: tuple) -> bool:
    entry = spec[side][agent]
    if spec["model"] == "lottery":
        return any(order == ranking for ranking, _ in entry)
    tier_of = {i: t for t, tier in enumerate(entry) for i in tier}
    tiers = [tier_of.get(i) for i in order]
    return set(order) == set(tier_of) and len(order) == len(tier_of) and tiers == sorted(tiers)


def _witness_problems(spec: dict, witness: dict, label: str) -> list:
    orders = witness["orders"]
    men = [tuple(_index(x) for x in orders[f"m{i}"]) for i in range(len(spec["men"]))]
    women = [tuple(_index(x) for x in orders[f"w{j}"]) for j in range(len(spec["women"]))]
    problems = []
    for side, side_orders in (("men", men), ("women", women)):
        for agent, order in enumerate(side_orders):
            _expect(problems, label, _realizable(spec, side, agent, order), f"witness order of {side}[{agent}] is not realizable")
    blocking = oracle.blocking_pair(men, women, spec["pairs"])
    _expect(problems, label, blocking is None, f"pair {blocking} blocks the witness profile")
    return problems


def _cli_check(kind: str, spec: dict, label: str):
    """The gate for one CLI command; ``kind`` is the command, or
    "estimate" for ``probability --method estimate``."""

    def check(answer, failed) -> list:
        code, text = answer
        if failed:
            return []
        problems = []
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            return [f"{label}: output is not JSON"]
        payload = document.get("payload", {})
        if kind == "validate":
            expected = {
                "model": spec["model"],
                "men": len(spec["men"]),
                "women": len(spec["women"]),
                "uncertain_agents": _uncertain_count(spec),
            }
            _expect(problems, label, code == 0 and payload == expected, f"exit {code}, payload {payload}")
        elif kind == "estimate":
            reference = oracle.stability_probability(spec, spec["pairs"])
            estimate = Fraction(payload.get("probability", "-1"))
            _expect(problems, label, code == 0 and abs(estimate - reference) <= Fraction(CLI_EPS), f"exit {code}, estimate {estimate} vs {reference}")
        elif kind == "probability":
            reference = _format(oracle.stability_probability(spec, spec["pairs"]))
            _expect(problems, label, code == 0 and payload.get("probability") == reference, f"exit {code}, {payload} vs {reference}")
        elif kind == "nonzero":
            positive = oracle.stability_probability(spec, spec["pairs"]) > 0
            _expect(problems, label, code == (0 if positive else 1) and payload.get("nonzero") == positive, f"exit {code}, {payload}, reference nonzero={positive}")
            if positive and code == 0:
                problems += _witness_problems(spec, payload["witness_profile"], label)
        elif kind == "one":
            certain = oracle.stability_probability(spec, spec["pairs"]) == 1
            _expect(problems, label, code == (0 if certain else 1) and payload.get("certain") == certain, f"exit {code}, {payload}, reference one={certain}")
        elif kind == "exists-certain":
            if code == 0 and payload.get("exists"):
                p = oracle.stability_probability(spec, _pairs(payload["matching"]))
                _expect(problems, label, p == 1, f"returned matching is stable with probability {p}")
            else:
                p = oracle.stability_probability(spec, spec["pairs"])
                _expect(problems, label, code == 1 and p != 1, f"exit {code}, yet the input matching is certainly stable")
        elif kind == "generate":
            encoded = spec_from_document(document)
            expected = Fraction(gen.count_models(spec), 4 ** spec["num_variables"])
            p = oracle.stability_probability(encoded, encoded["pairs"])
            _expect(problems, label, code == 0 and p == expected, f"exit {code}, designated matching has {p}, formula gives {expected}")
        elif kind == "complete":
            problems += _completion_problems(spec, document, code, label)
        return problems

    return check


def _encoded_check(problem: dict, label: str):
    expected = _format(Fraction(gen.count_models(problem), 4 ** problem["num_variables"]))

    def check(answer, failed) -> list:
        if failed:
            return []
        code, text = answer
        got = json.loads(text)["payload"].get("probability")
        return [] if code == 0 and got == expected else [f"{label}: exit {code}, {got} != {expected}"]

    return check


def spec_from_document(document: dict) -> dict:
    """A lottery spec from an instance file, with its designated matching."""
    men_of = {name: i for i, name in enumerate(document["men"])}
    women_of = {name: j for j, name in enumerate(document["women"])}

    def side(names, index_of):
        return [
            [(tuple(index_of[x] for x in item["order"]), Fraction(item["p"])) for item in document["preferences"][name]]
            for name in names
        ]

    pairs = document.get("designated_matching", {"pairs": []})["pairs"]
    return {
        "model": document["model"],
        "men": side(document["men"], women_of),
        "women": side(document["women"], men_of),
        "pairs": sorted((men_of[m], women_of[w]) for m, w in pairs),
    }


def _completion_problems(spec: dict, document: dict, code: int, label: str) -> list:
    """The completed market is square with complete lists, and every
    original order survives as the head of its completed order."""
    problems = []
    total = max(len(spec["men"]), len(spec["women"]))
    completed = spec_from_document(document)
    _expect(problems, label, code == 0, f"exit {code}")
    _expect(problems, label, len(completed["men"]) == len(completed["women"]) == total, "market is not square")
    for side in ("men", "women"):
        for agent, entry in enumerate(completed[side]):
            _expect(problems, label, all(sorted(r) == list(range(total)) for r, _ in entry), f"{side}[{agent}] list is incomplete")
            if agent < len(spec[side]):
                original = sorted(spec[side][agent])
                heads = sorted((r[: len(original[0][0])], p) for r, p in entry)
                _expect(problems, label, heads == original, f"{side}[{agent}] lost its original orders")
    return problems


WORKLOADS = {
    "exact": exact_plan,
    "estimate": estimate_plan,
    "most-stable": most_stable_plan,
    "cli": cli_plan,
}
