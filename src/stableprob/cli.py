"""Command-line front end for instance validation, queries, and generators.

Every command reads UTF-8 JSON files and prints one JSON document. Queries
print a result envelope {"status", "payload", "diagnostics"}; the generate
and complete commands print a bare instance document so their output can be
fed straight back in. Exit codes: 0 ok, 1 negative decision or infeasible,
2 invalid input, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .core import DEFAULT_CAP, Side
from .errors import ResourceLimitError, ValidationError
from .jsonio import (
    instance_from_json,
    instance_to_json,
    matching_from_json,
    matching_to_json,
    profile_to_json,
)
from .models import complete_instance, format_probability, uncertain_agents
from .optimization import most_stable_brute_force, most_stable_constant_uncertain
from .probability import (
    TwoSatInstance,
    estimate_stability_probability,
    is_stability_probability_nonzero,
    is_stability_probability_one,
    stability_probability,
)
from .reductions import (
    Graph,
    X3cInstance,
    count2sat_to_lottery,
    three_color_to_joint,
    x3c_to_lottery,
)
from .superstability import exists_certainly_stable_matching

CAP_ENV_VAR = "STABLEPROB_CAP"

_EXIT_CODES = {"ok": 0, "infeasible": 1, "invalid-input": 2, "resource-limit": 3}


@dataclass
class CommandResult:
    status: str
    payload: dict
    diagnostics: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.status]


def _decimal(value: Fraction) -> float:
    return float(format(float(value), ".12g"))


def _probability_payload(value: Fraction) -> dict:
    return {"probability": format_probability(value), "decimal": _decimal(value)}


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except RecursionError:
        raise ValidationError(f"{path} nests JSON too deeply") from None
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ValidationError(str(exc)) from None


def _resolve_cap(args) -> int:
    if args.cap is not None:
        value = args.cap
    else:
        raw = os.environ.get(CAP_ENV_VAR)
        if raw is None:
            return DEFAULT_CAP
        try:
            value = int(raw)
        except ValueError:
            raise ValidationError(f"{CAP_ENV_VAR} must be an integer") from None
    if value <= 0:
        raise ValidationError("the cap must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stableprob",
        description="Stable-marriage computations under preference uncertainty.",
    )
    parser.add_argument("--pretty", action="store_true", help="indented JSON output")
    parser.add_argument(
        "--cap",
        type=int,
        default=None,
        help=f"work cap (default {DEFAULT_CAP}, or {CAP_ENV_VAR} if set): search "
        "nodes for probability and nonzero, samples for probability --method "
        "estimate, perfect matchings or candidate assignments and each scored "
        "candidate's search nodes for most-stable brute or constant-uncertain "
        "(both searches prune with one bound and never score what they prune), "
        "a joint model's stable matchings for exists-certain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")

    p = sub.add_parser("probability", help="stability probability of a matching")
    p.add_argument("instance")
    p.add_argument("--matching", required=True)
    p.add_argument(
        "--method",
        choices=["exact", "one-side", "joint", "estimate"],
        default=None,
        help="force a routine instead of auto-dispatch",
    )
    p.add_argument("--eps", default="0.05", help="estimate accuracy (default 0.05)")
    p.add_argument(
        "--delta", default="0.05", help="estimate failure chance (default 0.05)"
    )
    p.add_argument("--seed", type=int, default=0, help="estimate RNG seed")

    p = sub.add_parser("nonzero", help="is the stability probability nonzero")
    p.add_argument("instance")
    p.add_argument("--matching", required=True)

    p = sub.add_parser("one", help="is the stability probability one")
    p.add_argument("instance")
    p.add_argument("--matching", required=True)

    p = sub.add_parser(
        "exists-certain", help="find a matching that is stable with probability one"
    )
    p.add_argument("instance")

    p = sub.add_parser("most-stable", help="matching with the highest probability")
    p.add_argument("instance")
    p.add_argument(
        "--algorithm",
        choices=["constant-uncertain", "brute"],
        default="constant-uncertain",
    )
    p.add_argument(
        "--uncertain-side",
        choices=["men", "women"],
        default=None,
        help="assert which side holds all the uncertainty",
    )

    p = sub.add_parser("generate", help="encode a problem as an instance")
    p.add_argument("kind", choices=["x3c", "count2sat", "3color"])
    p.add_argument("problem", help="problem description file")

    p = sub.add_parser("complete", help="pad an instance to complete lists")
    p.add_argument("instance")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` and ``run`` share, built on first use: building
    one costs more than most commands. Parsing leaves a parser as it was,
    and no caller may change this one."""
    return build_parser()


def _load_instance(path: str):
    return instance_from_json(_load(path))


def _cmd_validate(args) -> CommandResult:
    data = _load(args.instance)
    instance, men, women = instance_from_json(data)
    payload = {
        "model": instance.kind,
        "men": instance.n_men,
        "women": instance.n_women,
        "uncertain_agents": len(uncertain_agents(instance)),
    }
    diagnostics = ["instance is valid"]
    if "designated_matching" in data:
        matching = matching_from_json(data, men, women)
        instance.validate_matching(matching)
        payload["designated_matching"] = matching_to_json(matching, men, women)
        diagnostics.append("designated matching is valid")
    return CommandResult("ok", payload, diagnostics)


def _cmd_probability(args) -> CommandResult:
    instance, men, women = _load_instance(args.instance)
    matching = matching_from_json(_load(args.matching), men, women)
    if args.method == "estimate":
        estimate = estimate_stability_probability(
            instance,
            matching,
            args.eps,
            args.delta,
            random.Random(args.seed),
            cap=_resolve_cap(args),
        )
        payload = {
            "method": "estimate",
            **_probability_payload(estimate.point_estimate),
            "epsilon": format_probability(estimate.epsilon),
            "delta": format_probability(estimate.delta),
            "samples": estimate.samples,
            "seed": args.seed,
        }
        return CommandResult("ok", payload)
    method = args.method or "auto"
    value = stability_probability(
        instance, matching, method=method, cap=_resolve_cap(args)
    )
    return CommandResult("ok", {"method": method, **_probability_payload(value)})


def _cmd_nonzero(args) -> CommandResult:
    instance, men, women = _load_instance(args.instance)
    matching = matching_from_json(_load(args.matching), men, women)
    positive, witness = is_stability_probability_nonzero(
        instance, matching, cap=_resolve_cap(args)
    )
    if positive:
        payload = {
            "nonzero": True,
            "witness_profile": profile_to_json(witness, men, women),
        }
        return CommandResult("ok", payload)
    return CommandResult(
        "infeasible",
        {"nonzero": False},
        ["no positive-probability realization keeps the matching stable"],
    )


def _cmd_one(args) -> CommandResult:
    instance, men, women = _load_instance(args.instance)
    matching = matching_from_json(_load(args.matching), men, women)
    if is_stability_probability_one(instance, matching):
        return CommandResult("ok", {"certain": True})
    return CommandResult(
        "infeasible", {"certain": False}, ["the matching is not certainly stable"]
    )


def _cmd_exists_certain(args) -> CommandResult:
    instance, men, women = _load_instance(args.instance)
    matching = exists_certainly_stable_matching(instance, cap=_resolve_cap(args))
    if matching is None:
        return CommandResult(
            "infeasible",
            {"exists": False},
            ["no matching is stable with probability one"],
        )
    payload = {"exists": True, "matching": matching_to_json(matching, men, women)}
    return CommandResult("ok", payload)


def _cmd_most_stable(args) -> CommandResult:
    instance, men, women = _load_instance(args.instance)
    if args.uncertain_side is not None:
        side = Side.MEN if args.uncertain_side == "men" else Side.WOMEN
        strays = [a for a in uncertain_agents(instance) if a.side is not side]
        if strays:
            raise ValidationError(
                f"uncertain agents are not all on the {args.uncertain_side} side"
            )
    if args.algorithm == "brute":
        result = most_stable_brute_force(instance, cap=_resolve_cap(args))
    else:
        result = most_stable_constant_uncertain(instance, cap=_resolve_cap(args))
    payload = {
        "algorithm": args.algorithm,
        "matching": matching_to_json(result.matching, men, women),
        **_probability_payload(result.probability),
        "examined": result.examined,
        "all_candidates_excluded": result.all_candidates_excluded,
    }
    return CommandResult("ok", payload)


def _require_fields(data, fields, label: str) -> None:
    if not isinstance(data, dict) or set(data) != set(fields):
        raise ValidationError(f"{label} must be an object with fields {fields}")


def _cmd_generate(args) -> CommandResult:
    data = _load(args.problem)
    if args.kind == "x3c":
        _require_fields(data, ["universe_size", "triples"], "an x3c problem")
        problem = X3cInstance(data["universe_size"], data["triples"])
        instance, matching = x3c_to_lottery(problem)
    elif args.kind == "count2sat":
        _require_fields(data, ["num_variables", "clauses"], "a count2sat problem")
        formula = TwoSatInstance(data["num_variables"], data["clauses"])
        instance, matching = count2sat_to_lottery(formula)
    else:
        _require_fields(data, ["vertex_count", "edges"], "a 3color problem")
        graph = Graph(data["vertex_count"], data["edges"])
        instance, matching = three_color_to_joint(graph), None
    document = instance_to_json(instance)
    if matching is not None:
        document["designated_matching"] = matching_to_json(
            matching, document["men"], document["women"]
        )
    return CommandResult("ok", document)


def _extend_names(names, existing: set, prefix: str, count: int) -> tuple[str, ...]:
    out = list(names)
    for i in range(count):
        candidate = f"{prefix}{i}"
        while candidate in existing:
            candidate = "_" + candidate
        existing.add(candidate)
        out.append(candidate)
    return tuple(out)


def _cmd_complete(args) -> CommandResult:
    instance, men, women = _load_instance(args.instance)
    completed, padding = complete_instance(instance)
    existing = set(men) | set(women)
    men_full = _extend_names(men, existing, "pm", completed.n_men - len(men))
    women_full = _extend_names(women, existing, "pw", completed.n_women - len(women))
    document = instance_to_json(completed, men_full, women_full)
    added = (completed.n_men - len(men)) + (completed.n_women - len(women))
    return CommandResult(
        "ok", document, [f"added {added} agents and completed all preference lists"]
    )


_HANDLERS = {
    "validate": _cmd_validate,
    "probability": _cmd_probability,
    "nonzero": _cmd_nonzero,
    "one": _cmd_one,
    "exists-certain": _cmd_exists_certain,
    "most-stable": _cmd_most_stable,
    "generate": _cmd_generate,
    "complete": _cmd_complete,
}


def _execute(args) -> CommandResult:
    try:
        return _HANDLERS[args.command](args)
    except ResourceLimitError as exc:
        return CommandResult("resource-limit", {}, [str(exc)])
    except ValidationError as exc:
        return CommandResult("invalid-input", {}, [str(exc)])


def run(argv=None) -> CommandResult:
    """Parse arguments and execute; the library-level entry point."""
    args = _parser().parse_args(argv)
    return _execute(args)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    result = _execute(args)
    if args.command in ("generate", "complete") and result.status == "ok":
        document = result.payload
        for note in result.diagnostics:
            print(note, file=sys.stderr)
    else:
        document = {
            "status": result.status,
            "payload": result.payload,
            "diagnostics": result.diagnostics,
        }
    if args.pretty:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(json.dumps(document, sort_keys=True))
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
