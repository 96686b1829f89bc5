"""Spans around the package's layer functions for the traced pass.

Each module of ``src/stableprob`` is a layer. The traced pass rebinds the
functions below, in every module of the package that refers to them, to
wrappers that open a span named ``<module>.<function>``; ``uninstall``
restores the originals. Nothing inside the package records anything.
"""

from __future__ import annotations

import importlib
import json
import os
import types

MODULES = ("cli", "jsonio", "models", "core", "probability", "optimization", "superstability", "reductions")

# (module, attribute, span); the span of a private attribute names the
# public function whose body it is
TRACED = (
    ("cli", "main", "cli.main"),
    ("jsonio", "instance_from_json", "jsonio.instance_from_json"),
    ("jsonio", "matching_from_json", "jsonio.matching_from_json"),
    ("jsonio", "instance_to_json", "jsonio.instance_to_json"),
    ("models", "agent_support", "models.agent_support"),
    ("models", "sample_profile", "models.sample_profile"),
    ("models", "complete_instance", "models.complete_instance"),
    ("core", "is_stable", "core.is_stable"),
    ("probability", "stability_probability", "probability.stability_probability"),
    ("probability", "estimate_stability_probability", "probability.estimate_stability_probability"),
    ("probability", "is_stability_probability_nonzero", "probability.is_stability_probability_nonzero"),
    ("probability", "_nonzero_2sat_parts", "probability.build_nonzero_2sat"),
    ("probability", "solve_2sat", "probability.solve_2sat"),
    ("optimization", "most_stable_brute_force", "optimization.most_stable_brute_force"),
    ("optimization", "most_stable_constant_uncertain", "optimization.most_stable_constant_uncertain"),
    ("superstability", "is_certainly_stable", "superstability.is_certainly_stable"),
    ("superstability", "exists_certainly_stable_matching", "superstability.exists_certainly_stable_matching"),
    ("reductions", "count2sat_to_lottery", "reductions.count2sat_to_lottery"),
)
# spans opened by the benchmark itself or around methods and stdlib calls
EXTRA_SPANS = ("models.validate_matching", "cli.json_load", "cli.json_dumps", "models.instance_build")
SPANS = tuple(span for _, _, span in TRACED) + EXTRA_SPANS

COUNTS = (
    ("probability.samples", "count"),
    ("probability.refused_at_default_cap", "count"),
    ("optimization.examined", "count"),
    ("optimization.score_us_per_candidate", "us"),
    ("optimization.positive_share", "share"),
    ("jsonio.bytes_in", "bytes"),
)
OVERHEAD = (
    ("trace.queries_per_s_delta", "1/s"),
    ("trace.latency_p50_ms_delta", "ms"),
    ("trace.latency_p90_ms_delta", "ms"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = []
    for span in SPANS:
        names += [(f"{span}.self_ms", "ms"), (f"{span}.calls", "count")]
    return names + list(COUNTS) + list(OVERHEAD)


def _count_samples(tracer, index, result):
    tracer.counts["probability.samples"] += result.samples


def _count_examined(tracer, index, result):
    tracer.counts["optimization.examined"] += result.examined


def _count_scoring(tracer, index, result):
    parent = tracer.parent_name(index)
    if parent is not None and parent.startswith("optimization."):
        _, start, end, _, _ = tracer.spans[index]
        tracer.counts["optimization.scored"] += 1
        tracer.counts["optimization.score_s"] += end - start
        tracer.counts["optimization.scored_positive"] += result > 0


HOOKS = {
    "probability.estimate_stability_probability": _count_samples,
    "optimization.most_stable_brute_force": _count_examined,
    "optimization.most_stable_constant_uncertain": _count_examined,
    "probability.stability_probability": _count_scoring,
}


def install(tracer) -> list:
    """Rebind the traced functions to span-recording wrappers; returns the
    undo list for ``uninstall``."""
    modules = [importlib.import_module("stableprob")]
    modules += [importlib.import_module(f"stableprob.{name}") for name in MODULES]
    undo = []
    for module_name, attribute, span in TRACED:
        original = getattr(importlib.import_module(f"stableprob.{module_name}"), attribute)
        wrapper = tracer.wrap(span, original, HOOKS.get(span))
        for module in modules:
            for name in [n for n, value in vars(module).items() if value is original]:
                undo.append((module, name, original))
                setattr(module, name, wrapper)
    models = importlib.import_module("stableprob.models")
    undo.append((models.Instance, "validate_matching", models.Instance.validate_matching))
    models.Instance.validate_matching = tracer.wrap(
        "models.validate_matching", models.Instance.validate_matching
    )

    def load(handle):
        tracer.counts["jsonio.bytes_in"] += os.fstat(handle.fileno()).st_size
        return json.load(handle)

    cli = importlib.import_module("stableprob.cli")
    undo.append((cli, "json", cli.json))
    cli.json = types.SimpleNamespace(
        load=tracer.wrap("cli.json_load", load),
        dumps=tracer.wrap("cli.json_dumps", json.dumps),
        JSONDecodeError=json.JSONDecodeError,
    )
    return undo


def uninstall(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def per_layer_metrics(tracer, cycles: int, setup_tracer, setups: int, refused_at_default_cap: int, scale: float) -> dict:
    """Per-layer figures per cycle of the workload's operation list; the
    instance-build span, recorded by ``setup_tracer``, is per set-up.
    Times are multiplied by ``scale``, the speed gauge's factor to
    reference seconds over the traced pass."""
    self_s, calls = tracer.self_times()
    build_s, build_calls = setup_tracer.self_times()
    values = {}
    for span in SPANS:
        values[f"{span}.self_ms"] = self_s[span] * scale * 1000 / cycles
        values[f"{span}.calls"] = calls[span] / cycles
    values["models.instance_build.self_ms"] = build_s["models.instance_build"] * scale * 1000 / setups
    values["models.instance_build.calls"] = build_calls["models.instance_build"] / setups
    counts = tracer.counts
    scored = counts["optimization.scored"]
    values.update(
        {
            "probability.samples": counts["probability.samples"] / cycles,
            "probability.refused_at_default_cap": refused_at_default_cap,
            "optimization.examined": counts["optimization.examined"] / cycles,
            "optimization.score_us_per_candidate": (
                counts["optimization.score_s"] * scale * 1e6 / scored if scored else 0.0
            ),
            "optimization.positive_share": (
                counts["optimization.scored_positive"] / scored if scored else 0.0
            ),
            "jsonio.bytes_in": counts["jsonio.bytes_in"] / cycles,
        }
    )
    return values
