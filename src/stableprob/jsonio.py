"""JSON encoding of instances, matchings, and profiles.

The file schema names agents with opaque unique strings; indices follow the
order of the "men" and "women" arrays. A pair listed by only one of its two
agents is dropped from both lists on ingest, so parsed instances always
satisfy mutual acceptability. Probabilities parse exactly from "p/q" or
finite-decimal strings and serialize back as "p/q".
"""

from __future__ import annotations

from fractions import Fraction

from .core import LinearOrder, Matching, Profile, WeakOrder
from .errors import ValidationError
from .models import (
    AgentLottery,
    CompactModel,
    Instance,
    JointModel,
    LotteryModel,
    as_probability,
    format_probability,
)

_MODELS = ("lottery", "compact", "joint")
_INSTANCE_KEYS = {"model", "men", "women", "preferences", "designated_matching"}


def default_names(count: int, prefix: str) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(count))


def _parse_names(value, label: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise ValidationError(f"'{label}' must be an array of strings")
    return tuple(value)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _candidate_set(order_names, label: str, index_of) -> set[int]:
    _require(
        isinstance(order_names, list)
        and all(isinstance(n, str) for n in order_names),
        f"{label} must be an array of names",
    )
    try:  # runs once per support order: format the message only on failure
        indices = [index_of[name] for name in order_names]
    except KeyError as missing:
        name = missing.args[0]
        raise ValidationError(f"{label} references unknown agent '{name}'") from None
    _require(len(set(indices)) == len(indices), f"{label} repeats an agent")
    return set(indices)


def _raw_listings(model: str, preferences, names, index_of, profiles=None):
    """Candidate set each agent lists, before the mutual intersection."""
    listings = {}
    for name in names:
        label = f"preferences of '{name}'"
        if model == "joint":
            # every profile's names are checked; the first one's set is kept
            listings[name] = [
                _candidate_set(profile["orders"][name], label, index_of)
                for profile in profiles
            ][0]
        elif model == "compact":
            entry = preferences[name]
            _require(
                isinstance(entry, dict) and set(entry) == {"tiers"},
                f"{label} must be an object with a 'tiers' array",
            )
            tiers = entry["tiers"]
            _require(isinstance(tiers, list), f"{label} 'tiers' must be an array")
            flat: list[str] = []
            for tier in tiers:
                _require(isinstance(tier, list), f"{label} tiers must be arrays")
                flat.extend(tier)
            listings[name] = _candidate_set(flat, label, index_of)
        else:
            entry = preferences[name]
            _require(
                isinstance(entry, list) and entry,
                f"{label} must be a nonempty array of support orders",
            )
            first = None
            for item in entry:
                _require(
                    isinstance(item, dict) and set(item) == {"order", "p"},
                    f"{label} entries must be objects with 'order' and 'p'",
                )
                candidates = _candidate_set(item["order"], label, index_of)
                if first is None:
                    first = candidates
                else:
                    _require(
                        candidates == first,
                        f"support orders of '{name}' must rank the same candidates",
                    )
            listings[name] = first
    return listings


def instance_from_json(data) -> tuple[Instance, tuple[str, ...], tuple[str, ...]]:
    """Parse an instance document; returns (instance, men names, women names)."""
    _require(isinstance(data, dict), "instance must be a JSON object")
    unknown = set(data) - _INSTANCE_KEYS
    _require(not unknown, f"unknown instance fields: {sorted(unknown)}")
    for key in ("model", "men", "women", "preferences"):
        _require(key in data, f"instance is missing the '{key}' field")
    model = data["model"]
    _require(model in _MODELS, f"'model' must be one of {list(_MODELS)}")
    men_names = _parse_names(data["men"], "men")
    women_names = _parse_names(data["women"], "women")
    all_names = men_names + women_names
    _require(
        len(set(all_names)) == len(all_names),
        "agent names must be unique across both sides",
    )
    man_of = {name: i for i, name in enumerate(men_names)}
    woman_of = {name: i for i, name in enumerate(women_names)}

    preferences = data["preferences"]
    _require(isinstance(preferences, dict), "'preferences' must be an object")
    profiles = None
    if model == "joint":
        _require(
            set(preferences) == {"profiles"},
            "joint 'preferences' must be an object with a 'profiles' array",
        )
        profiles = preferences["profiles"]
        _require(
            isinstance(profiles, list) and profiles,
            "'profiles' must be a nonempty array",
        )
        for item in profiles:
            _require(
                isinstance(item, dict) and set(item) == {"p", "orders"},
                "profiles must be objects with 'p' and 'orders'",
            )
            _require(
                isinstance(item["orders"], dict)
                and set(item["orders"]) == set(all_names),
                "each profile must list orders for every agent exactly once",
            )
    else:
        _require(
            set(preferences) == set(all_names),
            "'preferences' must list every agent exactly once",
        )

    men_raw = _raw_listings(model, preferences, men_names, woman_of, profiles)
    women_raw = _raw_listings(model, preferences, women_names, man_of, profiles)
    men_mutual = {
        name: {
            w
            for w in men_raw[name]
            if man_of[name] in women_raw[women_names[w]]
        }
        for name in men_names
    }
    women_mutual = {
        name: {
            m
            for m in women_raw[name]
            if woman_of[name] in men_raw[men_names[m]]
        }
        for name in women_names
    }

    def filtered_order(order_names, index_of, keep: set[int]) -> LinearOrder:
        ranking = tuple(
            index_of[n] for n in order_names if index_of[n] in keep
        )
        return LinearOrder(ranking)

    def build_lottery(name, index_of, keep) -> AgentLottery:
        support = tuple(
            (
                filtered_order(item["order"], index_of, keep),
                _weight(item["p"], f"weight in preferences of '{name}'"),
            )
            for item in preferences[name]
        )
        return AgentLottery(support)

    def build_weak(name, index_of, keep) -> WeakOrder:
        tiers = []
        for tier in preferences[name]["tiers"]:
            filtered = tuple(index_of[n] for n in tier if index_of[n] in keep)
            if filtered:
                tiers.append(filtered)
        return WeakOrder(tuple(tiers))

    if model == "lottery":
        payload = LotteryModel(
            men=tuple(
                build_lottery(n, woman_of, men_mutual[n]) for n in men_names
            ),
            women=tuple(
                build_lottery(n, man_of, women_mutual[n]) for n in women_names
            ),
        )
    elif model == "compact":
        payload = CompactModel(
            men=tuple(build_weak(n, woman_of, men_mutual[n]) for n in men_names),
            women=tuple(build_weak(n, man_of, women_mutual[n]) for n in women_names),
        )
    else:
        entries = []
        for item in profiles:
            orders = item["orders"]
            profile = Profile(
                men=tuple(
                    filtered_order(orders[n], woman_of, men_mutual[n])
                    for n in men_names
                ),
                women=tuple(
                    filtered_order(orders[n], man_of, women_mutual[n])
                    for n in women_names
                ),
            )
            entries.append((profile, _weight(item["p"], "profile weight")))
        payload = JointModel(profiles=tuple(entries))
    return Instance(payload), men_names, women_names


def _weight(value, label: str) -> Fraction:
    try:
        return as_probability(value)
    except ValidationError as exc:
        raise ValidationError(f"{label}: {exc}") from exc


def instance_to_json(
    instance: Instance,
    men_names: tuple[str, ...] | None = None,
    women_names: tuple[str, ...] | None = None,
) -> dict:
    if men_names is None:
        men_names = default_names(instance.n_men, "m")
    if women_names is None:
        women_names = default_names(instance.n_women, "w")
    model = instance.model
    if isinstance(model, LotteryModel):
        kind = "lottery"
        preferences = {}
        for names, other, agents in (
            (men_names, women_names, model.men),
            (women_names, men_names, model.women),
        ):
            for name, agent in zip(names, agents):
                preferences[name] = [
                    {
                        "order": [other[i] for i in order.ranking],
                        "p": format_probability(p),
                    }
                    for order, p in agent.support
                ]
    elif isinstance(model, CompactModel):
        kind = "compact"
        preferences = {}
        for names, other, agents in (
            (men_names, women_names, model.men),
            (women_names, men_names, model.women),
        ):
            for name, agent in zip(names, agents):
                preferences[name] = {
                    "tiers": [[other[i] for i in tier] for tier in agent.tiers]
                }
    else:
        kind = "joint"
        entries = []
        for profile, weight in model.profiles:
            orders = profile_to_json(profile, men_names, women_names)["orders"]
            entries.append({"p": format_probability(weight), "orders": orders})
        preferences = {"profiles": entries}
    return {
        "model": kind,
        "men": list(men_names),
        "women": list(women_names),
        "preferences": preferences,
    }


def matching_from_json(data, men_names, women_names) -> Matching:
    """Parse a matching document, or the designated matching of an instance
    document that carries one."""
    _require(isinstance(data, dict), "matching must be a JSON object")
    if "pairs" not in data and "designated_matching" in data:
        data = data["designated_matching"]
        _require(isinstance(data, dict), "'designated_matching' must be an object")
    _require(
        "pairs" in data and isinstance(data["pairs"], list),
        "matching must have a 'pairs' array",
    )
    man_of = {name: i for i, name in enumerate(men_names)}
    woman_of = {name: i for i, name in enumerate(women_names)}
    pairs = []
    for item in data["pairs"]:
        _require(
            isinstance(item, list) and len(item) == 2,
            "each pair must be a [man, woman] array",
        )
        man, woman = item
        _require(
            isinstance(man, str) and isinstance(woman, str),
            "each pair must name a man and a woman",
        )
        _require(man in man_of, f"pair references unknown man '{man}'")
        _require(woman in woman_of, f"pair references unknown woman '{woman}'")
        pairs.append((man_of[man], woman_of[woman]))
    return Matching.from_pairs(pairs)


def matching_to_json(matching: Matching, men_names, women_names) -> dict:
    return {
        "pairs": [
            [men_names[m], women_names[w]] for m, w in matching.sorted_pairs()
        ]
    }


def profile_to_json(profile: Profile, men_names, women_names) -> dict:
    orders = {}
    for name, order in zip(men_names, profile.men):
        orders[name] = [women_names[i] for i in order.ranking]
    for name, order in zip(women_names, profile.women):
        orders[name] = [men_names[i] for i in order.ranking]
    return {"orders": orders}
