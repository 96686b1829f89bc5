"""JSON encoding of instances, matchings, and profiles.

The file schema names agents with opaque unique strings; indices follow the
order of the "men" and "women" arrays. Probabilities parse exactly from "p/q"
or finite-decimal strings and serialize back as "p/q".

An instance document is read in one pass. Every agent's lists (its lottery's
support orders, its compact tiers, or its order in every joint profile) turn
into rows of opposite-side indices as they are checked, so each listed name is
looked up once. A pair listed by only one of its two agents is then dropped
from both agents' rows, so parsed instances always satisfy mutual
acceptability; a joint instance takes each agent's acceptable set from the
first profile. The three models share this row form until the rows become
orders, tiers and profiles.

The rows then go straight into the unchecked constructors
(``LinearOrder._trusted``, ``WeakOrder._trusted``, ``AgentLottery._trusted``
and ``Instance._trusted``): each row already holds distinct in-range
indices, an agent's support orders list the same candidates, and the lists
are mutual, so only what the parser has not proved (a lottery's weights
being positive and summing to 1, a joint model's profiles agreeing) is
checked again. A lottery or compact agent whose every listed candidate lists
it back keeps its rows unfiltered; a joint agent's rows are always filtered
to its first profile's mutual set.
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


def _row(names, label: str, index_of) -> tuple[tuple[int, ...], set[int]]:
    """Index row of one listed order, and its candidate set."""
    _require(isinstance(names, list), f"{label} must be an array of names")
    try:  # runs once per listed order: find what is wrong only on failure
        row = tuple([index_of[name] for name in names])
    except (KeyError, TypeError):  # only strings are keys of ``index_of``
        _require(
            all(isinstance(n, str) for n in names),
            f"{label} must be an array of names",
        )
        name = next(n for n in names if n not in index_of)
        raise ValidationError(f"{label} references unknown agent '{name}'") from None
    listed = set(row)
    _require(len(listed) == len(row), f"{label} repeats an agent")
    return row, listed


def _listing(model: str, preferences, profiles, name: str, index_of):
    """One agent's rows and the candidate set it lists, before the mutual
    intersection: support orders, tiers, or one order per joint profile."""
    label = f"preferences of '{name}'"
    if model == "joint":
        checked = [_row(p["orders"][name], label, index_of) for p in profiles]
        return [row for row, _ in checked], checked[0][1]
    entry = preferences[name]
    if model == "compact":
        _require(
            isinstance(entry, dict) and set(entry) == {"tiers"},
            f"{label} must be an object with a 'tiers' array",
        )
        tiers = entry["tiers"]
        _require(isinstance(tiers, list), f"{label} 'tiers' must be an array")
        for tier in tiers:
            _require(isinstance(tier, list), f"{label} tiers must be arrays")
        flat, listed = _row([n for tier in tiers for n in tier], label, index_of)
        rows, start = [], 0
        for tier in tiers:
            rows.append(flat[start : start + len(tier)])
            start += len(tier)
        return rows, listed
    _require(
        isinstance(entry, list) and entry,
        f"{label} must be a nonempty array of support orders",
    )
    rows, first = [], None
    for item in entry:
        _require(
            isinstance(item, dict) and set(item) == {"order", "p"},
            f"{label} entries must be objects with 'order' and 'p'",
        )
        row, listed = _row(item["order"], label, index_of)
        if first is None:
            first = listed
        else:
            _require(
                listed == first,
                f"support orders of '{name}' must rank the same candidates",
            )
        rows.append(row)
    return rows, first


def _mutual_rows(mine, theirs, reuse: bool) -> list[list[tuple[int, ...]]]:
    """Each agent's rows without the candidates that do not list it back.

    With ``reuse``, an agent listed back by every candidate it lists keeps
    its rows as they are. That holds for lottery and compact rows, which
    together list exactly the agent's candidate set; a joint agent's rows
    after the first profile may list more, so they are always filtered.
    """
    kept = []
    for agent, (rows, listed) in enumerate(mine):
        keep = {other for other in listed if agent in theirs[other][1]}
        if reuse and len(keep) == len(listed):
            kept.append(rows)
        else:
            kept.append([tuple(filter(keep.__contains__, row)) for row in rows])
    return kept


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

    men = [_listing(model, preferences, profiles, n, woman_of) for n in men_names]
    women = [_listing(model, preferences, profiles, n, man_of) for n in women_names]
    men_rows = _mutual_rows(men, women, model != "joint")
    women_rows = _mutual_rows(women, men, model != "joint")

    parsed: dict[str, Fraction] = {}  # weight string -> its probability
    if model == "lottery":

        def lottery(name, rows) -> AgentLottery:
            label = f"weight in preferences of '{name}'"
            return AgentLottery._trusted(
                tuple(
                    (LinearOrder._trusted(row), _weight(item["p"], label, parsed))
                    for row, item in zip(rows, preferences[name])
                )
            )

        payload = LotteryModel(
            men=tuple(map(lottery, men_names, men_rows)),
            women=tuple(map(lottery, women_names, women_rows)),
        )
    elif model == "compact":
        payload = CompactModel(
            men=tuple(WeakOrder._trusted(filter(None, rows)) for rows in men_rows),
            women=tuple(WeakOrder._trusted(filter(None, rows)) for rows in women_rows),
        )
    else:
        payload = JointModel(
            profiles=tuple(
                (
                    Profile(
                        men=tuple(LinearOrder._trusted(r[k]) for r in men_rows),
                        women=tuple(LinearOrder._trusted(r[k]) for r in women_rows),
                    ),
                    _weight(item["p"], "profile weight", parsed),
                )
                for k, item in enumerate(profiles)
            )
        )
    return Instance._trusted(payload), men_names, women_names


def _weight(value, label: str, parsed: dict[str, Fraction]) -> Fraction:
    """``value`` as a probability, an error prefixed by ``label``. A string
    is parsed once per document: ``parsed`` keeps the ones seen. Other JSON
    values are not kept, since 1, 1.0 and true are equal keys but take
    different paths through ``as_probability``."""
    prob = parsed.get(value) if type(value) is str else None
    if prob is None:
        try:
            prob = as_probability(value)
        except ValidationError as exc:
            raise ValidationError(f"{label}: {exc}") from exc
        if type(value) is str:
            parsed[value] = prob
    return prob


def _entry_to_json(entry: AgentLottery | WeakOrder, other):
    """A lottery agent's weighted orders or a compact agent's tiers, each
    candidate written as its name in ``other``."""
    if isinstance(entry, WeakOrder):
        return {"tiers": [[other[i] for i in tier] for tier in entry.tiers]}
    return [
        {"order": [other[i] for i in order.ranking], "p": format_probability(p)}
        for order, p in entry.support
    ]


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
    if isinstance(model, JointModel):
        entries = []
        for profile, weight in model.profiles:
            orders = profile_to_json(profile, men_names, women_names)["orders"]
            entries.append({"p": format_probability(weight), "orders": orders})
        preferences = {"profiles": entries}
    else:
        preferences = {
            name: _entry_to_json(entry, other)
            for names, other, side in (
                (men_names, women_names, model.men),
                (women_names, men_names, model.women),
            )
            for name, entry in zip(names, side)
        }
    return {
        "model": instance.kind,
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
