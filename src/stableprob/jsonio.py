"""JSON encoding of instances, matchings, and profiles.

The file schema names agents with opaque unique strings; indices follow the
order of the "men" and "women" arrays. Probabilities parse exactly from "p/q"
or finite-decimal strings and serialize back as "p/q".

An instance document is read in one pass per agent. Each lottery support
entry or compact agent is checked and resolved into rows of opposite-side
indices in one loop (``_lottery_listing``, ``_compact_listing``): each
listed name is looked up once, and a strict compact list becomes its 1-tuple
tiers without slicing. Errors come in a fixed order: every listing first,
men then women, then each lottery agent's weights, agent by agent.

A pair listed by only one of its two agents is then dropped from both
agents' rows, so parsed instances always satisfy mutual acceptability; a
joint instance takes each agent's acceptable set from the first profile.
The mutual pairs are found once, from the men's side (``_mutual``), and an
agent whose every listed candidate lists it back keeps its rows unfiltered.

The rows then go straight into the unchecked constructors
(``AgentLottery._trusted``, ``WeakOrder._trusted``, ``LinearOrder._trusted``
for joint profiles, and ``Instance._trusted``): each row already holds
distinct in-range indices, an agent's support orders list the same
candidates, and the lists are mutual, so only what the parser has not
proved is checked again: a lottery's weights being positive and summing to
1, which ``AgentLottery._trusted`` checks as it merges equal rows and builds
the weight record once, and a joint model's profiles agreeing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from operator import contains

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
_ORDER_P = {"order", "p"}  # the keys of a lottery support entry
_TIERS = {"tiers"}  # the keys of a compact agent's entry


def default_names(count: int, prefix: str) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(count))


def _parse_names(value, label: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise ValidationError(f"'{label}' must be an array of strings")
    return tuple(value)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _resolve(names, label: str, index_of) -> tuple[tuple[int, ...], set[int]]:
    """Index row of one listed order, and its candidate set; ``index_of``
    maps the other side's names to their indices."""
    try:  # runs once per listed order: find what is wrong only on failure
        if not isinstance(names, list):
            raise TypeError
        row = tuple(map(index_of.__getitem__, names))
    except (KeyError, TypeError):  # only strings are keys of ``index_of``
        raise _unresolved(names, label, index_of) from None
    listed = set(row)
    _require(len(listed) == len(row), f"{label} repeats an agent")
    return row, listed


def _unresolved(names, label: str, index_of) -> ValidationError:
    """The error for a listed order that does not resolve: not an array of
    names, or a name of no agent on the other side."""
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        return ValidationError(f"{label} must be an array of names")
    unknown = next(n for n in names if n not in index_of)
    return ValidationError(f"{label} references unknown agent '{unknown}'")


def _lottery_listing(entry, name: str, index_of):
    """One lottery agent's support rows, the candidate set they rank, and
    its weights as the document writes them, parsed later. Each order is
    resolved as ``_resolve`` does, inline: this loop runs once per support
    entry of the document."""
    label = f"preferences of '{name}'"
    _require(
        isinstance(entry, list) and entry,
        f"{label} must be a nonempty array of support orders",
    )
    rows, values, first, lookup = [], [], None, index_of.__getitem__
    for item in entry:
        if not isinstance(item, dict) or item.keys() != _ORDER_P:
            message = f"{label} entries must be objects with 'order' and 'p'"
            raise ValidationError(message)
        names = item["order"]
        try:
            if not isinstance(names, list):
                raise TypeError
            row = tuple(map(lookup, names))
        except (KeyError, TypeError):
            raise _unresolved(names, label, index_of) from None
        listed = set(row)
        if len(listed) != len(row):
            raise ValidationError(f"{label} repeats an agent")
        if first is None:
            first = listed
        elif listed != first:
            message = f"support orders of '{name}' must rank the same candidates"
            raise ValidationError(message)
        rows.append(row)
        values.append(item["p"])
    return rows, first, values


def _compact_listing(entry, name: str, index_of):
    """One compact agent's tiers as index rows and the candidate set they
    list. All its names are resolved as one flat order. A list of non-empty
    singleton tiers (a strict list) becomes that order's 1-tuples; any other
    is cut back into its tiers, empty ones included."""
    label = f"preferences of '{name}'"
    _require(
        isinstance(entry, dict) and entry.keys() == _TIERS,
        f"{label} must be an object with a 'tiers' array",
    )
    tiers = entry["tiers"]
    _require(isinstance(tiers, list), f"{label} 'tiers' must be an array")
    _require(all(map(isinstance, tiers, repeat(list))), f"{label} tiers must be arrays")
    flat, listed = _resolve(list(chain.from_iterable(tiers)), label, index_of)
    if len(flat) == len(tiers) and all(tiers):
        return list(zip(flat)), listed
    rows, start = [], 0
    for tier in tiers:
        end = start + len(tier)
        rows.append(flat[start:end])
        start = end
    return rows, listed


def _joint_listing(profiles, name: str, index_of):
    """One joint agent's order in every profile, and the candidate set of
    its first profile's order."""
    label = f"preferences of '{name}'"
    checked = [_resolve(p["orders"][name], label, index_of) for p in profiles]
    return [row for row, _ in checked], checked[0][1]


def _kept(mine, theirs) -> tuple[list[set[int] | None], int]:
    """Per agent of one side, the candidates it lists that list it back, or
    None when all of them do; and the number of such mutual pairs.
    ``mine`` and ``theirs`` hold each agent's listed candidate set. When
    every agent of the other side lists the whole of this side, all do."""
    if all(len(listed) == len(mine) for listed in theirs):
        return [None] * len(mine), sum(map(len, mine))
    keeps, pairs = [], 0
    for agent, listed in enumerate(mine):
        count = sum(map(contains, map(theirs.__getitem__, listed), repeat(agent)))
        pairs += count
        if count == len(listed):
            keeps.append(None)
        else:
            keeps.append({other for other in listed if agent in theirs[other]})
    return keeps, pairs


def _mutual(men, women) -> tuple[list, list]:
    """Each side's ``_kept`` sets. The mutual pairs are counted once, from
    the men's side: when they are as many as the women's listings, every
    woman's candidates list her back and none of her rows needs filtering."""
    men_keep, pairs = _kept(men, women)
    if pairs == sum(map(len, women)):
        return men_keep, [None] * len(women)
    return men_keep, _kept(women, men)[0]


def _filtered(rows, keep: set[int] | None) -> list[tuple[int, ...]]:
    """``rows`` without the candidates outside ``keep`` (None: keep all)."""
    if keep is None:
        return rows
    return [tuple(filter(keep.__contains__, row)) for row in rows]


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
    parsed: dict[str, Fraction] = {}  # weight string -> its probability
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
        men = [_joint_listing(profiles, n, woman_of) for n in men_names]
        women = [_joint_listing(profiles, n, man_of) for n in women_names]
        men_keep, women_keep = _mutual([m[1] for m in men], [w[1] for w in women])

        def joint_rows(listing, keep) -> list[tuple[int, ...]]:
            # rows after the first profile may list more than its candidates
            rows, listed = listing
            return _filtered(rows, listed if keep is None else keep)

        men_rows = list(map(joint_rows, men, men_keep))
        women_rows = list(map(joint_rows, women, women_keep))
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

    _require(
        set(preferences) == set(all_names),
        "'preferences' must list every agent exactly once",
    )
    read = _lottery_listing if model == "lottery" else _compact_listing
    men = [read(preferences[n], n, woman_of) for n in men_names]
    women = [read(preferences[n], n, man_of) for n in women_names]
    men_keep, women_keep = _mutual([m[1] for m in men], [w[1] for w in women])
    if model == "lottery":

        def lottery(name, listing, keep) -> AgentLottery:
            rows, _, values = listing
            label = f"weight in preferences of '{name}'"
            weights = [_weight(value, label, parsed) for value in values]
            return AgentLottery._trusted(zip(_filtered(rows, keep), weights))

        payload = LotteryModel(
            men=tuple(map(lottery, men_names, men, men_keep)),
            women=tuple(map(lottery, women_names, women, women_keep)),
        )
    else:
        # empty tiers, listed so or emptied by the filter, are dropped
        payload = CompactModel(
            men=tuple(
                WeakOrder._trusted(filter(None, _filtered(rows, keep)))
                for (rows, _), keep in zip(men, men_keep)
            ),
            women=tuple(
                WeakOrder._trusted(filter(None, _filtered(rows, keep)))
                for (rows, _), keep in zip(women, women_keep)
            ),
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
