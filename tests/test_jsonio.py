"""The one-pass instance parser against the two-pass parser it replaced.

``reference_instance_from_json`` in helpers resolves every listing twice, once
to learn acceptability and once to build the model. On every document the two
must give the same (instance, men, women) or the same error text.

The parser builds through the unchecked ``_trusted`` constructors, so every
instance it returns must also survive a rebuild through the public checked
constructors and compare equal to it.
"""

import random

import pytest

import stableprob.jsonio as jsonio
from helpers import (
    mutate_document,
    random_compact_instance,
    random_joint_instance,
    random_lottery_instance,
    reference_instance_from_json,
)
from stableprob import (
    AgentLottery,
    CompactModel,
    Instance,
    JointModel,
    LinearOrder,
    LotteryModel,
    Profile,
    ValidationError,
    WeakOrder,
)
from stableprob.jsonio import instance_from_json, instance_to_json

# m1-w1, m1-w2, m0-w2 and m2-w1 are listed by one side only
ONE_SIDED_LOTTERY = {
    "model": "lottery",
    "men": ["m0", "m1", "m2"],
    "women": ["w0", "w1", "w2"],
    "preferences": {
        "m0": [
            {"order": ["w0", "w1", "w2"], "p": "1/3"},
            {"order": ["w2", "w0", "w1"], "p": "2/3"},
        ],
        "m1": [{"order": ["w1", "w0"], "p": "1"}],
        "m2": [{"order": ["w2"], "p": "1/2"}, {"order": ["w2"], "p": "1/2"}],
        "w0": [{"order": ["m1", "m0"], "p": "1/4"}, {"order": ["m0", "m1"], "p": "3/4"}],
        "w1": [{"order": ["m0", "m2"], "p": "1"}],
        "w2": [{"order": ["m2", "m1"], "p": "1/2"}, {"order": ["m1", "m2"], "p": "1/2"}],
    },
}
# w2's first tier empties once m1, who does not list her, is dropped
ONE_SIDED_COMPACT = {
    "model": "compact",
    "men": ["m0", "m1", "m2"],
    "women": ["w0", "w1", "w2"],
    "preferences": {
        "m0": {"tiers": [["w0", "w1"], ["w2"]]},
        "m1": {"tiers": [["w1"], ["w0"]]},
        "m2": {"tiers": [["w2", "w0"]]},
        "w0": {"tiers": [["m0"], ["m1", "m2"]]},
        "w1": {"tiers": [["m0", "m2"]]},
        "w2": {"tiers": [["m1"], ["m2"]]},
    },
}
# the first profile is mutual; the second lists m0-w1 as well, which the
# first profile's acceptability drops
JOINT_EXTRA = {
    "model": "joint",
    "men": ["m0", "m1"],
    "women": ["w0", "w1"],
    "preferences": {
        "profiles": [
            {"p": "1/2", "orders": {"m0": ["w0"], "m1": ["w1", "w0"], "w0": ["m1", "m0"], "w1": ["m1"]}},
            {"p": "1/2", "orders": {"m0": ["w1", "w0"], "m1": ["w0", "w1"], "w0": ["m0", "m1"], "w1": ["m0", "m1"]}},
        ],
    },
}
# one-sided in the first profile, with extra candidates after it
JOINT_ONE_SIDED = {
    "model": "joint",
    "men": ["m0", "m1"],
    "women": ["w0", "w1"],
    "preferences": {
        "profiles": [
            {"p": "1/3", "orders": {"m0": ["w0", "w1"], "m1": ["w1"], "w0": ["m1", "m0"], "w1": ["m1"]}},
            {"p": "1/3", "orders": {"m0": ["w1", "w0"], "m1": ["w1", "w0"], "w0": ["m0", "m1"], "w1": ["m1", "m0"]}},
            {"p": "1/3", "orders": {"m0": ["w0"], "m1": ["w1"], "w0": ["m0"], "w1": ["m1"]}},
        ],
    },
}
BASES = (ONE_SIDED_LOTTERY, ONE_SIDED_COMPACT, JOINT_EXTRA, JOINT_ONE_SIDED)
GENERATORS = (random_lottery_instance, random_compact_instance, random_joint_instance)
MUTATIONS = 6000


def _outcome(parse, document):
    try:
        return parse(document)
    except ValidationError as exc:
        return str(exc)


def _lists_of(document, name: str) -> list:
    preferences = document["preferences"]
    if document["model"] == "joint":
        return [p["orders"][name] for p in preferences["profiles"]]
    if document["model"] == "compact":
        return preferences[name]["tiers"]
    return [item["order"] for item in preferences[name]]


def _add_one_sided(rng: random.Random, document) -> None:
    """Let one agent list a candidate who does not list it back; a joint
    document lists it from a random profile on."""
    side, other = rng.choice([("men", "women"), ("women", "men")])
    name = rng.choice(document[side])
    lists = _lists_of(document, name)
    strangers = [
        n
        for n in document[other]
        if not any(n in names for names in lists)
        and not any(name in names for names in _lists_of(document, n))
    ]
    if not strangers:
        return
    extra = rng.choice(strangers)
    if document["model"] == "compact":
        lists.insert(rng.randint(0, len(lists)), [extra])
        return
    if document["model"] == "joint":
        lists = lists[rng.randrange(len(lists)) :]
    for names in lists:
        names.insert(rng.randint(0, len(names)), extra)


def _random_document(rng: random.Random, i: int):
    n_men, n_women = rng.randint(1, 4), rng.randint(1, 4)
    instance = GENERATORS[i % 3](rng, n_men, n_women, complete=False)
    document = instance_to_json(instance)
    for _ in range(rng.randint(0, 3)):
        _add_one_sided(rng, document)
    return instance, document


def test_mutated_documents_parse_as_the_two_pass_parser_does():
    rng = random.Random(20261018)
    parsed, errors = 0, set()
    for i in range(MUTATIONS):
        base = BASES[i % 4] if i % 2 else _random_document(rng, i)[1]
        document = mutate_document(rng, base)
        expected = _outcome(reference_instance_from_json, document)
        assert _outcome(instance_from_json, document) == expected, document
        if isinstance(expected, str):
            errors.add(expected)
        else:
            parsed += 1
    # most mutations break a document; enough must survive to reach the models
    assert parsed >= 100 and len(errors) >= 50, (parsed, len(errors))


def test_unmutated_bases_parse_as_the_two_pass_parser_does():
    for document in BASES:
        expected = reference_instance_from_json(document)
        assert instance_from_json(document) == expected


def test_round_trips_with_incomplete_and_one_sided_lists():
    rng = random.Random(7)
    for i in range(600):
        instance, document = _random_document(rng, i)
        expected = _outcome(reference_instance_from_json, document)
        assert _outcome(instance_from_json, document) == expected, document
        if isinstance(expected, tuple):
            assert expected[0] == instance


def _rebuilt(instance: Instance) -> Instance:
    """``instance`` built again through the public checked constructors."""
    model = instance.model

    def orders(side) -> tuple:
        return tuple(LinearOrder(order.ranking) for order in side)

    def lottery(entry: AgentLottery) -> AgentLottery:
        support = entry.support
        return AgentLottery(tuple((LinearOrder(o.ranking), w) for o, w in support))

    if isinstance(model, LotteryModel):
        payload = LotteryModel(
            men=tuple(map(lottery, model.men)), women=tuple(map(lottery, model.women))
        )
    elif isinstance(model, CompactModel):
        payload = CompactModel(
            men=tuple(WeakOrder(e.tiers) for e in model.men),
            women=tuple(WeakOrder(e.tiers) for e in model.women),
        )
    else:
        payload = JointModel(
            tuple(
                (Profile(men=orders(p.men), women=orders(p.women)), w)
                for p, w in model.profiles
            )
        )
    return Instance(payload)


def _assert_checked_rebuild_agrees(instance: Instance) -> None:
    rebuilt = _rebuilt(instance)
    assert rebuilt == instance
    assert rebuilt.acceptable_men == instance.acceptable_men
    assert rebuilt.acceptable_women == instance.acceptable_women


def test_parsed_instances_survive_a_checked_rebuild():
    # the mutation fuzz's documents, drawn again from its seed, and the bases
    rng = random.Random(20261018)
    documents = list(BASES)
    for i in range(MUTATIONS):
        base = BASES[i % 4] if i % 2 else _random_document(rng, i)[1]
        documents.append(mutate_document(rng, base))
    parsed = 0
    for document in documents:
        outcome = _outcome(instance_from_json, document)
        if isinstance(outcome, tuple):
            _assert_checked_rebuild_agrees(outcome[0])
            parsed += 1
    assert parsed >= 100


def test_large_documents_with_one_sided_listings():
    # most agents are listed back by all their candidates and keep their
    # rows; the few with a one-sided listing have theirs filtered
    rng = random.Random(22)
    for i in range(9):
        n_men, n_women = rng.randint(32, 48), rng.randint(32, 48)
        instance = GENERATORS[i % 3](rng, n_men, n_women, complete=False)
        document = instance_to_json(instance)
        for _ in range(rng.randint(2, 5)):
            _add_one_sided(rng, document)
        parsed, men, women = instance_from_json(document)
        assert (parsed, men, women) == reference_instance_from_json(document)
        _assert_checked_rebuild_agrees(parsed)
        accepted = parsed.acceptable_men + parsed.acceptable_women
        listed = [
            {n for names in _lists_of(document, name) for n in names}
            for name in document["men"] + document["women"]
        ]
        kept = [len(a) == len(b) for a, b in zip(accepted, listed)]
        assert any(kept) and not all(kept)


def _two_coins(weights: dict) -> dict:
    """A 2 x 2 lottery document in which each agent holds its order and the
    reverse, with the weights ``weights`` gives it (default "1/2" and
    "1/2"); an agent given one weight holds its order alone."""
    preferences = {}
    orders = {"m0": ["w0", "w1"], "m1": ["w0", "w1"], "w0": ["m0", "m1"], "w1": ["m0", "m1"]}
    for name, order in orders.items():
        listings = zip((order, order[::-1]), weights.get(name, ("1/2", "1/2")))
        preferences[name] = [{"order": o, "p": p} for o, p in listings]
    return {
        "model": "lottery",
        "men": ["m0", "m1"],
        "women": ["w0", "w1"],
        "preferences": preferences,
    }


def test_each_weight_string_is_parsed_once_per_document(monkeypatch):
    calls = []
    original = jsonio.as_probability

    def counting(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(jsonio, "as_probability", counting)
    document = _two_coins({"w1": ("1/3", "2/3")})
    instance, _, _ = instance_from_json(document)
    assert sorted(calls) == ["1/2", "1/3", "2/3"]
    assert instance == reference_instance_from_json(document)[0]
    # a second document parses its strings again
    instance_from_json(document)
    assert len(calls) == 6


@pytest.mark.parametrize(
    "weights, message",
    [
        # an earlier agent's strings are kept; m1's own bad one still names m1
        ({"m1": ("1/2", "3/2")}, "weight in preferences of 'm1': probability 3/2 outside [0, 1]"),
        ({"w1": ("x", "1/2")}, "weight in preferences of 'w1': bad probability 'x'"),
    ],
)
def test_a_bad_weight_names_its_own_agent(weights, message):
    document = _two_coins(weights)
    with pytest.raises(ValidationError) as caught:
        instance_from_json(document)
    assert str(caught.value) == message
    with pytest.raises(ValidationError) as expected:
        reference_instance_from_json(document)
    assert str(expected.value) == message


def test_equal_weights_of_other_json_types_keep_their_own_paths():
    # 1, 1.0 and "1" are one probability; true is none, even after them
    document = _two_coins({"m0": (1,), "m1": (1.0,), "w0": ("1",), "w1": (0.5, "1/2")})
    instance, _, _ = instance_from_json(document)
    assert instance == reference_instance_from_json(document)[0]
    document["preferences"]["w1"] = [{"order": ["m0", "m1"], "p": True}]
    with pytest.raises(ValidationError, match="of 'w1': bad probability True"):
        instance_from_json(document)
