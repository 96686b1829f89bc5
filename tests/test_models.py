"""Model payloads, certainly-preferred relations, conversions, completion."""

import hashlib
import json
import math
import random
import re
import sys
from dataclasses import fields
from fractions import Fraction
from itertools import accumulate

import pytest

from helpers import (
    MU_IDENTITY,
    certain,
    compact_instance,
    example_market,
    exhaustive_probability,
    joint_instance,
    lottery,
    lottery_instance,
    order,
    random_compact_instance,
    random_joint_instance,
    random_lottery_instance,
    random_linear_orders,
    random_maximal_matching,
    reference_beats,
    reference_pick_thresholds,
    reference_sample_profile,
)
from stableprob import (
    AgentId,
    AgentLottery,
    CompactModel,
    Instance,
    JointModel,
    LinearOrder,
    LotteryModel,
    Matching,
    PartialOrder,
    Profile,
    ResourceLimitError,
    Side,
    SmpInstance,
    ValidationError,
    WeakOrder,
    agent_support,
    as_probability,
    certain_order,
    certainly_preferred,
    complete_instance,
    dominance_set,
    expand_compact_to_lottery,
    format_probability,
    lift_matching,
    lottery_to_joint,
    restrict_matching,
    sample_profile,
    side_is_certain,
    support_size,
    uncertain_agents,
)
from stableprob.core import is_weakly_stable, validate_matching
from stableprob.jsonio import default_names, instance_to_json, matching_to_json
from stableprob.models import tie_breaks

COMPLETION_PIN = "57a13e2d27d60e8d54afca201481dd2955d96ed86e54fa6e35d491cc8b8166bd"

# one fault each: men's lists, women's lists, the message, and the message
# per kind where that kind's orders reject the listing first: a joint market's
# profiles range-check their orders, and linear orders refuse a negative index
MUTUAL = "; acceptability must be mutual"
NEGATIVE = "bad candidate index -1"
ONE_SIDED = [
    (((0, 1),), ((0,),), "man 0 ranks unknown woman 1",
     {"joint": "man 0 ranks out-of-range candidate 1"}),
    (((0,),), ((0, 1),), "woman 0 ranks unknown man 1",
     {"joint": "woman 0 ranks out-of-range candidate 1"}),
    (((0,),), ((),), "man 0 lists woman 0 but not vice versa" + MUTUAL, {}),
    (((),), ((0,),), "woman 0 lists man 0 but not vice versa" + MUTUAL, {}),
    (((), (-1, 0)), ((1,),), "man 1 ranks unknown woman -1",
     {"lottery": NEGATIVE, "compact": NEGATIVE, "joint": NEGATIVE}),
]


def listing_market(kind: str, men, women):
    """A market of ``kind`` ("smp" for a partial-order market) in which each
    agent lists the given candidates, best first, without ties."""
    if kind == "lottery":
        return lottery_instance([certain(*r) for r in men], [certain(*r) for r in women])
    if kind == "compact":
        return compact_instance(
            [[(c,) for c in r] for r in men], [[(c,) for c in r] for r in women]
        )
    if kind == "joint":
        return joint_instance([((men, women), 1)])
    return SmpInstance(
        men=[PartialOrder(frozenset(r), frozenset()) for r in men],
        women=[PartialOrder(frozenset(r), frozenset()) for r in women],
    )


M0 = AgentId(Side.MEN, 0)
M1 = AgentId(Side.MEN, 1)
W0 = AgentId(Side.WOMEN, 0)
W1 = AgentId(Side.WOMEN, 1)


class TestAsProbability:
    @pytest.mark.parametrize(
        "value, expected",
        [
            ("2/5", Fraction(2, 5)),
            ("0.4", Fraction(2, 5)),
            (0.4, Fraction(2, 5)),
            (Fraction(1, 3), Fraction(1, 3)),
            (1, Fraction(1)),
            (0, Fraction(0)),
        ],
    )
    def test_accepts(self, value, expected):
        assert as_probability(value) == expected

    @pytest.mark.parametrize("value", ["3/2", "-1/2", -1, 2, "abc", True, None, "1/0"])
    def test_rejects(self, value):
        with pytest.raises(ValidationError):
            as_probability(value)

    def test_exponent_up_to_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert as_probability(f"1e-{limit}") == Fraction(1, 10**limit)
        assert as_probability(f"0.5E-{limit}") == Fraction(1, 2 * 10**limit)

    @pytest.mark.parametrize(
        "value, message",
        [
            ("1e-9999999", "probability exponent below -{limit}"),
            ("-1e-9999999", "probability exponent below -{limit}"),
            ("1e9999999", "probability outside [0, 1]"),
            ("1e{over}", "probability outside [0, 1]"),
            ("1e-{over}", "probability exponent below -{limit}"),
        ],
    )
    def test_rejects_an_exponent_beyond_the_digit_limit(self, value, message):
        # Fraction would compute 10 ** exponent first
        limit = sys.get_int_max_str_digits()
        value = value.format(over=limit + 1)
        with pytest.raises(ValidationError) as caught:
            as_probability(value)
        assert str(caught.value) == message.format(limit=limit)

    def test_long_unparsable_value_is_echoed_clipped(self):
        # an exponent too long for int() fails to parse at all
        with pytest.raises(ValidationError) as caught:
            as_probability("1e" + "9" * 5000)
        message = str(caught.value)
        assert message.startswith("bad probability '1e999") and len(message) < 200
        with pytest.raises(ValidationError) as caught:
            as_probability("abc")
        assert str(caught.value) == "bad probability 'abc'"

    def test_format_round_trip(self):
        assert format_probability(Fraction(13, 25)) == "13/25"
        assert format_probability(Fraction(1)) == "1"
        assert as_probability(format_probability(Fraction(3, 7))) == Fraction(3, 7)


def _general_probability(text: str) -> Fraction:
    """The general string route of ``as_probability`` for a text without an
    exponent: ``Fraction(text)``, then the range check, with its messages."""
    try:
        prob = Fraction(text)
    except (ValueError, ZeroDivisionError):
        shown = repr(text)
        shown = shown if len(shown) <= 40 else shown[:40] + "..."
        raise ValidationError(f"bad probability {shown}") from None
    if not 0 <= prob <= 1:
        raise ValidationError(f"probability {prob} outside [0, 1]")
    return prob


def _outcome(parse, text: str):
    try:
        value = parse(text)
    except ValidationError as exc:
        return "error", str(exc)
    return type(value), value


PLAIN_RATIO_EDGES = [
    "0/1", "1/1", "01/02", "3/2", "1/0", "0/0", "+1/2", " 1/2", "1_0/20",
    "\u0663/4", "1.5/2", "1/2 ", "1/-2", "-1/2", "1//2", "1/2/3", "/2", "1/",
    "/", "", "00/0000", "0007/0008", "1" * 5000 + "/" + "1" * 5001,
]


class TestPlainRatio:
    """``as_probability`` reads a plain ASCII "p/q" in [0, 1] without
    ``Fraction``'s pattern; every string must end as the general route does."""

    @pytest.mark.parametrize("text", PLAIN_RATIO_EDGES)
    def test_edge_cases_match_the_general_route(self, text):
        assert _outcome(as_probability, text) == _outcome(_general_probability, text)

    def test_seeded_strings_match_the_general_route(self):
        rng = random.Random(113)
        pieces = list("0123456789") + ["/", "+", "-", " ", "_", ".", "\u0663", "00"]
        texts = []
        for _ in range(3000):
            p, q = rng.randrange(60), rng.randrange(60)
            texts.append(f"{'0' * rng.randrange(3)}{p}/{'0' * rng.randrange(3)}{q}")
            texts.append("".join(rng.choice(pieces) for _ in range(rng.randint(1, 7))))
        outcomes = [_outcome(as_probability, text) for text in texts]
        assert outcomes == [_outcome(_general_probability, text) for text in texts]
        # accepted ratios and both kinds of refusal are all exercised
        errors = [value for kind, value in outcomes if kind == "error"]
        assert sum(kind is Fraction for kind, _ in outcomes) > 1000
        assert sum(e.startswith("bad probability") for e in errors) > 500
        assert sum(e.endswith("outside [0, 1]") for e in errors) > 500

    @pytest.mark.parametrize(
        "value, shown", [(Fraction(3, 2), "3/2"), (Fraction(-1, 3), "-1/3")]
    )
    def test_fraction_outside_the_range_is_refused(self, value, shown):
        with pytest.raises(ValidationError) as caught:
            as_probability(value)
        assert str(caught.value) == f"probability {shown} outside [0, 1]"

    def test_fraction_in_range_is_returned_as_is(self):
        for value in (Fraction(0), Fraction(1), Fraction(2, 7)):
            assert as_probability(value) is value


class TestAgentLottery:
    def test_merges_duplicate_orders(self):
        merged = AgentLottery(
            (
                (order(0, 1), Fraction(1, 4)),
                (order(0, 1), Fraction(1, 4)),
                (order(1, 0), Fraction(1, 2)),
            )
        )
        assert len(merged.support) == 2
        assert dict(merged.support)[order(0, 1)] == Fraction(1, 2)

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValidationError):
            AgentLottery(((order(0), Fraction(9, 10)),))

    def test_rejects_zero_weight(self):
        with pytest.raises(ValidationError):
            AgentLottery(((order(0), Fraction(0)), (order(0), Fraction(1))))

    def test_rejects_mismatched_candidate_sets(self):
        with pytest.raises(ValidationError):
            AgentLottery(
                ((order(0), Fraction(1, 2)), (order(0, 1), Fraction(1, 2)))
            )

    def test_certain(self):
        entry = AgentLottery.certain(order(1, 0))
        assert entry.is_certain()
        assert entry.candidates == {0, 1}

    def test_derived_tables_against_the_orders(self):
        rng = random.Random(61)
        for _ in range(300):
            candidates = rng.sample(range(8), rng.randint(0, 6))
            orders = random_linear_orders(rng, candidates, rng.randint(1, 5))
            parts = [rng.randint(1, 30) for _ in orders]
            weights = [Fraction(part, sum(parts)) for part in parts]
            entry = AgentLottery(tuple(zip(orders, weights)))
            for partner in [None, *candidates]:
                assert entry.beats(partner) == reference_beats(entry, partner)
                # a second query returns the table already built
                assert entry.beats(partner) is entry.beats(partner)
            support_weights = [w for _, w in entry.support]
            assert entry.scale == math.lcm(*(w.denominator for w in support_weights))
            assert len(entry.numerators) == len(entry.support)
            for numerator, weight in zip(entry.numerators, support_weights):
                assert Fraction(numerator, entry.scale) == weight

    @pytest.mark.parametrize("partner", [True, False, 7, -1, 1.0, "0"])
    def test_beats_refuses_a_partner_that_is_not_listed(self, partner):
        # True would read as candidate 1 and 7 as no partner at all; a table
        # already built for 1 must not answer for True
        entry = AgentLottery.certain(order(0, 1))
        entry.beats(1), entry.beats(0)
        with pytest.raises(ValidationError, match="is not a listed candidate"):
            entry.beats(partner)
        assert set(entry._beats) == {0, 1}

    def test_derived_tables_stay_out_of_equality(self):
        support = ((order(0, 1), Fraction(1, 3)), (order(1, 0), Fraction(2, 3)))
        queried, fresh = AgentLottery(support), AgentLottery(support)
        queried.beats(None), queried.beats(0)
        assert queried == fresh and hash(queried) == hash(fresh)
        assert repr(queried) == repr(fresh)


P = Profile(men=(order(0),), women=(order(0),))
PAIRS = "{} support must be an array of (entry, weight) pairs"
SUPPORT_FAULTS = [
    (AgentLottery, ((None, 1),), "lottery support must contain LinearOrder entries"),
    (AgentLottery, ((order(0), 0), (order(0), 1)), "lottery weights must be positive"),
    (AgentLottery, (), "empty lottery support"),
    (AgentLottery, ((order(0), "1/2"),), "lottery weights must sum to exactly 1"),
    (JointModel, ((order(0), 1),), "joint support must contain Profile entries"),
    (JointModel, ((P, 0), (P, 1)), "joint weights must be positive"),
    (JointModel, (), "empty joint support"),
    (JointModel, ((P, "1/2"),), "joint weights must sum to exactly 1"),
    # an item that is not a pair, or a support that is not an array
    (AgentLottery, ((order(0),),), PAIRS.format("lottery")),
    (AgentLottery, ((order(0), 1, 2),), PAIRS.format("lottery")),
    (AgentLottery, (order(0),), PAIRS.format("lottery")),
    (AgentLottery, None, PAIRS.format("lottery")),
    (JointModel, ((P,),), PAIRS.format("joint")),
    (JointModel, None, PAIRS.format("joint")),
]


@pytest.mark.parametrize("cls, support, message", SUPPORT_FAULTS)
def test_weighted_support_messages(cls, support, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        cls(support)


WEAK = WeakOrder(((0,),))
WRONG_ENTRIES = [
    (LotteryModel, (WEAK,), (certain(0),), "lottery", "AgentLottery"),
    (LotteryModel, (certain(0),), (order(0),), "lottery", "AgentLottery"),
    (CompactModel, (WEAK,), (certain(0),), "compact", "WeakOrder"),
    (CompactModel, (order(0),), (WEAK,), "compact", "WeakOrder"),
]


@pytest.mark.parametrize("cls, men, women, label, name", WRONG_ENTRIES)
def test_model_entries_of_the_wrong_type_are_rejected(cls, men, women, label, name):
    message = f"{label} model entries must be of type {name}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        cls(men=men, women=women)


class TestJointModel:
    def test_merges_duplicate_profiles(self):
        p = Profile(men=(order(0),), women=(order(0),))
        model = JointModel(((p, Fraction(1, 2)), (p, Fraction(1, 2))))
        assert model.profiles == ((p, Fraction(1)),)

    def test_rejects_varying_acceptability(self):
        p1 = Profile(men=(order(0, 1),), women=(order(0), order(0)))
        p2 = Profile(men=(order(0),), women=(order(0), LinearOrder(())))
        with pytest.raises(ValidationError):
            JointModel(((p1, Fraction(1, 2)), (p2, Fraction(1, 2))))

    def test_rejects_varying_shape(self):
        p1 = Profile(men=(order(0),), women=(order(0),))
        p2 = Profile(men=(order(0), order(0)), women=(order(0, 1),))
        with pytest.raises(ValidationError):
            JointModel(((p1, Fraction(1, 2)), (p2, Fraction(1, 2))))


def random_support(rng: random.Random, entries) -> list:
    """(entry, weight) pairs over ``entries`` whose weights sum to 1 over a
    common denominator of up to 10**30; an entry is at times listed twice,
    so that its two weights merge."""
    k = len(entries)
    total = rng.choice([k + rng.randint(0, 20), rng.randint(k, 10**30)])
    cuts: set = set()
    while len(cuts) < k - 1:
        cuts.add(rng.randrange(1, total))
    bounds = [0, *sorted(cuts), total]
    pairs = []
    for entry, low, high in zip(entries, bounds, bounds[1:]):
        if high - low > 1 and rng.random() < 0.3:
            middle = rng.randrange(low + 1, high)
            pairs.append((entry, Fraction(middle - low, total)))
            low = middle
        pairs.append((entry, Fraction(high - low, total)))
    rng.shuffle(pairs)
    return pairs


def assert_weight_record(owner, support) -> None:
    """``owner``'s scale, numerators and thresholds against its stored
    support, the thresholds float for float against the earlier rule."""
    weights = [w for _, w in support]
    assert owner.thresholds == tuple(reference_pick_thresholds(weights))
    assert owner.scale == math.lcm(*(w.denominator for w in weights))
    assert [Fraction(n, owner.scale) for n in owner.numerators] == weights


class TestWeightRecord:
    """``AgentLottery`` and ``JointModel`` store one weight record per
    support, and every weighted draw reads its thresholds."""

    def test_lottery_record(self):
        rng = random.Random(71)
        for _ in range(300):
            candidates = rng.sample(range(8), rng.randint(0, 6))
            orders = random_linear_orders(rng, candidates, rng.randint(1, 5))
            support = random_support(rng, orders)
            entry = AgentLottery(tuple(support))
            assert_weight_record(entry, entry.support)
            merged = {}
            for o, w in support:
                merged[o] = merged.get(o, 0) + w
            by_ranking = sorted(merged.items(), key=lambda item: item[0].ranking)
            assert entry.support == tuple(by_ranking)
        for ranking in [(), (0,), (2, 0, 1)]:
            entry = AgentLottery.certain(LinearOrder(ranking))
            assert_weight_record(entry, entry.support)
            assert (entry.scale, entry.numerators, entry.thresholds) == (1, (1,), ())

    def test_joint_record(self):
        rng = random.Random(73)
        for _ in range(150):
            n_men, n_women = rng.randint(1, 4), rng.randint(1, 4)
            base = random_joint_instance(rng, n_men, n_women, rng.randint(1, 6))
            profiles = [p for p, _ in base.model.profiles]
            model = JointModel(tuple(random_support(rng, profiles)))
            assert {p for p, _ in model.profiles} == set(profiles)
            assert_weight_record(model, model.profiles)
            assert sum(model.numerators) == model.scale

    def test_record_stays_out_of_equality_hash_and_repr(self):
        for cls in (AgentLottery, JointModel):
            record = [f for f in fields(cls) if f.name in ("scale", "numerators", "thresholds")]
            assert len(record) == 3
            assert not any(f.init or f.compare or f.repr for f in record)

    def test_draws_read_the_stored_thresholds(self):
        p0 = Profile(men=(order(0, 1),), women=(order(0), order(0)))
        p1 = Profile(men=(order(1, 0),), women=(order(0), order(0)))
        model = JointModel(((p0, Fraction(1, 3)), (p1, Fraction(2, 3))))
        inst = Instance(model)
        # a roll below the one threshold picks the first stored profile
        for seed in range(40):
            roll = random.Random(seed).random()
            drawn = sample_profile(inst, random.Random(seed))
            assert drawn == model.profiles[roll >= model.thresholds[0]][0]


ORDER_FAULTS = [
    # the weight sum is checked before the candidate sets
    (AgentLottery, ((order(0), Fraction(1, 2)), (order(0, 1), Fraction(1, 3))),
     "lottery weights must sum to exactly 1"),
    # the weight sum before the shapes, the shapes before acceptability
    (JointModel, ((P, Fraction(1, 2)), (Profile(men=(), women=()), Fraction(1, 3))),
     "joint weights must sum to exactly 1"),
    (JointModel, ((P, Fraction(1, 2)), (Profile(men=(order(),) * 2, women=(order(),)),
                                        Fraction(1, 2))),
     "all profiles must have the same agent counts"),
]


@pytest.mark.parametrize("cls, support, message", ORDER_FAULTS)
def test_weighted_support_error_order(cls, support, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        cls(support)


def relation(candidates, pairs=()):
    return PartialOrder(frozenset(candidates), pairs)


MALFORMED_LISTS = [
    (lambda: relation({0, 1}, [(0,)]), "each relation entry must be a (better, worse) pair"),
    (lambda: relation({0, 1}, [(0, 1, 2)]), "each relation entry must be a (better, worse) pair"),
    (lambda: relation({0, 1}, ["x"]), "each relation entry must be a (better, worse) pair"),
    (lambda: relation({0, 1}, [None]), "each relation entry must be a (better, worse) pair"),
    (lambda: relation({0, 1}, [(0, [1])]), "pair (0, [1]) outside candidate set"),
    (lambda: relation({0, 1}, [(True, 0)]), "pair (True, 0) outside candidate set"),
    (lambda: relation({True}), "bad candidate index True"),
    (lambda: relation({0.0}), "bad candidate index 0.0"),
    (lambda: SmpInstance(men=[relation({True})], women=[relation(()), relation({0})]),
     "bad candidate index True"),
    (lambda: SmpInstance(men=["x"], women=[]),
     "partial-order model entries must be of type PartialOrder"),
    (lambda: is_weakly_stable([order(0)], [WeakOrder(((0,),))], Matching.from_pairs([])),
     "man 0 has a non-order preference"),
    (lambda: is_weakly_stable([WeakOrder(((1,),))], [WeakOrder(())], Matching.from_pairs([])),
     "man 0 ranks out-of-range candidate 1"),
]


@pytest.mark.parametrize("build, message", MALFORMED_LISTS)
def test_malformed_partial_orders_and_weak_lists(build, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


def test_partial_order_pairs_may_be_lists():
    built = PartialOrder(frozenset({0, 1, 2}), [[0, 1], (1, 2), [0, 2]])
    assert built.strictly_before == {(0, 1), (1, 2), (0, 2)}
    assert built == PartialOrder(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2), (0, 2)}))
    # a negative candidate is left to the market's range check
    assert PartialOrder(frozenset({-1}), frozenset()).candidates == {-1}


class TestInstance:
    def test_rejects_one_sided_acceptability(self):
        with pytest.raises(ValidationError):
            lottery_instance(
                men=(certain(0),),
                women=(AgentLottery.certain(LinearOrder(())),),
            )

    @pytest.mark.parametrize("kind", ["lottery", "compact", "joint", "smp"])
    @pytest.mark.parametrize("men, women, message, by_kind", ONE_SIDED)
    def test_rejects_each_one_sided_listing(self, kind, men, women, message, by_kind):
        message = by_kind.get(kind, message)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            listing_market(kind, men, women)

    def test_kind(self):
        assert example_market().kind == "lottery"
        assert compact_instance([[(0,)]], [[(0,)]]).kind == "compact"

    def test_transposed_involution(self):
        inst = example_market()
        flipped = inst.transposed()
        assert flipped.n_men == inst.n_women
        assert flipped.transposed() == inst

    def test_is_complete(self):
        assert example_market().is_complete()
        partial = lottery_instance(
            men=(certain(0), certain(0, 1)),
            women=(certain(0, 1), certain(1)),
        )
        assert not partial.is_complete()

    def test_validate_matching(self):
        inst = example_market()
        with pytest.raises(ValidationError):
            inst.validate_matching(Matching.from_pairs([(0, 2)]))


# two men and three women, so the id of man 2 would be woman 0's
UNEQUAL = {
    "lottery": lambda: lottery_instance(
        [certain(0, 1, 2), lottery(((2, 1, 0), "1/2"), ((0, 1, 2), "1/2"))],
        [certain(0, 1), certain(1, 0), certain(0, 1)],
    ),
    "compact": lambda: compact_instance(
        [[(0, 1), (2,)], [(2,), (0, 1)]], [[(0, 1)], [(1,), (0,)], [(0,), (1,)]]
    ),
    "joint": lambda: joint_instance(
        [
            ((((0, 1, 2), (2, 1, 0)), ((0, 1), (1, 0), (0, 1))), "1/2"),
            ((((1, 0, 2), (2, 1, 0)), ((0, 1), (1, 0), (1, 0))), "1/2"),
        ]
    ),
}
PER_AGENT = {
    "certain_order": (certain_order, ("lottery", "compact", "joint")),
    "support_size": (support_size, ("lottery", "compact")),
    "agent_support": (agent_support, ("lottery", "compact")),
    "certainly_preferred": (certainly_preferred, ("lottery", "compact", "joint")),
    "dominance_set": (
        lambda inst, agent: dominance_set(inst, agent, 0),
        ("lottery", "compact", "joint"),
    ),
    "acceptable": (Instance.acceptable, ("lottery", "compact", "joint")),
    "index": (Instance.index, ("lottery", "compact", "joint")),
}
UNKNOWN = [AgentId(Side.MEN, 2), AgentId(Side.WOMEN, 3), AgentId(Side.MEN, 7)]


class TestUnknownAgents:
    @pytest.mark.parametrize("agent", UNKNOWN, ids=lambda a: f"{a.side.value}{a.index}")
    @pytest.mark.parametrize(
        "name, kind",
        [(name, kind) for name, (_, kinds) in PER_AGENT.items() for kind in kinds],
    )
    def test_rejected_with_validation_error(self, name, kind, agent):
        call = PER_AGENT[name][0]
        with pytest.raises(ValidationError, match="^unknown agent "):
            call(UNEQUAL[kind](), agent)

    @pytest.mark.parametrize("kind", sorted(UNEQUAL))
    def test_ids_follow_agents_order(self, kind):
        inst = UNEQUAL[kind]()
        agents = list(inst.agents())
        assert [inst.index(a) for a in agents] == list(range(5))
        assert len(inst.entries) == len(inst.uncertain) == 5
        for agent, entry in zip(agents, inst.entries):
            assert inst.acceptable(agent) == entry.candidates


class TestMatchedPairRule:
    """One rule for every matching check, with the same two messages."""

    RANGE = "pair (0, 3) references unknown agents"
    UNACCEPTABLE = "pair (0, 0) is not mutually acceptable"

    def checks(self):
        inst = lottery_instance(
            [certain(1, 2), certain(0, 1, 2)],
            [certain(1), certain(0, 1), certain(0, 1)],
        )
        _, padding = complete_instance(inst)
        profile = sample_profile(inst, random.Random(0))
        weak = compact_instance([[(1, 2)], [(0, 1, 2)]], [[(1,)], [(0, 1)], [(0, 1)]])
        return [
            inst.validate_matching,
            lambda mu: lift_matching(mu, padding),
            lambda mu: validate_matching(profile, mu),
            lambda mu: is_weakly_stable(weak.model.men, weak.model.women, mu),
        ]

    def test_out_of_range_pair(self):
        for check in self.checks():
            with pytest.raises(ValidationError, match=f"^{re.escape(self.RANGE)}$"):
                check(Matching.from_pairs([(0, 3)]))

    def test_unacceptable_pair(self):
        message = f"^{re.escape(self.UNACCEPTABLE)}$"
        for check in self.checks():
            with pytest.raises(ValidationError, match=message):
                check(Matching.from_pairs([(0, 0)]))

    def test_one_sided_profile_pair_is_unacceptable(self):
        profile = Profile(men=(order(0),), women=(LinearOrder(()),))
        with pytest.raises(ValidationError, match=f"^{re.escape(self.UNACCEPTABLE)}$"):
            validate_matching(profile, Matching.from_pairs([(0, 0)]))


class TestCertainlyPreferred:
    def test_flaky_agent_has_empty_relation(self):
        inst = example_market()
        assert certainly_preferred(inst, M0).strictly_before == frozenset()

    def test_certain_agent_relation_is_total(self):
        inst = example_market()
        relation = certainly_preferred(inst, M1)
        assert relation.prefers(1, 0)
        assert relation.is_total()

    def test_full_tie_is_empty(self):
        inst = compact_instance([[(0, 1)]], [[(0,)], [(0,)]])
        assert certainly_preferred(inst, M0).strictly_before == frozenset()

    def test_compact_tiers_order_across_not_within(self):
        inst = compact_instance([[(0, 1), (2,)]], [[(0,)], [(0,)], [(0,)]])
        relation = certainly_preferred(inst, M0)
        assert relation.prefers(0, 2) and relation.prefers(1, 2)
        assert not relation.prefers(0, 1) and not relation.prefers(1, 0)

    def test_lottery_matches_naive_intersection(self):
        rng = random.Random(31)
        for _ in range(100):
            inst = random_lottery_instance(
                rng, rng.randint(1, 4), rng.randint(1, 4), complete=rng.random() < 0.5
            )
            for agent in inst.agents():
                support = agent_support(inst, agent)
                orders = [o for o, _ in support]
                cands = inst.acceptable(agent)
                naive = {
                    (a, b)
                    for a in cands
                    for b in cands
                    if a != b and all(o.rank[a] < o.rank[b] for o in orders)
                }
                assert certainly_preferred(inst, agent).strictly_before == naive

    def test_joint_intersects_distinct_orders(self):
        inst = joint_instance(
            [
                ((((0, 1, 2),), ((0,), (0,), (0,))), Fraction(1, 2)),
                ((((0, 2, 1),), ((0,), (0,), (0,))), Fraction(1, 2)),
            ]
        )
        relation = certainly_preferred(inst, M0)
        assert relation.strictly_before == frozenset({(0, 1), (0, 2)})


class TestDominance:
    def test_includes_certainly_better(self):
        inst = example_market()
        assert dominance_set(inst, M1, 0) == {0, 1}
        assert dominance_set(inst, M1, 1) == {1}

    def test_flaky_agent_dominates_nothing(self):
        inst = example_market()
        assert dominance_set(inst, M0, 1) == {1}

    def test_unknown_candidate(self):
        with pytest.raises(ValidationError):
            dominance_set(example_market(), M0, 5)

    @pytest.mark.parametrize("candidate", [True, False, 1.0, 0.0, "0", None, [0]])
    def test_candidate_that_is_not_an_index_is_refused(self, candidate):
        # a bool or float equal to an acceptable index passed the membership test
        with pytest.raises(ValidationError, match="not acceptable to"):
            dominance_set(example_market(), M0, candidate)


class TestUncertainAgents:
    def test_lottery(self):
        inst = example_market()
        assert uncertain_agents(inst) == (M0, AgentId(Side.WOMEN, 1))

    def test_compact(self):
        inst = compact_instance(
            [[(0,), (1,)], [(0, 1)]], [[(0,), (1,)], [(1,), (0,)]]
        )
        assert uncertain_agents(inst) == (M1,)

    def test_joint_counts_varying_orders(self):
        inst = joint_instance(
            [
                ((((0, 1), (0, 1)), ((0, 1), (0, 1))), Fraction(1, 2)),
                ((((1, 0), (0, 1)), ((0, 1), (0, 1))), Fraction(1, 2)),
            ]
        )
        assert uncertain_agents(inst) == (M0,)

    def test_certain_order(self):
        inst = example_market()
        assert certain_order(inst, M0) is None
        assert certain_order(inst, M1) == order(1, 0)

    def test_side_is_certain(self):
        inst = lottery_instance(
            men=(certain(0, 1), certain(1, 0)),
            women=(
                lottery(((0, 1), "1/2"), ((1, 0), "1/2")),
                certain(0, 1),
            ),
        )
        assert side_is_certain(inst, Side.MEN)
        assert not side_is_certain(inst, Side.WOMEN)

    @pytest.mark.parametrize("side", ["men", "women", None])
    def test_side_is_certain_refuses_a_non_side(self, side):
        # the women are certain and the men are not
        inst = lottery_instance(
            men=(lottery(((0, 1), "1/2"), ((1, 0), "1/2")), certain(1, 0)),
            women=(certain(0, 1), certain(1, 0)),
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(f'bad side {side!r}')}$"):
            side_is_certain(inst, side)

    def test_agree_with_the_count_of_realizable_orders(self):
        rng = random.Random(61)
        makers = (random_lottery_instance, random_compact_instance, random_joint_instance)
        for make in makers:
            for _ in range(10):
                inst = make(rng, rng.randint(1, 4), rng.randint(1, 4), complete=False)
                expected = tuple(
                    a
                    for a in inst.agents()
                    if (
                        len({p.order_of(a) for p, _ in inst.model.profiles})
                        if inst.kind == "joint"
                        else support_size(inst, a)
                    )
                    > 1
                )
                assert uncertain_agents(inst) == expected
                for side in Side:
                    assert side_is_certain(inst, side) == all(
                        a.side is not side for a in expected
                    )


class TestSupport:
    def test_lottery_support_size(self):
        inst = example_market()
        assert support_size(inst, M0) == 2
        assert support_size(inst, M1) == 1

    def test_compact_support_size_is_tie_factorial_product(self):
        inst = compact_instance(
            [[(0, 1, 2), (3,)]],
            [[(0,)], [(0,)], [(0,)], [(0,)]],
        )
        assert support_size(inst, M0) == 6

    def test_joint_has_no_per_agent_support(self):
        inst = joint_instance([((((0,),), ((0,),)), 1)])
        with pytest.raises(ValidationError):
            support_size(inst, M0)

    def test_compact_support_is_uniform(self):
        inst = compact_instance([[(0, 1)]], [[(0,)], [(0,)]])
        support = agent_support(inst, M0)
        assert [w for _, w in support] == [Fraction(1, 2), Fraction(1, 2)]
        assert {o.ranking for o, _ in support} == {(0, 1), (1, 0)}


class TestExpandCompact:
    def test_uniform_over_extensions(self):
        inst = compact_instance(
            [[(0, 1, 2)]],
            [[(0,)], [(0,)], [(0,)]],
        )
        expanded = expand_compact_to_lottery(inst)
        assert expanded.kind == "lottery"
        entry = expanded.model.men[0]
        assert len(entry.support) == 6
        assert all(w == Fraction(1, 6) for _, w in entry.support)

    def test_strict_weak_order_becomes_singleton(self):
        inst = compact_instance([[(1,), (0,)]], [[(0,)], [(0,)]])
        expanded = expand_compact_to_lottery(inst)
        assert expanded.model.men[0] == certain(1, 0)

    def test_preserves_certainly_preferred(self):
        rng = random.Random(37)
        for _ in range(50):
            inst = random_compact_instance(
                rng, rng.randint(1, 3), rng.randint(1, 3), complete=rng.random() < 0.5
            )
            expanded = expand_compact_to_lottery(inst)
            for agent in inst.agents():
                assert certainly_preferred(inst, agent) == certainly_preferred(
                    expanded, agent
                )

    def test_preserves_probability(self):
        rng = random.Random(41)
        for _ in range(30):
            inst = random_compact_instance(rng, 3, 3, complete=False)
            mu = random_maximal_matching(rng, inst)
            expanded = expand_compact_to_lottery(inst)
            assert exhaustive_probability(inst, mu) == exhaustive_probability(
                expanded, mu
            )

    def test_cap(self):
        inst = compact_instance(
            [[tuple(range(7))]],
            [[(0,)] for _ in range(7)],
        )
        with pytest.raises(ResourceLimitError):
            expand_compact_to_lottery(inst, cap=100)

    def test_cap_none_means_no_limit(self):
        # 5040 extensions, above the cap of the test before
        inst = compact_instance([[tuple(range(7))]], [[(0,)] for _ in range(7)])
        expanded = expand_compact_to_lottery(inst, cap=None)
        assert len(expanded.model.men[0].support) == 5040

    def test_requires_compact(self):
        with pytest.raises(ValidationError):
            expand_compact_to_lottery(example_market())


class TestLotteryToJoint:
    def test_product_structure(self):
        inst = example_market()
        joint = lottery_to_joint(inst)
        assert joint.kind == "joint"
        weights = sorted(w for _, w in joint.model.profiles)
        assert weights == sorted(
            [
                Fraction(2, 5) * Fraction(4, 5),
                Fraction(2, 5) * Fraction(1, 5),
                Fraction(3, 5) * Fraction(4, 5),
                Fraction(3, 5) * Fraction(1, 5),
            ]
        )

    def test_all_certain_collapses_to_one_profile(self):
        inst = lottery_instance(men=(certain(0),), women=(certain(0),))
        joint = lottery_to_joint(inst)
        assert len(joint.model.profiles) == 1
        assert joint.model.profiles[0][1] == Fraction(1)

    def test_preserves_probability(self):
        rng = random.Random(43)
        for _ in range(30):
            inst = random_lottery_instance(rng, 3, 3, complete=rng.random() < 0.5)
            mu = random_maximal_matching(rng, inst)
            assert exhaustive_probability(inst, mu) == exhaustive_probability(
                lottery_to_joint(inst), mu
            )

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            lottery_to_joint(example_market(), cap=2)

    def test_cap_none_means_no_limit(self):
        joint = lottery_to_joint(example_market(), cap=None)
        assert len(joint.model.profiles) == 4

    def test_requires_lottery(self):
        inst = compact_instance([[(0,)]], [[(0,)]])
        with pytest.raises(ValidationError):
            lottery_to_joint(inst)


class TestSampleProfile:
    def test_deterministic_given_seed(self):
        inst = example_market()
        a = [sample_profile(inst, random.Random(5)) for _ in range(10)]
        b = [sample_profile(inst, random.Random(5)) for _ in range(10)]
        assert a == b

    def test_certain_instance_always_yields_its_profile(self):
        inst = lottery_instance(
            men=(certain(1, 0), certain(0, 1)),
            women=(certain(0, 1), certain(0, 1)),
        )
        for seed in range(5):
            profile = sample_profile(inst, random.Random(seed))
            assert profile.men[0] == order(1, 0)
            assert profile.women[1] == order(0, 1)

    def test_lottery_marginal_frequency(self):
        inst = example_market()
        rng = random.Random(47)
        draws = 100_000
        hits = sum(
            sample_profile(inst, rng).men[0] == order(1, 0) for _ in range(draws)
        )
        assert abs(hits / draws - 0.6) < 0.01

    def test_compact_tie_breaks_uniformly(self):
        inst = compact_instance(
            [[(0,)], [(0,)], [(0,)]],
            [[(0, 1, 2)]],
        )
        rng = random.Random(53)
        draws = 100_000
        counts: dict = {}
        for _ in range(draws):
            ranking = sample_profile(inst, rng).women[0].ranking
            counts[ranking] = counts.get(ranking, 0) + 1
        assert len(counts) == 6
        for count in counts.values():
            assert abs(count / draws - 1 / 6) < 0.01

    def test_joint_respects_weights(self):
        inst = joint_instance(
            [
                ((((0, 1), (0, 1)), ((0, 1), (0, 1))), Fraction(3, 4)),
                ((((1, 0), (0, 1)), ((0, 1), (0, 1))), Fraction(1, 4)),
            ]
        )
        rng = random.Random(59)
        draws = 40_000
        hits = sum(
            sample_profile(inst, rng).men[0] == order(0, 1) for _ in range(draws)
        )
        assert abs(hits / draws - 0.75) < 0.01

    @pytest.mark.parametrize("kind", ["lottery", "compact", "joint"])
    def test_same_stream_as_reference_sampler(self, kind):
        # seeded estimates and CLI bytes rest on this exact stream
        rng = random.Random(61)
        for seed in range(20):
            n_men, n_women = rng.randint(1, 6), rng.randint(1, 6)
            complete = seed % 2 == 0
            if kind == "lottery":
                inst = random_lottery_instance(rng, n_men, n_women, complete=complete)
            elif kind == "compact":
                inst = random_compact_instance(
                    rng, n_men, n_women, max_tie=4, complete=complete
                )
            else:
                inst = random_joint_instance(rng, n_men, n_women, 4, complete=complete)
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(25):
                assert sample_profile(inst, ours) == reference_sample_profile(
                    inst, theirs
                )
            assert ours.getstate() == theirs.getstate()


def tied_market(rng: random.Random) -> Instance:
    """Three men, each with tiers of every size 1-40 in a random order, over
    820 women who tie all three men."""
    sizes = list(range(1, 41))
    candidates = sum(sizes)

    def weak_order() -> WeakOrder:
        perm = rng.sample(range(candidates), candidates)
        starts = list(accumulate(rng.sample(sizes, len(sizes)), initial=0))
        return WeakOrder(tuple(tuple(perm[a:b]) for a, b in zip(starts, starts[1:])))

    men = tuple(weak_order() for _ in range(3))
    women = (WeakOrder(((0, 1, 2),)),) * candidates
    return Instance(CompactModel(men=men, women=women))


def sampled_tiers(rng: random.Random, inst: Instance) -> list[list[int]]:
    """Every tier shuffled by ``rng.sample``, in ``tie_breaks``' order."""
    return [rng.sample(tier, len(tier)) for weak in inst.entries for tier in weak.tiers]


# SHA-256 of five draws of tied_market(Random(3)) from Random(2016), and the
# random() that follows them
TIE_BREAK_PIN = "96640a5944b2bad130ed008575341c0e82fae42c83333cb24b225f12c907800c"


class TestTieBreakRule:
    """The compact tie-break draws ``rng.sample``'s own ``getrandbits`` calls."""

    def test_equals_rng_sample_for_tier_sizes_1_to_40(self):
        for seed in range(30):
            inst = tied_market(random.Random(seed))
            ours, theirs = random.Random(seed), random.Random(seed)
            assert tie_breaks(inst)(ours) == sampled_tiers(theirs, inst)
            assert ours.getstate() == theirs.getstate()

    def test_unread_tiers_consume_the_same_bits(self):
        rng = random.Random(63)
        for seed in range(30):
            inst = tied_market(rng)
            count = sum(len(weak.tiers) for weak in inst.entries)
            read = set(rng.sample(range(count), rng.randint(0, count)))
            ours, theirs = random.Random(seed), random.Random(seed)
            draw = tie_breaks(inst, read)
            for _ in range(2):
                expected = sampled_tiers(theirs, inst)
                assert draw(ours) == [
                    tier if t in read else None for t, tier in enumerate(expected)
                ]
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize(
        "shuffle",
        [lambda rng, inst: tie_breaks(inst)(rng), sampled_tiers],
        ids=["tie_breaks", "rng.sample"],
    )
    def test_draws_are_pinned(self, shuffle):
        # an interpreter whose getrandbits or sample differs fails here
        # instead of silently changing seeded estimates and CLI bytes
        inst = tied_market(random.Random(3))
        rng = random.Random(2016)
        draws = [shuffle(rng, inst) for _ in range(5)]
        text = json.dumps([draws, rng.random()])
        assert hashlib.sha256(text.encode()).hexdigest() == TIE_BREAK_PIN


class TestCompletion:
    def test_complete_instance_is_returned_unchanged(self):
        inst = example_market()
        completed, padding = complete_instance(inst)
        assert completed is inst
        assert padding.is_trivial()

    def test_short_side_is_padded(self):
        inst = lottery_instance(
            men=(certain(0), certain(2)),
            women=(certain(0), certain(), certain(1)),
        )
        completed, padding = complete_instance(inst)
        assert completed.n_men == completed.n_women == 3
        assert completed.is_complete()
        # original favourites stay on top, the tail is ascending
        assert completed.model.men[0] == certain(0, 1, 2)
        assert completed.model.men[1] == certain(2, 0, 1)
        assert completed.model.men[2] == certain(0, 1, 2)
        assert padding.n_men == 2 and padding.total == 3

    def test_compact_padding_appends_singleton_tiers(self):
        inst = compact_instance([[(0, 1)]], [[(0,)], [(0,)], []])
        completed, _ = complete_instance(inst)
        man = completed.model.men[0]
        assert man.tiers == ((0, 1), (2,))
        assert completed.model.women[2].tiers == ((0,), (1,), (2,))

    def test_joint_padding_keeps_weights(self):
        inst = joint_instance(
            [
                ((((0,), (0,)), ((0, 1),)), Fraction(1, 3)),
                ((((0,), (0,)), ((1, 0),)), Fraction(2, 3)),
            ]
        )
        completed, _ = complete_instance(inst)
        assert completed.n_men == completed.n_women == 2
        assert [w for _, w in completed.model.profiles] == [
            Fraction(1, 3),
            Fraction(2, 3),
        ]

    def test_lift_pads_ascending(self):
        inst = lottery_instance(
            men=(certain(0),),
            women=(certain(0), certain()),
        )
        completed, padding = complete_instance(inst)
        lifted = lift_matching(Matching.from_pairs([]), padding)
        assert lifted.sorted_pairs() == [(0, 0), (1, 1)]
        assert completed.is_complete()

    def test_lift_rejects_off_instance_pairs(self):
        inst = lottery_instance(men=(certain(0),), women=(certain(0), certain()))
        _, padding = complete_instance(inst)
        with pytest.raises(ValidationError):
            lift_matching(Matching.from_pairs([(0, 1)]), padding)

    def test_restrict_inverts_lift(self):
        rng = random.Random(61)
        for _ in range(50):
            kind = rng.choice(["lottery", "compact", "joint"])
            n_men, n_women = rng.randint(1, 4), rng.randint(1, 4)
            if kind == "lottery":
                inst = random_lottery_instance(rng, n_men, n_women, complete=False)
            elif kind == "compact":
                inst = random_compact_instance(rng, n_men, n_women, complete=False)
            else:
                inst = random_joint_instance(rng, n_men, n_women, complete=False)
            mu = random_maximal_matching(rng, inst)
            _, padding = complete_instance(inst)
            assert restrict_matching(lift_matching(mu, padding), padding) == mu

    def test_completion_bytes_are_pinned(self):
        # the digest of completed markets and lifted matchings was recorded
        # from an earlier implementation of the completion
        rng = random.Random(62)
        builders = (
            random_lottery_instance,
            random_compact_instance,
            random_joint_instance,
        )
        entries = []
        for k in range(150):
            n_men, n_women = rng.randint(1, 4), rng.randint(1, 4)
            inst = builders[k % 3](rng, n_men, n_women, complete=False)
            completed, padding = complete_instance(inst)
            lifted = lift_matching(random_maximal_matching(rng, inst), padding)
            names = default_names(padding.total, "m"), default_names(padding.total, "w")
            entries.append(
                [instance_to_json(completed, *names), matching_to_json(lifted, *names)]
            )
        text = json.dumps(entries, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == COMPLETION_PIN
