"""Seeded fuzz over every public constructor, ``is_weakly_stable``, the
``beats`` views of ``AgentLottery``, ``WeakOrder`` and ``PartialOrder``,
the ``prefers_over_partner`` tests of ``LinearOrder`` and ``WeakOrder``,
and the value arguments of the certain-stability, probability,
most-stable, conversion and per-agent functions, of
``enumerate_stable_matchings``, ``gale_shapley``, ``side_is_certain``,
``as_probability``, the matching checks and ``lift_matching`` and
``restrict_matching``.

Each target gets arguments of its documented type whose contents are
junk: rows of the wrong width or kind, weights that are no probability,
indices that are no agent index, caps that are no cap, methods that are no
method, sides that are no side, probabilities past the int-to-str limit,
matchings with out-of-range or unacceptable pairs, generators whose rolls
leave [0, 1); an agent argument may also be junk of any type. Whatever
they hold, the only error allowed is ``ValidationError`` (and
``ResourceLimitError`` for an int cap that the work really exceeds), an
accepted ``PartialOrder`` holds only int candidates, a ``beats`` view or
a ``prefers_over_partner`` test answers only for a partner that is None or
a listed candidate, and a ``prefers_over_partner`` test only for an int
candidate.
"""

import random
from fractions import Fraction

import pytest

from stableprob import (
    AgentId,
    AgentLottery,
    CompactModel,
    Graph,
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
    TwoSatInstance,
    ValidationError,
    WeakOrder,
    X3cInstance,
    agent_support,
    as_probability,
    blocking_pairs,
    build_nonzero_2sat,
    certain_order,
    certainly_preferred,
    complete_instance,
    dominance_set,
    enumerate_stable_matchings,
    estimate_stability_probability,
    exists_certainly_stable_matching,
    expand_compact_to_lottery,
    gale_shapley,
    is_certainly_stable,
    is_stability_probability_nonzero,
    is_stability_probability_one,
    is_stable,
    is_very_weakly_blocking,
    lift_matching,
    lottery_to_joint,
    most_stable_brute_force,
    most_stable_constant_uncertain,
    restrict_matching,
    side_is_certain,
    stability_probability,
    stability_probability_exact,
    support_size,
    validate_matching,
)
from stableprob.core import is_weakly_stable

ORDER = LinearOrder((0, 1))
WEAK = WeakOrder(((0, 1),))
LOTTERY = AgentLottery.certain(ORDER)
PROFILE = Profile(men=(LinearOrder((0,)),), women=(LinearOrder((0,)),))
RELATION = PartialOrder(frozenset({0, 1}), frozenset({(0, 1)}))
# a 2 x 2 lottery market, and a joint one whose profile has two stable matchings
REVERSED = LinearOrder((1, 0))
COIN = AgentLottery(((ORDER, Fraction(1, 2)), (REVERSED, Fraction(1, 2))))
MARKET = Instance(LotteryModel(men=(COIN, LOTTERY), women=(LOTTERY, LOTTERY)))
CROSSED = Profile(men=(ORDER, REVERSED), women=(REVERSED, ORDER))
JOINT = Instance(JointModel(((CROSSED, 1),)))
JOINT_STABLE = len(enumerate_stable_matchings(CROSSED, cap=None))
MU = Matching.from_pairs(((0, 0), (1, 1)))
# a 2 x 2 compact market in which every agent ties both candidates
TIED = Instance(CompactModel(men=(WEAK, WEAK), women=(WEAK, WEAK)))
# a 2 x 2 compact market tied on the men's side only, so both most-stable
# searches run on it; man 1 and woman 0 block the identity for certain
MEN_TIED = Instance(
    CompactModel(
        men=(WEAK, WeakOrder(((0,), (1,)))),
        women=(WeakOrder(((1,), (0,))),) * 2,
    )
)
# a 3 x 3 lottery market in which man 0 has three orders and woman 1 two;
# the pair of the two blocks only when both take their second order, so the
# nonzero search enters the root, man 0 and woman 1
THIRD, HALF = Fraction(1, 3), Fraction(1, 2)
THREE_ORDERS = Instance(
    LotteryModel(
        men=(
            AgentLottery(
                (
                    (LinearOrder((0, 1, 2)), THIRD),
                    (LinearOrder((1, 0, 2)), THIRD),
                    (LinearOrder((2, 0, 1)), THIRD),
                )
            ),
            AgentLottery.certain(LinearOrder((1, 0, 2))),
            AgentLottery.certain(LinearOrder((2, 0, 1))),
        ),
        women=(
            AgentLottery.certain(LinearOrder((0, 1, 2))),
            AgentLottery(
                ((LinearOrder((1, 0, 2)), HALF), (LinearOrder((0, 1, 2)), HALF))
            ),
            AgentLottery.certain(LinearOrder((2, 0, 1))),
        ),
    )
)
MU3 = Matching.from_pairs(((0, 0), (1, 1), (2, 2)))
# a 2 x 2 lottery market, and its profile, in which man 0 and woman 1 do not
# list each other, so completing it pads their lists
ONLY_0, ONLY_1 = LinearOrder((0,)), LinearOrder((1,))
PARTIAL = Instance(
    LotteryModel(
        men=(AgentLottery.certain(ONLY_0), COIN),
        women=(COIN, AgentLottery.certain(ONLY_1)),
    )
)
PARTIAL_PROFILE = Profile(men=(ONLY_0, ORDER), women=(REVERSED, ONLY_1))
PADDING = complete_instance(PARTIAL)[1]

# hashable junk, so that it fits in a frozenset as well as in a tuple
SCALARS = (
    None, True, False, -1, 0, 1, 2, 10**20, 1.0, 1.5, float("nan"), float("inf"),
    "", "x", "1", "1/2", "1/0", "1e99999", Fraction(1, 2), Fraction(3, 2),
    Fraction(-1, 3), (), (0,), (0, 1), (0, 1, 2), (0, "x"), (True, 0), ((0, 1),),
    Side.MEN, ORDER, WEAK, LOTTERY, PROFILE, RELATION,
)
# unhashable junk, for rows and tuples only
UNHASHABLE = ([], [0], [0, 1], [[0, 1]], [0, [1]], ([0], 1), {"a": 1}, {0, 1})


def junk(rng: random.Random):
    return rng.choice(SCALARS + UNHASHABLE)


def row(rng: random.Random, good=None):
    """A list or tuple of up to four items, each junk or ``good()``."""
    items = [
        good() if good is not None and rng.random() < 0.5 else junk(rng)
        for _ in range(rng.randint(0, 4))
    ]
    return items if rng.random() < 0.5 else tuple(items)


def hashable_set(rng: random.Random) -> frozenset:
    return frozenset(rng.choice(SCALARS) for _ in range(rng.randint(0, 4)))


def index(rng: random.Random):
    return rng.choice((0, 1, 2, rng.choice(SCALARS)))


def weight(rng: random.Random):
    return rng.choice((Fraction(1, 2), 1, "1/2", rng.choice(SCALARS)))


def pairs(rng: random.Random, entry):
    """A support: (entry, weight) pairs mixed with junk rows."""
    return row(rng, lambda: rng.choice(((entry(), weight(rng)), row(rng))))


def market(rng: random.Random) -> Instance:
    return rng.choice((MARKET, JOINT))


def agent(rng: random.Random) -> AgentId:
    return AgentId(rng.choice((Side.MEN, Side.WOMEN)), index(rng))


def any_agent(rng: random.Random):
    """An agent of the markets, one outside them, or junk."""
    return agent(rng) if rng.random() < 0.5 else junk(rng)


def side(rng: random.Random):
    return rng.choice((Side.MEN, Side.WOMEN, junk(rng)))


def loose_matching(rng: random.Random) -> Matching:
    """A matching whose agents may lie outside a market and whose pairs may
    be unacceptable there."""
    ids = (0, 1, 2, 3, 10**20)
    men = rng.sample(ids, rng.randint(0, 3))
    return Matching.from_pairs(zip(men, rng.sample(ids, len(men))))


def probability_value(rng: random.Random):
    # digit strings longer than the int-to-str limit, and exponents beyond it
    return rng.choice(
        (
            junk(rng), "1" * 5000, "0." + "1" * 5000, "1/" + "1" * 5000,
            "1e4300", "1e-4300", "1e99999", "1e-99999", "1e" + "9" * 5000,
            "1" * 5000 + "e-5000", "0.5e1", "-0", " 1/2 ", "1/2/3", "1_0e-1",
            1e308, 5e-324, -0.0, 10**5000, Fraction(10**5000, 10**5000 + 1),
        )
    )


def junk_cap(rng: random.Random):
    return rng.choice((None, 0, 1, 2, 3, JOINT_STABLE, rng.choice(SCALARS)))


def capped(call, cap, need):
    """``call(cap)``, where a ResourceLimitError passes only for an int
    ``cap`` below ``need()``, the work the call really takes."""
    try:
        return call(cap)
    except ResourceLimitError:
        if type(cap) is int and cap < need():
            return None
        raise


class StuckRandom(random.Random):
    """A generator whose every roll is ``roll``, in [0, 1) or not."""

    def __init__(self, roll):
        super().__init__(0)
        self.roll = roll

    def random(self):
        return self.roll


def exists_with_junk_cap(rng: random.Random):
    instance = market(rng)
    # only the joint route enumerates stable matchings
    need = JOINT_STABLE if instance is JOINT else 0
    return capped(
        lambda c: exists_certainly_stable_matching(instance, c),
        junk_cap(rng),
        lambda: need,
    )


def probability_with_junk(rng: random.Random):
    instance = market(rng)
    method = rng.choice(("auto", "exact", "one-side", "joint", junk(rng)))
    # a joint model and the one-side route never search; the lottery market's
    # one uncertain man meets no uncertain woman, so the search enters only
    # the root
    need = 1 if instance is MARKET and method in ("auto", "exact") else 0
    return capped(
        lambda c: stability_probability(instance, MU, method, c),
        junk_cap(rng),
        lambda: need,
    )


def estimate_with_junk(rng: random.Random):
    instance = market(rng)
    epsilon = rng.choice(("1/2", Fraction(1, 4), 0.3, junk(rng)))
    delta = rng.choice(("1/2", "1e-6", Fraction(1, 3), junk(rng)))
    generator = rng.choice(
        (None, random.Random(5), StuckRandom(rng.choice((0.0, 1.0, -1.0, 2.5))))
    )

    def call(c):
        return estimate_stability_probability(
            instance, MU, epsilon, delta, generator, c
        )

    # the cap counts samples, and the estimate reports how many it drew
    return capped(call, junk_cap(rng), lambda: call(None).samples)


def enumerate_with_junk_cap(rng: random.Random):
    profile = rng.choice((PROFILE, CROSSED, PARTIAL_PROFILE))
    return capped(
        lambda c: enumerate_stable_matchings(profile, c),
        junk_cap(rng),
        lambda: len(enumerate_stable_matchings(profile, None)),
    )


def exact_with_junk_cap(rng: random.Random):
    instance = market(rng)
    # as for method "exact" in ``probability_with_junk``
    need = 1 if instance is MARKET else 0
    return capped(
        lambda c: stability_probability_exact(instance, MU, c),
        junk_cap(rng),
        lambda: need,
    )


def nonzero_with_junk(rng: random.Random):
    # the joint scan and the 2-SAT route never search
    instance, matching, need = rng.choice(
        ((MARKET, MU, 0), (JOINT, MU, 0), (THREE_ORDERS, MU3, 3))
    )
    return capped(
        lambda c: is_stability_probability_nonzero(instance, matching, c),
        junk_cap(rng),
        lambda: need,
    )


def expand_with_junk_cap(rng: random.Random):
    # the cap counts one agent's linear extensions; TIED's agents have two
    instance = rng.choice((TIED, MARKET))
    return capped(
        lambda c: expand_compact_to_lottery(instance, c), junk_cap(rng), lambda: 2
    )


def joint_with_junk_cap(rng: random.Random):
    # the cap counts joint profiles: MARKET's man 0 has two orders
    instance = rng.choice((MARKET, JOINT))
    return capped(lambda c: lottery_to_joint(instance, c), junk_cap(rng), lambda: 2)


def most_stable_with_junk(search):
    # the cap counts the candidates, which the result reports as examined;
    # scoring one on these markets enters at most the search's root
    def build(rng: random.Random):
        instance = rng.choice((MARKET, JOINT, MEN_TIED))

        def call(c):
            return search(instance, c)

        return capped(call, junk_cap(rng), lambda: call(None).examined)

    return build


def with_loose_matching(target, markets):
    # out-of-range agents and unacceptable pairs must be refused, not read
    def build(rng: random.Random):
        return target(rng.choice(markets), loose_matching(rng))

    return build


def beats_with_junk(entries):
    # a junk partner must not be read as a candidate: True as candidate 1,
    # or an unlisted index as no partner at all
    def build(rng: random.Random):
        entry, partner = rng.choice(entries), rng.choice((None, 0, 1, junk(rng)))
        view = entry.beats(partner)
        assert partner is None or (
            type(partner) is int and partner in entry.candidates
        ), partner
        return view

    return build


def prefers_with_junk(entries):
    # the partner rule of ``beats``, and a junk candidate must not be read
    # as one: True as candidate 1
    def build(rng: random.Random):
        entry, partner = rng.choice(entries), rng.choice((None, 0, 1, junk(rng)))
        candidate = rng.choice((0, 1, 2, junk(rng)))
        answer = entry.prefers_over_partner(candidate, partner)
        assert type(candidate) is int, candidate
        assert partner is None or (
            type(partner) is int and partner in entry.candidates
        ), partner
        return answer

    return build


TARGETS = {
    "LinearOrder": lambda rng: LinearOrder(row(rng, lambda: index(rng))),
    "WeakOrder": lambda rng: WeakOrder(row(rng, lambda: row(rng, lambda: index(rng)))),
    "AgentLottery": lambda rng: AgentLottery(pairs(rng, lambda: ORDER)),
    "AgentLottery.beats": beats_with_junk((LOTTERY, COIN)),
    "WeakOrder.beats": beats_with_junk((WEAK, WeakOrder(((1,), (0,))))),
    "PartialOrder.beats": beats_with_junk(
        (RELATION, PartialOrder(frozenset({0, 1}), frozenset()))
    ),
    "LinearOrder.prefers_over_partner": prefers_with_junk((ORDER, REVERSED)),
    "WeakOrder.prefers_over_partner": prefers_with_junk(
        (WEAK, WeakOrder(((1,), (0,))))
    ),
    "LotteryModel": lambda rng: LotteryModel(
        men=row(rng, lambda: LOTTERY), women=row(rng, lambda: LOTTERY)
    ),
    "CompactModel": lambda rng: CompactModel(
        men=row(rng, lambda: WEAK), women=row(rng, lambda: WEAK)
    ),
    "JointModel": lambda rng: JointModel(pairs(rng, lambda: PROFILE)),
    "Profile": lambda rng: Profile(
        men=row(rng, lambda: ORDER), women=row(rng, lambda: ORDER)
    ),
    "Matching": lambda rng: Matching(
        frozenset(rng.choice(((index(rng), index(rng)), rng.choice(SCALARS)))
                  for _ in range(rng.randint(0, 3)))
    ),
    "Matching.from_pairs": lambda rng: Matching.from_pairs(
        row(rng, lambda: row(rng, lambda: index(rng)))
    ),
    "AgentId": lambda rng: AgentId(rng.choice((Side.MEN, junk(rng))), index(rng)),
    "PartialOrder": lambda rng: PartialOrder(
        rng.choice((frozenset({0, 1}), hashable_set(rng))),
        row(rng, lambda: row(rng, lambda: index(rng))),
    ),
    "SmpInstance": lambda rng: SmpInstance(
        men=row(rng, lambda: RELATION), women=row(rng, lambda: RELATION)
    ),
    "TwoSatInstance": lambda rng: TwoSatInstance(
        index(rng), row(rng, lambda: row(rng, lambda: row(rng, lambda: index(rng))))
    ),
    "X3cInstance": lambda rng: X3cInstance(
        rng.choice((3, 6, junk(rng))), row(rng, lambda: row(rng, lambda: index(rng)))
    ),
    "Graph": lambda rng: Graph(index(rng), row(rng, lambda: row(rng, lambda: index(rng)))),
    "is_weakly_stable": lambda rng: is_weakly_stable(
        row(rng, lambda: WEAK), row(rng, lambda: WEAK), Matching.from_pairs(())
    ),
    "is_very_weakly_blocking": lambda rng: is_very_weakly_blocking(
        market(rng), Matching.from_pairs(((0, 0),)), index(rng), index(rng)
    ),
    "dominance_set": lambda rng: dominance_set(market(rng), agent(rng), index(rng)),
    "certainly_preferred": lambda rng: certainly_preferred(market(rng), agent(rng)),
    "certain_order": lambda rng: certain_order(
        rng.choice((MARKET, JOINT, TIED)), any_agent(rng)
    ),
    "support_size": lambda rng: support_size(
        rng.choice((MARKET, JOINT, TIED)), any_agent(rng)
    ),
    "agent_support": lambda rng: agent_support(
        rng.choice((MARKET, JOINT, TIED)), any_agent(rng)
    ),
    "expand_compact_to_lottery": expand_with_junk_cap,
    "lottery_to_joint": joint_with_junk_cap,
    "exists_certainly_stable_matching": exists_with_junk_cap,
    "stability_probability": probability_with_junk,
    "estimate_stability_probability": estimate_with_junk,
    "is_stability_probability_nonzero": nonzero_with_junk,
    "most_stable_brute_force": most_stable_with_junk(most_stable_brute_force),
    "most_stable_constant_uncertain": most_stable_with_junk(
        most_stable_constant_uncertain
    ),
    "enumerate_stable_matchings": enumerate_with_junk_cap,
    "stability_probability_exact": exact_with_junk_cap,
    "gale_shapley": lambda rng: gale_shapley(
        rng.choice((PROFILE, CROSSED, PARTIAL_PROFILE)), side(rng)
    ),
    "side_is_certain": lambda rng: side_is_certain(
        rng.choice((MARKET, JOINT, TIED, PARTIAL)), side(rng)
    ),
    "as_probability": lambda rng: as_probability(probability_value(rng)),
    "is_certainly_stable": with_loose_matching(
        is_certainly_stable, (MARKET, JOINT, TIED, PARTIAL)
    ),
    "is_stability_probability_one": with_loose_matching(
        is_stability_probability_one, (MARKET, JOINT, TIED, PARTIAL)
    ),
    "blocking_pairs": with_loose_matching(
        blocking_pairs, (PROFILE, CROSSED, PARTIAL_PROFILE)
    ),
    "is_stable": with_loose_matching(is_stable, (PROFILE, CROSSED, PARTIAL_PROFILE)),
    "validate_matching": with_loose_matching(
        validate_matching, (PROFILE, CROSSED, PARTIAL_PROFILE)
    ),
    "build_nonzero_2sat": with_loose_matching(
        build_nonzero_2sat, (MARKET, JOINT, TIED, PARTIAL)
    ),
    "lift_matching": lambda rng: lift_matching(loose_matching(rng), PADDING),
    "restrict_matching": lambda rng: restrict_matching(loose_matching(rng), PADDING),
}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_junk_contents_raise_only_validation_error(name):
    rng = random.Random(name)
    build = TARGETS[name]
    for _ in range(250):
        try:
            built = build(rng)
        except ValidationError:
            continue
        if isinstance(built, PartialOrder):
            assert all(type(c) is int for c in built.candidates), built
