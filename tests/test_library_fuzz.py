"""Seeded fuzz over every public constructor, ``is_weakly_stable`` and the
value arguments of the certain-stability functions.

Each target gets arguments of its documented type whose contents are
junk: rows of the wrong width or kind, weights that are no probability,
indices that are no agent index, caps that are no cap. Whatever they hold,
the only error allowed is ``ValidationError`` (and ``ResourceLimitError``
for an int cap that the work really exceeds), and an accepted
``PartialOrder`` holds only int candidates.
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
    certainly_preferred,
    dominance_set,
    exists_certainly_stable_matching,
    is_very_weakly_blocking,
)
from stableprob.core import enumerate_stable_matchings, is_weakly_stable

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


def exists_with_junk_cap(rng: random.Random):
    cap = rng.choice((None, 0, 1, JOINT_STABLE, rng.choice(SCALARS)))
    instance = market(rng)
    try:
        return exists_certainly_stable_matching(instance, cap)
    except ResourceLimitError:
        # only the joint route enumerates, and only past an int cap
        if instance is JOINT and type(cap) is int and cap < JOINT_STABLE:
            return None
        raise


TARGETS = {
    "LinearOrder": lambda rng: LinearOrder(row(rng, lambda: index(rng))),
    "WeakOrder": lambda rng: WeakOrder(row(rng, lambda: row(rng, lambda: index(rng)))),
    "AgentLottery": lambda rng: AgentLottery(pairs(rng, lambda: ORDER)),
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
    "exists_certainly_stable_matching": exists_with_junk_cap,
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
