"""One work limit: every public ``cap`` counts units of work, refuses past it
with one message, and reads None as no limit."""

import inspect
import random

import pytest

import stableprob
from helpers import (
    MU_IDENTITY,
    certain,
    compact_instance,
    example_market,
    joint_instance,
    ladder_instance,
    lottery,
    lottery_instance,
    order,
)
from stableprob import Profile, ResourceLimitError, ValidationError

# a single profile in which men and women want opposite things: ten stable
# matchings, all of them walked on the joint model
MEN = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
WOMEN = ((3, 2, 1, 0), (2, 3, 0, 1), (1, 0, 3, 2), (0, 1, 2, 3))
POLARIZED = Profile(
    men=tuple(order(*r) for r in MEN), women=tuple(order(*r) for r in WOMEN)
)

# two uncertain men, women certain: scoring a matching enters only the root
TWO_FLAKY_MEN = lottery_instance(
    men=[lottery(((0, 1), "1/2"), ((1, 0), "1/2"))] * 2,
    women=[certain(0, 1), certain(0, 1)],
)

# the root, then per rung the man's three picks and, under them, five of the
# woman's for the count, or a man and a woman at their first picks for the
# nonzero search
LADDER, LADDER_MU = ladder_instance(random.Random(47), 7, man_orders=3)

# per public function with a cap: the call, the work it needs, and its unit
CASES = {
    "enumerate_stable_matchings": (
        lambda cap: stableprob.enumerate_stable_matchings(POLARIZED, cap=cap),
        10,
        "stable matchings",
    ),
    "exists_certainly_stable_matching": (
        lambda cap: stableprob.exists_certainly_stable_matching(
            joint_instance([((MEN, WOMEN), 1)]), cap=cap
        ),
        10,
        "stable matchings",
    ),
    "stability_probability_exact": (
        lambda cap: stableprob.stability_probability_exact(LADDER, LADDER_MU, cap=cap),
        1 + 8 * 6,
        "search nodes",
    ),
    "stability_probability": (
        lambda cap: stableprob.stability_probability(LADDER, LADDER_MU, cap=cap),
        1 + 8 * 6,
        "search nodes",
    ),
    "is_stability_probability_nonzero": (
        lambda cap: stableprob.is_stability_probability_nonzero(
            LADDER, LADDER_MU, cap=cap
        ),
        1 + 2 * 6,
        "search nodes",
    ),
    "estimate_stability_probability": (
        lambda cap: stableprob.estimate_stability_probability(
            example_market(), MU_IDENTITY, "1/2", "1/2", random.Random(5), cap=cap
        ),
        3,
        "samples",
    ),
    "most_stable_brute_force": (
        lambda cap: stableprob.most_stable_brute_force(TWO_FLAKY_MEN, cap=cap),
        2,
        "perfect matchings",
    ),
    "most_stable_constant_uncertain": (
        lambda cap: stableprob.most_stable_constant_uncertain(TWO_FLAKY_MEN, cap=cap),
        2,
        "candidate assignments",
    ),
    "expand_compact_to_lottery": (
        lambda cap: stableprob.expand_compact_to_lottery(
            compact_instance([[(0, 1, 2)]], [[(0,)], [(0,)], [(0,)]]), cap=cap
        ),
        6,
        "linear extensions of one agent",
    ),
    "lottery_to_joint": (
        lambda cap: stableprob.lottery_to_joint(example_market(), cap=cap),
        4,
        "joint profiles",
    ),
}


def test_every_public_cap_is_covered():
    with_cap = {
        name
        for name in stableprob.__all__
        if inspect.isfunction(getattr(stableprob, name))
        and "cap" in inspect.signature(getattr(stableprob, name)).parameters
    }
    assert with_cap == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_answers_at_the_need_and_refuses_below_it(name):
    call, need, unit = CASES[name]
    assert call(need) == call(None)
    message = f"^more than {need - 1} {unit}; raise the cap to proceed$"
    with pytest.raises(ResourceLimitError, match=message):
        call(need - 1)


@pytest.mark.parametrize("cap", [True, False, 1.5, -1, [3], "5"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_a_cap_must_be_none_or_a_nonnegative_int(name, cap):
    call, _, _ = CASES[name]
    message = "^the cap must be None or a nonnegative integer$"
    with pytest.raises(ValidationError, match=message):
        call(cap)


# the routes that never search still check the cap before they dispatch
TIED = compact_instance([[(0, 1)], [(0, 1)]], [[(0, 1)], [(0, 1)]])
PAIR = joint_instance([((((0, 1), (1, 0)), ((0, 1), (1, 0))), 1)])
ROUTES = {
    "stability_probability_exact joint": lambda cap: (
        stableprob.stability_probability_exact(PAIR, MU_IDENTITY, cap=cap)
    ),
    "is_stability_probability_nonzero compact": lambda cap: (
        stableprob.is_stability_probability_nonzero(TIED, MU_IDENTITY, cap=cap)
    ),
    "is_stability_probability_nonzero joint": lambda cap: (
        stableprob.is_stability_probability_nonzero(PAIR, MU_IDENTITY, cap=cap)
    ),
    "is_stability_probability_nonzero 2-SAT": lambda cap: (
        stableprob.is_stability_probability_nonzero(
            example_market(), MU_IDENTITY, cap=cap
        )
    ),
    "stability_probability one-side": lambda cap: stableprob.stability_probability(
        TWO_FLAKY_MEN, MU_IDENTITY, method="one-side", cap=cap
    ),
    "exists_certainly_stable_matching lottery": lambda cap: (
        stableprob.exists_certainly_stable_matching(example_market(), cap=cap)
    ),
}


@pytest.mark.parametrize("cap", [1.5, -1, "5", True])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_checks_the_cap(route, cap):
    call = ROUTES[route]
    call(None)  # the route itself answers
    message = "^the cap must be None or a nonnegative integer$"
    with pytest.raises(ValidationError, match=message):
        call(cap)
