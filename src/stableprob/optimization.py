"""Searching for a matching with the highest stability probability.

The brute-force path scores every perfect matching of the completed market.
The polynomial path assumes all uncertainty sits on one side with a bounded
number of uncertain agents: it fixes their partners in every possible way,
extends each choice with a stability-optimal assignment of the certain
agents, and keeps the best scored candidate. Each path refuses up front
when the candidates it would score outnumber ``cap``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DEFAULT_CAP,
    AgentId,
    LinearOrder,
    Matching,
    Profile,
    Side,
    gale_shapley,
)
from .errors import ResourceLimitError, ValidationError
from .models import (
    Instance,
    certain_order,
    complete_instance,
    restrict_matching,
    uncertain_agents,
)
from .probability import stability_probability


@dataclass(frozen=True)
class MostStableResult:
    """Best matching found, its exact probability, and search bookkeeping."""

    matching: Matching
    probability: Fraction
    examined: int
    all_candidates_excluded: bool = False


def most_stable_brute_force(
    instance: Instance, cap: int | None = DEFAULT_CAP
) -> MostStableResult:
    """Score every perfect matching of the completed market and keep the best.

    Completion never lowers the reachable maximum, so the restricted winner
    is a most stable matching of the original instance with the same
    probability. Ties go to the first matching in pair-sorted lexicographic
    order.
    """
    completed, padding = complete_instance(instance)
    n = completed.n_men
    count = math.factorial(n)
    if cap is not None and count > cap:
        raise ResourceLimitError(
            f"more than {cap} perfect matchings; raise the cap to proceed"
        )
    best = None
    best_p = Fraction(-1)
    for assignment in itertools.permutations(range(n)):
        matching = Matching.from_pairs((m, assignment[m]) for m in range(n))
        p = stability_probability(completed, matching, cap=cap)
        if p > best_p:
            best, best_p = matching, p
    return MostStableResult(
        matching=restrict_matching(best, padding),
        probability=best_p,
        examined=count,
    )


def most_stable_constant_uncertain(
    instance: Instance, cap: int | None = DEFAULT_CAP
) -> MostStableResult:
    """Most stable matching when one side holds all the uncertainty.

    Every injective assignment of the k uncertain agents to the other side
    is tried. For each one, the certain remainder is matched by a
    proposer-optimal round, discarded when a certain pair already blocks,
    and otherwise rematched receiver-optimally on lists truncated below any
    assigned partner that would block; that extension is the most stable
    one for the fixed assignment, so scoring the K = n(n-1)...(n-k+1)
    candidates finds the overall optimum. If every assignment is discarded
    the maximum is zero and the first extension is returned flagged. More
    than ``cap`` candidates K (None for no limit) raises ResourceLimitError
    before any is built.
    """
    uncertain = uncertain_agents(instance)
    sides = {agent.side for agent in uncertain}
    if len(sides) == 2:
        raise ValidationError("requires all uncertain agents on one side")
    if sides == {Side.WOMEN}:
        result = most_stable_constant_uncertain(instance.transposed(), cap=cap)
        return MostStableResult(
            matching=result.matching.transposed(),
            probability=result.probability,
            examined=result.examined,
            all_candidates_excluded=result.all_candidates_excluded,
        )
    completed, padding = complete_instance(instance)
    n = completed.n_men
    k = len(uncertain)
    if cap is not None and math.perm(n, k) > cap:
        raise ResourceLimitError(
            f"more than {cap} candidate assignments; raise the cap to proceed"
        )
    xs = sorted(agent.index for agent in uncertain)
    x_set = set(xs)
    certain_men = [m for m in range(n) if m not in x_set]
    men_orders = {
        m: certain_order(completed, AgentId(Side.MEN, m)) for m in certain_men
    }
    women_orders = [
        certain_order(completed, AgentId(Side.WOMEN, w)) for w in range(n)
    ]

    def run_sub_gs(assigned_women: set, truncate, proposing_side: Side):
        w_kept = [w for w in range(n) if w not in assigned_women]
        w_pos = {w: i for i, w in enumerate(w_kept)}
        m_pos = {m: i for i, m in enumerate(certain_men)}
        sub_men = tuple(
            LinearOrder(
                tuple(
                    w_pos[w]
                    for w in men_orders[m].ranking
                    if w in w_pos and not truncate(m, w)
                )
            )
            for m in certain_men
        )
        sub_women = tuple(
            LinearOrder(
                tuple(
                    m_pos[m]
                    for m in women_orders[w].ranking
                    if m in m_pos and not truncate(m, w)
                )
            )
            for w in w_kept
        )
        sub = gale_shapley(Profile(men=sub_men, women=sub_women), proposing_side)
        return [(certain_men[a], w_kept[b]) for a, b in sub.sorted_pairs()]

    def never(m: int, w: int) -> bool:
        return False

    best = None
    best_p: Fraction | None = None
    fallback = None
    examined = 0
    for assignment in itertools.permutations(range(n), k):
        examined += 1
        mu_x = dict(zip(xs, assignment))
        partner_y = {w: m for m, w in mu_x.items()}
        man_optimal = run_sub_gs(set(assignment), never, Side.MEN)
        extended = Matching.from_pairs(list(mu_x.items()) + man_optimal)
        if fallback is None:
            fallback = extended
        excluded = False
        for m in certain_men:
            partner_m = extended.partner_of_man(m)
            for w, x_man in partner_y.items():
                if men_orders[m].prefers_over_partner(
                    w, partner_m
                ) and women_orders[w].prefers(m, x_man):
                    excluded = True
                    break
            if excluded:
                break
        if excluded:
            continue

        def truncate(m: int, w_prime: int) -> bool:
            order_m = men_orders[m]
            for w, x_man in partner_y.items():
                if women_orders[w].prefers(m, x_man) and order_m.prefers(w, w_prime):
                    return True
            return False

        woman_optimal = run_sub_gs(set(assignment), truncate, Side.WOMEN)
        candidate = Matching.from_pairs(list(mu_x.items()) + woman_optimal)
        p = stability_probability(completed, candidate, cap=cap)
        if best_p is None or p > best_p:
            best, best_p = candidate, p
    if best is None:
        return MostStableResult(
            matching=restrict_matching(fallback, padding),
            probability=Fraction(0),
            examined=examined,
            all_candidates_excluded=True,
        )
    return MostStableResult(
        matching=restrict_matching(best, padding),
        probability=best_p,
        examined=examined,
    )
