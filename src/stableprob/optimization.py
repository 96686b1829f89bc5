"""Searching for a matching with the highest stability probability.

Both searches read the completed market once and let the exact engine score
only the candidates that can still win.

Brute force is a depth-first branch and bound over the perfect matchings of
the completed market. It assigns men 0..n-1 in turn, each trying the unused
women in ascending order, which is the order of ``itertools.permutations``.
The identity matching, the first leaf, is scored up front as the incumbent.
A later leaf replaces it only on strict improvement, and a partial matching
is pruned when an exact upper bound on all its completions is at most the
incumbent, so the first maximum in pair-sorted order wins, as in a plain
scan of all n! matchings, and ``examined`` still counts all of them. The
lottery bound reads only the pairs between assigned agents: a pair that
blocks in every order of one agent deletes the other agent's orders that
block with it (both: pruned outright), and the bound is the product of the
assigned agents' remaining mass. Compact and joint models are bounded by 1.

The polynomial path assumes all uncertainty sits on one side with a bounded
number of uncertain agents: it fixes their partners in every possible way,
extends each choice with a stability-optimal assignment of the certain
agents, computed by deferred acceptance on the certain agents' ranks, and
keeps the best scored candidate. Each path refuses up front when the
candidates it would score outnumber ``cap``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DEFAULT_CAP,
    AgentId,
    Matching,
    Side,
    deferred_acceptance,
)
from .errors import ResourceLimitError, ValidationError
from .models import (
    Instance,
    LotteryModel,
    certain_order,
    complete_instance,
    restrict_matching,
    uncertain_agents,
)
from .probability import (
    allowed_mass,
    delete_forced_picks,
    lottery_beats,
    scaled_weights,
    stability_probability,
)


@dataclass(frozen=True)
class MostStableResult:
    """Best matching found, its exact probability, and search bookkeeping.

    No search sets ``all_candidates_excluded``: some candidate of the
    constant-uncertain search always survives (see there). The field stays
    for the CLI's output format.
    """

    matching: Matching
    probability: Fraction
    examined: int
    all_candidates_excluded: bool = False


def _lottery_bound(instance: Instance):
    n = instance.n_men
    entries = instance.model.men + instance.model.women
    full = [(1 << len(entry.support)) - 1 for entry in entries]
    scales, numerators = scaled_weights([[w for _, w in e.support] for e in entries])
    tables: dict[tuple[int, int], dict[int, int]] = {}  # (agent, partner) -> beats
    masses: dict[tuple[int, int], int] = {}  # (agent, orders) -> scaled weight
    # per depth, each agent's orders that no pair between assigned agents
    # rules out on its own
    allowed = [full] * (n + 1)

    def beats(agent: int, partner: int, candidate: int) -> int:
        table = tables.get((agent, partner))
        if table is None:
            table = tables[agent, partner] = lottery_beats(entries[agent], partner)
        return table.get(candidate, 0)

    def new_pairs(m: int, women: list[int]):
        # the pairs man m's partner adds: him with each earlier man's
        # partner, and each earlier man with his partner
        w = women[m]
        for m2 in range(m):
            w2 = women[m2]
            for a, a_partner, b, b_partner in ((m, w, w2, m2), (m2, w2, w, m)):
                a_mask = beats(a, a_partner, b)
                b_mask = a_mask and beats(n + b, b_partner, a)
                if b_mask:
                    yield a, n + b, a_mask, b_mask

    def bound(m: int, women: list[int]) -> tuple[int, int]:
        mask = allowed[m][:]
        if delete_forced_picks(new_pairs(m, women), full, mask) is None:
            return 0, 1
        allowed[m + 1] = mask
        numerator = denominator = 1
        for agent in itertools.chain(range(m + 1), (n + x for x in women[: m + 1])):
            key = agent, mask[agent]
            mass = masses.get(key)
            if mass is None:
                mass = masses[key] = allowed_mass(numerators[agent], mask[agent])
            numerator *= mass
            denominator *= scales[agent]
        return numerator, denominator

    return bound


def _prefix_bound(instance: Instance):
    """``bound(m, women)``: with men 0..m matched to ``women[0..m]`` of the
    complete, square ``instance``, an exact upper bound (numerator,
    denominator) on the stability probability of every perfect matching
    that extends them, kept as integers because a Fraction per node costs
    a gcd. Calls come depth first: the call for man m > 0
    follows one for man m - 1 on the same prefix that was not pruned.
    Compact and joint models get the constant bound 1, which prunes only
    once some matching is certainly stable."""
    if isinstance(instance.model, LotteryModel):
        return _lottery_bound(instance)
    return lambda m, women: (1, 1)


def most_stable_brute_force(
    instance: Instance, cap: int | None = DEFAULT_CAP
) -> MostStableResult:
    """Most stable perfect matching of the completed market, by branch and bound.

    Completion never lowers the reachable maximum, so the restricted winner
    is a most stable matching of the original instance with the same
    probability. Ties go to the first matching in pair-sorted lexicographic
    order. ``examined`` is n!, pruned matchings included; only matchings the
    bound cannot rule out are scored, each with its own ``cap`` on search
    nodes. More than ``cap`` perfect matchings raises ResourceLimitError
    before any is scored.
    """
    completed, padding = complete_instance(instance)
    n = completed.n_men
    count = math.factorial(n)
    if cap is not None and count > cap:
        raise ResourceLimitError(
            f"more than {cap} perfect matchings; raise the cap to proceed"
        )
    identity = list(range(n))
    best = Matching.from_pairs(enumerate(identity))
    best_p = stability_probability(completed, best, cap=cap)
    bound = _prefix_bound(completed)
    women = [0] * n  # women[m]: man m's partner on the current path
    used = [False] * n
    next_woman = [0] * n
    m = 0 if n else -1  # the empty market's one matching is scored
    while m >= 0:
        w = next_woman[m]
        while w < n and used[w]:
            w += 1
        if w == n:  # every woman tried: back to the previous man
            if m:
                used[women[m - 1]] = False
            m -= 1
            continue
        next_woman[m] = w + 1
        women[m] = w
        numerator, denominator = bound(m, women)
        if numerator * best_p.denominator <= best_p.numerator * denominator:
            continue
        if m < n - 1:
            used[w] = True
            m += 1
            next_woman[m] = 0
        elif women != identity:
            matching = Matching.from_pairs(enumerate(women))
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
    candidates finds the overall optimum. Some assignment always survives:
    take a stable matching M of any realization; the proposer-optimal round
    on M's assignment leaves every certain man at least as well off as in
    M, so a certain pair that blocked the round would block M too. More
    than ``cap`` candidates K (None for no limit) raises ResourceLimitError
    before any is built. Uncertain women are handled on the transposed
    market.
    """
    uncertain = uncertain_agents(instance)
    sides = {agent.side for agent in uncertain}
    if len(sides) == 2:
        raise ValidationError("requires all uncertain agents on one side")
    flip = sides == {Side.WOMEN}
    if flip:
        instance = instance.transposed()
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
    men_lists = {
        m: certain_order(completed, AgentId(Side.MEN, m)).ranking for m in certain_men
    }
    men_rank = {m: {w: i for i, w in enumerate(men_lists[m])} for m in certain_men}
    women_lists = [
        certain_order(completed, AgentId(Side.WOMEN, w)).ranking for w in range(n)
    ]
    women_rank = [{m: i for i, m in enumerate(ranking)} for ranking in women_lists]

    best = None
    best_p: Fraction | None = None
    examined = 0
    for assignment in itertools.permutations(range(n), k):
        examined += 1
        fixed = list(zip(xs, assignment))
        partner_y = dict(zip(assignment, xs))  # assigned woman -> uncertain man
        held = deferred_acceptance(
            {m: [w for w in men_lists[m] if w not in partner_y] for m in certain_men},
            women_rank,
        )
        partner = {m: w for w, m in held.items()}  # perfect: the lists are complete
        # cut[m]: m's rank of his best assigned woman who prefers him to her
        # partner; a certain pair blocks when m holds a worse partner, and the
        # receiver-optimal round truncates his list there
        cut = {}
        for m in certain_men:
            rank = men_rank[m]
            cut[m] = min(
                (rank[w] for w, x in partner_y.items() if women_rank[w][m] < women_rank[w][x]),
                default=n,
            )
            if cut[m] < rank[partner[m]]:
                break
        else:
            held = deferred_acceptance(
                {
                    w: [m for m in women_lists[w] if m in cut and men_rank[m][w] < cut[m]]
                    for w in range(n)
                    if w not in partner_y
                },
                men_rank,
            )
            candidate = Matching.from_pairs(fixed + list(held.items()))
            p = stability_probability(completed, candidate, cap=cap)
            if best_p is None or p > best_p:
                best, best_p = candidate, p
    if best is None:
        raise RuntimeError("internal error: every candidate assignment was excluded")
    matching = restrict_matching(best, padding)
    return MostStableResult(
        matching=matching.transposed() if flip else matching,
        probability=best_p,
        examined=examined,
    )
