"""Searching for a matching with the highest stability probability.

Both searches run one depth-first branch and bound, ``_most_stable``, over
a list of men: each of the first k in turn tries the unused women in
ascending order, which is the order of ``itertools.permutations``, and the
men after them take the women that an ``extend`` rule gives for that
assignment, one try per depth. Brute force searches every man, and a leaf
is the perfect matching itself. The polynomial path assumes all
uncertainty sits on one side with a bounded number of uncertain agents: it
searches only those, and forces the certain agents' partners to a
stability-optimal extension, computed by deferred acceptance on their
ranks.

The incumbent starts at probability 0 with no matching. A full matching
replaces it only on strict improvement, and a prefix at any depth, forced
or not, is pruned when an exact upper bound on all its completions is at
most the incumbent, so only surviving matchings are scored and the first
maximum in ``permutations`` order wins, as in a plain scan; ``examined``
still counts every assignment of the first k. Some leaf always scores
above 0, so starting at 0 loses no maximum. The lottery bound reads only
the pairs between assigned agents: a pair that blocks in every order of
one agent deletes the other agent's orders that block with it (both:
pruned outright), and the bound is the product of the assigned agents'
remaining mass. Once every agent of a lottery market is assigned and no
pair on the path blocks in only some orders of both its agents, that
product is the matching's exact probability. One rule scores every full
matching: that record when it holds, else ``stability_probability``; a
``Matching`` is built only for the winner and for the matchings compiled.
A node fetches the two ``beats`` views of its own couple and reads those
of every earlier couple, and the rest of its state is one record per
depth. A node with no new pair reuses its parent's record and product; one
with new pairs recomputes the product over only the agents that have lost
orders, since every other factor is 1. No mass is memoized. The same rule
bounds compact markets, each agent taken as one pick: a pair whose two
``beats`` stances are both True blocks in every extension and bounds its
prefix by 0, and any other prefix is bounded by 1. Joint markets are
bounded by 1.

The polynomial path also bounds a prefix of uncertain men by 0 when a
certain pair blocks there. Down the depth-first path it keeps the certain
men's proposer-optimal round on the women not yet assigned, resumed from
the parent's round each time a woman is taken, unless the brute-force
bound already drops the prefix. Taking a woman away leaves every certain
man's proposer-optimal partner no better (Gale and Sotomayor, 1985), so a
certain man and an assigned woman who prefer each other to their partners
at a prefix do so at every leaf below it, and none of those leaves has a
stable extension. The forced tail is the receiver-optimal round on lists
truncated below any assigned partner that would block. At a full
assignment that survives, the proposer-optimal round is a perfect matching
inside those lists, so by the rural-hospitals theorem the receiver-optimal
one is perfect too, and the bound goes on over the forced couples like any
other; with the women certain no pair is two-sided, so a lottery leaf is
scored from its record. Each search refuses up front when its
assignments outnumber ``cap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .core import DEFAULT_CAP, Budget, Matching, Side, charge, deferred_acceptance
from .errors import ValidationError
from .models import (
    Instance,
    _certain_order,
    complete_instance,
    restrict_matching,
    uncertain_agents,
)
from .probability import allowed_mass, delete_forced_picks, stability_probability


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


def _lottery_bound(instance: Instance, men):
    """``(bound, exact)`` over the complete, square ``instance``.

    ``bound(d, women, incumbent)``: with ``men[0..d]`` matched to
    ``women[0..d]``, whether an exact upper bound on the stability
    probability of every perfect matching that extends them exceeds the
    Fraction ``incumbent``; the bound is kept as integers because a
    Fraction per node costs a gcd. Calls come depth first: the call for
    depth d > 0 follows one for depth d - 1 on the same prefix, whose bound
    exceeded the incumbent. A lottery agent's pick tables, numerators and
    scale are those its ``AgentLottery`` holds. A compact agent is one
    pick, so a ``WeakOrder.beats`` stance of True is its full mask and a
    tie (None) forms no pair: a pair with both stances True blocks in every
    extension and drops the prefix, and the bound is otherwise 1. A joint
    market is bounded by the constant 1.

    ``exact()``: after a call for the last depth of a lottery market
    returned True, the exact stability probability of the perfect matching
    that ``men`` and ``women`` make, or None when some pair on the path
    blocks in only some orders of both its agents (or the market is not a
    lottery). With every couple paired once and every forced deletion the
    one ``probability._compile`` makes, a path with no such pair compiles to
    no constraint, and the bound is the free product ``_count`` returns.

    A node fetches its own couple's two ``beats`` views and pairs them with
    every earlier couple's, kept per depth. The rest of its state is one
    record per depth: the orders each agent has left, the assigned agents
    that have lost some, the product of those agents' masses over that of
    their scales, and whether a pair that blocks in only some orders of
    both agents has been met. A node with no new pair takes its parent's
    record whole; one with new pairs copies the orders, deletes the forced
    picks and recomputes the product over its restricted agents. Any other
    agent's mass is its whole scale, a factor of 1, so the comparison with
    the incumbent is unchanged; no mass is memoized."""
    kind, n, entries = instance.kind, instance.n_men, instance.entries
    if kind == "joint":
        return (lambda d, women, incumbent: incumbent < 1), lambda: None
    full = [1 if kind == "compact" else (1 << len(e.support)) - 1 for e in entries]
    # per depth: its man, his partner, and their views against each other
    views = [None] * len(men)
    # per depth, for the prefix above it: each agent's orders that no pair
    # between assigned agents rules out on its own, the agents whose orders
    # are not all left, the product of their masses and of their scales,
    # and whether a two-sided pair has been met
    state = [(full, (), 1, 1, False)] + [None] * len(men)

    def bound(d: int, women: list[int], incumbent: Fraction) -> bool:
        # the pairs the man at depth d adds: him with each earlier man's
        # partner, and each earlier man with his partner
        m, w = men[d], women[d]
        his, hers = entries[m].beats(w), entries[n + w].beats(m)
        views[d] = m, w, his, hers
        pairs = []
        for m2, w2, his2, hers2 in views[:d]:
            if (a_mask := his.get(w2, 0)) and (b_mask := hers2.get(m, 0)):
                pairs.append((m, n + w2, a_mask, b_mask))
            if (a_mask := his2.get(w, 0)) and (b_mask := hers.get(m2, 0)):
                pairs.append((m2, n + w, a_mask, b_mask))
        state[d + 1] = state[d]
        if pairs:
            mask, cut, two_sided = state[d][0][:], state[d][1], state[d][4]
            kept = delete_forced_picks(pairs, full, mask)
            if kept is None:
                return False
            for pair in pairs:
                for agent in pair[:2]:
                    if mask[agent] != full[agent] and agent not in cut:
                        cut += (agent,)
            numerator = denominator = 1
            for agent in cut:
                numerator *= allowed_mass(entries[agent].numerators, mask[agent])
                denominator *= entries[agent].scale
            state[d + 1] = mask, cut, numerator, denominator, two_sided or bool(kept)
        numerator, denominator = state[d + 1][2:4]
        return numerator * incumbent.denominator > incumbent.numerator * denominator

    def exact() -> Fraction | None:
        _, _, numerator, denominator, two_sided = state[len(men)]
        if kind == "compact" or two_sided:
            return None
        return Fraction(numerator, denominator)

    return bound, exact


def _most_stable(completed: Instance, padding, men, k: int, bound, exact, extend, cap, what):
    """Branch and bound over the matchings of the complete, square
    ``completed`` in which ``men[:k]`` take distinct women and ``men[k:]``,
    the forced tail, take the women ``extend(women[:k])`` lists for them
    (``extend`` is None when k is every man). ``bound(d, women,
    incumbent)`` tells whether an exact upper bound on every matching below
    the prefix that matches ``men[0..d]`` to ``women[0..d]`` exceeds the
    best probability so far. It is called at every depth, forced ones
    included, depth first as ``_lottery_bound`` describes; a forced depth
    is tried once. One rule scores a full matching: ``exact()``, or
    ``stability_probability`` with its own ``cap`` on search nodes when
    that is None; it replaces the best only on strict improvement. Returns
    the first matching of maximal probability, restricted by ``padding``;
    a ``Matching`` is built only for it and for the matchings compiled.
    More than ``cap`` assignments of ``men[:k]``, counted as ``what``,
    raises ResourceLimitError before any is tried."""
    n = completed.n_men
    examined = math.perm(n, k)
    charge(Budget(cap, what), examined)
    best, best_p = None, Fraction(0)
    women = [0] * n  # women[d]: the partner of men[d] on the current path
    used = [False] * n
    next_woman = [0] * k
    d = 0
    while d >= 0:
        if d < k:
            w = next_woman[d]
            while w < n and used[w]:
                w += 1
            if w < n:
                next_woman[d] = w + 1
                women[d] = w
                if bound(d, women, best_p):
                    used[w] = True
                    d += 1
                continue
            next_woman[d] = 0  # every woman tried: back to the previous man
        else:
            if extend:
                women[k:] = extend(women[:k])
            # the forced tail: one try per depth, then the full matching
            if all(bound(tail, women, best_p) for tail in range(k, n)):
                p = exact()
                if p is None:
                    matching = Matching.from_pairs(zip(men, women))
                    p = stability_probability(completed, matching, cap=cap)
                if p > best_p:
                    best, best_p = women[:], p
        d -= 1
        if d >= 0:
            used[women[d]] = False
    if best is None:
        raise RuntimeError("internal error: no candidate scored above 0")
    matching = restrict_matching(Matching.from_pairs(zip(men, best)), padding)
    return MostStableResult(matching=matching, probability=best_p, examined=examined)


def most_stable_brute_force(
    instance: Instance, cap: int | None = DEFAULT_CAP
) -> MostStableResult:
    """Most stable perfect matching of the completed market, by branch and bound.

    Completion never lowers the reachable maximum, so the restricted winner
    is a most stable matching of the original instance with the same
    probability. Ties go to the first matching in pair-sorted lexicographic
    order. ``examined`` is n!, pruned matchings included; only matchings the
    bound cannot rule out are scored. A lottery leaf reads its probability
    from the bound's record unless a pair on its path blocks in only some
    orders of both agents; that leaf, and every compact or joint one, is
    scored by ``stability_probability`` with its own ``cap`` on search
    nodes. More than ``cap`` perfect matchings raises ResourceLimitError
    before any is scored.
    """
    completed, padding = complete_instance(instance)
    n = completed.n_men
    bound, exact = _lottery_bound(completed, range(n))
    return _most_stable(
        completed, padding, range(n), n, bound, exact, None, cap, "perfect matchings"
    )


def most_stable_constant_uncertain(
    instance: Instance, cap: int | None = DEFAULT_CAP
) -> MostStableResult:
    """Most stable matching when one side holds all the uncertainty.

    The K = n(n-1)...(n-k+1) injective assignments of the k uncertain
    agents to the other side are searched under the brute-force bound, and
    ``examined`` is K. Each prefix that bound keeps above the incumbent also
    keeps the proposer-optimal round of the certain men on the women it
    leaves, resumed from its parent's round, and is bounded by 0 when a
    certain man and an assigned woman block: she prefers him to her
    uncertain partner and he prefers her to his round partner. Removing
    women never improves a certain man's proposer-optimal partner, so the
    pair blocks at every leaf below, where no extension of the assignment
    is stable. A leaf's certain men are forced to the receiver-optimal
    round on lists truncated below any assigned partner that would block;
    that extension is the most stable one for the fixed assignment, so the
    best one scored is the overall optimum. It is perfect: the last
    prefix's proposer-optimal round is a perfect matching inside those
    lists, and by the rural-hospitals theorem every stable matching of
    them matches the same agents. The bound goes on over the forced
    couples, so it stops as soon as the leaf cannot exceed the incumbent,
    and a lottery leaf reads its probability from the bound's record: the
    women are certain, so every pair blocks outright or deletes orders.
    Compact and joint leaves are scored by ``stability_probability`` with
    its own ``cap`` on search nodes. Some leaf survives: take a stable
    matching M of any realization; the proposer-optimal rounds on the
    prefixes of M's assignment leave every certain man at least as well off
    as in M, so a certain pair that blocked one of them would block M too.
    More than ``cap`` assignments (None for no limit) raises
    ResourceLimitError before any is built. Uncertain women are handled on
    the transposed market.
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
    xs = sorted(agent.index for agent in uncertain)
    k = len(xs)
    x_set = set(xs)
    certain_men = [m for m in range(n) if m not in x_set]
    men = {m: _certain_order(completed, m) for m in certain_men}
    men_lists = {m: order.ranking for m, order in men.items()}
    men_rank = {m: order.rank for m, order in men.items()}
    # the completed market is square, so woman w has id n + w
    women = [_certain_order(completed, n + w) for w in range(n)]
    women_rank = [order.rank for order in women]
    # per depth d, for the prefix assignment[0..d-1] on the current path, one
    # record: the round (held woman -> certain man, each man's next position
    # on his list) and cut, where cut[m] is m's rank of his best assigned
    # woman who prefers him to her partner; m blocks with her while he holds
    # a worse woman, and the forced tail's receiver-optimal round truncates
    # his list there
    held, next_choice = {}, dict.fromkeys(certain_men, 0)
    deferred_acceptance(men_lists, women_rank, held, next_choice)
    rounds = [(held, next_choice, dict.fromkeys(certain_men, n))] + [None] * k
    lottery_bound, exact = _lottery_bound(completed, xs + certain_men)

    def bound(d: int, assignment: list[int], incumbent: Fraction) -> bool:
        if not lottery_bound(d, assignment, incumbent):
            return False  # dropped before its round is resumed
        if d >= k:
            return True  # a certain couple of the forced tail
        w, rank_w = assignment[d], women_rank[assignment[d]]
        held, next_choice, cut = map(dict, rounds[d])
        held.pop(w, None)
        deferred_acceptance(men_lists, women_rank, held, next_choice, assignment[: d + 1])
        x_rank = rank_w[xs[d]]
        for m in certain_men:
            if rank_w[m] < x_rank and men_rank[m][w] < cut[m]:
                cut[m] = men_rank[m][w]
        if any(cut[m] < men_rank[m][w2] for w2, m in held.items()):
            return False
        rounds[d + 1] = held, next_choice, cut
        return True

    def extend(assignment: list[int]) -> list[int]:
        cut = rounds[k][2]
        held = deferred_acceptance(
            {
                w: [m for m in women[w].ranking if m in cut and men_rank[m][w] < cut[m]]
                for w in range(n)
                if w not in assignment
            },
            men_rank,
        )
        return [held[m] for m in certain_men]

    result = _most_stable(
        completed, padding, xs + certain_men, k, bound, exact, extend, cap,
        "candidate assignments",
    )
    if flip:
        result = replace(result, matching=result.matching.transposed())
    return result
