"""Shared test plumbing: tiny builders, naive oracles, random generators.

The oracles here deliberately recompute things from the definitions with
dumb loops so the package's cleverer routines have something independent
to agree with.
"""

from __future__ import annotations

import copy
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

from stableprob import (
    AgentId,
    AgentLottery,
    CompactModel,
    Instance,
    JointModel,
    LinearOrder,
    LotteryModel,
    Matching,
    MostStableResult,
    PartialOrder,
    ProbabilityEstimate,
    Profile,
    Side,
    SmpInstance,
    TwoSatInstance,
    ValidationError,
    WeakOrder,
    agent_support,
    as_probability,
    certain_order,
    complete_instance,
    gale_shapley,
    is_stable,
    restrict_matching,
    side_is_certain,
    stability_probability,
    uncertain_agents,
)


# -- builders ----------------------------------------------------------------


def order(*ranking: int) -> LinearOrder:
    return LinearOrder(tuple(ranking))


def certain(*ranking: int) -> AgentLottery:
    return AgentLottery.certain(order(*ranking))


def lottery(*entries) -> AgentLottery:
    # entries: (ranking tuple, weight) pairs
    return AgentLottery(
        tuple((order(*ranking), Fraction(weight)) for ranking, weight in entries)
    )


def lottery_instance(men, women) -> Instance:
    return Instance(LotteryModel(men=tuple(men), women=tuple(women)))


def compact_instance(men_tiers, women_tiers) -> Instance:
    def build(tiers_list):
        return tuple(
            WeakOrder(tuple(tuple(tier) for tier in tiers)) for tiers in tiers_list
        )

    return Instance(CompactModel(men=build(men_tiers), women=build(women_tiers)))


def joint_instance(entries) -> Instance:
    # entries: ((men rankings, women rankings), weight) pairs
    profiles = []
    for (men, women), weight in entries:
        profile = Profile(
            men=tuple(order(*r) for r in men),
            women=tuple(order(*r) for r in women),
        )
        profiles.append((profile, Fraction(weight)))
    return Instance(JointModel(tuple(profiles)))


def example_market() -> Instance:
    """The running 2x2 market: one flaky man, one flaky woman."""
    men = (
        lottery(((0, 1), "2/5"), ((1, 0), "3/5")),
        certain(1, 0),
    )
    women = (
        certain(0, 1),
        lottery(((0, 1), "4/5"), ((1, 0), "1/5")),
    )
    return lottery_instance(men, women)


MU_IDENTITY = Matching.from_pairs([(0, 0), (1, 1)])
MU_SWAP = Matching.from_pairs([(0, 1), (1, 0)])


# -- naive oracles -----------------------------------------------------------


def naive_has_block(men_orders, women_orders, matching: Matching) -> bool:
    """Quadratic blocking-pair scan straight from the definition."""
    for m, om in enumerate(men_orders):
        for w in om.ranking:
            if m not in women_orders[w].rank:
                continue
            if matching.partner_of_man(m) == w:
                continue
            pm = matching.partner_of_man(m)
            pw = matching.partner_of_woman(w)
            m_wants = pm is None or om.rank[w] < om.rank[pm]
            w_wants = pw is None or women_orders[w].rank[m] < women_orders[w].rank[pw]
            if m_wants and w_wants:
                return True
    return False


def exhaustive_probability(instance: Instance, matching: Matching) -> Fraction:
    """Sum the weight of every realization where the matching survives."""
    if instance.kind == "joint":
        return sum(
            (
                weight
                for profile, weight in instance.model.profiles
                if not naive_has_block(profile.men, profile.women, matching)
            ),
            Fraction(0),
        )
    men_supports = [
        agent_support(instance, AgentId(Side.MEN, m)) for m in range(instance.n_men)
    ]
    women_supports = [
        agent_support(instance, AgentId(Side.WOMEN, w)) for w in range(instance.n_women)
    ]
    total = Fraction(0)
    for men_pick in product(*men_supports):
        men_orders = [o for o, _ in men_pick]
        men_weight = math.prod((p for _, p in men_pick), start=Fraction(1))
        for women_pick in product(*women_supports):
            if naive_has_block(men_orders, [o for o, _ in women_pick], matching):
                continue
            total += men_weight * math.prod(
                (p for _, p in women_pick), start=Fraction(1)
            )
    return total


def reference_stable_matchings(profile: Profile) -> list[Matching]:
    """Every partial matching of mutually acceptable pairs, filtered for
    stability and sorted by pair list: the stable set by brute force."""
    results = []
    for k in range(min(profile.n_men, profile.n_women) + 1):
        for men_subset in combinations(range(profile.n_men), k):
            for women_perm in permutations(range(profile.n_women), k):
                pairs = tuple(zip(men_subset, women_perm))
                if not all(
                    profile.men[m].accepts(w) and profile.women[w].accepts(m)
                    for m, w in pairs
                ):
                    continue
                matching = Matching.from_pairs(pairs)
                if not naive_has_block(profile.men, profile.women, matching):
                    results.append(matching)
    results.sort(key=Matching.sorted_pairs)
    return results


def truth_table_count(formula: TwoSatInstance) -> int:
    """Model count by enumerating all assignments."""
    count = 0
    for bits in range(1 << formula.num_variables):
        if all(
            ((bits >> v1) & 1 == p1) or ((bits >> v2) & 1 == p2)
            for (v1, p1), (v2, p2) in formula.clauses
        ):
            count += 1
    return count


# -- reference 2-SAT solver ---------------------------------------------------
#
# The solver's earlier Tarjan loop, which keeps (node, next edge index) on
# its work stack and an explicit on-stack flag per node, and the literal
# numbering it was called with.


def reference_tarjan_scc(graph: list[list[int]]) -> list[int]:
    """Component ids in reverse topological order (sinks get smaller ids)."""
    n = len(graph)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    comp_count = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, edge_i = work[-1]
            if edge_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            if edge_i < len(graph[node]):
                work[-1] = (node, edge_i + 1)
                child = graph[node][edge_i]
                if index[child] == -1:
                    work.append((child, 0))
                elif on_stack[child]:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if low[node] == index[node]:
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        comp[member] = comp_count
                        if member == node:
                            break
                    comp_count += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return comp


def reference_solve_2sat(formula: TwoSatInstance) -> list[bool] | None:
    """``solve_2sat`` over ``reference_tarjan_scc``."""
    n = formula.num_variables
    graph: list[list[int]] = [[] for _ in range(2 * n)]

    def node(variable: int, polarity: bool) -> int:
        return 2 * variable + (0 if polarity else 1)

    for (v1, p1), (v2, p2) in formula.clauses:
        graph[node(v1, not p1)].append(node(v2, p2))
        graph[node(v2, not p2)].append(node(v1, p1))
    comp = reference_tarjan_scc(graph)
    assignment = []
    for variable in range(n):
        positive, negative = comp[2 * variable], comp[2 * variable + 1]
        if positive == negative:
            return None
        assignment.append(positive < negative)
    return assignment


def random_graph(rng, max_nodes: int, max_edges: int) -> list[list[int]]:
    """A random digraph as adjacency lists, self-loops, repeated edges and
    isolated nodes allowed; it may have no node at all."""
    n = rng.randint(0, max_nodes)
    graph: list[list[int]] = [[] for _ in range(n)]
    for _ in range(rng.randint(0, max_edges) if n else 0):
        graph[rng.randrange(n)].append(rng.randrange(n))
    return graph


# -- reference tie test --------------------------------------------------------


def reference_strictly_prefers(weak: WeakOrder, candidate: int, partner) -> bool:
    """Strict preference of ``candidate`` over the partner (None: unmatched)
    under a weak order, as ``WeakOrder`` once tested it."""
    pos = weak.tier_of.get(candidate)
    if pos is None:
        return False
    return partner is None or pos < weak.tier_of[partner]


# -- reference clause reduction ----------------------------------------------
#
# The count2sat gadget's earlier clause reduction, kept as an oracle for the
# table of vetoed cells: clauses as tagged unit and binary tuples, grouped by
# variable pair afresh on every round.


def reference_normalize_clause(literals):
    """Classify as a unit or an ordered binary clause; None for tautologies."""
    (v1, p1), (v2, p2) = literals
    if v1 == v2:
        if p1 == p2:
            return "unit", (v1, p1)
        return None
    first, second = sorted([(v1, p1), (v2, p2)])
    return "binary", (first, second)


def reference_simplify_formula(formula: TwoSatInstance, fired=None):
    """Reduce to at most one clause per variable pair, preserving the count.

    Returns (units, binary clauses, eliminated variables). ``fired``, a
    ``Counter`` if given, counts the rules applied: "line" (a unit),
    "diagonal" (a substitution), "pin" and "contradiction".
    """
    fired = Counter() if fired is None else fired
    units = set()
    binaries = set()
    for clause in formula.clauses:
        normalized = reference_normalize_clause(clause)
        if normalized is None:
            continue
        kind, payload = normalized
        if kind == "unit":
            units.add(payload)
        else:
            binaries.add(payload)
    removed = set()

    def substitute(target: int, source: int, same_sign: bool) -> None:
        removed.add(target)

        def rewrite(literal):
            var, pol = literal
            if var != target:
                return literal
            return (source, pol if same_sign else not pol)

        for literal in sorted(units):
            units.discard(literal)
            units.add(rewrite(literal))
        for clause in sorted(binaries):
            binaries.discard(clause)
            normalized = reference_normalize_clause([rewrite(lit) for lit in clause])
            if normalized is None:
                continue
            kind, payload = normalized
            if kind == "unit":
                units.add(payload)
            else:
                binaries.add(payload)

    while True:
        by_pair = {}
        for clause in binaries:
            (u, _), (v, _) = clause
            by_pair.setdefault((u, v), []).append(clause)
        crowded = sorted(pair for pair, group in by_pair.items() if len(group) >= 2)
        if not crowded:
            break
        u, v = crowded[0]
        group = by_pair[(u, v)]
        binaries.difference_update(group)
        # each clause forbids exactly one cell (u value, v value) of the grid
        vetoed = {(not pu, not pv) for (_, pu), (_, pv) in group}
        if len(vetoed) == 2:
            (a1, b1), (a2, b2) = sorted(vetoed)
            if a1 == a2:
                fired["line"] += 1
                units.add((u, not a1))
            elif b1 == b2:
                fired["line"] += 1
                units.add((v, not b1))
            else:
                fired["diagonal"] += 1
                substitute(v, u, same_sign=(True, True) not in vetoed)
        elif len(vetoed) == 3:
            fired["pin"] += 1
            ((a, b),) = {
                (x, y) for x in (False, True) for y in (False, True)
            } - vetoed
            units.add((u, a))
            units.add((v, b))
        else:
            fired["contradiction"] += 1
            units.add((u, True))
            units.add((u, False))
    return units, binaries, removed


# -- reference engines -------------------------------------------------------
#
# The package's earlier exact engine, nonzero search and one-side closed
# forms, kept as slow references: hashed AgentId keys, one recursive search
# over all constrained agents in a single global order, and direct per-woman
# products. They reach sizes the exhaustive oracle cannot.


def reference_beats(entry: AgentLottery, partner: int | None) -> dict[int, int]:
    """``AgentLottery.beats`` from the orders alone: per candidate, the
    orders that prefer it to ``partner``, as a bitmask; absent when none."""
    table = {}
    for i, (o, _) in enumerate(entry.support):
        for candidate in o.ranking:
            if o.prefers_over_partner(candidate, partner):
                table[candidate] = table.get(candidate, 0) | 1 << i
    return table


def _reference_pair_masks(instance: Instance, matching: Matching, supports):
    for m in range(instance.n_men):
        partner_m = matching.partner_of_man(m)
        man = AgentId(Side.MEN, m)
        for w in sorted(instance.acceptable_men[m]):
            if partner_m == w:
                continue
            a_mask = 0
            for i, (o, _) in enumerate(supports[man]):
                if o.prefers_over_partner(w, partner_m):
                    a_mask |= 1 << i
            if not a_mask:
                continue
            woman = AgentId(Side.WOMEN, w)
            partner_w = matching.partner_of_woman(w)
            b_mask = 0
            for j, (o, _) in enumerate(supports[woman]):
                if o.prefers_over_partner(m, partner_w):
                    b_mask |= 1 << j
            if b_mask:
                yield man, woman, a_mask, b_mask


def _reference_structure(instance: Instance, matching: Matching):
    """(agents, supports, allowed, adjacency, search order), or None when a
    pair blocks outright or empties an agent's allowed picks."""
    agents = tuple(instance.agents())
    supports = {agent: agent_support(instance, agent) for agent in agents}
    allowed = {agent: (1 << len(supports[agent])) - 1 for agent in agents}
    adjacency = {agent: [] for agent in agents}
    masks = _reference_pair_masks(instance, matching, supports)
    for man, woman, a_mask, b_mask in masks:
        full_a = a_mask == (1 << len(supports[man])) - 1
        full_b = b_mask == (1 << len(supports[woman])) - 1
        if full_a and full_b:
            return None
        if full_a:
            allowed[woman] &= ~b_mask
        elif full_b:
            allowed[man] &= ~a_mask
        else:
            adjacency[man].append((woman, a_mask, b_mask))
            adjacency[woman].append((man, b_mask, a_mask))
    if any(not bits for bits in allowed.values()):
        return None
    order = [agent for agent in agents if adjacency[agent]]
    order.sort(key=lambda a: (-len(adjacency[a]), a.side.value, a.index))
    return agents, supports, allowed, adjacency, order


def _reference_conflict(adjacency, assigned, agent, i) -> bool:
    return any(
        my_mask >> i & 1 and other in assigned and other_mask >> assigned[other] & 1
        for other, my_mask, other_mask in adjacency[agent]
    )


def reference_exact_probability(instance: Instance, matching: Matching) -> Fraction:
    """Recursive pruned search over the uncertain agents' picks (independent models)."""
    structure = _reference_structure(instance, matching)
    if structure is None:
        return Fraction(0)
    agents, supports, allowed, adjacency, order = structure
    free = Fraction(1)
    for agent in agents:
        if not adjacency[agent]:
            bits = allowed[agent]
            free *= sum(
                (wt for i, (_, wt) in enumerate(supports[agent]) if bits >> i & 1),
                Fraction(0),
            )
    assigned = {}

    def search(depth: int) -> Fraction:
        if depth == len(order):
            return Fraction(1)
        agent = order[depth]
        total = Fraction(0)
        for i, (_, weight) in enumerate(supports[agent]):
            if not allowed[agent] >> i & 1:
                continue
            if _reference_conflict(adjacency, assigned, agent, i):
                continue
            assigned[agent] = i
            total += weight * search(depth + 1)
            del assigned[agent]
        return total

    return free * search(0)


def reference_search_size(instance: Instance, matching: Matching) -> int:
    """Leaves the reference search may visit: the product of the constrained
    agents' allowed pick counts (1 when a pair blocks outright)."""
    structure = _reference_structure(instance, matching)
    if structure is None:
        return 1
    _, _, allowed, _, order = structure
    return math.prod(allowed[agent].bit_count() for agent in order)


def reference_first_witness(instance: Instance, matching: Matching) -> Profile | None:
    """The first blocking-free realization along one global search order.

    Constrained agents are placed by descending degree, men before women,
    then by index, each trying its allowed picks in support order; every
    other agent takes its first allowed pick. None when there is no such
    realization (lottery instances).
    """
    structure = _reference_structure(instance, matching)
    if structure is None:
        return None
    agents, supports, allowed, adjacency, order = structure
    assigned = {
        a: (allowed[a] & -allowed[a]).bit_length() - 1
        for a in agents
        if not adjacency[a]
    }

    def search(depth: int) -> bool:
        if depth == len(order):
            return True
        agent = order[depth]
        for i in range(len(supports[agent])):
            if not allowed[agent] >> i & 1:
                continue
            if _reference_conflict(adjacency, assigned, agent, i):
                continue
            assigned[agent] = i
            if search(depth + 1):
                return True
            del assigned[agent]
        return False

    if not search(0):
        return None

    def orders(side: Side, count: int):
        return tuple(
            supports[AgentId(side, k)][assigned[AgentId(side, k)]][0]
            for k in range(count)
        )

    return Profile(
        men=orders(Side.MEN, instance.n_men), women=orders(Side.WOMEN, instance.n_women)
    )


def reference_lottery_one_side(instance: Instance, matching: Matching) -> Fraction:
    """Per-woman product for lotteries with the men certain (transposing if needed)."""
    if all(len(entry.support) == 1 for entry in instance.model.men):
        pass
    elif all(len(entry.support) == 1 for entry in instance.model.women):
        instance = instance.transposed()
        matching = matching.transposed()
    else:
        raise ValueError("requires one certain side")
    men_orders = [entry.support[0][0] for entry in instance.model.men]
    result = Fraction(1)
    for w, entry in enumerate(instance.model.women):
        partner_w = matching.partner_of_woman(w)
        interested = [
            m
            for m in sorted(instance.acceptable_women[w])
            if men_orders[m].prefers_over_partner(w, matching.partner_of_man(m))
        ]
        if not interested:
            continue
        if partner_w is None:
            return Fraction(0)
        result *= sum(
            (
                weight
                for o, weight in entry.support
                if not any(o.prefers(m, partner_w) for m in interested)
            ),
            Fraction(0),
        )
    return result


def reference_compact_one_side(instance: Instance, matching: Matching) -> Fraction:
    """Closed form for compact instances where one side is strict.

    An interested man in a strictly better tier than a woman's partner blocks
    in every extension; k interested men tied with the partner leave her a
    1/(k+1) chance of drawing the partner first.
    """
    if side_is_certain(instance, Side.MEN):
        pass
    elif side_is_certain(instance, Side.WOMEN):
        instance = instance.transposed()
        matching = matching.transposed()
    else:
        raise ValueError("requires one strict side")
    model = instance.model
    men_orders = [
        certain_order(instance, AgentId(Side.MEN, m)) for m in range(instance.n_men)
    ]
    result = Fraction(1)
    for w in range(instance.n_women):
        partner_w = matching.partner_of_woman(w)
        interested = [
            m
            for m in sorted(instance.acceptable_women[w])
            if men_orders[m].prefers_over_partner(w, matching.partner_of_man(m))
        ]
        if not interested:
            continue
        if partner_w is None:
            return Fraction(0)
        tier_of = model.women[w].tier_of
        partner_tier = tier_of[partner_w]
        if any(tier_of[m] < partner_tier for m in interested):
            return Fraction(0)
        tied = sum(1 for m in interested if tier_of[m] == partner_tier)
        if tied:
            result *= Fraction(1, tied + 1)
    return result


def reference_pick_thresholds(weights) -> list[float]:
    """The pick rule's earlier function: running float sums of the weights,
    the last one dropped."""
    cumulative = 0.0
    thresholds = []
    for weight in weights:
        cumulative += float(weight)
        thresholds.append(cumulative)
    return thresholds[:-1]


def _reference_pick(rng: random.Random, entries) -> int:
    roll = rng.random()
    cumulative = 0.0
    for i, (_, weight) in enumerate(entries):
        cumulative += float(weight)
        if roll < cumulative:
            return i
    return len(entries) - 1


def reference_sample_profile(instance: Instance, rng: random.Random) -> Profile:
    """The sampler's earlier code: pick and tie-break agent by agent."""
    model = instance.model
    if isinstance(model, JointModel):
        return model.profiles[_reference_pick(rng, model.profiles)][0]
    if isinstance(model, LotteryModel):
        orders = tuple(
            e.support[_reference_pick(rng, e.support)][0]
            for e in model.men + model.women
        )
    else:
        orders = tuple(
            LinearOrder(
                tuple(c for tier in weak.tiers for c in rng.sample(tier, len(tier)))
            )
            for weak in model.men + model.women
        )
    return Profile(men=orders[: instance.n_men], women=orders[instance.n_men :])


def reference_estimate(
    instance: Instance, matching: Matching, epsilon, delta, rng: random.Random
) -> ProbabilityEstimate:
    """The estimator's earlier loop: build each sampled profile, test it whole."""
    eps, err = Fraction(epsilon), Fraction(delta)
    samples = math.ceil(Fraction(math.log(2 / float(err))) / (2 * eps * eps))
    hits = sum(
        1
        for _ in range(samples)
        if is_stable(reference_sample_profile(instance, rng), matching)
    )
    return ProbabilityEstimate(Fraction(hits, samples), eps, err, samples)


# -- reference certainly-preferred route ---------------------------------------


def reference_certainly_preferred(instance: Instance, agent: AgentId) -> PartialOrder:
    """The relation built the earlier way: the pair set of every distinct
    order, intersected (compact agents compare tiers pair by pair)."""
    candidates = instance.acceptable(agent)
    model = instance.model
    if isinstance(model, CompactModel):
        weak = (model.men if agent.side is Side.MEN else model.women)[agent.index]
        pairs = frozenset(
            (a, b)
            for a in candidates
            for b in candidates
            if weak.tier_of[a] < weak.tier_of[b]
        )
        return PartialOrder(candidates, pairs)
    if isinstance(model, LotteryModel):
        orders = [o for o, _ in agent_support(instance, agent)]
    else:
        orders = list(dict.fromkeys(p.order_of(agent) for p, _ in model.profiles))

    def above(o: LinearOrder) -> set:
        r = o.ranking
        return {(r[i], r[j]) for i in range(len(r)) for j in range(i + 1, len(r))}

    pairs = above(orders[0])
    for o in orders[1:]:
        pairs &= above(o)
    return PartialOrder(candidates, frozenset(pairs))


def reference_smp(instance: Instance) -> SmpInstance:
    """Every agent's materialized relation, as ``smp_from_instance`` built it."""
    return SmpInstance(
        men=tuple(
            reference_certainly_preferred(instance, AgentId(Side.MEN, m))
            for m in range(instance.n_men)
        ),
        women=tuple(
            reference_certainly_preferred(instance, AgentId(Side.WOMEN, w))
            for w in range(instance.n_women)
        ),
    )


def reference_very_weakly_blocking(
    smp: SmpInstance, matching: Matching, man: int, woman: int
) -> bool:
    """Neither member has the partner in a materialized pair set above the other."""
    if woman not in smp.men[man].candidates:
        return False
    pm = matching.partner_of_man(man)
    if pm is not None and (pm, woman) in smp.men[man].strictly_before:
        return False
    pw = matching.partner_of_woman(woman)
    return pw is None or (pw, man) not in smp.women[woman].strictly_before


def reference_is_certainly_stable(smp: SmpInstance, matching: Matching) -> bool:
    return not any(
        reference_very_weakly_blocking(smp, matching, m, w)
        for m in range(smp.n_men)
        for w in sorted(smp.men[m].candidates)
        if matching.partner_of_man(m) != w
    )


def reference_closure(smp: SmpInstance) -> list[set[int]]:
    """Each man's list at the fixpoint of the proposal-and-deletion closure,
    recomputing every man's maximal women on every pass."""
    men_lists = [set(order.candidates) for order in smp.men]
    women_lists = [set(order.candidates) for order in smp.women]

    def delete(m: int, w: int) -> None:
        men_lists[m].discard(w)
        women_lists[w].discard(m)

    changed = True
    while changed:
        proposing = True
        while proposing:
            proposing = False
            for m in range(smp.n_men):
                for w in smp.men[m].maximal(men_lists[m]):
                    worse = [
                        m2 for m2 in women_lists[w] if smp.women[w].prefers(m, m2)
                    ]
                    for m2 in worse:
                        delete(m2, w)
                        proposing = True
        changed = False
        engaged: dict[int, list[int]] = {}
        for m in range(smp.n_men):
            for w in smp.men[m].maximal(men_lists[m]):
                engaged.setdefault(w, []).append(m)
        for w, suitors in engaged.items():
            if len(suitors) >= 2:
                for m in suitors:
                    delete(m, w)
                    changed = True
    return men_lists


def _reference_blocked(smp: SmpInstance, matching: Matching) -> bool:
    """True iff some unmatched pair very weakly blocks ``matching``."""
    return any(
        reference_very_weakly_blocking(smp, matching, m, w)
        for m, his in enumerate(smp.men)
        for w in his.candidates
        if matching.partner_of_man(m) != w
    )


def reference_super_stable_smp(smp: SmpInstance) -> Matching | None:
    """The closure's engagement set if every man keeps at most one maximal
    woman and no pair very weakly blocks it, checked pair by pair; else None."""
    men_lists = reference_closure(smp)
    pairs = []
    for m in range(smp.n_men):
        maximals = smp.men[m].maximal(men_lists[m])
        if len(maximals) >= 2:
            return None
        if maximals:
            pairs.append((m, maximals[0]))
    candidate = Matching.from_pairs(pairs)
    return None if _reference_blocked(smp, candidate) else candidate


# -- reference JSON ingest -----------------------------------------------------

_JSON_MODELS = ("lottery", "compact", "joint")
_JSON_KEYS = {"model", "men", "women", "preferences", "designated_matching"}


def _json_names(value, label: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise ValidationError(f"'{label}' must be an array of strings")
    return tuple(value)


def _json_require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _json_candidates(order_names, label: str, index_of) -> set[int]:
    _json_require(
        isinstance(order_names, list)
        and all(isinstance(n, str) for n in order_names),
        f"{label} must be an array of names",
    )
    try:  # runs once per support order: format the message only on failure
        indices = [index_of[name] for name in order_names]
    except KeyError as missing:
        name = missing.args[0]
        raise ValidationError(f"{label} references unknown agent '{name}'") from None
    _json_require(len(set(indices)) == len(indices), f"{label} repeats an agent")
    return set(indices)


def _json_listings(model: str, preferences, names, index_of, profiles=None):
    """Candidate set each agent lists, before the mutual intersection."""
    listings = {}
    for name in names:
        label = f"preferences of '{name}'"
        if model == "joint":
            # every profile's names are checked; the first one's set is kept
            listings[name] = [
                _json_candidates(profile["orders"][name], label, index_of)
                for profile in profiles
            ][0]
        elif model == "compact":
            entry = preferences[name]
            _json_require(
                isinstance(entry, dict) and set(entry) == {"tiers"},
                f"{label} must be an object with a 'tiers' array",
            )
            tiers = entry["tiers"]
            _json_require(isinstance(tiers, list), f"{label} 'tiers' must be an array")
            flat: list[str] = []
            for tier in tiers:
                _json_require(isinstance(tier, list), f"{label} tiers must be arrays")
                flat.extend(tier)
            listings[name] = _json_candidates(flat, label, index_of)
        else:
            entry = preferences[name]
            _json_require(
                isinstance(entry, list) and entry,
                f"{label} must be a nonempty array of support orders",
            )
            first = None
            for item in entry:
                _json_require(
                    isinstance(item, dict) and set(item) == {"order", "p"},
                    f"{label} entries must be objects with 'order' and 'p'",
                )
                candidates = _json_candidates(item["order"], label, index_of)
                if first is None:
                    first = candidates
                else:
                    _json_require(
                        candidates == first,
                        f"support orders of '{name}' must rank the same candidates",
                    )
            listings[name] = first
    return listings


def reference_instance_from_json(data):
    """The two-pass parser: every listing is resolved once to learn
    acceptability and again to build the model."""
    _json_require(isinstance(data, dict), "instance must be a JSON object")
    unknown = set(data) - _JSON_KEYS
    _json_require(not unknown, f"unknown instance fields: {sorted(unknown)}")
    for key in ("model", "men", "women", "preferences"):
        _json_require(key in data, f"instance is missing the '{key}' field")
    model = data["model"]
    _json_require(
        model in _JSON_MODELS, f"'model' must be one of {list(_JSON_MODELS)}"
    )
    men_names = _json_names(data["men"], "men")
    women_names = _json_names(data["women"], "women")
    all_names = men_names + women_names
    _json_require(
        len(set(all_names)) == len(all_names),
        "agent names must be unique across both sides",
    )
    man_of = {name: i for i, name in enumerate(men_names)}
    woman_of = {name: i for i, name in enumerate(women_names)}

    preferences = data["preferences"]
    _json_require(isinstance(preferences, dict), "'preferences' must be an object")
    profiles = None
    if model == "joint":
        _json_require(
            set(preferences) == {"profiles"},
            "joint 'preferences' must be an object with a 'profiles' array",
        )
        profiles = preferences["profiles"]
        _json_require(
            isinstance(profiles, list) and profiles,
            "'profiles' must be a nonempty array",
        )
        for item in profiles:
            _json_require(
                isinstance(item, dict) and set(item) == {"p", "orders"},
                "profiles must be objects with 'p' and 'orders'",
            )
            _json_require(
                isinstance(item["orders"], dict)
                and set(item["orders"]) == set(all_names),
                "each profile must list orders for every agent exactly once",
            )
    else:
        _json_require(
            set(preferences) == set(all_names),
            "'preferences' must list every agent exactly once",
        )

    men_raw = _json_listings(model, preferences, men_names, woman_of, profiles)
    women_raw = _json_listings(
        model, preferences, women_names, man_of, profiles
    )
    men_mutual = {
        name: {
            w
            for w in men_raw[name]
            if man_of[name] in women_raw[women_names[w]]
        }
        for name in men_names
    }
    women_mutual = {
        name: {
            m
            for m in women_raw[name]
            if woman_of[name] in men_raw[men_names[m]]
        }
        for name in women_names
    }

    def filtered_order(order_names, index_of, keep: set[int]) -> LinearOrder:
        ranking = tuple(
            index_of[n] for n in order_names if index_of[n] in keep
        )
        return LinearOrder(ranking)

    def build_lottery(name, index_of, keep) -> AgentLottery:
        support = tuple(
            (
                filtered_order(item["order"], index_of, keep),
                _json_weight(item["p"], f"weight in preferences of '{name}'"),
            )
            for item in preferences[name]
        )
        return AgentLottery(support)

    def build_weak(name, index_of, keep) -> WeakOrder:
        tiers = []
        for tier in preferences[name]["tiers"]:
            filtered = tuple(index_of[n] for n in tier if index_of[n] in keep)
            if filtered:
                tiers.append(filtered)
        return WeakOrder(tuple(tiers))

    if model == "lottery":
        payload = LotteryModel(
            men=tuple(
                build_lottery(n, woman_of, men_mutual[n]) for n in men_names
            ),
            women=tuple(
                build_lottery(n, man_of, women_mutual[n]) for n in women_names
            ),
        )
    elif model == "compact":
        payload = CompactModel(
            men=tuple(build_weak(n, woman_of, men_mutual[n]) for n in men_names),
            women=tuple(build_weak(n, man_of, women_mutual[n]) for n in women_names),
        )
    else:
        entries = []
        for item in profiles:
            orders = item["orders"]
            profile = Profile(
                men=tuple(
                    filtered_order(orders[n], woman_of, men_mutual[n])
                    for n in men_names
                ),
                women=tuple(
                    filtered_order(orders[n], man_of, women_mutual[n])
                    for n in women_names
                ),
            )
            entries.append((profile, _json_weight(item["p"], "profile weight")))
        payload = JointModel(profiles=tuple(entries))
    return Instance(payload), men_names, women_names


def _json_weight(value, label: str) -> Fraction:
    try:
        return as_probability(value)
    except ValidationError as exc:
        raise ValidationError(f"{label}: {exc}") from exc


# -- document mutation ---------------------------------------------------------

FUZZ_VALUES = [
    None, True, False, 0, 1, -1, 2, 0.5, "", "m0", "w1", "m9", "1/2", "1/0", "x",
    [], {}, ["m0"], ["w0", "m0"], {"m0": 1}, {"order": []}, {"tiers": "w0"},
]


def _containers(node, out):
    if isinstance(node, (dict, list)):
        out.append(node)
        for child in node.values() if isinstance(node, dict) else node:
            _containers(child, out)
    return out


def mutate_document(rng: random.Random, document):
    """A copy of ``document`` with one to three random edits: values set,
    appended or deleted, or a subtree copied from elsewhere."""
    document = copy.deepcopy(document)
    for _ in range(rng.randint(1, 3)):
        parent = rng.choice(_containers(document, []))
        keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
        action = rng.random()
        if not keys or action < 0.1:
            value = copy.deepcopy(rng.choice(FUZZ_VALUES))
            if isinstance(parent, dict):
                parent[rng.choice(["", "p", "pairs", "order", "m0", "model"])] = value
            else:
                parent.append(value)
            continue
        key = rng.choice(keys)
        if action < 0.25:
            del parent[key]
        elif action < 0.35:
            # a subtree from elsewhere in the document
            parent[key] = copy.deepcopy(rng.choice(_containers(document, [])))
        else:
            parent[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))
    return document


# -- random generators -------------------------------------------------------


# -- most-stable oracles ------------------------------------------------------


def reference_most_stable(instance: Instance) -> MostStableResult:
    """Score every perfect matching of the completed market in
    ``permutations`` order and keep the first maximum: the plain scan that
    the branch and bound must agree with, ``examined`` included."""
    completed, padding = complete_instance(instance)
    n = completed.n_men
    best, best_p = None, Fraction(-1)
    for assignment in permutations(range(n)):
        matching = Matching.from_pairs(enumerate(assignment))
        p = stability_probability(completed, matching, cap=None)
        if p > best_p:
            best, best_p = matching, p
    return MostStableResult(
        matching=restrict_matching(best, padding),
        probability=best_p,
        examined=math.factorial(n),
    )


def reference_lottery_bound(
    instance: Instance, men, women, incumbent: Fraction
) -> bool:
    """Whether the most-stable bound of the prefix that matches ``men[i]``
    to ``women[i]`` in the complete, square lottery or compact ``instance``
    exceeds ``incumbent``, recomputed from scratch: four ``beats`` lookups
    per pair of couples give the masks of the two cross pairs; a pair that
    blocks in every order of one agent deletes the other's orders that block
    with it (in every order of both: no leaf below is stable), and the bound
    is the product, over every assigned agent, of the weight of its orders
    left. A compact agent is one order of weight 1 whose mask is its
    ``WeakOrder.beats`` stance: True blocks in every extension, and a tie
    (None) never does, so the bound is 0 when a pair has both stances True
    and 1 otherwise."""
    n = instance.n_men
    entries = instance.entries
    assigned = list(men[: len(women)]) + [n + w for w in women]
    if instance.kind == "compact":
        supports = {agent: ((None, Fraction(1)),) for agent in assigned}
    else:
        supports = {agent: entries[agent].support for agent in assigned}
    full = {agent: (1 << len(supports[agent])) - 1 for agent in assigned}
    left = dict(full)
    for j in range(len(women)):
        for i in range(j):
            for man, his, woman, hers in (
                (men[j], women[j], women[i], men[i]),
                (men[i], women[i], women[j], men[j]),
            ):
                man_mask = entries[man].beats(his).get(woman, 0)
                woman_mask = entries[n + woman].beats(hers).get(man, 0)
                if not (man_mask and woman_mask):
                    continue
                if man_mask == full[man] and woman_mask == full[n + woman]:
                    return False
                if man_mask == full[man]:
                    left[n + woman] &= ~woman_mask
                elif woman_mask == full[n + woman]:
                    left[man] &= ~man_mask
    bound = Fraction(1)
    for agent, orders in left.items():
        weights = [w for i, (_, w) in enumerate(supports[agent]) if orders >> i & 1]
        bound *= sum(weights, Fraction(0))
    return bound > incumbent


def reference_constant_uncertain(instance: Instance) -> MostStableResult:
    """The constant-uncertain search with both rounds run by ``gale_shapley``
    on sub-profiles of validated orders, women handled by a recursive call
    on the transposed market."""
    uncertain = uncertain_agents(instance)
    if {agent.side for agent in uncertain} == {Side.WOMEN}:
        result = reference_constant_uncertain(instance.transposed())
        return MostStableResult(
            matching=result.matching.transposed(),
            probability=result.probability,
            examined=result.examined,
            all_candidates_excluded=result.all_candidates_excluded,
        )
    completed, padding = complete_instance(instance)
    n = completed.n_men
    xs = sorted(agent.index for agent in uncertain)
    certain_men = [m for m in range(n) if m not in xs]
    men_orders = {m: certain_order(completed, AgentId(Side.MEN, m)) for m in certain_men}
    women_orders = [certain_order(completed, AgentId(Side.WOMEN, w)) for w in range(n)]

    def run_sub_gs(assigned_women, truncate, proposing_side):
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

    best, best_p, fallback, examined = None, None, None, 0
    for assignment in permutations(range(n), len(xs)):
        examined += 1
        mu_x = dict(zip(xs, assignment))
        partner_y = {w: m for m, w in mu_x.items()}
        extended = Matching.from_pairs(
            list(mu_x.items()) + run_sub_gs(set(assignment), lambda m, w: False, Side.MEN)
        )
        if fallback is None:
            fallback = extended
        if any(
            men_orders[m].prefers_over_partner(w, extended.partner_of_man(m))
            and women_orders[w].prefers(m, x_man)
            for m in certain_men
            for w, x_man in partner_y.items()
        ):
            continue

        def truncate(m, w_prime):
            return any(
                women_orders[w].prefers(m, x_man) and men_orders[m].prefers(w, w_prime)
                for w, x_man in partner_y.items()
            )

        candidate = Matching.from_pairs(
            list(mu_x.items()) + run_sub_gs(set(assignment), truncate, Side.WOMEN)
        )
        p = stability_probability(completed, candidate, cap=None)
        if best_p is None or p > best_p:
            best, best_p = candidate, p
    if best is None:
        return MostStableResult(
            restrict_matching(fallback, padding), Fraction(0), examined, True
        )
    return MostStableResult(restrict_matching(best, padding), best_p, examined)


def random_weights(rng: random.Random, k: int) -> list[Fraction]:
    """k positive twelfths summing to 1."""
    assert 1 <= k <= 12
    cuts = sorted(rng.sample(range(1, 12), k - 1))
    bounds = [0] + cuts + [12]
    return [Fraction(bounds[i + 1] - bounds[i], 12) for i in range(k)]


def random_linear_orders(rng, candidates, count: int) -> list[LinearOrder]:
    count = min(count, math.factorial(len(candidates)))
    seen = set()
    while len(seen) < count:
        seen.add(tuple(rng.sample(candidates, len(candidates))))
    return [LinearOrder(ranking) for ranking in sorted(seen)]


def random_agent_lottery(rng, candidates, max_support: int) -> AgentLottery:
    orders = random_linear_orders(rng, candidates, rng.randint(1, max_support))
    weights = random_weights(rng, len(orders))
    return AgentLottery(tuple(zip(orders, weights)))


def random_acceptability(rng, n_men: int, n_women: int, complete: bool):
    if complete:
        return [[True] * n_women for _ in range(n_men)]
    return [[rng.random() < 0.7 for _ in range(n_women)] for _ in range(n_men)]


def random_lottery_instance(
    rng, n_men: int, n_women: int, max_support: int = 3, complete: bool = True
) -> Instance:
    accept = random_acceptability(rng, n_men, n_women, complete)
    men = [
        random_agent_lottery(rng, [w for w in range(n_women) if accept[m][w]], max_support)
        for m in range(n_men)
    ]
    women = [
        random_agent_lottery(rng, [m for m in range(n_men) if accept[m][w]], max_support)
        for w in range(n_women)
    ]
    return lottery_instance(men, women)


def random_perturbed_lottery_instance(
    rng, n: int, min_orders: int, max_orders: int
) -> Instance:
    """Complete n x n lottery market: each agent has a random base order plus
    variants that are each one adjacent swap away from an earlier order."""

    def agent(k: int) -> AgentLottery:
        orders = [tuple(rng.sample(range(n), n))]
        k = min(k, math.factorial(n))
        while len(orders) < k:
            ranking = list(rng.choice(orders))
            i = rng.randrange(n - 1)
            ranking[i], ranking[i + 1] = ranking[i + 1], ranking[i]
            if tuple(ranking) not in orders:
                orders.append(tuple(ranking))
        weights = random_weights(rng, len(orders))
        return AgentLottery(tuple((order(*r), wt) for r, wt in zip(orders, weights)))

    men = [agent(rng.randint(min_orders, max_orders)) for _ in range(n)]
    women = [agent(rng.randint(min_orders, max_orders)) for _ in range(n)]
    return lottery_instance(men, women)


def ladder_instance(rng, n: int, man_orders: int = 2) -> tuple[Instance, Matching]:
    """n - 1 disjoint two-agent constraints under a stable matching.

    Man k may rank woman k + 1 above his partner and woman k + 1 may rank
    man k above hers, each with probability 1/2; the pair blocks only when
    both do, so the answer is (3/4)^(n-1). With ``man_orders`` = 3 each
    swapping man gets a third order that keeps his partner ahead, and the
    answer is (5/6)^(n-1). Labels and list tails are shuffled by ``rng``.
    """
    man_label = rng.sample(range(n), n)
    woman_label = rng.sample(range(n), n)

    def others(*head: int) -> tuple:
        rest = [j for j in range(n) if j not in head]
        rng.shuffle(rest)
        return tuple(rest)

    men = [None] * n
    women = [None] * n
    for k in range(n):
        mine, theirs = woman_label[k], man_label[k]
        if k < n - 1:
            nxt = woman_label[k + 1]
            rest = others(mine, nxt)
            rankings = [(mine, nxt) + rest, (nxt, mine) + rest]
            if man_orders == 3:
                rankings.append((mine,) + rest + (nxt,))
            weight = Fraction(1, len(rankings))
            men[theirs] = AgentLottery(tuple((order(*r), weight) for r in rankings))
        else:
            men[theirs] = certain(mine, *others(mine))
        if k > 0:
            prev = man_label[k - 1]
            rest = others(theirs, prev)
            women[mine] = lottery(
                ((theirs, prev) + rest, "1/2"), ((prev, theirs) + rest, "1/2")
            )
        else:
            women[mine] = certain(theirs, *others(theirs))
    matching = Matching.from_pairs((man_label[k], woman_label[k]) for k in range(n))
    return lottery_instance(men, women), matching


def tied_instance(n: int) -> tuple[Instance, Matching]:
    """Every agent ties the whole other side, under the identity matching:
    every tier-mate of a partner ties this agent with its own partner."""
    everyone = [[list(range(n))]] * n
    matching = Matching.from_pairs((k, k) for k in range(n))
    return compact_instance(everyone, everyone), matching


def modal_profile(instance: Instance) -> Profile:
    """Each agent's heaviest support order (first one on ties)."""

    def heaviest(entry):
        return max(entry.support, key=lambda item: item[1])[0]

    return Profile(
        men=tuple(heaviest(e) for e in instance.model.men),
        women=tuple(heaviest(e) for e in instance.model.women),
    )


def random_weak_order(rng, candidates, max_tie: int = 3) -> WeakOrder:
    perm = rng.sample(candidates, len(candidates))
    tiers = []
    i = 0
    while i < len(perm):
        size = rng.randint(1, min(max_tie, len(perm) - i))
        tiers.append(tuple(perm[i : i + size]))
        i += size
    return WeakOrder(tuple(tiers))


def random_compact_instance(
    rng, n_men: int, n_women: int, max_tie: int = 3, complete: bool = True
) -> Instance:
    accept = random_acceptability(rng, n_men, n_women, complete)
    men = tuple(
        random_weak_order(rng, [w for w in range(n_women) if accept[m][w]], max_tie)
        for m in range(n_men)
    )
    women = tuple(
        random_weak_order(rng, [m for m in range(n_men) if accept[m][w]], max_tie)
        for w in range(n_women)
    )
    return Instance(CompactModel(men=men, women=women))


def random_joint_instance(
    rng, n_men: int, n_women: int, n_profiles: int = 3, complete: bool = True
) -> Instance:
    accept = random_acceptability(rng, n_men, n_women, complete)
    men_cands = [[w for w in range(n_women) if accept[m][w]] for m in range(n_men)]
    women_cands = [[m for m in range(n_men) if accept[m][w]] for w in range(n_women)]

    def rand_profile() -> Profile:
        men = tuple(
            LinearOrder(tuple(rng.sample(c, len(c)))) for c in men_cands
        )
        women = tuple(
            LinearOrder(tuple(rng.sample(c, len(c)))) for c in women_cands
        )
        return Profile(men=men, women=women)

    weights = random_weights(rng, n_profiles)
    # duplicate profiles are merged by the model; that only shrinks the support
    return Instance(
        JointModel(tuple((rand_profile(), w) for w in weights))
    )


def random_maximal_matching(rng, instance: Instance) -> Matching:
    """Greedy over shuffled acceptable pairs; never strands an acceptable pair."""
    pairs = [
        (m, w)
        for m in range(instance.n_men)
        for w in sorted(instance.acceptable_men[m])
    ]
    rng.shuffle(pairs)
    used_m: set[int] = set()
    used_w: set[int] = set()
    chosen = []
    for m, w in pairs:
        if m not in used_m and w not in used_w:
            chosen.append((m, w))
            used_m.add(m)
            used_w.add(w)
    return Matching.from_pairs(chosen)


def random_formula(rng, max_vars: int, max_clauses: int) -> TwoSatInstance:
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        v1, v2 = rng.randrange(n), rng.randrange(n)
        clauses.append(
            ((v1, rng.random() < 0.5), (v2, rng.random() < 0.5))
        )
    return TwoSatInstance(num_variables=n, clauses=tuple(clauses))
