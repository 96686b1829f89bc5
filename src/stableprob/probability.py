"""Stability probability of a matching under uncertain preferences.

Exact values are computed as fractions. For the independent models, one
matching compiles to a single weighted constraint problem over dense integer
agent ids: each agent takes a weighted pick (a lottery agent a support order,
a compact agent the set of its partner's tier-mates ranked ahead of the
partner), read from the agent's ``beats`` view against its partner
(``AgentLottery.beats``, ``WeakOrder.beats``). A pair can block only when
each member lists the other in its view, and one walk over the views,
``core._pair_masks``, finds those pairs for every query: the pick tables,
the compile, 2-SAT, both samplers, the compact nonzero decision (weak
stability: no pair whose two stances are both True) and, in
``superstability``, certain stability (the walk yields no pair). Each pair
the compile keeps deletes picks up front or forbids combinations of two
agents' picks. Agents meet only through constraints, so they split into
connected components searched one at a time by one iterative search: the
exact probability multiplies the components' weighted counts, a star's in
closed form, and the nonzero decision takes each one's first allowed
assignment as its part of the witness. With one side certain every pair is
a deletion and the answer is the free product alone. The joint model weighs
its stable profiles, binary supports decide nonzero by 2-SAT, and
probability one is certain stability.

The Monte Carlo estimator walks the pairs once per call too and keeps, per
pair that can block, what each side must draw for it to block: lottery
samples draw the pick indices of the agents some pair needs, through each
agent's stored thresholds, and test them against the pairs' masks from the
pick tables; compact samples build only the tiers whose tied candidates
decide a pair and compare those; joint samples are tested as whole profiles.
Every sample draws through the same ``models`` rules as ``sample_profile``,
so seeded estimates are those of testing sampled profiles one by one.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from typing import NamedTuple

from .core import (
    DEFAULT_CAP,
    Budget,
    LinearOrder,
    Matching,
    Profile,
    Side,
    _is_integer,
    _is_row,
    _pair_masks,
    _partners,
    charge,
    is_stable,
)
from .errors import ValidationError
from .models import (
    CompactModel,
    Instance,
    JointModel,
    LotteryModel,
    as_probability,
    draw_rolls,
    _split,
    _views,
    sample_profile,
    side_is_certain,
    tie_breaks,
)
from .superstability import is_certainly_stable

Literal = tuple[int, bool]


@dataclass(frozen=True)
class TwoSatInstance:
    """A 2-CNF formula; a literal is (variable index, polarity).

    Clauses and literals may be lists or tuples. Every clause's shape is
    checked before any value, so a malformed formula reports the same
    first error as its JSON file does on the command line. A bool is not
    an integer here: neither a count nor a variable.
    """

    num_variables: int
    clauses: tuple[tuple[Literal, Literal], ...]

    def __post_init__(self):
        if not isinstance(self.clauses, (list, tuple)):
            raise ValidationError("'clauses' must be an array")
        for clause in self.clauses:
            if not _is_row(clause, 2):
                raise ValidationError("each clause must be a pair of literals")
            if not all(_is_row(literal, 2) for literal in clause):
                raise ValidationError(
                    "each literal must be a [variable, polarity] pair"
                )
        if not _is_integer(self.num_variables):
            raise ValidationError("variable count must be an integer")
        if self.num_variables < 0:
            raise ValidationError("variable count must be nonnegative")
        clauses = tuple(
            (tuple(first), tuple(second)) for first, second in self.clauses
        )
        object.__setattr__(self, "clauses", clauses)
        for clause in clauses:
            for variable, polarity in clause:
                if not (_is_integer(variable) and 0 <= variable < self.num_variables):
                    raise ValidationError(f"literal uses unknown variable {variable}")
                if not isinstance(polarity, bool):
                    raise ValidationError("literal polarity must be a bool")


def _tarjan_scc(graph: list[list[int]]) -> list[int]:
    """Component ids in reverse topological order (sinks get smaller ids).

    The work stack holds each open node with an iterator over its edges. A
    node is on Tarjan's stack exactly while it is indexed and has no
    component yet.
    """
    n = len(graph)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    comp_count = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, edges = work[-1]
            for child in edges:
                if index[child] == -1:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    work.append((child, iter(graph[child])))
                    break
                if comp[child] == -1 and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                if low[node] == index[node]:
                    while True:
                        member = stack.pop()
                        comp[member] = comp_count
                        if member == node:
                            break
                    comp_count += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return comp


def solve_2sat(formula: TwoSatInstance) -> list[bool] | None:
    """A satisfying assignment of the formula, or None if unsatisfiable."""
    n = formula.num_variables
    graph: list[list[int]] = [[] for _ in range(2 * n)]
    # literal (v, polarity) is node 2 * v + (not polarity); its negation is
    # node 2 * v + polarity, and each clause gives two implications
    for (v1, p1), (v2, p2) in formula.clauses:
        graph[2 * v1 + p1].append(2 * v2 + (not p2))
        graph[2 * v2 + p2].append(2 * v1 + (not p1))
    comp = _tarjan_scc(graph)
    assignment = []
    for variable in range(n):
        positive, negative = comp[2 * variable], comp[2 * variable + 1]
        if positive == negative:
            return None
        assignment.append(positive < negative)
    return assignment


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A sampled estimate within epsilon of the truth except with chance delta."""

    point_estimate: Fraction
    epsilon: Fraction
    delta: Fraction
    samples: int


class _Model(NamedTuple):
    """One matching's stability question compiled over agent ids.

    The ids are those of ``Instance.entries``, and every list but
    ``components`` is indexed by id. No constraint joins two components, so
    the model's weight is the free product times the product of the
    components' weights.
    """

    allowed: list[int]  # bitmask of picks that no pair rules out on its own
    adjacency: list[list[tuple[int, int, int]]]  # (other, my_mask, other_mask)
    components: list[list[int]]  # constrained agents by component, in search order
    numerators: list  # per agent, each pick's weight times the agent's scale
    denominator: int  # product of the scales of the agents _compile keeps
    free_product: int  # scaled allowed weight of the unconstrained agents it keeps


def allowed_mass(numerators: list[int], bits: int) -> int:
    """The scaled weight of the picks whose bits are set in ``bits``."""
    return sum(n for i, n in enumerate(numerators) if bits >> i & 1)


def delete_forced_picks(pairs, full: list[int], allowed: list[int]) -> list | None:
    """Clear from ``allowed`` the picks that single pairs rule out.

    ``pairs`` yields (a, b, a_mask, b_mask) for each pair of agents that
    blocks when a takes a pick in a_mask and b one in b_mask; ``full[x]``
    masks all of agent x's picks. A pair whose mask covers its agent's
    every pick blocks whenever the other agent takes a pick from the other
    mask, so those picks go. Returns the pairs where neither mask is full,
    which stay two-sided constraints, or None as soon as stability is
    impossible: both masks full, or an agent left with no pick.
    """
    two_sided = []
    for pair in pairs:
        a, b, a_mask, b_mask = pair
        if a_mask == full[a]:
            if b_mask == full[b]:
                return None
            agent, mask = b, b_mask
        elif b_mask == full[b]:
            agent, mask = a, a_mask
        else:
            two_sided.append(pair)
            continue
        allowed[agent] &= ~mask
        if not allowed[agent]:
            return None
    return two_sided


def _pick_tables(instance: Instance, matching: Matching, budget: Budget):
    """(scales, numerators, masks), each indexed by agent id: each pick's
    weight is its numerator over the agent's scale, and the agent's masks
    map each candidate to the bitmask of picks in which the agent prefers
    that candidate to its partner (absent when none). A lottery agent picks
    a support order, and its ``AgentLottery`` holds all three. A compact
    agent's extensions are equally likely, so only the tier-mates of its
    ``WeakOrder.beats`` view are in doubt. Mates who do not list the agent
    in their own view never prefer it to their partner and cannot block
    with it, so the walk over the views (``_pair_masks``) yields the other
    r, each with its own stance toward the agent; of those, a given set S
    ranks ahead of the partner with probability |S|! (r - |S|)! / (r + 1)!,
    the scale. A pick is such an S of the mates whose own side is undecided
    too (stance None); no pick ranks a mate who always prefers the agent
    ahead, since that would block. An unmatched agent has no mates: one
    pick of scale 1. The u * 2^u mask entries of u undecided mates are
    charged to ``budget`` before they are built.
    """
    entries = instance.entries
    views = _views(instance, matching)
    if isinstance(instance.model, LotteryModel):
        return [e.scale for e in entries], [e.numerators for e in entries], views
    n_men = instance.n_men
    # per agent, r and its undecided mates, ascending: a man's come in his
    # view's order and a woman's by man, and all share the partner's tier
    rs, undecided = [0] * len(views), [[] for _ in views]
    for m, w, his, hers in _pair_masks(views, n_men):
        for agent, mate, mine, theirs in ((m, w - n_men, his, hers), (w, m, hers, his)):
            if mine is None:  # the mate ties with the partner and lists the agent
                rs[agent] += 1
                if theirs is None:
                    undecided[agent].append(mate)
    scales, numerators, masks = [], [], []
    for view, r, mates in zip(views, rs, undecided):
        count = 1 << len(mates)
        charge(budget, len(mates) * count)
        by_size = [
            math.factorial(s) * math.factorial(r - s) for s in range(len(mates) + 1)
        ]
        # the view lists the undecided mates in the same order as ``mates``
        beats, j, full = {}, 0, (1 << count) - 1
        for candidate, stance in view.items():
            if stance:
                beats[candidate] = full
            elif j < len(mates) and mates[j] == candidate:
                half = 1 << j  # the picks with bit j set
                beats[candidate] = int(("1" * half + "0" * half) * (count >> j + 1), 2)
                j += 1
        scales.append(math.factorial(r + 1))
        numerators.append([by_size[k.bit_count()] for k in range(count)])
        masks.append(beats)
    return scales, numerators, masks


def _compile(instance: Instance, matching: Matching, budget: Budget) -> _Model | None:
    """The weighted constraint problem whose solutions keep the matching stable.

    Picks that a single pair rules out are deleted up front
    (``delete_forced_picks``); the remaining pairs become two-sided
    constraints. Returns None as soon as stability is impossible, before
    any component is labelled or any mass summed, because most matchings a
    search scores fail that way. Lottery numerators sum to the scale, so
    an unconstrained lottery agent with every order left is a factor of 1
    and is left out of ``denominator`` and ``free_product`` alike; compact
    agents always stay, since a pick set can weigh less than the scale.
    """
    scales, numerators, masks = _pick_tables(instance, matching, budget)
    full = [(1 << len(agent_numerators)) - 1 for agent_numerators in numerators]
    allowed = full[:]
    two_sided = delete_forced_picks(_pair_masks(masks, instance.n_men), full, allowed)
    if two_sided is None:
        return None
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in numerators]
    for a, b, a_mask, b_mask in two_sided:
        adjacency[a].append((b, a_mask, b_mask))
        adjacency[b].append((a, b_mask, a_mask))
    order = [agent for agent, edges in enumerate(adjacency) if edges]
    order.sort(key=lambda agent: (-len(adjacency[agent]), agent))
    # each component keeps the global order restricted to its agents
    label = [-1] * len(numerators)
    components: list[list[int]] = []
    for agent in order:
        if label[agent] < 0:
            label[agent], stack = len(components), [agent]
            components.append([])
            while stack:
                for other, _, _ in adjacency[stack.pop()]:
                    if label[other] < 0:
                        label[other] = label[agent]
                        stack.append(other)
        components[label[agent]].append(agent)
    # factors of 1 are left out, as optimization._lottery_bound leaves them
    lottery = isinstance(instance.model, LotteryModel)
    free_product = denominator = 1
    for agent, edges in enumerate(adjacency):
        if lottery and not edges and allowed[agent] == full[agent]:
            continue
        denominator *= scales[agent]
        if not edges:
            free_product *= allowed_mass(numerators[agent], allowed[agent])
    return _Model(allowed, adjacency, components, numerators, denominator, free_product)


def _walk(model: _Model, order: list[int], choice: list[int], budget: Budget):
    """Yield the scaled weight of each blocking-free pick of one component.

    Depth first along ``order``, one of ``model.components``, from weight 1;
    each agent tries its allowed picks in index order. ``choice[agent]``
    holds the pick of every agent on the current path, so after a yield it
    describes the component's assignment just found. Every node entered
    below the root, the leaves included, is charged to ``budget``, which
    the searches of all components share. The loop keeps its own stack, so
    depth is not bounded by Python's recursion limit.
    """
    last = len(order)
    position = {agent: depth for depth, agent in enumerate(order)}
    # per depth, per allowed pick: (pick, numerator, conflicts), a conflict
    # (other, other_mask) naming an agent placed earlier whose picks in
    # other_mask block together with this one
    options = []
    for depth, agent in enumerate(order):
        earlier = [e for e in model.adjacency[agent] if position[e[0]] < depth]
        bits = model.allowed[agent]
        options.append(
            [
                (i, n, tuple((b, mask) for b, mine, mask in earlier if mine >> i & 1))
                for i, n in enumerate(model.numerators[agent])
                if bits >> i & 1
            ]
        )
    weights = [1] * (last + 1)
    cursor = [0] * (last + 1)
    depth = 0
    while True:
        if depth == last:
            yield weights[last]
            depth -= 1
        # advance to the next unblocked pick, backtracking past exhausted depths
        while depth >= 0:
            k = cursor[depth]
            if k == len(options[depth]):
                depth -= 1
                continue
            cursor[depth] = k + 1
            pick, numerator, conflicts = options[depth][k]
            for other, other_mask in conflicts:
                if other_mask >> choice[other] & 1:
                    break
            else:
                choice[order[depth]] = pick
                weights[depth + 1] = weights[depth] * numerator
                depth += 1
                cursor[depth] = 0
                charge(budget)
                break
        else:
            return


def _star(model: _Model, order: list[int]) -> tuple[int, int]:
    """(weight, nodes) of a star component: ``sum(_walk(...))`` over
    ``order`` in closed form, and the work that form does.

    Every agent after the hub ``order[0]`` is a leaf that meets the hub
    alone, so once the hub has its pick i, leaf l keeps its allowed picks
    but those that block with i, whatever the other leaves take: m_l(i) of
    mass and c_l(i) picks. The weight sums n_i * m_1(i) * ... * m_k(i)
    over the hub's allowed picks, and each such pick is charged 1 + c_1(i)
    + c_2(i) + ..., the leaves taken in ``order`` up to and including the
    first with c_l(i) = 0. That is linear in the leaves where a walk
    enters 1 + c_1(i) + c_1(i) c_2(i) + ... nodes; it is never more, and
    the same for a star of one leaf.
    """
    hub, allowed, numerators = order[0], model.allowed, model.numerators
    leaves = []  # per leaf: the hub's mask, then mass and count kept and cut
    for leaf in order[1:]:
        ((_, mine, hub_mask),) = model.adjacency[leaf]
        bits, weights = allowed[leaf], numerators[leaf]
        cut = bits & mine
        mass, cut_mass = allowed_mass(weights, bits), allowed_mass(weights, cut)
        leaves.append((hub_mask, mass, bits.bit_count(), cut_mass, cut.bit_count()))
    weight = nodes = 0
    bits = allowed[hub]
    for i, n in enumerate(numerators[hub]):
        if not bits >> i & 1:
            continue
        nodes += 1
        for hub_mask, mass, count, cut_mass, cut_count in leaves:
            if hub_mask >> i & 1:
                mass, count = mass - cut_mass, count - cut_count
            n *= mass
            nodes += count
            if not count:
                break
        weight += n
    return weight, nodes


def _star_witness(
    model: _Model, order: list[int], choice: list[int]
) -> tuple[bool, int]:
    """(found, nodes) of a star component: ``next(_walk(...), None)`` over
    ``order`` in closed form, and the work that form does.

    The walk's first solution gives the hub ``order[0]`` its first allowed
    pick under which every leaf keeps an allowed pick that does not block
    with it, and each leaf the first such pick; when there is one, it is
    written to ``choice``. A hub pick tried before it is charged as
    ``_star`` charges it, 1 plus each leaf's compatible picks up to the
    first leaf with none, and the pick taken 1 plus one node per leaf, the
    walk's own path down: never more than the walk enters, and the same
    for a star of one leaf.
    """
    hub, allowed = order[0], model.allowed
    leaves = []  # per leaf: the hub's mask, its allowed picks, those that never block
    for leaf in order[1:]:
        ((_, mine, hub_mask),) = model.adjacency[leaf]
        leaves.append((hub_mask, allowed[leaf], allowed[leaf] & ~mine))
    nodes, bits = 0, allowed[hub]
    while bits:
        i = (bits & -bits).bit_length() - 1
        bits &= bits - 1
        picks = []
        for hub_mask, free, kept in leaves:
            picks.append(kept if hub_mask >> i & 1 else free)
            if not picks[-1]:
                nodes += 1 + sum(map(int.bit_count, picks))
                break
        else:
            choice[hub] = i
            for leaf, left in zip(order[1:], picks):
                choice[leaf] = (left & -left).bit_length() - 1
            return True, nodes + len(order)
    return False, nodes


def _count(model: _Model | None, budget: Budget) -> Fraction:
    """Total weight of the blocking-free realizations of a compiled model:
    the free product times each component's summed weight, up to a zero.
    A star component (``_star``), two agents included, is summed in closed
    form and charged its hub picks and their leaves' compatible picks;
    every other one is searched by ``_walk``. The root and every node the
    searches enter are charged to ``budget``, as in the nonzero search."""
    if model is None:
        return Fraction(0)
    choice = [0] * len(model.numerators)
    charge(budget)  # the root of the whole search
    total = model.free_product
    adjacency = model.adjacency
    for order in model.components:
        if all(len(adjacency[leaf]) == 1 for leaf in order[1:]):
            weight, nodes = _star(model, order)
            charge(budget, nodes)
            total *= weight
        else:
            total *= sum(_walk(model, order, choice, budget))
        if not total:
            break
    return Fraction(total, model.denominator)


def _verified(profile: Profile, matching: Matching) -> Profile:
    """The witness profile, after checking that it keeps the matching stable."""
    if not is_stable(profile, matching):
        raise RuntimeError("internal error: the witness profile has a blocking pair")
    return profile


def stability_probability_joint(instance: Instance, matching: Matching) -> Fraction:
    """Total weight of the profiles in which the matching is stable."""
    if not isinstance(instance.model, JointModel):
        raise ValidationError("requires a joint-model instance")
    return stability_probability(instance, matching, method="joint", cap=None)


def stability_probability_lottery_one_side_certain(
    instance: Instance, matching: Matching
) -> Fraction:
    """Closed form for lottery instances where one side is certain.

    A certain agent's blocking mask is all or nothing, so every pair that
    can block either blocks outright (probability zero) or deletes the
    other agent's orders that rank this partner higher. The agents then
    block independently, and the answer is the product of each agent's
    remaining weight: the compiled model's free product.
    """
    if not isinstance(instance.model, LotteryModel):
        raise ValidationError("requires a lottery-model instance")
    return stability_probability(instance, matching, method="one-side", cap=None)


def stability_probability_compact_one_side_certain(
    instance: Instance, matching: Matching
) -> Fraction:
    """Closed form for compact instances where one side is strict.

    No tier-mate's own side is then undecided, so each agent has one pick
    and every pair that can block is a deletion: the answer is the compiled
    model's free product, with a factor 1/(k+1) for k interested candidates
    tied with a partner and zero for one in a better tier.
    """
    if not isinstance(instance.model, CompactModel):
        raise ValidationError("requires a compact-model instance")
    return stability_probability(instance, matching, method="one-side", cap=None)


def stability_probability_exact(
    instance: Instance, matching: Matching, cap: int | None = DEFAULT_CAP
) -> Fraction:
    """Exact stability probability for any model: ``stability_probability``
    with method "exact", whose ``cap`` bounds the search nodes entered and
    the compact pick tables' entries (None for no limit)."""
    return stability_probability(instance, matching, method="exact", cap=cap)


def stability_probability(
    instance: Instance,
    matching: Matching,
    method: str = "auto",
    cap: int | None = DEFAULT_CAP,
) -> Fraction:
    """Exact stability probability, dispatching on the model.

    A joint model sums the weights of the profiles in which the matching
    is stable. Independent models are summed over the agents' picks in
    integer arithmetic over a common denominator: always-blocking picks
    are deleted up front, agents untouched by two-sided constraints
    contribute a closed factor (none at all for a lottery agent that keeps
    every order), and the rest are counted one connected component at a
    time: a star component (one agent whose other agents each meet it
    alone, two agents included) in closed form, any other by search.
    ``cap`` bounds the search nodes entered, the root included, over all
    components, a star counting each hub pick and the compatible picks of
    its leaves, and the compact pick tables' entries (None for no limit), not the number of
    realizations.

    Methods: "auto" and "exact" dispatch as above. "joint" requires a
    joint model. "one-side" requires an independent model with one side
    certain (lottery) or strict (compact); every pair is then a deletion,
    so the answer is the compiled model's free product and nothing is
    searched: the cap is checked but not charged. Forcing an inapplicable
    method raises ValidationError.
    """
    if method not in ("auto", "exact", "one-side", "joint"):
        raise ValidationError(f"unknown method {method!r}")
    joint = isinstance(instance.model, JointModel)
    if method == "joint" and not joint:
        raise ValidationError("method 'joint' requires a joint-model instance")
    budget = Budget(cap, "search nodes")
    if method == "one-side" and joint:
        raise ValidationError("method 'one-side' requires an independent model")
    instance.validate_matching(matching)
    if joint:
        model = instance.model
        stable = [is_stable(profile, matching) for profile, _ in model.profiles]
        return Fraction(sum(compress(model.numerators, stable)), model.scale)
    if method == "one-side":
        if not any(side_is_certain(instance, side) for side in Side):
            certain = "certain" if instance.kind == "lottery" else "strict"
            raise ValidationError(f"requires one side with {certain} preferences")
        budget = Budget(None, "search nodes")
    return _count(_compile(instance, matching, budget), budget)


def _lottery_sampler(instance: Instance, matching: Matching, rng: random.Random):
    """A test of one sample: per pair that can block, the masks of the
    picks each side needs, read from the agents' pick tables; no search
    model is compiled. A side whose mask is full needs no pick: with one
    such side the pair deletes the other side's picks, and with two it
    blocks in every sample. Every sample still draws one roll per agent
    (``draw_rolls``), whichever picks it reads."""
    entries = instance.entries
    full = [(1 << len(entry.numerators)) - 1 for entry in entries]
    blocks = []  # per pair that can block, the (agent, mask) of the picks it needs
    for a, b, his, hers in _pair_masks(_views(instance, matching), instance.n_men):
        sides = ((a, his), (b, hers))
        # a mask that holds every pick blocks in each, so that side needs none
        blocks.append(tuple((x, mask) for x, mask in sides if mask != full[x]))
    # a pair that needs fewer picks blocks more often, so test it first;
    # one that needs none blocks in every sample
    blocks.sort(key=len)
    # only agents that some pair needs read their pick
    needed = {agent for needs in blocks for agent, _ in needs}
    picked = [(agent, entries[agent].thresholds) for agent in sorted(needed)]
    choice = [0] * len(entries)

    def stable() -> bool:
        rolls = draw_rolls(rng, instance)
        for agent, thresholds in picked:
            choice[agent] = bisect_right(thresholds, rolls[agent])
        for needs in blocks:
            for agent, mask in needs:
                if not mask >> choice[agent] & 1:
                    break
            else:
                return False
        return True

    return stable


def _compact_sampler(instance: Instance, matching: Matching, rng: random.Random):
    weak_orders = instance.entries
    # per agent, the index of its best tier in the shuffles
    first_tier = list(accumulate((len(weak.tiers) for weak in weak_orders), initial=0))
    n_men = instance.n_men
    partners = _partners(matching, n_men, instance.n_women)
    blocks = []  # per pair that can block, the shuffle outcomes it needs
    for m, w, his, hers in _pair_masks(_views(instance, matching), n_men):
        needs = []
        for agent, candidate, side in ((m, w - n_men, his), (w, m, hers)):
            if side is None:  # the shuffle of that tier decides
                tier = first_tier[agent] + weak_orders[agent].tier_of[candidate]
                needs.append((tier, candidate, partners[agent]))
        blocks.append(tuple(needs))
    # a pair that needs fewer outcomes blocks more often, so test it first;
    # one that needs none blocks in every extension
    blocks.sort(key=len)
    draw = tie_breaks(instance, {t for needs in blocks for t, _, _ in needs})

    def stable() -> bool:
        shuffles = draw(rng)
        for needs in blocks:
            for t, candidate, partner in needs:
                shuffle = shuffles[t]
                if shuffle.index(candidate) > shuffle.index(partner):
                    break
            else:
                return False
        return True

    return stable


def estimate_stability_probability(
    instance: Instance,
    matching: Matching,
    epsilon,
    delta,
    rng: random.Random | None = None,
    cap: int | None = DEFAULT_CAP,
) -> ProbabilityEstimate:
    """Monte Carlo estimate within epsilon except with probability delta.

    The sample count ceil(ln(2/delta) / (2 epsilon^2)) comes from the
    two-sided Hoeffding bound; more than ``cap`` samples (None for no limit)
    raise ResourceLimitError before any is drawn. Each model walks the pairs
    that can block once: lottery samples draw the pick index of each agent
    some pair needs and test it against the pairs' masks from the pick
    tables, without compiling a search model; compact samples build only the
    tiers that hold a tied candidate some pair compares, compare those
    candidates, and let every other tier consume the same random bits
    unbuilt. Joint samples test the drawn profile with ``is_stable``. Every
    sample draws its random numbers by ``sample_profile``'s own rules
    (``draw_rolls``, ``tie_breaks``) and picks through the stored
    ``thresholds`` of the agent's or the model's support, so the estimate,
    and the state ``rng`` is left in, are those of testing
    ``sample_profile`` draws. For which rngs a compact tie-break equals
    ``rng.sample(tier, len(tier))``, see ``tie_breaks``' stream contract.
    """
    eps = as_probability(epsilon)
    err = as_probability(delta)
    if not 0 < eps < 1 or not 0 < err < 1:
        raise ValidationError("epsilon and delta must lie strictly between 0 and 1")
    instance.validate_matching(matching)
    # ln(2/delta) from the fraction's integers, which no float underflow reaches
    log_ratio = math.log(2 * err.denominator) - math.log(err.numerator)
    samples = math.ceil(Fraction(log_ratio) / (2 * eps * eps))
    charge(Budget(cap, "samples"), samples)
    if rng is None:
        rng = random.Random(0)
    if instance.kind == "lottery":
        stable = _lottery_sampler(instance, matching, rng)
    elif instance.kind == "compact":
        stable = _compact_sampler(instance, matching, rng)
    else:
        stable = lambda: is_stable(sample_profile(instance, rng), matching)
    hits = sum(1 for _ in range(samples) if stable())
    return ProbabilityEstimate(
        point_estimate=Fraction(hits, samples), epsilon=eps, delta=err, samples=samples
    )


def is_stability_probability_one(instance: Instance, matching: Matching) -> bool:
    """True iff the matching is stable with probability one."""
    return is_certainly_stable(instance, matching)


def _partner_first_extension(weak, partner: int | None) -> LinearOrder:
    ranking = []
    for tier in weak.tiers:  # the partner's tie is broken partner first
        ranking += sorted(tier, key=lambda c: c != partner) if partner in tier else tier
    return LinearOrder._trusted(tuple(ranking))


def _compact_witness(instance: Instance, matching: Matching) -> Profile:
    pairs = zip(instance.entries, _partners(matching, instance.n_men, instance.n_women))
    return _split(instance, [_partner_first_extension(weak, p) for weak, p in pairs])


def _nonzero_2sat_parts(instance: Instance, matching: Matching):
    """The 2-CNF whose satisfying assignments pick blocking-free orders.

    Each agent with two support orders gets one variable per order plus an
    exactly-one pair of clauses; a single-support agent gets one variable
    forced true. Every jointly blocking combination contributes the clause
    forbidding both picks. Also returns the (agent id, pick) of each
    variable.
    """
    if not isinstance(instance.model, LotteryModel):
        raise ValidationError("requires a lottery-model instance")
    sizes = [len(entry.support) for entry in instance.entries]
    if any(size > 2 for size in sizes):
        raise ValidationError("requires support of at most two orders per agent")
    first: list[int] = []
    choices: list[tuple[int, int]] = []
    clauses: list[tuple[Literal, Literal]] = []
    for agent, size in enumerate(sizes):
        v = len(choices)
        first.append(v)
        choices += [(agent, i) for i in range(size)]
        if size == 1:
            clauses.append(((v, True), (v, True)))
        else:
            clauses.append(((v, True), (v + 1, True)))
            clauses.append(((v, False), (v + 1, False)))
    # the pairs in index order, which fixes the clauses' order and so the
    # witness the solver finds
    pairs = sorted(_pair_masks(_views(instance, matching), instance.n_men))
    for a, b, a_mask, b_mask in pairs:
        for i in range(sizes[a]):
            if not a_mask >> i & 1:
                continue
            for j in range(sizes[b]):
                if b_mask >> j & 1:
                    clauses.append(((first[a] + i, False), (first[b] + j, False)))
    formula = TwoSatInstance(num_variables=len(choices), clauses=tuple(clauses))
    return formula, choices


def build_nonzero_2sat(instance: Instance, matching: Matching) -> TwoSatInstance:
    """2-CNF that is satisfiable iff the stability probability is nonzero.

    Only defined for lottery instances whose agents have at most two support
    orders each.
    """
    instance.validate_matching(matching)
    return _nonzero_2sat_parts(instance, matching)[0]


def _profile_from_choices(instance: Instance, choice: list[int]) -> Profile:
    return _split(instance, [e.support[i][0] for e, i in zip(instance.entries, choice)])


def _nonzero_backtracking(
    instance: Instance, matching: Matching, cap: int | None
) -> tuple[bool, Profile | None]:
    budget = Budget(cap, "search nodes")
    model = _compile(instance, matching, budget)
    if model is None:
        return False, None
    # agents outside every constraint keep their first allowed pick; no
    # constraint joins two components, so each component's first solution
    # is the restriction of the first solution along the global order
    choice = [(bits & -bits).bit_length() - 1 for bits in model.allowed]
    charge(budget)  # the root of the whole search
    adjacency = model.adjacency
    for order in model.components:
        if all(len(adjacency[leaf]) == 1 for leaf in order[1:]):  # a star
            found, nodes = _star_witness(model, order, choice)
            charge(budget, nodes)
        else:
            found = next(_walk(model, order, choice, budget), None) is not None
        if not found:
            return False, None
    profile = _profile_from_choices(instance, choice)
    return True, _verified(profile, matching)


def is_stability_probability_nonzero(
    instance: Instance, matching: Matching, cap: int | None = DEFAULT_CAP
) -> tuple[bool, Profile | None]:
    """Whether some positive-probability realization keeps the matching stable.

    Returns the decision and, when positive, a witness profile that is
    itself verified stable. Compact instances reduce to weak stability with
    a partner-first tie-break, joint instances scan their profiles, lottery
    instances with binary supports go through 2-SAT, and larger supports
    search the compiled model for its first allowed assignment, a star
    component in closed form (``_star_witness``). ``cap`` bounds that
    search's nodes entered, the root included, over all components, as in
    ``stability_probability`` (None for no limit); the other routes do not
    search.
    """
    instance.validate_matching(matching)
    model = instance.model
    if isinstance(model, LotteryModel) and any(
        len(entry.support) > 2 for entry in instance.entries
    ):
        return _nonzero_backtracking(instance, matching, cap)
    Budget(cap, "search nodes")  # no route below searches; still refuse a bad cap
    if isinstance(model, JointModel):
        for profile, _ in model.profiles:
            if is_stable(profile, matching):
                return True, profile
        return False, None
    if isinstance(model, CompactModel):
        # weakly stable: no pair whose members both strictly prefer each
        # other to their partners, that is, both stances True
        views = _views(instance, matching)
        if any(his and hers for _, _, his, hers in _pair_masks(views, instance.n_men)):
            return False, None
        return True, _verified(_compact_witness(instance, matching), matching)
    # a lottery whose supports have at most two orders
    formula, choices = _nonzero_2sat_parts(instance, matching)
    assignment = solve_2sat(formula)
    if assignment is None:
        return False, None
    choice = [0] * len(instance.entries)
    for (agent, i), value in zip(choices, assignment):
        if value:
            choice[agent] = i
    profile = _profile_from_choices(instance, choice)
    return True, _verified(profile, matching)
