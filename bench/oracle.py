"""Independent reference answers for the benchmark's answer gate.

The stability probability of a matching under independent per-agent
uncertainty is computed here from the specs in ``gen``, without the package:
each agent's realizations are reduced to the set of candidates it prefers to
its partner, pairs that can block become constraints between two agents,
and the constraint graph is split into connected components whose weighted
counts multiply. A compact agent only needs the uniform order of its
partner's tier, since every other tier is ranked the same way in all its
linear extensions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations


class BudgetExceeded(Exception):
    """A component needs more search nodes than the caller allowed."""


def _acceptable(spec: dict, side: str, agent: int) -> frozenset:
    entry = spec[side][agent]
    if spec["model"] == "lottery":
        return frozenset(entry[0][0])
    return frozenset(i for tier in entry for i in tier)


def _realizations(spec: dict, side: str, agent: int, partner) -> list:
    """(weight, candidates preferred to the partner) per distinct realization."""
    entry = spec[side][agent]
    merged: dict[frozenset, Fraction] = {}
    if spec["model"] == "lottery":
        for ranking, weight in entry:
            cut = len(ranking) if partner is None else ranking.index(partner)
            key = frozenset(ranking[:cut])
            merged[key] = merged.get(key, Fraction(0)) + weight
    elif partner is None:
        merged[_acceptable(spec, side, agent)] = Fraction(1)
    else:
        t = next(i for i, tier in enumerate(entry) if partner in tier)
        better = frozenset(i for tier in entry[:t] for i in tier)
        weight = Fraction(1, math.factorial(len(entry[t])))
        for perm in permutations(entry[t]):
            key = better | frozenset(perm[: perm.index(partner)])
            merged[key] = merged.get(key, Fraction(0)) + weight
    return [(weight, key) for key, weight in merged.items()]


def stability_probability(spec: dict, pairs, budget: int = 10**6) -> Fraction:
    """Exact probability that ``pairs`` is stable in the spec's market.

    Raises BudgetExceeded when a component's search passes ``budget`` nodes.
    """
    n_men, n_women = len(spec["men"]), len(spec["women"])
    wife = dict(pairs)
    husband = {w: m for m, w in pairs}
    real = {("men", m): _realizations(spec, "men", m, wife.get(m)) for m in range(n_men)}
    real.update(
        {("women", w): _realizations(spec, "women", w, husband.get(w)) for w in range(n_women)}
    )
    parent = {agent: agent for agent in real}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges: dict[tuple, list] = {agent: [] for agent in real}
    for m in range(n_men):
        man = ("men", m)
        for w in _acceptable(spec, "men", m):
            if wife.get(m) == w or m not in _acceptable(spec, "women", w):
                continue
            woman = ("women", w)
            mine = [w in better for _, better in real[man]]
            theirs = [m in better for _, better in real[woman]]
            if any(mine) and any(theirs):
                edges[man].append((woman, mine, theirs))
                edges[woman].append((man, theirs, mine))
                parent[find(man)] = find(woman)
    components: dict[tuple, list] = {}
    for agent in real:
        if edges[agent]:
            components.setdefault(find(agent), []).append(agent)
    result = Fraction(1)
    for members in components.values():
        result *= _component_mass(members, real, edges, budget)
        if result == 0:
            break
    return result


def _component_mass(members, real, edges, budget) -> Fraction:
    """Weight of the choices in one component that leave no pair blocking."""
    chosen: dict[tuple, int] = {}
    nodes = 0

    def search(depth: int) -> Fraction:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"component of {len(members)} agents")
        if depth == len(members):
            return Fraction(1)
        agent = members[depth]
        total = Fraction(0)
        for i, (weight, _) in enumerate(real[agent]):
            if any(
                mine[i] and other in chosen and theirs[chosen[other]]
                for other, mine, theirs in edges[agent]
            ):
                continue
            chosen[agent] = i
            total += weight * search(depth + 1)
            del chosen[agent]
        return total

    return search(0)


def blocking_pair(orders_men, orders_women, pairs):
    """A pair blocking ``pairs`` under strict lists, or None; lists hold
    acceptable candidates best first."""
    wife = dict(pairs)
    husband = {w: m for m, w in pairs}
    rank_w = [{m: r for r, m in enumerate(order)} for order in orders_women]
    for m, order in enumerate(orders_men):
        for w in order:
            if wife.get(m) == w:
                break
            if m not in rank_w[w]:
                continue
            h = husband.get(w)
            if h is None or rank_w[w][m] < rank_w[w][h]:
                return m, w
    return None
