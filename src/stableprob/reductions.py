"""Generators that encode classic decision problems as matching instances.

Three encodings are provided: exact cover by 3-sets and counting for 2-CNF
formulas both target the lottery model with a designated matching, and graph
3-colorability targets the joint model. They are used to stress the decision
and counting routines against independent ground truths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .core import LinearOrder, Matching, Profile, Side
from .errors import ValidationError
from .models import AgentLottery, Instance, JointModel, LotteryModel
from .probability import TwoSatInstance, _is_row

Literal = tuple[int, bool]


class UnsupportedFormulaError(ValidationError):
    """The formula's clause structure cannot be carried by this encoding."""


def _integer_rows(rows, width: int, label: str) -> tuple:
    """``rows`` as a tuple of tuples, once every row is checked to be a list
    or tuple of ``width`` integers."""
    if not isinstance(rows, (list, tuple)) or not all(
        _is_row(row, width) and all(isinstance(x, int) for x in row) for row in rows
    ):
        raise ValidationError(f"{label} must be an array of {width}-integer arrays")
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class X3cInstance:
    """Exact cover by 3-sets: universe {1..universe_size}, triples of size 3.

    The triples' shape is checked first, as for ``TwoSatInstance``.
    """

    universe_size: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        triples = _integer_rows(self.triples, 3, "'triples'")
        if not isinstance(self.universe_size, int):
            raise ValidationError("universe size must be an integer")
        if self.universe_size < 0 or self.universe_size % 3:
            raise ValidationError("universe size must be a nonnegative multiple of 3")
        triples = tuple(tuple(sorted(t)) for t in triples)
        object.__setattr__(self, "triples", triples)
        for triple in triples:
            if len(set(triple)) != 3:
                raise ValidationError(f"triple {triple} must have 3 distinct elements")
            for element in triple:
                if not 1 <= element <= self.universe_size:
                    raise ValidationError(f"element {element} outside the universe")


@dataclass(frozen=True)
class Graph:
    """An undirected loop-free graph on vertices 0..vertex_count-1.

    The edges' shape is checked first, as for ``TwoSatInstance``.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = _integer_rows(self.edges, 2, "'edges'")
        if not isinstance(self.vertex_count, int):
            raise ValidationError("vertex count must be an integer")
        if self.vertex_count < 0:
            raise ValidationError("vertex count must be nonnegative")
        seen = set()
        for a, b in edges:
            if a == b:
                raise ValidationError(f"loop at vertex {a}")
            if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
                raise ValidationError(f"edge ({a}, {b}) references unknown vertices")
            seen.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", tuple(sorted(seen)))


def _order(head: list[int], total: int) -> LinearOrder:
    placed = set(head)
    rest = [i for i in range(total) if i not in placed]
    return LinearOrder(tuple(head + rest))


def _lottery(heads: list[list[int]], total: int) -> AgentLottery:
    """Equal weights on the orders that rank each head first, then the rest
    ascending; identical orders merge."""
    weight = Fraction(1, len(heads))
    return AgentLottery(tuple((_order(head, total), weight) for head in heads))


def _couple(heads: dict, pairs: list, side: Side) -> tuple[int, int]:
    """A new agent on ``side`` matched to a new mate on the other side.

    ``heads[side]`` lists each agent's heads, one per order; both newcomers
    start with none. Returns (agent, mate), the next index on each side.
    """
    agent, mate = len(heads[side]), len(heads[side.opposite])
    heads[side].append([])
    heads[side.opposite].append([])
    pairs.append((agent, mate) if side is Side.MEN else (mate, agent))
    return agent, mate


def x3c_to_lottery(x3c: X3cInstance) -> tuple[Instance, Matching]:
    """Lottery instance whose designated matching has nonzero stability
    probability iff the cover instance is solvable.

    Men are a_0..a_{k-1} plus one a'_j per universe element; women are the
    mirror b and b' agents, matched index to index. Each b_i draws one triple
    and covets its three a' agents above a_i; each a'_j draws one index k and
    covets every b except b_k above b'_j. Some draw leaves no blocking pair
    exactly when k disjoint triples cover the universe.
    """
    cover = x3c.universe_size // 3
    elements = x3c.universe_size
    if cover and not x3c.triples:
        raise ValidationError("a nonempty universe needs at least one triple")
    n_side = cover + elements
    men = [_lottery([[i]], n_side) for i in range(cover)]
    # the k-th order of a'_j: every b but b_k, then b'_j, then b_k
    others = [[i for i in range(cover) if i != k] for k in range(cover)]
    for j in range(elements):
        men.append(_lottery([o + [cover + j, k] for k, o in enumerate(others)], n_side))
    women = []
    for i in range(cover):
        heads = [[cover + e - 1 for e in triple] + [i] for triple in x3c.triples]
        women.append(_lottery(heads, n_side))
    women += [_lottery([[cover + j]], n_side) for j in range(elements)]
    instance = Instance(LotteryModel(men=tuple(men), women=tuple(women)))
    matching = Matching.from_pairs((i, i) for i in range(n_side))
    return instance, matching


def _normalize_clause(literals) -> tuple[str, object] | None:
    """Classify as a unit or an ordered binary clause; None for tautologies."""
    (v1, p1), (v2, p2) = literals
    if v1 == v2:
        if p1 == p2:
            return "unit", (v1, p1)
        return None
    first, second = sorted([(v1, p1), (v2, p2)])
    return "binary", (first, second)


def _simplify_formula(formula: TwoSatInstance):
    """Reduce to at most one clause per variable pair, preserving the count.

    Two clauses on a pair that share a literal force a unit; a diagonal pair
    forces an equality between the variables, and the later one is
    substituted away; three or more distinct clauses pin both variables or
    are outright contradictory. Each step keeps the number of satisfying
    assignments unchanged, eliminated variables being determined by the
    survivors. Returns (units, binary clauses, eliminated variables).
    """
    units: set[Literal] = set()
    binaries: set[tuple[Literal, Literal]] = set()
    for clause in formula.clauses:
        normalized = _normalize_clause(clause)
        if normalized is None:
            continue
        kind, payload = normalized
        if kind == "unit":
            units.add(payload)
        else:
            binaries.add(payload)
    removed: set[int] = set()

    def substitute(target: int, source: int, same_sign: bool) -> None:
        removed.add(target)

        def rewrite(literal: Literal) -> Literal:
            var, pol = literal
            if var != target:
                return literal
            return (source, pol if same_sign else not pol)

        for literal in sorted(units):
            units.discard(literal)
            units.add(rewrite(literal))
        for clause in sorted(binaries):
            binaries.discard(clause)
            normalized = _normalize_clause([rewrite(lit) for lit in clause])
            if normalized is None:
                continue
            kind, payload = normalized
            if kind == "unit":
                units.add(payload)
            else:
                binaries.add(payload)

    while True:
        by_pair: dict[tuple[int, int], list] = {}
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
                units.add((u, not a1))
            elif b1 == b2:
                units.add((v, not b1))
            else:
                substitute(v, u, same_sign=(True, True) not in vetoed)
        elif len(vetoed) == 3:
            ((a, b),) = {
                (x, y) for x in (False, True) for y in (False, True)
            } - vetoed
            units.add((u, a))
            units.add((v, b))
        else:
            units.add((u, True))
            units.add((u, False))
    return units, binaries, removed


def count2sat_to_lottery(formula: TwoSatInstance) -> tuple[Instance, Matching]:
    """Lottery instance whose designated matching is stable with probability
    s / 2^(2n), where s counts the satisfying assignments of the formula.

    Each surviving variable gets an uncertain carrier with two half-weight
    orders, one per truth value; a binary clause makes the two falsifying
    orders covet each other's carrier, so that pair blocks exactly when the
    clause is violated. A unit gets a certain admirer whom only the
    falsifying order covets back, and pinned dummy men pad the number of
    binary choices to exactly 2n. Clauses join carriers across sides, so the
    simplified clause graph must be bipartite; an odd cycle raises
    UnsupportedFormulaError.

    Agent indices follow per-side creation order: carriers with their mates
    in variable order, then admirers with their mates in literal order, then
    the dummies and their shared admirer. The CLI's output bytes depend on it.
    """
    n = formula.num_variables
    if n == 0:
        one = (_lottery([[0]], 1),)
        return Instance(LotteryModel(men=one, women=one)), Matching.from_pairs([(0, 0)])
    units, binaries, removed = _simplify_formula(formula)
    kept = sorted(set(range(n)) - removed)

    neighbors: dict[int, set[int]] = {v: set() for v in kept}
    for (u, _), (v, _) in binaries:
        neighbors[u].add(v)
        neighbors[v].add(u)
    # color[v]: the side of v's carrier
    color: dict[int, Side] = {}
    for root in kept:
        if root in color:
            continue
        color[root] = Side.MEN
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in sorted(neighbors[x]):
                if y not in color:
                    color[y] = color[x].opposite
                    queue.append(y)
                elif color[y] == color[x]:
                    raise UnsupportedFormulaError(
                        "clause graph has an odd cycle, so the carriers cannot "
                        "be split across the two sides"
                    )

    heads: dict[Side, list[list[list[int]]]] = {Side.MEN: [], Side.WOMEN: []}
    pairs: list[tuple[int, int]] = []
    carrier = {v: _couple(heads, pairs, color[v]) for v in kept}
    # tops[v][a]: opposite-side agents the a-order of v's carrier covets
    tops: dict[int, dict[bool, list[int]]] = {
        v: {True: [], False: []} for v in kept
    }
    for (u, pu), (w, pw) in sorted(binaries):
        tops[u][not pu].append(carrier[w][0])
        tops[w][not pw].append(carrier[u][0])
    for var, pol in sorted(units):
        side = color[var].opposite
        e, d = _couple(heads, pairs, side)
        heads[side][e].append([carrier[var][0], d])
        heads[side.opposite][d].append([e])
        tops[var][not pol].append(e)
    for v, (c, g) in carrier.items():
        heads[color[v]][c] += [sorted(tops[v][a]) + [g] for a in (True, False)]
        heads[color[v].opposite][g].append([c])
    dummies = [_couple(heads, pairs, Side.MEN) for _ in range(2 * n - len(kept))]
    if dummies:
        mate, admirer = _couple(heads, pairs, Side.MEN)
        heads[Side.WOMEN][admirer].append([t for t, _ in dummies] + [mate])
        heads[Side.MEN][mate].append([admirer])
        for t, h in dummies:
            heads[Side.MEN][t] += [[h], [admirer, h]]
            heads[Side.WOMEN][h].append([t])

    men, women = (
        tuple(_lottery(agent, len(heads[side.opposite])) for agent in heads[side])
        for side in (Side.MEN, Side.WOMEN)
    )
    return Instance(LotteryModel(men=men, women=women)), Matching.from_pairs(pairs)


def three_color_to_joint(graph: Graph) -> Instance:
    """Joint instance with a certainly stable matching iff the graph is
    3-colorable.

    Each vertex becomes a block of three men and three women whose base
    profile admits exactly the three cyclic block matchings, one per color.
    For every edge and color there is one extra profile in which the two
    endpoint blocks rank that color worst and a cross-block pair blocks
    exactly when both endpoints use it.
    """
    nv = graph.vertex_count
    size = 3 * nv

    def idx(i: int, j: int) -> int:
        return 3 * i + j % 3

    def base_heads() -> tuple[list[list[int]], list[list[int]]]:
        men_heads = []
        women_heads = []
        for i in range(nv):
            for j in range(3):
                men_heads.append([idx(i, j), idx(i, j + 1), idx(i, j + 2)])
                women_heads.append([idx(i, j + 1), idx(i, j + 2), idx(i, j)])
        return men_heads, women_heads

    def profile_from(men_heads, women_heads) -> Profile:
        return Profile(
            men=tuple(_order(head, size) for head in men_heads),
            women=tuple(_order(head, size) for head in women_heads),
        )

    profiles = [profile_from(*base_heads())]
    for i1, i2 in graph.edges:
        for c in range(3):
            men_heads, women_heads = base_heads()
            for j in range(3):
                men_heads[idx(i1, j)] = [
                    idx(i1, j + c - 1),
                    idx(i1, j + c + 1),
                    idx(i1, j + c),
                ]
                women_heads[idx(i1, j)] = [
                    idx(i1, j - c),
                    idx(i1, j - c - 1),
                    idx(i1, j - c + 1),
                ]
                men_heads[idx(i2, j)] = [
                    idx(i2, j + c),
                    idx(i2, j + c + 1),
                    idx(i2, j + c - 1),
                ]
                women_heads[idx(i2, j)] = [
                    idx(i2, j - c + 1),
                    idx(i2, j - c - 1),
                    idx(i2, j - c),
                ]
            men_heads[idx(i1, 0)].insert(2, idx(i2, 0))
            women_heads[idx(i2, 0)].insert(2, idx(i1, 0))
            profiles.append(profile_from(men_heads, women_heads))
    weight = Fraction(1, len(profiles))
    return Instance(JointModel(tuple((p, weight) for p in profiles)))
