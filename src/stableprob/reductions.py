"""Generators that encode classic decision problems as matching instances.

Three encodings are provided: exact cover by 3-sets and counting for 2-CNF
formulas both target the lottery model with a designated matching, and graph
3-colorability targets the joint model. They are used to stress the decision
and counting routines against independent ground truths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import LinearOrder, Matching, Profile, Side, _is_integer, _is_row
from .errors import ValidationError
from .models import AgentLottery, Instance, JointModel, LotteryModel, _head_first
from .probability import TwoSatInstance

Literal = tuple[int, bool]


class UnsupportedFormulaError(ValidationError):
    """The formula's clause structure cannot be carried by this encoding."""


def _integer_rows(rows, width: int, label: str) -> tuple:
    """``rows`` as a tuple of tuples, once every row is checked to be a list
    or tuple of ``width`` integers (bools excluded)."""
    if not isinstance(rows, (list, tuple)) or not all(
        _is_row(row, width) and all(map(_is_integer, row)) for row in rows
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
        if not _is_integer(self.universe_size):
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
        if not _is_integer(self.vertex_count):
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


def _lottery(heads: list[list[int]], total: int) -> AgentLottery:
    """Equal weights on the orders that rank each head first, then the rest
    ascending; identical orders merge."""
    weight = Fraction(1, len(heads))
    orders = [LinearOrder._trusted(_head_first(head, total)) for head in heads]
    return AgentLottery(tuple((order, weight) for order in orders))


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


_CELLS = frozenset((a, b) for a in (False, True) for b in (False, True))


def _vetoed_cells(formula: TwoSatInstance):
    """Reduce to at most one vetoed cell per variable pair, keeping the count.

    A clause (v1, p1) or (v2, p2) on two variables vetoes the cell
    (not p1, not p2) of their pair, the smaller variable's value first; on
    one variable it is a unit or a tautology. While some pair vetoes two or
    more cells, the smallest such pair is cleared: two cells in a line
    force a unit; two diagonal cells make the later variable equal to the
    earlier one or to its negation, and it is substituted away; three cells
    pin both variables and four are a contradiction. Each step keeps the
    number of satisfying assignments, eliminated variables being
    determined by the survivors. Returns (units, the one vetoed cell of
    each remaining pair, eliminated variables).
    """
    units: set[Literal] = set()
    table: dict[tuple[int, int], set[tuple[bool, bool]]] = {}

    def veto(x: int, a: bool, y: int, b: bool) -> None:
        if x > y:
            x, a, y, b = y, b, x, a
        table.setdefault((x, y), set()).add((a, b))

    for (v1, p1), (v2, p2) in formula.clauses:
        if v1 != v2:
            veto(v1, not p1, v2, not p2)
        elif p1 == p2:
            units.add((v1, p1))
    removed: set[int] = set()
    while crowded := [pair for pair, cells in table.items() if len(cells) > 1]:
        u, v = min(crowded)
        cells = table.pop((u, v))
        if len(cells) == 2:
            (a1, b1), (a2, b2) = cells
            if a1 == a2:
                units.add((u, not a1))
            elif b1 == b2:
                units.add((v, not b1))
            else:
                # v is u, or not u when both variables may not be true
                flip = (True, True) in cells
                removed.add(v)
                units = {(u, p != flip) if x == v else (x, p) for x, p in units}
                for x, y in [pair for pair in table if v in pair]:
                    for a, b in table.pop((x, y)):
                        if x == v:
                            veto(u, a != flip, y, b)
                        else:
                            veto(x, a, u, b != flip)
        elif len(cells) == 3:
            ((a, b),) = _CELLS - cells
            units |= {(u, a), (v, b)}
        else:
            units |= {(u, True), (u, False)}
    return units, {pair: cell for pair, (cell,) in table.items()}, removed


def count2sat_to_lottery(formula: TwoSatInstance) -> tuple[Instance, Matching]:
    """Lottery instance whose designated matching is stable with probability
    s / 2^(2n), where s counts the satisfying assignments of the formula.

    Each surviving variable gets an uncertain carrier with two half-weight
    orders, one per truth value; a binary clause makes the two falsifying
    orders covet each other's carrier, so that pair blocks exactly when the
    clause is violated. A unit gets a certain admirer whom only the
    falsifying order covets back, and pinned dummy men pad the number of
    binary choices to exactly 2n. Clauses join carriers across sides, so the
    clause graph that ``_vetoed_cells`` leaves must be bipartite; an odd
    cycle raises UnsupportedFormulaError.

    Agent indices follow per-side creation order: carriers with their mates
    in variable order, then admirers with their mates in literal order, then
    the dummies and their shared admirer. The CLI's output bytes depend on it.
    """
    n = formula.num_variables
    if n == 0:
        one = (_lottery([[0]], 1),)
        return Instance(LotteryModel(men=one, women=one)), Matching.from_pairs([(0, 0)])
    units, cells, removed = _vetoed_cells(formula)
    kept = [v for v in range(n) if v not in removed]

    neighbors: dict[int, set[int]] = {v: set() for v in kept}
    for u, w in cells:
        neighbors[u].add(w)
        neighbors[w].add(u)
    # color[v]: the side of v's carrier; a connected bipartite graph has one
    # 2-coloring once its smallest variable is a man
    color: dict[int, Side] = {}
    for root in kept:
        if root in color:
            continue
        color[root] = Side.MEN
        stack = [root]
        while stack:
            x = stack.pop()
            for y in neighbors[x]:
                if y not in color:
                    color[y] = color[x].opposite
                    stack.append(y)
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
    for (u, w), (a, b) in cells.items():
        tops[u][a].append(carrier[w][0])
        tops[w][b].append(carrier[u][0])
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
    size = 3 * graph.vertex_count

    def block(i: int, offsets: tuple[int, ...], sign: int = 1) -> list[list[int]]:
        """The heads of block i: its agent j ranks 3i + (j + sign * o) % 3
        for each offset o, in order."""
        return [[3 * i + (j + sign * o) % 3 for o in offsets] for j in range(3)]

    def profile(men_heads, women_heads) -> Profile:
        men, women = (
            tuple(LinearOrder._trusted(_head_first(h, size)) for h in heads)
            for heads in (men_heads, women_heads)
        )
        return Profile(men=men, women=women)

    base_men, base_women = (
        [head for i in range(graph.vertex_count) for head in block(i, offsets)]
        for offsets in ((0, 1, 2), (1, 2, 0))
    )
    profiles = [profile(base_men, base_women)]
    for i1, i2 in graph.edges:
        for c in range(3):
            first, second = (c - 1, c + 1, c), (c, c + 1, c - 1)
            men, women = base_men[:], base_women[:]
            # i1's men and i2's women take the first rotation; i1's first
            # man and i2's first woman rank each other third
            for heads, sign, x, y in ((men, 1, i1, i2), (women, -1, i2, i1)):
                heads[3 * x : 3 * x + 3] = block(x, first, sign)
                heads[3 * y : 3 * y + 3] = block(y, second, sign)
                heads[3 * x].insert(2, 3 * y)
            profiles.append(profile(men, women))
    weight = Fraction(1, len(profiles))
    return Instance(JointModel(tuple((p, weight) for p in profiles)))
