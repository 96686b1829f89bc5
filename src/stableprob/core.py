"""Deterministic stable-marriage primitives.

Agents are integer indices on the two sides of a market. Preference lists may
be incomplete: candidates absent from a list are unacceptable, only mutually
acceptable pairs can block, and being unmatched is worse than having any
acceptable partner.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, permutations, product
from typing import Container, Iterable, Iterator, Sequence

from .errors import ResourceLimitError, ValidationError

DEFAULT_CAP = 10**6


@dataclass(slots=True)
class Budget:
    """At most ``cap`` units of ``what`` (None: no limit), and those used."""

    cap: int | None
    what: str
    used: int = 0

    def __post_init__(self):
        if self.cap is not None and not (_is_integer(self.cap) and self.cap >= 0):
            raise ValidationError("the cap must be None or a nonnegative integer")


def charge(budget: Budget, units: int = 1) -> None:
    """Charge ``units`` of work to ``budget``; past its cap, refuse."""
    budget.used += units
    if budget.cap is not None and budget.used > budget.cap:
        message = f"more than {budget.cap} {budget.what}; raise the cap to proceed"
        raise ResourceLimitError(message)


def _is_row(value, width: int) -> bool:
    """Whether ``value`` is a list or tuple of ``width`` items."""
    return isinstance(value, (list, tuple)) and len(value) == width


def _is_integer(value) -> bool:
    """Whether ``value`` is an int; a bool is not read as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _non_index(values) -> tuple:
    """``(v,)`` for the first of ``values`` that is not an agent index (a
    nonnegative int; a bool is not one), else ``()``. It takes a whole
    order, since a call per candidate costs as much as building the order."""
    for value in values:
        if type(value) is not int or value < 0:
            return (value,)
    return ()


class Side(Enum):
    """The two sides of the market."""

    MEN = "men"
    WOMEN = "women"

    @property
    def opposite(self) -> "Side":
        return Side.WOMEN if self is Side.MEN else Side.MEN


def _check_side(side) -> None:
    """Refuse anything but a ``Side``; a string such as "men" is not one."""
    if not isinstance(side, Side):
        raise ValidationError(f"bad side {side!r}")


@dataclass(frozen=True)
class AgentId:
    """One agent, addressed by side and index within that side."""

    side: Side
    index: int

    def __post_init__(self):
        _check_side(self.side)
        if _non_index((self.index,)):
            raise ValidationError(f"bad agent index {self.index!r}")


@dataclass(frozen=True)
class LinearOrder:
    """Strict preference list over opposite-side indices, best first.

    Candidates absent from ``ranking`` are unacceptable to the owner.
    """

    ranking: tuple[int, ...]

    def __post_init__(self):
        ranking = tuple(self.ranking)
        object.__setattr__(self, "ranking", ranking)
        if bad := _non_index(ranking):
            raise ValidationError(f"bad candidate index {bad[0]!r}")
        if len(set(ranking)) < len(ranking):
            idx = next(i for pos, i in enumerate(ranking) if ranking.index(i) < pos)
            raise ValidationError(f"candidate {idx} listed twice")

    @classmethod
    def _trusted(cls, ranking: tuple[int, ...]) -> "LinearOrder":
        """The order of ``ranking``, a tuple of distinct agent indices that
        the package has already checked; nothing is checked again. Only the
        package's own builders call it (see tests/test_source_rules.py)."""
        order = object.__new__(cls)
        object.__setattr__(order, "ranking", ranking)
        return order

    @cached_property
    def rank(self) -> dict[int, int]:
        return {idx: pos for pos, idx in enumerate(self.ranking)}

    @property
    def candidates(self) -> frozenset[int]:
        return frozenset(self.ranking)

    def accepts(self, candidate: int) -> bool:
        return candidate in self.rank

    def prefers(self, a: int, b: int) -> bool:
        """True when acceptable ``a`` ranks strictly above acceptable ``b``."""
        return self.rank[a] < self.rank[b]

    def prefers_over_partner(self, candidate: int, partner: int | None) -> bool:
        """Strictly prefers ``candidate`` to the current partner.

        ``partner is None`` means unmatched, which loses to every acceptable
        candidate. An unacceptable ``candidate`` never wins. A candidate
        that is not an int, or a partner that is not a listed candidate,
        raises ValidationError.
        """
        if type(candidate) is not int:
            raise ValidationError(f"bad candidate index {candidate!r}")
        rank = self.rank
        if partner is None:
            return candidate in rank
        theirs = rank.get(partner) if type(partner) is int else None
        if theirs is None:
            raise ValidationError(f"partner {partner!r} is not a listed candidate")
        return rank.get(candidate, theirs) < theirs


@dataclass(frozen=True)
class WeakOrder:
    """Preference with ties: a sequence of tiers, best tier first.

    Tier contents are stored sorted ascending so equal weak orders compare
    equal regardless of input order.
    """

    tiers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        tiers = []
        seen = set()
        for tier in self.tiers:
            try:
                tier = tuple(tier)
            except TypeError:  # not a collection
                raise ValidationError("each tier must be a collection of candidates") from None
            if not tier:
                raise ValidationError("empty tier in weak order")
            if bad := _non_index(tier):
                raise ValidationError(f"bad candidate index {bad[0]!r}")
            tier = tuple(sorted(tier))
            for idx in tier:
                if idx in seen:
                    raise ValidationError(f"candidate {idx} appears in two tiers")
                seen.add(idx)
            tiers.append(tier)
        object.__setattr__(self, "tiers", tuple(tiers))

    @classmethod
    def _trusted(cls, tiers) -> "WeakOrder":
        """The weak order of ``tiers``, nonempty tuples of agent indices,
        distinct across tiers, that the package has already checked; each
        tier is only sorted. Only the package's own builders call it (see
        tests/test_source_rules.py)."""
        order = object.__new__(cls)
        object.__setattr__(order, "tiers", tuple(tuple(sorted(t)) for t in tiers))
        return order

    @cached_property
    def tier_of(self) -> dict[int, int]:
        return {idx: pos for pos, tier in enumerate(self.tiers) for idx in tier}

    @property
    def candidates(self) -> frozenset[int]:
        return frozenset(self.tier_of)

    def accepts(self, candidate: int) -> bool:
        return candidate in self.tier_of

    def is_strict(self) -> bool:
        return all(len(tier) == 1 for tier in self.tiers)

    def beats(self, partner: int | None) -> dict[int, bool | None]:
        """The candidates ranked above ``partner`` (None: unmatched) in some
        linear extension, in tier order and ascending within a tier, each
        mapped to True if it beats the partner in every extension (a better
        tier) or None if only in those whose tie-break puts it first (a
        tier-mate). Unmatched, every candidate maps to True. This is the
        compact tie rule, the counterpart of ``AgentLottery.beats``; nothing
        is cached, since each caller asks once per agent. A partner that is
        not a listed candidate raises ValidationError."""
        if partner is None:
            return dict.fromkeys(self.tier_of, True)
        pos = self.tier_of.get(partner) if type(partner) is int else None
        if pos is None:
            raise ValidationError(f"partner {partner!r} is not a listed candidate")
        view = dict.fromkeys(chain.from_iterable(self.tiers[:pos]), True)
        for mate in self.tiers[pos]:
            if mate != partner:
                view[mate] = None
        return view

    def prefers_over_partner(self, candidate: int, partner: int | None) -> bool | None:
        """Whether ``candidate`` beats the current partner in every linear
        extension (True), in none (False), or only in those whose tie-break
        puts it first (None: the two share a tier, the partner with itself
        included): the candidate's entry in ``beats(partner)``, so each call
        builds that view and costs time linear in the list.

        The truthiness is strict preference, as for ``LinearOrder``:
        ``partner is None`` means unmatched, which loses to every acceptable
        candidate, and an unacceptable ``candidate`` never wins. A candidate
        that is not an int, or a partner that is not a listed candidate,
        raises ValidationError.
        """
        if type(candidate) is not int:
            raise ValidationError(f"bad candidate index {candidate!r}")
        # the partner shares its own tier but is absent from its own view
        absent = None if partner is not None and candidate == partner else False
        return self.beats(partner).get(candidate, absent)

    def count_linear_extensions(self) -> int:
        return math.prod(math.factorial(len(tier)) for tier in self.tiers)

    def linear_extensions(self) -> Iterator[LinearOrder]:
        """All strict orders refining this weak order, deterministic order."""
        pools = [permutations(tier) for tier in self.tiers]
        for combo in product(*pools):
            yield LinearOrder._trusted(tuple(idx for block in combo for idx in block))


def _partners(matching: Matching, n_men: int, n_women: int) -> list[int | None]:
    """Per agent id (men first, then women), the agent's partner in
    ``matching`` (None: unmatched)."""
    partners = [matching.partner_of_man(m) for m in range(n_men)]
    return partners + [matching.partner_of_woman(w) for w in range(n_women)]


def _pair_masks(views, n_men: int):
    """Yield (man id, woman id, his, hers) for each pair listed in both
    members' views: the one pairing of a man's view with a woman's.
    ``views`` holds, per agent id (men first, then women), a dict from
    candidate to the agent's entry (a pick mask, or a ``beats`` stance:
    True, or None for a tie), and his and hers are the two entries. Pairs
    come by man, each in his view's order, not sorted. Listing decides, not
    the entry, since a stance may be None.

    On the agents' ``beats`` views against their partners
    (``models._views``), a pair is listed in both iff it very weakly
    blocks: a matching is certainly stable iff the walk yields nothing, and
    weakly stable iff no pair it yields has both stances True."""
    for m in range(n_men):
        for w, his in views[m].items():
            hers = views[n_men + w]
            if m in hers:
                yield m, n_men + w, his, hers[m]


def _check_lists(men: Sequence, women: Sequence, kind: type, listed: str) -> None:
    """Reject a preference that is not a ``kind``, and a candidate outside
    the other side; each order's attribute ``listed`` yields its candidates,
    best first, so the first such candidate is the one named."""
    for label, orders, limit in (("man", men, len(women)), ("woman", women, len(men))):
        for i, order in enumerate(orders):
            if not isinstance(order, kind):
                raise ValidationError(f"{label} {i} has a non-order preference")
            for idx in getattr(order, listed):
                if idx >= limit:
                    raise ValidationError(
                        f"{label} {i} ranks out-of-range candidate {idx}"
                    )


@dataclass(frozen=True)
class Profile:
    """One strict preference list per agent on each side: a realization."""

    men: tuple[LinearOrder, ...]
    women: tuple[LinearOrder, ...]

    def __post_init__(self):
        object.__setattr__(self, "men", tuple(self.men))
        object.__setattr__(self, "women", tuple(self.women))
        _check_lists(self.men, self.women, LinearOrder, "ranking")

    @property
    def n_men(self) -> int:
        return len(self.men)

    @property
    def n_women(self) -> int:
        return len(self.women)

    def order_of(self, agent: AgentId) -> LinearOrder:
        orders = self.men if agent.side is Side.MEN else self.women
        return orders[agent.index]

    def transposed(self) -> "Profile":
        return Profile(men=self.women, women=self.men)


@dataclass(frozen=True)
class Matching:
    """A set of (man, woman) pairs using each agent at most once."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        rows = tuple(self.pairs)
        if not all(_is_row(row, 2) for row in rows):
            raise ValidationError("each matching pair must be a (man, woman) pair")
        men = [m for m, _ in rows]
        women = [w for _, w in rows]
        if bad := _non_index(men + women):
            raise ValidationError(f"bad agent index {bad[0]!r} in matching")
        pairs = frozenset(zip(men, women))
        object.__setattr__(self, "pairs", pairs)
        # a repeated pair counts once, so each agent is in one pair iff
        # there are as many distinct agents as distinct pairs
        if len(set(men)) != len(pairs):
            raise ValidationError("a man appears in two pairs")
        if len(set(women)) != len(pairs):
            raise ValidationError("a woman appears in two pairs")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Matching":
        return cls(pairs)

    @cached_property
    def man_to_woman(self) -> dict[int, int]:
        return {m: w for m, w in self.pairs}

    @cached_property
    def woman_to_man(self) -> dict[int, int]:
        return {w: m for m, w in self.pairs}

    def partner_of_man(self, m: int) -> int | None:
        return self.man_to_woman.get(m)

    def partner_of_woman(self, w: int) -> int | None:
        return self.woman_to_man.get(w)

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)

    def transposed(self) -> "Matching":
        return Matching.from_pairs((w, m) for m, w in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def _check_matching(men: Sequence, women: Sequence, matching: Matching) -> None:
    """Reject out-of-range agents and pairs that are not mutually acceptable.

    ``men`` and ``women`` hold, per agent, the candidates it accepts in a
    container read with ``in``: a set, or an order's rank table.
    """
    for m, w in matching.pairs:
        if m >= len(men) or w >= len(women):
            raise ValidationError(f"pair ({m}, {w}) references unknown agents")
        if w not in men[m] or m not in women[w]:
            raise ValidationError(f"pair ({m}, {w}) is not mutually acceptable")


def validate_matching(profile: Profile, matching: Matching) -> None:
    """Reject out-of-range agents and pairs that are not mutually acceptable."""
    men, women = profile.men, profile.women
    _check_matching([o.rank for o in men], [o.rank for o in women], matching)


def iter_blocking_pairs(
    profile: Profile, matching: Matching
) -> Iterator[tuple[int, int]]:
    validate_matching(profile, matching)
    for m in range(profile.n_men):
        order = profile.men[m]
        mu_m = matching.partner_of_man(m)
        # women m strictly prefers over his current situation form a prefix
        better = order.ranking if mu_m is None else order.ranking[: order.rank[mu_m]]
        for w in better:
            if profile.women[w].prefers_over_partner(m, matching.partner_of_woman(w)):
                yield (m, w)


def blocking_pairs(profile: Profile, matching: Matching) -> list[tuple[int, int]]:
    """All pairs that would both rather be together, sorted by index."""
    return sorted(iter_blocking_pairs(profile, matching))


def is_stable(profile: Profile, matching: Matching) -> bool:
    """True iff no mutually acceptable pair blocks the matching."""
    return next(iter_blocking_pairs(profile, matching), None) is None


def deferred_acceptance(
    lists: dict[int, list[int]],
    ranks,
    held: dict[int, int] | None = None,
    next_choice: dict[int, int] | None = None,
    closed: Container[int] = (),
) -> dict[int, int]:
    """Receiver -> proposer pairs at the end of deferred acceptance.

    ``lists`` maps each proposer to the receivers it proposes to, best
    first; every receiver on a list must accept that proposer.
    ``ranks[r][p]`` is receiver r's rank of proposer p, lower is better.
    The result is the proposer-optimal stable matching, whatever order the
    proposals are made in.

    A round resumes from the state an earlier one left: ``held``, its
    receiver -> proposer pairs, and ``next_choice``, each proposer's next
    position on its list, both updated in place; the result is ``held``.
    Every proposer that holds no receiver proposes on from its position,
    skipping the receivers in ``closed``. A fresh round is the resume from
    the empty state (``held`` None). Take receivers out of a finished round
    by deleting their pairs from ``held`` and listing them in ``closed``:
    the resumed round equals a fresh one on the lists without them. Replay
    the earlier proposals minus those to the removed receivers; every other
    receiver sees the same proposals in the same order, so this is a valid
    run on the shorter lists that stops where the resume starts, and the
    order of proposals does not matter (McVitie and Wilson, 1971).
    """
    if held is None:
        held, next_choice = {}, dict.fromkeys(lists, 0)
    holding = set(held.values())
    free = [p for p in lists if p not in holding]
    while free:
        p = free.pop()
        order, i = lists[p], next_choice[p]
        while i < len(order):
            r = order[i]
            i += 1
            if r in closed:
                continue
            cur = held.get(r)
            if cur is None or ranks[r][p] < ranks[r][cur]:
                held[r] = p
                if cur is not None:
                    free.append(cur)
                break
        # list exhausted without acceptance: p stays unmatched
        next_choice[p] = i
    return held


def gale_shapley(profile: Profile, proposing_side: Side = Side.MEN) -> Matching:
    """Deferred acceptance; returns the proposing side's optimal stable matching."""
    _check_side(proposing_side)
    if proposing_side is Side.MEN:
        proposers, receivers = profile.men, profile.women
    else:
        proposers, receivers = profile.women, profile.men
    held = deferred_acceptance(
        {
            p: [r for r in order.ranking if receivers[r].accepts(p)]
            for p, order in enumerate(proposers)
        },
        [order.rank for order in receivers],
    )
    if proposing_side is Side.MEN:
        pairs = ((p, r) for r, p in held.items())
    else:
        pairs = ((r, p) for r, p in held.items())
    return Matching.from_pairs(pairs)


def _successor_edges(profile: Profile, matching: Matching) -> dict[int, tuple[int, int]]:
    """Map each matched man m to (s(m), partner of s(m)) when defined.

    s(m) is the first woman below mu(m) on m's list who accepts m, is matched
    and prefers m to her partner; women who do not list m are skipped, as if
    lists were cut to mutually acceptable pairs. The scan stops at an
    unmatched acceptable woman: she is unmatched in every stable matching,
    so all of m's stable partners, and in particular every rotation target,
    rank above her.
    """
    edges: dict[int, tuple[int, int]] = {}
    for m in sorted(matching.man_to_woman):
        order = profile.men[m]
        start = order.rank[matching.man_to_woman[m]] + 1
        for w in order.ranking[start:]:
            if not profile.women[w].accepts(m):
                continue
            holder = matching.partner_of_woman(w)
            if holder is None:
                break
            if profile.women[w].prefers(m, holder):
                edges[m] = (w, holder)
                break
    return edges


def _cycles(edges: dict[int, tuple[int, int]]) -> list[list[int]]:
    """Cycles of the functional graph m -> partner of s(m)."""
    cycles = []
    done: set[int] = set()
    for start in sorted(edges):
        if start in done:
            continue
        path: list[int] = []
        pos: dict[int, int] = {}
        cur = start
        while cur in edges and cur not in done and cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            cur = edges[cur][1]
        if cur in pos:
            cycles.append(path[pos[cur]:])
        done.update(path)
    return cycles


def _eliminate(matching: Matching, cycle: list[int], edges) -> Matching:
    pairs = set(matching.pairs)
    for m in cycle:
        pairs.discard((m, matching.man_to_woman[m]))
    for m in cycle:
        pairs.add((m, edges[m][0]))
    return Matching.from_pairs(pairs)


def enumerate_stable_matchings(
    profile: Profile, cap: int | None = DEFAULT_CAP
) -> list[Matching]:
    """All stable matchings, each exactly once, sorted by pair list.

    Walks the stable-matching lattice breadth first from the man-optimal
    matching, eliminating each exposed rotation (Gusfield and Irving, The
    Stable Marriage Problem, 1989, section 2.5), so the work grows with the
    number of stable matchings rather than of partial matchings. More than
    ``cap`` stable matchings (None for no limit) raises ResourceLimitError.

    Every child is stable, so none is checked. Let M be stable and let a
    cycle m_0 .. m_{r-1} of ``_successor_edges`` move each m_i from
    w_i = M(m_i) to w_{i+1} = s(m_i); every pair of the child M' is
    mutually acceptable. Each w_{i+1} prefers m_i to m_{i+1}, so no woman
    is worse off in M'. Take a mutually acceptable (m, w) that blocks M'.
    A man outside the cycle keeps M(m), so (m, w) would block M. For
    m = m_i, w ranks above s(m_i): if w ranks above w_i, (m, w) blocks M;
    w_i holds m_{i-1}, whom she prefers to m_i; and a w between w_i and
    s(m_i) was passed over by the scan, so she is matched in M (an
    unmatched one stops the scan) and prefers M(w), and so M'(w), to m.
    """
    budget = Budget(cap, "stable matchings")
    charge(budget)
    root = gale_shapley(profile, Side.MEN)
    found = {root.pairs: root}
    queue = deque([root])
    while queue:
        current = queue.popleft()
        edges = _successor_edges(profile, current)
        for cycle in _cycles(edges):
            child = _eliminate(current, cycle, edges)
            if child.pairs in found:
                continue
            charge(budget)
            found[child.pairs] = child
            queue.append(child)
    return sorted(found.values(), key=Matching.sorted_pairs)


def is_weakly_stable(
    men: Sequence[WeakOrder], women: Sequence[WeakOrder], matching: Matching
) -> bool:
    """True iff no pair strictly prefers each other over their partners.

    Ties never block: a pair where either member is merely indifferent is not
    weakly blocking.
    """
    _check_lists(men, women, WeakOrder, "tier_of")
    _check_matching([o.tier_of for o in men], [o.tier_of for o in women], matching)
    partners = _partners(matching, len(men), len(women))
    views = [order.beats(p) for order, p in zip(chain(men, women), partners)]
    return not any(his and hers for _, _, his, hers in _pair_masks(views, len(men)))
