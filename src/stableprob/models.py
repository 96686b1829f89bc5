"""The three preference-uncertainty models and their shared plumbing.

A market instance wraps one payload:

- lottery: per agent, a distribution over strict orders (independent draws);
- compact: per agent, a weak order whose linear extensions are equally likely
  (ties broken independently per agent);
- joint: one distribution over whole preference profiles.

All probabilities are exact rationals end to end. Acceptability must be
mutual and identical across every realization of an instance; the JSON layer
intersects one-sided listings before building models.

The public constructors validate strictly. The unchecked ``_trusted``
constructors of ``LinearOrder``, ``WeakOrder``, ``AgentLottery`` and
``Instance`` skip what the package has already proved of their input; only
the builders listed in tests/test_source_rules.py call them, never on a
caller's own values.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from operator import attrgetter, lt
from typing import Container, Iterable, Union

from .core import (
    DEFAULT_CAP,
    AgentId,
    Budget,
    LinearOrder,
    Matching,
    Profile,
    Side,
    WeakOrder,
    _check_matching,
    _check_side,
    _is_integer,
    _is_row,
    _non_index,
    _partners,
    charge,
)
from .errors import ValidationError

ONE = Fraction(1)


def _bad_probability(value) -> ValidationError:
    """The error for an unparsable probability, echoing at most a short
    prefix of the value."""
    shown = repr(value)
    if len(shown) > 40:
        shown = shown[:40] + "..."
    return ValidationError(f"bad probability {shown}")


def as_probability(value) -> Fraction:
    """Exact probability from Fraction, int, or a "p/q" / decimal string.

    Floats go through their shortest decimal representation so that 0.4
    means exactly 2/5. A decimal exponent may not exceed the int-to-str
    digit limit in magnitude, the bound Python already puts on the digit
    strings themselves, because ``Fraction`` computes ``10 ** exponent``.

    A ``Fraction`` in [0, 1] returns after integer compares; every other
    value, and every error, takes the general route below.
    """
    if isinstance(value, Fraction):
        if 0 <= value.numerator <= value.denominator:
            return value
        prob = value
    elif isinstance(value, bool):
        raise _bad_probability(value)
    elif isinstance(value, int):
        prob = Fraction(value)
    elif isinstance(value, (float, str)):
        text = str(value)
        _, marker, exponent = text.lower().partition("e")
        limit = sys.get_int_max_str_digits() or math.inf  # 0 means no limit
        try:
            exp = int(exponent) if marker else 0
            prob = Fraction(text) if abs(exp) <= limit else None
        except (ValueError, ZeroDivisionError) as exc:
            raise _bad_probability(value) from exc
        if prob is None:
            if exp > 0:  # even the smallest nonzero mantissa exceeds 1
                raise ValidationError("probability outside [0, 1]")
            raise ValidationError(f"probability exponent below -{limit}")
    else:
        raise _bad_probability(value)
    if not 0 <= prob <= 1:
        try:
            shown = str(prob)
        except ValueError:  # more digits than int-to-str conversion allows
            raise ValidationError("probability outside [0, 1]") from None
        raise ValidationError(f"probability {shown} outside [0, 1]")
    return prob


def format_probability(prob: Fraction) -> str:
    return f"{prob.numerator}/{prob.denominator}" if prob.denominator != 1 else str(prob.numerator)


@dataclass(frozen=True)
class AgentLottery:
    """One agent's distribution over strict orders.

    Duplicate orders are merged by summing weights; the support is stored
    sorted by ranking for canonical equality. All orders must list the same
    candidate set, so acceptability is certain even when the order is not.

    Every query reads the agent through the support's weight record (see
    ``_set_support``: ``scale``, ``numerators`` and ``thresholds``) and
    through ``beats(partner)``, the agent's pick table against one partner,
    built on the first query with that partner; all are kept on the object
    outside its equality, hash and repr. The agent keeps at most one table
    per partner, so at most (candidates + 1) tables. A table is shared by
    every caller, and no caller may mutate it.
    """

    support: tuple[tuple[LinearOrder, Fraction], ...]
    scale: int = field(init=False, repr=False, compare=False)
    numerators: tuple[int, ...] = field(init=False, repr=False, compare=False)
    thresholds: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _beats: dict = field(init=False, repr=False, compare=False)  # partner -> table

    def __post_init__(self):
        _set_support(self, "support", LinearOrder, "lottery", attrgetter("ranking"))
        if len({order.candidates for order, _ in self.support}) != 1:
            raise ValidationError("all support orders must rank the same candidates")
        object.__setattr__(self, "_beats", {})

    @classmethod
    def _trusted(cls, support) -> "AgentLottery":
        """The lottery over ``support``, a nonempty tuple of (order, Fraction
        in [0, 1]) pairs whose orders the package has already checked to
        rank the same candidates. The weights are still merged and checked
        to be positive and to sum to 1. Only the package's own builders call
        it (see tests/test_source_rules.py)."""
        agent = object.__new__(cls)
        object.__setattr__(agent, "support", support)
        _set_support(
            agent, "support", LinearOrder, "lottery", attrgetter("ranking"), True
        )
        object.__setattr__(agent, "_beats", {})
        return agent

    def beats(self, partner: int | None) -> dict[int, int]:
        """Per candidate, the bitmask of support orders that rank it above
        ``partner`` (None: unmatched); candidates above it in no order are
        absent. A partner that is not a listed candidate raises
        ValidationError; its membership is checked only when its table is
        built."""
        if partner is not None and type(partner) is not int:
            raise ValidationError(f"partner {partner!r} is not a listed candidate")
        table = self._beats.get(partner)
        if table is None:
            if partner is not None and partner not in self.support[0][0].ranking:
                raise ValidationError(f"partner {partner!r} is not a listed candidate")
            table = {}
            for i, (order, _) in enumerate(self.support):
                # a scan: building ``order.rank`` costs more than one lookup
                ranking = order.ranking
                if partner is not None:
                    ranking = ranking[: ranking.index(partner)]
                for candidate in ranking:
                    table[candidate] = table.get(candidate, 0) | 1 << i
            self._beats[partner] = table
        return table

    @classmethod
    def certain(cls, order: LinearOrder) -> "AgentLottery":
        return cls(((order, ONE),))

    @property
    def candidates(self) -> frozenset[int]:
        return self.support[0][0].candidates

    def is_certain(self) -> bool:
        return len(self.support) == 1


def _set_sides(model, kind: type, label: str) -> None:
    """Store ``model``'s two sides as tuples, once every entry is checked to
    be a ``kind``; ``label`` names the model and ``kind`` the entry type in
    the error."""
    for side in ("men", "women"):
        entries = tuple(getattr(model, side))
        if not all(isinstance(entry, kind) for entry in entries):
            raise ValidationError(
                f"{label} model entries must be of type {kind.__name__}"
            )
        object.__setattr__(model, side, entries)


def _set_support(
    owner, name: str, entry_type: type, label: str, key, trusted: bool = False
) -> None:
    """Store ``owner``'s weighted support, its attribute ``name``, as the
    (entry, weight) pairs with equal entries' weights summed, sorted by
    ``key(entry)``, and with it the support's weight record:

    - ``scale``, the lcm of the weights' denominators;
    - ``numerators``, each weight times ``scale``;
    - ``thresholds``, the running float sums of the weights, the last one
      dropped. A roll picks entry ``bisect_right(thresholds, roll)``: the
      first whose running sum exceeds it, else the last. Every weighted
      draw in the package maps its ``rng.random()`` through these.

    The support must be a list or tuple of such pairs, every entry an
    ``entry_type`` with a positive weight, and the weights must sum to
    exactly 1; ``label`` names the support in the errors. A ``trusted``
    support, built by the package from checked values, is known to be such
    pairs with ``Fraction`` weights in [0, 1]; only the checks from the
    positive weights on run.
    """
    support = getattr(owner, name)
    if not trusted and (
        not isinstance(support, (list, tuple))
        or not all(_is_row(item, 2) for item in support)
    ):
        raise ValidationError(
            f"{label} support must be an array of (entry, weight) pairs"
        )
    merged: dict = {}
    for entry, weight in support:
        if not trusted:
            if not isinstance(entry, entry_type):
                raise ValidationError(
                    f"{label} support must contain {entry_type.__name__} entries"
                )
            weight = as_probability(weight)
        if weight == 0:
            raise ValidationError(f"{label} weights must be positive")
        merged[entry] = merged[entry] + weight if entry in merged else weight
    if not merged:
        raise ValidationError(f"empty {label} support")
    pairs = tuple(sorted(merged.items(), key=lambda item: key(item[0])))
    # set here, not as cached properties: through Python 3.11 those take a
    # lock on first use, which costs more than the lcm itself
    scale = math.lcm(*(w.denominator for _, w in pairs))
    numerators = tuple(w.numerator * (scale // w.denominator) for _, w in pairs)
    if sum(numerators) != scale:
        raise ValidationError(f"{label} weights must sum to exactly 1")
    # n / scale is float(weight): both round the same rational correctly
    thresholds = tuple(accumulate(n / scale for n in numerators))[:-1]
    object.__setattr__(owner, name, pairs)
    object.__setattr__(owner, "scale", scale)
    object.__setattr__(owner, "numerators", numerators)
    object.__setattr__(owner, "thresholds", thresholds)


@dataclass(frozen=True)
class LotteryModel:
    men: tuple[AgentLottery, ...]
    women: tuple[AgentLottery, ...]

    def __post_init__(self):
        _set_sides(self, AgentLottery, "lottery")


@dataclass(frozen=True)
class CompactModel:
    men: tuple[WeakOrder, ...]
    women: tuple[WeakOrder, ...]

    def __post_init__(self):
        _set_sides(self, WeakOrder, "compact")


@dataclass(frozen=True)
class JointModel:
    """A distribution over whole profiles; the one dependent model.

    Duplicate profiles are merged and the profiles stored sorted by their
    rankings, with the weight record of ``_set_support`` kept outside
    equality, hash and repr, as for ``AgentLottery``.
    """

    profiles: tuple[tuple[Profile, Fraction], ...]
    scale: int = field(init=False, repr=False, compare=False)
    numerators: tuple[int, ...] = field(init=False, repr=False, compare=False)
    thresholds: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        def key(profile: Profile) -> tuple:
            return tuple(order.ranking for order in profile.men + profile.women)

        _set_support(self, "profiles", Profile, "joint", key)
        if len({(p.n_men, p.n_women) for p, _ in self.profiles}) != 1:
            raise ValidationError("all profiles must have the same agent counts")
        lists = {tuple(o.candidates for o in p.men + p.women) for p, _ in self.profiles}
        if len(lists) != 1:
            raise ValidationError("acceptability must not vary across profiles")


ModelPayload = Union[LotteryModel, CompactModel, JointModel]


def _check_mutual(men, women) -> None:
    """Reject a listed candidate outside the market or one who does not list
    back; ``men`` and ``women`` hold each agent's acceptable candidates."""
    for label, other, mine, theirs in (
        ("man", "woman", men, women),
        ("woman", "man", women, men),
    ):
        for i, accepted in enumerate(mine):
            for j in accepted:
                if not 0 <= j < len(theirs):
                    raise ValidationError(f"{label} {i} ranks unknown {other} {j}")
                if i not in theirs[j]:
                    raise ValidationError(
                        f"{label} {i} lists {other} {j} but not vice versa; "
                        "acceptability must be mutual"
                    )


@dataclass(frozen=True)
class Instance:
    """A market with one of the three uncertainty payloads."""

    model: ModelPayload

    def __post_init__(self):
        self.kind  # rejects unknown payload types up front
        _check_mutual(self.acceptable_men, self.acceptable_women)

    @classmethod
    def _trusted(cls, model: ModelPayload) -> "Instance":
        """The instance of ``model``, a payload the package has built with
        mutual acceptability; ``_check_mutual`` does not run. Only the
        package's own builders call it (see tests/test_source_rules.py)."""
        instance = object.__new__(cls)
        object.__setattr__(instance, "model", model)
        return instance

    @property
    def kind(self) -> str:
        if isinstance(self.model, LotteryModel):
            return "lottery"
        if isinstance(self.model, CompactModel):
            return "compact"
        if isinstance(self.model, JointModel):
            return "joint"
        raise ValidationError(f"unknown model payload {type(self.model).__name__}")

    @cached_property
    def _view(self):
        """The payload, or a joint model's first profile: one entry per agent."""
        if isinstance(self.model, JointModel):
            return self.model.profiles[0][0]
        return self.model

    @property
    def n_men(self) -> int:
        return len(self._view.men)

    @property
    def n_women(self) -> int:
        return len(self._view.women)

    @cached_property
    def entries(self) -> tuple:
        """One entry per agent, indexed by agent id.

        Man m has id m and woman w has id ``n_men + w``; every per-agent
        list in the package that is indexed by id follows this convention.
        The entry is a lottery agent's ``AgentLottery``, a compact agent's
        ``WeakOrder``, or a joint agent's order in the first profile, which
        is read for acceptability only.
        """
        return self._view.men + self._view.women

    def index(self, agent: AgentId) -> int:
        """The agent's id in ``entries``; a value that is no ``AgentId``, or
        an agent outside the market, raises ValidationError."""
        if not isinstance(agent, AgentId):
            raise ValidationError(f"not an agent: {agent!r}")
        if agent.side is Side.MEN:
            size, offset = self.n_men, 0
        else:
            size, offset = self.n_women, self.n_men
        if agent.index >= size:
            raise ValidationError(f"unknown agent {agent}")
        return offset + agent.index

    @cached_property
    def acceptable_men(self) -> tuple[frozenset[int], ...]:
        """Per man, the set of women acceptable to him (constant across realizations)."""
        return tuple(entry.candidates for entry in self._view.men)

    @cached_property
    def acceptable_women(self) -> tuple[frozenset[int], ...]:
        return tuple(entry.candidates for entry in self._view.women)

    @cached_property
    def uncertain(self) -> tuple[bool, ...]:
        """Per agent id, whether more than one order is realizable for the agent."""
        model = self.model
        if isinstance(model, JointModel):
            columns = zip(*(p.men + p.women for p, _ in model.profiles))
            return tuple(len(set(column)) > 1 for column in columns)
        if isinstance(model, LotteryModel):
            return tuple(not entry.is_certain() for entry in self.entries)
        return tuple(not entry.is_strict() for entry in self.entries)

    def acceptable(self, agent: AgentId) -> frozenset[int]:
        return self.entries[self.index(agent)].candidates

    def is_complete(self) -> bool:
        return all(len(a) == self.n_women for a in self.acceptable_men) and all(
            len(a) == self.n_men for a in self.acceptable_women
        )

    def validate_matching(self, matching: Matching) -> None:
        _check_matching(self.acceptable_men, self.acceptable_women, matching)

    def transposed(self) -> "Instance":
        model = self.model
        if isinstance(model, JointModel):
            flipped = tuple((p.transposed(), weight) for p, weight in model.profiles)
            return Instance(JointModel(flipped))
        return Instance(type(model)(men=model.women, women=model.men))

    def agents(self) -> Iterable[AgentId]:
        """Every agent, in id order."""
        for m in range(self.n_men):
            yield AgentId(Side.MEN, m)
        for w in range(self.n_women):
            yield AgentId(Side.WOMEN, w)


def _split(instance: Instance, per_id, cls=Profile):
    """``cls(men=..., women=...)`` from a sequence indexed by agent id."""
    n_men = instance.n_men
    return cls(men=per_id[:n_men], women=per_id[n_men:])


def _views(market, matching: Matching) -> list[dict]:
    """Per agent id, the agent's ``beats`` view against its partner: a
    lottery agent's pick masks (``AgentLottery.beats``), a compact agent's
    stances (``WeakOrder.beats``), or a partial-order agent's
    (``PartialOrder.beats``). ``market`` is an independent-model
    ``Instance`` or an ``SmpInstance``; ``core._pair_masks`` pairs the
    views."""
    pairs = zip(market.entries, _partners(matching, market.n_men, market.n_women))
    return [entry.beats(partner) for entry, partner in pairs]


@dataclass(frozen=True)
class PartialOrder:
    """A strict partial order over one agent's acceptable candidates.

    ``strictly_before`` holds (a, b) pairs meaning a is ranked above b in
    every realization. Irreflexivity, antisymmetry, and transitivity are
    validated on construction. A candidate is an int (a bool is not one);
    each pair may be a list or tuple and is stored as a tuple.
    """

    candidates: frozenset[int]
    strictly_before: frozenset[tuple[int, int]]

    def __post_init__(self):
        candidates = frozenset(self.candidates)
        for c in candidates:
            if not _is_integer(c):
                raise ValidationError(f"bad candidate index {c!r}")
        succ: dict[int, set[int]] = {}
        for pair in self.strictly_before:
            if not _is_row(pair, 2):
                raise ValidationError(
                    "each relation entry must be a (better, worse) pair"
                )
            a, b = pair
            if not all(_is_integer(x) and x in candidates for x in pair):
                raise ValidationError(f"pair ({a}, {b}) outside candidate set")
            if a == b:
                raise ValidationError(f"reflexive pair ({a}, {b})")
            succ.setdefault(a, set()).add(b)
        object.__setattr__(self, "candidates", candidates)
        pairs = frozenset((a, b) for a, bs in succ.items() for b in bs)
        object.__setattr__(self, "strictly_before", pairs)
        for a, bs in succ.items():
            for b in bs:
                if a in succ.get(b, ()):
                    raise ValidationError(f"antisymmetry violated on ({a}, {b})")
                for c in succ.get(b, ()):
                    if c not in bs:
                        raise ValidationError(
                            f"transitivity violated: ({a}, {b}) and ({b}, {c})"
                        )

    def prefers(self, a: int, b: int) -> bool:
        return (a, b) in self.strictly_before

    def beats(self, partner: int | None) -> dict[int, bool | None]:
        """The candidates not ranked below ``partner`` (None: unmatched),
        ascending and with the partner left out, each mapped to True if it
        is ranked above the partner or None if the two are incomparable;
        unmatched, every candidate maps to True. This is the contract of
        ``WeakOrder.beats``. A partner that is not a listed candidate raises
        ValidationError."""
        listed = self.candidates
        if partner is not None and (type(partner) is not int or partner not in listed):
            raise ValidationError(f"partner {partner!r} is not a listed candidate")
        before = self.strictly_before
        return {
            c: partner is None or (c, partner) in before or None
            for c in sorted(listed)
            if c != partner and (partner, c) not in before
        }

    def is_total(self) -> bool:
        n = len(self.candidates)
        return len(self.strictly_before) == n * (n - 1) // 2

    def maximal(self, among: Iterable[int] | None = None) -> list[int]:
        """Candidates with nothing above them within ``among``, ascending."""
        pool = sorted(self.candidates if among is None else among)
        return [
            a
            for a in pool
            if not any((b, a) in self.strictly_before for b in pool if b != a)
        ]


@dataclass(frozen=True)
class _CertainRelation:
    """``certainly_preferred`` evaluated per query, never materialized.

    ``rank`` maps each candidate to its positions in the agent's distinct
    orders (a compact agent's one position is its tier); ``a`` is above ``b``
    iff every position of ``a`` is smaller.
    """

    rank: dict[int, tuple[int, ...]]

    @property
    def candidates(self):
        return self.rank.keys()

    def prefers(self, a: int, b: int) -> bool:
        return all(map(lt, self.rank[a], self.rank[b]))

    def maximal(self, among: Iterable[int]) -> list[int]:
        """Candidates with nothing above them within ``among``, ascending."""
        # a certainly preferred candidate sorts first, so a candidate is
        # maximal iff no maximal candidate found before it is above it
        top: list[int] = []
        for a in sorted(among, key=self.rank.get):
            if not any(self.prefers(b, a) for b in top):
                top.append(a)
        return sorted(top)

    def partial_order(self) -> PartialOrder:
        """The relation materialized as a ``PartialOrder``."""
        candidates = frozenset(self.rank)
        pairs = {(a, b) for a in candidates for b in candidates if self.prefers(a, b)}
        return PartialOrder(candidates, frozenset(pairs))


def _certain_relation(instance: Instance, i: int) -> _CertainRelation:
    """Agent ``i``'s relation, from its tiers or its distinct realizable orders."""
    model, entry = instance.model, instance.entries[i]
    if isinstance(model, CompactModel):
        return _CertainRelation({c: (tier,) for c, tier in entry.tier_of.items()})
    if isinstance(model, LotteryModel):
        orders = [order for order, _ in entry.support]
    else:
        orders = dict.fromkeys((p.men + p.women)[i] for p, _ in model.profiles)
    ranks = [order.rank for order in orders]
    return _CertainRelation({c: tuple([r[c] for r in ranks]) for c in ranks[0]})


def certainly_preferred(instance: Instance, agent: AgentId) -> PartialOrder:
    """The relation "ranked above in every realization" for one agent."""
    return _certain_relation(instance, instance.index(agent)).partial_order()


def dominance_set(instance: Instance, agent: AgentId, candidate: int) -> frozenset[int]:
    """The candidate plus everyone the agent certainly prefers to it."""
    relation = _certain_relation(instance, instance.index(agent))
    if _non_index((candidate,)) or candidate not in relation.candidates:
        raise ValidationError(f"candidate {candidate} not acceptable to {agent}")
    return frozenset(
        a for a in relation.rank if a == candidate or relation.prefers(a, candidate)
    )


def uncertain_agents(instance: Instance) -> tuple[AgentId, ...]:
    """Agents whose certainly-preferred relation is not a total order."""
    return tuple(a for a, flag in zip(instance.agents(), instance.uncertain) if flag)


def _certain_order(instance: Instance, i: int) -> LinearOrder | None:
    """Agent ``i``'s single realizable order, or None if uncertain."""
    if instance.uncertain[i]:
        return None
    entry = instance.entries[i]
    if isinstance(instance.model, LotteryModel):
        return entry.support[0][0]
    if isinstance(instance.model, CompactModel):
        return LinearOrder._trusted(tuple(t[0] for t in entry.tiers))
    return entry  # a certain joint agent has its first profile's order everywhere


def certain_order(instance: Instance, agent: AgentId) -> LinearOrder | None:
    """The agent's single realizable order, or None if uncertain."""
    return _certain_order(instance, instance.index(agent))


def side_is_certain(instance: Instance, side: Side) -> bool:
    _check_side(side)
    flags, n_men = instance.uncertain, instance.n_men
    return not any(flags[:n_men] if side is Side.MEN else flags[n_men:])


def support_size(instance: Instance, agent: AgentId) -> int:
    """Number of realizable orders for the agent (independent models only)."""
    entry = instance.entries[instance.index(agent)]
    if isinstance(instance.model, LotteryModel):
        return len(entry.support)
    if isinstance(instance.model, CompactModel):
        return entry.count_linear_extensions()
    raise ValidationError("joint model has no per-agent support")


def agent_support(instance: Instance, agent: AgentId) -> tuple[tuple[LinearOrder, Fraction], ...]:
    """Realizable orders with marginal weights (independent models only)."""
    entry = instance.entries[instance.index(agent)]
    if isinstance(instance.model, LotteryModel):
        return entry.support
    if isinstance(instance.model, CompactModel):
        weight = Fraction(1, entry.count_linear_extensions())
        return tuple((order, weight) for order in entry.linear_extensions())
    raise ValidationError("joint model has no per-agent support")


def expand_compact_to_lottery(instance: Instance, cap: int | None = DEFAULT_CAP) -> Instance:
    """Replace each weak order by the uniform lottery over its extensions."""
    if not isinstance(instance.model, CompactModel):
        raise ValidationError("expand_compact_to_lottery requires a compact instance")
    for agent in instance.agents():
        charge(Budget(cap, "linear extensions of one agent"), support_size(instance, agent))
    lotteries = [AgentLottery(agent_support(instance, a)) for a in instance.agents()]
    return Instance(_split(instance, lotteries, LotteryModel))


def lottery_to_joint(instance: Instance, cap: int | None = DEFAULT_CAP) -> Instance:
    """Expand independent per-agent lotteries into an explicit joint model."""
    if not isinstance(instance.model, LotteryModel):
        raise ValidationError("lottery_to_joint requires a lottery instance")
    supports = [entry.support for entry in instance.entries]
    charge(Budget(cap, "joint profiles"), math.prod(map(len, supports)))
    profiles = []
    for combo in product(*supports):
        weight = math.prod((w for _, w in combo), start=ONE)
        profiles.append((_split(instance, [o for o, _ in combo]), weight))
    return Instance(JointModel(tuple(profiles)))


def draw_rolls(rng: random.Random, instance: Instance) -> list[float]:
    """A lottery sample's random numbers: one roll per agent, by id."""
    roll = rng.random
    return [roll() for _ in instance.entries]


def _tier_steps(size: int) -> list[tuple[int, int]]:
    """The draws that shuffle ``size`` tied candidates: for m = size .. 1,
    ``getrandbits(bits)`` with ``bits = m.bit_length()``, redrawn while the
    value is at least m."""
    return [(m, m.bit_length()) for m in range(size, 0, -1)]


def tie_breaks(instance: Instance, read: Container[int] | None = None):
    """The compact tie-break rule, compiled once into ``draw(rng)``.

    ``draw`` shuffles every tier of every agent, by agent id and each
    agent's best tier first, and returns the shuffled tiers in that order.
    A tier of n takes n draws (``_tier_steps``); draw i picks slot j of the
    pool of untaken candidates, and the pool's last slot moves into j. These
    are the ``getrandbits`` calls of CPython's ``rng.sample(tier, n)``,
    whose pool method every k = n sample takes; a singleton tier consumes
    ``while getrandbits(1): pass``.

    The stream contract: the lists, the stream and the final state equal
    ``rng.sample``'s for ``random.Random`` and for a subclass that keeps
    its ``sample`` and ``_randbelow`` and does not override ``random``
    without overriding ``getrandbits``; for any other rng the draws may
    differ from its ``sample``.

    With ``read`` given, only the tiers at those indices are built as
    lists, and the others are None in the result: their draws run as flat
    runs of steps that consume the same bits and build nothing.
    """
    tiers = [tier for weak in instance.entries for tier in weak.tiers]
    plan = []  # (unread steps before a read tier, its index, tier, steps)
    run: list[tuple[int, int]] = []
    for t, tier in enumerate(tiers):
        if read is None or t in read:
            plan.append((run, t, tier, _tier_steps(len(tier))))
            run = []
        else:
            run += _tier_steps(len(tier))
    tail, count = run, len(tiers)

    def draw(rng: random.Random) -> list[list[int] | None]:
        getrandbits = rng.getrandbits
        shuffles: list[list[int] | None] = [None] * count
        for skipped, t, tier, steps in plan:
            for m, bits in skipped:
                while getrandbits(bits) >= m:
                    pass
            pool = list(tier)
            shuffle = []
            for m, bits in steps:
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                shuffle.append(pool[j])
                pool[j] = pool[m - 1]
            shuffles[t] = shuffle
        for m, bits in tail:
            while getrandbits(bits) >= m:
                pass
        return shuffles

    return draw


def sample_profile(instance: Instance, rng: random.Random) -> Profile:
    """Draw one realization; deterministic given the generator state."""
    model = instance.model
    if isinstance(model, JointModel):
        return model.profiles[bisect_right(model.thresholds, rng.random())][0]
    if isinstance(model, LotteryModel):
        rolls = draw_rolls(rng, instance)
        orders = [
            e.support[bisect_right(e.thresholds, roll)][0]
            for e, roll in zip(instance.entries, rolls)
        ]
    else:
        # each shuffle permutes a tier of an order already checked
        shuffles = iter(tie_breaks(instance)(rng))
        orders = [
            LinearOrder._trusted(tuple(c for _ in weak.tiers for c in next(shuffles)))
            for weak in instance.entries
        ]
    return _split(instance, orders)


@dataclass(frozen=True)
class Padding:
    """Bookkeeping from completing an instance, needed to map matchings back."""

    n_men: int
    n_women: int
    total: int
    acceptable_men: tuple[frozenset[int], ...]

    def is_trivial(self) -> bool:
        return (
            self.n_men == self.n_women == self.total
            and all(len(a) == self.total for a in self.acceptable_men)
        )


def _head_first(head, total: int) -> tuple[int, ...]:
    """``head``, then every other index below ``total`` ascending."""
    placed = set(head)
    return tuple(head) + tuple(i for i in range(total) if i not in placed)


def complete_instance(instance: Instance) -> tuple[Instance, Padding]:
    """Equalize the sides and complete every list, preserving probabilities.

    Previously unacceptable candidates are appended in ascending index order
    below all original candidates; added agents are certain and rank everyone
    ascending. Probabilities are preserved for matchings that leave no
    mutually acceptable pair unmatched (any other matching is blocked in
    every realization anyway).
    """
    padding = Padding(
        n_men=instance.n_men,
        n_women=instance.n_women,
        total=max(instance.n_men, instance.n_women),
        acceptable_men=instance.acceptable_men,
    )
    if padding.is_trivial():
        return instance, padding
    total = padding.total
    model = instance.model
    if isinstance(model, LotteryModel):
        def complete(entry: AgentLottery) -> AgentLottery:
            return AgentLottery._trusted(
                tuple(
                    (LinearOrder._trusted(_head_first(o.ranking, total)), w)
                    for o, w in entry.support
                )
            )

        pad = complete(AgentLottery.certain(LinearOrder(())))
    elif isinstance(model, CompactModel):
        def complete(entry: WeakOrder) -> WeakOrder:
            # the tail is appended as singleton tiers: padding must stay
            # certain or it would add blocking randomness of its own
            flat = tuple(c for tier in entry.tiers for c in tier)
            tail = _head_first(flat, total)[len(flat):]
            return WeakOrder._trusted(entry.tiers + tuple((c,) for c in tail))

        pad = complete(WeakOrder(()))
    else:
        def complete(entry: LinearOrder) -> LinearOrder:
            return LinearOrder._trusted(_head_first(entry.ranking, total))

        pad = complete(LinearOrder(()))

    def side(entries) -> tuple:
        return tuple(map(complete, entries)) + (pad,) * (total - len(entries))

    if isinstance(model, JointModel):
        completed = JointModel(
            tuple(
                (Profile(men=side(p.men), women=side(p.women)), w)
                for p, w in model.profiles
            )
        )
    else:
        completed = type(model)(men=side(model.men), women=side(model.women))
    return Instance._trusted(completed), padding


def lift_matching(matching: Matching, padding: Padding) -> Matching:
    """Extend a matching of the original instance to the completed one.

    Leftover agents (unmatched originals plus the added padding agents) are
    paired in mutually ascending index order.
    """
    # acceptability is mutual, so the men's sets decide: every woman passes
    everyone = (range(padding.n_men),) * padding.n_women
    _check_matching(padding.acceptable_men, everyone, matching)
    total = padding.total
    free_men = [m for m in range(padding.n_men) if matching.partner_of_man(m) is None]
    free_men.extend(range(padding.n_men, total))
    free_women = [
        w for w in range(padding.n_women) if matching.partner_of_woman(w) is None
    ]
    free_women.extend(range(padding.n_women, total))
    return Matching.from_pairs(list(matching.pairs) + list(zip(free_men, free_women)))


def restrict_matching(matching: Matching, padding: Padding) -> Matching:
    """Drop padding pairs; inverse of lift_matching on its image."""
    kept = [
        (m, w)
        for m, w in matching.pairs
        if m < padding.n_men and w < padding.n_women and w in padding.acceptable_men[m]
    ]
    return Matching.from_pairs(kept)
