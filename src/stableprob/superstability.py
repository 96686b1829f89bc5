"""Certain stability and super-stable matchings over partial orders.

For the independent models (lottery, compact), a matching has stability
probability one exactly when no pair is very weakly blocking under the
certainly-preferred relations, which reduces the question to finding a
super-stable matching of a partial-order market. A pair very weakly blocks
exactly when each member lists the other in its ``beats`` view against its
partner (a lottery agent's pick table, a compact agent's ``WeakOrder.beats``,
a partial-order agent's ``PartialOrder.beats``), so every check here is the
one walk over the views that the exact engine reads, ``core._pair_masks``:
the matching is certainly stable iff it yields no pair. The search evaluates
the relation per pair and never materializes it; only ``smp_from_instance``
does, for direct callers. The joint model is dependent, so it is handled by
intersecting per-profile stable sets instead. ``SmpInstance`` runs the same
mutual-acceptability check as ``Instance``, with the same messages.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (
    DEFAULT_CAP,
    Budget,
    Matching,
    _non_index,
    _pair_masks,
    enumerate_stable_matchings,
    is_stable,
)
from .errors import ValidationError
from .models import (
    Instance,
    JointModel,
    PartialOrder,
    _certain_relation,
    _check_mutual,
    _set_sides,
    _split,
    _views,
)


@dataclass(frozen=True)
class SmpInstance:
    """A market where every agent ranks candidates by a strict partial order."""

    men: tuple[PartialOrder, ...]
    women: tuple[PartialOrder, ...]

    def __post_init__(self):
        _set_sides(self, PartialOrder, "partial-order")
        _check_mutual(
            [order.candidates for order in self.men],
            [order.candidates for order in self.women],
        )

    @property
    def n_men(self) -> int:
        return len(self.men)

    @property
    def n_women(self) -> int:
        return len(self.women)

    @property
    def entries(self) -> tuple[PartialOrder, ...]:
        """One order per agent, indexed by agent id as ``Instance.entries``."""
        return self.men + self.women


def _reject_joint(instance: Instance) -> None:
    if isinstance(instance.model, JointModel):
        raise ValidationError(
            "the joint model is dependent; its certainly-preferred orders do "
            "not characterize certain stability"
        )


def smp_from_instance(instance: Instance) -> SmpInstance:
    """Certainly-preferred partial orders of an independent-model instance."""
    _reject_joint(instance)
    relations = [_certain_relation(instance, i) for i in range(len(instance.entries))]
    return _split(instance, [r.partial_order() for r in relations], SmpInstance)


def is_very_weakly_blocking(
    instance: Instance, matching: Matching, man: int, woman: int
) -> bool:
    """True iff neither member certainly prefers their current partner.

    Unmatched agents have no partner to certainly prefer, so a mutually
    acceptable pair of unmatched agents always very weakly blocks.
    """
    instance.validate_matching(matching)
    if _non_index((man, woman)) or man >= instance.n_men or woman >= instance.n_women:
        raise ValidationError(f"pair ({man}, {woman}) references unknown agents")
    if matching.partner_of_man(man) == woman:
        raise ValidationError(f"pair ({man}, {woman}) is matched, not blocking")
    _reject_joint(instance)
    his, hers = instance.entries[man], instance.entries[instance.n_men + woman]
    return woman in his.beats(matching.partner_of_man(man)) and man in hers.beats(
        matching.partner_of_woman(woman)
    )


def is_certainly_stable(instance: Instance, matching: Matching) -> bool:
    """True iff the matching is stable in every positive-probability realization.

    Independent models: no pair very weakly blocks.
    """
    instance.validate_matching(matching)
    model = instance.model
    if isinstance(model, JointModel):
        return all(is_stable(profile, matching) for profile, _ in model.profiles)
    # every pair the walk yields is a tuple, so ``any`` is True iff it yields one
    return not any(_pair_masks(_views(instance, matching), instance.n_men))


def _super_stable(market, men, women) -> Matching | None:
    """The super-stable matching under the relations ``men`` and ``women``
    of ``market``'s agents, or None if there is none. The closure below
    leaves one candidate, or none when a man keeps several maximal women,
    and the candidate is super-stable iff the walk over ``market``'s
    ``beats`` views yields no pair.

    Proposal-and-deletion closure: every man proposes to each maximal woman
    of his current list, which deletes all strictly worse men from her list.
    Once proposals are quiescent, the suitors of any woman holding two or
    more proposals are pairwise incomparable to her, so none of them can be
    her partner in a super-stable matching and she drops them all. Every
    deletion removes a pair that belongs to no super-stable matching, so at
    the fixpoint the engagement set is the only candidate.

    ``top`` caches each man's maximal women until his list loses one. A sweep
    skips a man whose cache holds: women's lists only shrink, so his
    proposals would delete nothing, and the deletions are those of a sweep
    that recomputes every man.
    """
    men_lists = [set(order.candidates) for order in men]
    women_lists = [set(order.candidates) for order in women]
    top: list[list[int] | None] = [None] * len(men)

    def delete(m: int, w: int) -> None:
        men_lists[m].discard(w)
        women_lists[w].discard(m)
        top[m] = None

    changed = True
    while changed:
        # tie-break deletions are sound only once proposals are quiescent
        proposing = True
        while proposing:
            proposing = False
            for m, order in enumerate(men):
                if top[m] is not None:
                    continue
                top[m] = order.maximal(men_lists[m])
                for w in top[m]:
                    worse = [m2 for m2 in women_lists[w] if women[w].prefers(m, m2)]
                    for m2 in worse:
                        delete(m2, w)
                        proposing = True
        suitors = Counter(w for ws in top for w in ws)
        dropped = [(m, w) for m, ws in enumerate(top) for w in ws if suitors[w] >= 2]
        for m, w in dropped:
            delete(m, w)
        changed = bool(dropped)

    if any(len(ws) >= 2 for ws in top):
        return None
    candidate = Matching.from_pairs((m, w) for m, ws in enumerate(top) for w in ws)
    return None if any(_pair_masks(_views(market, candidate), market.n_men)) else candidate


def super_stable_smp(smp: SmpInstance) -> Matching | None:
    """A matching with no very weakly blocking pair, or None if there is none.

    The closure's candidate, if any, is checked against the orders.
    """
    return _super_stable(smp, smp.men, smp.women)


def exists_certainly_stable_matching(
    instance: Instance, cap: int | None = DEFAULT_CAP
) -> Matching | None:
    """A certainly stable matching if one exists, else None.

    Independent models run the super-stable closure on the
    certainly-preferred relations, evaluated per query, and check its
    candidate against the agents' ``beats`` views. The joint model
    enumerates the stable set of its first profile and keeps the first
    matching stable everywhere.
    """
    model = instance.model
    if isinstance(model, JointModel):
        profiles = model.profiles
        candidates = enumerate_stable_matchings(profiles[0][0], cap=cap)
        for candidate in candidates:
            if all(is_stable(profile, candidate) for profile, _ in profiles[1:]):
                return candidate
        return None
    Budget(cap, "stable matchings")  # no enumeration here; still refuse a bad cap
    relations = [_certain_relation(instance, i) for i in range(len(instance.entries))]
    return _super_stable(instance, relations[: instance.n_men], relations[instance.n_men :])
