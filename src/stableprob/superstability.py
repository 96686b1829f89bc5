"""Certain stability and super-stable matchings over partial orders.

For the independent models (lottery, compact), a matching has stability
probability one exactly when no pair is very weakly blocking under the
certainly-preferred relations, which reduces the question to finding a
super-stable matching of a partial-order market. Checking one matching reads
each agent's pick table (lottery) or tiers (compact) once; the search
evaluates the relation per pair and never materializes it
(``smp_from_instance`` still does, for direct callers). The joint model is
dependent, so it is handled by intersecting per-profile stable sets instead.
``SmpInstance`` runs the same mutual-acceptability check as ``Instance``,
with the same messages.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DEFAULT_CAP,
    Budget,
    Matching,
    WeakOrder,
    _non_index,
    enumerate_stable_matchings,
    is_stable,
)
from .errors import ValidationError
from .models import (
    AgentLottery,
    Instance,
    JointModel,
    PartialOrder,
    _certain_relation,
    _CertainRelation,
    _check_mutual,
    _set_sides,
    _split,
)


@dataclass(frozen=True)
class SmpInstance:
    """A market where every agent ranks candidates by a strict partial order.

    Every entry is a ``PartialOrder``, or the certain relation the package
    evaluates per query in its place (``_CertainRelation``).
    """

    men: tuple[PartialOrder, ...]
    women: tuple[PartialOrder, ...]

    def __post_init__(self):
        _set_sides(self, (PartialOrder, _CertainRelation), "partial-order")
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


def _reject_joint(instance: Instance) -> None:
    if isinstance(instance.model, JointModel):
        raise ValidationError(
            "the joint model is dependent; its certainly-preferred orders do "
            "not characterize certain stability"
        )


def _market(instance: Instance, materialize: bool = False) -> SmpInstance:
    """Every agent's certain relation, as a ``PartialOrder`` when
    ``materialize``; independent models only."""
    _reject_joint(instance)
    relations = [_certain_relation(instance, i) for i in range(len(instance.entries))]
    if materialize:
        relations = [relation.partial_order() for relation in relations]
    return _split(instance, relations, SmpInstance)


def smp_from_instance(instance: Instance) -> SmpInstance:
    """Certainly-preferred partial orders of an independent-model instance."""
    return _market(instance, materialize=True)


def _very_weakly_blocking(his, hers, matching: Matching, man: int, woman: int) -> bool:
    if woman not in his.candidates:
        return False
    partner_m = matching.partner_of_man(man)
    if partner_m is not None and his.prefers(partner_m, woman):
        return False
    partner_w = matching.partner_of_woman(woman)
    return partner_w is None or not hers.prefers(partner_w, man)


def _rivals(entry: AgentLottery | WeakOrder, partner: int | None):
    """The candidates an independent-model agent ranks above ``partner``
    (None: unmatched) in some realization: the keys of a lottery agent's
    pick table, or a compact agent's tiers down to the partner's, the
    partner left out.

    The agent does not certainly prefer its partner to exactly these, so a
    pair very weakly blocks iff each member is among the other's rivals.
    """
    if isinstance(entry, AgentLottery):
        return entry.beats(partner)
    if partner is None:
        return entry.candidates
    tiers = entry.tiers[: entry.tier_of[partner] + 1]
    return {c for tier in tiers for c in tier if c != partner}


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
    his = instance.entries[man]
    hers = instance.entries[instance.n_men + woman]
    return woman in _rivals(his, matching.partner_of_man(man)) and man in _rivals(
        hers, matching.partner_of_woman(woman)
    )


def is_certainly_stable(instance: Instance, matching: Matching) -> bool:
    """True iff the matching is stable in every positive-probability realization.

    Independent models: no pair very weakly blocks. Each woman's rivals are
    built once, then each man's are walked up to the first blocking pair.
    """
    instance.validate_matching(matching)
    if isinstance(instance.model, JointModel):
        return all(
            is_stable(profile, matching) for profile, _ in instance.model.profiles
        )
    model = instance.model
    hers = [_rivals(e, matching.partner_of_woman(w)) for w, e in enumerate(model.women)]
    return not any(
        m in hers[w]
        for m, entry in enumerate(model.men)
        for w in _rivals(entry, matching.partner_of_man(m))
    )


def _blocked(smp: SmpInstance, matching: Matching) -> bool:
    """True iff some unmatched pair very weakly blocks ``matching``."""
    return any(
        _very_weakly_blocking(his, smp.women[w], matching, m, w)
        for m, his in enumerate(smp.men)
        for w in his.candidates
        if matching.partner_of_man(m) != w
    )


def super_stable_smp(smp: SmpInstance) -> Matching | None:
    """A matching with no very weakly blocking pair, or None if there is none.

    Proposal-and-deletion closure: every man proposes to each maximal woman
    of his current list, which deletes all strictly worse men from her list.
    Once proposals are quiescent, the suitors of any woman holding two or
    more proposals are pairwise incomparable to her, so none of them can be
    her partner in a super-stable matching and she drops them all. Every
    deletion removes a pair that belongs to no super-stable matching, so at
    the fixpoint the engagement set is the only candidate: a man with
    several maximal women left means infeasibility, and otherwise the
    candidate is verified against the original orders before being returned.
    """
    men_lists = [set(order.candidates) for order in smp.men]
    women_lists = [set(order.candidates) for order in smp.women]

    def delete(m: int, w: int) -> None:
        men_lists[m].discard(w)
        women_lists[w].discard(m)

    changed = True
    while changed:
        # tie-break deletions are sound only once proposals are quiescent
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

    pairs = []
    for m in range(smp.n_men):
        maximals = smp.men[m].maximal(men_lists[m])
        if len(maximals) >= 2:
            return None
        if maximals:
            pairs.append((m, maximals[0]))
    candidate = Matching.from_pairs(pairs)
    return None if _blocked(smp, candidate) else candidate


def exists_certainly_stable_matching(
    instance: Instance, cap: int | None = DEFAULT_CAP
) -> Matching | None:
    """A certainly stable matching if one exists, else None.

    Independent models go through the super-stable reduction on the
    certainly-preferred relations, evaluated per query. The joint model
    enumerates the stable set of its first profile and keeps the first
    matching stable everywhere.
    """
    if isinstance(instance.model, JointModel):
        profiles = instance.model.profiles
        candidates = enumerate_stable_matchings(profiles[0][0], cap=cap)
        for candidate in candidates:
            if all(is_stable(profile, candidate) for profile, _ in profiles[1:]):
                return candidate
        return None
    Budget(cap, "stable matchings")  # no enumeration here; still refuse a bad cap
    return super_stable_smp(_market(instance))
