"""Certain stability, very weak blocking, and super-stable matchings."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from helpers import (
    MU_IDENTITY,
    MU_SWAP,
    certain,
    compact_instance,
    example_market,
    exhaustive_probability,
    joint_instance,
    lottery_instance,
    naive_has_block,
    random_compact_instance,
    random_joint_instance,
    random_lottery_instance,
    random_maximal_matching,
    random_perturbed_lottery_instance,
    random_weak_order,
    reference_certainly_preferred,
    reference_is_certainly_stable,
    reference_closure,
    reference_smp,
    reference_stable_matchings,
    reference_super_stable_smp,
    reference_very_weakly_blocking,
)
from stableprob import (
    AgentId,
    CompactModel,
    Graph,
    Instance,
    LinearOrder,
    Matching,
    PartialOrder,
    Profile,
    ResourceLimitError,
    Side,
    SmpInstance,
    ValidationError,
    WeakOrder,
    certainly_preferred,
    dominance_set,
    exists_certainly_stable_matching,
    gale_shapley,
    is_certainly_stable,
    is_very_weakly_blocking,
    lottery_to_joint,
    sample_profile,
    smp_from_instance,
    super_stable_smp,
    three_color_to_joint,
)
from stableprob.jsonio import instance_from_json, instance_to_json


def naive_vwb_pairs(smp: SmpInstance, matching: Matching) -> list:
    """Very weakly blocking pairs straight from the definition."""
    found = []
    for m in range(smp.n_men):
        for w in sorted(smp.men[m].candidates):
            if matching.partner_of_man(m) == w:
                continue
            pm = matching.partner_of_man(m)
            pw = matching.partner_of_woman(w)
            if pm is not None and (pm, w) in smp.men[m].strictly_before:
                continue
            if pw is not None and (pw, m) in smp.women[w].strictly_before:
                continue
            found.append((m, w))
    return found


def random_partial_order(rng, candidates) -> PartialOrder:
    # intersecting a few random permutations always yields a partial order
    k = rng.randint(1, 3)
    orders = [tuple(rng.sample(candidates, len(candidates))) for _ in range(k)]
    pairs = {
        (a, b)
        for a in candidates
        for b in candidates
        if a != b and all(o.index(a) < o.index(b) for o in orders)
    }
    return PartialOrder(frozenset(candidates), frozenset(pairs))


def random_smp(rng, n: int, complete: bool = True) -> SmpInstance:
    accept = [
        [complete or rng.random() < 0.7 for _ in range(n)] for _ in range(n)
    ]
    men = tuple(
        random_partial_order(rng, [w for w in range(n) if accept[m][w]])
        for m in range(n)
    )
    women = tuple(
        random_partial_order(rng, [m for m in range(n) if accept[m][w]])
        for w in range(n)
    )
    return SmpInstance(men=men, women=women)


def all_matchings(smp: SmpInstance) -> list:
    pairs = [
        (m, w) for m in range(smp.n_men) for w in sorted(smp.men[m].candidates)
    ]
    out = []

    def rec(i, used_m, used_w, cur):
        if i == len(pairs):
            out.append(Matching.from_pairs(cur))
            return
        rec(i + 1, used_m, used_w, cur)
        m, w = pairs[i]
        if m not in used_m and w not in used_w:
            rec(i + 1, used_m | {m}, used_w | {w}, cur + [(m, w)])

    rec(0, set(), set(), [])
    return out


class TestVeryWeaklyBlocking:
    def test_uncertain_pair_blocks(self):
        # neither m0 nor w1 certainly prefers their identity partner
        assert is_very_weakly_blocking(example_market(), MU_IDENTITY, 0, 1)

    def test_certainly_preferred_partner_protects(self):
        # m1 certainly ranks his partner w1 above w0
        assert not is_very_weakly_blocking(example_market(), MU_IDENTITY, 1, 0)

    def test_matched_pair_is_rejected(self):
        with pytest.raises(ValidationError):
            is_very_weakly_blocking(example_market(), MU_IDENTITY, 0, 0)

    def test_out_of_range_pair_is_rejected(self):
        with pytest.raises(ValidationError):
            is_very_weakly_blocking(example_market(), MU_IDENTITY, 0, 9)

    @pytest.mark.parametrize("man, woman", [("0", 1), (1.0, 0), (True, 0), (1, False)])
    def test_pair_that_is_not_two_indices_is_rejected(self, man, woman):
        # each would address an agent if read as a number
        with pytest.raises(ValidationError, match="references unknown agents"):
            is_very_weakly_blocking(example_market(), MU_IDENTITY, man, woman)

    def test_unmatched_mutually_acceptable_pair_blocks(self):
        inst = lottery_instance(men=(certain(0),), women=(certain(0),))
        assert is_very_weakly_blocking(inst, Matching.from_pairs([]), 0, 0)

    def test_joint_model_is_rejected(self):
        inst = joint_instance([((((0,),), ((0,),)), 1)])
        with pytest.raises(ValidationError):
            is_very_weakly_blocking(inst, Matching.from_pairs([]), 0, 0)


class TestCertainlyStable:
    def test_flaky_market_is_never_certain(self):
        inst = example_market()
        assert not is_certainly_stable(inst, MU_IDENTITY)
        assert not is_certainly_stable(inst, MU_SWAP)

    def test_certain_market(self):
        inst = lottery_instance(
            men=(certain(0, 1), certain(0, 1)),
            women=(certain(0, 1), certain(0, 1)),
        )
        assert is_certainly_stable(inst, MU_IDENTITY)
        assert not is_certainly_stable(inst, MU_SWAP)

    def test_joint_requires_all_profiles(self):
        inst = joint_instance(
            [
                ((((0, 1), (0, 1)), ((0, 1), (0, 1))), Fraction(1, 2)),
                ((((1, 0), (0, 1)), ((0, 1), (0, 1))), Fraction(1, 2)),
            ]
        )
        # (m0, w1) blocks identity in the second profile only
        assert not is_certainly_stable(inst, MU_IDENTITY)
        inst_one = joint_instance(
            [((((0, 1), (0, 1)), ((0, 1), (0, 1))), 1)]
        )
        assert is_certainly_stable(inst_one, MU_IDENTITY)

    def test_matches_probability_one(self):
        rng = random.Random(67)
        for _ in range(120):
            kind = rng.choice(["lottery", "compact", "joint"])
            n_men, n_women = rng.randint(1, 3), rng.randint(1, 3)
            complete = rng.random() < 0.5
            if kind == "lottery":
                inst = random_lottery_instance(rng, n_men, n_women, 2, complete)
            elif kind == "compact":
                inst = random_compact_instance(rng, n_men, n_women, 2, complete)
            else:
                inst = random_joint_instance(rng, n_men, n_women, 2, complete)
            mu = random_maximal_matching(rng, inst)
            expected = exhaustive_probability(inst, mu) == 1
            assert is_certainly_stable(inst, mu) == expected

    def test_matches_dominance_criterion(self):
        # certainly stable iff every acceptable pair has a member whose
        # partner sits in their dominance set of the other
        rng = random.Random(71)
        for _ in range(80):
            inst = random_lottery_instance(
                rng, rng.randint(1, 3), rng.randint(1, 3), 2, rng.random() < 0.5
            )
            mu = random_maximal_matching(rng, inst)
            dominated = True
            for m in range(inst.n_men):
                for w in sorted(inst.acceptable_men[m]):
                    pm = mu.partner_of_man(m)
                    pw = mu.partner_of_woman(w)
                    m_safe = pm is not None and pm in dominance_set(
                        inst, AgentId(Side.MEN, m), w
                    )
                    w_safe = pw is not None and pw in dominance_set(
                        inst, AgentId(Side.WOMEN, w), m
                    )
                    if not (m_safe or w_safe):
                        dominated = False
            assert is_certainly_stable(inst, mu) == dominated


class TestSuperStableSmp:
    def test_linear_orders_reduce_to_stability(self):
        inst = lottery_instance(
            men=(certain(0, 1), certain(0, 1)),
            women=(certain(0, 1), certain(1, 0)),
        )
        smp = smp_from_instance(inst)
        result = super_stable_smp(smp)
        assert result is not None
        assert naive_vwb_pairs(smp, result) == []

    def test_fully_incomparable_market_has_none(self):
        empty = PartialOrder(frozenset({0, 1}), frozenset())
        smp = SmpInstance(men=(empty, empty), women=(empty, empty))
        assert super_stable_smp(smp) is None

    def test_flaky_market_relations_admit_none(self):
        assert super_stable_smp(smp_from_instance(example_market())) is None

    def test_matches_brute_force_on_complete_markets(self):
        rng = random.Random(73)
        for _ in range(150):
            smp = random_smp(rng, rng.randint(1, 4))
            result = super_stable_smp(smp)
            feasible = any(
                not naive_vwb_pairs(
                    smp, Matching.from_pairs(enumerate(perm))
                )
                for perm in permutations(range(smp.n_men))
            )
            assert (result is not None) == feasible
            if result is not None:
                assert naive_vwb_pairs(smp, result) == []

    def test_matches_brute_force_on_incomplete_markets(self):
        rng = random.Random(79)
        for _ in range(120):
            smp = random_smp(rng, rng.randint(1, 3), complete=False)
            result = super_stable_smp(smp)
            feasible = any(
                not naive_vwb_pairs(smp, mu) for mu in all_matchings(smp)
            )
            assert (result is not None) == feasible
            if result is not None:
                assert naive_vwb_pairs(smp, result) == []


class CountingOrder(PartialOrder):
    """A ``PartialOrder`` that counts its ``maximal`` calls."""

    calls = 0

    def maximal(self, among=None):
        CountingOrder.calls += 1
        return super().maximal(among)


class TestClosure:
    """The closure against the reference that recomputes every list."""

    def test_matches_reference_on_small_incomplete_markets(self):
        rng = random.Random(107)
        found = 0
        for _ in range(400):
            smp = random_smp(rng, rng.randint(1, 7), complete=rng.random() < 0.3)
            result = super_stable_smp(smp)
            assert result == reference_super_stable_smp(smp)
            found += result is not None
        assert 40 <= found <= 360

    def test_recomputes_only_lists_that_lost_a_woman(self):
        rng = random.Random(109)
        smp = random_smp(rng, 12)
        men = tuple(CountingOrder(o.candidates, o.strictly_before) for o in smp.men)
        smp = SmpInstance(men=men, women=smp.women)
        deletions = sum(len(o.candidates) for o in men) - sum(
            len(kept) for kept in reference_closure(smp)
        )
        CountingOrder.calls = 0
        result = super_stable_smp(smp)
        assert 0 < deletions and CountingOrder.calls <= smp.n_men + deletions
        assert result == reference_super_stable_smp(smp)

    def test_instance_route_matches_reference_on_large_markets(self):
        # lottery and tied compact markets at n = 32 to 48, on both branches
        rng = random.Random(103)
        sizes = (32, 40, 48)
        markets = [
            random_perturbed_lottery_instance(rng, n, k, k + 1)
            for n in sizes
            for k in (2, 3)
        ]
        markets += [random_lottery_instance(rng, n, n, 2, n != 40) for n in sizes]
        markets += [random_compact_instance(rng, n, n, 3, n != 40) for n in sizes]
        markets += [_tied_below_partners(rng, n) for n in sizes]
        found = 0
        for inst in markets:
            result = exists_certainly_stable_matching(inst)
            assert result == reference_super_stable_smp(reference_smp(inst))
            found += result is not None
        assert 5 <= found <= len(markets) - 5


class TestExistsCertainlyStable:
    def test_certain_market_returns_deferred_acceptance(self):
        inst = lottery_instance(
            men=(certain(0, 1), certain(0, 1)),
            women=(certain(0, 1), certain(1, 0)),
        )
        result = exists_certainly_stable_matching(inst)
        profile = sample_profile(inst, random.Random(0))
        assert result == gale_shapley(profile)
        assert is_certainly_stable(inst, result)

    def test_all_indifferent_market_has_none(self):
        inst = compact_instance(
            [[(0, 1)], [(0, 1)]],
            [[(0, 1)], [(0, 1)]],
        )
        assert exists_certainly_stable_matching(inst) is None

    def test_flaky_market_has_none(self):
        assert exists_certainly_stable_matching(example_market()) is None

    def test_joint_intersection(self):
        inst = joint_instance(
            [
                ((((0, 1), (0, 1)), ((0, 1), (0, 1))), Fraction(1, 2)),
                ((((0, 1), (1, 0)), ((0, 1), (0, 1))), Fraction(1, 2)),
            ]
        )
        result = exists_certainly_stable_matching(inst)
        assert result == MU_IDENTITY
        assert is_certainly_stable(inst, result)

    def test_joint_cap_is_enforced(self):
        # a single profile with ten stable matchings trips a cap of three
        men = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
        women = ((3, 2, 1, 0), (2, 3, 0, 1), (1, 0, 3, 2), (0, 1, 2, 3))
        inst = joint_instance([((men, women), 1)])
        with pytest.raises(ResourceLimitError):
            exists_certainly_stable_matching(inst, cap=3)

    @staticmethod
    def reference_joint(inst):
        """The first matching of the first profile's brute-force stable set
        that no profile blocks."""
        profiles = [profile for profile, _ in inst.model.profiles]
        for candidate in reference_stable_matchings(profiles[0]):
            if not any(naive_has_block(p.men, p.women, candidate) for p in profiles):
                return candidate
        return None

    def test_joint_matches_enumerate_and_filter(self):
        rng = random.Random(89)
        sizes = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(120)]
        sizes += [(6, 6), (6, 5), (5, 6)] * 2
        found = 0
        for i, (n_men, n_women) in enumerate(sizes):
            inst = random_joint_instance(
                rng, n_men, n_women, rng.randint(1, 3), complete=i % 3 == 0
            )
            result = exists_certainly_stable_matching(inst)
            assert result == self.reference_joint(inst)
            found += result is not None
        assert 20 <= found <= len(sizes) - 20

    @pytest.mark.parametrize(
        "graph",
        [Graph(0, ()), Graph(1, ()), Graph(2, ()), Graph(2, ((0, 1),))],
        ids=["empty", "vertex", "two-vertices", "edge"],
    )
    def test_three_color_gadget_matches_enumerate_and_filter(self, graph):
        inst = three_color_to_joint(graph)
        result = exists_certainly_stable_matching(inst)
        assert result is not None
        assert result == self.reference_joint(inst)

    def test_smp_rejects_joint(self):
        inst = joint_instance([((((0,),), ((0,),)), 1)])
        with pytest.raises(ValidationError):
            smp_from_instance(inst)

    def test_lottery_agrees_with_joint_expansion(self):
        rng = random.Random(83)
        for _ in range(80):
            inst = random_lottery_instance(
                rng, rng.randint(1, 3), rng.randint(1, 3), 2, rng.random() < 0.5
            )
            direct = exists_certainly_stable_matching(inst)
            via_joint = exists_certainly_stable_matching(lottery_to_joint(inst))
            assert (direct is None) == (via_joint is None)
            if direct is not None:
                assert is_certainly_stable(inst, direct)

    def test_found_matchings_really_are_certain(self):
        rng = random.Random(89)
        found = 0
        for _ in range(150):
            kind = rng.choice(["lottery", "compact"])
            if kind == "lottery":
                inst = random_lottery_instance(rng, 3, 3, 2, rng.random() < 0.5)
            else:
                inst = random_compact_instance(rng, 3, 3, 2, rng.random() < 0.5)
            result = exists_certainly_stable_matching(inst)
            if result is None:
                # no certainly stable matching may exist anywhere
                for mu in all_matchings(smp_from_instance(inst)):
                    assert not is_certainly_stable(inst, mu)
            else:
                found += 1
                assert is_certainly_stable(inst, result)
        assert found  # the suite must exercise both branches


def _strict(weak: WeakOrder) -> WeakOrder:
    return WeakOrder(tuple((c,) for tier in weak.tiers for c in tier))


def _tied_below_partners(rng, n: int) -> Instance:
    """n x n compact market that has a certainly stable matching: strict
    random lists, deferred acceptance on them, then ties of up to 3 among the
    candidates each agent ranks below its partner."""
    men = [rng.sample(range(n), n) for _ in range(n)]
    women = [rng.sample(range(n), n) for _ in range(n)]
    mu = gale_shapley(
        Profile(
            men=tuple(LinearOrder(tuple(r)) for r in men),
            women=tuple(LinearOrder(tuple(r)) for r in women),
        )
    )

    def weak(ranking: list, partner: int) -> WeakOrder:
        cut = ranking.index(partner) + 1
        tail = random_weak_order(rng, ranking[cut:], 3).tiers if cut < n else ()
        return WeakOrder(tuple((c,) for c in ranking[:cut]) + tail)

    return Instance(
        CompactModel(
            men=tuple(weak(r, mu.partner_of_man(m)) for m, r in enumerate(men)),
            women=tuple(weak(r, mu.partner_of_woman(w)) for w, r in enumerate(women)),
        )
    )


def _reference_markets():
    """Seeded independent markets up to n = 48, each with its matchings to check.

    Perturbed lotteries (3-4 orders per agent), compact markets with ties up
    to 3 (also with the men made strict, or tied only below a stable
    partner), ragged incomplete lotteries with
    unequal sides, and many small markets. Each market is checked under a
    matching stable in one sampled realization, under a random partial
    matching and, where the reference route finds one, under its certainly
    stable matching.
    """
    rng = random.Random(97)
    markets = [
        random_perturbed_lottery_instance(rng, n, 3, 4) for n in (5, 8, 12, 16, 24, 32, 48, 48)
    ]
    for n in (5, 8, 12, 24, 48):
        inst = random_compact_instance(rng, n, n, 3, complete=n < 24)
        men = tuple(_strict(weak) for weak in inst.model.men)
        markets += [inst, Instance(CompactModel(men=men, women=inst.model.women))]
    markets += [_tied_below_partners(rng, n) for n in (6, 12, 24, 48)]
    for n_men, n_women in ((3, 5), (6, 4), (12, 9), (18, 24), (40, 48)):
        markets.append(random_lottery_instance(rng, n_men, n_women, 3, complete=False))
    for _ in range(150):
        n_men, n_women, complete = rng.randint(1, 6), rng.randint(1, 6), rng.random() < 0.5
        if rng.random() < 0.5:
            markets.append(random_lottery_instance(rng, n_men, n_women, 3, complete))
        else:
            markets.append(random_compact_instance(rng, n_men, n_women, 3, complete))
    cases = []
    for inst in markets:
        designated = gale_shapley(sample_profile(inst, rng))
        maximal = random_maximal_matching(rng, inst)
        partial = Matching.from_pairs(p for p in maximal.pairs if rng.random() < 0.7)
        smp = reference_smp(inst)
        certain = super_stable_smp(smp)
        matchings = (designated, partial) + ((certain,) if certain else ())
        cases.append((inst, matchings, smp))
    return cases


@pytest.fixture(scope="module")
def reference_cases():
    return _reference_markets()


class TestAgainstReferenceRoute:
    """The lazily evaluated relation against the materialized pair sets."""

    def test_is_certainly_stable(self, reference_cases):
        verdicts = []
        for inst, matchings, smp in reference_cases:
            for mu in matchings:
                expected = reference_is_certainly_stable(smp, mu)
                assert is_certainly_stable(inst, mu) == expected
                verdicts.append(expected)
        assert 20 <= sum(verdicts) <= len(verdicts) - 20

    def test_very_weakly_blocking_on_every_pair(self, reference_cases):
        verdicts = []
        for inst, matchings, smp in reference_cases:
            for mu in matchings:
                for m in range(inst.n_men):
                    for w in sorted(inst.acceptable_men[m]):
                        if mu.partner_of_man(m) == w:
                            continue
                        expected = reference_very_weakly_blocking(smp, mu, m, w)
                        assert is_very_weakly_blocking(inst, mu, m, w) == expected
                        verdicts.append(expected)
        assert 1000 <= sum(verdicts) <= len(verdicts) - 1000

    def test_json_parsed_instances_agree(self, reference_cases):
        # a parsed instance starts with no pick tables, so each matching
        # gets a fresh parse and every table the rule reads is built for it
        verdicts = []
        for inst, matchings, smp in reference_cases:
            document = instance_to_json(inst)
            for mu in matchings:
                parsed = instance_from_json(document)[0]
                assert parsed == inst
                expected = reference_is_certainly_stable(smp, mu)
                assert is_certainly_stable(parsed, mu) == expected
                parsed = instance_from_json(document)[0]
                for m in range(inst.n_men):
                    for w in sorted(inst.acceptable_men[m]):
                        if mu.partner_of_man(m) != w:
                            expected = reference_very_weakly_blocking(smp, mu, m, w)
                            assert is_very_weakly_blocking(parsed, mu, m, w) == expected
                            verdicts.append(expected)
        assert 1000 <= sum(verdicts) <= len(verdicts) - 1000

    def test_exists_returns_the_same_matching(self, reference_cases):
        found = 0
        for inst, _, smp in reference_cases:
            expected = super_stable_smp(smp)
            assert exists_certainly_stable_matching(inst) == expected
            found += expected is not None
        assert 20 <= found <= len(reference_cases) - 20

    def test_certainly_preferred(self, reference_cases):
        rng = random.Random(101)
        joint = [
            random_joint_instance(rng, n, n + 1, rng.randint(1, 4), rng.random() < 0.5)
            for n in (1, 2, 3, 4, 6, 12, 24)
        ]
        for inst in [case[0] for case in reference_cases] + joint:
            for agent in inst.agents():
                assert certainly_preferred(inst, agent) == reference_certainly_preferred(
                    inst, agent
                )
