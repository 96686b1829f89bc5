"""Deterministic matching primitives: orders, blocking, deferred acceptance."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    naive_has_block,
    order,
    random_compact_instance,
    random_lottery_instance,
    random_maximal_matching,
    reference_stable_matchings,
    reference_strictly_prefers,
)
from stableprob import (
    AgentId,
    LinearOrder,
    Matching,
    PartialOrder,
    Profile,
    ResourceLimitError,
    Side,
    ValidationError,
    WeakOrder,
    blocking_pairs,
    certainly_preferred,
    enumerate_stable_matchings,
    gale_shapley,
    is_stable,
    is_weakly_stable,
    validate_matching,
)

# 3 men in a preference cycle: exactly three stable matchings, one per rotation
CYCLIC = Profile(
    men=(order(0, 1, 2), order(1, 2, 0), order(2, 0, 1)),
    women=(order(1, 2, 0), order(2, 0, 1), order(0, 1, 2)),
)
CYCLIC_STABLE = [
    [(0, 0), (1, 1), (2, 2)],
    [(0, 1), (1, 2), (2, 0)],
    [(0, 2), (1, 0), (2, 1)],
]

# men and women want opposite things: 10 stable matchings
POLARIZED = Profile(
    men=(order(0, 1, 2, 3), order(1, 0, 3, 2), order(2, 3, 0, 1), order(3, 2, 1, 0)),
    women=(order(3, 2, 1, 0), order(2, 3, 0, 1), order(1, 0, 3, 2), order(0, 1, 2, 3)),
)


def random_profile(rng, n_men, n_women, complete=False) -> Profile:
    accept = [
        [complete or rng.random() < 0.7 for _ in range(n_women)]
        for _ in range(n_men)
    ]
    men = tuple(
        LinearOrder(tuple(rng.sample([w for w in range(n_women) if accept[m][w]],
                                     sum(accept[m]))))
        for m in range(n_men)
    )
    women = tuple(
        LinearOrder(
            tuple(
                rng.sample(
                    [m for m in range(n_men) if accept[m][w]],
                    sum(accept[m][w] for m in range(n_men)),
                )
            )
        )
        for w in range(n_women)
    )
    return Profile(men=men, women=women)


class TestLinearOrder:
    def test_rejects_duplicate_candidate(self):
        with pytest.raises(ValidationError):
            LinearOrder((0, 1, 0))

    def test_rejects_negative_index(self):
        with pytest.raises(ValidationError):
            LinearOrder((0, -1))

    @pytest.mark.parametrize("idx", [True, False])
    def test_rejects_a_bool_index(self, idx):
        with pytest.raises(ValidationError, match="^bad candidate index "):
            LinearOrder((idx,))

    def test_prefers(self):
        o = order(2, 0, 1)
        assert o.prefers(2, 1)
        assert not o.prefers(1, 0)
        assert o.rank == {2: 0, 0: 1, 1: 2}

    def test_prefers_over_partner(self):
        o = order(2, 0)
        assert o.prefers_over_partner(2, 0)
        assert not o.prefers_over_partner(0, 2)
        # unmatched loses to any acceptable candidate
        assert o.prefers_over_partner(0, None)
        # unacceptable candidate never wins, matched or not
        assert not o.prefers_over_partner(1, None)
        assert not o.prefers_over_partner(1, 0)

    @pytest.mark.parametrize("partner", [True, False, 2, 5, -1, 1.0, "0"])
    @pytest.mark.parametrize("candidate", [0, 7])
    def test_prefers_over_partner_refuses_a_partner_that_is_not_listed(
        self, candidate, partner
    ):
        # an unlisted index is no KeyError, and True is not candidate 1
        with pytest.raises(ValidationError, match="is not a listed candidate"):
            LinearOrder((0, 1)).prefers_over_partner(candidate, partner)


class TestWeakOrder:
    def test_accepts_exactly_its_listed_candidates(self):
        weak = WeakOrder(((2, 0), (3,)))
        assert [weak.accepts(c) for c in range(5)] == [True, False, True, True, False]

    def test_rejects_empty_tier(self):
        with pytest.raises(ValidationError):
            WeakOrder(((0,), ()))

    def test_rejects_candidate_in_two_tiers(self):
        with pytest.raises(ValidationError):
            WeakOrder(((0, 1), (1,)))

    @pytest.mark.parametrize("idx", [True, False])
    def test_rejects_a_bool_index(self, idx):
        with pytest.raises(ValidationError, match="^bad candidate index "):
            WeakOrder(((idx,),))

    @pytest.mark.parametrize(
        "tiers, message",
        [
            (((0, "a"),), "bad candidate index 'a'"),
            (((0, None),), "bad candidate index None"),
            ((5,), "each tier must be a collection of candidates"),
        ],
    )
    def test_malformed_tiers_are_validation_errors(self, tiers, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            WeakOrder(tiers)

    def test_tiers_are_sorted_for_equality(self):
        assert WeakOrder(((2, 1), (0,))) == WeakOrder(((1, 2), (0,)))

    def test_extension_count_matches_enumeration(self):
        weak = WeakOrder(((0, 1, 2), (3,), (4, 5)))
        extensions = list(weak.linear_extensions())
        assert weak.count_linear_extensions() == len(extensions) == 12
        assert len(set(extensions)) == 12
        for ext in extensions:
            # each extension keeps every tier contiguous and in tier order
            assert set(ext.ranking[:3]) == {0, 1, 2}
            assert ext.ranking[3] == 3
            assert set(ext.ranking[4:]) == {4, 5}

    def test_is_strict(self):
        assert WeakOrder(((1,), (0,))).is_strict()
        assert not WeakOrder(((0, 1),)).is_strict()

    @given(st.data())
    def test_prefers_over_partner_is_a_tier_comparison(self, data):
        ranking = data.draw(st.permutations(list(range(6))))
        cuts = data.draw(st.sets(st.integers(1, 5)))
        bounds = [0, *sorted(cuts), 6]
        tiers = [ranking[a:b] for a, b in zip(bounds, bounds[1:])]
        tiers = tiers[: data.draw(st.integers(0, len(tiers)))]
        weak = WeakOrder(tuple(tuple(tier) for tier in tiers))
        listed = [c for tier in tiers for c in tier]
        tier = {c: i for i, members in enumerate(tiers) for c in members}
        for partner in [None, *listed]:
            for candidate in range(7):  # 6 is never listed
                got = weak.prefers_over_partner(candidate, partner)
                if candidate not in tier:
                    expected = False
                elif partner is None:
                    expected = True
                elif tier[candidate] == tier[partner]:
                    expected = None
                else:
                    expected = tier[candidate] < tier[partner]
                assert got is expected
                assert bool(got) == reference_strictly_prefers(weak, candidate, partner)
                if weak.is_strict():
                    strict = LinearOrder(tuple(listed))
                    assert bool(got) == strict.prefers_over_partner(candidate, partner)

    @given(st.data())
    def test_beats_keeps_the_candidates_the_partner_does_not_beat(self, data):
        ranking = data.draw(st.permutations(list(range(6))))
        cuts = data.draw(st.sets(st.integers(1, 5)))
        bounds = [0, *sorted(cuts), 6]
        tiers = [ranking[a:b] for a, b in zip(bounds, bounds[1:])]
        tiers = tiers[: data.draw(st.integers(0, len(tiers)))]
        weak = WeakOrder(tuple(tuple(tier) for tier in tiers))
        # tier order, ascending within a tier
        listed = [c for tier in tiers for c in sorted(tier)]
        for partner in [None, *listed]:
            # the partner shares its own tier, but is not above itself
            others = [c for c in listed if c != partner]
            sides = {c: weak.prefers_over_partner(c, partner) for c in others}
            expected = {c: side for c, side in sides.items() if side is not False}
            view = weak.beats(partner)
            assert list(view) == list(expected)
            assert all(view[c] is side for c, side in expected.items())

    @pytest.mark.parametrize("partner", [True, False, 2, -1, 1.0, "0"])
    def test_beats_refuses_a_partner_that_is_not_listed(self, partner):
        with pytest.raises(ValidationError, match="is not a listed candidate"):
            WeakOrder(((0, 1),)).beats(partner)

    @pytest.mark.parametrize("partner", [True, False, 2, 5, -1, 1.0, "0"])
    @pytest.mark.parametrize("candidate", [0, 7])
    def test_prefers_over_partner_refuses_a_partner_that_is_not_listed(
        self, candidate, partner
    ):
        with pytest.raises(ValidationError, match="is not a listed candidate"):
            WeakOrder(((0, 1),)).prefers_over_partner(candidate, partner)


@pytest.mark.parametrize("candidate", [True, False, 1.0, "0", [0], None])
@pytest.mark.parametrize("partner", [None, 0])
@pytest.mark.parametrize("owner", [LinearOrder((0, 1)), WeakOrder(((0,), (1,)))])
def test_prefers_over_partner_refuses_a_candidate_that_is_no_index(
    owner, candidate, partner
):
    # True is not candidate 1, and a list raises no bare TypeError
    with pytest.raises(ValidationError, match="^bad candidate index "):
        owner.prefers_over_partner(candidate, partner)


class TestPartialOrderBeats:
    @settings(deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["lottery", "compact"]))
    def test_beats_keeps_the_candidates_the_partner_does_not_beat(self, rng, kind):
        # each agent's certainly-preferred relation, on incomplete markets
        n_men, n_women = rng.randint(1, 5), rng.randint(1, 5)
        if kind == "lottery":
            inst = random_lottery_instance(rng, n_men, n_women, 3, complete=False)
        else:
            inst = random_compact_instance(rng, n_men, n_women, 3, complete=False)
        for agent in inst.agents():
            relation = certainly_preferred(inst, agent)
            entry = inst.entries[inst.index(agent)]
            listed = sorted(relation.candidates)
            for partner in [None, *listed]:
                # ascending; the partner is not above itself, and a candidate
                # ranked below it is left out
                expected = {
                    c: True if partner is None or relation.prefers(c, partner) else None
                    for c in listed
                    if c != partner
                    and (partner is None or not relation.prefers(partner, c))
                }
                view = relation.beats(partner)
                assert list(view) == list(expected)
                assert all(view[c] is side for c, side in expected.items())
                if kind == "lottery":
                    assert view.keys() == entry.beats(partner).keys()
                else:
                    assert view == entry.beats(partner)

    @pytest.mark.parametrize("partner", [True, False, 2, -1, 1.0, "0"])
    def test_beats_refuses_a_partner_that_is_not_listed(self, partner):
        with pytest.raises(ValidationError, match="is not a listed candidate"):
            PartialOrder(frozenset({0, 1}), frozenset({(0, 1)})).beats(partner)


class TestAgentId:
    @pytest.mark.parametrize("idx", [True, False])
    def test_rejects_a_bool_index(self, idx):
        with pytest.raises(ValidationError, match="^bad agent index "):
            AgentId(Side.MEN, idx)


class TestMatching:
    def test_rejects_reused_agent(self):
        with pytest.raises(ValidationError):
            Matching.from_pairs([(0, 0), (0, 1)])
        with pytest.raises(ValidationError):
            Matching.from_pairs([(0, 0), (1, 0)])

    @pytest.mark.parametrize("idx", [True, False])
    def test_rejects_a_bool_index(self, idx):
        for pair in ((idx, 0), (0, idx)):
            with pytest.raises(ValidationError, match="^bad agent index "):
                Matching.from_pairs([pair])

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(0,)], "each matching pair must be a (man, woman) pair"),
            ([(0, 1, 2)], "each matching pair must be a (man, woman) pair"),
            ([(0, [1])], "bad agent index [1] in matching"),
        ],
    )
    def test_malformed_pairs_are_validation_errors(self, pairs, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Matching.from_pairs(pairs)

    def test_partner_lookup_and_transpose(self):
        mu = Matching.from_pairs([(0, 1), (2, 0)])
        assert mu.partner_of_man(0) == 1
        assert mu.partner_of_woman(0) == 2
        assert mu.partner_of_man(1) is None
        assert mu.transposed().partner_of_man(1) == 0
        assert mu.transposed().transposed() == mu
        assert len(mu) == 2

    def test_validate_matching(self):
        profile = Profile(men=(order(0),), women=(order(0),))
        with pytest.raises(ValidationError):
            validate_matching(profile, Matching.from_pairs([(0, 1)]))
        profile2 = Profile(men=(order(0), LinearOrder(())), women=(order(0),))
        with pytest.raises(ValidationError):
            validate_matching(profile2, Matching.from_pairs([(1, 0)]))


class TestBlocking:
    def test_known_blocking_pair(self):
        profile = Profile(
            men=(order(0, 1), order(0, 1)),
            women=(order(0, 1), order(0, 1)),
        )
        # both men prefer w0; m1 holds her, so (m0, w0) blocks the swap
        mu = Matching.from_pairs([(0, 1), (1, 0)])
        assert blocking_pairs(profile, mu) == [(0, 0)]
        assert not is_stable(profile, mu)
        assert is_stable(profile, Matching.from_pairs([(0, 0), (1, 1)]))

    def test_mutually_acceptable_unmatched_pair_blocks(self):
        profile = Profile(men=(order(0),), women=(order(0),))
        assert blocking_pairs(profile, Matching.from_pairs([])) == [(0, 0)]

    def test_one_sided_interest_never_blocks(self):
        profile = Profile(men=(order(0),), women=(LinearOrder(()),))
        assert blocking_pairs(profile, Matching.from_pairs([])) == []

    def test_agrees_with_naive_scan(self):
        rng = random.Random(7)
        for _ in range(300):
            profile = random_profile(rng, rng.randint(1, 4), rng.randint(1, 4))
            pairs = [
                (m, w)
                for m in range(profile.n_men)
                for w in profile.men[m].ranking
                if profile.women[w].accepts(m)
            ]
            rng.shuffle(pairs)
            chosen: list = []
            for m, w in pairs[: rng.randint(0, len(pairs))]:
                if all(m != m2 and w != w2 for m2, w2 in chosen):
                    chosen.append((m, w))
            mu = Matching.from_pairs(chosen)
            assert is_stable(profile, mu) == (
                not naive_has_block(profile.men, profile.women, mu)
            )


class TestGaleShapley:
    def test_man_optimal_and_woman_optimal(self):
        assert gale_shapley(POLARIZED, Side.MEN).sorted_pairs() == [
            (0, 0), (1, 1), (2, 2), (3, 3),
        ]
        assert gale_shapley(POLARIZED, Side.WOMEN).sorted_pairs() == [
            (0, 3), (1, 2), (2, 1), (3, 0),
        ]

    def test_incomplete_lists_leave_agents_unmatched(self):
        profile = Profile(
            men=(order(0), order(0)),
            women=(order(0, 1), LinearOrder(())),
        )
        mu = gale_shapley(profile, Side.MEN)
        assert mu.sorted_pairs() == [(0, 0)]

    def test_unlisted_proposer_is_skipped(self):
        # w0 does not list m0, so his proposal must bounce
        profile = Profile(
            men=(order(0, 1), order(0, 1)),
            women=(order(1), order(0, 1)),
        )
        mu = gale_shapley(profile, Side.MEN)
        assert mu.sorted_pairs() == [(0, 1), (1, 0)]

    def test_random_outputs_are_stable(self):
        rng = random.Random(11)
        for _ in range(200):
            profile = random_profile(
                rng, rng.randint(1, 5), rng.randint(1, 5), complete=rng.random() < 0.5
            )
            for side in (Side.MEN, Side.WOMEN):
                assert is_stable(profile, gale_shapley(profile, side))

    @pytest.mark.parametrize("side", ["men", "women", None, 0])
    def test_a_proposing_side_must_be_a_side(self, side):
        with pytest.raises(ValidationError, match=f"^{re.escape(f'bad side {side!r}')}$"):
            gale_shapley(POLARIZED, side)

    def test_proposing_side_gets_its_optimum(self):
        rng = random.Random(13)
        for _ in range(60):
            profile = random_profile(rng, 4, 4, complete=True)
            best = gale_shapley(profile, Side.MEN)
            for other in enumerate_stable_matchings(profile):
                for m in range(4):
                    mine, theirs = best.partner_of_man(m), other.partner_of_man(m)
                    assert mine is not None and theirs is not None
                    assert profile.men[m].rank[mine] <= profile.men[m].rank[theirs]


class TestEnumerate:
    def test_cyclic_instance_has_three(self):
        result = enumerate_stable_matchings(CYCLIC)
        assert [mu.sorted_pairs() for mu in result] == CYCLIC_STABLE

    def test_polarized_instance_has_ten(self):
        assert len(enumerate_stable_matchings(POLARIZED)) == 10

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_lattice_walk_matches_brute_force(self, data):
        # incomplete lists, one-sided acceptance, unequal and empty sides
        n_men, n_women = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))

        def lists(owners, candidates):
            ranking = st.lists(st.integers(0, candidates - 1), unique=True)
            return tuple(
                LinearOrder(tuple(data.draw(ranking) if candidates else ()))
                for _ in range(owners)
            )

        profile = Profile(men=lists(n_men, n_women), women=lists(n_women, n_men))
        walked = enumerate_stable_matchings(profile)
        assert walked == reference_stable_matchings(profile)

    def test_lattice_walk_matches_brute_force_at_six(self):
        rng = random.Random(17)
        for n_men, n_women, complete in [(6, 6, True), (6, 6, False), (6, 5, False)] * 2:
            profile = random_profile(rng, n_men, n_women, complete=complete)
            walked = enumerate_stable_matchings(profile)
            assert walked == reference_stable_matchings(profile)

    def test_lattice_walk_with_spare_women(self):
        # no stability check filters the walk's children, so the successor
        # scan must stop at an unmatched acceptable woman: spare women make
        # her common, and skipping her instead yields unstable children
        rng = random.Random(19)
        for _ in range(80):
            n_men = rng.randint(2, 5)
            n_women = rng.randint(n_men + 1, 6)
            profile = random_profile(rng, n_men, n_women, complete=rng.random() < 0.5)
            walked = enumerate_stable_matchings(profile)
            assert walked == reference_stable_matchings(profile)

    def test_cap_is_enforced(self):
        with pytest.raises(ResourceLimitError):
            enumerate_stable_matchings(POLARIZED, cap=3)

    @pytest.mark.parametrize("profile, count", [(POLARIZED, 10), (CYCLIC, 3)])
    def test_cap_counts_every_stable_matching(self, profile, count):
        # the man-optimal root counts too, so cap 0 refuses any profile
        assert len(enumerate_stable_matchings(profile, cap=count)) == count
        for cap in (count - 1, 0):
            with pytest.raises(ResourceLimitError):
                enumerate_stable_matchings(profile, cap=cap)


class TestWeaklyStable:
    def test_tie_does_not_block(self):
        men = (WeakOrder(((0, 1),)), WeakOrder(((0,), (1,))))
        women = (WeakOrder(((0,), (1,))), WeakOrder(((0, 1),)))
        # m0 is indifferent, so (m0, w0) cannot weakly block the swap
        assert is_weakly_stable(men, women, Matching.from_pairs([(0, 1), (1, 0)]))

    def test_strict_preference_both_sides_blocks(self):
        men = (WeakOrder(((0,), (1,))), WeakOrder(((0,), (1,))))
        women = (WeakOrder(((0,), (1,))), WeakOrder(((0,), (1,))))
        assert not is_weakly_stable(men, women, Matching.from_pairs([(0, 1), (1, 0)]))
        assert is_weakly_stable(men, women, Matching.from_pairs([(0, 0), (1, 1)]))

    def test_unmatched_mutually_acceptable_pair_blocks_when_strict(self):
        men = (WeakOrder(((0,),)),)
        women = (WeakOrder(((0,),)),)
        assert not is_weakly_stable(men, women, Matching.from_pairs([]))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_a_pair_by_pair_reference(self, seed):
        # incomplete compact markets, each matching a random part of a
        # maximal one, so that some acceptable agents stay unmatched
        rng = random.Random(90 + seed)
        outcomes = set()
        for _ in range(60):
            n_men, n_women = rng.randint(0, 6), rng.randint(0, 6)
            inst = random_compact_instance(rng, n_men, n_women, complete=False)
            men, women = inst.model.men, inst.model.women
            maximal = random_maximal_matching(rng, inst).sorted_pairs()
            mu = Matching.from_pairs(p for p in maximal if rng.random() < 0.7)
            blocked = any(
                reference_strictly_prefers(men[m], w, mu.partner_of_man(m))
                and reference_strictly_prefers(women[w], m, mu.partner_of_woman(w))
                for m in range(n_men)
                for w in range(n_women)
            )
            assert is_weakly_stable(men, women, mu) is not blocked
            outcomes.add(blocked)
        assert outcomes == {False, True}


@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_single_agent_markets_are_never_blocked(men_perm, women_perm):
    profile = Profile(
        men=tuple(LinearOrder((w,)) for w in men_perm),
        women=tuple(LinearOrder((m,)) for m in women_perm),
    )
    mu = gale_shapley(profile)
    assert is_stable(profile, mu)
    # every agent listing exactly one mutually acceptable partner is matched
    # to that partner iff the interest is mutual
    for m, w in mu.pairs:
        assert men_perm[m] == w and women_perm[w] == m


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8, unique_by=lambda p: p
    )
)
def test_blocking_pairs_are_always_mutually_acceptable(pairs):
    rng = random.Random(23)
    profile = random_profile(rng, 6, 6)
    matching_pairs = []
    for m, w in pairs:
        if not (profile.men[m].accepts(w) and profile.women[w].accepts(m)):
            continue
        if all(m != m2 and w != w2 for m2, w2 in matching_pairs):
            matching_pairs.append((m, w))
    mu = Matching.from_pairs(matching_pairs)
    for m, w in blocking_pairs(profile, mu):
        assert profile.men[m].accepts(w) and profile.women[w].accepts(m)
        assert mu.partner_of_man(m) != w
