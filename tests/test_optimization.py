"""Tests for the most-stable-matching search routines."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stableprob.optimization as optimization
import stableprob.probability as probability
from stableprob.core import Budget
from helpers import (
    MU_IDENTITY,
    certain,
    compact_instance,
    example_market,
    lottery,
    lottery_instance,
    random_compact_instance,
    random_joint_instance,
    random_lottery_instance,
    random_perturbed_lottery_instance,
    reference_beats,
    reference_constant_uncertain,
    reference_lottery_bound,
    reference_most_stable,
)
from stableprob import (
    AgentLottery,
    CompactModel,
    Instance,
    JointModel,
    LinearOrder,
    Matching,
    MostStableResult,
    Profile,
    ResourceLimitError,
    ValidationError,
    WeakOrder,
    complete_instance,
    estimate_stability_probability,
    is_stability_probability_nonzero,
    most_stable_brute_force,
    most_stable_constant_uncertain,
    stability_probability,
    stability_probability_exact,
    uncertain_agents,
)


def all_matchings(n_men: int, n_women: int, acceptable):
    """Every matching (partial ones included) over the acceptable pairs."""
    results = []

    def extend(m: int, used: set, pairs: list):
        if m == n_men:
            results.append(Matching.from_pairs(pairs))
            return
        extend(m + 1, used, pairs)
        for w in sorted(acceptable[m]):
            if w not in used:
                pairs.append((m, w))
                used.add(w)
                extend(m + 1, used, pairs)
                used.remove(w)
                pairs.pop()

    extend(0, set(), [])
    return results


def one_side_uncertain_lottery(
    rng, n: int, k: int, complete: bool, max_support: int = 2
) -> Instance:
    """Lottery instance, k uncertain men with supports of up to
    ``max_support`` orders, women certain."""
    base = random_lottery_instance(rng, n, n, max_support=max_support, complete=complete)
    model = base.model
    uncertain = [m for m in range(n) if len(model.men[m].support) > 1]
    rng.shuffle(uncertain)
    men = list(model.men)
    for m in uncertain[k:]:
        men[m] = certain(*model.men[m].support[0][0].ranking)
    women = [certain(*e.support[0][0].ranking) for e in model.women]
    return lottery_instance(men, women)


def one_side_uncertain_compact(rng, n: int, k: int) -> Instance:
    base = random_compact_instance(rng, n, n, complete=True)
    model = base.model
    men = list(model.men)
    tied = [m for m in range(n) if any(len(t) > 1 for t in men[m].tiers)]
    rng.shuffle(tied)
    for m in tied[k:]:
        flat = [c for tier in men[m].tiers for c in tier]
        men[m] = WeakOrder(tuple((c,) for c in flat))
    women = tuple(
        WeakOrder(tuple((c,) for c in sorted(o.candidates))) for o in model.women
    )
    return Instance(CompactModel(men=tuple(men), women=women))


@st.composite
def small_markets(draw):
    """Markets with up to 5 agents a side, unequal sides and incomplete lists
    allowed: lotteries with up to 3 orders per agent on both sides, compact
    weak orders with ties of up to 3, or joint models over up to 3
    profiles."""
    n_men, n_women = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    mostly = st.integers(0, 3).map(bool)
    accept = [[draw(mostly) for _ in range(n_women)] for _ in range(n_men)]
    men_lists = [[w for w in range(n_women) if accept[m][w]] for m in range(n_men)]
    women_lists = [[m for m in range(n_men) if accept[m][w]] for w in range(n_women)]

    def weights(k: int) -> list[Fraction]:
        raw = [draw(st.integers(1, 4)) for _ in range(k)]
        return [Fraction(r, sum(raw)) for r in raw]

    def orders(lists) -> tuple[LinearOrder, ...]:
        return tuple(LinearOrder(tuple(draw(st.permutations(c)))) for c in lists)

    kind = draw(st.sampled_from(["lottery", "compact", "joint"]))
    if kind == "lottery":

        def agent(candidates) -> AgentLottery:
            k = draw(st.integers(1, 3))
            support = orders([candidates] * k)
            return AgentLottery(tuple(zip(support, weights(k))))

        return lottery_instance(
            [agent(c) for c in men_lists], [agent(c) for c in women_lists]
        )
    if kind == "compact":

        def weak(candidates) -> WeakOrder:
            ranking, tiers = draw(st.permutations(candidates)), []
            while ranking:
                size = draw(st.integers(1, min(3, len(ranking))))
                tiers.append(tuple(ranking[:size]))
                ranking = ranking[size:]
            return WeakOrder(tuple(tiers))

        men = tuple(weak(c) for c in men_lists)
        return Instance(CompactModel(men, tuple(weak(c) for c in women_lists)))
    k = draw(st.integers(1, 3))
    profiles = [Profile(orders(men_lists), orders(women_lists)) for _ in range(k)]
    return Instance(JointModel(tuple(zip(profiles, weights(k)))))


def on_leaves(monkeypatch, record) -> None:
    """Call ``record(completed, matching, probability, incumbent, compiled)``
    at every leaf either search enters, in order: a full assignment in
    brute force, an extension of the uncertain men's assignment in the
    constant-uncertain search. ``probability`` is the leaf's score (None
    when the bound over the extension's certain couples drops it), and
    ``compiled`` tells whether ``stability_probability`` scored it rather
    than the bound's record."""
    most_stable, score = optimization._most_stable, optimization.stability_probability
    last = [[], Fraction(0)]  # the women and incumbent of the last bound call

    def compiling(completed, matching, cap):
        p = score(completed, matching, cap=cap)
        record(completed, matching, p, last[1], True)
        return p

    def recording(completed, padding, men, k, bound, exact, *args):
        def bounded(d, women, incumbent):
            last[:] = women, incumbent
            kept = bound(d, women, incumbent)
            if d >= k and not kept:
                matching = Matching.from_pairs(zip(men, women))
                record(completed, matching, None, incumbent, False)
            return kept

        def scored():
            p = exact()
            if p is not None:
                matching = Matching.from_pairs(zip(men, last[0]))
                record(completed, matching, p, last[1], False)
            return p

        return most_stable(completed, padding, men, k, bounded, scored, *args)

    monkeypatch.setattr(optimization, "stability_probability", compiling)
    monkeypatch.setattr(optimization, "_most_stable", recording)


def count_scored(monkeypatch) -> list:
    """Record the matchings the searches score, in order, whether from the
    bound's record or by ``stability_probability``."""
    scored = []
    on_leaves(monkeypatch, lambda completed, matching, *_: scored.append(matching))
    return scored


class TestMostStableResult:
    def test_flag_defaults_to_false(self):
        result = MostStableResult(
            matching=MU_IDENTITY, probability=Fraction(1), examined=1
        )
        assert not result.all_candidates_excluded


class TestBruteForce:
    def test_running_example(self):
        result = most_stable_brute_force(example_market())
        assert result.matching == MU_IDENTITY
        assert result.probability == Fraction(13, 25)
        assert result.examined == 2

    def test_certain_instance_unique_stable_matching(self):
        inst = lottery_instance(
            men=[certain(0, 1), certain(1, 0)],
            women=[certain(0, 1), certain(1, 0)],
        )
        result = most_stable_brute_force(inst)
        assert result.matching == MU_IDENTITY
        assert result.probability == 1

    def test_full_tie_market_breaks_ties_lexicographically(self):
        inst = compact_instance(
            men_tiers=[[[0], [1], [2]]] * 3,
            women_tiers=[[[0, 1, 2]]] * 3,
        )
        result = most_stable_brute_force(inst)
        assert result.probability == Fraction(1, 6)
        assert result.matching == Matching.from_pairs([(0, 0), (1, 1), (2, 2)])
        assert result.examined == 6

    def test_empty_market(self):
        inst = lottery_instance(men=[], women=[])
        result = most_stable_brute_force(inst)
        assert len(result.matching) == 0
        assert result.probability == 1
        assert result.examined == 1

    def test_cap_exceeded(self):
        with pytest.raises(ResourceLimitError):
            most_stable_brute_force(example_market(), cap=1)

    def test_optimal_over_all_partial_matchings(self):
        rng = random.Random(21)
        for _ in range(40):
            n_men = rng.randint(1, 3)
            n_women = rng.randint(1, 3)
            kind = rng.choice(["lottery", "compact"])
            if kind == "lottery":
                inst = random_lottery_instance(
                    rng, n_men, n_women, max_support=2, complete=rng.random() < 0.5
                )
            else:
                inst = random_compact_instance(
                    rng, n_men, n_women, complete=rng.random() < 0.5
                )
            result = most_stable_brute_force(inst)
            best = max(
                stability_probability_exact(inst, mu)
                for mu in all_matchings(inst.n_men, inst.n_women, inst.acceptable_men)
            )
            assert result.probability == best
            # the reported matching lives on the original instance
            inst.validate_matching(result.matching)
            assert stability_probability(inst, result.matching) == result.probability


class TestBranchAndBound:
    """The pruned search against the plain scan over all n! matchings."""

    @settings(deadline=None, max_examples=200)
    @given(small_markets())
    def test_matches_the_plain_scan(self, instance):
        assert most_stable_brute_force(instance, cap=None) == reference_most_stable(
            instance
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_plain_scan_at_six_and_seven(self, seed):
        rng = random.Random(40 + seed)
        markets = [
            one_side_uncertain_lottery(rng, 6, 3, complete=True),
            random_perturbed_lottery_instance(rng, 6, 1, 2),
            random_lottery_instance(rng, 6, 5, max_support=3, complete=False),
            random_compact_instance(rng, 6, 6, complete=seed == 0),
            random_joint_instance(rng, 6, 6, n_profiles=3),
            one_side_uncertain_lottery(rng, 7, 3, complete=True)
            if seed
            else random_perturbed_lottery_instance(rng, 7, 1, 2),
        ]
        for instance in markets:
            expected = reference_most_stable(instance)
            assert most_stable_brute_force(instance, cap=None) == expected

    def test_incumbent_of_probability_zero_is_replaced(self):
        # the identity, scored first, is blocked by (m0, w1) for certain
        inst = lottery_instance(
            men=[certain(1, 0), certain(1, 0)],
            women=[certain(0, 1), certain(0, 1)],
        )
        assert stability_probability(inst, MU_IDENTITY) == 0
        result = most_stable_brute_force(inst)
        assert result == reference_most_stable(inst)
        assert result.matching == Matching.from_pairs([(0, 1), (1, 0)])
        assert result.probability == 1

    def test_many_tied_maxima_keep_the_first(self):
        # identical strict men and fully tied women: all 24 matchings have
        # probability 1/24; tied pairs of tiers on both sides: 4 of 24 share
        # the maximum 81/256
        identity = Matching.from_pairs((k, k) for k in range(4))
        strict_men = compact_instance([[[0], [1], [2], [3]]] * 4, [[[0, 1, 2, 3]]] * 4)
        tied_pairs = compact_instance([[[0, 1], [2, 3]]] * 4, [[[0, 1], [2, 3]]] * 4)
        for inst, best in ((strict_men, Fraction(1, 24)), (tied_pairs, Fraction(81, 256))):
            result = most_stable_brute_force(inst)
            assert result == reference_most_stable(inst)
            assert result.probability == best
            assert result.matching == identity and result.examined == 24

    def test_cap_counts_perfect_matchings_before_any_is_scored(self, monkeypatch):
        # women certain: scoring a candidate enters only the search root
        inst = one_side_uncertain_lottery(random.Random(30), 4, 2, complete=True)
        scored = count_scored(monkeypatch)
        with pytest.raises(ResourceLimitError):
            most_stable_brute_force(inst, cap=math.factorial(4) - 1)
        assert scored == []
        result = most_stable_brute_force(inst, cap=math.factorial(4))
        assert result == reference_most_stable(inst)

    def test_pruned_candidates_are_not_scored(self, monkeypatch):
        # certain pairs that block outright rule out most prefixes
        inst = one_side_uncertain_lottery(random.Random(31), 6, 3, complete=True)
        scored = count_scored(monkeypatch)
        result = most_stable_brute_force(inst)
        assert result.examined == 720
        assert len(scored) < 72
        assert len(set(scored)) == len(scored)
        assert result.probability == max(
            stability_probability(inst, mu) for mu in scored
        )

    def test_pruned_compact_candidates_are_not_scored(self, monkeypatch):
        # a compact pair whose two stances are both True blocks in every
        # extension, which rules out most prefixes of both searches
        inst = random_compact_instance(random.Random(31), 6, 6, complete=True)
        scored = count_scored(monkeypatch)
        result = most_stable_brute_force(inst)
        assert result.examined == 720
        assert len(scored) < 72
        assert len(set(scored)) == len(scored)
        assert result == reference_most_stable(inst)
        inst = one_side_uncertain_compact(random.Random(32), 8, 3)
        scored.clear()
        result = most_stable_constant_uncertain(inst)
        assert result.examined == 336
        assert len(scored) < 42
        assert len(set(scored)) == len(scored)
        assert result == reference_constant_uncertain(inst)


class TestLotteryBound:
    """``_lottery_bound`` keeps its state per depth: at every node of a
    depth-first walk its verdict must equal the bound recomputed from
    scratch for the node's prefix."""

    @staticmethod
    def walk(instance: Instance, rng: random.Random, men=None) -> None:
        """Walk the prefixes that match ``men`` (default: all men) of the
        completed ``instance`` depth first in ``permutations`` order,
        descending where the bound exceeds an incumbent drawn from the
        leaves' probabilities, and check each verdict against
        ``reference_lottery_bound``."""
        completed = complete_instance(instance)[0]
        n = completed.n_men
        leaves = sorted(
            {Fraction(0)}
            | {
                stability_probability(completed, Matching.from_pairs(enumerate(p)), cap=None)
                for p in itertools.permutations(range(n))
            }
        )
        men = range(n) if men is None else men
        bound, exact = optimization._lottery_bound(completed, men)
        women: list[int] = []

        def descend() -> None:
            d = len(women)
            for w in range(n):
                if w in women:
                    continue
                women.append(w)
                incumbent = rng.choice(leaves)
                verdict = bound(d, women, incumbent)
                assert verdict == reference_lottery_bound(completed, men, women, incumbent)
                if verdict and d + 1 < len(men):
                    descend()
                elif verdict and len(men) == n:
                    TestLotteryBound.check_exact(completed, women, exact())
                women.pop()

        descend()

    @staticmethod
    def check_exact(completed: Instance, women: list[int], p) -> None:
        """At a perfect matching whose bound exceeded the incumbent, the
        record gives its exact probability exactly when the compiled model
        has no two-sided constraint, and only in a lottery market."""
        if completed.kind != "lottery":
            assert p is None
            return
        matching = Matching.from_pairs(enumerate(women))
        model = probability._compile(completed, matching, Budget(None, "search nodes"))
        assert model is not None and (p is None) == bool(model.components)
        if p is not None:
            assert p == stability_probability(completed, matching, cap=None)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 5), st.integers(0, 2**32))
    def test_matches_the_reference_on_complete_markets(self, n, seed):
        # both sides uncertain, so pairs that block in only some orders of
        # both agents occur
        rng = random.Random(seed)
        self.walk(random_lottery_instance(rng, n, n, max_support=3), rng)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 5), st.integers(1, 5), st.integers(0, 2**32))
    def test_matches_the_reference_on_completed_markets(self, n_men, n_women, seed):
        rng = random.Random(seed)
        instance = random_lottery_instance(rng, n_men, n_women, max_support=3, complete=False)
        self.walk(instance, rng)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 5), st.integers(1, 5), st.booleans(), st.integers(0, 2**32))
    def test_matches_the_reference_on_subsets_of_men(self, n_men, n_women, complete, seed):
        # the constant-uncertain search bounds only its sorted uncertain
        # men, so the walk stops above the leaves
        rng = random.Random(seed)
        instance = random_lottery_instance(
            rng, n_men, n_men if complete else n_women, max_support=3, complete=complete
        )
        n = complete_instance(instance)[0].n_men
        self.walk(instance, rng, sorted(rng.sample(range(n), rng.randint(1, n))))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 5), st.integers(0, 2**32))
    def test_matches_the_reference_on_complete_compact_markets(self, n, seed):
        # ties on both sides, so pairs with one stance None occur
        rng = random.Random(seed)
        instance = random_compact_instance(rng, n, n)
        self.walk(instance, rng)
        self.walk(instance, rng, sorted(rng.sample(range(n), rng.randint(1, n))))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 5), st.integers(1, 5), st.integers(0, 2**32))
    def test_matches_the_reference_on_completed_compact_markets(
        self, n_men, n_women, seed
    ):
        rng = random.Random(seed)
        instance = random_compact_instance(rng, n_men, n_women, complete=False)
        self.walk(instance, rng)
        n = complete_instance(instance)[0].n_men
        self.walk(instance, rng, sorted(rng.sample(range(n), rng.randint(1, n))))

    def test_a_node_fetches_only_its_own_views(self, monkeypatch):
        # a node fetches its couple's two views and reads the earlier
        # couples' from their depths; a leaf scored from the bound's record
        # fetches none
        n = 6
        inst = one_side_uncertain_lottery(random.Random(31), n, 3, complete=True)
        expected = reference_most_stable(inst)
        scored = count_scored(monkeypatch)
        fetches, nodes = [], []
        beats, lottery_bound = AgentLottery.beats, optimization._lottery_bound

        def counting_beats(entry, partner):
            fetches.append(partner)
            return beats(entry, partner)

        def counting_bound(instance, men):
            bound, exact = lottery_bound(instance, men)

            def counted(d, women, incumbent):
                nodes.append(d)
                return bound(d, women, incumbent)

            return counted, exact

        monkeypatch.setattr(AgentLottery, "beats", counting_beats)
        monkeypatch.setattr(optimization, "_lottery_bound", counting_bound)
        assert most_stable_brute_force(inst) == expected
        assert scored and max(nodes) == n - 1
        assert len(fetches) <= 2 * len(nodes)


class TestLeavesFromTheRecord:
    """A lottery leaf whose path met no pair that blocks in only some orders
    of both its agents reads its probability from the bound's record; any
    other leaf is compiled by ``stability_probability``. Every record score
    must be the leaf's exact probability, and a constant-uncertain leaf
    that the continued bound drops must be no better than the incumbent."""

    @staticmethod
    def search(search, instance: Instance) -> tuple:
        """Run ``search`` on ``instance`` and check every leaf it scores;
        returns the result and the leaves as ``on_leaves`` records them."""
        leaves = []
        with pytest.MonkeyPatch.context() as patch:
            on_leaves(patch, lambda *leaf: leaves.append(leaf))
            result = search(instance, cap=None)
        for completed, matching, p, incumbent, _ in leaves:
            exact = stability_probability(completed, matching, cap=None)
            assert exact <= incumbent if p is None else p == exact
        return result, leaves

    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(1, 5), st.integers(1, 5), st.booleans(), st.booleans(), st.integers(0, 2**32)
    )
    def test_brute_force_on_lottery_markets(self, n_men, n_women, complete, one_side, seed):
        # incomplete and unequal markets included; with the women certain
        # no pair is two-sided, so no leaf is compiled
        inst = random_lottery_instance(
            random.Random(seed), n_men, n_women, max_support=3, complete=complete
        )
        if one_side:
            women = [certain(*e.support[0][0].ranking) for e in inst.model.women]
            inst = lottery_instance(inst.model.men, women)
        result, leaves = self.search(most_stable_brute_force, inst)
        assert result == reference_most_stable(inst)
        assert leaves
        if one_side:
            assert not any(compiled for *_, compiled in leaves)

    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(1, 6), st.integers(1, 3), st.booleans(), st.booleans(), st.integers(0, 2**32)
    )
    def test_constant_uncertain_on_lottery_markets(self, n, k, complete, transpose, seed):
        # every extension is perfect and no pair is two-sided, so no leaf
        # is compiled
        inst = one_side_uncertain_lottery(
            random.Random(seed), n, k, complete=complete, max_support=3
        )
        if transpose:
            inst = inst.transposed()
        result, leaves = self.search(most_stable_constant_uncertain, inst)
        assert result == reference_constant_uncertain(inst)
        assert leaves
        for completed, matching, p, _, compiled in leaves:
            assert len(matching) == completed.n_men and not compiled

    def test_a_two_sided_pair_takes_the_fallback(self):
        # the identity, scored first: man 0 prefers woman 1 to his partner
        # in one of his orders and she him to hers in one of hers
        inst = example_market()
        result, leaves = self.search(most_stable_brute_force, inst)
        assert result == reference_most_stable(inst)
        _, matching, p, _, compiled = leaves[0]
        assert matching == MU_IDENTITY and compiled
        assert p == stability_probability(inst, MU_IDENTITY) > 0

    def test_one_side_lottery_leaves_compile_nothing(self, monkeypatch):
        inst = one_side_uncertain_lottery(random.Random(31), 6, 3, complete=True)
        expected = reference_most_stable(inst)
        compiled = []
        original = probability._compile

        def counting(*args):
            compiled.append(args)
            return original(*args)

        monkeypatch.setattr(probability, "_compile", counting)
        assert most_stable_brute_force(inst) == expected
        assert most_stable_constant_uncertain(inst).probability == expected.probability
        assert compiled == []


class TestConstantUncertain:
    def test_zero_uncertain_agents(self):
        inst = lottery_instance(
            men=[certain(0, 1), certain(1, 0)],
            women=[certain(0, 1), certain(1, 0)],
        )
        result = most_stable_constant_uncertain(inst)
        assert result.probability == 1
        assert result.examined == 1
        assert not result.all_candidates_excluded

    def test_single_uncertain_man_in_pinned_example(self):
        inst = lottery_instance(
            men=[
                lottery(((0, 1), "2/5"), ((1, 0), "3/5")),
                certain(1, 0),
            ],
            women=[certain(0, 1), certain(0, 1)],
        )
        result = most_stable_constant_uncertain(inst)
        brute = most_stable_brute_force(inst)
        assert result.probability == brute.probability
        assert result.examined == 2
        assert stability_probability(inst, result.matching) == result.probability

    def test_rejects_uncertainty_on_both_sides(self):
        with pytest.raises(ValidationError):
            most_stable_constant_uncertain(example_market())

    def test_uncertain_count_cap(self):
        inst = lottery_instance(
            men=[
                lottery(((0, 1), "1/2"), ((1, 0), "1/2")),
                lottery(((0, 1), "1/2"), ((1, 0), "1/2")),
            ],
            women=[certain(0, 1), certain(0, 1)],
        )
        with pytest.raises(ResourceLimitError):
            most_stable_constant_uncertain(inst, cap=1)
        result = most_stable_constant_uncertain(inst, cap=2)
        assert result.probability == most_stable_brute_force(inst).probability

    def test_full_tie_market_matches_brute_force(self):
        inst = compact_instance(
            men_tiers=[[[0], [1], [2]]] * 3,
            women_tiers=[[[0, 1, 2]]] * 3,
        )
        result = most_stable_constant_uncertain(inst)
        assert result.probability == Fraction(1, 6)

    def test_matches_brute_force_on_lottery_instances(self):
        rng = random.Random(22)
        for _ in range(50):
            n = rng.randint(2, 5)
            k = rng.randint(0, 2)
            inst = one_side_uncertain_lottery(rng, n, k, complete=rng.random() < 0.7)
            result = most_stable_constant_uncertain(inst)
            brute = most_stable_brute_force(inst)
            assert result.probability == brute.probability
            assert not result.all_candidates_excluded
            inst.validate_matching(result.matching)
            assert stability_probability(inst, result.matching) == result.probability

    def test_matches_brute_force_on_compact_instances(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 5)
            k = rng.randint(0, 2)
            inst = one_side_uncertain_compact(rng, n, k)
            result = most_stable_constant_uncertain(inst)
            brute = most_stable_brute_force(inst)
            assert result.probability == brute.probability

    def test_uncertain_women_normalized_by_transposition(self):
        rng = random.Random(24)
        for _ in range(30):
            n = rng.randint(2, 5)
            k = rng.randint(1, 2)
            inst = one_side_uncertain_lottery(
                rng, n, k, complete=rng.random() < 0.7
            ).transposed()
            assert all(a.side.name == "WOMEN" for a in uncertain_agents(inst))
            result = most_stable_constant_uncertain(inst)
            brute = most_stable_brute_force(inst)
            assert result.probability == brute.probability
            inst.validate_matching(result.matching)

    def test_examined_counts_injective_assignments(self):
        rng = random.Random(25)
        for _ in range(20):
            n = rng.randint(2, 5)
            k = rng.randint(0, 2)
            inst = one_side_uncertain_lottery(rng, n, k, complete=True)
            actual_k = len(uncertain_agents(inst))
            result = most_stable_constant_uncertain(inst)
            expected = 1
            for i in range(actual_k):
                expected *= n - i
            assert result.examined == expected

    def test_winning_assignment_dominates_its_extensions(self):
        rng = random.Random(26)
        for _ in range(25):
            n = rng.randint(2, 4)
            inst = one_side_uncertain_lottery(rng, n, 1, complete=True)
            uncertain = sorted(a.index for a in uncertain_agents(inst))
            result = most_stable_constant_uncertain(inst)
            fixed = {m: result.matching.partner_of_man(m) for m in uncertain}
            rest_men = [m for m in range(n) if m not in fixed]
            rest_women = [w for w in range(n) if w not in fixed.values()]
            for perm in itertools.permutations(rest_women):
                pairs = list(fixed.items()) + list(zip(rest_men, perm))
                extension = Matching.from_pairs(pairs)
                assert (
                    stability_probability_exact(inst, extension)
                    <= result.probability
                )

    def test_cap_counts_assignments_before_any_is_scored(self, monkeypatch):
        inst = one_side_uncertain_lottery(random.Random(30), 4, 2, complete=True)
        assignments = math.perm(4, len(uncertain_agents(inst)))
        scored = count_scored(monkeypatch)
        with pytest.raises(ResourceLimitError):
            most_stable_constant_uncertain(inst, cap=assignments - 1)
        assert scored == []
        result = most_stable_constant_uncertain(inst, cap=assignments)
        assert result == reference_constant_uncertain(inst)

    def test_pruned_assignments_are_not_scored(self, monkeypatch):
        # pairs between uncertain men and their assigned women that block
        # outright rule out most prefixes
        inst = one_side_uncertain_lottery(random.Random(33), 8, 3, complete=True)
        assert len(uncertain_agents(inst)) == 3
        scored = count_scored(monkeypatch)
        result = most_stable_constant_uncertain(inst)
        assert result.examined == 336
        assert len(scored) < 34
        assert len(set(scored)) == len(scored)
        assert result == reference_constant_uncertain(inst)

    @pytest.mark.parametrize(
        "man_0, men, women, first_scored",
        [
            # m0 -> w0 scores 0: in both of m0's orders a woman he prefers
            # to w0 ranks him first
            (
                [(2, 0, 1), (1, 2, 0)],
                [(0, 1, 2), (1, 2, 0)],
                [(0, 1, 2), (0, 1, 2), (0, 2, 1)],
                True,
            ),
            # m0 -> w0 is excluded: m1 and w0 rank each other first
            (
                [(0, 1, 2), (0, 2, 1)],
                [(0, 2, 1), (0, 2, 1)],
                [(1, 2, 0), (0, 1, 2), (1, 0, 2)],
                False,
            ),
        ],
    )
    def test_first_assignment_without_score_keeps_the_tie_rule(
        self, monkeypatch, man_0, men, women, first_scored
    ):
        # m0 -> w1 and m0 -> w2 tie at 1/2 and the earlier one wins
        inst = lottery_instance(
            men=[lottery((man_0[0], "1/2"), (man_0[1], "1/2"))]
            + [certain(*o) for o in men],
            women=[certain(*o) for o in women],
        )
        scored = count_scored(monkeypatch)
        result = most_stable_constant_uncertain(inst)
        first = [mu for mu in scored if mu.partner_of_man(0) == 0]
        assert len(first) == first_scored
        assert all(stability_probability(inst, mu) == 0 for mu in first)
        assert result == reference_constant_uncertain(inst)
        assert result.probability == Fraction(1, 2)
        assert result.matching.partner_of_man(0) == 1

    def test_one_fresh_round_per_scored_candidate(self, monkeypatch):
        # the proposer-optimal round runs afresh once, at the root, and is
        # resumed down every path; only each scored leaf's receiver-optimal
        # round starts from the empty state
        inst = one_side_uncertain_lottery(random.Random(33), 8, 3, complete=True)
        fresh = []
        original = optimization.deferred_acceptance

        def counting(lists, ranks, *state):
            held, next_choice = (state + (None, None))[:2]
            if not held and not any((next_choice or {}).values()):
                fresh.append(lists)
            return original(lists, ranks, *state)

        monkeypatch.setattr(optimization, "deferred_acceptance", counting)
        scored = count_scored(monkeypatch)
        result = most_stable_constant_uncertain(inst)
        assert len(scored) == 17
        assert len(fresh) <= 1 + len(scored)
        assert result == reference_constant_uncertain(inst)

    def test_rounds_resume_only_for_prefixes_above_the_incumbent(self, monkeypatch):
        # a prefix whose lottery bound is at most the incumbent is dropped
        # before its proposer round is resumed; resuming whenever that bound
        # is positive would take 74 rounds on this market
        inst = one_side_uncertain_lottery(random.Random(33), 8, 3, complete=True)
        kept, resumed = [], []
        lottery_bound = optimization._lottery_bound
        original = optimization.deferred_acceptance

        def recording_bound(instance, men):
            bound, exact = lottery_bound(instance, men)

            def recording(*args):
                kept.append(bound(*args))
                return kept[-1]

            return recording, exact

        def counting(lists, ranks, *state):
            if len(state) == 3:  # held, next positions and the women taken
                resumed.append(kept[-1])  # the verdict of this prefix's bound
            return original(lists, ranks, *state)

        monkeypatch.setattr(optimization, "_lottery_bound", recording_bound)
        monkeypatch.setattr(optimization, "deferred_acceptance", counting)
        result = most_stable_constant_uncertain(inst)
        assert resumed == [True] * 53
        assert result == reference_constant_uncertain(inst)

    @settings(deadline=None, max_examples=60)
    @given(
        st.randoms(use_true_random=False),
        st.integers(2, 7),
        st.integers(1, 3),
        st.booleans(),
        st.booleans(),
    )
    def test_resumed_rounds_equal_fresh_rounds(self, rng, n, k, compact, transpose):
        # every prefix's round, resumed from its parent's, is the round a
        # fresh deferred acceptance finds on the lists without the women
        # taken so far
        if compact:
            inst = one_side_uncertain_compact(rng, n, k)
        else:
            inst = one_side_uncertain_lottery(rng, n, k, complete=rng.random() < 0.6)
        if transpose:
            inst = inst.transposed()
        original = optimization.deferred_acceptance
        resumed = []

        def checking(lists, ranks, *state):
            result = original(lists, ranks, *state)
            if len(state) == 3:  # held, next positions and the women taken
                closed = state[2]
                kept = {p: [r for r in lists[p] if r not in closed] for p in lists}
                assert result == original(kept, ranks)
                resumed.append(closed)
            return result

        with mock.patch.object(optimization, "deferred_acceptance", checking):
            result = most_stable_constant_uncertain(inst, cap=None)
        assert result == reference_constant_uncertain(inst)
        if uncertain_agents(inst):
            assert resumed  # a leaf scores above 0, so a first prefix resumes

    @pytest.mark.parametrize("n, k", [(8, 2), (8, 4), (9, 3), (10, 2), (10, 4)])
    def test_matches_the_reference_search_at_eight_to_ten(self, n, k):
        rng = random.Random(80 + 10 * n + k)
        markets = [
            one_side_uncertain_lottery(rng, n, k, complete=True, max_support=3),
            one_side_uncertain_compact(rng, n, k),
        ]
        assert [len(uncertain_agents(market)) for market in markets] == [k, k]
        for inst in markets + [market.transposed() for market in markets]:
            result = most_stable_constant_uncertain(inst)
            assert result == reference_constant_uncertain(inst)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_reference_search(self, seed):
        # seeded one-side markets up to n = 7, 3-order supports, both sides
        rng = random.Random(60 + seed)
        for n in range(1, 8):
            k = rng.randint(0, min(3, n))
            markets = [
                one_side_uncertain_lottery(
                    rng, n, k, complete=rng.random() < 0.6, max_support=3
                ),
                one_side_uncertain_compact(rng, n, k),
            ]
            for inst in markets + [market.transposed() for market in markets]:
                result = most_stable_constant_uncertain(inst, cap=None)
                assert result == reference_constant_uncertain(inst)
                assert not result.all_candidates_excluded
                if n <= 5:
                    expected = reference_most_stable(inst).probability
                    assert result.probability == expected


class TestSharedPickTables:
    """Every lottery query reads the pick tables, numerators and scale that
    each ``AgentLottery`` caches; no query may change what a later one
    reads."""

    @staticmethod
    def market(women_certain: bool) -> Instance:
        """A complete 4 x 4 lottery market of at most two orders per agent,
        built afresh on every call."""
        inst = random_lottery_instance(random.Random(71), 4, 4, max_support=2)
        if women_certain:
            women = [certain(*entry.support[0][0].ranking) for entry in inst.model.women]
            inst = lottery_instance(list(inst.model.men), women)
        return inst

    @pytest.mark.parametrize("women_certain", [True, False])
    def test_answers_and_tables_survive_every_query(self, women_certain):
        inst = self.market(women_certain)
        sizes = [len(entry.support) for entry in inst.entries]
        assert max(sizes) == 2  # nonzero takes the 2-SAT route
        assert any(size == 2 for size in sizes[4:]) != women_certain
        matchings = all_matchings(4, 4, inst.acceptable_men)
        per_matching = [
            lambda market, mu: stability_probability(market, mu, cap=None),
            is_stability_probability_nonzero,
            lambda market, mu: probability._nonzero_backtracking(market, mu, None),
            lambda market, mu: estimate_stability_probability(
                market, mu, "1/4", "1/4", random.Random(3)
            ),
        ]
        for query in per_matching:
            for mu in matchings:
                assert query(inst, mu) == query(self.market(women_certain), mu)
        searches = [most_stable_brute_force]
        if women_certain:  # all uncertainty sits with the men
            searches.append(most_stable_constant_uncertain)
        for search in searches:
            assert search(inst) == search(self.market(women_certain))
        unqueried = self.market(women_certain)
        for entry, twin in zip(inst.entries, unqueried.entries):
            assert len(entry._beats) == 5  # every woman or man, and None
            for partner, table in entry._beats.items():
                assert table == reference_beats(entry, partner)
            weights = [w for _, w in entry.support]
            assert entry.scale == math.lcm(*(w.denominator for w in weights))
            assert [Fraction(n, entry.scale) for n in entry.numerators] == weights
            assert not twin._beats
            assert entry == twin and hash(entry) == hash(twin)
