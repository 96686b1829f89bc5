"""Tests for exact, closed-form, and sampled stability probabilities."""

import hashlib
import json
import math
import random
import re
import time
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    MU_IDENTITY,
    MU_SWAP,
    certain,
    compact_instance,
    example_market,
    exhaustive_probability,
    joint_instance,
    ladder_instance,
    lottery,
    lottery_instance,
    modal_profile,
    order,
    random_compact_instance,
    random_formula,
    random_graph,
    random_joint_instance,
    random_lottery_instance,
    random_maximal_matching,
    random_perturbed_lottery_instance,
    reference_compact_one_side,
    reference_estimate,
    reference_exact_probability,
    reference_first_witness,
    reference_is_certainly_stable,
    reference_lottery_one_side,
    reference_search_size,
    reference_solve_2sat,
    reference_strictly_prefers,
    reference_super_stable_smp,
    reference_tarjan_scc,
    tied_instance,
    truth_table_count,
)
from stableprob import (
    DEFAULT_CAP,
    AgentId,
    AgentLottery,
    CompactModel,
    Instance,
    LinearOrder,
    Matching,
    Profile,
    ResourceLimitError,
    Side,
    TwoSatInstance,
    ValidationError,
    WeakOrder,
    agent_support,
    build_nonzero_2sat,
    estimate_stability_probability,
    exists_certainly_stable_matching,
    expand_compact_to_lottery,
    gale_shapley,
    is_certainly_stable,
    is_stability_probability_nonzero,
    is_stability_probability_one,
    is_stable,
    lottery_to_joint,
    sample_profile,
    smp_from_instance,
    solve_2sat,
    stability_probability,
    stability_probability_compact_one_side_certain,
    stability_probability_exact,
    stability_probability_joint,
    stability_probability_lottery_one_side_certain,
    super_stable_smp,
)
from stableprob import probability
from stableprob.core import Budget, _pair_masks
from stableprob.models import _views


# SHA-256 of the 2-CNFs of ``test_clause_order_is_pinned``
CLAUSE_PIN = "162a1dcf6249e959c224de71f7f5e1aa5cb069bb79d8c591d49d3bc0ba2f24f6"


def compiled(inst, matching):
    """The matching's compiled model, built with no work limit."""
    return probability._compile(inst, matching, Budget(None, "search nodes"))


def satisfies(formula: TwoSatInstance, assignment) -> bool:
    return all(
        assignment[v1] == p1 or assignment[v2] == p2
        for (v1, p1), (v2, p2) in formula.clauses
    )


class TestTwoSatInstance:
    def test_rejects_negative_variable_count(self):
        with pytest.raises(ValidationError):
            TwoSatInstance(num_variables=-1, clauses=())

    def test_rejects_unknown_variable(self):
        with pytest.raises(ValidationError):
            TwoSatInstance(num_variables=1, clauses=(((1, True), (0, False)),))

    def test_rejects_non_bool_polarity(self):
        with pytest.raises(ValidationError):
            TwoSatInstance(num_variables=1, clauses=(((0, 1), (0, True)),))

    def test_normalizes_clauses_to_tuples(self):
        formula = TwoSatInstance(
            num_variables=2, clauses=[[[0, True], [1, False]]]
        )
        assert formula.clauses == (((0, True), (1, False)),)


class TestSolve2Sat:
    def test_single_positive_clause(self):
        formula = TwoSatInstance(1, (((0, True), (0, True)),))
        assert solve_2sat(formula) == [True]

    def test_single_negative_clause(self):
        formula = TwoSatInstance(1, (((0, False), (0, False)),))
        assert solve_2sat(formula) == [False]

    def test_all_four_clauses_unsatisfiable(self):
        clauses = (
            ((0, True), (1, True)),
            ((0, False), (1, True)),
            ((0, True), (1, False)),
            ((0, False), (1, False)),
        )
        assert solve_2sat(TwoSatInstance(2, clauses)) is None

    def test_implication_chain(self):
        # x0 forced true, x0 -> x1, x1 -> x2
        clauses = (
            ((0, True), (0, True)),
            ((0, False), (1, True)),
            ((1, False), (2, True)),
        )
        assert solve_2sat(TwoSatInstance(3, clauses)) == [True, True, True]

    def test_empty_formula(self):
        assert solve_2sat(TwoSatInstance(3, ())) is not None

    def test_matches_truth_table_on_random_formulas(self):
        rng = random.Random(2024)
        for _ in range(300):
            formula = random_formula(rng, max_vars=10, max_clauses=20)
            assignment = solve_2sat(formula)
            count = truth_table_count(formula)
            if assignment is None:
                assert count == 0
            else:
                assert count > 0
                assert satisfies(formula, assignment)

    @given(st.data())
    def test_assignment_always_satisfies(self, data):
        n = data.draw(st.integers(1, 6))
        literals = st.tuples(st.integers(0, n - 1), st.booleans())
        clauses = data.draw(st.lists(st.tuples(literals, literals), max_size=12))
        formula = TwoSatInstance(n, tuple(clauses))
        assignment = solve_2sat(formula)
        if assignment is None:
            assert truth_table_count(formula) == 0
        else:
            assert satisfies(formula, assignment)

    def test_component_ids_match_the_reference_loop(self):
        assert probability._tarjan_scc([]) == reference_tarjan_scc([]) == []
        rng = random.Random(2025)
        for _ in range(3000):
            graph = random_graph(rng, max_nodes=12, max_edges=30)
            assert probability._tarjan_scc(graph) == reference_tarjan_scc(graph)

    def test_assignments_match_the_reference_solver(self):
        rng = random.Random(2026)
        for _ in range(1000):
            formula = random_formula(rng, max_vars=30, max_clauses=60)
            assert solve_2sat(formula) == reference_solve_2sat(formula)


class TestJointProbability:
    def test_single_stable_profile(self):
        inst = joint_instance(
            [((((0, 1), (1, 0)), ((0, 1), (1, 0))), 1)]
        )
        assert stability_probability_joint(inst, MU_IDENTITY) == 1

    def test_stable_in_one_of_two_profiles(self):
        # (m0, w1) blocks identity in the first profile
        blocked = (((1, 0), (0, 1)), ((0, 1), (0, 1)))
        fine = (((0, 1), (1, 0)), ((0, 1), (1, 0)))
        inst = joint_instance([(blocked, "1/2"), (fine, "1/2")])
        assert stability_probability_joint(inst, MU_IDENTITY) == Fraction(1, 2)

    def test_agrees_with_lottery_expansion(self):
        inst = lottery_to_joint(example_market())
        assert stability_probability_joint(inst, MU_IDENTITY) == Fraction(13, 25)
        assert stability_probability_joint(inst, MU_SWAP) == Fraction(12, 25)

    def test_rejects_lottery_model(self):
        with pytest.raises(ValidationError):
            stability_probability_joint(example_market(), MU_IDENTITY)

    def test_rejects_invalid_matching(self):
        inst = joint_instance(
            [((((0, 1), (1, 0)), ((0, 1), (1, 0))), 1)]
        )
        with pytest.raises(ValidationError):
            stability_probability_joint(inst, Matching.from_pairs([(0, 5)]))


class TestLotteryOneSideCertain:
    def test_all_certain_stable_matching(self):
        inst = lottery_instance(
            men=[certain(0, 1), certain(1, 0)],
            women=[certain(0, 1), certain(1, 0)],
        )
        assert stability_probability_lottery_one_side_certain(inst, MU_IDENTITY) == 1

    def test_single_uncertain_woman_complement_weight(self):
        # only w1's order (0, 1) lets her join m0 in a blocking pair
        inst = lottery_instance(
            men=[certain(1, 0), certain(0, 1)],
            women=[certain(0, 1), lottery(((0, 1), "1/4"), ((1, 0), "3/4"))],
        )
        assert stability_probability_lottery_one_side_certain(
            inst, MU_IDENTITY
        ) == Fraction(3, 4)

    def test_pinned_variant_of_running_example(self):
        # the uncertain man pinned to his heavier order leaves w1 uncertain
        inst = lottery_instance(
            men=[certain(1, 0), certain(1, 0)],
            women=[certain(0, 1), lottery(((0, 1), "4/5"), ((1, 0), "1/5"))],
        )
        value = stability_probability_lottery_one_side_certain(inst, MU_IDENTITY)
        assert value == Fraction(1, 5)
        assert value == stability_probability_exact(inst, MU_IDENTITY)

    def test_unmatched_woman_with_interested_man_forces_zero(self):
        inst = lottery_instance(
            men=[certain(0, 1), certain(0, 1)],
            women=[certain(0, 1), lottery(((0, 1), "1/2"), ((1, 0), "1/2"))],
        )
        partial = Matching.from_pairs([(0, 0)])
        assert stability_probability_lottery_one_side_certain(inst, partial) == 0

    def test_rejects_two_uncertain_sides(self):
        with pytest.raises(ValidationError):
            stability_probability_lottery_one_side_certain(
                example_market(), MU_IDENTITY
            )

    def test_rejects_compact_model(self):
        inst = compact_instance([[[0]], [[1]]], [[[0]], [[1]]])
        with pytest.raises(ValidationError):
            stability_probability_lottery_one_side_certain(inst, MU_IDENTITY)

    @pytest.mark.parametrize("uncertain_side", ["men", "women"])
    def test_agrees_with_exhaustive_oracle(self, uncertain_side):
        rng = random.Random(hash(uncertain_side) % 1000)
        for _ in range(60):
            n = rng.randint(1, 4)
            inst = random_lottery_instance(
                rng, n, n, max_support=3, complete=rng.random() < 0.5
            )
            # pin one whole side to its first support order
            model = inst.model
            if uncertain_side == "women":
                men = [
                    certain(*entry.support[0][0].ranking) for entry in model.men
                ]
                inst = lottery_instance(men, list(model.women))
            else:
                women = [
                    certain(*entry.support[0][0].ranking) for entry in model.women
                ]
                inst = lottery_instance(list(model.men), women)
            matching = random_maximal_matching(rng, inst)
            value = stability_probability_lottery_one_side_certain(inst, matching)
            assert value == exhaustive_probability(inst, matching)


class TestCompactOneSideCertain:
    def test_full_ties_identical_men_is_one_over_factorial(self):
        inst = compact_instance(
            men_tiers=[[[0], [1], [2]]] * 3,
            women_tiers=[[[0, 1, 2]]] * 3,
        )
        mu = Matching.from_pairs([(0, 0), (1, 1), (2, 2)])
        assert stability_probability_compact_one_side_certain(inst, mu) == Fraction(
            1, 6
        )

    def test_no_tied_rival_means_one(self):
        # each man already holds his favourite, so nobody is interested
        inst = compact_instance(
            men_tiers=[[[0], [1]], [[1], [0]]],
            women_tiers=[[[0, 1]], [[0, 1]]],
        )
        assert stability_probability_compact_one_side_certain(inst, MU_IDENTITY) == 1

    def test_interested_man_in_better_tier_means_zero(self):
        inst = compact_instance(
            men_tiers=[[[0], [1]], [[0], [1]]],
            women_tiers=[[[1], [0]], [[0], [1]]],
        )
        assert stability_probability_compact_one_side_certain(inst, MU_IDENTITY) == 0

    def test_tied_rivals_give_one_over_k_plus_one(self):
        inst = compact_instance(
            men_tiers=[[[0], [1]], [[0], [1]]],
            women_tiers=[[[0, 1]], [[0], [1]]],
        )
        assert stability_probability_compact_one_side_certain(
            inst, MU_IDENTITY
        ) == Fraction(1, 2)

    def test_rejects_two_uncertain_sides(self):
        inst = compact_instance(
            men_tiers=[[[0, 1]], [[0], [1]]],
            women_tiers=[[[0, 1]], [[0], [1]]],
        )
        with pytest.raises(ValidationError):
            stability_probability_compact_one_side_certain(inst, MU_IDENTITY)

    def test_rejects_lottery_model(self):
        with pytest.raises(ValidationError):
            stability_probability_compact_one_side_certain(
                example_market(), MU_IDENTITY
            )

    @pytest.mark.parametrize("uncertain_side", ["men", "women"])
    def test_agrees_with_exhaustive_oracle(self, uncertain_side):
        rng = random.Random(len(uncertain_side))
        done = 0
        while done < 50:
            n = rng.randint(1, 4)
            inst = random_compact_instance(rng, n, n, complete=rng.random() < 0.5)
            model = inst.model
            # rebuild with one side strict; skip exhaustive blowups
            if uncertain_side == "women":
                strict_men = tuple(
                    WeakOrder(tuple((c,) for c in sorted(o.candidates)))
                    for o in model.men
                )
                inst = Instance(CompactModel(men=strict_men, women=model.women))
            else:
                strict_women = tuple(
                    WeakOrder(tuple((c,) for c in sorted(o.candidates)))
                    for o in model.women
                )
                inst = Instance(CompactModel(men=model.men, women=strict_women))
            total = 1
            for agent in inst.agents():
                total *= len(agent_support(inst, agent))
            if total > 20_000:
                continue
            done += 1
            matching = random_maximal_matching(rng, inst)
            value = stability_probability_compact_one_side_certain(inst, matching)
            assert value == exhaustive_probability(inst, matching)


class TestExactProbability:
    def test_running_example_values(self):
        inst = example_market()
        assert stability_probability_exact(inst, MU_IDENTITY) == Fraction(13, 25)
        assert stability_probability_exact(inst, MU_SWAP) == Fraction(12, 25)

    def test_certain_instance_is_stability_indicator(self):
        inst = lottery_instance(
            men=[certain(1, 0), certain(0, 1)],
            women=[certain(0, 1), certain(0, 1)],
        )
        assert stability_probability_exact(inst, MU_SWAP) == 1
        assert stability_probability_exact(inst, MU_IDENTITY) == 0

    def test_empty_matching_on_mutually_interested_pair_is_zero(self):
        inst = lottery_instance(men=[certain(0)], women=[certain(0)])
        assert stability_probability_exact(inst, Matching.from_pairs([])) == 0

    def test_cap_exceeded(self):
        with pytest.raises(ResourceLimitError):
            stability_probability_exact(example_market(), MU_IDENTITY, cap=3)

    def test_cap_none_disables_limit(self):
        value = stability_probability_exact(example_market(), MU_IDENTITY, cap=None)
        assert value == Fraction(13, 25)

    def test_agrees_with_exhaustive_on_random_lottery(self):
        rng = random.Random(11)
        for _ in range(80):
            n_men = rng.randint(1, 4)
            n_women = rng.randint(1, 4)
            inst = random_lottery_instance(
                rng, n_men, n_women, max_support=3, complete=rng.random() < 0.5
            )
            matching = random_maximal_matching(rng, inst)
            assert stability_probability_exact(inst, matching) == (
                exhaustive_probability(inst, matching)
            )

    def test_agrees_with_exhaustive_on_random_compact(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(1, 4)
            inst = random_compact_instance(rng, n, n, complete=rng.random() < 0.5)
            matching = random_maximal_matching(rng, inst)
            assert stability_probability_exact(inst, matching) == (
                exhaustive_probability(inst, matching)
            )

    def test_dispatches_to_joint_sum(self):
        rng = random.Random(13)
        for _ in range(30):
            inst = random_joint_instance(rng, 3, 3)
            matching = random_maximal_matching(rng, inst)
            assert stability_probability_exact(inst, matching) == (
                stability_probability_joint(inst, matching)
            )


class TestDispatch:
    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            stability_probability(example_market(), MU_IDENTITY, method="magic")

    def test_joint_method_requires_joint_model(self):
        with pytest.raises(ValidationError):
            stability_probability(example_market(), MU_IDENTITY, method="joint")

    def test_one_side_method_requires_certain_side(self):
        with pytest.raises(ValidationError):
            stability_probability(example_market(), MU_IDENTITY, method="one-side")

    def test_one_side_method_rejects_joint_model(self):
        inst = lottery_to_joint(example_market())
        with pytest.raises(ValidationError):
            stability_probability(inst, MU_IDENTITY, method="one-side")

    def test_default_on_running_example(self):
        assert stability_probability(example_market(), MU_IDENTITY) == Fraction(13, 25)
        assert stability_probability(example_market(), MU_SWAP) == Fraction(12, 25)

    def test_methods_agree_where_applicable(self):
        rng = random.Random(14)
        for _ in range(40):
            n = rng.randint(1, 4)
            inst = random_lottery_instance(rng, n, n, max_support=2)
            model = inst.model
            women = [certain(*e.support[0][0].ranking) for e in model.women]
            inst = lottery_instance(list(model.men), women)
            matching = random_maximal_matching(rng, inst)
            auto = stability_probability(inst, matching)
            assert auto == stability_probability(inst, matching, method="exact")
            assert auto == stability_probability(inst, matching, method="one-side")

    def test_transposition_invariance(self):
        rng = random.Random(15)
        for _ in range(40):
            inst = random_lottery_instance(rng, 3, 2, max_support=2)
            matching = random_maximal_matching(rng, inst)
            assert stability_probability(inst, matching) == stability_probability(
                inst.transposed(), matching.transposed()
            )

    def test_probability_within_unit_interval(self):
        rng = random.Random(16)
        for _ in range(60):
            kind = rng.choice(["lottery", "compact", "joint"])
            if kind == "lottery":
                inst = random_lottery_instance(rng, 3, 3, max_support=3)
            elif kind == "compact":
                inst = random_compact_instance(rng, 3, 3)
            else:
                inst = random_joint_instance(rng, 3, 3)
            matching = random_maximal_matching(rng, inst)
            value = stability_probability(inst, matching)
            assert 0 <= value <= 1


def raises_exactly(error, message: str):
    return pytest.raises(error, match=f"^{re.escape(message)}$")


CAP_ERROR = "the cap must be None or a nonnegative integer"
OUT_OF_RANGE = Matching.from_pairs([(0, 5)])
# men certain, w1 uncertain: (m0, w1) blocks the identity under her order (0, 1)
ONE_SIDE_LOTTERY = lottery_instance(
    men=[certain(1, 0), certain(0, 1)],
    women=[certain(0, 1), lottery(((0, 1), "1/2"), ((1, 0), "1/2"))],
)
TIED_BOTH_SIDES = compact_instance(
    men_tiers=[[[0, 1]], [[0], [1]]],
    women_tiers=[[[0, 1]], [[0], [1]]],
)


class TestErrorPrecedence:
    """Which check fires first when an exact query breaks several rules."""

    def test_the_method_before_the_cap(self):
        with raises_exactly(ValidationError, "unknown method 'magic'"):
            stability_probability(example_market(), MU_IDENTITY, method="magic", cap="x")

    def test_a_joint_method_on_a_lottery_before_the_cap(self):
        with raises_exactly(
            ValidationError, "method 'joint' requires a joint-model instance"
        ):
            stability_probability(example_market(), MU_IDENTITY, method="joint", cap="x")

    def test_the_cap_before_a_one_side_method_on_a_joint_model(self):
        joint = lottery_to_joint(example_market())
        with raises_exactly(ValidationError, CAP_ERROR):
            stability_probability(joint, MU_IDENTITY, method="one-side", cap="x")
        with raises_exactly(
            ValidationError, "method 'one-side' requires an independent model"
        ):
            stability_probability(joint, OUT_OF_RANGE, method="one-side")

    def test_the_matching_before_the_one_side_precondition(self):
        with raises_exactly(ValidationError, "pair (0, 5) references unknown agents"):
            stability_probability(example_market(), OUT_OF_RANGE, method="one-side")
        with raises_exactly(
            ValidationError, "requires one side with certain preferences"
        ):
            stability_probability(example_market(), MU_IDENTITY, method="one-side")

    def test_one_side_checks_the_cap_without_charging_it(self):
        value = stability_probability(
            ONE_SIDE_LOTTERY, MU_IDENTITY, method="one-side", cap=0
        )
        assert value == Fraction(1, 2)
        with raises_exactly(
            ResourceLimitError, "more than 0 search nodes; raise the cap to proceed"
        ):
            stability_probability(ONE_SIDE_LOTTERY, MU_IDENTITY, cap=0)

    def test_exact_checks_the_cap_before_a_joint_matching(self):
        joint = lottery_to_joint(example_market())
        with raises_exactly(ValidationError, CAP_ERROR):
            stability_probability_exact(joint, OUT_OF_RANGE, cap="x")

    def test_the_wrappers_check_the_model_before_the_matching(self):
        with raises_exactly(ValidationError, "requires a joint-model instance"):
            stability_probability_joint(example_market(), OUT_OF_RANGE)
        compact = compact_instance([[[0]], [[1]]], [[[0]], [[1]]])
        with raises_exactly(ValidationError, "requires a lottery-model instance"):
            stability_probability_lottery_one_side_certain(compact, OUT_OF_RANGE)
        with raises_exactly(ValidationError, "requires a compact-model instance"):
            stability_probability_compact_one_side_certain(
                example_market(), OUT_OF_RANGE
            )

    def test_compact_one_side_names_strict_preferences(self):
        message = "requires one side with strict preferences"
        with raises_exactly(ValidationError, message):
            stability_probability_compact_one_side_certain(TIED_BOTH_SIDES, MU_IDENTITY)
        with raises_exactly(ValidationError, message):
            stability_probability(TIED_BOTH_SIDES, MU_IDENTITY, method="one-side")


class TestEstimate:
    def test_certain_instance_estimates_exactly_one(self):
        inst = lottery_instance(
            men=[certain(0, 1), certain(1, 0)],
            women=[certain(0, 1), certain(1, 0)],
        )
        est = estimate_stability_probability(inst, MU_IDENTITY, "1/10", "1/10")
        assert est.point_estimate == 1

    def test_hoeffding_sample_count(self):
        est = estimate_stability_probability(
            example_market(), MU_IDENTITY, "1/50", "1/100"
        )
        assert est.samples == 6623

    def test_loose_tolerances_need_three_samples(self):
        est = estimate_stability_probability(
            example_market(), MU_IDENTITY, "1/2", "1/2"
        )
        assert est.samples == 3

    def test_frozen_seed_estimate_is_close_and_deterministic(self):
        first = estimate_stability_probability(
            example_market(), MU_IDENTITY, "1/50", "1/100"
        )
        second = estimate_stability_probability(
            example_market(), MU_IDENTITY, "1/50", "1/100"
        )
        assert first == second
        assert abs(first.point_estimate - Fraction(13, 25)) <= Fraction(1, 50)

    def test_explicit_rng_reproducibility(self):
        runs = [
            estimate_stability_probability(
                example_market(), MU_IDENTITY, "1/4", "1/4", rng=random.Random(99)
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_fields_are_exact_fractions(self):
        est = estimate_stability_probability(
            example_market(), MU_IDENTITY, "1/4", "1/8"
        )
        assert est.epsilon == Fraction(1, 4)
        assert est.delta == Fraction(1, 8)
        assert est.point_estimate.denominator <= est.samples

    @pytest.mark.parametrize(
        "eps, delta",
        [
            ("1/50", "1/100"),
            ("1/2", "1/2"),
            ("1/6", "1/1000000"),
            ("1/20", "1/1000000"),
            ("0.1", "0.000001"),
            ("0.05", "0.05"),
            ("0.02", "0.01"),
            ("1/10", "1/10"),
            ("1/4", "1/4"),
            ("1/4", "1/8"),
            ("0.25", "0.25"),
        ],
    )
    def test_sample_count_is_the_float_formula(self, eps, delta):
        # ln(2/delta) now comes from the fraction's integers; on the
        # tolerances the tests, the README and the benchmark use, the count
        # is the one 2 / float(delta) gave
        inst = lottery_instance(men=[certain(0)], women=[certain(0)])
        mu = Matching.from_pairs([(0, 0)])
        est = estimate_stability_probability(inst, mu, eps, delta)
        e, d = Fraction(eps), Fraction(delta)
        assert est.samples == math.ceil(Fraction(math.log(2 / float(d))) / (2 * e * e))

    def test_delta_below_the_float_range(self):
        est = estimate_stability_probability(
            example_market(), MU_IDENTITY, "1/2", Fraction(1, 10**400)
        )
        assert est.samples == math.ceil(2 * (math.log(2) + 400 * math.log(10)))

    def test_samples_are_counted_against_the_cap(self):
        # three samples at eps = delta = 1/2, refused before any is drawn
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(ResourceLimitError):
            estimate_stability_probability(
                example_market(), MU_IDENTITY, "1/2", "1/2", rng, cap=2
            )
        assert rng.getstate() == state
        est = estimate_stability_probability(
            example_market(), MU_IDENTITY, "1/2", "1/2", rng, cap=3
        )
        assert est.samples == 3
        with pytest.raises(ResourceLimitError):
            estimate_stability_probability(
                example_market(), MU_IDENTITY, Fraction(1, 10**400), "1/2"
            )

    @pytest.mark.parametrize("eps,delta", [(0, "1/2"), (1, "1/2"), ("1/2", 0), ("1/2", 1)])
    def test_rejects_degenerate_tolerances(self, eps, delta):
        with pytest.raises(ValidationError):
            estimate_stability_probability(example_market(), MU_IDENTITY, eps, delta)


class TestCompiledEstimator:
    """The compiled sampler against the loop over whole sampled profiles."""

    EPS, DELTA = "1/6", "1/1000000"  # 261 samples

    def assert_same_as_reference(self, inst, matching, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        estimate = estimate_stability_probability(
            inst, matching, self.EPS, self.DELTA, ours
        )
        assert estimate == reference_estimate(
            inst, matching, self.EPS, self.DELTA, theirs
        )
        assert ours.getstate() == theirs.getstate()
        return estimate.point_estimate

    @staticmethod
    def matching_with_unmatched(rng, inst, seed):
        """Stable in one sampled profile, or maximal less one pair."""
        if seed % 3:
            return gale_shapley(sample_profile(inst, rng))
        pairs = sorted(random_maximal_matching(rng, inst).pairs)
        if pairs:
            pairs.pop(rng.randrange(len(pairs)))
        return Matching.from_pairs(pairs)

    def test_perturbed_lotteries(self):
        rng = random.Random(50)
        values = set()
        for seed in range(12):
            inst = random_perturbed_lottery_instance(rng, rng.randint(8, 24), 1, 4)
            if seed % 3:
                matching = gale_shapley(modal_profile(inst))
            else:
                matching = random_maximal_matching(rng, inst)
            values.add(self.assert_same_as_reference(inst, matching, seed))
        assert len(values) >= 4

    def test_ragged_lists_with_unmatched_agents(self):
        rng = random.Random(51)
        values = set()
        for seed in range(30):
            n_men, n_women = rng.sample(range(1, 8), 2)
            inst = random_lottery_instance(rng, n_men, n_women, complete=False)
            matching = self.matching_with_unmatched(rng, inst, seed)
            assert len(matching) < max(n_men, n_women)
            values.add(self.assert_same_as_reference(inst, matching, seed))
        assert len(values) >= 8

    def test_matchings_that_block_outright(self):
        rng = random.Random(52)
        found = 0
        for seed in range(40):
            inst = random_lottery_instance(rng, 4, 4, max_support=2)
            if rng.random() < 0.2:
                matching = Matching.from_pairs([])
            else:
                matching = random_maximal_matching(rng, inst)
            if compiled(inst, matching) is None:
                found += 1
                assert self.assert_same_as_reference(inst, matching, seed) == 0
        assert found >= 10

    @pytest.mark.parametrize("strict_side", [None, "men", "women"])
    def test_compact_markets_with_ties(self, strict_side):
        rng = random.Random(53)
        values = set()
        for seed in range(12):
            n_men, n_women = rng.sample(range(2, 11), 2)
            inst = random_compact_instance(
                rng, n_men, n_women, max_tie=4, complete=seed % 2 == 0
            )
            if strict_side is not None:
                sides = {"men": inst.model.men, "women": inst.model.women}
                sides[strict_side] = tuple(
                    WeakOrder(tuple((c,) for tier in weak.tiers for c in tier))
                    for weak in sides[strict_side]
                )
                inst = Instance(CompactModel(**sides))
            matching = self.matching_with_unmatched(rng, inst, seed)
            values.add(self.assert_same_as_reference(inst, matching, seed))
        assert len(values) >= 4

    def test_joint_instances(self):
        rng = random.Random(54)
        values = set()
        for seed in range(20):
            n_men, n_women = rng.randint(1, 5), rng.randint(1, 5)
            inst = random_joint_instance(
                rng, n_men, n_women, rng.randint(1, 6), complete=seed % 2 == 0
            )
            matching = random_maximal_matching(rng, inst)
            values.add(self.assert_same_as_reference(inst, matching, seed))
        assert len(values) >= 8

    def test_compact_markets_at_real_tie_sizes(self):
        # n = 8-16 with ties up to 6: singleton tiers, tiers below a partner
        # that no pair reads, and matchings with a pair that blocks in
        # every extension (not weakly stable), which needs no tie-break;
        # strict women keep some probabilities away from 0
        rng = random.Random(56)
        values, sizes, unread, blocked = set(), set(), 0, 0
        for seed in range(16):
            n_men, n_women = rng.randint(8, 16), rng.randint(8, 16)
            inst = random_compact_instance(
                rng, n_men, n_women, max_tie=6, complete=seed % 4 < 2
            )
            if seed % 2:
                women = tuple(
                    WeakOrder(tuple((c,) for tier in weak.tiers for c in tier))
                    for weak in inst.model.women
                )
                inst = Instance(CompactModel(men=inst.model.men, women=women))
            matching = self.matching_with_unmatched(rng, inst, seed)
            sizes |= {len(tier) for weak in inst.entries for tier in weak.tiers}
            partners = [matching.partner_of_man(m) for m in range(n_men)] + [
                matching.partner_of_woman(w) for w in range(n_women)
            ]
            unread += sum(
                len(weak.tiers) - 1 - weak.tier_of[p]
                for weak, p in zip(inst.entries, partners)
                if p is not None
            )
            blocked += not is_stability_probability_nonzero(inst, matching)[0]
            values.add(self.assert_same_as_reference(inst, matching, seed))
        assert sizes == set(range(1, 7))
        assert unread > 0 and blocked > 0
        assert len(values) >= 4

    def test_joint_markets_with_up_to_twelve_profiles(self):
        rng = random.Random(57)
        values, sizes = set(), set()
        for seed in range(24):
            n = rng.randint(3, 6)
            inst = random_joint_instance(
                rng, n, n, rng.randint(1, 12), complete=seed % 2 == 0
            )
            matching = self.matching_with_unmatched(rng, inst, seed)
            sizes.add(len(inst.model.profiles))
            values.add(self.assert_same_as_reference(inst, matching, seed))
        assert 12 in sizes
        assert len(values) >= 8

    def test_within_epsilon_of_exact(self):
        # delta = 1e-6 and fixed seeds: a miss would be a defect, not chance
        eps = Fraction(1, 20)
        rng = random.Random(55)
        cases = []
        for n in (8, 10, 12, 14, 16):
            inst = random_perturbed_lottery_instance(rng, n, 2, 4)
            cases.append((inst, gale_shapley(modal_profile(inst))))
        for n in (3, 4, 4, 5, 5, 5):
            inst = random_compact_instance(rng, n, n, max_tie=3)
            cases.append((inst, gale_shapley(sample_profile(inst, rng))))
        interior = 0
        for seed, (inst, matching) in enumerate(cases):
            exact = stability_probability_exact(inst, matching, cap=None)
            estimate = estimate_stability_probability(
                inst, matching, eps, "1/1000000", random.Random(seed)
            )
            assert abs(estimate.point_estimate - exact) <= eps
            interior += 0 < exact < 1
        assert interior >= 6


class TestIsOne:
    def test_running_example_is_not_certain(self):
        assert not is_stability_probability_one(example_market(), MU_IDENTITY)
        assert not is_stability_probability_one(example_market(), MU_SWAP)

    def test_certain_stable_matching(self):
        inst = lottery_instance(
            men=[certain(0, 1), certain(1, 0)],
            women=[certain(0, 1), certain(1, 0)],
        )
        assert is_stability_probability_one(inst, MU_IDENTITY)

    def test_compact_tie_break_can_block(self):
        inst = compact_instance(
            men_tiers=[[[0], [1]], [[0], [1]]],
            women_tiers=[[[0, 1]], [[0], [1]]],
        )
        assert not is_stability_probability_one(inst, MU_IDENTITY)

    def test_equivalent_to_exact_probability_one(self):
        rng = random.Random(17)
        for _ in range(120):
            kind = rng.choice(["lottery", "compact", "joint"])
            n = rng.randint(1, 4)
            if kind == "lottery":
                inst = random_lottery_instance(
                    rng, n, n, max_support=2, complete=rng.random() < 0.5
                )
            elif kind == "compact":
                inst = random_compact_instance(
                    rng, n, n, complete=rng.random() < 0.5
                )
            else:
                inst = random_joint_instance(rng, n, n)
            matching = random_maximal_matching(rng, inst)
            expected = stability_probability_exact(inst, matching) == 1
            assert is_stability_probability_one(inst, matching) == expected


def draw_partial_matching(draw, accept, maximal=st.just(False)) -> Matching:
    """Greedy over a random prefix of the shuffled acceptable pairs, or over
    all of them when ``maximal`` draws True."""
    pairs = [(m, w) for m, row in enumerate(accept) for w, ok in enumerate(row) if ok]
    tried = draw(st.permutations(pairs))
    if not draw(maximal):
        tried = tried[: draw(st.integers(0, len(pairs)))]
    chosen: list = []
    for m, w in tried:
        if all(m != m2 and w != w2 for m2, w2 in chosen):
            chosen.append((m, w))
    return Matching.from_pairs(chosen)


def draw_matching(draw, accept, maximal, men, women, realize) -> Matching:
    """As a drawn boolean picks: the men-proposing stable matching of a
    realization that ``realize`` draws agent by agent, which always
    compiles to a model, or ``draw_partial_matching``'s matching."""
    if draw(st.booleans()):
        return gale_shapley(
            Profile(tuple(map(realize, men)), tuple(map(realize, women)))
        )
    return draw_partial_matching(draw, accept, maximal)


# three in four pairs acceptable, so that more agents meet in constraints
MOSTLY = st.integers(0, 3).map(bool)


@st.composite
def small_lottery_markets(
    draw, max_n: int = 5, accepted=st.booleans(), maximal=st.just(False)
):
    """Lottery markets with n <= max_n a side, supports <= 3, incomplete
    lists, and a partial matching or one stable in some realization."""
    n_men, n_women = draw(st.integers(1, max_n)), draw(st.integers(1, max_n))
    accept = [[draw(accepted) for _ in range(n_women)] for _ in range(n_men)]

    def agent(candidates) -> AgentLottery:
        k = draw(st.integers(1, 3))
        orders = [draw(st.permutations(candidates)) for _ in range(k)]
        weights = [draw(st.integers(1, 4)) for _ in range(k)]
        return AgentLottery(
            tuple(
                (LinearOrder(tuple(o)), Fraction(w, sum(weights)))
                for o, w in zip(orders, weights)
            )
        )

    men = [agent([w for w in range(n_women) if accept[m][w]]) for m in range(n_men)]
    women = [agent([m for m in range(n_men) if accept[m][w]]) for w in range(n_women)]
    matching = draw_matching(
        draw, accept, maximal, men, women, lambda a: draw(st.sampled_from(a.support))[0]
    )
    return lottery_instance(men, women), matching


@st.composite
def small_compact_markets(draw):
    """Compact markets with n <= 3 a side, ties of up to 3, incomplete
    lists, and a partial or maximal matching or one stable in some
    realization."""
    n_men, n_women = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    accept = [[draw(MOSTLY) for _ in range(n_women)] for _ in range(n_men)]

    def weak(candidates) -> WeakOrder:
        ranking = draw(st.permutations(candidates))
        tiers = []
        while ranking:
            size = draw(st.integers(1, min(3, len(ranking))))
            tiers.append(tuple(ranking[:size]))
            ranking = ranking[size:]
        return WeakOrder(tuple(tiers))

    men = [weak([w for w in range(n_women) if accept[m][w]]) for m in range(n_men)]
    women = [weak([m for m in range(n_men) if accept[m][w]]) for w in range(n_women)]

    def extension(order: WeakOrder) -> LinearOrder:
        return LinearOrder(tuple(c for tier in order.tiers for c in draw(st.permutations(tier))))

    matching = draw_matching(draw, accept, st.booleans(), men, women, extension)
    return Instance(CompactModel(tuple(men), tuple(women))), matching


@st.composite
def star_markets(draw):
    """Lottery markets built around a star: man 0, matched to woman 0, and
    k <= 3 leaves, woman l matched to man l. Each order of man 0 ranks some
    leaves above his partner and each order of woman l may rank him above
    hers. Each of them may also have an unmatched admirer who lists only
    them, which deletes the orders that rank the admirer above the
    partner."""
    k = draw(st.integers(1, 3))
    admired = [draw(st.booleans()) for _ in range(k + 1)]
    admirers = [leaf for leaf in range(1, k + 1) if admired[leaf]]

    def agent(partner, others) -> AgentLottery:
        orders, weights = [], []
        for _ in range(draw(st.integers(1, 3))):
            ahead = [c for c in others if draw(st.booleans())]
            behind = [c for c in others if c not in ahead]
            orders.append(LinearOrder((*ahead, partner, *behind)))
            weights.append(draw(st.integers(1, 4)))
        return AgentLottery(
            tuple((o, Fraction(w, sum(weights))) for o, w in zip(orders, weights))
        )

    men = [agent(0, list(range(1, k + 1)) + [k + 1] * admired[0])]
    men += [certain(leaf) for leaf in range(1, k + 1)]
    men += [certain(leaf) for leaf in admirers]
    women = [certain(0)]
    for leaf in range(1, k + 1):
        admirer = [k + 1 + admirers.index(leaf)] if admired[leaf] else []
        women.append(agent(leaf, [0, *admirer]))
    women += [certain(0)] * admired[0]
    matching = Matching.from_pairs((a, a) for a in range(k + 1))
    return lottery_instance(men, women), matching


def zero_weight_stars() -> list:
    """Two markets whose star component has weight zero: every pick of man
    0 that his admirer leaves blocks with a leaf whose admirer deleted the
    leaf's only order that keeps the two apart."""
    two_agents = lottery_instance(
        men=[lottery(((1, 0, 2), "1/2"), ((2, 0, 1), "1/2")), certain(1), certain(1)],
        women=[certain(0), lottery(((0, 1, 2), "1/2"), ((2, 1, 0), "1/2")), certain(0)],
    )
    # no admirer for man 0: each of his two orders blocks with one leaf
    two_leaves = lottery_instance(
        men=[
            lottery(((1, 0, 2), "1/2"), ((2, 0, 1), "1/2")),
            certain(1),
            certain(2),
            certain(1),
            certain(2),
        ],
        women=[
            certain(0),
            lottery(((0, 1, 3), "1/2"), ((3, 1, 0), "1/2")),
            lottery(((0, 2, 4), "1/2"), ((4, 2, 0), "1/2")),
        ],
    )
    return [
        (two_agents, Matching.from_pairs([(0, 0), (1, 1)])),
        (two_leaves, Matching.from_pairs([(0, 0), (1, 1), (2, 2)])),
    ]


class TestLotteryDecisionsAgainstExact:
    @settings(deadline=None)
    @given(small_lottery_markets())
    def test_one_and_nonzero_match_exact(self, market):
        inst, matching = market
        exact = stability_probability_exact(inst, matching, cap=None)
        assert is_stability_probability_one(inst, matching) == (exact == 1)
        assert is_stability_probability_nonzero(inst, matching)[0] == (exact > 0)


class TestExactAgainstExpansions:
    """The compiled engine against the profile sum of the expanded model."""

    @settings(deadline=None, max_examples=300)
    @given(small_lottery_markets(3, MOSTLY, st.booleans()))
    def test_lottery_matches_the_joint_expansion(self, market):
        # at most 3^6 = 729 profiles
        inst, matching = market
        joint = lottery_to_joint(inst)
        assert stability_probability_exact(
            inst, matching, cap=None
        ) == stability_probability_joint(joint, matching)

    @settings(deadline=None, max_examples=300)
    @given(small_compact_markets())
    def test_compact_matches_the_lottery_expansion(self, market):
        inst, matching = market
        lottery_form = expand_compact_to_lottery(inst)
        assert stability_probability_exact(
            inst, matching, cap=None
        ) == stability_probability_exact(lottery_form, matching, cap=None)


class TestPairWalk:
    """``_pair_masks`` pairs each man's view with each woman's, whatever
    the views hold: pick masks, or ``WeakOrder.beats`` stances with None
    for a tie."""

    @staticmethod
    def assert_walks_the_listed_pairs(views, n_men):
        walked = list(probability._pair_masks(views, n_men))
        expected = [
            (m, n_men + w, views[m][w], views[n_men + w][m])
            for m in range(n_men)
            for w in range(len(views) - n_men)
            if w in views[m] and m in views[n_men + w]
        ]
        assert len({pair[:2] for pair in walked}) == len(walked)
        assert sorted(walked, key=lambda pair: pair[:2]) == expected

    @settings(deadline=None)
    @given(small_lottery_markets(accepted=MOSTLY))
    def test_lottery_pick_tables(self, market):
        inst, matching = market
        _, _, masks = probability._pick_tables(
            inst, matching, Budget(None, "search nodes")
        )
        self.assert_walks_the_listed_pairs(masks, inst.n_men)

    @settings(deadline=None)
    @given(small_compact_markets())
    def test_compact_pick_tables_and_raw_views(self, market):
        inst, matching = market
        _, _, masks = probability._pick_tables(
            inst, matching, Budget(None, "search nodes")
        )
        self.assert_walks_the_listed_pairs(masks, inst.n_men)
        self.assert_walks_the_listed_pairs(
            probability._views(inst, matching), inst.n_men
        )

    def test_a_tie_on_both_sides_is_walked(self):
        # every stance is None, so a walk that tested entries would drop all
        inst, matching = tied_instance(3)
        views = probability._views(inst, matching)
        walked = sorted(probability._pair_masks(views, 3))
        assert walked == [
            (m, 3 + w, None, None) for m in range(3) for w in range(3) if m != w
        ]


class TestDecisionsOnThePairWalk:
    """Certain stability, the super-stable check and the compact nonzero
    decision, each read from ``_pair_masks``, against pair-by-pair
    references on incomplete markets with partial matchings."""

    @staticmethod
    def assert_certain_stability(inst, matching):
        smp = smp_from_instance(inst)
        expected = reference_is_certainly_stable(smp, matching)
        assert is_certainly_stable(inst, matching) is expected
        # the check super_stable_smp runs on its candidate, on any matching
        walked = list(_pair_masks(_views(smp, matching), smp.n_men))
        assert (walked == []) is expected
        assert super_stable_smp(smp) == reference_super_stable_smp(smp)

    @settings(deadline=None)
    @given(small_lottery_markets())
    def test_lottery_certain_stability(self, market):
        self.assert_certain_stability(*market)

    @settings(deadline=None)
    @given(small_compact_markets())
    def test_compact_certain_stability_and_nonzero(self, market):
        inst, matching = market
        self.assert_certain_stability(inst, matching)
        men, women = inst.model.men, inst.model.women
        blocked = any(
            reference_strictly_prefers(men[m], w, matching.partner_of_man(m))
            and reference_strictly_prefers(women[w], m, matching.partner_of_woman(w))
            for m in range(inst.n_men)
            for w in range(inst.n_women)
        )
        assert is_stability_probability_nonzero(inst, matching)[0] is not blocked


class TestNonzero:
    def test_running_example_has_witness(self):
        decision, witness = is_stability_probability_nonzero(
            example_market(), MU_IDENTITY
        )
        assert decision
        assert witness is not None
        assert is_stable(witness, MU_IDENTITY)

    def test_certain_blocking_pair_means_no(self):
        inst = lottery_instance(
            men=[certain(1, 0), certain(0, 1)],
            women=[certain(0, 1), certain(0, 1)],
        )
        decision, witness = is_stability_probability_nonzero(inst, MU_IDENTITY)
        assert not decision
        assert witness is None

    def test_compact_all_ties_accepts_any_perfect_matching(self):
        inst = compact_instance(
            men_tiers=[[[0, 1]], [[0, 1]]],
            women_tiers=[[[0, 1]], [[0, 1]]],
        )
        for mu in (MU_IDENTITY, MU_SWAP):
            decision, witness = is_stability_probability_nonzero(inst, mu)
            assert decision
            assert is_stable(witness, mu)

    def test_compact_weakly_unstable_matching(self):
        inst = compact_instance(
            men_tiers=[[[0], [1]], [[0], [1]]],
            women_tiers=[[[1], [0]], [[0], [1]]],
        )
        decision, witness = is_stability_probability_nonzero(inst, MU_IDENTITY)
        assert not decision
        assert witness is None

    def test_joint_witness_is_a_support_profile(self):
        inst = lottery_to_joint(example_market())
        decision, witness = is_stability_probability_nonzero(inst, MU_IDENTITY)
        assert decision
        assert any(witness == profile for profile, _ in inst.model.profiles)

    def test_lottery_witness_uses_support_orders(self):
        rng = random.Random(18)
        found = 0
        for _ in range(60):
            n = rng.randint(1, 4)
            inst = random_lottery_instance(
                rng, n, n, max_support=3, complete=rng.random() < 0.5
            )
            matching = random_maximal_matching(rng, inst)
            decision, witness = is_stability_probability_nonzero(inst, matching)
            if not decision:
                assert witness is None
                continue
            found += 1
            assert is_stable(witness, matching)
            for m in range(inst.n_men):
                support = agent_support(inst, AgentId(Side.MEN, m))
                assert any(witness.men[m] == o for o, _ in support)
            for w in range(inst.n_women):
                support = agent_support(inst, AgentId(Side.WOMEN, w))
                assert any(witness.women[w] == o for o, _ in support)
        assert found > 0

    def test_equivalent_to_exact_probability_positive(self):
        rng = random.Random(19)
        for _ in range(150):
            kind = rng.choice(["lottery", "binary", "compact", "joint"])
            n = rng.randint(1, 4)
            if kind == "lottery":
                inst = random_lottery_instance(
                    rng, n, n, max_support=3, complete=rng.random() < 0.5
                )
            elif kind == "binary":
                inst = random_lottery_instance(
                    rng, n, n, max_support=2, complete=rng.random() < 0.5
                )
            elif kind == "compact":
                inst = random_compact_instance(
                    rng, n, n, complete=rng.random() < 0.5
                )
            else:
                inst = random_joint_instance(rng, n, n)
            matching = random_maximal_matching(rng, inst)
            decision, witness = is_stability_probability_nonzero(inst, matching)
            assert decision == (stability_probability_exact(inst, matching) > 0)
            if decision:
                assert is_stable(witness, matching)

    def test_node_budget_exhaustion(self):
        three = lottery(
            ((0, 1, 2), "1/3"), ((1, 0, 2), "1/3"), ((2, 1, 0), "1/3")
        )
        inst = lottery_instance(
            men=[certain(0, 1, 2), certain(1, 0, 2), certain(2, 0, 1)],
            women=[three, certain(0, 1, 2), certain(0, 1, 2)],
        )
        mu = Matching.from_pairs([(0, 0), (1, 1), (2, 2)])
        with pytest.raises(ResourceLimitError):
            is_stability_probability_nonzero(inst, mu, cap=0)
        decision, _ = is_stability_probability_nonzero(inst, mu)
        assert decision == (stability_probability_exact(inst, mu) > 0)

    def test_search_deeper_than_the_recursion_limit(self):
        # 700 rungs: man k ranks w_k, w_{k+1} and a private, unmatched z_k
        # three ways; woman w_{k+1} ranks m_k and m_{k+1} both ways. Each
        # (m_k, w_{k+1}) pair is a two-sided constraint, so the search
        # places 1400 agents, one level each.
        rungs = 700

        def z(k):
            return rungs + 1 + k

        men = [
            lottery(
                ((k + 1, k, z(k)), "1/3"),
                ((k, k + 1, z(k)), "1/3"),
                ((z(k), k, k + 1), "1/3"),
            )
            for k in range(rungs)
        ] + [certain(rungs)]
        women = (
            [certain(0)]
            + [lottery(((k, k + 1), "1/2"), ((k + 1, k), "1/2")) for k in range(rungs)]
            + [certain(k) for k in range(rungs)]
        )
        inst = lottery_instance(men, women)
        mu = Matching.from_pairs((k, k) for k in range(rungs + 1))
        decision, witness = is_stability_probability_nonzero(inst, mu)
        assert decision
        assert is_stable(witness, mu)

    @pytest.mark.parametrize("path", ["2sat", "backtracking", "compact"])
    def test_unstable_witness_is_an_error(self, path, monkeypatch):
        mu = MU_IDENTITY
        if path == "2sat":
            inst = example_market()
        elif path == "backtracking":
            inst = lottery_instance(
                men=[
                    lottery(((0, 1, 2), "1/3"), ((1, 0, 2), "1/3"), ((2, 1, 0), "1/3")),
                    certain(1, 0, 2),
                    certain(2, 0, 1),
                ],
                women=[certain(0, 1, 2), certain(1, 0, 2), certain(2, 0, 1)],
            )
            mu = Matching.from_pairs([(0, 0), (1, 1), (2, 2)])
        else:
            inst = compact_instance([[[0, 1]], [[0, 1]]], [[[0, 1]], [[0, 1]]])
        assert is_stability_probability_nonzero(inst, mu)[0]
        monkeypatch.setattr(probability, "is_stable", lambda profile, matching: False)
        with pytest.raises(RuntimeError, match="witness"):
            is_stability_probability_nonzero(inst, mu)


class TestAgainstReferenceEngine:
    """The compiled engine against the recursive reference, at sizes the
    exhaustive oracle cannot reach."""

    @staticmethod
    def perturbed_cases(seed: int, count: int, sizes=(8, 16)):
        rng = random.Random(seed)
        for _ in range(count):
            inst = random_perturbed_lottery_instance(rng, rng.randint(*sizes), 3, 4)
            if rng.random() < 0.75:
                matching = gale_shapley(modal_profile(inst))
            else:
                matching = random_maximal_matching(rng, inst)
            yield inst, matching

    def test_references_agree_with_exhaustive_oracle(self):
        rng = random.Random(40)
        for _ in range(60):
            n = rng.randint(1, 4)
            inst = random_lottery_instance(rng, n, n, complete=rng.random() < 0.5)
            matching = random_maximal_matching(rng, inst)
            expected = exhaustive_probability(inst, matching)
            assert reference_exact_probability(inst, matching) == expected
            pinned = [certain(*e.support[0][0].ranking) for e in inst.model.men]
            one_side = lottery_instance(pinned, list(inst.model.women))
            assert reference_lottery_one_side(
                one_side, matching
            ) == exhaustive_probability(one_side, matching)

    def test_exact_on_perturbed_lotteries(self):
        interior = 0
        # most agents of the larger markets are free with every order left
        cases = chain(
            self.perturbed_cases(41, 150), self.perturbed_cases(46, 15, (24, 48))
        )
        for inst, matching in cases:
            value = stability_probability_exact(inst, matching, cap=None)
            assert value == reference_exact_probability(inst, matching)
            interior += 0 < value < 1
        assert interior >= 50

    def test_nonzero_on_the_backtracking_path(self):
        outcomes = set()
        for inst, matching in self.perturbed_cases(42, 150):
            assert any(len(e.support) > 2 for e in inst.model.men + inst.model.women)
            decision, witness = is_stability_probability_nonzero(inst, matching)
            assert decision == (reference_exact_probability(inst, matching) > 0)
            if decision:
                assert is_stable(witness, matching)
            outcomes.add(decision)
        assert outcomes == {True, False}

    def test_witness_matches_the_single_order_search(self):
        outcomes = set()
        for inst, matching in self.perturbed_cases(45, 150):
            expected = reference_first_witness(inst, matching)
            decision, witness = is_stability_probability_nonzero(inst, matching)
            assert decision == (expected is not None)
            assert witness == expected
            outcomes.add(decision)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("certain_side", ["men", "women"])
    def test_lottery_one_side_against_per_woman_product(self, certain_side):
        rng = random.Random(43 if certain_side == "men" else 44)
        interior = 0
        for _ in range(60):
            n = rng.randint(2, 32)
            inst = random_perturbed_lottery_instance(rng, n, 1, 4)
            model = inst.model
            pinned = [
                certain(*e.support[0][0].ranking) for e in getattr(model, certain_side)
            ]
            if certain_side == "men":
                inst = lottery_instance(pinned, list(model.women))
            else:
                inst = lottery_instance(list(model.men), pinned)
            if rng.random() < 0.75:
                matching = gale_shapley(modal_profile(inst))
            else:
                matching = random_maximal_matching(rng, inst)
            value = stability_probability_lottery_one_side_certain(inst, matching)
            assert value == reference_lottery_one_side(inst, matching)
            interior += 0 < value < 1
        assert interior >= 10

    @staticmethod
    def one_pick_each(inst, matching) -> bool:
        model = compiled(inst, matching)
        return model is None or (
            all(len(numerators) == 1 for numerators in model.numerators)
            and not any(model.adjacency)
        )

    @pytest.mark.parametrize("strict_side", ["men", "women"])
    def test_compact_one_side_against_closed_form(self, strict_side):
        rng = random.Random(48 if strict_side == "men" else 49)
        values = []
        for seed in range(60):
            n_men, n_women = rng.randint(2, 32), rng.randint(2, 32)
            inst = random_compact_instance(
                rng, n_men, n_women, max_tie=8, complete=seed % 3 == 0
            )
            sides = {"men": inst.model.men, "women": inst.model.women}
            sides[strict_side] = tuple(
                WeakOrder(tuple((c,) for tier in weak.tiers for c in tier))
                for weak in sides[strict_side]
            )
            inst = Instance(CompactModel(**sides))
            if seed % 4:
                matching = gale_shapley(sample_profile(inst, rng))
            else:
                pairs = sorted(random_maximal_matching(rng, inst).pairs)
                matching = Matching.from_pairs(pairs[: rng.randrange(len(pairs) + 1)])
            expected = reference_compact_one_side(inst, matching)
            value = stability_probability_compact_one_side_certain(inst, matching)
            assert value == stability_probability(inst, matching) == expected
            # no tier-mate is undecided, so every pair is a deletion
            assert self.one_pick_each(inst, matching)
            values.append(expected)
        assert sum(0 < v < 1 for v in values) >= 20
        assert sum(v == 0 for v in values) >= 5

    @pytest.mark.parametrize("strict_side", ["men", "women"])
    def test_compact_one_side_tie_of_26(self, strict_side):
        # every man ranks woman 0 first and his partner second; woman 0 ties
        # all 26 men, so the 25 she is not matched to always want her
        rng = random.Random(50)
        n = 26
        men = [
            [[0], [m]] + [[w] for w in rng.sample(range(1, n), n - 1) if w != m]
            for m in range(1, n)
        ]
        women = [[list(range(n))]]
        women += [[[m] for m in rng.sample(range(n), n)] for _ in range(1, n)]
        inst = compact_instance([[[w] for w in range(n)]] + men, women)
        matching = Matching.from_pairs((k, k) for k in range(n))
        if strict_side == "women":
            inst, matching = inst.transposed(), matching.transposed()
        start = time.process_time()
        value = stability_probability_compact_one_side_certain(inst, matching)
        auto = stability_probability(inst, matching)
        took = time.process_time() - start
        assert value == auto == reference_compact_one_side(inst, matching)
        assert value == Fraction(1, 26)
        assert took < 1.0

    def test_compact_ties_on_both_sides(self):
        """Tier-mates told apart on both sides, against the reference that
        enumerates every linear extension; nonzero and one must agree."""
        rng = random.Random(51)
        values = []
        told_apart = 0
        while len(values) < 80:
            n = rng.randint(5, 8)
            inst = random_compact_instance(
                rng, n, n, max_tie=rng.randint(2, 5), complete=rng.random() < 0.5
            )
            kind = len(values) % 4
            if kind >= 2:  # maximal, or maximal less one pair
                pairs = sorted(random_maximal_matching(rng, inst).pairs)
                matching = Matching.from_pairs(pairs[: len(pairs) + 2 - kind])
            else:
                matching = exists_certainly_stable_matching(inst) if kind == 0 else None
                if matching is None:
                    matching = gale_shapley(sample_profile(inst, rng))
            if reference_search_size(inst, matching) > 20_000:
                continue  # beyond the reference's reach
            value = stability_probability_exact(inst, matching, cap=None)
            assert value == reference_exact_probability(inst, matching)
            decision, _ = is_stability_probability_nonzero(inst, matching)
            assert decision == (value > 0)
            assert is_stability_probability_one(inst, matching) == (value == 1)
            model = compiled(inst, matching)
            told_apart += model is not None and any(len(n) > 1 for n in model.numerators)
            values.append(value)
        assert sum(0 < v < 1 for v in values) >= 30
        assert sum(v == 0 for v in values) >= 10
        assert sum(v == 1 for v in values) >= 3
        assert told_apart >= 20


class TestComponents:
    """Constraint components are counted and searched one at a time."""

    @pytest.mark.parametrize("man_orders", [2, 3])
    def test_forty_agent_ladder(self, man_orders):
        # 39 two-agent components: a search over their product would
        # visit 3^39 leaves with two orders per man
        inst, mu = ladder_instance(random.Random(46), 40, man_orders)
        per_rung = Fraction(3, 4) if man_orders == 2 else Fraction(5, 6)
        assert stability_probability_exact(inst, mu, cap=None) == per_rung**39
        decision, witness = is_stability_probability_nonzero(inst, mu)
        assert decision
        assert is_stable(witness, mu)
        if man_orders == 3:  # two orders per agent go through 2-SAT
            assert witness == reference_first_witness(inst, mu)

    @staticmethod
    def unsatisfiable_last_component():
        # {m0, w1} and {m1, w0} are 2x2 rungs; in {m2, w3}, w4 and m4 delete
        # every pick of m2 and w3 that keeps them from blocking each other
        inst = lottery_instance(
            men=[
                lottery(((0, 1), "1/2"), ((1, 0), "1/2")),
                lottery(((0, 1), "1/2"), ((1, 0), "1/2")),
                lottery(((4, 2, 3), "1/3"), ((3, 2, 4), "1/3"), ((4, 3, 2), "1/3")),
                certain(3),
                certain(3, 4),
            ],
            women=[
                lottery(((1, 0), "1/2"), ((0, 1), "1/2")),
                lottery(((1, 0), "1/2"), ((0, 1), "1/2")),
                certain(2),
                lottery(((2, 3, 4), "1/2"), ((4, 3, 2), "1/2")),
                certain(2, 4),
            ],
        )
        return inst, Matching.from_pairs((k, k) for k in range(5))

    def test_one_unsatisfiable_component_zeroes_the_product(self):
        inst, mu = self.unsatisfiable_last_component()
        model = compiled(inst, mu)
        assert model.components == [[0, 6], [1, 5], [2, 8]]
        assert exhaustive_probability(inst, mu) == 0
        assert stability_probability_exact(inst, mu) == 0
        assert is_stability_probability_nonzero(inst, mu) == (False, None)
        assert reference_first_witness(inst, mu) is None

    def test_node_budget_is_shared_by_the_components(self):
        # the root, then a man and a woman per rung, each at its first pick
        rungs = 6
        inst, mu = ladder_instance(random.Random(47), rungs + 1, man_orders=3)
        nodes = 1 + 2 * rungs
        decision, witness = is_stability_probability_nonzero(inst, mu, nodes)
        assert decision
        assert witness == reference_first_witness(inst, mu)
        with pytest.raises(ResourceLimitError):
            is_stability_probability_nonzero(inst, mu, nodes - 1)


def walked_count(model) -> tuple[Fraction, int]:
    """``_count`` with every component searched by ``_walk``, and the nodes
    it charges."""
    budget = Budget(None, "search nodes")
    budget.used = 1  # the root
    choice = [0] * len(model.numerators)
    total = model.free_product
    for order in model.components:
        total *= sum(probability._walk(model, order, choice, budget))
        if not total:
            break
    return Fraction(total, model.denominator), budget.used


def star_charge(model, order) -> int:
    """The nodes ``_star`` charges, counted pick by pick: per allowed hub
    pick, 1 plus, leaf by leaf in ``order``, the allowed picks of the leaf
    that do not block with it, up to the first leaf with none."""
    hub, nodes = order[0], 0
    for i in range(len(model.numerators[hub])):
        if not model.allowed[hub] >> i & 1:
            continue
        nodes += 1
        for leaf in order[1:]:
            ((_, mine, hub_mask),) = model.adjacency[leaf]
            kept = [
                j
                for j in range(len(model.numerators[leaf]))
                if model.allowed[leaf] >> j & 1 and not (mine >> j & 1 and hub_mask >> i & 1)
            ]
            nodes += len(kept)
            if not kept:
                break
    return nodes


def witness_charge(model, order) -> int:
    """The nodes ``_star_witness`` charges, counted pick by pick: per hub
    pick tried, as ``star_charge`` counts it, until the first under which
    every leaf keeps a pick; that one costs 1 plus one node per leaf."""
    hub, nodes = order[0], 0
    for i in range(len(model.numerators[hub])):
        if not model.allowed[hub] >> i & 1:
            continue
        counts = []
        for leaf in order[1:]:
            ((_, mine, hub_mask),) = model.adjacency[leaf]
            counts.append(
                sum(
                    1
                    for j in range(len(model.numerators[leaf]))
                    if model.allowed[leaf] >> j & 1
                    and not (mine >> j & 1 and hub_mask >> i & 1)
                )
            )
            if not counts[-1]:
                break
        if all(counts):
            return nodes + len(order)
        nodes += 1 + sum(counts)
    return nodes


class TestStarComponents:
    """A star component, agents after the first meeting it alone, is summed
    in closed form (``_star``): its weight must be that of ``_walk``, and
    its charge, each hub pick and its leaves' compatible picks up to the
    first leaf with none, must be at most the walk's nodes and equal to
    them for one leaf. ``_count`` must give the value a walk of every
    component gives, for at most the walk's nodes. The nonzero search
    closes a star too (``_star_witness``): its picks must be the walk's
    first solution, or none when the walk finds none, for at most the
    nodes the walk enters to find it, and as many for one leaf.

    Compact markets reach neither a forced deletion nor a zero-weight star:
    a compact pair stays two-sided only when both stances are None, and a
    pair with one stance True is not listed by the None side, so no mask is
    ever full. Lottery markets reach both, but the random generators
    rarely give a zero weight (12 of 2000 ``star_markets`` draws), so the
    two ``zero_weight_stars`` are pinned as examples. No generator builds a
    star with more than three leaves."""

    @staticmethod
    def assert_stars_match_the_walk(market) -> list:
        """Check the market's star components and ``_count``; return the
        compiled model's star components."""
        model = compiled(*market)
        if model is None:
            return []
        choice = [0] * len(model.numerators)
        stars = [
            order
            for order in model.components
            if all(len(model.adjacency[leaf]) == 1 for leaf in order[1:])
        ]
        for order in stars:
            budget = Budget(None, "search nodes")
            weight = sum(probability._walk(model, order, choice, budget))
            assert probability._star(model, order) == (weight, star_charge(model, order))
            assert star_charge(model, order) <= budget.used
            if len(order) == 2:
                assert star_charge(model, order) == budget.used
            walked, picked = [-1] * len(choice), [-1] * len(choice)
            budget = Budget(None, "search nodes")
            found = next(probability._walk(model, order, walked, budget), None) is not None
            nodes = witness_charge(model, order)
            assert probability._star_witness(model, order, picked) == (found, nodes)
            assert picked == (walked if found else [-1] * len(choice))
            assert nodes <= budget.used
            if len(order) == 2:
                assert nodes == budget.used
        budget = Budget(None, "search nodes")
        value = probability._count(model, budget)
        walked_value, walked_nodes = walked_count(model)
        assert value == walked_value and budget.used <= walked_nodes
        if all(len(order) <= 2 for order in model.components):
            assert budget.used == walked_nodes
        return [(model, order) for order in stars]

    @settings(deadline=None, max_examples=300)
    @given(small_lottery_markets(accepted=MOSTLY, maximal=st.just(True)))
    def test_lottery_markets(self, market):
        self.assert_stars_match_the_walk(market)

    @settings(deadline=None, max_examples=300)
    @given(small_compact_markets())
    def test_compact_markets(self, market):
        self.assert_stars_match_the_walk(market)

    @settings(deadline=None, max_examples=300)
    @given(star_markets())
    @example(zero_weight_stars()[0])
    @example(zero_weight_stars()[1])
    def test_star_markets_with_deletions(self, market):
        self.assert_stars_match_the_walk(market)

    @staticmethod
    def deletes(model, order) -> bool:
        full = [(1 << len(model.numerators[agent])) - 1 for agent in order]
        return [model.allowed[agent] for agent in order] != full

    def test_the_pinned_stars_weigh_zero(self):
        for market, leaves in zip(zero_weight_stars(), (1, 2)):
            [(model, order)] = self.assert_stars_match_the_walk(market)
            assert len(order) == 1 + leaves and self.deletes(model, order)
            assert probability._star(model, order)[0] == 0
            assert stability_probability_exact(*market) == 0
            assert exhaustive_probability(*market) == 0

    def test_seeded_perturbed_lotteries_and_compact_markets(self):
        # perturbed lotteries under their modal stable matching, as the
        # exact benchmark draws them, and compact markets with ties
        rng, stars = random.Random(54), []
        for _ in range(400):
            inst = random_perturbed_lottery_instance(rng, rng.randint(4, 8), 3, 4)
            stars += self.assert_stars_match_the_walk(
                (inst, gale_shapley(modal_profile(inst)))
            )
            inst = random_compact_instance(rng, 5, rng.randint(4, 6), max_tie=3)
            stars += self.assert_stars_match_the_walk(
                (inst, random_maximal_matching(rng, inst))
            )
        assert len(stars) >= 300
        assert {len(order) - 1 for _, order in stars} >= {1, 2}
        assert sum(self.deletes(*star) for star in stars) >= 40


class TestFreeFactors:
    """A free lottery agent with every order left is a factor of 1 and joins
    neither product; compact agents always join both."""

    def test_unblockable_lottery_matching_has_no_factors(self):
        # every order ranks the partner first, so no pair can block
        n = 3
        agents = [
            lottery(((k, *rest), "1/3"), ((k, *rest[::-1]), "2/3"))
            for k in range(n)
            for rest in [[c for c in range(n) if c != k]]
        ]
        inst = lottery_instance(agents, agents)
        mu = Matching.from_pairs((k, k) for k in range(n))
        model = compiled(inst, mu)
        assert model.denominator == 1 == model.free_product
        assert model.components == []
        assert stability_probability_exact(inst, mu) == 1

    def test_forced_deletion_keeps_only_that_agent(self):
        # w1 always prefers m0, so m0's first order goes; m1 and w0 keep
        # both their orders and stay out of the products
        inst = lottery_instance(
            men=[
                lottery(((1, 0, 2), "1/3"), ((0, 1, 2), "2/3")),
                lottery(((1, 0, 2), "1/4"), ((1, 2, 0), "3/4")),
                certain(2, 0, 1),
            ],
            women=[
                lottery(((0, 1, 2), "1/5"), ((0, 2, 1), "4/5")),
                certain(0, 1, 2),
                certain(2, 0, 1),
            ],
        )
        mu = Matching.from_pairs((k, k) for k in range(3))
        model = compiled(inst, mu)
        assert model.allowed[0].bit_count() == 1
        assert model.denominator == inst.entries[0].scale == 3
        assert model.free_product == 2
        assert stability_probability_exact(inst, mu) == Fraction(2, 3)
        assert exhaustive_probability(inst, mu) == Fraction(2, 3)

    def test_compact_agents_keep_their_scales(self):
        # m0 ties w0 with w1, who always prefers him: his one pick (w0
        # ahead) weighs 1 of his scale 2, though nothing constrains him
        inst = compact_instance([[[0, 1]], [[1], [0]]], [[[0], [1]], [[0], [1]]])
        mu = Matching.from_pairs([(0, 0), (1, 1)])
        model = compiled(inst, mu)
        assert model.numerators[0] == [1] and not model.adjacency[0]
        assert model.denominator == 2 and model.free_product == 1
        assert stability_probability_exact(inst, mu) == Fraction(1, 2)
        assert exhaustive_probability(inst, mu) == Fraction(1, 2)
        rng, checked = random.Random(53), 0
        for _ in range(30):
            inst = random_compact_instance(rng, 5, 5, max_tie=3)
            mu = random_maximal_matching(rng, inst)
            model = compiled(inst, mu)
            if model is not None:
                budget = Budget(None, "search nodes")
                scales, _, _ = probability._pick_tables(inst, mu, budget)
                assert model.denominator == math.prod(scales)
                checked += 1
        assert checked >= 5


class TestWorkBudget:
    """The cap bounds the search nodes the count enters, not realizations."""

    @pytest.mark.parametrize("man_orders", [2, 3])
    def test_forty_agent_ladder_at_the_default_cap(self, man_orders):
        # 2^78 realizations or more, but 5 or 8 nodes per rung
        inst, mu = ladder_instance(random.Random(46), 40, man_orders)
        expected = stability_probability_exact(inst, mu, cap=None)
        assert stability_probability_exact(inst, mu) == expected
        assert stability_probability(inst, mu) == expected

    def test_perturbed_lotteries_at_the_default_cap(self):
        rng = random.Random(48)
        values = []
        for _ in range(5):
            inst = random_perturbed_lottery_instance(rng, 8, 3, 4)
            matching = gale_shapley(modal_profile(inst))
            entries = inst.model.men + inst.model.women
            assert math.prod(len(entry.support) for entry in entries) > DEFAULT_CAP
            value = stability_probability_exact(inst, matching)
            assert value == stability_probability_exact(inst, matching, cap=None)
            values.append(value)
        assert any(0 < value < 1 for value in values)

    def test_cap_is_shared_by_the_components(self):
        # the root, then per rung the man's three picks and, under them,
        # the woman's two picks, the one that keeps the pair apart, and two
        rungs = 6
        inst, mu = ladder_instance(random.Random(47), rungs + 1, man_orders=3)
        nodes = 1 + 8 * rungs
        value = stability_probability_exact(inst, mu, cap=nodes)
        assert value == Fraction(5, 6) ** rungs
        with pytest.raises(ResourceLimitError):
            stability_probability_exact(inst, mu, cap=nodes - 1)

    def test_a_star_is_charged_its_leaves_picks_not_their_products(self):
        # man 0's orders prefer woman 1, both women, or neither to his
        # partner; under those orders woman 1 keeps 1, 1 and 2 of hers and
        # woman 2 keeps 3, 1 and 3. A walk would enter the root, his
        # orders, hers and woman 2's under each of hers: 1 + 3 + 4 + 10.
        # The closed form is charged the root, his orders and each woman's
        # kept orders: 1 + 3 + 4 + 7
        inst = lottery_instance(
            men=[
                lottery(((1, 0, 2), "1/2"), ((2, 1, 0), "1/4"), ((0, 1, 2), "1/4")),
                certain(1, 0, 2),
                certain(2, 0, 1),
            ],
            women=[
                certain(0, 1, 2),
                lottery(((0, 1, 2), "1/3"), ((1, 0, 2), "2/3")),
                lottery(((0, 2, 1), "1/5"), ((2, 0, 1), "2/5"), ((0, 1, 2), "2/5")),
            ],
        )
        mu = Matching.from_pairs((k, k) for k in range(3))
        model = compiled(inst, mu)
        assert model.components == [[0, 4, 5]]
        assert walked_count(model) == (Fraction(13, 20), 1 + 3 + 4 + 10)
        nodes = 1 + 3 + 4 + 7
        value = stability_probability_exact(inst, mu, cap=nodes)
        assert value == Fraction(13, 20) == exhaustive_probability(inst, mu)
        with pytest.raises(ResourceLimitError):
            stability_probability_exact(inst, mu, cap=nodes - 1)

    @pytest.mark.parametrize("leaves", [20, 24])
    def test_a_wide_star_is_answered_at_the_default_cap(self, leaves):
        # woman 0, the hub, ranks her partner first or last; man l ranks
        # his partner, woman l, or her first. The pair blocks only when
        # both put the other first, so the matching is stable when she
        # does not or every man does not. A walk under her first order
        # would enter 2^(leaves + 1) - 1 nodes; the closed form is charged
        # 1 + 2 * leaves, and 1 + leaves under her second
        men = [certain(0)] + [
            lottery(((l, 0), "1/2"), ((0, l), "1/2")) for l in range(1, leaves + 1)
        ]
        women = [
            lottery(
                ((0, *range(1, leaves + 1)), "1/2"), ((*range(1, leaves + 1), 0), "1/2")
            )
        ] + [certain(l) for l in range(1, leaves + 1)]
        inst = lottery_instance(men, women)
        mu = Matching.from_pairs((a, a) for a in range(leaves + 1))
        model = compiled(inst, mu)
        assert model.components == [[leaves + 1, *range(1, leaves + 1)]]
        expected = Fraction(1, 2) + Fraction(1, 2 ** (leaves + 1))
        nodes = 1 + (1 + 2 * leaves) + (1 + leaves)
        assert stability_probability_exact(inst, mu) == expected
        assert stability_probability_exact(inst, mu, cap=nodes) == expected
        with pytest.raises(ResourceLimitError):
            stability_probability_exact(inst, mu, cap=nodes - 1)

    @pytest.mark.parametrize("leaves", [20, 24])
    def test_a_wide_star_without_a_witness_is_answered_at_the_default_cap(self, leaves):
        # woman 0, the hub, has three orders: C ranks her admirer a above
        # her partner and goes; A and B rank man k, the last leaf, above
        # him. Men 1 .. k - 1 prefer her in one of their two orders, but
        # only C prefers them back, so both their orders stay compatible.
        # Man k's second order ranks w', who always prefers him, above his
        # partner and goes; his first ranks the hub first, so it blocks
        # with A and with B. A walk enters about 2^k nodes per hub pick;
        # the closed form charges 1 + 2 * (k - 1) per pick
        k, a, m2 = leaves, leaves + 1, leaves + 2
        middle = list(range(1, k))
        men = [certain(0)]
        men += [lottery(((l, 0), "1/2"), ((0, l), "1/2")) for l in middle]
        men += [lottery(((0, k, m2), "1/2"), ((m2, k, 0), "1/2"))]
        men += [certain(0, a), certain(m2)]
        hub = lottery(
            ((k, 0, *middle, a), "1/3"),
            ((k, 0, *middle[::-1], a), "1/3"),
            ((a, *middle, 0, k), "1/3"),
        )
        women = [hub] + [certain(l) for l in range(1, k + 1)]
        women += [certain(a), certain(k, m2)]
        inst = lottery_instance(men, women)
        mu = Matching.from_pairs((x, x) for x in range(k + 3))
        model = compiled(inst, mu)
        assert model.components == [[inst.n_men, *range(1, k + 1)]]
        assert model.allowed[k] == 0b01 and model.allowed[inst.n_men].bit_count() == 2
        nodes = 1 + 2 * (1 + 2 * (k - 1))
        assert is_stability_probability_nonzero(inst, mu) == (False, None)
        assert is_stability_probability_nonzero(inst, mu, cap=nodes) == (False, None)
        with pytest.raises(ResourceLimitError):
            is_stability_probability_nonzero(inst, mu, cap=nodes - 1)
        assert stability_probability_exact(inst, mu) == 0

    def test_a_cap_above_the_realizations_can_refuse(self):
        # four realizations; the root, the man's two picks, then three of
        # the woman's picks, since one would block with his second
        for cap in (4, 5):
            with pytest.raises(ResourceLimitError):
                stability_probability_exact(example_market(), MU_IDENTITY, cap=cap)
        value = stability_probability_exact(example_market(), MU_IDENTITY, cap=6)
        assert value == Fraction(13, 25)

    def test_compact_tables_count_before_the_search(self):
        # each agent has one undecided mate, so a table of two picks and
        # 1 * 2 entries; then the root and, in each of the two components,
        # the first agent's two picks and three of the second's
        inst, mu = tied_instance(2)
        nodes = 4 * 2 + 1 + 2 * 5
        value = stability_probability_exact(inst, mu, cap=nodes)
        assert value == Fraction(3, 4) ** 2
        with pytest.raises(ResourceLimitError):
            stability_probability_exact(inst, mu, cap=nodes - 1)

    @pytest.mark.parametrize("n", [16, 20, 24, 30])
    def test_fully_tied_compact_markets_are_refused_at_once(self, n):
        # n - 1 undecided mates per agent: a table of 2^(n-1) picks is
        # refused before it is built once its entries pass the cap
        inst, mu = tied_instance(n)
        start = time.process_time()
        with pytest.raises(ResourceLimitError):
            stability_probability_exact(inst, mu)
        with pytest.raises(ResourceLimitError):
            stability_probability(inst, mu)
        assert time.process_time() - start < 1.0

    def test_one_side_certain_costs_the_root_alone(self):
        rng = random.Random(49)
        for _ in range(5):
            inst = random_perturbed_lottery_instance(rng, 8, 1, 4)
            pinned = [certain(*e.support[0][0].ranking) for e in inst.model.men]
            inst = lottery_instance(pinned, list(inst.model.women))
            matching = gale_shapley(modal_profile(inst))
            closed = stability_probability_lottery_one_side_certain(inst, matching)
            assert stability_probability(inst, matching, cap=1) == closed


class TestBuildNonzero2Sat:
    def test_requires_lottery_model(self):
        inst = compact_instance([[[0]], [[1]]], [[[0]], [[1]]])
        with pytest.raises(ValidationError):
            build_nonzero_2sat(inst, MU_IDENTITY)

    def test_rejects_support_above_two(self):
        three = lottery(
            ((0, 1, 2), "1/3"), ((1, 0, 2), "1/3"), ((2, 1, 0), "1/3")
        )
        inst = lottery_instance(
            men=[certain(0, 1, 2), certain(1, 0, 2), certain(2, 0, 1)],
            women=[three, certain(0, 1, 2), certain(0, 1, 2)],
        )
        mu = Matching.from_pairs([(0, 0), (1, 1), (2, 2)])
        with pytest.raises(ValidationError):
            build_nonzero_2sat(inst, mu)

    def test_certain_stable_instance_is_satisfiable(self):
        inst = lottery_instance(
            men=[certain(0, 1), certain(1, 0)],
            women=[certain(0, 1), certain(1, 0)],
        )
        formula = build_nonzero_2sat(inst, MU_IDENTITY)
        assert len(formula.clauses) >= 4
        assert solve_2sat(formula) is not None

    def test_certain_blocking_pair_is_unsatisfiable(self):
        inst = lottery_instance(
            men=[certain(1, 0), certain(0, 1)],
            women=[certain(0, 1), certain(0, 1)],
        )
        assert solve_2sat(build_nonzero_2sat(inst, MU_IDENTITY)) is None

    def test_running_example_is_satisfiable(self):
        formula = build_nonzero_2sat(example_market(), MU_IDENTITY)
        assert solve_2sat(formula) is not None

    def test_satisfiable_iff_probability_positive(self):
        rng = random.Random(20)
        for _ in range(150):
            n = rng.randint(1, 5)
            inst = random_lottery_instance(
                rng, n, n, max_support=2, complete=rng.random() < 0.5
            )
            matching = random_maximal_matching(rng, inst)
            formula = build_nonzero_2sat(inst, matching)
            satisfiable = solve_2sat(formula) is not None
            assert satisfiable == (exhaustive_probability(inst, matching) > 0)

    def test_clause_order_is_pinned(self):
        # the clause order decides the witness ``solve_2sat`` finds, and so
        # the bytes of the CLI's nonzero command; binary lotteries on ragged
        # markets, some agents unmatched
        rng = random.Random(2025)
        formulas = []
        for _ in range(20):
            n_men, n_women = rng.randint(2, 7), rng.randint(2, 7)
            inst = random_lottery_instance(
                rng, n_men, n_women, max_support=2, complete=rng.random() < 0.5
            )
            formula = build_nonzero_2sat(inst, random_maximal_matching(rng, inst))
            formulas.append([formula.num_variables, formula.clauses])
        text = json.dumps(formulas)
        assert hashlib.sha256(text.encode()).hexdigest() == CLAUSE_PIN
