"""Acceptance gate: ten end-to-end criteria, one test (and one pass/fail
line under pytest -v) each.

Every numeric comparison is exact rational equality unless the criterion
itself is statistical (the estimator calibration and the runtime ramp).
Runtime limits are asserted where a criterion pins one.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

from helpers import (
    MU_IDENTITY,
    MU_SWAP,
    certain,
    compact_instance,
    example_market,
    exhaustive_probability,
    lottery_instance,
    naive_has_block,
    random_agent_lottery,
    random_compact_instance,
    random_formula,
    random_joint_instance,
    random_lottery_instance,
    random_maximal_matching,
    random_weak_order,
    truth_table_count,
)
from stableprob import (
    Graph,
    Matching,
    PartialOrder,
    SmpInstance,
    TwoSatInstance,
    UnsupportedFormulaError,
    WeakOrder,
    build_nonzero_2sat,
    complete_instance,
    count2sat_to_lottery,
    estimate_stability_probability,
    exists_certainly_stable_matching,
    is_certainly_stable,
    is_stability_probability_nonzero,
    is_stability_probability_one,
    lift_matching,
    most_stable_brute_force,
    most_stable_constant_uncertain,
    smp_from_instance,
    solve_2sat,
    stability_probability_compact_one_side_certain,
    stability_probability_exact,
    stability_probability_lottery_one_side_certain,
    super_stable_smp,
    three_color_to_joint,
)


def test_ac01_running_example_regression():
    """The 2x2 running example: both exact values and the optimal matching."""
    start = time.perf_counter()
    instance = example_market()
    assert stability_probability_exact(instance, MU_IDENTITY) == Fraction(13, 25)
    assert stability_probability_exact(instance, MU_SWAP) == Fraction(12, 25)
    result = most_stable_brute_force(instance)
    assert result.matching == MU_IDENTITY
    assert result.probability == Fraction(13, 25)
    assert time.perf_counter() - start < 1.0


def test_ac02_one_over_n_factorial_law():
    """Identical strict men, fully indifferent women: any perfect matching
    is stable with probability exactly 1/n!, by the closed form and by
    enumerating every combination of tie-breaks."""
    start = time.perf_counter()
    for n in (2, 3, 4):
        men = [[[j] for j in range(n)] for _ in range(n)]
        women = [[list(range(n))] for _ in range(n)]
        instance = compact_instance(men, women)
        matching = Matching.from_pairs([(i, i) for i in range(n)])
        expected = Fraction(1, factorial(n))
        routine = stability_probability_compact_one_side_certain(instance, matching)
        assert routine == expected
        assert exhaustive_probability(instance, matching) == expected
    assert time.perf_counter() - start < 5.0


def test_ac03_counting_reduction_identity():
    """Encoding a 2CNF as a market turns model counting into a stability
    probability: exactly (number of models) / 4^n."""
    rng = random.Random(103)
    done = 0
    while done < 30:
        formula = random_formula(rng, max_vars=4, max_clauses=6)
        try:
            instance, matching = count2sat_to_lottery(formula)
        except UnsupportedFormulaError:
            continue
        done += 1
        models = truth_table_count(formula)
        expected = Fraction(models, 4**formula.num_variables)
        assert stability_probability_exact(instance, matching) == expected


def _one_side_lottery(rng, n_men, n_women):
    # women certain, a random subset of men uncertain
    men = [
        random_agent_lottery(rng, list(range(n_women)), 3)
        if rng.random() < 0.5
        else certain(*rng.sample(range(n_women), n_women))
        for _ in range(n_men)
    ]
    women = [certain(*rng.sample(range(n_men), n_men)) for _ in range(n_women)]
    return lottery_instance(men, women)


def _one_side_compact(rng, n_men, n_women):
    men = tuple(random_weak_order(rng, list(range(n_women))) for _ in range(n_men))
    women = tuple(
        WeakOrder(tuple((m,) for m in rng.sample(range(n_men), n_men)))
        for _ in range(n_women)
    )
    return compact_instance(
        [list(list(t) for t in m.tiers) for m in men],
        [list(list(t) for t in w.tiers) for w in women],
    )


def test_ac04_oracle_equivalence_suite():
    """On 210 small random instances every probability routine, both
    decision problems, the certain-stability test, and the 2CNF decision
    path agree exactly with exhaustive enumeration."""
    start = time.perf_counter()
    rng = random.Random(104)
    checked = 0

    def check(instance, one_side_routine=None, two_sat=False):
        nonlocal checked
        matching = random_maximal_matching(rng, instance)
        truth = exhaustive_probability(instance, matching)
        assert stability_probability_exact(instance, matching) == truth
        if one_side_routine is not None:
            assert one_side_routine(instance, matching) == truth
        nonzero, witness = is_stability_probability_nonzero(instance, matching)
        assert nonzero == (truth > 0)
        if witness is not None:
            assert not naive_has_block(witness.men, witness.women, matching)
        assert is_stability_probability_one(instance, matching) == (truth == 1)
        assert is_certainly_stable(instance, matching) == (truth == 1)
        if two_sat:
            formula = build_nonzero_2sat(instance, matching)
            assert (solve_2sat(formula) is not None) == (truth > 0)
        checked += 1

    for _ in range(50):
        n_men, n_women = rng.randint(1, 4), rng.randint(1, 4)
        complete = rng.random() < 0.5
        check(random_lottery_instance(rng, n_men, n_women, 3, complete))
    for _ in range(40):
        n_men, n_women = rng.randint(1, 4), rng.randint(1, 4)
        complete = rng.random() < 0.5
        check(
            random_lottery_instance(rng, n_men, n_women, 2, complete),
            two_sat=True,
        )
    for _ in range(40):
        n_men, n_women = rng.randint(1, 4), rng.randint(1, 4)
        check(
            _one_side_lottery(rng, n_men, n_women),
            one_side_routine=stability_probability_lottery_one_side_certain,
        )
    for _ in range(40):
        n_men, n_women = rng.randint(1, 4), rng.randint(1, 4)
        if rng.random() < 0.5:
            check(random_compact_instance(rng, n_men, n_women))
        else:
            check(
                _one_side_compact(rng, n_men, n_women),
                one_side_routine=stability_probability_compact_one_side_certain,
            )
    for _ in range(40):
        n_men, n_women = rng.randint(1, 4), rng.randint(1, 4)
        complete = rng.random() < 0.5
        check(random_joint_instance(rng, n_men, n_women, 3, complete))

    assert checked >= 200
    assert time.perf_counter() - start < 60.0


def test_ac05_constant_uncertain_optimality():
    """With at most two uncertain agents on one side, the polynomial search
    finds exactly the brute-force optimum on 100 random markets."""
    start = time.perf_counter()
    rng = random.Random(105)
    for trial in range(100):
        n = rng.randint(2, 6)
        k = rng.randint(0, 2)
        uncertain = rng.sample(range(n), k)
        if rng.random() < 0.6:
            men = [
                random_agent_lottery(rng, list(range(n)), 3)
                if m in uncertain
                else certain(*rng.sample(range(n), n))
                for m in range(n)
            ]
            women = [certain(*rng.sample(range(n), n)) for _ in range(n)]
            instance = lottery_instance(men, women)
        else:
            men_tiers = [
                [list(t) for t in random_weak_order(rng, list(range(n))).tiers]
                if m in uncertain
                else [[w] for w in rng.sample(range(n), n)]
                for m in range(n)
            ]
            women_tiers = [
                [[m] for m in rng.sample(range(n), n)] for _ in range(n)
            ]
            instance = compact_instance(men_tiers, women_tiers)
        fast = most_stable_constant_uncertain(instance)
        brute = most_stable_brute_force(instance)
        assert fast.probability == brute.probability, trial
        assert stability_probability_exact(instance, fast.matching) == fast.probability
    assert time.perf_counter() - start < 120.0


def _random_partial_order(rng, candidates) -> PartialOrder:
    # intersecting a few permutations always yields a strict partial order
    orders = [
        tuple(rng.sample(candidates, len(candidates)))
        for _ in range(rng.randint(1, 3))
    ]
    pairs = {
        (a, b)
        for a in candidates
        for b in candidates
        if a != b and all(o.index(a) < o.index(b) for o in orders)
    }
    return PartialOrder(frozenset(candidates), frozenset(pairs))


def _smp_has_vwb(smp: SmpInstance, matching: Matching) -> bool:
    for m in range(smp.n_men):
        for w in smp.men[m].candidates:
            if matching.partner_of_man(m) == w:
                continue
            pm = matching.partner_of_man(m)
            pw = matching.partner_of_woman(w)
            if pm is not None and (pm, w) in smp.men[m].strictly_before:
                continue
            if pw is not None and (pw, m) in smp.women[w].strictly_before:
                continue
            return True
    return False


def test_ac06_super_stability_matches_brute_force():
    """Feasibility of the propose-and-delete search equals brute force over
    all perfect matchings on 200 random complete markets."""
    rng = random.Random(106)
    for trial in range(200):
        n = rng.randint(2, 5)
        if trial % 2:
            smp = smp_from_instance(random_compact_instance(rng, n, n))
        else:
            smp = SmpInstance(
                men=tuple(
                    _random_partial_order(rng, list(range(n))) for _ in range(n)
                ),
                women=tuple(
                    _random_partial_order(rng, list(range(n))) for _ in range(n)
                ),
            )
        feasible = any(
            not _smp_has_vwb(smp, Matching.from_pairs(list(enumerate(perm))))
            for perm in permutations(range(n))
        )
        found = super_stable_smp(smp)
        assert (found is not None) == feasible, trial
        if found is not None:
            assert len(found) == n
            assert not _smp_has_vwb(smp, found)


def test_ac07_three_coloring_gadget():
    """The joint-model encoding of a graph admits a certainly stable
    matching exactly when the graph is 3-colorable."""
    start = time.perf_counter()
    k3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
    assert exists_certainly_stable_matching(three_color_to_joint(k3)) is not None
    bipartite = [
        Graph(4, ((0, 1), (1, 2), (2, 3))),
        Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3))),
        Graph(5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
        Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4))),
        Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))),
    ]
    for graph in bipartite:
        instance = three_color_to_joint(graph)
        assert exists_certainly_stable_matching(instance) is not None, graph
    k4 = Graph(4, tuple(combinations(range(4), 2)))
    assert exists_certainly_stable_matching(three_color_to_joint(k4)) is None
    assert time.perf_counter() - start < 30.0


def test_ac08_completion_preserves_probability():
    """Padding a ragged market to complete lists never changes the
    stability probability of a lifted matching.

    Matchings that strand a mutually acceptable pair are already blocked
    everywhere, so the preservation contract covers maximal matchings.
    """
    rng = random.Random(108)
    makers = [
        lambda n, m: random_lottery_instance(rng, n, m, 3, complete=False),
        lambda n, m: random_compact_instance(rng, n, m, complete=False),
        lambda n, m: random_joint_instance(rng, n, m, complete=False),
    ]
    for trial in range(102):
        instance = makers[trial % 3](rng.randint(1, 4), rng.randint(1, 4))
        matching = random_maximal_matching(rng, instance)
        completed, padding = complete_instance(instance)
        lifted = lift_matching(matching, padding)
        assert completed.is_complete()
        assert stability_probability_exact(instance, matching) == (
            stability_probability_exact(completed, lifted)
        ), trial


def test_ac09_estimator_calibration():
    """At accuracy 0.02 and confidence 0.99, at least 97 of 100 seeded
    estimates land within 0.02 of the true value."""
    instance = example_market()
    truth = Fraction(13, 25)
    tolerance = Fraction(1, 50)
    hits = 0
    for seed in range(100):
        estimate = estimate_stability_probability(
            instance, MU_IDENTITY, "1/50", "1/100", random.Random(seed)
        )
        if abs(estimate.point_estimate - truth) <= tolerance:
            hits += 1
    assert hits >= 97, hits


def _ramp_formula(rng, clause_count: int) -> TwoSatInstance:
    n = clause_count // 2
    clauses = tuple(
        (
            (rng.randrange(n), rng.random() < 0.5),
            (rng.randrange(n), rng.random() < 0.5),
        )
        for _ in range(clause_count)
    )
    return TwoSatInstance(n, clauses)


def test_ac10_two_sat_engine():
    """Satisfiability agrees with the truth table on 500 random formulas,
    and solve time grows linearly in clause count (within a factor of 2)."""
    rng = random.Random(110)
    for _ in range(500):
        formula = random_formula(rng, max_vars=12, max_clauses=20)
        assignment = solve_2sat(formula)
        assert (assignment is not None) == (truth_table_count(formula) > 0)
        if assignment is not None:
            assert all(
                assignment[v1] == p1 or assignment[v2] == p2
                for (v1, p1), (v2, p2) in formula.clauses
            )

    sizes = [2000, 4000, 8000, 16000]
    timings = []
    for size in sizes:
        formula = _ramp_formula(random.Random(size), size)
        best = float("inf")
        # best of 7: per-clause cost rises slowly with size, so the smallest
        # size sits near the band's floor, where one noisy run must not decide
        for _ in range(7):
            # CPU time of this process only, so work run alongside on a
            # loaded machine does not skew the ramp
            begin = time.process_time()
            solve_2sat(formula)
            best = min(best, time.process_time() - begin)
        timings.append(best)
    # least-squares slope through the origin
    slope = sum(s * t for s, t in zip(sizes, timings)) / sum(s * s for s in sizes)
    for size, took in zip(sizes, timings):
        predicted = slope * size
        assert predicted / 2 <= took <= predicted * 2, (size, took, predicted)
