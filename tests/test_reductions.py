"""Tests for the instance generators encoding cover, counting, and coloring."""

import hashlib
import json
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from helpers import (
    exhaustive_probability,
    random_formula,
    reference_simplify_formula,
    truth_table_count,
)
from stableprob import (
    Graph,
    Matching,
    TwoSatInstance,
    UnsupportedFormulaError,
    ValidationError,
    X3cInstance,
    count2sat_to_lottery,
    exists_certainly_stable_matching,
    is_certainly_stable,
    is_stability_probability_nonzero,
    stability_probability_exact,
    three_color_to_joint,
    x3c_to_lottery,
)
from stableprob.jsonio import default_names, instance_to_json, matching_to_json
from stableprob.reductions import _vetoed_cells

GADGET_PIN = "143bf90a24e59da5b18aa914a72f894db9fc1ad41d833b9c679be4eaa252a1ed"
UNSUPPORTED_PIN = 34
THREE_COLOR_PIN = "352e03dae2624a1a2738bf21b20147ed439741cf93bd038e37014fe07167495a"


def has_exact_cover(x3c: X3cInstance) -> bool:
    need = x3c.universe_size // 3
    universe = set(range(1, x3c.universe_size + 1))
    for chosen in combinations(x3c.triples, need):
        union = set()
        for triple in chosen:
            union.update(triple)
        if union == universe and len(chosen) * 3 == len(union):
            return True
    return not need


def is_three_colorable(graph: Graph) -> bool:
    for coloring in product(range(3), repeat=graph.vertex_count):
        if all(coloring[a] != coloring[b] for a, b in graph.edges):
            return True
    return graph.vertex_count == 0


def block_matching(coloring) -> Matching:
    pairs = []
    for i, c in enumerate(coloring):
        for j in range(3):
            pairs.append((3 * i + j, 3 * i + (j + c) % 3))
    return Matching.from_pairs(pairs)


CLAUSE = "each clause must be a pair of literals"
LITERAL = "each literal must be a [variable, polarity] pair"
TRIPLES = "'triples' must be an array of 3-integer arrays"
EDGES = "'edges' must be an array of 2-integer arrays"
VARIABLES = "variable count must be an integer"
UNKNOWN = "literal uses unknown variable"
MALFORMED = [
    (TwoSatInstance, 2, (((0, True), (1, True), (1, False)),), CLAUSE),
    (TwoSatInstance, 2, (((0, True),),), CLAUSE),
    (TwoSatInstance, 2, ((0, 1),), LITERAL),
    (TwoSatInstance, 2, (((0, True), (1,)),), LITERAL),
    (TwoSatInstance, 2, (((0, True, 1), (1, True)),), LITERAL),
    (TwoSatInstance, 2, None, "'clauses' must be an array"),
    (X3cInstance, 3, ((1, 2, "3"),), TRIPLES),
    (X3cInstance, 3, ((1, 2),), TRIPLES),
    (X3cInstance, 3, (3,), TRIPLES),
    (X3cInstance, 3, "123", TRIPLES),
    (Graph, 3, ((0, 1, 2),), EDGES),
    (Graph, 3, ((0, 1.0),), EDGES),
    (Graph, 3, {(0, 1)}, EDGES),
    # shape comes before every value: the count and an earlier row's
    # unknown variable or element are not reported first
    (TwoSatInstance, "x", (((0, True), (1, True)), ((0, True),)), CLAUSE),
    (TwoSatInstance, 1, (((5, True), (0, True)), (((0, True)), 1)), LITERAL),
    (X3cInstance, 4, ((1, 2, 9), (1, 2)), TRIPLES),
    (Graph, -1, ((0, 0), (0, 1, 2)), EDGES),
    # a bool is not an integer: not a count, a variable, an element or a vertex
    (TwoSatInstance, True, (((0, True), (0, True)),), VARIABLES),
    (TwoSatInstance, 2, (((True, True), (1, False)),), f"{UNKNOWN} True"),
    (TwoSatInstance, 2, (((0, True), (False, False)),), f"{UNKNOWN} False"),
    (X3cInstance, True, (), "universe size must be an integer"),
    (X3cInstance, 3, ((True, 2, 3),), TRIPLES),
    (Graph, True, (), "vertex count must be an integer"),
    (Graph, 2, ((False, 1),), EDGES),
]


@pytest.mark.parametrize("cls, size, rows, message", MALFORMED)
def test_malformed_problem_is_a_validation_error(cls, size, rows, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        cls(size, rows)


def test_problems_accept_lists_as_tuples():
    assert TwoSatInstance(2, [[[0, True], [1, False]]]) == TwoSatInstance(
        2, (((0, True), (1, False)),)
    )
    assert X3cInstance(3, [[3, 1, 2]]) == X3cInstance(3, ((1, 2, 3),))
    assert Graph(2, [[1, 0]]) == Graph(2, ((0, 1),))


class TestX3cInstance:
    def test_rejects_universe_not_multiple_of_three(self):
        with pytest.raises(ValidationError):
            X3cInstance(4, ())

    def test_rejects_negative_universe(self):
        with pytest.raises(ValidationError):
            X3cInstance(-3, ())

    def test_rejects_duplicate_elements(self):
        with pytest.raises(ValidationError):
            X3cInstance(3, ((1, 1, 2),))

    def test_rejects_out_of_range_element(self):
        with pytest.raises(ValidationError):
            X3cInstance(3, ((1, 2, 4),))
        with pytest.raises(ValidationError):
            X3cInstance(3, ((0, 1, 2),))

    def test_triples_are_sorted(self):
        inst = X3cInstance(3, ((3, 1, 2),))
        assert inst.triples == ((1, 2, 3),)


class TestGraph:
    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValidationError):
            Graph(-1, ())

    def test_rejects_loops(self):
        with pytest.raises(ValidationError):
            Graph(2, ((1, 1),))

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValidationError):
            Graph(2, ((0, 2),))

    def test_normalizes_and_dedupes_edges(self):
        graph = Graph(3, ((2, 0), (0, 2), (1, 0)))
        assert graph.edges == ((0, 1), (0, 2))


class TestX3cToLottery:
    def test_single_covering_triple_is_nonzero(self):
        inst, mu = x3c_to_lottery(X3cInstance(3, ((1, 2, 3),)))
        decision, witness = is_stability_probability_nonzero(inst, mu)
        assert decision
        assert witness is not None

    def test_rejects_empty_triple_set_on_nonempty_universe(self):
        with pytest.raises(ValidationError):
            x3c_to_lottery(X3cInstance(3, ()))

    def test_empty_universe_is_trivially_coverable(self):
        inst, mu = x3c_to_lottery(X3cInstance(0, ()))
        assert is_stability_probability_nonzero(inst, mu)[0]

    def test_disjoint_pair_covers(self):
        inst, mu = x3c_to_lottery(
            X3cInstance(6, ((1, 2, 3), (1, 2, 4), (3, 5, 6)))
        )
        assert is_stability_probability_nonzero(inst, mu)[0]

    def test_overlapping_triples_cannot_cover(self):
        inst, mu = x3c_to_lottery(X3cInstance(6, ((1, 2, 3), (2, 3, 4))))
        assert not is_stability_probability_nonzero(inst, mu)[0]

    def test_instance_shape_and_validity(self):
        x3c = X3cInstance(6, ((1, 2, 3), (4, 5, 6)))
        inst, mu = x3c_to_lottery(x3c)
        n_side = 2 + 6
        assert inst.n_men == n_side and inst.n_women == n_side
        assert inst.is_complete()
        inst.validate_matching(mu)
        assert len(mu) == n_side

    def test_agrees_with_set_cover_oracle(self):
        rng = random.Random(31)
        for _ in range(25):
            size = rng.choice([3, 6])
            pool = list(combinations(range(1, size + 1), 3))
            count = rng.randint(1, min(4, len(pool)))
            triples = tuple(sorted(rng.sample(pool, count)))
            x3c = X3cInstance(size, triples)
            inst, mu = x3c_to_lottery(x3c)
            decision, witness = is_stability_probability_nonzero(inst, mu)
            assert decision == has_exact_cover(x3c)
            assert decision == (stability_probability_exact(inst, mu) > 0)


class TestCount2SatToLottery:
    def test_forced_variable(self):
        formula = TwoSatInstance(1, (((0, True), (0, True)),))
        inst, mu = count2sat_to_lottery(formula)
        assert stability_probability_exact(inst, mu) == Fraction(1, 4)

    def test_unconstrained_variable(self):
        inst, mu = count2sat_to_lottery(TwoSatInstance(1, ()))
        assert stability_probability_exact(inst, mu) == Fraction(1, 2)

    def test_single_or_clause(self):
        formula = TwoSatInstance(2, (((0, True), (1, True)),))
        inst, mu = count2sat_to_lottery(formula)
        assert stability_probability_exact(inst, mu) == Fraction(3, 16)

    def test_contradictory_formula_scores_zero(self):
        formula = TwoSatInstance(
            1, (((0, True), (0, True)), ((0, False), (0, False)))
        )
        inst, mu = count2sat_to_lottery(formula)
        assert stability_probability_exact(inst, mu) == 0
        assert not is_stability_probability_nonzero(inst, mu)[0]

    def test_zero_variables(self):
        inst, mu = count2sat_to_lottery(TwoSatInstance(0, ()))
        assert stability_probability_exact(inst, mu) == 1

    def test_odd_cycle_is_rejected(self):
        formula = TwoSatInstance(
            3,
            (
                ((0, True), (1, True)),
                ((1, True), (2, True)),
                ((2, True), (0, True)),
            ),
        )
        with pytest.raises(UnsupportedFormulaError):
            count2sat_to_lottery(formula)

    def test_unsupported_error_is_a_validation_error(self):
        assert issubclass(UnsupportedFormulaError, ValidationError)

    def test_instance_is_complete_with_binary_supports(self):
        formula = TwoSatInstance(2, (((0, True), (1, False)),))
        inst, mu = count2sat_to_lottery(formula)
        assert inst.is_complete()
        inst.validate_matching(mu)
        model = inst.model
        assert all(len(e.support) <= 2 for e in model.men)
        assert all(len(e.support) <= 2 for e in model.women)

    def test_probability_counts_models_on_random_formulas(self):
        rng = random.Random(32)
        done = 0
        while done < 40:
            formula = random_formula(rng, max_vars=3, max_clauses=5)
            try:
                inst, mu = count2sat_to_lottery(formula)
            except UnsupportedFormulaError:
                continue
            done += 1
            n = formula.num_variables
            s = truth_table_count(formula)
            expected = Fraction(s, 4**n)
            assert stability_probability_exact(inst, mu) == expected
            assert exhaustive_probability(inst, mu) == expected
            # binary supports keep the 2-CNF decision path applicable
            decision, _ = is_stability_probability_nonzero(inst, mu)
            assert decision == (s > 0)

    def test_vetoed_cells_match_the_reference_reduction(self):
        # denser than the pin, so that every rule fires often; the reference
        # is the earlier reduction over tagged unit and binary clauses
        rng = random.Random(41)
        fired = Counter()
        for _ in range(300):
            formula = random_formula(rng, max_vars=8, max_clauses=40)
            units, cells, removed = _vetoed_cells(formula)
            binaries = {((u, not a), (w, not b)) for (u, w), (a, b) in cells.items()}
            reference = reference_simplify_formula(formula, fired)
            assert (units, binaries, removed) == reference
            # the kept variables' assignments that pass the units and avoid
            # every vetoed cell are as many as the formula's models
            kept = [v for v in range(formula.num_variables) if v not in removed]
            count = 0
            for values in product((False, True), repeat=len(kept)):
                x = dict(zip(kept, values))
                count += all(x[v] == p for v, p in units) and not any(
                    x[u] == a and x[w] == b for (u, w), (a, b) in cells.items()
                )
            assert count == truth_table_count(formula)
        floors = {"line": 200, "diagonal": 100, "pin": 150, "contradiction": 50}
        assert all(fired[rule] >= floor for rule, floor in floors.items()), fired

    def test_output_bytes_are_pinned(self):
        # ``generate count2sat`` prints these documents, so the gadget's
        # agents must keep their per-side creation order; the digest was
        # recorded from an earlier implementation of the gadget
        rng = random.Random(12)
        entries = []
        for _ in range(200):
            formula = random_formula(rng, max_vars=10, max_clauses=14)
            try:
                inst, mu = count2sat_to_lottery(formula)
            except UnsupportedFormulaError:
                entries.append("unsupported")
                continue
            men = default_names(inst.n_men, "m")
            women = default_names(inst.n_women, "w")
            entries.append(
                [instance_to_json(inst, men, women), matching_to_json(mu, men, women)]
            )
        assert entries.count("unsupported") == UNSUPPORTED_PIN
        text = json.dumps(entries, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == GADGET_PIN


class TestThreeColorToJoint:
    def test_single_vertex(self):
        inst = three_color_to_joint(Graph(1, ()))
        assert inst.n_men == 3 and inst.n_women == 3
        assert len(inst.model.profiles) == 1
        assert exists_certainly_stable_matching(inst) is not None

    def test_triangle_is_colorable(self):
        inst = three_color_to_joint(Graph(3, ((0, 1), (1, 2), (0, 2))))
        found = exists_certainly_stable_matching(inst)
        assert found is not None
        assert is_certainly_stable(inst, found)

    def test_k4_is_not_colorable(self):
        inst = three_color_to_joint(Graph(4, tuple(combinations(range(4), 2))))
        assert exists_certainly_stable_matching(inst) is None

    def test_four_cycle_is_colorable(self):
        inst = three_color_to_joint(Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3))))
        assert exists_certainly_stable_matching(inst) is not None

    def test_profile_count_and_uniform_weights(self):
        graph = Graph(3, ((0, 1), (1, 2)))
        inst = three_color_to_joint(graph)
        profiles = inst.model.profiles
        assert len(profiles) == 1 + 3 * len(graph.edges)
        assert all(w == Fraction(1, len(profiles)) for _, w in profiles)
        assert inst.n_men == 3 * graph.vertex_count

    def test_proper_coloring_gives_certainly_stable_matching(self):
        inst = three_color_to_joint(Graph(3, ((0, 1), (1, 2), (0, 2))))
        assert is_certainly_stable(inst, block_matching((0, 1, 2)))
        assert is_certainly_stable(inst, block_matching((2, 0, 1)))

    def test_improper_coloring_is_blocked(self):
        inst = three_color_to_joint(Graph(3, ((0, 1), (1, 2), (0, 2))))
        assert not is_certainly_stable(inst, block_matching((0, 0, 1)))

    def test_agrees_with_coloring_oracle(self):
        rng = random.Random(33)
        for _ in range(12):
            nv = rng.randint(1, 5)
            possible = list(combinations(range(nv), 2))
            edges = tuple(
                e for e in possible if rng.random() < 0.55
            )
            graph = Graph(nv, edges)
            inst = three_color_to_joint(graph)
            found = exists_certainly_stable_matching(inst)
            assert (found is not None) == is_three_colorable(graph)
            if found is not None:
                assert is_certainly_stable(inst, found)

    def test_three_color_bytes_are_pinned(self):
        # ``generate 3color`` prints these documents; the digest was recorded
        # from the earlier, edge-by-edge implementation of the gadget
        rng = random.Random(14)
        entries = []
        for _ in range(60):
            nv = rng.randint(0, 6)
            edges = tuple(e for e in combinations(range(nv), 2) if rng.random() < 0.5)
            entries.append(instance_to_json(three_color_to_joint(Graph(nv, edges))))
        text = json.dumps(entries, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == THREE_COLOR_PIN
