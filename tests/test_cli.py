"""End-to-end tests for the command-line interface.

Everything runs in-process through main(argv) with stdout captured, so the
tests see exactly the bytes a shell user would.
"""

import json
import random
import sys
from fractions import Fraction

import pytest

from helpers import ladder_instance, tied_instance
from stableprob import cli
from stableprob.cli import main
from stableprob.jsonio import default_names, instance_from_json, instance_to_json
from stableprob.jsonio import matching_to_json

DIGIT_LIMIT = sys.get_int_max_str_digits()

EXAMPLE = {
    "model": "lottery",
    "men": ["m1", "m2"],
    "women": ["w1", "w2"],
    "preferences": {
        "m1": [
            {"order": ["w1", "w2"], "p": "2/5"},
            {"order": ["w2", "w1"], "p": "3/5"},
        ],
        "m2": [{"order": ["w2", "w1"], "p": "1"}],
        "w1": [{"order": ["m1", "m2"], "p": "1"}],
        "w2": [
            {"order": ["m1", "m2"], "p": "4/5"},
            {"order": ["m2", "m1"], "p": "1/5"},
        ],
    },
}
MU1 = {"pairs": [["m1", "w1"], ["m2", "w2"]]}
MU2 = {"pairs": [["m1", "w2"], ["m2", "w1"]]}

# only m1 is uncertain: most-stable constant-uncertain has 2 candidates
ONE_SIDE = {
    "model": "lottery",
    "men": ["m1", "m2"],
    "women": ["w1", "w2"],
    "preferences": {
        "m1": [
            {"order": ["w1", "w2"], "p": "1/2"},
            {"order": ["w2", "w1"], "p": "1/2"},
        ],
        "m2": [{"order": ["w1", "w2"], "p": "1"}],
        "w1": [{"order": ["m1", "m2"], "p": "1"}],
        "w2": [{"order": ["m1", "m2"], "p": "1"}],
    },
}

# m1 has three support orders and w2 two, and the pair (m1, w2) blocks only
# when both take their second: nonzero searches one two-agent component,
# entering the root, m1 and w2
THREE_ORDERS = {
    "model": "lottery",
    "men": ["m1", "m2", "m3"],
    "women": ["w1", "w2", "w3"],
    "preferences": {
        "m1": [
            {"order": ["w1", "w2", "w3"], "p": "1/3"},
            {"order": ["w2", "w1", "w3"], "p": "1/3"},
            {"order": ["w3", "w1", "w2"], "p": "1/3"},
        ],
        "m2": [{"order": ["w2", "w1", "w3"], "p": "1"}],
        "m3": [{"order": ["w3", "w1", "w2"], "p": "1"}],
        "w1": [{"order": ["m1", "m2", "m3"], "p": "1"}],
        "w2": [
            {"order": ["m2", "m1", "m3"], "p": "1/2"},
            {"order": ["m1", "m2", "m3"], "p": "1/2"},
        ],
        "w3": [{"order": ["m3", "m1", "m2"], "p": "1"}],
    },
}
IDENTITY3 = {"pairs": [["m1", "w1"], ["m2", "w2"], ["m3", "w3"]]}

CERTAIN_1X1 = {
    "model": "lottery",
    "men": ["m"],
    "women": ["w"],
    "preferences": {
        "m": [{"order": ["w"], "p": "1"}],
        "w": [{"order": ["m"], "p": "1"}],
    },
}


@pytest.fixture
def write(tmp_path):
    def _write(name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def run_json(run):
    def _run(*argv):
        code, out, err = run(*argv)
        return code, json.loads(out), err

    return _run


class TestValidate:
    def test_valid_instance(self, run_json, write):
        code, doc, _ = run_json("validate", write("i.json", EXAMPLE))
        assert code == 0
        assert doc["status"] == "ok"
        assert doc["payload"] == {
            "model": "lottery",
            "men": 2,
            "women": 2,
            "uncertain_agents": 2,
        }
        assert doc["diagnostics"] == ["instance is valid"]

    def test_designated_matching_is_checked(self, run_json, write):
        document = dict(EXAMPLE, designated_matching=MU1)
        code, doc, _ = run_json("validate", write("i.json", document))
        assert code == 0
        assert doc["payload"]["designated_matching"] == MU1

    @pytest.mark.parametrize("pair", [[["m1"], "w1"], [{}, "w1"], ["m1", ["w1"]]])
    def test_designated_pair_must_hold_names(self, run_json, write, pair):
        document = dict(EXAMPLE, designated_matching={"pairs": [pair]})
        code, doc, _ = run_json("validate", write("i.json", document))
        assert code == 2 and doc["status"] == "invalid-input"

    def test_weights_summing_short_are_rejected(self, run_json, write):
        bad = {
            "model": "lottery",
            "men": ["m"],
            "women": ["w"],
            "preferences": {
                "m": [{"order": ["w"], "p": "9/10"}],
                "w": [{"order": ["m"], "p": "1"}],
            },
        }
        code, doc, _ = run_json("validate", write("bad.json", bad))
        assert code == 2
        assert doc["status"] == "invalid-input"
        assert doc["diagnostics"]

    def test_unknown_model(self, run_json, write):
        bad = dict(EXAMPLE, model="fuzzy")
        code, doc, _ = run_json("validate", write("bad.json", bad))
        assert code == 2 and doc["status"] == "invalid-input"

    def test_missing_file(self, run_json, tmp_path):
        code, doc, _ = run_json("validate", str(tmp_path / "nope.json"))
        assert code == 2 and doc["status"] == "invalid-input"

    def test_malformed_json(self, run_json, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        code, doc, _ = run_json("validate", str(path))
        assert code == 2 and doc["status"] == "invalid-input"

    def test_isolated_agent_spelling(self, run_json, write):
        document = {
            "model": "lottery",
            "men": ["m", "loner"],
            "women": ["w"],
            "preferences": {
                "m": [{"order": ["w"], "p": "1"}],
                "loner": [{"order": [], "p": "1"}],
                "w": [{"order": ["m"], "p": "1"}],
            },
        }
        code, doc, _ = run_json("validate", write("iso.json", document))
        assert code == 0 and doc["payload"]["men"] == 2


UNREADABLE = {
    "not-utf8": b"\xff\xfe{}",
    "deep": b"[" * 5000 + b"]" * 5000,
    "long-integer": b'{"n": ' + b"7" * 5000 + b"}",
}


class TestUnreadableFiles:
    @pytest.fixture(params=sorted(UNREADABLE))
    def unreadable(self, request, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(UNREADABLE[request.param])
        return str(path)

    def assert_invalid(self, run, *argv):
        code, out, _ = run(*argv)
        doc = json.loads(out)
        assert code == 2 and doc["status"] == "invalid-input" and doc["diagnostics"]

    def test_instance_file(self, run, unreadable):
        self.assert_invalid(run, "validate", unreadable)

    def test_matching_file(self, run, write, unreadable):
        instance = write("i.json", EXAMPLE)
        self.assert_invalid(run, "probability", instance, "--matching", unreadable)

    def test_problem_file(self, run, unreadable):
        self.assert_invalid(run, "generate", "x3c", unreadable)


class TestProbabilityValues:
    @staticmethod
    def with_weight(p):
        return dict(
            CERTAIN_1X1,
            preferences={
                "m": [{"order": ["w"], "p": p}],
                "w": [{"order": ["m"], "p": "1"}],
            },
        )

    @pytest.mark.parametrize(
        "p, message",
        [
            ("3/2", "probability 3/2 outside [0, 1]"),
            ("1e999999", "probability outside [0, 1]"),
            ("-1e999999", "probability outside [0, 1]"),
            ("1e-9999999", f"probability exponent below -{DIGIT_LIMIT}"),
            (float("inf"), "bad probability inf"),
            (float("nan"), "bad probability nan"),
        ],
    )
    def test_weight_out_of_range_or_unprintable(self, run_json, write, p, message):
        code, doc, _ = run_json("validate", write("i.json", self.with_weight(p)))
        assert code == 2 and doc["status"] == "invalid-input"
        assert doc["diagnostics"] == [f"weight in preferences of 'm': {message}"]

    def test_long_unparsable_weight_is_clipped(self, run, write):
        # the exponent is too long for int(), so the value fails to parse
        text = "1e" + "9" * 5000
        code, out, err = run("validate", write("i.json", self.with_weight(text)))
        doc = json.loads(out)
        assert code == 2 and doc["status"] == "invalid-input"
        assert "Traceback" not in out + err
        (message,) = doc["diagnostics"]
        assert "bad probability '1e999" in message and len(message) < 200

    @pytest.mark.parametrize(
        "eps, message",
        [
            ("3/2", "probability 3/2 outside [0, 1]"),
            ("1e999999", "probability outside [0, 1]"),
        ],
    )
    def test_estimate_epsilon(self, run_json, write, eps, message):
        code, doc, _ = run_json(
            "probability",
            write("i.json", CERTAIN_1X1),
            "--matching",
            write("mu.json", {"pairs": [["m", "w"]]}),
            "--method",
            "estimate",
            "--eps",
            eps,
        )
        assert code == 2 and doc["diagnostics"] == [message]

    @pytest.mark.parametrize("option", ["--eps", "--delta"])
    @pytest.mark.parametrize(
        "value, message",
        [
            ("1e-9999999", f"probability exponent below -{DIGIT_LIMIT}"),
            ("1e9999999", "probability outside [0, 1]"),
        ],
    )
    def test_estimate_exponent_is_refused_at_once(
        self, run_json, write, option, value, message
    ):
        # Fraction would build 10 ** 9999999 before any range check
        code, doc, _ = run_json(
            "probability",
            write("i.json", CERTAIN_1X1),
            "--matching",
            write("mu.json", {"pairs": [["m", "w"]]}),
            "--method",
            "estimate",
            option,
            value,
        )
        assert code == 2 and doc["diagnostics"] == [message]


class TestProbability:
    def test_example_values(self, run_json, write):
        instance = write("i.json", EXAMPLE)
        code, doc, _ = run_json(
            "probability", instance, "--matching", write("mu1.json", MU1)
        )
        assert code == 0
        assert doc["payload"]["probability"] == "13/25"
        assert doc["payload"]["decimal"] == 0.52
        assert doc["payload"]["method"] == "auto"
        code, doc, _ = run_json(
            "probability", instance, "--matching", write("mu2.json", MU2)
        )
        assert doc["payload"]["probability"] == "12/25"
        assert doc["payload"]["decimal"] == 0.48

    def test_decimal_matches_rational_to_12_digits(self, run_json, write):
        code, doc, _ = run_json(
            "probability",
            write("i.json", EXAMPLE),
            "--matching",
            write("mu.json", MU1),
        )
        exact = Fraction(doc["payload"]["probability"])
        assert format(float(exact), ".12g") == format(doc["payload"]["decimal"], ".12g")

    def test_forced_method_exact(self, run_json, write):
        code, doc, _ = run_json(
            "probability",
            write("i.json", EXAMPLE),
            "--matching",
            write("mu.json", MU1),
            "--method",
            "exact",
        )
        assert code == 0 and doc["payload"]["method"] == "exact"

    def test_one_side_method_rejects_two_sided_uncertainty(self, run_json, write):
        code, doc, _ = run_json(
            "probability",
            write("i.json", EXAMPLE),
            "--matching",
            write("mu.json", MU1),
            "--method",
            "one-side",
        )
        assert code == 2 and doc["status"] == "invalid-input"

    def test_joint_method_rejects_lottery_instance(self, run_json, write):
        code, doc, _ = run_json(
            "probability",
            write("i.json", EXAMPLE),
            "--matching",
            write("mu.json", MU1),
            "--method",
            "joint",
        )
        assert code == 2 and doc["status"] == "invalid-input"

    def test_unknown_matching_name(self, run_json, write):
        bad = {"pairs": [["m1", "nobody"]]}
        code, doc, _ = run_json(
            "probability",
            write("i.json", EXAMPLE),
            "--matching",
            write("mu.json", bad),
        )
        assert code == 2 and doc["status"] == "invalid-input"

    @pytest.mark.parametrize("pair", [[["m1"], "w1"], [{}, "w1"], ["m1", 0]])
    def test_matching_pair_must_hold_names(self, run_json, write, pair):
        code, doc, _ = run_json(
            "one",
            write("i.json", EXAMPLE),
            "--matching",
            write("mu.json", {"pairs": [pair]}),
        )
        assert code == 2 and doc["status"] == "invalid-input"

    def test_cap_flag_trips_resource_limit(self, run_json, write):
        code, doc, _ = run_json(
            "--cap",
            "1",
            "probability",
            write("i.json", EXAMPLE),
            "--matching",
            write("mu.json", MU1),
        )
        assert code == 3
        assert doc["status"] == "resource-limit"
        assert doc["diagnostics"]

    def test_ladder_is_answered_at_the_default_cap(self, run_json, write):
        # 2^78 realizations; the cap bounds the 1 + 5 * 39 search nodes
        inst, mu = ladder_instance(random.Random(46), 40)
        men, women = default_names(40, "m"), default_names(40, "w")
        code, doc, _ = run_json(
            "probability",
            write("i.json", instance_to_json(inst)),
            "--matching",
            write("mu.json", matching_to_json(mu, men, women)),
        )
        assert code == 0
        assert doc["payload"]["probability"] == str(Fraction(3, 4) ** 39)

    def test_fully_tied_compact_market_is_refused(self, run_json, write):
        inst, mu = tied_instance(24)
        names = default_names(24, "m"), default_names(24, "w")
        code, doc, _ = run_json(
            "probability",
            write("i.json", instance_to_json(inst)),
            "--matching",
            write("mu.json", matching_to_json(mu, *names)),
        )
        assert code == 3 and doc["status"] == "resource-limit"

    def test_cap_env_var(self, run_json, write, monkeypatch):
        monkeypatch.setenv("STABLEPROB_CAP", "1")
        instance = write("i.json", EXAMPLE)
        matching = write("mu.json", MU1)
        code, doc, _ = run_json("probability", instance, "--matching", matching)
        assert code == 3 and doc["status"] == "resource-limit"
        # explicit flag wins over the environment
        code, doc, _ = run_json(
            "--cap", "1000", "probability", instance, "--matching", matching
        )
        assert code == 0 and doc["payload"]["probability"] == "13/25"

    def test_cap_env_var_must_be_integer(self, run_json, write, monkeypatch):
        monkeypatch.setenv("STABLEPROB_CAP", "lots")
        code, doc, _ = run_json(
            "probability",
            write("i.json", EXAMPLE),
            "--matching",
            write("mu.json", MU1),
        )
        assert code == 2 and doc["status"] == "invalid-input"


class TestEstimate:
    def test_fields_and_sample_count(self, run_json, write):
        code, doc, _ = run_json(
            "probability",
            write("i.json", EXAMPLE),
            "--matching",
            write("mu.json", MU1),
            "--method",
            "estimate",
            "--eps",
            "1/2",
            "--delta",
            "1/2",
        )
        assert code == 0
        payload = doc["payload"]
        assert payload["method"] == "estimate"
        assert payload["samples"] == 3
        assert payload["epsilon"] == "1/2"
        assert payload["delta"] == "1/2"
        assert payload["seed"] == 0

    def test_identical_argv_gives_identical_bytes(self, run, write):
        argv = (
            "probability",
            write("i.json", EXAMPLE),
            "--matching",
            write("mu.json", MU1),
            "--method",
            "estimate",
            "--seed",
            "7",
        )
        first = run(*argv)
        second = run(*argv)
        assert first == second
        assert first[0] == 0

    def estimate(self, run_json, write, eps, delta, *cap_options):
        return run_json(
            *cap_options,
            "probability",
            write("i.json", EXAMPLE),
            "--matching",
            write("mu.json", MU1),
            "--method",
            "estimate",
            "--eps",
            eps,
            "--delta",
            delta,
        )

    def test_tiny_delta_has_a_sample_count(self, run_json, write):
        # 2 / float(delta) would divide by zero
        code, doc, _ = self.estimate(run_json, write, "1/2", "1e-400")
        assert code == 0 and doc["payload"]["samples"] == 1844

    def test_sample_count_is_held_to_the_cap(self, run_json, write):
        # 3 samples at eps = delta = 1/2
        code, doc, _ = self.estimate(run_json, write, "1/2", "1/2", "--cap", "3")
        assert code == 0 and doc["payload"]["samples"] == 3
        code, doc, _ = self.estimate(run_json, write, "1/2", "1/2", "--cap", "2")
        assert code == 3 and doc["status"] == "resource-limit"

    def test_tiny_epsilon_is_refused_before_sampling(self, run_json, write):
        # about 10^800 samples at the default cap
        code, doc, _ = self.estimate(run_json, write, "1e-400", "1/2")
        assert code == 3 and doc["status"] == "resource-limit"

    def test_degenerate_epsilon_is_rejected(self, run_json, write):
        code, doc, _ = run_json(
            "probability",
            write("i.json", EXAMPLE),
            "--matching",
            write("mu.json", MU1),
            "--method",
            "estimate",
            "--eps",
            "0",
        )
        assert code == 2 and doc["status"] == "invalid-input"


class TestWorkCap:
    """--cap and STABLEPROB_CAP reach nonzero and both most-stable searches."""

    def nonzero(self, run_json, write, *options):
        return run_json(
            *options,
            "nonzero",
            write("i.json", THREE_ORDERS),
            "--matching",
            write("mu.json", IDENTITY3),
        )

    def test_nonzero_search_counts_its_nodes(self, run_json, write):
        code, doc, _ = self.nonzero(run_json, write, "--cap", "3")
        assert code == 0 and doc["payload"]["nonzero"] is True
        code, doc, _ = self.nonzero(run_json, write, "--cap", "1")
        assert code == 3 and doc["status"] == "resource-limit"

    def test_nonzero_refusal_names_the_cap(self, run_json, write):
        code, doc, _ = self.nonzero(run_json, write, "--cap", "2")
        assert code == 3 and doc["status"] == "resource-limit"
        assert doc["diagnostics"] == [
            "more than 2 search nodes; raise the cap to proceed"
        ]

    @pytest.mark.parametrize("algorithm", ["constant-uncertain", "brute"])
    def test_most_stable_counts_its_candidates(self, run_json, write, algorithm):
        instance = write("i.json", ONE_SIDE)
        code, doc, _ = run_json(
            "--cap", "2", "most-stable", instance, "--algorithm", algorithm
        )
        assert code == 0 and doc["payload"]["examined"] == 2
        code, doc, _ = run_json(
            "--cap", "1", "most-stable", instance, "--algorithm", algorithm
        )
        assert code == 3 and doc["status"] == "resource-limit"

    def test_exists_certain_refusal_names_the_cap(self, run_json, write):
        # a joint model whose one profile has ten stable matchings
        men = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
        women = ((3, 2, 1, 0), (2, 3, 0, 1), (1, 0, 3, 2), (0, 1, 2, 3))
        orders = {f"m{i}": [f"w{j}" for j in row] for i, row in enumerate(men)}
        orders |= {f"w{i}": [f"m{j}" for j in row] for i, row in enumerate(women)}
        joint = {
            "model": "joint",
            "men": ["m0", "m1", "m2", "m3"],
            "women": ["w0", "w1", "w2", "w3"],
            "preferences": {"profiles": [{"p": "1", "orders": orders}]},
        }
        instance = write("i.json", joint)
        code, doc, _ = run_json("--cap", "10", "exists-certain", instance)
        assert code == 0 and doc["payload"]["exists"] is True
        code, doc, _ = run_json("--cap", "3", "exists-certain", instance)
        assert code == 3 and doc["status"] == "resource-limit"
        assert doc["diagnostics"] == [
            "more than 3 stable matchings; raise the cap to proceed"
        ]

    def test_a_cap_below_one_is_invalid_input(self, run_json, write, monkeypatch):
        code, doc, _ = self.nonzero(run_json, write, "--cap", "0")
        assert code == 2 and doc["status"] == "invalid-input"
        assert doc["diagnostics"] == ["the cap must be a positive integer"]
        monkeypatch.setenv("STABLEPROB_CAP", "-3")
        code, doc, _ = self.nonzero(run_json, write)
        assert code == 2 and doc["status"] == "invalid-input"
        assert doc["diagnostics"] == ["the cap must be a positive integer"]

    def test_env_var_reaches_nonzero_and_most_stable(
        self, run_json, write, monkeypatch
    ):
        monkeypatch.setenv("STABLEPROB_CAP", "1")
        code, _, _ = self.nonzero(run_json, write)
        assert code == 3
        code, _, _ = run_json("most-stable", write("i.json", ONE_SIDE))
        assert code == 3
        monkeypatch.setenv("STABLEPROB_CAP", "3")
        code, _, _ = self.nonzero(run_json, write)
        assert code == 0
        code, _, _ = run_json("most-stable", write("i.json", ONE_SIDE))
        assert code == 0


class TestDecisions:
    def test_nonzero_with_witness(self, run_json, write):
        code, doc, _ = run_json(
            "nonzero",
            write("i.json", EXAMPLE),
            "--matching",
            write("mu.json", MU1),
        )
        assert code == 0
        assert doc["payload"]["nonzero"] is True
        orders = doc["payload"]["witness_profile"]["orders"]
        assert set(orders) == {"m1", "m2", "w1", "w2"}

    def test_nonzero_negative(self, run_json, write):
        code, doc, _ = run_json(
            "nonzero",
            write("i.json", CERTAIN_1X1),
            "--matching",
            write("mu.json", {"pairs": []}),
        )
        assert code == 1
        assert doc["status"] == "infeasible"
        assert doc["payload"] == {"nonzero": False}

    def test_one_positive(self, run_json, write):
        code, doc, _ = run_json(
            "one",
            write("i.json", CERTAIN_1X1),
            "--matching",
            write("mu.json", {"pairs": [["m", "w"]]}),
        )
        assert code == 0 and doc["payload"] == {"certain": True}

    def test_one_negative(self, run_json, write):
        code, doc, _ = run_json(
            "one",
            write("i.json", EXAMPLE),
            "--matching",
            write("mu.json", MU1),
        )
        assert code == 1 and doc["payload"] == {"certain": False}


class TestExistsCertain:
    def test_positive_with_matching(self, run_json, write):
        code, doc, _ = run_json("exists-certain", write("i.json", CERTAIN_1X1))
        assert code == 0
        assert doc["payload"]["exists"] is True
        assert doc["payload"]["matching"] == {"pairs": [["m", "w"]]}

    def test_negative_on_tied_block(self, run_json, write):
        tied = {
            "model": "compact",
            "men": ["m1", "m2"],
            "women": ["w1", "w2"],
            "preferences": {
                "m1": {"tiers": [["w1", "w2"]]},
                "m2": {"tiers": [["w1", "w2"]]},
                "w1": {"tiers": [["m1", "m2"]]},
                "w2": {"tiers": [["m1", "m2"]]},
            },
        }
        code, doc, _ = run_json("exists-certain", write("i.json", tied))
        assert code == 1 and doc["payload"] == {"exists": False}


class TestMostStable:
    def test_brute_force_on_example(self, run_json, write):
        code, doc, _ = run_json(
            "most-stable", write("i.json", EXAMPLE), "--algorithm", "brute"
        )
        assert code == 0
        payload = doc["payload"]
        assert payload["matching"] == MU1
        assert payload["probability"] == "13/25"
        assert payload["examined"] == 2
        assert payload["all_candidates_excluded"] is False

    def test_constant_uncertain_matches_brute(self, run_json, write):
        instance = write("i.json", ONE_SIDE)
        code, fast, _ = run_json("most-stable", instance)
        code2, brute, _ = run_json("most-stable", instance, "--algorithm", "brute")
        assert code == 0 and code2 == 0
        assert fast["payload"]["probability"] == brute["payload"]["probability"]
        assert fast["payload"]["algorithm"] == "constant-uncertain"

    def test_constant_uncertain_on_joint_with_certain_women(self, run_json, write):
        orders = {"m2": ["w2", "w1"], "w1": ["m1", "m2"], "w2": ["m2", "m1"]}
        joint = {
            "model": "joint",
            "men": ["m1", "m2"],
            "women": ["w1", "w2"],
            "preferences": {
                "profiles": [
                    {"p": "1/2", "orders": {"m1": ["w1", "w2"], **orders}},
                    {"p": "1/2", "orders": {"m1": ["w2", "w1"], **orders}},
                ]
            },
        }
        instance = write("i.json", joint)
        code, fast, _ = run_json("most-stable", instance)
        code2, brute, _ = run_json("most-stable", instance, "--algorithm", "brute")
        assert code == 0 and code2 == 0
        assert fast["payload"]["matching"] == brute["payload"]["matching"] == MU1
        assert fast["payload"]["probability"] == brute["payload"]["probability"] == "1"

    def test_uncertain_side_assertion_fails_on_example(self, run_json, write):
        instance = write("i.json", EXAMPLE)
        for side in ("men", "women"):
            code, doc, _ = run_json(
                "most-stable", instance, "--uncertain-side", side
            )
            assert code == 2 and doc["status"] == "invalid-input"

    def test_constant_uncertain_rejects_two_sided(self, run_json, write):
        code, doc, _ = run_json("most-stable", write("i.json", EXAMPLE))
        assert code == 2 and doc["status"] == "invalid-input"


class TestGenerate:
    def test_x3c_document_round_trips(self, run_json, write, tmp_path):
        problem = write("p.json", {"universe_size": 3, "triples": [[1, 2, 3]]})
        code, doc, err = run_json("generate", "x3c", problem)
        assert code == 0
        # bare instance document, not an envelope
        assert "status" not in doc
        assert doc["model"] == "lottery"
        assert "designated_matching" in doc
        assert err == ""
        generated = tmp_path / "gen.json"
        generated.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_json("validate", str(generated))
        assert code == 0 and out["status"] == "ok"

    def test_count2sat_probability_through_files(self, run_json, write, tmp_path):
        problem = write(
            "p.json",
            {"num_variables": 1, "clauses": [[[0, True], [0, True]]]},
        )
        code, doc, _ = run_json("generate", "count2sat", problem)
        assert code == 0
        generated = tmp_path / "gen.json"
        generated.write_text(json.dumps(doc), encoding="utf-8")
        # the instance document doubles as the matching file
        code, out, _ = run_json(
            "probability", str(generated), "--matching", str(generated)
        )
        assert code == 0
        assert out["payload"]["probability"] == "1/4"

    def test_3color_feeds_exists_certain(self, run_json, write, tmp_path):
        k4_edges = [[a, b] for a in range(4) for b in range(a + 1, 4)]
        problem = write("p.json", {"vertex_count": 4, "edges": k4_edges})
        code, doc, _ = run_json("generate", "3color", problem)
        assert code == 0 and doc["model"] == "joint"
        assert "designated_matching" not in doc
        generated = tmp_path / "gen.json"
        generated.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_json("exists-certain", str(generated))
        assert code == 1 and out["status"] == "infeasible"

    def test_problem_file_schema_is_enforced(self, run_json, write):
        problem = write("p.json", {"universe": 3, "triples": []})
        code, doc, _ = run_json("generate", "x3c", problem)
        assert code == 2 and doc["status"] == "invalid-input"

    def test_odd_cycle_formula_is_invalid_input(self, run_json, write):
        clauses = [
            [[0, True], [1, True]],
            [[1, True], [2, True]],
            [[2, True], [0, True]],
        ]
        problem = write("p.json", {"num_variables": 3, "clauses": clauses})
        code, doc, _ = run_json("generate", "count2sat", problem)
        assert code == 2 and doc["status"] == "invalid-input"

    @pytest.mark.parametrize(
        "kind, problem",
        [
            ("count2sat", {"num_variables": True, "clauses": []}),
            ("count2sat", {"num_variables": 2, "clauses": [[[True, True], [1, True]]]}),
            ("x3c", {"universe_size": 3, "triples": [[True, 2, 3]]}),
            ("3color", {"vertex_count": 2, "edges": [[0, True]]}),
        ],
    )
    def test_json_true_is_not_an_integer(self, run_json, write, kind, problem):
        code, doc, _ = run_json("generate", kind, write("p.json", problem))
        assert code == 2 and doc["status"] == "invalid-input"

    def test_pretty_output_parses_the_same(self, run, write):
        problem = write("p.json", {"universe_size": 3, "triples": [[1, 2, 3]]})
        _, compact, _ = run("generate", "x3c", problem)
        _, pretty, _ = run("--pretty", "generate", "x3c", problem)
        assert compact != pretty
        assert json.loads(compact) == json.loads(pretty)


class TestComplete:
    def test_pads_to_complete_lists(self, run_json, write, tmp_path):
        ragged = {
            "model": "lottery",
            "men": ["a", "b"],
            "women": ["x"],
            "preferences": {
                "a": [{"order": ["x"], "p": "1"}],
                "b": [{"order": [], "p": "1"}],
                "x": [{"order": ["a"], "p": "1"}],
            },
        }
        code, doc, err = run_json("complete", write("i.json", ragged))
        assert code == 0
        assert "status" not in doc
        assert "added" in err
        instance, _, _ = instance_from_json(doc)
        assert instance.is_complete()
        assert instance.n_men == instance.n_women
        generated = tmp_path / "gen.json"
        generated.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_json("validate", str(generated))
        assert code == 0 and out["status"] == "ok"

    def test_a_taken_padding_name_gains_an_underscore(self, run_json, write):
        # two men and one woman named as the first padded woman would be
        taken = {
            "model": "lottery",
            "men": ["a", "b"],
            "women": ["pw0"],
            "preferences": {
                "a": [{"order": ["pw0"], "p": "1"}],
                "b": [{"order": [], "p": "1"}],
                "pw0": [{"order": ["a"], "p": "1"}],
            },
        }
        code, doc, _ = run_json("complete", write("i.json", taken))
        assert code == 0
        assert doc["men"] == ["a", "b"] and doc["women"] == ["pw0", "_pw0"]

    def test_already_complete_instance_is_unchanged_in_size(self, run_json, write):
        code, doc, err = run_json("complete", write("i.json", EXAMPLE))
        assert code == 0
        assert "added 0 agents" in err
        assert doc["men"] == ["m1", "m2"] and doc["women"] == ["w1", "w2"]


class TestOutputFormat:
    def test_envelope_keys_and_key_order(self, run, write):
        code, out, _ = run("validate", write("i.json", EXAMPLE))
        doc = json.loads(out)
        assert set(doc) == {"status", "payload", "diagnostics"}
        assert out == json.dumps(doc, sort_keys=True) + "\n"

    def test_identical_argv_identical_bytes(self, run, write):
        instance = write("i.json", EXAMPLE)
        matching = write("mu.json", MU1)
        argv = ("probability", instance, "--matching", matching)
        assert run(*argv) == run(*argv)


class TestParserReuse:
    """``main`` and ``run`` share one parser, and no option value carries
    from one call into the next: every call answers byte for byte as it
    does on a fresh ``build_parser()``."""

    @staticmethod
    def outcome(capsys, entry, argv):
        """(exit code, ``run``'s payload and diagnostics, stdout, stderr) of
        ``entry(argv)``."""
        try:
            code, result = entry(list(argv)), None
        except SystemExit as exc:  # --help and argument errors
            code, result = exc.code, None
        if isinstance(code, cli.CommandResult):
            code, result = code.exit_code, (code.payload, code.diagnostics)
        captured = capsys.readouterr()
        return code, result, captured.out, captured.err

    def test_interleaved_calls_answer_as_on_a_fresh_parser(
        self, capsys, monkeypatch, write
    ):
        lottery = write("i.json", EXAMPLE)
        mu = write("mu.json", MU1)
        three = write("three.json", THREE_ORDERS)
        identity = write("identity.json", IDENTITY3)
        one_side = write("one_side.json", ONE_SIDE)
        main, run = cli.main, cli.run
        calls = [  # (entry, STABLEPROB_CAP or None, argv)
            (main, None, ["--pretty", "probability", lottery, "--matching", mu]),
            (run, None, ["probability", lottery, "--matching", mu, "--method",
                         "estimate", "--seed", "3"]),
            (main, None, ["probability", lottery, "--matching", mu]),
            (main, None, ["probability", lottery, "--matching", mu, "--method",
                          "estimate"]),
            (main, None, ["--cap", "1", "nonzero", three, "--matching", identity]),
            (run, None, ["nonzero", three, "--matching", identity]),
            (main, "1", ["nonzero", three, "--matching", identity]),
            (main, "1", ["--cap", "3", "nonzero", three, "--matching", identity]),
            (main, None, ["nonzero", three, "--matching", identity]),
            (main, None, ["most-stable", one_side, "--algorithm", "brute"]),
            (run, None, ["most-stable", one_side, "--uncertain-side", "women"]),
            (main, None, ["most-stable", one_side]),
            (main, None, ["--pretty", "most-stable", one_side,
                          "--uncertain-side", "men"]),
            (run, "1", ["most-stable", one_side]),
            (main, None, ["one", lottery, "--matching", mu]),
            (main, None, ["exists-certain", lottery]),
            (main, None, ["--pretty", "complete", lottery]),
            (main, None, ["validate", lottery]),
            (main, None, ["--help"]),
            (run, None, ["probability", "--help"]),
            (main, None, ["frobnicate", lottery]),
            (run, None, ["--cap", "x", "validate", lottery]),
            (main, None, ["validate", lottery]),
        ]
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        codes = set()
        for entry, cap, argv in calls:
            if cap is None:
                monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(cli.CAP_ENV_VAR, cap)
            shared = self.outcome(capsys, entry, argv)
            with monkeypatch.context() as fresh:
                fresh.setattr(cli, "_parser", cli.build_parser)
                assert self.outcome(capsys, entry, argv) == shared, argv
            codes.add(shared[0])
        # the calls reach every exit code, argparse's own exits included
        assert codes == {0, 1, 2, 3}
