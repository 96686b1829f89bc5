"""Seeded JSON-mutation fuzz over every CLI command.

Small valid lottery, compact and joint documents (with matchings) and the
three generator problems are mutated a few steps at a time; whatever the files
hold, ``main`` must return an exit code in 0-3 and never raise.
"""

import contextlib
import io
import json
import random

from helpers import mutate_document
from stableprob.cli import main

LOTTERY = {
    "model": "lottery",
    "men": ["m0", "m1"],
    "women": ["w0", "w1"],
    "preferences": {
        "m0": [{"order": ["w0", "w1"], "p": "2/5"}, {"order": ["w1", "w0"], "p": "3/5"}],
        "m1": [{"order": ["w1", "w0"], "p": "1"}],
        "w0": [{"order": ["m0", "m1"], "p": "1"}],
        "w1": [{"order": ["m0", "m1"], "p": "4/5"}, {"order": ["m1", "m0"], "p": "1/5"}],
    },
    "designated_matching": {"pairs": [["m0", "w0"], ["m1", "w1"]]},
}
COMPACT = {
    "model": "compact",
    "men": ["m0", "m1", "m2"],
    "women": ["w0", "w1", "w2"],
    "preferences": {
        "m0": {"tiers": [["w0", "w1"], ["w2"]]},
        "m1": {"tiers": [["w1"], ["w0", "w2"]]},
        "m2": {"tiers": [["w2"], ["w0"]]},
        "w0": {"tiers": [["m0"], ["m1", "m2"]]},
        "w1": {"tiers": [["m1", "m0"]]},
        "w2": {"tiers": [["m2"], ["m1"], ["m0"]]},
    },
    "designated_matching": {"pairs": [["m0", "w0"], ["m1", "w1"], ["m2", "w2"]]},
}
JOINT = {
    "model": "joint",
    "men": ["m0", "m1"],
    "women": ["w0", "w1"],
    "preferences": {
        "profiles": [
            {
                "p": "1/2",
                "orders": {"m0": ["w0", "w1"], "m1": ["w1", "w0"], "w0": ["m0", "m1"], "w1": ["m1", "m0"]},
            },
            {
                "p": "1/2",
                "orders": {"m0": ["w1", "w0"], "m1": ["w1", "w0"], "w0": ["m1", "m0"], "w1": ["m0", "m1"]},
            },
        ],
    },
    "designated_matching": {"pairs": [["m0", "w0"], ["m1", "w1"]]},
}
PROBLEMS = {
    "count2sat": {"num_variables": 3, "clauses": [[[0, True], [1, False]], [[1, True], [2, True]]]},
    "x3c": {"universe_size": 6, "triples": [[1, 2, 3], [4, 5, 6], [2, 3, 4]]},
    "3color": {"vertex_count": 3, "edges": [[0, 1], [1, 2]]},
}

# (argv before the instance path, whether a --matching file follows it)
COMMANDS = [
    (["validate"], False),
    (["probability"], True),
    (["probability", "--method", "estimate", "--eps", "0.25", "--delta", "0.25"], True),
    (["nonzero"], True),
    (["one"], True),
    (["exists-certain"], False),
    (["most-stable"], False),
    (["most-stable", "--algorithm", "brute"], False),
    (["complete"], False),
]
MUTATIONS = 1500


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def test_mutated_documents_never_escape_main(tmp_path):
    rng = random.Random(20240607)
    instance_path = str(tmp_path / "instance.json")
    matching_path = str(tmp_path / "matching.json")
    seen = set()
    for i in range(MUTATIONS):
        base = (LOTTERY, COMPACT, JOINT)[i % 3]
        matching = base["designated_matching"]
        if i % 10 == 9:
            kind = rng.choice(sorted(PROBLEMS))
            argv = ["generate", kind, instance_path]
            instance = mutate_document(rng, PROBLEMS[kind])
        else:
            head, needs_matching = COMMANDS[rng.randrange(len(COMMANDS))]
            argv = head + [instance_path]
            if needs_matching:
                argv += ["--matching", matching_path]
            instance = base
            if needs_matching and rng.random() < 0.5:
                matching = mutate_document(rng, matching)
            else:
                instance = mutate_document(rng, base)
        for path, document in ((instance_path, instance), (matching_path, matching)):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
        code = _run(argv)
        assert code in (0, 1, 2, 3), (argv, instance, matching)
        seen.add(code)
    # the fuzz must reach both answers and rejections
    assert {0, 2} <= seen
