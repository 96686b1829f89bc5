"""Seeded input generators for the benchmark.

Everything here is plain data built from a ``random.Random`` that the caller
seeds from the workload seed, so the same seed gives the same inputs. The
package under test is never called: a spec is turned into library objects
by ``build`` and into instance files by ``instance_document``.

Specs:

- lottery: ``{"model": "lottery", "men": [[(ranking, weight), ...], ...],
  "women": [...], "pairs": [(m, w), ...]}``, weights as ``Fraction``;
- compact: ``{"model": "compact", "men": [tiers, ...], "women": [...],
  "pairs": [...]}``, a tier being a tuple of candidate indices.

Agents on each side are numbered from 0; files name them ``m<i>``/``w<j>``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


WEIGHT_DENOMINATOR = 12


def split_weights(rng: random.Random, k: int) -> list[Fraction]:
    """k positive twelfths that sum to 1, largest first."""
    cuts = sorted(rng.sample(range(1, WEIGHT_DENOMINATOR), k - 1))
    bounds = [0, *cuts, WEIGHT_DENOMINATOR]
    parts = sorted((b - a for a, b in zip(bounds, bounds[1:])), reverse=True)
    return [Fraction(part, WEIGHT_DENOMINATOR) for part in parts]


def adjacent_swaps(rng: random.Random, base: tuple, k: int) -> list[tuple]:
    """base plus k - 1 distinct orders, each one adjacent swap from an earlier one."""
    orders = [tuple(base)]
    k = min(k, math.factorial(len(base)))
    while len(orders) < k:
        order = list(orders[rng.randrange(len(orders))])
        i = rng.randrange(len(order) - 1)
        order[i], order[i + 1] = order[i + 1], order[i]
        if tuple(order) not in orders:
            orders.append(tuple(order))
    return orders


def gale_shapley(men: list[tuple], women: list[tuple]) -> list[tuple[int, int]]:
    """Men-proposing deferred acceptance on strict lists; sorted pairs."""
    rank = [{m: r for r, m in enumerate(order)} for order in women]
    next_choice = [0] * len(men)
    held: dict[int, int] = {}
    free = list(range(len(men)))
    while free:
        m = free.pop()
        while next_choice[m] < len(men[m]):
            w = men[m][next_choice[m]]
            next_choice[m] += 1
            if m not in rank[w]:
                continue
            current = held.get(w)
            if current is None or rank[w][m] < rank[w][current]:
                held[w] = m
                if current is not None:
                    free.append(current)
                break
    return sorted((m, w) for w, m in held.items())


def _lottery_side(rng, lists, counts):
    side = []
    for candidates, k in zip(lists, counts):
        orders = adjacent_swaps(rng, candidates, k) if len(candidates) > 1 else [candidates]
        side.append(list(zip(orders, split_weights(rng, len(orders)))))
    return side


def perturbed_lottery(rng: random.Random, n: int, max_orders: int, min_orders: int = 1) -> dict:
    """n x n complete lottery market: a random base order per agent plus
    adjacent-swap variants, base heaviest; the matching is men-proposing
    stable in the modal (base) profile, so its probability is positive."""
    men_base = [tuple(rng.sample(range(n), n)) for _ in range(n)]
    women_base = [tuple(rng.sample(range(n), n)) for _ in range(n)]
    counts = [rng.randint(min_orders, max_orders) for _ in range(2 * n)]
    return {
        "model": "lottery",
        "men": _lottery_side(rng, men_base, counts[:n]),
        "women": _lottery_side(rng, women_base, counts[n:]),
        "pairs": gale_shapley(men_base, women_base),
    }


def one_side_lottery(rng: random.Random, n: int, uncertain_men: int, max_orders: int = 2) -> dict:
    """Perturbed lottery in which only ``uncertain_men`` men are uncertain."""
    spec = perturbed_lottery(rng, n, max_orders, min_orders=max_orders)
    chosen = set(rng.sample(range(n), uncertain_men))
    spec["men"] = [
        entry if m in chosen else [(entry[0][0], Fraction(1))]
        for m, entry in enumerate(spec["men"])
    ]
    spec["women"] = [[(entry[0][0], Fraction(1))] for entry in spec["women"]]
    return spec


def ladder(rng: random.Random, n: int) -> dict:
    """n - 1 disjoint two-agent constraints under the identity matching.

    Man k may swap woman k + 1 above his partner, woman k + 1 may swap man
    k above hers, each with weight 1/2, and the pair blocks only when both
    do, so the matching is stable with probability (3/4)^(n-1). Labels and
    list tails are shuffled by the seed; the answer does not depend on them.
    """
    man_label = rng.sample(range(n), n)
    woman_label = rng.sample(range(n), n)
    half = Fraction(1, 2)

    def tail(head: tuple) -> tuple:
        rest = [j for j in range(n) if j not in head]
        rng.shuffle(rest)
        return tuple(head) + tuple(rest)

    men = [None] * n
    women = [None] * n
    for k in range(n):
        mine, theirs = woman_label[k], man_label[k]
        if k < n - 1:
            nxt = woman_label[k + 1]
            rest = tail((mine, nxt))[2:]
            men[theirs] = [((mine, nxt) + rest, half), ((nxt, mine) + rest, half)]
        else:
            men[theirs] = [(tail((mine,)), Fraction(1))]
        if k > 0:
            prev = man_label[k - 1]
            rest = tail((theirs, prev))[2:]
            women[mine] = [((theirs, prev) + rest, half), ((prev, theirs) + rest, half)]
        else:
            women[mine] = [(tail((theirs,)), Fraction(1))]
    pairs = sorted((man_label[k], woman_label[k]) for k in range(n))
    return {"model": "lottery", "men": men, "women": women, "pairs": pairs}


def random_tiers(rng: random.Random, candidates: list, max_tie: int) -> tuple:
    perm = rng.sample(candidates, len(candidates))
    tiers = []
    i = 0
    while i < len(perm):
        size = rng.randint(1, min(max_tie, len(perm) - i))
        tiers.append(tuple(sorted(perm[i : i + size])))
        i += size
    return tuple(tiers)


def compact_market(rng: random.Random, n: int, max_tie: int, strict_men: bool = False) -> dict:
    """n x n complete compact market with ties of at most ``max_tie``; the
    matching is men-proposing stable once ties are broken by index."""
    men = [random_tiers(rng, list(range(n)), 1 if strict_men else max_tie) for _ in range(n)]
    women = [random_tiers(rng, list(range(n)), max_tie) for _ in range(n)]
    pairs = gale_shapley(
        [sum(tiers, ()) for tiers in men], [sum(tiers, ()) for tiers in women]
    )
    return {"model": "compact", "men": men, "women": women, "pairs": pairs}


def ragged_lottery(rng: random.Random, n_men: int, n_women: int, max_orders: int) -> dict:
    """Lottery market with unequal sides and incomplete, mutual lists."""
    accept = [[rng.random() < 0.8 for _ in range(n_women)] for _ in range(n_men)]
    men_lists = [tuple(w for w in rng.sample(range(n_women), n_women) if accept[m][w]) for m in range(n_men)]
    women_lists = [tuple(m for m in rng.sample(range(n_men), n_men) if accept[m][w]) for w in range(n_women)]
    counts = [rng.randint(1, max_orders) for _ in range(n_men + n_women)]
    return {
        "model": "lottery",
        "men": _lottery_side(rng, men_lists, counts[:n_men]),
        "women": _lottery_side(rng, women_lists, counts[n_men:]),
        "pairs": gale_shapley(list(men_lists), list(women_lists)),
    }


def tree_formula(rng: random.Random, n: int) -> dict:
    """2-CNF whose clause graph is a random tree: bipartite, one clause per
    variable pair, so the count2sat gadget accepts it unchanged."""
    clauses = []
    for v in range(1, n):
        u = rng.randrange(v)
        clauses.append([[u, rng.random() < 0.5], [v, rng.random() < 0.5]])
    return {"num_variables": n, "clauses": clauses}


def count_models(problem: dict) -> int:
    """Satisfying assignments of a count2sat problem, by truth table."""
    n = problem["num_variables"]
    return sum(
        all(
            (bits >> v1 & 1) == p1 or (bits >> v2 & 1) == p2
            for (v1, p1), (v2, p2) in problem["clauses"]
        )
        for bits in range(1 << n)
    )


def support_product(spec: dict) -> int:
    """Product of per-agent support sizes: the count the default cap bounds."""
    if spec["model"] == "lottery":
        sizes = (len(entry) for entry in spec["men"] + spec["women"])
    else:
        sizes = (
            math.prod(math.factorial(len(tier)) for tier in tiers)
            for tiers in spec["men"] + spec["women"]
        )
    return math.prod(sizes)


# -- turning specs into library objects and files ---------------------------


def build(spec: dict, sp) -> tuple:
    """(Instance, Matching) for a spec; ``sp`` is the ``stableprob`` package."""
    def agent(entry):
        if spec["model"] == "compact":
            return sp.WeakOrder(entry)
        return sp.AgentLottery(tuple((sp.LinearOrder(ranking), w) for ranking, w in entry))

    payload = sp.LotteryModel if spec["model"] == "lottery" else sp.CompactModel
    model = payload(
        men=tuple(agent(e) for e in spec["men"]), women=tuple(agent(e) for e in spec["women"])
    )
    return sp.Instance(model), sp.Matching.from_pairs(spec["pairs"])


def _probability_text(weight: Fraction) -> str:
    return str(weight.numerator) if weight.denominator == 1 else f"{weight.numerator}/{weight.denominator}"


def instance_document(spec: dict) -> dict:
    """The instance file for a spec, in the package's JSON schema."""
    men = [f"m{i}" for i in range(len(spec["men"]))]
    women = [f"w{j}" for j in range(len(spec["women"]))]
    preferences = {}
    for names, other, entries in ((men, women, spec["men"]), (women, men, spec["women"])):
        for name, entry in zip(names, entries):
            if spec["model"] == "lottery":
                preferences[name] = [
                    {"order": [other[i] for i in ranking], "p": _probability_text(w)}
                    for ranking, w in entry
                ]
            else:
                preferences[name] = {"tiers": [[other[i] for i in tier] for tier in entry]}
    return {"model": spec["model"], "men": men, "women": women, "preferences": preferences}


def matching_document(spec: dict) -> dict:
    return {"pairs": [[f"m{m}", f"w{w}"] for m, w in spec["pairs"]]}
