"""Rules the package source keeps, checked on its syntax trees."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "stableprob"
BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_no_module_uses_assert():
    # ``python -O`` strips assert statements, so no check may rest on one
    paths = sorted(SOURCE.rglob("*.py"))
    assert paths, f"no modules under {SOURCE}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_every_import_is_stdlib_or_the_package():
    # the package declares ``dependencies = []``
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # not an import, or a relative one
            found += [
                f"{path.name}:{node.lineno} {module}"
                for module in modules
                if module.partition(".")[0] not in sys.stdlib_module_names
                and module.partition(".")[0] != "stableprob"
            ]
    assert found == []


def _own_nodes(function):
    """The nodes of a function's body, not those of functions inside it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_resource_limits_come_from_a_cap_or_budget_parameter():
    # one work limit per search: a function that refuses work takes the
    # limit from its caller, so no stand-alone limit knob can hide in it
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            raises = any(
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id == "ResourceLimitError"
                for node in _own_nodes(function)
            )
            args = function.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if raises and not names & {"cap", "budget"}:
                found.append(f"{path.name}:{function.lineno} {function.name}")
    assert found == []


def test_only_charge_builds_a_resource_limit_error():
    # every refusal is charged to a core.Budget, so the message and the
    # reading of cap=None are written once
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {}
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), function.name) for node in _own_nodes(function))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                target = node.func
            elif isinstance(node, ast.Raise):
                target = node.exc  # a bare class is constructed when raised
            else:
                continue
            name = getattr(target, "id", None) or getattr(target, "attr", None)
            if name == "ResourceLimitError":
                found.append(f"{path.name} {owner.get(id(node), '<module>')}")
    assert found == ["core.py charge"]


def test_no_function_calls_itself():
    # nothing may depend on Python's recursion limit: deep inputs must not
    # turn into RecursionError, so every search keeps its own stack
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in _own_nodes(function):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                by_name = isinstance(callee, ast.Name) and callee.id == function.name
                by_self = (
                    isinstance(callee, ast.Attribute)
                    and callee.attr == function.name
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "self"
                )
                if by_name or by_self:
                    found.append(f"{path.name}:{node.lineno} {function.name}")
    assert found == []


def test_lottery_picks_and_scales_are_derived_only_in_models():
    # AgentLottery holds each agent's pick tables, numerators and scale, so
    # every query reads the pick rule and the weight scaling written once
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name == "models.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee, args = node.func, node.args
            picks = (
                isinstance(callee, ast.Name)
                and callee.id == "enumerate"
                and args
                and isinstance(args[0], ast.Attribute)
                and args[0].attr == "support"
            )
            lcm = (isinstance(callee, ast.Name) and callee.id == "lcm") or (
                isinstance(callee, ast.Attribute)
                and callee.attr == "lcm"
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "math"
            )
            if picks or lcm:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_core_slices_weak_order_tiers():
    # ``WeakOrder.beats`` is the one rule for the candidates above a partner
    # and the partner's tier-mates, so no other module cuts the tiers itself
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "tiers"
        ]
    assert found == []


def test_only_core_calls_prefers_over_partner():
    # a pair can block only when each member lists the other in its
    # ``beats`` view, so other modules read both views instead of testing
    # one member per pair
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "prefers_over_partner"
        ]
    assert found == []


def test_only_the_pair_walk_pairs_beats_views():
    # a pair very weakly blocks iff each member lists the other in its
    # ``beats`` view, and ``core._pair_masks`` is the one walk that pairs a
    # man's view with a woman's. ``models._views`` builds the views it walks
    # for a market, and ``is_weakly_stable`` for its own ``WeakOrder``
    # lists; ``prefers_over_partner`` reads one view, and
    # ``is_very_weakly_blocking`` one pair's two. ``_lottery_bound``'s
    # ``bound`` pairs views itself, since each node adds only the pairs its
    # own couple makes with the earlier couples of its prefix
    found = set()
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, node in _scoped_nodes(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "beats"
            ):
                found.add(".".join([path.stem] + [s.name for s in scope]))
    assert found == {
        "core.WeakOrder.prefers_over_partner",
        "core.is_weakly_stable",
        "models._views",
        "optimization._lottery_bound.bound",
        "superstability.is_very_weakly_blocking",
    }


def test_most_stable_search_compiles_only_through_its_fallback():
    # a leaf the bound's record can score reads it from there, so the
    # search reaches ``stability_probability`` only through the one score
    # for the leaves the record cannot give; every reference counts
    path = SOURCE / "optimization.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = {
        ".".join(s.name for s in scope) or "<module>"
        for scope, node in _scoped_nodes(tree)
        if getattr(node, "id", getattr(node, "attr", None)) == "stability_probability"
    }
    assert found == {"_most_stable"}


def test_only_the_search_calls_the_lottery_bound():
    # ``_lottery_bound``'s closures keep one record per depth and must be
    # called depth first, which ``_most_stable`` does at every depth. The
    # constant-uncertain search wraps the bound in its own ``bound``, which
    # it hands to ``_most_stable`` too; a second caller would break the
    # order. Every reference to the closures' names counts: a call, or an
    # argument of ``_most_stable``
    path = SOURCE / "optimization.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    closures = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and getattr(getattr(node.value, "func", None), "id", None) == "_lottery_bound"
        for target in ast.walk(node.targets[0])
        if isinstance(target, ast.Name)
    }
    assert closures == {"bound", "exact", "lottery_bound"}
    allowed = set()  # the Name nodes that are a call's callee or hand a closure on
    calls, stray = set(), []
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Call):
            if getattr(node.func, "id", None) in closures:
                calls.add((".".join(s.name for s in scope), node.func.id))
                allowed.add(id(node.func))
            if getattr(node.func, "id", None) == "_most_stable":
                allowed.update(id(arg) for arg in node.args)
    for scope, node in _scoped_nodes(tree):
        where = ".".join(s.name for s in scope)
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in closures
            and id(node) not in allowed
            and where != "_lottery_bound"
        ):
            stray.append(f"{where}:{node.lineno}")
    assert calls == {
        ("_most_stable", "bound"),
        ("_most_stable", "exact"),
        ("most_stable_constant_uncertain.bound", "lottery_bound"),
    }
    assert stray == []


def test_only_models_draws_tie_breaks():
    # the compact tie-break rule lives once, in models.py, so no other
    # module may reach an rng's getrandbits, sample or shuffle, called or
    # bound to a name
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name == "models.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("getrandbits", "sample", "shuffle")
        ]
    assert found == []


def test_every_traced_layer_resolves_in_the_package():
    # the benchmark's traced pass rebinds these attributes by name, so a
    # renamed or removed one would break the pass or drop its span
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TRACED
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _ in layers.TRACED
        if not callable(
            getattr(importlib.import_module(f"stableprob.{module}"), attribute, None)
        )
    ]
    assert missing == []


# Per class with an unchecked ``_trusted`` constructor, the only functions
# that may call it: each builds from agent indices, weights or payloads that
# a public constructor or the JSON layer has already checked, never from a
# caller's own values. Add a function here only when that holds for it.
TRUSTED_BUILDERS = {
    "LinearOrder": {
        "core.py WeakOrder.linear_extensions",
        "jsonio.py instance_from_json",
        "models.py AgentLottery._trusted",
        "models.py _certain_order",
        "models.py complete_instance.complete",
        "models.py sample_profile",
        "probability.py _partner_first_extension",
        "reductions.py _lottery",
        "reductions.py three_color_to_joint.profile",
    },
    "WeakOrder": {
        "jsonio.py instance_from_json",
        "models.py complete_instance.complete",
    },
    "AgentLottery": {
        "jsonio.py instance_from_json.lottery",
        "models.py complete_instance.complete",
    },
    "Instance": {
        "jsonio.py instance_from_json",
        "models.py complete_instance",
    },
}


def _scoped_nodes(tree):
    """(enclosing classes and functions, outermost first, node) for every node."""
    stack = [((), tree)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node,)
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def _is_public_classmethod(node) -> bool:
    return (
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and any(getattr(d, "id", None) == "classmethod" for d in node.decorator_list)
    )


def test_unchecked_orders_are_built_only_by_allowed_functions():
    # every reference counts, called or not, so an alias cannot hide a call;
    # one through anything but the class's own name is filed under None
    defined, found, forbidden = set(), {}, []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, node in _scoped_nodes(tree):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name == "_trusted"
                and scope
                and isinstance(scope[-1], ast.ClassDef)
            ):
                defined.add(scope[-1].name)
            if not (isinstance(node, ast.Attribute) and node.attr == "_trusted"):
                continue
            owner = getattr(node.value, "id", None)
            name = ".".join(s.name for s in scope) or "<module>"
            found.setdefault(owner, set()).add(f"{path.name} {name}")
            if any(
                s.name == "__post_init__" or _is_public_classmethod(s) for s in scope
            ):
                forbidden.append(f"{path.name}:{node.lineno} {name}")
    assert forbidden == []
    assert defined == set(TRUSTED_BUILDERS)
    assert found == TRUSTED_BUILDERS


def test_only_smp_from_instance_builds_an_smp_instance():
    # the instance route runs on the agents' relations, so only the public
    # converter materializes a partial-order market; every reference outside
    # an annotation counts, so passing the class to a builder counts too
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        hints = {
            id(node)
            for owner in ast.walk(tree)
            for field in ("annotation", "returns")
            if getattr(owner, field, None) is not None
            for node in ast.walk(getattr(owner, field))
        }
        for scope, node in _scoped_nodes(tree):
            if not (isinstance(node, ast.Name) and node.id == "SmpInstance"):
                continue
            name = ".".join(s.name for s in scope) or "<module>"
            if id(node) not in hints and name != "smp_from_instance":
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
