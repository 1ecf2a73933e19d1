"""Layering rules, checked on the source.

The collector's public methods are the only way into a presentation:
every module of the engine other than pcgroup.py, and every script under
tools/, must do its arithmetic through PcPresentation's public methods;
none may read an underscore attribute of a presentation or reach into
its __dict__.

Invariants are memoized in one place: outside structure._memo and the
one keyed cache of structure.conjugacy_class, no function of the engine
touches pres.cache.

Verdicts are deterministic: no module of the engine imports random, so
randomness enters only through an rng argument.

The budget is one contract: only structure.check_budget resolves a
budget and raises BudgetExceededError, only beauville.beauville turns
it into a verdict, and only cli.main turns what escapes into an exit
code.
"""

import ast
from pathlib import Path

from thinville.pcgroup import PcPresentation

ROOT = Path(__file__).resolve().parent.parent
ENGINE = sorted(list((ROOT / "src" / "thinville").glob("*.py"))
                + list((ROOT / "tools").glob("*.py")))
GUARDED = [f for f in ENGINE if f.name != "pcgroup.py"]


def _private_presentation_names():
    names = set(vars(PcPresentation)) | set(vars(PcPresentation(3, 2)))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_guarded_files_exist():
    assert any(f.name == "structure.py" for f in GUARDED)
    assert any(f.name == "build_catalog.py" for f in GUARDED)


def test_no_private_reach_ins():
    private = _private_presentation_names()
    assert {"_fold", "_power", "_powvec", "_comvec"} <= private
    hits = []
    for path in GUARDED:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (
                    node.attr in private or node.attr == "__dict__"):
                hits.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                            f".{node.attr}")
    assert not hits, "private collector access:\n" + "\n".join(hits)


def _in_functions(tree):
    """(node, name of the innermost enclosing function) for every node."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            yield child, inner
            yield from walk(child, inner)
    return walk(tree, None)


def _names(node):
    if node is None:
        return set()
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | \
        {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_one_budget_contract():
    gate = ("structure.py", "check_budget")
    verdict_points = {("beauville.py", "beauville"), ("cli.py", "main")}
    hits = []
    for path in ENGINE:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, owner in _in_functions(tree):
            where = (path.name, owner)
            if isinstance(node, ast.Raise) and \
                    "BudgetExceededError" in _names(node.exc) and \
                    where != gate:
                kind = "raise"
            elif isinstance(node, ast.ExceptHandler) and \
                    "BudgetExceededError" in _names(node.type) and \
                    where not in verdict_points:
                kind = "except"
            elif isinstance(node, ast.Call) and \
                    "get_budget" in _names(node.func) and where != gate:
                kind = "get_budget call"
            else:
                continue
            hits.append(f"{path.relative_to(ROOT)}:{node.lineno}: {kind} "
                        f"in {owner or 'module level'}")
    assert not hits, "budget handled outside the contract:\n" + \
        "\n".join(hits)


def test_one_memo():
    owners = {("structure.py", "_memo"),
              ("structure.py", "conjugacy_class"),
              ("pcgroup.py", "__init__")}
    files = sorted((ROOT / "src" / "thinville").glob("*.py"))
    assert {"structure.py", "pcgroup.py"} <= {f.name for f in files}
    hits = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node, owner in _in_functions(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and (path.name, owner) in owners:
                allowed.update(id(n) for n in ast.walk(node))
        for node, owner in _in_functions(tree):
            if isinstance(node, ast.Attribute) and node.attr == "cache" \
                    and id(node) not in allowed:
                hits.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                            f".cache in {owner or 'module level'}")
    assert not hits, "cache handled outside _memo:\n" + "\n".join(hits)


def test_no_engine_randomness():
    files = sorted((ROOT / "src" / "thinville").glob("*.py"))
    assert "beauville.py" in {f.name for f in files}
    hits = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] == "random" for n in names):
                hits.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not hits, "engine imports random:\n" + "\n".join(hits)
