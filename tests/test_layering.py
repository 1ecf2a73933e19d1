"""The collector's public methods are the only way into a presentation.

Every module of the engine other than pcgroup.py, and every script under
tools/, must do its arithmetic through PcPresentation's public methods;
none may read an underscore attribute of a presentation or reach into
its __dict__.
"""

import ast
from pathlib import Path

from thinville.pcgroup import PcPresentation

ROOT = Path(__file__).resolve().parent.parent
GUARDED = sorted(
    [f for f in (ROOT / "src" / "thinville").glob("*.py")
     if f.name != "pcgroup.py"]
    + list((ROOT / "tools").glob("*.py")))


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
