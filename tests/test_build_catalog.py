"""The catalog writer in tools/build_catalog.py against the shipped files.

pc_text serializes a presentation through the collector's public API;
applied to a parsed shipped entry and that file's header lines it must
reproduce the file byte for byte.  The five-group suite must rebuild its
shipped files byte for byte into a fresh directory, and the template
frame reader must give every shipped 3-group entry its recorded
parameter tuple and find that tuple again among its generating pairs.
"""

import importlib.util
from pathlib import Path

import pytest

from thinville.catalog import data_entry_paths
from thinville.pcgroup import parse_presentation

TOOL = Path(__file__).resolve().parent.parent / "tools" / "build_catalog.py"
SHIPPED = {Path(p).name: Path(p) for p in data_entry_paths()}


@pytest.fixture(scope="module")
def build_catalog():
    spec = importlib.util.spec_from_file_location("build_catalog", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_entries_exist():
    assert len(data_entry_paths()) == 19


@pytest.mark.parametrize("path", data_entry_paths(),
                         ids=lambda p: Path(p).stem)
def test_pc_text_round_trip(build_catalog, path):
    text = Path(path).read_text()
    header = [line for line in text.splitlines() if line.startswith("#")]
    assert build_catalog.pc_text(parse_presentation(text), header) == text


def test_five_suite_rebuilds_shipped_files(build_catalog, tmp_path):
    out = tmp_path / "new"
    assert build_catalog.main(["--suite", "p5", "--out", str(out)]) == 0
    written = sorted(path.name for path in out.iterdir())
    assert written == sorted(n for n in SHIPPED if n.startswith("thin5-"))
    assert len(written) == 5
    for name in written:
        assert (out / name).read_bytes() == SHIPPED[name].read_bytes()


# Template tuples of the shipped 3-group entries on their defining pairs:
# rank 5 reads the cubes of x, y, c, d4, d5; rank 6 reads the coupling
# matrix, then the same five cubes.
TEMPLATE_TUPLES = {
    "sg-3_5-3": ((0, 0, 0), (0, 0, 0), (0, 0), (0, 0), (0, 0)),
    "thin35-n1": ((0, 0, 1), (0, 0, 1), (0, 0), (0, 0), (0, 0)),
    "thin35-n2": ((0, 0, 1), (0, 1, 0), (0, 0), (0, 0), (0, 0)),
    "thin35-n3": ((0, 0, 1), (0, 1, 1), (0, 0), (0, 0), (0, 0)),
    "thin35-n4": ((0, 0, 2), (0, 1, 0), (0, 0), (0, 0), (0, 0)),
    "thin35-n5": ((0, 0, 0), (0, 0, 1), (0, 0), (0, 0), (0, 0)),
    "thin35-n6": ((0, 0, 0), (0, 1, 1), (0, 0), (0, 0), (0, 0)),
    "sg-3_6-34": (1, 0, 1, (0, 0, 0), (0, 0, 0), (0, 0, 2), (0, 0, 0),
                  (0, 0, 0)),
    "sg-3_6-37": (0, 1, 0, (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
                  (0, 0, 0)),
    "sg-3_6-40": (0, 0, 1, (0, 1, 2), (2, 0, 0), (0, 0, 2), (0, 0, 0),
                  (0, 0, 0)),
    "thin36-n1": (0, 1, 0, (1, 0, 0), (0, 2, 0), (0, 0, 2), (0, 0, 0),
                  (0, 0, 0)),
    "thin36-n2": (0, 1, 0, (0, 0, 1), (0, 0, 1), (0, 0, 0), (0, 0, 0),
                  (0, 0, 0)),
    "thin36-n3": (0, 1, 0, (1, 0, 0), (0, 2, 1), (0, 0, 2), (0, 0, 0),
                  (0, 0, 0)),
    "thin36-n4": (0, 1, 0, (0, 0, 0), (0, 0, 1), (0, 0, 0), (0, 0, 0),
                  (0, 0, 0)),
}


def test_template_tuples_cover_the_shipped_3_groups():
    assert sorted(f"{entry_id}.pc" for entry_id in TEMPLATE_TUPLES) == sorted(
        n for n in SHIPPED if not n.startswith("thin5-"))


@pytest.mark.parametrize("entry_id", sorted(TEMPLATE_TUPLES))
def test_template_tuple_of_shipped_entry(build_catalog, entry_id):
    pres = parse_presentation(SHIPPED[f"{entry_id}.pc"].read_text())
    t = build_catalog.template_tuple(pres)
    assert t == TEMPLATE_TUPLES[entry_id]
    assert build_catalog.has_pair_with_tuple(pres, t)
