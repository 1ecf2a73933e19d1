"""The catalog writer in tools/build_catalog.py against the shipped files.

pc_text serializes a presentation through the collector's public API;
applied to a parsed shipped entry and that file's header lines it must
reproduce the file byte for byte.
"""

import importlib.util
from pathlib import Path

import pytest

from thinville.catalog import data_entry_paths
from thinville.pcgroup import parse_presentation

TOOL = Path(__file__).resolve().parent.parent / "tools" / "build_catalog.py"


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
