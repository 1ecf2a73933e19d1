"""Catalog loading: builtins, ingestion, expectation checks, analyze."""

import pytest

from thinville import (
    BUILTIN_IDS,
    CatalogError,
    analyze,
    builtin,
    catalog_entries,
    check_structural_expects,
    data_entry_paths,
    ingest,
    nilpotency_class,
    report_kv,
    report_lines,
    resolve,
)
from thinville.catalog import CatalogEntry
from thinville.structure import BudgetExceededError


def test_builtin_ids_resolve():
    for entry_id in BUILTIN_IDS:
        entry = resolve(entry_id)
        assert entry.id == entry_id
        assert entry.source == "builtin"
        assert entry.presentation.is_consistent()


def test_builtin_shapes():
    h5 = builtin("heisenberg-5")
    assert h5.order == 125
    assert nilpotency_class(h5) == 2
    assert h5.element_order(h5.gen(1)) == 5

    ea = builtin("elab-7")
    assert ea.order == 49
    assert nilpotency_class(ea) == 1

    tower = builtin("cpk2-5-2")
    assert tower.order == 625
    assert tower.element_order(tower.gen(1)) == 25
    assert nilpotency_class(tower) == 1


def test_builtin_rejects_unknown():
    with pytest.raises(CatalogError):
        builtin("heisenberg-2")
    with pytest.raises(CatalogError):
        builtin("elab-9")


def test_ingest_roundtrip(tmp_path):
    src = tmp_path / "tiny.pc"
    src.write_text(
        "# tiny\n"
        "# provenance: hand-written for the loader test\n"
        "# expect: order=27 class=2 metabelian=true thin=true\n"
        "p 3\n"
        "n 3\n"
        "comm 2 1 = g3\n")
    entry = ingest(str(src))
    assert entry.id == "tiny"
    assert entry.presentation.order == 27
    assert entry.expects["order"] == 27
    assert entry.expects["thin"] is True
    assert "loader test" in entry.provenance


def test_ingest_rejects_expect_mismatch(tmp_path):
    src = tmp_path / "wrong.pc"
    src.write_text(
        "# expect: order=81\n"
        "p 3\n"
        "n 3\n"
        "comm 2 1 = g3\n")
    with pytest.raises(CatalogError, match="order"):
        ingest(str(src))
    entry = ingest(str(src), check=False)
    with pytest.raises(CatalogError):
        check_structural_expects(entry)


def test_ingest_rejects_inconsistent(tmp_path):
    src = tmp_path / "bad.pc"
    src.write_text(
        "p 3\n"
        "n 3\n"
        "pow 1 = g3\n"
        "pow 3 = g3\n"
        "comm 2 1 = g3\n")
    with pytest.raises(CatalogError):
        ingest(str(src))


def test_resolve_file_path(tmp_path):
    src = tmp_path / "pathy.pc"
    src.write_text("p 3\nn 2\n")
    entry = resolve(str(src))
    assert entry.id == "pathy"
    assert entry.presentation.order == 9


def test_resolve_unknown_target():
    with pytest.raises(CatalogError, match="unknown"):
        resolve("no-such-entry")


def test_data_entries_all_load():
    paths = data_entry_paths()
    assert len(paths) >= 6
    entries = catalog_entries()
    ids = {e.id for e in entries}
    for required in ("thin5-c5-A1", "thin5-c6-A2", "thin5-c5-A3",
                     "thin5-c5-A4pos", "thin5-c5-A4neg", "sg-3_5-3"):
        assert required in ids
    for entry in entries:
        assert entry.presentation.is_consistent()


def test_structural_expects_checked_on_load():
    entry = resolve("thin5-c5-A4neg")
    assert entry.expects["beauville"] is False
    assert entry.expects["center_order"] == 5
    check_structural_expects(entry)


def test_analyze_heisenberg_3():
    report = analyze(resolve("heisenberg-3"), mode="exhaustive")
    assert report.order == 27
    assert report.nilpotency_class == 2
    assert report.thin
    assert report.maximal_class
    assert report.case_label is None
    assert report.beauville_status == "refuted"
    lines = report_lines(report)
    assert lines == report_lines(report)
    assert any("refuted" in line for line in lines)
    kv = report_kv(report)
    assert kv["order"] == 27
    assert kv["beauville_status"] == "refuted"


def test_analyze_heisenberg_5_found():
    report = analyze(resolve("heisenberg-5"), mode="exhaustive")
    assert report.beauville_status == "found"
    assert report.certificate is not None
    kv = report_kv(report)
    assert kv["certificate.first.x"]
    assert kv["certificate.first.fingerprint_size"] >= 1
    cert = report.certificate
    assert not (cert.first_socles & cert.second_socles)


def test_analyze_catanese_square():
    report = analyze(resolve("elab-5"))
    assert report.beauville_status == "found"
    assert report.beauville_method == "catanese"


def test_entry_without_presentation_fields():
    entry = CatalogEntry(id="adhoc", source="builtin", provenance="",
                         expects={}, presentation=builtin("elab-3"))
    report = analyze(entry, mode="exhaustive")
    assert report.beauville_status == "refuted"


def test_resolve_passes_the_budget_to_load_time_checks():
    # the thinness check of the expectations tries the 6 directions of
    # each layer of width 2
    with pytest.raises(BudgetExceededError, match="needs 6 directions"):
        resolve("thin5-c6-A2", budget=5)
    assert resolve("thin5-c6-A2", budget=6).expects["thin"]
