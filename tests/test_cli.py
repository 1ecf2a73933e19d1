"""Driver-level checks: output shape, determinism, exit codes."""

import json
import time
from pathlib import Path

import pytest

from thinville import catalog, cli
from thinville.catalog import BUILTIN_IDS, data_entry_paths
from thinville.cli import main
from thinville.structure import DEFAULT_BUDGET

TARGETS = list(BUILTIN_IDS) + [Path(p).stem for p in data_entry_paths()]
NON_THIN = {"cpk2-3-2", "cpk2-5-2", "sg-3_6-40"}


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_analyze_text(capsys):
    rc, out, _ = run(capsys, "analyze", "heisenberg-3", "--exhaustive")
    assert rc == 0
    assert "id: heisenberg-3" in out
    assert "order: 3^3 = 27" in out
    assert "beauville: refuted (exhaustive)" in out


def test_analyze_is_byte_stable(capsys):
    rc1, out1, _ = run(capsys, "analyze", "heisenberg-5", "--exhaustive")
    rc2, out2, _ = run(capsys, "analyze", "heisenberg-5", "--exhaustive")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_analyze_json(capsys):
    rc, out, _ = run(capsys, "analyze", "elab-5", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["order"] == 25
    assert data["beauville_status"] == "found"
    assert data["beauville_method"] == "catanese"


def test_beauville_certificate_output(capsys):
    rc, out, _ = run(capsys, "beauville", "heisenberg-5", "--exhaustive")
    assert rc == 0
    assert "beauville: found (exhaustive)" in out
    assert "first-triple:" in out
    assert "second-orders:" in out


def test_beauville_json_roundtrip(capsys):
    rc, out, _ = run(capsys, "beauville", "heisenberg-5", "--exhaustive",
                     "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["status"] == "found"
    assert data["certificate.first.x.order"] == 5


def test_lattice_text(capsys):
    rc, out, _ = run(capsys, "lattice", "heisenberg-3")
    assert rc == 0
    assert "layer 1: width 2" in out
    assert "ends-with-chain: true" in out


def test_lattice_dot(capsys):
    rc, out, _ = run(capsys, "lattice", "heisenberg-3", "--dot")
    assert rc == 0
    assert out.startswith("digraph lattice {")
    assert 'label="N9@layer1"' in out
    assert out.strip().endswith("}")
    rc2, out2, _ = run(capsys, "lattice", "heisenberg-3", "--dot")
    assert out2 == out


def test_analyze_non_thin_leaves_out_lattice_lines(capsys):
    rc, out, err = run(capsys, "analyze", "cpk2-3-2")
    assert rc == 0, err
    assert "thin: false" in out
    assert "lattice-profile" not in out
    assert "ends-with-chain" not in out
    assert "beauville: refuted (catanese)" in out


def test_analyze_json_non_thin_leaves_out_lattice_keys(capsys):
    rc, out, err = run(capsys, "analyze", "sg-3_6-40", "--guided", "--json")
    assert rc == 0, err
    data = json.loads(out)
    assert data["thin"] is False
    assert "lattice_profile" not in data
    assert "ends_with_chain" not in data


def test_lattice_non_thin_is_usage_error(capsys):
    rc, out, err = run(capsys, "lattice", "cpk2-3-2")
    assert rc == 2
    assert out == ""
    assert err == "error: lattice profile requires a thin group\n"


def test_formulas_pass(capsys):
    rc, out, _ = run(capsys, "formulas", "--p", "11")
    assert rc == 0
    assert "coefficient-closed-form" in out
    assert "status: pass" in out


def test_formulas_json(capsys):
    rc, out, _ = run(capsys, "formulas", "--p", "5", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert all(row["failures"] == 0 for row in data["identities"])


def test_formulas_rejects_composite(capsys):
    rc, _, err = run(capsys, "formulas", "--p", "9")
    assert rc == 2
    assert "odd prime" in err


def _battery_terms(p):
    # (p-1)(p-2)/2 coefficient pairs, each a sum of p-1 binomial products
    return (p - 1) ** 2 * (p - 2) // 2


def test_formulas_default_budget_refuses_p401(capsys, monkeypatch):
    monkeypatch.delenv("THINVILLE_BUDGET", raising=False)
    rc, out, err = run(capsys, "formulas", "--p", "401")
    assert rc == 3
    assert out == ""
    assert err == ("inconclusive: identity battery needs 31920000 "
                   "coefficient terms, budget is 10000000\n")


def test_formulas_default_budget_admits_p271(capsys, monkeypatch):
    # the gate at the default budget, with the battery itself stubbed:
    # 271 is the largest prime it admits, 277 the least it refuses
    monkeypatch.delenv("THINVILLE_BUDGET", raising=False)
    monkeypatch.setattr(cli, "_formula_battery", lambda p: [])
    assert _battery_terms(271) <= DEFAULT_BUDGET < _battery_terms(277)
    assert run(capsys, "formulas", "--p", "271")[0] == 0
    rc, out, err = run(capsys, "formulas", "--p", "277")
    assert (rc, out) == (3, "")
    assert err.startswith("inconclusive: identity battery needs")


def test_formulas_budget_from_the_environment(capsys, monkeypatch):
    # THINVILLE_BUDGET reaches the gate, both sides of the exact count
    monkeypatch.setenv("THINVILLE_BUDGET", str(_battery_terms(11)))
    rc, out, _ = run(capsys, "formulas", "--p", "11")
    assert rc == 0 and "status: pass" in out
    monkeypatch.setenv("THINVILLE_BUDGET", str(_battery_terms(11) - 1))
    rc, out, err = run(capsys, "verify-theorems", "--suite", "formulas",
                       "--p", "11")
    assert (rc, out) == (3, "")
    assert err == (f"inconclusive: identity battery needs "
                   f"{_battery_terms(11)} coefficient terms, budget is "
                   f"{_battery_terms(11) - 1}\n")


def test_verify_formulas_budget_flag_reaches_the_gate(capsys, monkeypatch):
    # --budget, not THINVILLE_BUDGET, decides: the battery is stubbed
    monkeypatch.delenv("THINVILLE_BUDGET", raising=False)
    monkeypatch.setattr(cli, "_formula_battery", lambda p: [])
    rc, out, err = run(capsys, "verify-theorems", "--suite", "formulas",
                       "--p", "7", "--budget", "10")
    assert (rc, out) == (3, "")
    assert err == (f"inconclusive: identity battery needs "
                   f"{_battery_terms(7)} coefficient terms, budget is 10\n")
    rc, out, err = run(capsys, "verify-theorems", "--suite", "formulas",
                       "--p", "401", "--budget", "100000000")
    assert (rc, err) == (0, "")
    assert "status: pass" in out


def test_unknown_target_is_usage_error(capsys):
    rc, _, err = run(capsys, "analyze", "does-not-exist")
    assert rc == 2
    assert "unknown catalog target" in err


def test_bad_file_is_assertion_error(tmp_path, capsys):
    src = tmp_path / "broken.pc"
    src.write_text("# expect: order=999\np 3\nn 2\n")
    rc, _, err = run(capsys, "analyze", str(src))
    assert rc == 1
    assert "order" in err


def test_missing_subcommand_is_usage_error(capsys):
    try:
        rc = main([])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2


@pytest.mark.parametrize("target", TARGETS)
def test_small_budget_contract(capsys, target):
    # every subcommand stops before the expensive work and ends with a
    # verdict or a contract exit code, never a traceback
    for argv in (("analyze", target, "--json"), ("beauville", target),
                 ("lattice", target)):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, *argv, "--budget", "1000")
        took = time.perf_counter() - t0
        allowed = {0, 3}
        if argv[0] == "lattice" and target in NON_THIN:
            allowed = {2}
        assert rc in allowed, (argv, rc, err)
        assert took < 10, (argv, took)


def test_verify_p5_small_budget_is_inconclusive(capsys):
    rc, _, err = run(capsys, "verify-theorems", "--suite", "p5",
                     "--budget", "10")
    assert rc == 3
    assert err.startswith("inconclusive: ")


def test_verify_budget_reaches_catalog_loading(capsys):
    # loading the shipped 3-group entries runs their thinness test,
    # whose covering check tries (3^2 - 1)/2 = 4 directions on a layer
    # of width 2
    rc, _, err = run(capsys, "verify-theorems", "--suite", "p3",
                     "--budget", "3")
    assert rc == 3
    assert err.startswith("inconclusive: thinness covering check needs 4 ")


def test_verify_p3_checks_the_p3_entries_only(capsys, monkeypatch):
    # every shipped file is loaded, but only the suite's prime has its
    # structural expectations recomputed
    checked = []

    def spy(entry, budget=None):
        checked.append(entry.id)
        return real(entry, budget)

    # ingest looks the check up in catalog, the suites in cli
    real = catalog.check_structural_expects
    monkeypatch.setattr(catalog, "check_structural_expects", spy)
    monkeypatch.setattr(cli, "check_structural_expects", spy, raising=False)
    rc, out, _ = run(capsys, "verify-theorems", "--suite", "p3")
    assert rc == 0, out
    assert sorted(checked) == sorted(
        Path(p).stem for p in data_entry_paths()
        if catalog.ingest(p, check=False).presentation.p == 3)


@pytest.mark.parametrize("argv", [
    ("analyze", "thin5-c5-A1", "--guided", "--json"),
    ("analyze", "thin5-c6-A2", "--guided", "--json"),
    ("beauville", "thin5-c5-A4neg", "--guided"),
])
def test_p_th_power_reports_fit_default_budget(capsys, argv):
    # the power subgroup and the order-p scan read a sweep over 25 to
    # 125 cosets, not the whole group or its quotient by a seed closure
    t0 = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    assert time.perf_counter() - t0 < 10


@pytest.mark.parametrize("target, verdict", [
    ("thin5-c5-A4neg", "refuted (omega)"),
    ("thin5-c5-A4pos", "found (guided-A4)"),
])
def test_auto_mode_refuses_the_sweep_before_building_the_pool(
        capsys, target, verdict):
    # the class count bound from G/gamma_4 sends auto mode straight on
    # to the guided search
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "beauville", target)
    assert rc == 0, err
    assert f"beauville: {verdict}\n" in out
    assert time.perf_counter() - t0 < 10


@pytest.mark.parametrize("argv, code", [
    (("analyze", "elab-1009", "--json"), 0),
    # class 2 < p and gamma_2 of exponent p: the power subgroup is read
    # off the generators, not swept over 1009^2 cosets
    (("analyze", "heisenberg-1009", "--json", "--budget", "100000"), 0),
    (("beauville", "heisenberg-1009"), 0),
    # at the default budget too: its p + 1 maximal subgroups are
    # echelonized without closures
    (("analyze", "heisenberg-1009", "--json"), 0),
])
def test_large_prime_builtins_without_traceback(capsys, argv, code):
    rc, out, err = run(capsys, *argv)
    assert rc == code, err
    if argv[0] == "analyze":
        report = json.loads(out)
        assert report["prime"] == 1009
        assert report["power_subgroup_order"] == 1
    else:
        assert out.startswith("id: heisenberg-1009\n")
