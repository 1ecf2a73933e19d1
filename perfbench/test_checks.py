"""Tests of the benchmark's own checks, tally and tracer.

    python3 -m pytest perfbench/test_checks.py -q

Each check is fed a wrong answer and must make the run count the
operation as failed.
"""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import thinville  # noqa: E402
from tracing import Tracer  # noqa: E402

EXHAUSTIVE = run.WORKLOADS["p3-census"]
GUIDED = run.WORKLOADS["p5-analyze"]


def _round(entries, results):
    return run.Round(entries, results, [0.0] * len(entries), 0.0, 0.0)


def _tally(workload, entries, results):
    return run.tally(checks, workload, [_round(entries, results)])


@pytest.fixture(scope="module")
def heisenberg5():
    entry = thinville.resolve("heisenberg-5")
    return entry, thinville.beauville(entry.presentation, mode="exhaustive")


@pytest.fixture(scope="module")
def a3():
    entry = thinville.resolve("thin5-c5-A3")
    return entry, thinville.analyze(entry, mode="guided")


def test_true_verdicts_pass(heisenberg5, a3):
    assert _tally(EXHAUSTIVE, [heisenberg5[0]], [heisenberg5[1]])[:3] == \
        (1, 0, 0)
    assert _tally(GUIDED, [a3[0]], [a3[1]])[:3] == (1, 0, 0)


@pytest.mark.parametrize("entry_id", ["heisenberg-3", "elab-5", "cpk2-3-2",
                                      "sg-3_5-3", "thin35-n1"])
def test_flipped_verdict_fails(entry_id):
    entry = thinville.resolve(entry_id)
    true = thinville.beauville(entry.presentation, mode="exhaustive")
    assert _tally(EXHAUSTIVE, [entry], [true])[1] == 0
    flipped = dataclasses.replace(
        true, status="refuted" if true.status == "found" else "found")
    attempted, failed, wrong, notes = _tally(EXHAUSTIVE, [entry], [flipped])
    assert (attempted, failed, wrong) == (1, 1, 1)
    assert "required" in notes[0]


def test_flipped_report_fails(a3):
    entry, report = a3
    flipped = dataclasses.replace(report, beauville_status="refuted")
    assert _tally(GUIDED, [entry], [flipped])[1:3] == (1, 1)


def test_wrong_case_label_fails(a3):
    entry, report = a3
    wrong_case = dataclasses.replace(report, case_label="A1")
    attempted, failed, wrong, notes = _tally(GUIDED, [entry], [wrong_case])
    assert (failed, wrong) == (1, 1)
    assert "provenance says A3" in notes[0]


def _with_pairs(verdict, pair1, pair2):
    cert = dataclasses.replace(verdict.certificate, first_pair=pair1,
                               second_pair=pair2)
    return dataclasses.replace(verdict, certificate=cert)


def test_meeting_pairs_fail(heisenberg5):
    entry, verdict = heisenberg5
    pres = entry.presentation
    x, y = verdict.certificate.first_pair
    g = pres.gen(2)
    conjugated = (pres.conjugate(x, g), pres.conjugate(y, g))
    for second in [(x, y), conjugated]:
        bad = _with_pairs(verdict, (x, y), second)
        attempted, failed, wrong, notes = _tally(EXHAUSTIVE, [entry], [bad])
        assert (failed, wrong) == (1, 1)
        assert "meet" in notes[0]


def test_non_generating_pair_fails(heisenberg5):
    entry, verdict = heisenberg5
    x, y = verdict.certificate.first_pair
    bad = _with_pairs(verdict, (x, y), (x, x))
    notes = _tally(EXHAUSTIVE, [entry], [bad])[3]
    assert "does not generate" in notes[0]


def test_exception_counts_failed_not_wrong(heisenberg5):
    entry, _ = heisenberg5
    assert _tally(EXHAUSTIVE, [entry], [ValueError("boom")])[:3] == (1, 1, 0)


def test_lines_conjugate_matches_brute_force():
    pres = thinville.resolve("sg-3_5-3").presentation
    order_p = [v for v in pres.elements()
               if v != pres.identity
               and pres.power(v, pres.p) == pres.identity]
    group = list(pres.elements())
    s = order_p[len(order_p) // 2]
    lines_of_s = {pres.power(s, k) for k in range(1, pres.p)}
    conj = {pres.conjugate(u, g) for u in lines_of_s for g in group}
    for t in order_p[::7]:
        assert checks.lines_conjugate(pres, s, t) == (t in conj)


def test_tracer_counts_and_restores(heisenberg5):
    # the package's `beauville` attribute is the function, not the module
    bmod = sys.modules["thinville.beauville"]
    original = bmod.socle_key
    tracer = Tracer()
    tracer.install()
    try:
        pres = thinville.resolve("heisenberg-5").presentation
        thinville.beauville(pres, mode="exhaustive")
    finally:
        tracer.uninstall()
    assert bmod.socle_key is original
    assert thinville.beauville is bmod.beauville
    sock = tracer.ids_of("beauville.socle_key")
    assert sum(1 for nid in tracer.name if nid in sock) > 0
    dur, self_s = tracer.self_times()
    assert all(s >= -1e-9 for s in self_s)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_catanese_shape_is_recomputed():
    # C_25 x C_5 is abelian but not a square of a cyclic group
    pres = thinville.PcPresentation(5, 3, powers={1: [(3, 1)]})
    entry = thinville.CatalogEntry("c25xc5", "builtin", "test", {}, pres)
    found = checks.Outcome("found")
    assert checks.required_beauville(entry, found) == (False, [])
    square = thinville.resolve("cpk2-3-2")
    assert checks.required_beauville(square, found) == (False, [])
    assert checks.required_beauville(thinville.resolve("elab-7"), found) == \
        (True, [])
