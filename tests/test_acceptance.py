"""Acceptance gate: one test per criterion, each with its runtime cap.

Every expected value here is either an exact arithmetic identity, a
verdict recomputed by the engine in its strictest mode, or a structural
fact certified at catalog-build time and re-derived on load.
"""

import random
import time

import pytest

from thinville import (
    agemo,
    catalog_entries,
    catanese_criterion,
    coefficient_closed_form,
    coefficient_integer,
    coincidence_corollary_check,
    collision_bound_check,
    companion_check,
    derived_subgroup,
    exhaustive_beauville,
    find_quadratic_pairs,
    gamma,
    geometric_half_sum,
    is_metabelian,
    is_quadratic_residue,
    is_thin,
    lattice_profile,
    power_congruence_check,
    product_power_identity_check,
    random_element,
    rational_exponent,
    resolve,
    triple_fingerprint,
    verify_place_of_agemo,
)
from thinville.beauville import generates
from thinville.structure import (
    covering_property_check,
    frattini_quotient,
    profile_matches_shape_grammar,
    _projective_points,
)
from thinville.cli import _suite_p3, _suite_p5

from oracles import is_thin_brute, sigma_brute

PRIMES = (3, 5, 7, 11, 13)


def _elapsed_under(t0, cap, label):
    dt = time.time() - t0
    assert dt < cap, f"{label} took {dt:.1f}s, cap {cap}s"
    return dt


def _entries():
    return catalog_entries()


def _metabelian_entries():
    return [e for e in _entries() if is_metabelian(e.presentation)]


def _thin_metabelian_entries():
    return [e for e in _metabelian_entries()
            if is_thin(e.presentation).thin]


def _all_quadratic_certs(pres):
    """Every non-residue certificate over every starting direction."""
    try:
        _, _, lift = frattini_quotient(pres)
        certs = []
        for d in _projective_points(pres.p, 2):
            got = find_quadratic_pairs(pres, x=lift(d), expose_all=True)
            certs.extend(c for c in got
                         if not is_quadratic_residue(pres.p, c.nonresidue))
        return certs
    except ValueError:
        return []


def _random_generating_pair(pres, rng):
    while True:
        x = random_element(pres, rng)
        y = random_element(pres, rng)
        if generates(pres, x, y):
            return x, y


def test_criterion_01_p3_reproduction():
    t0 = time.time()
    lines, ok, inconclusive = _suite_p3(None)
    assert not inconclusive, "\n".join(lines)
    assert ok, "\n".join(lines)
    for entry_id in ("sg-3_5-3", "sg-3_6-34", "sg-3_6-37", "sg-3_6-40"):
        pres = resolve(entry_id).presentation
        verdict = exhaustive_beauville(pres)
        assert verdict.status == "found"
        assert verdict.certificate is not None
    dt = _elapsed_under(t0, 600, "p=3 reproduction")
    print(f"criterion 1 PASS: p=3 catalog reproduced exhaustively "
          f"({dt:.0f}s)")


def test_criterion_02_coefficient_closed_form():
    t0 = time.time()
    checked = 0
    for p in PRIMES:
        for i in range(1, p):
            for j in range(1, p):
                if i + j > p - 1:
                    with pytest.raises(ValueError):
                        coefficient_closed_form(p, i, j)
                    continue
                want = 0 if i + j < p - 1 else (-1) ** i % p
                assert coefficient_closed_form(p, i, j) == want
                assert coefficient_integer(p, i, j) % p == want
                checked += 1
    _elapsed_under(t0, 1, "closed form")
    print(f"criterion 2 PASS: {checked} coefficient identities")


def test_criterion_03_geometric_sum_identity():
    t0 = time.time()
    checked = 0
    for p in (5, 7, 11, 13):
        for h in range(2, p):
            if is_quadratic_residue(p, h):
                continue
            for t in range(1, p):
                den = (1 - h * t * t) % p
                assert den != 0
                assert geometric_half_sum(p, h, t) == \
                    rational_exponent(2, den, p)
                checked += 1
    _elapsed_under(t0, 1, "geometric sum")
    print(f"criterion 3 PASS: {checked} sum identities")


def test_criterion_04_product_power_identity():
    t0 = time.time()
    entries = _metabelian_entries()
    ids = {e.id for e in entries}
    assert "heisenberg-5" in ids
    assert "cpk2-5-2" in ids
    rng = random.Random(20260822)
    for entry in entries:
        pres = entry.presentation
        for _ in range(200):
            x = random_element(pres, rng)
            y = random_element(pres, rng)
            assert product_power_identity_check(pres, x, y), \
                f"{entry.id}: expansion broke at x={x} y={y}"
    dt = _elapsed_under(t0, 120, "power expansion")
    print(f"criterion 4 PASS: 200 pairs on each of {len(entries)} "
          f"groups ({dt:.0f}s)")


def test_criterion_05_power_congruence():
    t0 = time.time()
    groups_checked = certs_checked = 0
    for entry in _entries():
        pres = entry.presentation
        target = gamma(pres, pres.p + 1)
        deep = all(pres.power(b, pres.p) in target
                   for b in derived_subgroup(pres).basis)
        if not deep:
            continue
        certs = _all_quadratic_certs(pres)
        if not certs:
            continue
        groups_checked += 1
        for cert in certs:
            report = power_congruence_check(pres, cert)
            assert report.ok, (
                f"{entry.id}: congruence failed at t={report.failures} "
                f"for h={cert.nonresidue}")
            certs_checked += 1
    assert groups_checked >= 2
    dt = _elapsed_under(t0, 120, "power congruence")
    print(f"criterion 5 PASS: {certs_checked} certificates on "
          f"{groups_checked} groups ({dt:.0f}s)")


def test_criterion_06_collision_and_companions():
    t0 = time.time()
    eligible = [e for e in _entries()
                if gamma(e.presentation, e.presentation.p).order
                >= e.presentation.p ** 2]
    assert eligible
    rng = random.Random(41)
    collision_runs = 0
    for entry in eligible:
        pres = entry.presentation
        for cert in _all_quadratic_certs(pres):
            ok, classes = collision_bound_check(pres, cert)
            assert ok, f"{entry.id}: collision classes {classes}"
            collision_runs += 1
        assert companion_check(pres, rng, samples=100), \
            f"{entry.id}: companion independence failed"
        ok, classes = coincidence_corollary_check(pres)
        assert ok, f"{entry.id}: coincidence classes {classes}"
    assert collision_runs >= 1
    dt = _elapsed_under(t0, 300, "collision bounds")
    print(f"criterion 6 PASS: {len(eligible)} groups, "
          f"{collision_runs} collision certificates ({dt:.0f}s)")


def test_criterion_07_theorem_a_agreement():
    t0 = time.time()
    lines, ok, inconclusive = _suite_p5(None)
    assert not inconclusive, "\n".join(lines)
    assert ok, "\n".join(lines)
    dt = _elapsed_under(t0, 1800, "classification agreement")
    print("criterion 7 PASS: classification matches search on all five "
          f"cases ({dt:.0f}s)")


def test_criterion_08_catanese_cross_check():
    t0 = time.time()
    expected = {
        "elab-3": False,
        "elab-5": True,
        "elab-7": True,
        "cpk2-3-2": False,
        "cpk2-5-2": True,
    }
    for entry_id, want in expected.items():
        pres = resolve(entry_id).presentation
        predicted = catanese_criterion(pres)
        assert (predicted.status == "found") is want, \
            f"{entry_id}: criterion said {predicted.status}"
        verdict = exhaustive_beauville(pres)
        assert (verdict.status == "found") is want, \
            f"{entry_id}: search disagrees with the criterion"
    dt = _elapsed_under(t0, 300, "abelian cross-check")
    print(f"criterion 8 PASS: five abelian groups agree ({dt:.0f}s)")


def test_criterion_09_structural_lemmas():
    t0 = time.time()
    entries = _thin_metabelian_entries()
    assert entries
    place_checked = place_skipped = 0
    for entry in entries:
        pres = entry.presentation
        W = agemo(pres)
        assert W.contains_subgroup(gamma(pres, pres.p)), \
            f"{entry.id}: p-th powers miss the deep term"
        assert covering_property_check(pres), \
            f"{entry.id}: covering property failed"
        assert W.log_order <= 3, f"{entry.id}: power subgroup too large"
        try:
            report = verify_place_of_agemo(pres)
        except ValueError:
            place_skipped += 1        # maximal class sits outside the lemma
        else:
            assert report.all_pass, f"{entry.id}: {report.checks}"
            place_checked += 1
        profile = lattice_profile(pres)
        if profile.ends_with_chain:
            assert W.order != pres.p ** 2, \
                f"{entry.id}: chain ending with a square power subgroup"
        assert profile_matches_shape_grammar(profile, pres.p), \
            f"{entry.id}: profile {profile.tags()} off the grammar"
    assert place_checked >= 5
    dt = _elapsed_under(t0, 600, "structural lemmas")
    print(f"criterion 9 PASS: {len(entries)} thin entries, place lemma "
          f"on {place_checked}, {place_skipped} maximal-class skips "
          f"({dt:.0f}s)")


def test_criterion_10_oracle_equivalences():
    t0 = time.time()
    small = [e for e in _entries() if e.presentation.order <= 3 ** 6]
    ids = {e.id for e in small}
    assert "heisenberg-5" in ids
    rng = random.Random(613)
    pair_checks = 0
    for entry in small:
        pres = entry.presentation
        assert is_thin(pres).thin == is_thin_brute(pres), \
            f"{entry.id}: thin fast path disagrees with enumeration"
        for _ in range(100):
            x1, y1 = _random_generating_pair(pres, rng)
            x2, y2 = _random_generating_pair(pres, rng)
            fast = not (triple_fingerprint(pres, x1, y1)
                        & triple_fingerprint(pres, x2, y2))
            brute = (sigma_brute(pres, x1, y1)
                     & sigma_brute(pres, x2, y2)) == {pres.identity}
            assert fast == brute, \
                f"{entry.id}: fingerprint oracle split on " \
                f"({x1},{y1}) vs ({x2},{y2})"
            pair_checks += 1
    dt = _elapsed_under(t0, 600, "oracle equivalence")
    print(f"criterion 10 PASS: {len(small)} groups, {pair_checks} "
          f"triple-pair comparisons ({dt:.0f}s)")
