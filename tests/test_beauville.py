"""Beauville search against the literal conjugate-cyclic-subgroup sets.

The oracle here is sigma_brute: the raw element-set union of all
conjugates of the three cyclic subgroups of a pair. Fingerprint
disjointness must coincide with trivial intersection of those sets on
every sampled pair of pairs. Verdicts frozen below were computed by the
exhaustive sweep, whose refutations are definitionally complete.
"""

import importlib
import random
import time
from itertools import combinations
from pathlib import Path

import pytest

from thinville.pcgroup import PcPresentation, random_element
from thinville.beauville import (
    BeauvilleVerdict,
    _bit_blind_tail,
    _class_count_bound,
    _socle_bits,
    abelian_invariants,
    beauville,
    catanese_criterion,
    classify_theorem_a,
    exhaustive_beauville,
    generates,
    guided_beauville,
    line_key,
    omega_negative_test,
    outside_frattini,
    socle_key,
    triple_fingerprint,
    verify_beauville_structure,
)
from thinville.catalog import BUILTIN_IDS, data_entry_paths, resolve
from thinville.structure import (
    BudgetExceededError,
    conjugacy_class,
    conjugacy_class_reps,
    frattini,
    gamma,
    quotient_presentation,
)

from oracles import line_orbit_brute, min_power_label, sigma_brute
from test_pc_core import UnitriangularModel


@pytest.fixture(scope="module")
def h5():
    return PcPresentation(5, 3, commutators={(2, 1): [(3, 1)]})


@pytest.fixture(scope="module")
def h27():
    return PcPresentation(3, 3, commutators={(2, 1): [(3, 1)]})


@pytest.fixture(scope="module")
def m27():
    return PcPresentation(3, 3, powers={1: [(3, 1)]},
                          commutators={(2, 1): [(3, 1)]})


@pytest.fixture(scope="module")
def c9c9():
    return PcPresentation(3, 4, powers={1: [(3, 1)], 2: [(4, 1)]})


@pytest.fixture(scope="module")
def ut43():
    return UnitriangularModel(4, 3).presentation


# ----------------------------------------------------------------------
# fingerprints against the raw sigma sets

@pytest.mark.parametrize("fixture_name", ["h5", "h27", "m27", "c9c9", "ut43"])
def test_fingerprint_matches_sigma_oracle(fixture_name, request):
    # Disjointness of socle fingerprints must track the literal sets for
    # arbitrary nontrivial triples, generating or not.
    pres = request.getfixturevalue(fixture_name)
    rng = random.Random(29)
    checked = 0
    for _ in range(4000):
        if checked == 12:
            break
        x1, y1, x2, y2 = (random_element(pres, rng) for _ in range(4))
        triples = [x1, y1, pres.multiply(x1, y1),
                   x2, y2, pres.multiply(x2, y2)]
        if any(v == pres.identity for v in triples):
            continue
        f1 = triple_fingerprint(pres, x1, y1)
        f2 = triple_fingerprint(pres, x2, y2)
        s1 = sigma_brute(pres, x1, y1)
        s2 = sigma_brute(pres, x2, y2)
        assert f1.isdisjoint(f2) == ((s1 & s2) == {pres.identity})
        checked += 1
    assert checked == 12


def test_sigma_contains_the_triple(h5):
    rng = random.Random(4)
    x, y = random_element(h5, rng), random_element(h5, rng)
    s = sigma_brute(h5, x, y)
    assert x in s and y in s and h5.multiply(x, y) in s
    assert h5.identity in s


def test_socle_key_basics(h5, c9c9):
    assert socle_key(h5, h5.identity) is None
    # order 25 generator: socle is generated by its 5th power
    g = c9c9.gen(1)
    assert socle_key(c9c9, g) == socle_key(c9c9, c9c9.power(g, 3))


def test_generates(h5, c9c9):
    assert generates(h5, h5.gen(1), h5.gen(2))
    assert not generates(h5, h5.gen(1), h5.gen(3))
    assert not generates(h5, h5.gen(1), h5.power(h5.gen(1), 2))
    assert generates(c9c9, c9c9.gen(1), c9c9.gen(2))
    assert not generates(c9c9, c9c9.gen(1), c9c9.gen(4))


# ----------------------------------------------------------------------
# frozen verdicts (exhaustive sweeps recomputed in this suite)

def test_exhaustive_verdicts_small():
    assert exhaustive_beauville(PcPresentation(3, 2)).status == "refuted"
    assert exhaustive_beauville(PcPresentation(5, 2)).status == "found"
    assert exhaustive_beauville(PcPresentation(7, 2)).status == "found"


def test_exhaustive_c9c9_refuted(c9c9):
    assert exhaustive_beauville(c9c9).status == "refuted"


def test_exhaustive_h5_found(h5):
    v = exhaustive_beauville(h5)
    assert v.status == "found"
    cert = v.certificate
    re_cert, detail = verify_beauville_structure(
        h5, cert.first_pair, cert.second_pair)
    assert re_cert is not None
    assert re_cert.first_socles == cert.first_socles


def test_exhaustive_h27_refuted(h27):
    # the smallest Beauville 3-group has order 3^5
    assert exhaustive_beauville(h27).status == "refuted"


def test_exhaustive_rejects_wrong_rank():
    c27 = PcPresentation(3, 3, powers={1: [(2, 1)], 2: [(3, 1)]})
    v = exhaustive_beauville(c27)
    assert v.status == "refuted"
    assert "two-generated" in v.detail
    elab27 = PcPresentation(3, 3)
    assert exhaustive_beauville(elab27).status == "refuted"


def test_verify_rejects_bad_pairs(h5):
    cert, detail = verify_beauville_structure(
        h5, (h5.gen(1), h5.gen(3)), (h5.gen(2), h5.gen(1)))
    assert cert is None
    assert detail == "a pair does not generate"
    cert, detail = verify_beauville_structure(
        h5, (h5.gen(1), h5.gen(2)), (h5.gen(2), h5.gen(1)))
    assert cert is None
    assert detail == "conjugate cyclic subgroups meet"


# ----------------------------------------------------------------------
# criteria

def test_abelian_invariants():
    assert abelian_invariants(PcPresentation(5, 2)) == (1, 1)
    assert abelian_invariants(
        PcPresentation(3, 4, powers={1: [(3, 1)], 2: [(4, 1)]})) == (2, 2)
    assert abelian_invariants(
        PcPresentation(3, 3, powers={1: [(2, 1)], 2: [(3, 1)]})) == (3,)
    assert abelian_invariants(
        PcPresentation(5, 3, powers={1: [(3, 1)]})) == (2, 1)
    with pytest.raises(ValueError):
        abelian_invariants(PcPresentation(5, 3,
                                          commutators={(2, 1): [(3, 1)]}))


def test_catanese_agrees_with_exhaustive():
    for pres in (PcPresentation(3, 2), PcPresentation(5, 2),
                 PcPresentation(7, 2),
                 PcPresentation(3, 4, powers={1: [(3, 1)], 2: [(4, 1)]})):
        assert catanese_criterion(pres).status == \
            exhaustive_beauville(pres).status


def test_omega_negative(m27, h5):
    r = omega_negative_test(m27)
    assert r.applies and r.refuted
    assert r.directions == ((0, 1),)
    # power subgroup of the exponent-5 Heisenberg group is trivial
    assert not omega_negative_test(h5).applies


def test_classification_out_of_scope(h5, m27, ut43):
    assert classify_theorem_a(m27).reason == "prime below five"
    assert classify_theorem_a(h5).reason == "maximal class excluded"
    c25c25 = PcPresentation(5, 4, powers={1: [(3, 1)], 2: [(4, 1)]})
    assert classify_theorem_a(c25c25).reason == "not thin"
    ut55 = UnitriangularModel(5, 5).presentation
    assert classify_theorem_a(ut55).reason == "not metabelian"


# ----------------------------------------------------------------------
# dispatch and budgets

def test_beauville_auto(h5, c9c9):
    assert beauville(h5).method == "exhaustive"
    assert beauville(c9c9).method == "catanese"
    assert beauville(c9c9).status == "refuted"


def test_beauville_budget_inconclusive(h5):
    v = beauville(h5, mode="exhaustive", budget=10)
    assert v.status == "inconclusive"
    assert "budget" in v.detail
    with pytest.raises(BudgetExceededError):
        exhaustive_beauville(h5, budget=10)


def test_exhaustive_budget_gate_fires_before_enumerating():
    # |pool| = 5^8 - 5^6 with at least |pool| / |G'| conjugacy classes:
    # far over the budget, decided before the pool is built
    t0 = time.time()
    pres = resolve("thin5-c5-A4neg").presentation
    v = beauville(pres, mode="exhaustive", budget=10)
    assert v.status == "inconclusive"
    assert "budget is 10" in v.detail
    assert time.time() - t0 < 10


def test_exhaustive_gate_bounds_classes_from_the_quotient():
    # G/gamma_4 has 120 classes outside its Frattini subgroup, so the
    # sweep needs at least 120 * (5^8 - 5^6) pairs: refused up front
    t0 = time.time()
    pres = resolve("thin5-c5-A4neg").presentation
    v = beauville(pres, mode="exhaustive")
    assert v.status == "inconclusive"
    assert v.detail == ("exhaustive search needs at least 45000000 pair "
                        "evaluations, budget is 10000000")
    assert time.time() - t0 < 10


@pytest.mark.parametrize("target", [
    "heisenberg-5", "cpk2-3-2", "sg-3_5-3", "sg-3_6-34", "sg-3_6-40",
    "thin35-n1", "thin36-n2"])
def test_class_count_bound_is_a_lower_bound(target):
    pres = resolve(target).presentation
    exact = len(conjugacy_class_reps(pres, outside_frattini(pres))[0])
    bound = _class_count_bound(pres)
    assert 1 <= bound <= exact
    if gamma(pres, 4).order == 1:
        assert bound == exact


@pytest.mark.parametrize("fixture_name", ["h5", "m27", "c9c9", "ut43"])
def test_socle_key_is_the_socle_of_the_cyclic_subgroup(fixture_name, request):
    pres = request.getfixturevalue(fixture_name)
    rng = random.Random(31)
    assert socle_key(pres, pres.identity) is None
    for _ in range(60):
        a = random_element(pres, rng)
        if a == pres.identity:
            continue
        # the order-p subgroup of <a>, labelled by its least element
        b = pres.power(a, pres.element_order(a) // pres.p)
        want = min(pres.power(b, s) for s in range(1, pres.p))
        assert socle_key(pres, a) == want == line_key(pres, b)


def test_guided_budget_is_inconclusive():
    # the classification's agemo sweep needs 5^2 cosets
    pres = resolve("thin5-c5-A4neg").presentation
    v = beauville(pres, mode="guided", budget=10)
    assert v.status == "inconclusive"
    assert v.method == "guided"
    assert v.detail.endswith("budget is 10")


def test_guided_a4neg_refuted_within_small_budget():
    # every p-th power sweep of the A4neg refutation covers 25 cosets
    pres = resolve("thin5-c5-A4neg").presentation
    v = beauville(pres, mode="guided", budget=1000)
    assert v.status == "refuted"
    assert v.method == "omega"


def test_classification_honours_budget():
    pres = resolve("thin5-c5-A4pos").presentation
    with pytest.raises(BudgetExceededError):
        classify_theorem_a(pres, budget=10)


def test_beauville_unknown_mode(h5):
    with pytest.raises(ValueError):
        beauville(h5, mode="fancy")


def test_guided_without_recipe_is_honest(m27):
    v = guided_beauville(m27)
    assert v.status == "inconclusive"
    assert "no recipe" in v.detail


def test_guided_exhaustion_is_honest(monkeypatch):
    # every candidate fails verification: the search verifies each of
    # the C(6, 3) = 20 direction partitions of p = 5 once, then says so;
    # the package attribute thinville.beauville is the function, so the
    # module comes from importlib
    module = importlib.import_module("thinville.beauville")
    calls = []

    def fail(pres, pair1, pair2, budget=None):
        calls.append((pair1, pair2))
        return None, "stubbed"

    monkeypatch.setattr(module, "verify_beauville_structure", fail)
    v = guided_beauville(resolve("thin5-c5-A3").presentation)
    assert (v.status, v.method) == ("inconclusive", "guided-A3")
    assert v.detail == "recipe candidates exhausted after 20 attempts"
    assert len(calls) == 20


# ----------------------------------------------------------------------
# the sweep against its reference: frozenset fingerprints, one multiply
# per pair, and the pool projected element by element

def reference_exhaustive(pres):
    quotient, project, lift = quotient_presentation(pres, frattini(pres))
    if quotient.n != 2:
        return BeauvilleVerdict("refuted", "exhaustive", None,
                                "the group is not two-generated")
    zero = (0,) * quotient.n
    pool = {v: project(v) for v in pres.elements() if project(v) != zero}
    reps, _ = conjugacy_class_reps(pres, pool)
    # every pool element's socle line, labelled by its least generator
    socle = {v: min_power_label(pres, pres.power(
        v, pres.element_order(v) // pres.p)) for v in pool}
    orbits, seen_triples, fingerprints = {}, set(), {}
    for x in reps:
        for y, py in pool.items():
            if (pool[x][0] * py[1] - pool[x][1] * py[0]) % pres.p == 0:
                continue
            triple = frozenset((socle[x], socle[y],
                                socle[pres.multiply(x, y)]))
            if triple in seen_triples:
                continue
            seen_triples.add(triple)
            for key in triple - orbits.keys():
                orbits[key] = frozenset(
                    line_orbit_brute(pres, key))
            fingerprints.setdefault(
                frozenset().union(*(orbits[k] for k in triple)), (x, y))
    for (f1, p1), (f2, p2) in combinations(fingerprints.items(), 2):
        if f1.isdisjoint(f2):
            cert, _ = verify_beauville_structure(pres, p1, p2)
            return BeauvilleVerdict("found", "exhaustive", cert)
    return BeauvilleVerdict(
        "refuted", "exhaustive", None,
        f"all {len(fingerprints)} fingerprints pairwise intersect")


SWEPT = {
    "c3c3": lambda: PcPresentation(3, 2),
    "c5c5": lambda: PcPresentation(5, 2),
    "c7c7": lambda: PcPresentation(7, 2),
    "c9c9": lambda: PcPresentation(3, 4, powers={1: [(3, 1)], 2: [(4, 1)]}),
    "h5": lambda: PcPresentation(5, 3, commutators={(2, 1): [(3, 1)]}),
    "h27": lambda: PcPresentation(3, 3, commutators={(2, 1): [(3, 1)]}),
    "c27": lambda: PcPresentation(3, 3, powers={1: [(2, 1)], 2: [(3, 1)]}),
    "elab27": lambda: PcPresentation(3, 3),
}
SWEPT.update({
    target: (lambda target=target: resolve(target).presentation)
    for target in list(BUILTIN_IDS) + [
        p.rsplit("/", 1)[-1][:-3] for p in data_entry_paths()
        if p.rsplit("/", 1)[-1].startswith(("sg-3_", "thin3"))]})


@pytest.mark.parametrize("name", sorted(SWEPT))
def test_exhaustive_matches_reference_sweep(name):
    got = exhaustive_beauville(SWEPT[name]())
    want = reference_exhaustive(SWEPT[name]())
    assert (got.status, got.method, got.detail) == \
        (want.status, want.method, want.detail)
    if want.certificate is None:
        assert got.certificate is None
    else:
        assert (got.certificate.first_pair, got.certificate.second_pair) == \
            (want.certificate.first_pair, want.certificate.second_pair)


# ----------------------------------------------------------------------
# what the sweep reads: the one-power line label, class bits, the tail

CATALOG_TARGETS = list(BUILTIN_IDS) + [Path(p).stem
                                       for p in data_entry_paths()]


@pytest.mark.parametrize("target", CATALOG_TARGETS)
def test_line_key_is_the_least_power(target):
    pres = resolve(target).presentation
    rng = random.Random(53)
    checked = 0
    while checked < 12:
        v = random_element(pres, rng)
        if v == pres.identity:
            continue
        assert line_key(pres, v) == min_power_label(pres, v)
        checked += 1


@pytest.mark.parametrize("target", CATALOG_TARGETS)
def test_conjugacy_class_of_a_label_is_its_line_orbit(target):
    # the class search follows plain conjugates; the reference relabels
    # each one by its least power before following it
    pres = resolve(target).presentation
    rng = random.Random(59)
    keys = {socle_key(pres, v) for v in
            (random_element(pres, rng) for _ in range(2))
            if v != pres.identity}
    for key in sorted(keys):
        found = conjugacy_class(pres, key)
        assert found == line_orbit_brute(pres, key)
        assert all(conjugacy_class(pres, w) is found for w in found)


def test_conjugacy_class_budget_gates_a_miss_only():
    pres = PcPresentation(5, 3, commutators={(2, 1): [(3, 1)]})
    v = pres.gen(1)
    # the search is gated on p^(n-1) = 25 elements; a refused search
    # stores nothing, so the next small budget is refused again
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            conjugacy_class(pres, v, budget=1)
    found = conjugacy_class(pres, v, budget=25)
    assert found == {pres.multiply(v, pres.power(pres.gen(3), k))
                     for k in range(5)}
    assert conjugacy_class(pres, pres.conjugate(v, pres.gen(2)),
                           budget=1) is found


def sweep_bits(pres):
    pool = outside_frattini(pres)
    return pool, _socle_bits(pres, pool, *conjugacy_class_reps(pres, pool))


@pytest.mark.parametrize("target, t", [
    ("heisenberg-5", 2), ("thin35-n1", 2), ("sg-3_6-34", 5),
    ("sg-3_5-3", None)])
def test_bit_blind_tail_index(target, t):
    # None: no generator is bit-blind, so y runs over all of G
    pres = resolve(target).presentation
    pool, bits = sweep_bits(pres)
    assert _bit_blind_tail(pres, pool, bits) == (pres.n if t is None else t)


@pytest.mark.parametrize("target", [
    "heisenberg-5", "cpk2-3-2", "thin35-n1", "sg-3_6-34"])
def test_socle_bits_are_constant_on_tail_cosets(target):
    pres = resolve(target).presentation
    pool, bits = sweep_bits(pres)
    t = _bit_blind_tail(pres, pool, bits)
    # each element's conjugacy-closed socle lines, element by element
    orbits, lines = {}, {}
    for v in pool:
        key = min_power_label(pres, pres.power(
            v, pres.element_order(v) // pres.p))
        if key not in orbits:
            orbits[key] = frozenset(
                line_orbit_brute(pres, key))
        lines[v] = orbits[key]
    # the bits name the same partition of the pool as the line sets
    pairs = {(bits[v], lines[v]) for v in pool}
    assert len(pairs) == len(set(bits.values())) == len(set(lines.values()))
    # and y k has the lines of y for every y and every k in K
    K = [k for k in pres.elements() if not any(k[:t])]
    assert len(K) == pres.p ** (pres.n - t)
    for y in pool:
        if not any(y[t:]):
            assert all(lines[pres.multiply(y, k)] == lines[y] for k in K)
