"""Subgroup and series machinery against brute-force oracles.

The oracles enumerate raw element sets: spans by breadth-first closure,
normal closures via full conjugation orbits, centers by testing every
element. Echelon results must match them exactly.
"""

import itertools
import random
from pathlib import Path

import pytest

from thinville.beauville import omega_negative_test
from thinville.catalog import BUILTIN_IDS, builtin, data_entry_paths, resolve
from thinville.pcgroup import PcPresentation
from thinville.structure import (
    BudgetExceededError,
    Subgroup,
    _coset_sweep,
    _covering_holds_on_layer,
    _left_nullspace,
    _projective_points,
    agemo,
    canonical_coset_rep,
    center,
    covering_property_check,
    derived_subgroup,
    exponent,
    exponent_p_maximal_count,
    frattini,
    frattini_quotient,
    gamma,
    generated_subgroup,
    get_budget,
    is_abelian_subgroup,
    is_maximal_class,
    is_metabelian,
    is_normal,
    is_thin,
    lattice_nodes,
    lattice_profile,
    lower_central_series,
    maximal_has_exponent_p,
    maximal_subgroups,
    nilpotency_class,
    normal_closure,
    omega1,
    profile_matches_shape_grammar,
    quotient_presentation,
    subgroup_join,
    trivial_subgroup,
    upper_central_series,
    verify_place_of_agemo,
    whole_group,
)

from oracles import (
    agemo_brute,
    is_thin_brute,
    normal_subgroups,
    upper_central_series_brute,
)
from test_pc_core import UnitriangularModel

CATALOG_TARGETS = list(BUILTIN_IDS) + [Path(p).stem
                                       for p in data_entry_paths()]


# ----------------------------------------------------------------------
# fixtures

@pytest.fixture(scope="module")
def h5():
    return PcPresentation(5, 3, commutators={(2, 1): [(3, 1)]})


@pytest.fixture(scope="module")
def h27():
    return PcPresentation(3, 3, commutators={(2, 1): [(3, 1)]})


@pytest.fixture(scope="module")
def m27():
    # order 27 with an element of order 9
    return PcPresentation(3, 3, powers={1: [(3, 1)]},
                          commutators={(2, 1): [(3, 1)]})


@pytest.fixture(scope="module")
def c25c25():
    return PcPresentation(5, 4, powers={1: [(3, 1)], 2: [(4, 1)]})


@pytest.fixture(scope="module")
def c5c5():
    return PcPresentation(5, 2)


@pytest.fixture(scope="module")
def ut43():
    return UnitriangularModel(4, 3).presentation


@pytest.fixture(scope="module")
def ut53():
    return UnitriangularModel(5, 3).presentation


# ----------------------------------------------------------------------
# oracles

def brute_span(pres, gens):
    seen = {pres.identity}
    frontier = [pres.identity]
    gens = list(gens)
    while frontier:
        grown = []
        for v in frontier:
            for g in gens:
                w = pres.multiply(v, g)
                if w not in seen:
                    seen.add(w)
                    grown.append(w)
        frontier = grown
    return seen


def brute_normal_closure(pres, gens):
    orbit = set(gens)
    frontier = list(gens)
    while frontier:
        grown = []
        for v in frontier:
            for k in range(1, pres.n + 1):
                w = pres.conjugate(v, pres.gen(k))
                if w not in orbit:
                    orbit.add(w)
                    grown.append(w)
        frontier = grown
    return brute_span(pres, orbit)


def brute_exponent(pres, sub):
    return max(pres.element_order(v) for v in sub.elements())


def brute_center(pres):
    gens = [pres.gen(k) for k in range(1, pres.n + 1)]
    return {v for v in pres.elements()
            if all(pres.commutator(v, g) == pres.identity for g in gens)}


# ----------------------------------------------------------------------
# spans and membership

def test_generated_matches_brute_h5(h5):
    rng = random.Random(11)
    for _ in range(8):
        gens = [tuple(rng.randrange(5) for _ in range(3))
                for _ in range(rng.randrange(1, 3))]
        sub = generated_subgroup(h5, gens)
        want = brute_span(h5, gens)
        assert sub.order == len(want)
        assert set(sub.elements()) == want


def test_generated_matches_brute_ut43(ut43):
    rng = random.Random(23)
    for _ in range(5):
        gens = [tuple(rng.randrange(3) for _ in range(6)) for _ in range(2)]
        sub = generated_subgroup(ut43, gens)
        want = brute_span(ut43, gens)
        assert sub.order == len(want)
        assert set(sub.elements()) == want
        for v in want:
            assert v in sub
        assert all(b in sub for b in sub.basis)


def test_membership_rejects_outsiders(h5):
    sub = generated_subgroup(h5, [h5.gen(3)])
    assert h5.gen(3) in sub
    assert h5.gen(1) not in sub
    assert h5.gen(2) not in sub


def test_normal_closure_matches_brute(h5, ut43):
    assert set(normal_closure(h5, [h5.gen(1)]).elements()) \
        == brute_normal_closure(h5, [h5.gen(1)])
    rng = random.Random(5)
    for _ in range(4):
        g = tuple(rng.randrange(3) for _ in range(6))
        sub = normal_closure(ut43, [g])
        assert set(sub.elements()) == brute_normal_closure(ut43, [g])
        assert is_normal(ut43, sub)


def test_frozen_h5_subgroups(h5):
    assert generated_subgroup(h5, [h5.gen(1), h5.gen(2)]).order == 125
    assert generated_subgroup(h5, [h5.gen(3)]).order == 5
    closure = normal_closure(h5, [h5.gen(1)])
    assert closure.order == 25
    assert closure.leads == (1, 3)


def test_canonical_basis_is_presentation_independent(h5):
    # the same subgroup from different generating sets
    a = generated_subgroup(h5, [h5.gen(1), h5.gen(3)])
    b = normal_closure(h5, [h5.gen(1)])
    assert a == b and a.basis == b.basis
    j = subgroup_join(h5, generated_subgroup(h5, [h5.gen(1)]),
                      generated_subgroup(h5, [h5.gen(2)]))
    assert j == whole_group(h5)


def test_elements_iteration_counts(ut43):
    sub = generated_subgroup(ut43, [ut43.gen(1), ut43.gen(2)])
    seen = list(sub.elements())
    assert len(seen) == sub.order
    assert len(set(seen)) == sub.order


def test_coset_reps_partition(h5, ut43):
    # a normal subgroup, and one that is not normal
    cases = [(h5, normal_closure(h5, [h5.gen(3)])),
             (ut43, generated_subgroup(ut43, [ut43.gen(1), ut43.gen(4)]))]
    assert not is_normal(*cases[1])
    for pres, sub in cases:
        reps = {canonical_coset_rep(pres, sub, v) for v in pres.elements()}
        assert len(reps) == pres.order // sub.order
        for r in reps:
            assert all(r[l - 1] == 0 for l in sub.leads)
        for v in pres.elements():
            r = canonical_coset_rep(pres, sub, v)
            assert pres.multiply(pres.inverse(v), r) in sub


# ----------------------------------------------------------------------
# series

def test_series_h5(h5):
    series = lower_central_series(h5)
    assert [t.order for t in series.terms] == [125, 5, 1]
    assert series.widths == [2, 1]
    assert nilpotency_class(h5) == 2
    assert derived_subgroup(h5) == generated_subgroup(h5, [h5.gen(3)])
    rising = upper_central_series(h5)
    assert [t.order for t in rising.terms] == [1, 5, 125]
    # lower and upper central series coincide here
    assert [t.basis for t in rising.terms] \
        == [t.basis for t in reversed(series.terms)]


def test_series_ut43(ut43):
    series = lower_central_series(ut43)
    assert [t.order for t in series.terms] == [729, 27, 3, 1]
    assert series.widths == [3, 2, 1]
    assert nilpotency_class(ut43) == 3
    rising = upper_central_series(ut43)
    assert [t.order for t in rising.terms] == [1, 3, 27, 729]


@pytest.mark.parametrize("name", ["h5", "m27", "ut43", "sg-3_5-3",
                                  "sg-3_6-40"])
def test_upper_central_series_matches_brute(request, name):
    pres = _group(request, name)
    terms = upper_central_series(pres).terms
    assert [set(t.elements()) for t in terms] \
        == upper_central_series_brute(pres)
    assert terms[1] == center(pres)


def test_series_abelian(c25c25):
    assert nilpotency_class(c25c25) == 1
    assert derived_subgroup(c25c25).order == 1


def test_gamma_clips(h5):
    assert gamma(h5, 2).order == 5
    assert gamma(h5, 3).order == 1
    assert gamma(h5, 9).order == 1
    with pytest.raises(ValueError):
        gamma(h5, 0)


def test_center_matches_brute(h5, m27, ut43):
    for pres in (h5, m27, ut43):
        assert set(center(pres).elements()) == brute_center(pres)


def test_center_frozen(h5, ut43):
    assert center(h5) == generated_subgroup(h5, [h5.gen(3)])
    assert center(ut43).order == 3


# ----------------------------------------------------------------------
# quotient presentations

def test_quotient_of_h5_by_center(h5):
    quotient, project, lift = quotient_presentation(h5, center(h5))
    assert quotient.order == 25
    assert quotient.is_consistent()
    rng = random.Random(3)
    for _ in range(40):
        a = tuple(rng.randrange(5) for _ in range(3))
        b = tuple(rng.randrange(5) for _ in range(3))
        assert project(h5.multiply(a, b)) \
            == quotient.multiply(project(a), project(b))
    # lift is a section
    for _ in range(10):
        q = tuple(rng.randrange(5) for _ in range(2))
        assert project(lift(q)) == q


def test_quotient_requires_normal(h5):
    sub = generated_subgroup(h5, [h5.gen(1)])
    assert not is_normal(h5, sub)
    with pytest.raises(ValueError):
        quotient_presentation(h5, sub)


def test_quotient_of_ut43(ut43):
    quotient, project, lift = quotient_presentation(ut43, gamma(ut43, 3))
    assert quotient.order == 729 // 3
    assert nilpotency_class(quotient) == 2
    rng = random.Random(7)
    for _ in range(30):
        a = tuple(rng.randrange(3) for _ in range(6))
        b = tuple(rng.randrange(3) for _ in range(6))
        assert project(ut43.multiply(a, b)) \
            == quotient.multiply(project(a), project(b))


# ----------------------------------------------------------------------
# Frattini, maximal subgroups

def test_frattini(h5, c25c25, ut43):
    assert frattini(h5) == generated_subgroup(h5, [h5.gen(3)])
    assert frattini(c25c25).order == 25
    assert frattini(ut43) == gamma(ut43, 2)


def test_frattini_quotient_rank(h5, ut43):
    assert frattini_quotient(h5)[0] == 2
    assert frattini_quotient(ut43)[0] == 3


def test_maximal_subgroups(h5, ut43, c5c5):
    ms = maximal_subgroups(h5)
    assert len(ms) == 6
    assert all(m.order == 25 for m in ms)
    assert len({m.basis for m in ms}) == 6
    phi = frattini(h5)
    assert all(m.contains_subgroup(phi) for m in ms)
    assert len(maximal_subgroups(ut43)) == 13  # (3^3 - 1) / 2
    assert len(maximal_subgroups(c5c5)) == 6


@pytest.mark.parametrize("p, r", [(2, 4), (3, 3), (5, 2), (7, 1)])
def test_projective_points_are_the_normalized_vectors(p, r):
    brute = sorted(v for v in itertools.product(range(p), repeat=r)
                   if next((x for x in v if x), None) == 1)
    assert _projective_points(p, r) == brute
    assert len(brute) == (p ** r - 1) // (p - 1)


def test_maximal_subgroups_are_normal(h5):
    for m in maximal_subgroups(h5):
        assert is_normal(h5, m)


@pytest.mark.parametrize("p", [3, 5])
def test_echelon_matches_brute_force(p):
    """The one row-reduction routine: its nullspace basis spans exactly
    the brute-force left kernel, and len(rows) minus its size is the
    rank, read off the brute-force row space."""
    rng = random.Random(p)
    for _ in range(60):
        k, m = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randrange(p) if rng.random() < 0.7 else 0
                 for _ in range(m)] for _ in range(k)]
        null = _left_nullspace(rows, p)
        combos = list(itertools.product(range(p), repeat=k))

        def combine(x, vectors, width):
            return tuple(sum(c * v[j] for c, v in zip(x, vectors)) % p
                         for j in range(width))

        kernel = {x for x in combos if not any(combine(x, rows, m))}
        span = {combine(c, null, k)
                for c in itertools.product(range(p), repeat=len(null))}
        assert span == kernel
        assert len(kernel) == p ** len(null)
        row_space = {combine(x, rows, m) for x in combos}
        assert p ** (k - len(null)) == len(row_space)


# ----------------------------------------------------------------------
# agemo, omega, exponent

def test_agemo_certified_matches_brute(h5, m27, c25c25, ut43):
    for pres in (h5, m27, c25c25, ut43):
        assert agemo(pres) == agemo_brute(pres)


def test_agemo_frozen(h5, m27, c25c25, ut43):
    assert agemo(h5).order == 1
    assert agemo(m27) == generated_subgroup(m27, [m27.gen(3)])
    assert agemo(c25c25).order == 25
    assert agemo(ut43).order == 3


def test_omega_frozen(h5, m27, c25c25):
    assert omega1(h5) == whole_group(h5)
    assert omega1(m27) == generated_subgroup(m27, [m27.gen(2), m27.gen(3)])
    assert omega1(c25c25) == frattini(c25c25)


def test_exponent(h5, m27, c25c25, ut43):
    assert exponent(h5, whole_group(h5)) == 5
    assert exponent(m27, whole_group(m27)) == 9
    assert exponent(c25c25, whole_group(c25c25)) == 25
    assert exponent(ut43, whole_group(ut43)) == 9
    assert exponent(ut43, gamma(ut43, 2)) == 3
    assert exponent(h5, trivial_subgroup(h5)) == 1


def test_exponent_p_maximal_count(h5, m27, c25c25, c5c5):
    assert exponent_p_maximal_count(h5) == 6
    assert exponent_p_maximal_count(m27) == 1
    assert exponent_p_maximal_count(c25c25) == 0
    assert exponent_p_maximal_count(c5c5) == 6


def test_exponent_p_count_agrees_with_enumeration(h5, m27, c25c25):
    for pres in (h5, m27, c25c25):
        want = sum(1 for m in maximal_subgroups(pres)
                   if brute_exponent(pres, m) == pres.p)
        assert exponent_p_maximal_count(pres) == want


def test_maximal_subgroups_gate_their_direction_count():
    pres = builtin("heisenberg-1009")
    with pytest.raises(BudgetExceededError,
                       match="maximal subgroups need 1010 directions"):
        exponent_p_maximal_count(pres, budget=1000)


MAXIMAL_TARGETS = {
    "sg-3_6-34": lambda: resolve("sg-3_6-34").presentation,
    "heisenberg-7": lambda: resolve("heisenberg-7").presentation,
    "elab-5": lambda: resolve("elab-5").presentation,
    "elab27": lambda: PcPresentation(3, 3),
    "ut43": lambda: UnitriangularModel(4, 3).presentation,
}


@pytest.mark.parametrize("target", sorted(MAXIMAL_TARGETS))
def test_maximals_match_their_closures(target):
    # Phi and the lifts of a line (rank 2) or a hyperplane (above),
    # echelonized directly, against the full closure
    pres = MAXIMAL_TARGETS[target]()
    phi = frattini(pres)
    r, _, lift = frattini_quotient(pres)
    want = []
    for d in _projective_points(pres.p, r):
        span = [d] if r == 2 else _left_nullspace([[x] for x in d], pres.p)
        want.append(generated_subgroup(
            pres, list(phi.basis) + [lift(v) for v in span]))
    assert [len(sub.basis) for sub in want] == [pres.n - 1] * len(want)
    assert maximal_subgroups(pres) == want


@pytest.mark.parametrize("make", [
    lambda: PcPresentation(5, 3, commutators={(2, 1): [(3, 1)]}),
    lambda: UnitriangularModel(4, 3).presentation,
    lambda: resolve("sg-3_6-34").presentation,
    lambda: resolve("sg-3_6-40").presentation,
    lambda: resolve("sg-3_5-3").presentation,
])
def test_frattini_projection_is_the_coset_projection(make):
    # the rank, the linear projection through the generators' images and
    # the lift against the quotient presentation by the Frattini
    # subgroup, whose projection is the canonical coset representative
    pres = make()
    r, project, lift = frattini_quotient(pres)
    quotient, reference, reference_lift = quotient_presentation(
        pres, frattini(pres))
    assert r == quotient.n
    for v in pres.elements():
        assert project(v) == reference(v)
    for d in _projective_points(pres.p, r):
        assert lift(d) == reference_lift(d)


def test_thin_width_two_layers_are_elementary():
    # lattice_profile tags every width-2 layer of a thin group a diamond:
    # G/gamma_2 is elementary of order p^2, so every layer is elementary
    seen = 0
    for name in CATALOG_TARGETS:
        pres = resolve(name).presentation
        if not is_thin(pres).thin:
            continue
        terms = lower_central_series(pres).terms
        for upper, lower in zip(terms, terms[1:]):
            if upper.log_order - lower.log_order == 2:
                seen += 1
                assert all(pres.power(b, pres.p) in lower
                           for b in upper.basis)
    assert seen > 0


# ----------------------------------------------------------------------
# the p-th power sweep against whole-group scans

# every catalog target but the thin 5-groups: order at most 3^6, and 5^4
SMALL_TARGETS = [t for t in CATALOG_TARGETS if not t.startswith("thin5-")]
FIXTURE_GROUPS = ["h5", "m27", "c25c25", "ut43", "ut53"]


def _group(request, name):
    if name in FIXTURE_GROUPS:
        return request.getfixturevalue(name)
    return resolve(name).presentation


def brute_power_table(pres):
    """Every element mapped to its p-th power."""
    return {v: pres.power(v, pres.p) for v in pres.elements()}


def brute_order(pres, table, v):
    """Element order, read by iterating the p-th power table."""
    order = 1
    while v != pres.identity:
        v = table[v]
        order *= pres.p
    return order


def brute_directions(pres, table):
    """Normalized Frattini-quotient directions of the order-p elements."""
    _, project, _ = frattini_quotient(pres)
    out = set()
    for v, q in table.items():
        d = project(v)
        if any(d) and q == pres.identity:
            inv = pow(next(e for e in d if e), -1, pres.p)
            out.add(tuple(e * inv % pres.p for e in d))
    return tuple(sorted(out))


@pytest.mark.parametrize("name", SMALL_TARGETS + FIXTURE_GROUPS)
def test_power_sweep_matches_brute_force(request, name):
    pres = _group(request, name)
    p, one = pres.p, pres.identity
    brute_agemo = agemo_brute(pres)
    assert agemo(pres) == brute_agemo
    table = brute_power_table(pres)
    assert omega1(pres) == generated_subgroup(
        pres, [v for v, q in table.items() if q == one])
    assert exponent(pres, whole_group(pres)) == \
        max(brute_order(pres, table, v) for v in table)
    for m in maximal_subgroups(pres):
        assert maximal_has_exponent_p(pres, m) == \
            all(table[v] == one for v in m.elements())
    report = omega_negative_test(pres)
    assert report.applies == (brute_agemo.order == p)
    if report.applies:
        assert report.directions == brute_directions(pres, table)


@pytest.mark.parametrize("name", CATALOG_TARGETS)
def test_maximal_has_exponent_p_matches_exponent(name):
    # the yes/no question against the full exponent of each maximal
    pres = resolve(name).presentation
    for m in maximal_subgroups(pres):
        assert maximal_has_exponent_p(pres, m) == \
            (exponent(pres, m) == pres.p)
    assert not maximal_has_exponent_p(pres, trivial_subgroup(pres))


@pytest.mark.parametrize("name", SMALL_TARGETS + ["ut43"])
def test_covering_check_matches_every_element(request, name):
    # the definition on each layer: for every g in upper outside target,
    # the commutators [g, x] and deeper generate target
    pres = _group(request, name)
    terms = lower_central_series(pres).terms
    for i in range(1, len(terms) - 1):
        upper, target, deeper = terms[i - 1], terms[i], terms[i + 1]
        want = all(
            generated_subgroup(pres, [pres.commutator(g, x)
                                      for x in pres.gens()]
                               + list(deeper.basis)) == target
            for g in upper.elements() if g not in target)
        assert _covering_holds_on_layer(pres, upper, target, deeper)[0] \
            == want


@pytest.mark.parametrize("name", CATALOG_TARGETS)
def test_sweep_kernel_satisfies_hall_petrescu(name):
    pres = resolve(name).presentation
    p = pres.p
    whole = whole_group(pres)
    N, reps = _coset_sweep(pres, whole, None)
    reps = list(reps)
    assert len(reps) == whole.order // N.order
    assert len({canonical_coset_rep(pres, N, r) for r in reps}) == len(reps)
    rng = random.Random(41)
    assert all(pres.power(N.random_element(rng), p) == pres.identity
               for _ in range(20))
    # [N, _{p-1} G] = 1, spread from commutators with the generators
    spread = N
    for _ in range(p - 1):
        spread = normal_closure(pres, [pres.commutator(b, g)
                                       for b in spread.basis
                                       for g in pres.gens()])
    assert spread.log_order == 0
    for _ in range(20):
        x, n = whole.random_element(rng), N.random_element(rng)
        assert pres.power(pres.multiply(x, n), p) == pres.power(x, p)


# ----------------------------------------------------------------------
# predicates

def test_metabelian(h5, ut43, ut53, c25c25):
    assert is_metabelian(h5)
    assert is_metabelian(ut43)
    assert is_metabelian(c25c25)
    assert not is_metabelian(ut53)


def test_maximal_class(h5, m27, ut43, c5c5):
    assert is_maximal_class(h5)
    assert is_maximal_class(m27)
    assert not is_maximal_class(ut43)
    assert not is_maximal_class(c5c5)  # abelian of order p^2 is excluded


def test_is_thin(h5, h27, m27, c5c5, c25c25, ut43):
    assert is_thin(h5).thin
    assert is_thin(h27).thin
    assert is_thin(m27).thin
    assert is_thin(c5c5).thin
    wide = is_thin(c25c25)
    assert not wide.thin and wide.witness_kind == "width"
    assert not is_thin(ut43).thin


def test_thin_cyclic_not_thin():
    c9 = PcPresentation(3, 2, powers={1: [(2, 1)]})
    report = is_thin(c9)
    assert not report.thin and report.witness_kind == "cyclic"
    c3 = PcPresentation(3, 1)
    assert not is_thin(c3).thin


def test_is_thin_matches_brute(h5, h27, m27, c5c5, c25c25, ut43):
    # sg-3_6-40 fails the covering test on a layer and sg-3_6-34 passes
    # it on every layer; the fixtures that are not thin fail on width
    shipped = [resolve(t).presentation for t in ("sg-3_6-40", "sg-3_6-34")]
    for pres in (h5, h27, m27, c5c5, c25c25, ut43, *shipped):
        assert is_thin(pres).thin == is_thin_brute(pres)


def test_normal_subgroup_walk_h5(h5):
    subs = normal_subgroups(h5)
    # extraspecial of order p^3: trivial, center, p+1 maximals, whole
    assert len(subs) == 9
    orders = sorted(s.order for s in subs)
    assert orders == [1, 5, 25, 25, 25, 25, 25, 25, 125]


def test_covering_spot_check(h5, m27, c25c25):
    assert covering_property_check(h5)
    assert covering_property_check(m27)
    # non-thin: some element of gamma_2 outside gamma_3 fails to cover
    assert not covering_property_check(resolve("sg-3_6-40").presentation)
    # the Frattini subgroup is not gamma_2, so the layers are not linear
    with pytest.raises(ValueError):
        covering_property_check(c25c25)


# ----------------------------------------------------------------------
# lattice profile

def test_profile_h5(h5):
    profile = lattice_profile(h5)
    assert profile.tags() == ["diamond", "chain"]
    assert [layer.count for layer in profile.layers] == [8, 2]
    assert profile.ends_with_chain


def test_profile_c5c5(c5c5):
    profile = lattice_profile(c5c5)
    assert profile.tags() == ["diamond"]
    assert not profile.ends_with_chain


def test_profile_requires_thin(c25c25, ut43):
    for pres in (c25c25, ut43):
        with pytest.raises(ValueError):
            lattice_profile(pres)


def test_lattice_nodes_match_brute(h5, h27):
    # sg-3_5-3 runs diamond, chain, diamond: a diamond below the top
    for pres in (h5, h27, resolve("sg-3_5-3").presentation):
        nodes, edges = lattice_nodes(pres)
        got = {sub.basis for sub, _ in nodes}
        want = {sub.basis for sub in normal_subgroups(pres)}
        assert got == want
        assert len(nodes) == len(got)
        # a chain is one edge; a layer with count - 2 mids has two per mid
        assert len(edges) == sum(
            1 if layer.tag == "chain" else 2 * (layer.count - 2)
            for layer in lattice_profile(pres).layers)


def test_shape_grammar(h5, c5c5):
    assert profile_matches_shape_grammar(lattice_profile(h5), 5)
    assert profile_matches_shape_grammar(lattice_profile(c5c5), 5)

    class Fake:
        def __init__(self, tags):
            self._tags = tags

        def tags(self):
            return self._tags

    assert profile_matches_shape_grammar(Fake(["diamond", "chain", "diamond"]), 3)
    assert profile_matches_shape_grammar(
        Fake(["diamond", "chain", "diamond", "chain"]), 3)
    assert not profile_matches_shape_grammar(
        Fake(["diamond", "chain", "diamond", "diamond"]), 3)  # p-2 = 1 at p=3
    assert profile_matches_shape_grammar(
        Fake(["diamond", "chain", "diamond", "diamond", "diamond", "chain"]), 5)
    assert not profile_matches_shape_grammar(Fake(["chain"]), 5)
    assert not profile_matches_shape_grammar(Fake(["diamond", "other"]), 5)
    # zero diamonds plus the optional final chain is a legal production
    assert profile_matches_shape_grammar(Fake(["diamond", "chain", "chain"]), 5)
    assert not profile_matches_shape_grammar(
        Fake(["diamond", "chain", "chain", "chain"]), 5)


# ----------------------------------------------------------------------
# place of the agemo

def test_place_of_agemo_preconditions(h5, c25c25):
    with pytest.raises(ValueError):
        verify_place_of_agemo(h5)  # maximal class
    with pytest.raises(ValueError):
        verify_place_of_agemo(c25c25)  # not thin


def test_place_of_agemo_exponent_p(c5c5):
    report = verify_place_of_agemo(c5c5)
    assert not report.applicable
    assert report.all_pass


# ----------------------------------------------------------------------
# budgets

def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("THINVILLE_BUDGET", "1234")
    assert get_budget() == 1234
    assert get_budget(99) == 99
    monkeypatch.delenv("THINVILLE_BUDGET")
    assert get_budget() == 10_000_000


def test_budget_exceeded(ut43):
    with pytest.raises(BudgetExceededError):
        omega1(ut43, budget=10)
    with pytest.raises(BudgetExceededError):
        exponent(ut43, whole_group(ut43), budget=10)


def test_memo_stores_nothing_on_a_budget_overrun():
    pres = UnitriangularModel(4, 3).presentation
    with pytest.raises(BudgetExceededError):
        agemo(pres, budget=1)
    assert "agemo" not in pres.cache
    want = agemo(pres)
    assert want.order == 3
    # the budget gates only the first computation
    assert agemo(pres, budget=1) is want


def test_abelian_detection(h5, c25c25):
    assert is_abelian_subgroup(h5, gamma(h5, 2))
    assert not is_abelian_subgroup(h5, whole_group(h5))
    assert is_abelian_subgroup(c25c25, whole_group(c25c25))
