"""Coefficient arithmetic and power congruence machinery.

Frozen coefficient values below were computed by hand from the double
sum before being asserted. The exact product-power expansion is checked
against the collector on several metabelian groups; the congruence-level
certificates get their real workout on the catalog groups and are only
precondition-tested here.
"""

import random

import pytest

from thinville.pcgroup import PcPresentation, random_element
from thinville.congruence import (
    coefficient_closed_form,
    coefficient_integer,
    collision_bound_check,
    coincidence_corollary_check,
    companion_check,
    find_quadratic_pairs,
    geometric_half_sum,
    is_quadratic_residue,
    literal_coefficient,
    maximal_power_classes,
    power_class_key,
    product_power_identity_check,
    rational_exponent,
    smallest_nonresidue,
    verify_quadratic_pair,
)
from thinville.catalog import resolve
from thinville.structure import canonical_coset_rep, gamma, trivial_subgroup

from test_pc_core import UnitriangularModel


@pytest.fixture(scope="module")
def h5():
    return PcPresentation(5, 3, commutators={(2, 1): [(3, 1)]})


@pytest.fixture(scope="module")
def m27():
    return PcPresentation(3, 3, powers={1: [(3, 1)]},
                          commutators={(2, 1): [(3, 1)]})


@pytest.fixture(scope="module")
def ut43():
    return UnitriangularModel(4, 3).presentation


@pytest.fixture(scope="module")
def ut53():
    return UnitriangularModel(5, 3).presentation


@pytest.fixture(scope="module")
def jordan55():
    # split extension of a length-4 unipotent Jordan block, order 5^5
    return PcPresentation(5, 5, commutators={
        (2, 1): [(3, 1)], (3, 1): [(4, 1)], (4, 1): [(5, 1)]})


@pytest.fixture(scope="module")
def c25c25():
    return PcPresentation(5, 4, powers={1: [(3, 1)], 2: [(4, 1)]})


# ----------------------------------------------------------------------
# coefficients

def test_literal_coefficient_frozen():
    # hand-computed double sums
    assert literal_coefficient(5, 1, 2) == 0      # 35 mod 5
    assert literal_coefficient(5, 1, 3) == 4      # 19 mod 5
    assert literal_coefficient(7, 3, 3) == 6      # 517 mod 7
    assert literal_coefficient(3, 1, 1) == 2      # 5 mod 3


def test_closed_form_matches_literal():
    for p in (3, 5, 7, 11, 13):
        for i in range(1, p):
            for j in range(1, p):
                if i + j <= p - 1:
                    assert coefficient_closed_form(p, i, j) == \
                        literal_coefficient(p, i, j), (p, i, j)


def test_closed_form_range():
    with pytest.raises(ValueError):
        coefficient_closed_form(5, 2, 3)
    with pytest.raises(ValueError):
        coefficient_closed_form(5, 0, 1)


def test_coefficient_integer_is_unreduced():
    assert coefficient_integer(5, 1, 2) == 35
    assert coefficient_integer(5, 1, 3) == 19


def test_residues_and_nonresidues():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(11) == 2
    assert is_quadratic_residue(7, 2)
    assert not is_quadratic_residue(7, 3)
    with pytest.raises(ValueError):
        is_quadratic_residue(7, 0)


def test_rational_exponent():
    assert rational_exponent(1, 2, 5) == 3       # 2 * 3 = 6 = 1
    assert rational_exponent(-2, 3, 7) == 4      # 3 * 4 = 12 = 5 = -2
    with pytest.raises(ValueError):
        rational_exponent(1, 10, 5)


def test_geometric_half_sum_closed_form():
    # with a non-residue ratio the half sum telescopes to 2/(1 - h t^2)
    for p in (3, 5, 7, 11):
        h = smallest_nonresidue(p)
        assert geometric_half_sum(p, h, 0) == 1
        for t in range(1, p):
            expected = rational_exponent(2, 1 - h * t * t, p)
            assert geometric_half_sum(p, h, t) == expected, (p, t)


def test_geometric_half_sum_residue_ratio_breaks():
    # a residue ratio hits the pole: some t makes 1 - h t^2 vanish
    p = 7
    h = 2  # residue mod 7
    poles = [t for t in range(1, p) if (1 - h * t * t) % p == 0]
    assert poles  # h = s^-2 for some s


# ----------------------------------------------------------------------
# exact product-power expansion

@pytest.mark.parametrize("fixture_name", ["h5", "m27", "ut43", "jordan55"])
def test_product_power_identity_random(fixture_name, request):
    pres = request.getfixturevalue(fixture_name)
    rng = random.Random(71 + len(fixture_name))
    for _ in range(12):
        x = random_element(pres, rng)
        y = random_element(pres, rng)
        assert product_power_identity_check(pres, x, y)


def test_product_power_identity_needs_metabelian(ut53):
    with pytest.raises(ValueError):
        product_power_identity_check(ut53, ut53.gen(1), ut53.gen(2))


# ----------------------------------------------------------------------
# power class keys

def test_power_class_key_scalar_invariance(h5):
    triv = trivial_subgroup(h5)
    v = h5.multiply(h5.gen(1), h5.power(h5.gen(3), 2))
    assert power_class_key(h5, v, triv) == \
        power_class_key(h5, h5.power(v, 2), triv)
    assert power_class_key(h5, h5.gen(1), triv) != \
        power_class_key(h5, h5.gen(2), triv)
    assert power_class_key(h5, h5.identity, triv) is None


def least_power_class(pres, vec, modulus):
    """The least coset representative of vec, vec^2, ..., vec^(p-1), or
    None when vec lies in the modulus."""
    if canonical_coset_rep(pres, modulus, vec) == pres.identity:
        return None
    return min(canonical_coset_rep(pres, modulus, pres.power(vec, s))
               for s in range(1, pres.p))


@pytest.mark.parametrize("target", [
    "heisenberg-5", "thin5-c5-A1", "thin5-c5-A3", "thin5-c5-A4neg",
    "thin5-c5-A4pos", "thin5-c6-A2"])
def test_power_class_key_is_the_least_power(target):
    pres = resolve(target).presentation
    modulus = (trivial_subgroup(pres) if target == "heisenberg-5"
               else gamma(pres, pres.p + 1))
    rng = random.Random(target)
    samples = [pres.identity] + list(modulus.basis) + [
        random_element(pres, rng) for _ in range(150)]
    for v in samples:
        assert power_class_key(pres, v, modulus) == \
            least_power_class(pres, v, modulus)


def test_maximal_power_classes_h5(h5):
    # exponent five everywhere, so every power class is trivial
    classes = maximal_power_classes(h5)
    assert len(classes) == 6
    assert all(key is None for _, key in classes)


def test_maximal_power_classes_m27(m27):
    # three maximal subgroups contain order-9 elements sharing one
    # power line; the elementary one does not
    classes = dict(maximal_power_classes(m27))
    assert classes[(0, 1)] is None
    line = (0, 0, 1)
    assert classes[(1, 0)] == line
    assert classes[(1, 1)] == line
    assert classes[(1, 2)] == line


def test_companion_check(h5, m27):
    rng = random.Random(5)
    assert companion_check(h5, rng)
    assert companion_check(m27, rng)


def test_companion_check_rejects_shallow_derived_powers():
    # Heisenberg over Z/9: the derived subgroup is cyclic of order 9,
    # so its cube escapes the trivial default modulus
    pres = PcPresentation(3, 6,
                          powers={1: [(4, 1)], 2: [(5, 1)], 3: [(6, 1)]},
                          commutators={(2, 1): [(3, 1)],
                                       (4, 2): [(6, 2)],
                                       (5, 1): [(6, 1)]})
    rng = random.Random(9)
    with pytest.raises(ValueError):
        companion_check(pres, rng)


# ----------------------------------------------------------------------
# quadratic pairs: preconditions only, pending catalog groups

def test_quadratic_pair_preconditions(h5, ut43, ut53, c25c25):
    with pytest.raises(ValueError):
        find_quadratic_pairs(h5)        # class 2
    with pytest.raises(ValueError):
        find_quadratic_pairs(ut43)      # class 3
    with pytest.raises(ValueError):
        find_quadratic_pairs(ut53)      # not metabelian
    with pytest.raises(ValueError):
        find_quadratic_pairs(c25c25)    # not thin


def test_quadratic_pair_on_jordan_block(jordan55):
    # class 4, metabelian, thin; whatever the search returns must verify
    certs = find_quadratic_pairs(jordan55, expose_all=True)
    for cert in certs:
        assert verify_quadratic_pair(jordan55, cert) == \
            (not is_quadratic_residue(5, cert.nonresidue))


def test_collision_bound_needs_wide_layer(jordan55):
    cert = find_quadratic_pairs(jordan55)
    if cert is None:
        pytest.skip("no non-residue pair on this group")
    with pytest.raises(ValueError):
        collision_bound_check(jordan55, cert)   # deepest layer has order 5


def test_corollary_needs_wide_layer(m27):
    with pytest.raises(ValueError):
        coincidence_corollary_check(m27)
