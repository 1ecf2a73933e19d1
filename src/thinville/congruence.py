"""Power congruences in metabelian groups of prime exponent base.

The machinery here has three levels. The bottom is integer arithmetic:
the coefficient double sums of the product-power expansion and their
mod-p closed form, plus rational exponents realized through modular
inverses. The middle is the exact expansion of (xy)^p in a metabelian
group, checkable element by element. The top is the congruence layer
for thin groups: the quadratic relation between the two deepest
weight-4 commutators, the p-th power congruence it induces for the
p+1 generator directions, and the coincidence bounds on power
subgroups of maximal subgroups.

Every checker recomputes both sides with the collection engine; none
of them assumes the statement it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .structure import (
    _projective_points,
    canonical_coset_rep,
    derived_subgroup,
    frattini_quotient,
    gamma,
    is_metabelian,
    is_thin,
    line_key,
    nilpotency_class,
)


# ----------------------------------------------------------------------
# coefficient arithmetic

def literal_coefficient(p, i, j) -> int:
    """The double sum of products of binomials, reduced mod p."""
    return sum(comb(k, i) * comb(k, j) for k in range(1, p)) % p


def coefficient_integer(p, i, j) -> int:
    """Same sum without reduction, for exact expansion exponents."""
    return sum(comb(k, i) * comb(k, j) for k in range(1, p))


def coefficient_closed_form(p, i, j) -> int:
    """Vanishes below total degree p-1; alternates in sign on it."""
    if i < 1 or j < 1 or i + j > p - 1:
        raise ValueError("closed form covers 1 <= i, j with i + j <= p-1")
    if i + j < p - 1:
        return 0
    return (-1) ** i % p


def rational_exponent(num, den, p) -> int:
    if den % p == 0:
        raise ValueError("denominator vanishes mod p")
    return num * pow(den, -1, p) % p


def geometric_half_sum(p, h, t) -> int:
    """Partial geometric sum of (h t^2)^(s-1) over half the residues."""
    q = (h * t * t) % p
    total = 0
    power = 1
    for _ in range((p - 1) // 2):
        total += power
        power = (power * q) % p
    return total % p


def is_quadratic_residue(p, h) -> bool:
    if h % p == 0:
        raise ValueError("zero is neither a residue nor a non-residue")
    return pow(h, (p - 1) // 2, p) == 1


def smallest_nonresidue(p) -> int:
    for h in range(2, p):
        if not is_quadratic_residue(p, h):
            return h
    raise ValueError(f"no quadratic non-residue below {p}")


# ----------------------------------------------------------------------
# exact product-power expansion

def product_power_identity_check(pres, x, y) -> bool:
    """Exact expansion of (xy)^p against the collected left side."""
    if not is_metabelian(pres):
        raise ValueError("the product power expansion needs a metabelian group")
    p = pres.p
    sigma = [None, y]
    for i in range(2, p + 1):
        sigma.append(pres.commutator(sigma[-1], x))
    rhs = pres.multiply(pres.power(x, p), pres.power(y, p))
    for i in range(2, p + 1):
        rhs = pres.multiply(rhs, pres.power(sigma[i], comb(p, i)))
    for i in range(1, p):
        for j in range(1, p):
            e = coefficient_integer(p, i, j)
            base = pres.left_normed_commutator(sigma[i + 1], [sigma[1]] * j)
            rhs = pres.multiply(rhs, pres.power(base, e))
    lhs = pres.power(pres.multiply(x, y), p)
    return lhs == rhs


# ----------------------------------------------------------------------
# the quadratic relation

@dataclass
class QuadraticPair:
    """Generators whose deepest weight-4 commutators are proportional
    with a non-residue ratio."""
    x: tuple
    y: tuple
    nonresidue: int
    deep_comm_x: tuple       # commutator of y with x three times
    deep_comm_y: tuple       # commutator of y with x then y twice


def _layer_power_match(pres, modulus, lhs, rhs):
    """Exponents e with lhs = rhs^e modulo the given subgroup."""
    out = []
    lhs_rep = canonical_coset_rep(pres, modulus, lhs)
    for e in range(pres.p):
        if canonical_coset_rep(pres, modulus, pres.power(rhs, e)) == lhs_rep:
            out.append(e)
    return out


def _quadratic_preconditions(pres):
    if not is_metabelian(pres):
        raise ValueError("quadratic pairs need a metabelian group")
    if not is_thin(pres).thin:
        raise ValueError("quadratic pairs need a thin group")
    if nilpotency_class(pres) < 4:
        raise ValueError("quadratic pairs need class at least 4")


def find_quadratic_pairs(pres, x=None, expose_all=False):
    """Search complements y of x for the quadratic relation.

    Returns the first certificate whose ratio is a non-residue, or a
    list of every candidate certificate under expose_all (residue
    ratios included, for inspection). Returns None, or an empty list,
    when no direction works.
    """
    _quadratic_preconditions(pres)
    r, project, lift = frattini_quotient(pres)
    p = pres.p
    derived = derived_subgroup(pres)
    if x is None:
        x = next(pres.gen(k) for k in range(1, pres.n + 1)
                 if project(pres.gen(k)) != (0, 0))
    elif x in derived:
        raise ValueError("x must lie outside the derived subgroup")
    mod5 = gamma(pres, 5)
    xdir = project(x)
    found = []
    for ydir in sorted(_independent_directions(p, xdir)):
        y = lift(ydir)
        lhs = pres.left_normed_commutator(y, [x, x, x])
        rhs = pres.left_normed_commutator(y, [x, y, y])
        if canonical_coset_rep(pres, mod5, rhs) == pres.identity:
            continue
        for h in _layer_power_match(pres, mod5, lhs, rhs):
            if h == 0:
                continue
            cert = QuadraticPair(x, y, h, lhs, rhs)
            if expose_all:
                found.append(cert)
            elif not is_quadratic_residue(p, h):
                return cert
    if expose_all:
        return found
    return None


def _independent_directions(p, xdir):
    return [d for d in _projective_points(p, 2)
            if (xdir[0] * d[1] - xdir[1] * d[0]) % p]


def verify_quadratic_pair(pres, cert) -> bool:
    _quadratic_preconditions(pres)
    mod5 = gamma(pres, 5)
    lhs = pres.left_normed_commutator(cert.y, [cert.x, cert.x, cert.x])
    rhs = pres.left_normed_commutator(cert.y, [cert.x, cert.y, cert.y])
    if lhs != cert.deep_comm_x or rhs != cert.deep_comm_y:
        return False
    if is_quadratic_residue(pres.p, cert.nonresidue):
        return False
    return canonical_coset_rep(pres, mod5, lhs) \
        == canonical_coset_rep(pres, mod5, pres.power(rhs, cert.nonresidue))


# ----------------------------------------------------------------------
# the p-th power congruence along generator directions

@dataclass
class PowerCongruenceReport:
    ok: bool
    deep_comm_tail_y: tuple        # commutator of y with x then p-2 copies of y
    deep_comm_tail_x: tuple        # same with a final x instead
    failures: list = field(default_factory=list)   # t values that broke
    x_power_coords: tuple = None   # (on tail_y, on tail_x) when expressible
    y_power_coords: tuple = None


def deep_commutator_pair(pres, x, y):
    p = pres.p
    tail_y = pres.left_normed_commutator(y, [x] + [y] * (p - 2))
    tail_x = pres.left_normed_commutator(y, [x] + [y] * (p - 3) + [x])
    return tail_y, tail_x


def _require_derived_powers_deep(pres, depth):
    derived = derived_subgroup(pres)
    target = gamma(pres, depth)
    for b in derived.basis:
        if pres.power(b, pres.p) not in target:
            raise ValueError(
                "power congruences need derived p-th powers inside the "
                f"lower central term {depth}")


def power_congruence_check(pres, cert) -> PowerCongruenceReport:
    """Check the predicted p-th powers of x^t y for all t.

    Both sides are collected independently: the left by direct powering,
    the right from the congruence's commutator corrections with rational
    exponents in t.
    """
    _quadratic_preconditions(pres)
    p = pres.p
    _require_derived_powers_deep(pres, p + 1)
    modulus = gamma(pres, p + 1)
    x, y, h = cert.x, cert.y, cert.nonresidue
    tail_y, tail_x = deep_commutator_pair(pres, x, y)
    xp = pres.power(x, p)
    yp = pres.power(y, p)
    failures = []
    for t in range(p):
        lhs = pres.power(pres.multiply(pres.power(x, t), y), p)
        den = (1 - h * t * t) % p
        e_l = rational_exponent(-2 * t, den, p)
        e_m = rational_exponent(2 * t * t, den, p)
        rhs = pres.multiply(pres.power(xp, t), yp)
        rhs = pres.multiply(rhs, pres.power(tail_y, e_l))
        rhs = pres.multiply(rhs, pres.power(tail_x, e_m))
        if canonical_coset_rep(pres, modulus, lhs) \
                != canonical_coset_rep(pres, modulus, rhs):
            failures.append(t)
    coords = _power_coords(pres, modulus, tail_y, tail_x, xp, yp)
    return PowerCongruenceReport(
        ok=not failures,
        deep_comm_tail_y=tail_y,
        deep_comm_tail_x=tail_x,
        failures=failures,
        x_power_coords=coords[0] if coords else None,
        y_power_coords=coords[1] if coords else None)


def _power_coords(pres, modulus, tail_y, tail_x, xp, yp):
    """Express x^p and y^p over the two deep commutators mod the given
    subgroup, by direct search over the p^2 combinations."""
    p = pres.p
    table = {}
    for a in range(p):
        for b in range(p):
            v = pres.multiply(pres.power(tail_y, a), pres.power(tail_x, b))
            table.setdefault(canonical_coset_rep(pres, modulus, v), (a, b))
    kx = table.get(canonical_coset_rep(pres, modulus, xp))
    ky = table.get(canonical_coset_rep(pres, modulus, yp))
    if kx is None or ky is None:
        return None
    return kx, ky


# ----------------------------------------------------------------------
# power subgroups of maximal subgroups and their coincidences

def power_class_key(pres, vec, modulus):
    """Canonical label of the cyclic subgroup generated by vec modulo
    the given normal subgroup, None when vec falls inside it: the least
    representative of vec, ..., vec^(p-1), the one line_key picks."""
    rep = canonical_coset_rep(pres, modulus, vec)
    if rep == pres.identity:
        return None
    return canonical_coset_rep(pres, modulus, line_key(pres, rep))


def maximal_power_classes(pres, modulus=None):
    """(direction, key) for each maximal subgroup, where key labels the
    subgroup generated by p-th powers of its generators modulo the
    modulus (the deepest lower central term by default)."""
    if modulus is None:
        modulus = gamma(pres, pres.p + 1)
    r, project, lift = frattini_quotient(pres)
    out = []
    for direction in _projective_points(pres.p, r):
        rep = lift(direction)
        out.append((direction, power_class_key(pres, pres.power(rep, pres.p), modulus)))
    return out


def companion_check(pres, rng, samples=20, modulus=None) -> bool:
    """Representative independence of the power class: multiplying a
    generator of a maximal subgroup by derived elements must not move
    the class label."""
    if modulus is None:
        modulus = gamma(pres, pres.p + 1)
    derived = derived_subgroup(pres)
    for b in derived.basis:
        if pres.power(b, pres.p) not in modulus:
            raise ValueError(
                "representative independence needs derived p-th powers "
                "inside the modulus")
    r, project, lift = frattini_quotient(pres)
    for direction in _projective_points(pres.p, r):
        a = lift(direction)
        key_a = power_class_key(pres, pres.power(a, pres.p), modulus)
        for _ in range(samples):
            i = rng.randrange(1, pres.p)
            c = derived.random_element(rng)
            b = pres.multiply(pres.power(a, i), c)
            key_b = power_class_key(pres, pres.power(b, pres.p), modulus)
            if key_a != key_b:
                return False
    return True


def collision_bound_check(pres, cert) -> tuple:
    """Group the parameter values t by coinciding power classes; the
    bound asserts every class has at most three members."""
    p = pres.p
    if gamma(pres, p).order < p * p:
        raise ValueError(
            "the collision bound needs the deepest wide layer, of order "
            "at least p^2")
    modulus = gamma(pres, p + 1)
    classes = {}
    for t in range(p):
        v = pres.power(pres.multiply(pres.power(cert.x, t), cert.y), p)
        classes.setdefault(power_class_key(pres, v, modulus), []).append(t)
    ok = all(len(ts) <= 3 for ts in classes.values())
    return ok, classes


def coincidence_corollary_check(pres) -> tuple:
    """At most three maximal subgroups may share one power class."""
    p = pres.p
    if gamma(pres, p).order < p * p:
        raise ValueError(
            "the coincidence corollary needs the deepest wide layer, of "
            "order at least p^2")
    classes = {}
    for direction, key in maximal_power_classes(pres):
        classes.setdefault(key, []).append(direction)
    ok = all(len(ds) <= 3 for ds in classes.values())
    return ok, classes
