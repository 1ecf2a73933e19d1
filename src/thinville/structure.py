"""Subgroup machinery and structural predicates.

Subgroups are carried as echelonized induced generating sequences: the
basis elements have strictly increasing leading generator indices,
leading exponent 1, and zero entries at every other basis lead.  That
form is canonical, so subgroup equality is basis equality.  One
reduction, _reduce, zeroes an element at the leads by right
multiplication with basis powers: it decides membership, gives
canonical_coset_rep, and is each closure step, which adjoins what it
leaves, scaled to leading exponent 1 by line_key.  All closures
(generated subgroup, normal closure) run a queue that keeps the product
set closed under p-th powers, commutators, and, for normal closures,
conjugation by the presentation generators.  One decorator, _memo,
keeps each invariant of a presentation in pres.cache, beside the one
keyed cache of conjugacy_class.  A quotient G/N is read in G, through
the coordinate maps of _coset_coordinates: G/Frattini and each upper
central step build no quotient presentation.

Every p-th power question (agemo, omega1, exponent and so the
exponent-p maximal subgroups, and the omega criterion's order-p scan)
reads one sweep, _coset_sweep, over a transversal of the subgroup
modulo a normal subgroup N.  That transversal, like every subgroup
enumeration, comes from the collector's odometer,
PcPresentation.products.  The sweep rests on the Hall-Petrescu
formula (P. Hall, Proc. LMS 36, 1934), in the form

    if N is normal of exponent p and [N, _{p-1} G] = 1, then
    (xn)^p = x^p for every x in G and n in N.

The same formula gives (xy)^p = x^p y^p when G has class below p and
gamma_2 has exponent p; agemo then needs no sweep, as x -> x^p is a
homomorphism and its image is generated by the generators' p-th powers.

The enumerating operations (that sweep, conjugacy classes, the thinness
sieve, the maximal subgroups and lattice walks) respect an element
budget, settable per call or through the THINVILLE_BUDGET environment
variable.
They all go through one gate, check_budget, which compares the count a
phase needs with the budget before the phase starts and raises
BudgetExceededError rather than letting it return a partial answer.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field

from .pcgroup import PcPresentation

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured element budget."""


def get_budget(budget=None) -> int:
    if budget is not None:
        return int(budget)
    return int(os.environ.get("THINVILLE_BUDGET", DEFAULT_BUDGET))


def check_budget(needed, budget, what):
    """The budget gate: raise BudgetExceededError before a phase that
    needs `needed` steps when that is more than the budget (None means
    THINVILLE_BUDGET, else the default).  `what` describes the phase,
    with `{}` where the count goes.  Returns the budget it applied."""
    budget = get_budget(budget)
    if needed > budget:
        raise BudgetExceededError(
            what.format(needed) + f", budget is {budget}")
    return budget


def _leading(vec):
    for i, e in enumerate(vec):
        if e:
            return i + 1
    return None


def _memo(fn):
    """fn(pres, ...) computed once per presentation and kept in
    pres.cache under fn's name.  The other arguments (a budget) only
    gate that first computation; a raised error stores nothing."""
    name = fn.__name__

    @functools.wraps(fn)
    def memoized(pres, *args, **kwargs):
        cache = pres.cache
        if name not in cache:
            cache[name] = fn(pres, *args, **kwargs)
        return cache[name]
    return memoized


def line_key(pres, v):
    """Canonical label of the order-p subgroup generated by a nontrivial
    v: the least of v, v^2, ..., v^(p-1).  That is v^k for k the inverse
    mod p of v's leading exponent a: with l the leading index, the layer
    G_l/G_(l+1) has order p, so v^j leads at l with exponent j*a mod p,
    and only v^k leads with exponent 1.  A label leads with 1, and so do
    its conjugates, as the presentation refines a central series: on
    them the label costs no multiply."""
    a = next(e for e in v if e)
    return v if a == 1 else pres.power(v, pow(a, -1, pres.p))


def _reduce(pres, leadmap, vec):
    """vec times powers of leadmap's elements (lead -> element leading
    with exponent 1), lead by lead upward, until vec is zero at every
    lead.  For an induced sequence of H, the unique element of vec*H zero
    at H's leads: the identity exactly when vec lies in H."""
    p = pres.p
    for l in sorted(leadmap):
        e = vec[l - 1]
        if e:
            vec = pres.multiply(vec, pres.power(leadmap[l], p - e))
    return vec


def _adjoin(pres, slots, u):
    """u reduced by slots and scaled to leading exponent 1, stored under
    its lead; None, and nothing stored, when u reduces to the identity."""
    u = _reduce(pres, slots, u)
    if u == pres.identity:
        return None
    b = line_key(pres, u)
    slots[_leading(b)] = b
    return b


def _basis_product(pres, basis, exps):
    """basis[0]^exps[0] * basis[1]^exps[1] * ..."""
    v = pres.identity
    for b, e in zip(basis, exps):
        if e:
            v = pres.multiply(v, pres.power(b, e))
    return v


# ----------------------------------------------------------------------
# echelonized subgroups

class Subgroup:
    """An induced generating sequence inside a fixed presentation."""

    __slots__ = ("pres", "basis", "leads", "_leadmap")

    def __init__(self, pres, basis):
        self.pres = pres
        self.basis = tuple(basis)
        self.leads = tuple(_leading(b) for b in self.basis)
        self._leadmap = dict(zip(self.leads, self.basis))

    @property
    def order(self) -> int:
        return self.pres.p ** len(self.basis)

    @property
    def log_order(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"Subgroup(order={self.order}, leads={list(self.leads)})"

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.basis == other.basis \
            and self.pres is other.pres

    def __hash__(self):
        return hash(self.basis)

    def __contains__(self, vec):
        return _reduce(self.pres, self._leadmap, vec) == self.pres.identity

    def contains_subgroup(self, other) -> bool:
        return all(b in self for b in other.basis)

    def elements(self):
        """Every member, as products of basis powers (lexicographic)."""
        return self.pres.products(self.basis)

    def random_element(self, rng):
        exps = [rng.randrange(self.pres.p) for _ in self.basis]
        return _basis_product(self.pres, self.basis, exps)


def _closure(pres, gens, normal):
    pres.ensure_consistent()
    slots, queue = {}, list(gens)
    while queue:
        b = _adjoin(pres, slots, queue.pop())
        if b is None:
            continue
        queue.append(pres.power(b, pres.p))
        # commutator obligations: [other, b] = [b, other]^-1 lies in the
        # closed subgroup once [b, other] does
        queue.extend(pres.commutator(b, other)
                     for other in slots.values() if other is not b)
        if normal:
            queue.extend(pres.conjugate(b, g) for g in pres.gens())
    return Subgroup(pres, _echelon(pres, slots))


def _echelon(pres, slots):
    """The canonical basis of the subgroup with induced sequence slots
    (lead index -> element with leading exponent 1)."""
    leads = sorted(slots)
    return [_reduce(pres, {k: slots[k] for k in leads[i + 1:]}, slots[l])
            for i, l in enumerate(leads)]


def generated_subgroup(pres, gens) -> Subgroup:
    return _closure(pres, gens, normal=False)


def normal_closure(pres, gens) -> Subgroup:
    return _closure(pres, gens, normal=True)


def trivial_subgroup(pres) -> Subgroup:
    return Subgroup(pres, ())


@_memo
def whole_group(pres) -> Subgroup:
    return generated_subgroup(pres, pres.gens())


def subgroup_join(pres, a, b) -> Subgroup:
    return generated_subgroup(pres, list(a.basis) + list(b.basis))


def is_normal(pres, sub) -> bool:
    for b in sub.basis:
        for k in range(1, pres.n + 1):
            if pres.conjugate(b, pres.gen(k)) not in sub:
                return False
    return True


def is_abelian_subgroup(pres, sub) -> bool:
    basis = sub.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if pres.commutator(basis[i], basis[j]) != pres.identity:
                return False
    return True


def is_cyclic_subgroup(pres, sub) -> bool:
    if sub.log_order <= 1:
        return True
    if not is_abelian_subgroup(pres, sub):
        return False
    return max(pres.element_order(b) for b in sub.basis) == sub.order


# ----------------------------------------------------------------------
# conjugacy

def conjugacy_class(pres, v, budget=None):
    """The conjugacy class of v, as a frozenset: everything reached from
    v by repeated conjugation with the generators, kept in one cache
    that maps each member to the same object.

    The presentation refines a central series, so with l the leading
    index of v every conjugate of v lies in v<g_{l+1}, ..., g_n> and
    leads at l with v's exponent: the class of a line label of line_key
    is its line's orbit, with no label map.  On a cache miss the budget
    is checked on that coset's size, p^(n-l), before the search."""
    classes = pres.cache.setdefault("conjugacy_class", {})
    if v in classes:
        return classes[v]
    check_budget(pres.p ** (pres.n - (_leading(v) or pres.n)), budget,
                 "conjugacy orbit search needs up to {} elements")
    gens = pres.gens()
    seen = {v}
    queue = [v]
    while queue:
        u = queue.pop()
        for g in gens:
            w = pres.conjugate(u, g)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    found = frozenset(seen)
    classes.update(dict.fromkeys(found, found))
    return found


def conjugacy_class_reps(pres, pool, budget=None):
    """(reps, rep_of) from one search: reps holds the first member of
    pool from each conjugacy class meeting it, in pool order, and rep_of
    maps every element of those classes to its class's member of reps."""
    reps, rep_of = [], {}
    for v in pool:
        if v not in rep_of:
            reps.append(v)
            rep_of.update(dict.fromkeys(
                conjugacy_class(pres, v, budget), v))
    return reps, rep_of


# ----------------------------------------------------------------------
# cosets: coordinate maps for G/N, and the quotient presentation

def canonical_coset_rep(pres, sub, vec):
    """The unique element of vec*sub with zeros at the basis leads."""
    return _reduce(pres, sub._leadmap, vec)


def _coset_coordinates(pres, sub):
    """(kept, project, lift) for G modulo sub: kept lists the generators
    that lead no element of sub, project reads the canonical coset
    representative at them, and lift places a vector there.  For normal
    sub these are the normal-form coordinates of G/sub."""
    kept = [i for i in range(1, pres.n + 1) if i not in sub._leadmap]

    def project(vec):
        r = canonical_coset_rep(pres, sub, vec)
        return tuple(r[g - 1] for g in kept)

    def lift(qvec):
        out = [0] * pres.n
        for a, g in enumerate(kept):
            out[g - 1] = qvec[a]
        return tuple(out)

    return kept, project, lift


def quotient_presentation(pres, sub):
    """Presentation of G/N for normal N, with project and lift maps."""
    if not is_normal(pres, sub):
        raise ValueError("quotient requires a normal subgroup")
    kept, project, lift = _coset_coordinates(pres, sub)
    if not kept:
        raise ValueError("quotient by the whole group is trivial")

    def to_word(vec, above):
        word = [(a, e) for a, e in enumerate(project(vec), start=1) if e]
        if word and word[0][0] <= above:
            raise AssertionError("quotient relator fell below its base")
        return word

    gens = [pres.gen(g) for g in kept]
    k = len(kept)
    powers = {a: to_word(pres.power(gens[a - 1], pres.p), a)
              for a in range(1, k + 1)}
    commutators = {
        (b, a): to_word(pres.commutator(gens[b - 1], gens[a - 1]), b)
        for b in range(2, k + 1) for a in range(1, b)}
    quotient = PcPresentation(pres.p, k, powers, commutators)
    if not quotient.is_consistent():
        raise AssertionError("derived quotient presentation is inconsistent")
    return quotient, project, lift


# ----------------------------------------------------------------------
# central series

@dataclass
class CentralSeries:
    kind: str                 # "lower" or "upper"
    terms: list               # Subgroups; lower: descending to 1, upper: ascending to G
    widths: list              # log_p indices between consecutive terms


@_memo
def lower_central_series(pres) -> CentralSeries:
    terms = [whole_group(pres)]
    while terms[-1].log_order > 0:
        current = terms[-1]
        gens = [pres.commutator(b, g)
                for b in current.basis for g in pres.gens()]
        nxt = normal_closure(pres, gens)
        if nxt.log_order >= current.log_order:
            raise AssertionError("lower central series failed to descend")
        terms.append(nxt)
    widths = [terms[i].log_order - terms[i + 1].log_order
              for i in range(len(terms) - 1)]
    return CentralSeries("lower", terms, widths)


def gamma(pres, i) -> Subgroup:
    """Lower central term; indices past the class give the trivial group."""
    if i < 1:
        raise ValueError("lower central terms are indexed from 1")
    terms = lower_central_series(pres).terms
    return terms[min(i - 1, len(terms) - 1)]


def nilpotency_class(pres) -> int:
    return len(lower_central_series(pres).terms) - 1


@_memo
def derived_subgroup(pres) -> Subgroup:
    gens = [pres.commutator(pres.gen(j), pres.gen(i))
            for j in range(2, pres.n + 1) for i in range(1, j)]
    return normal_closure(pres, gens)


def _left_nullspace(rows, p):
    """Basis of {x : sum x_i rows[i] = 0 mod p}."""
    k = len(rows)
    m = len(rows[0]) if rows else 0
    aug = [list(rows[i]) + [1 if t == i else 0 for t in range(k)] for i in range(k)]
    pivot_row = 0
    for col in range(m):
        pr = None
        for r in range(pivot_row, k):
            if aug[r][col] % p:
                pr = r
                break
        if pr is None:
            continue
        aug[pivot_row], aug[pr] = aug[pr], aug[pivot_row]
        inv = pow(aug[pivot_row][col], -1, p)
        aug[pivot_row] = [(x * inv) % p for x in aug[pivot_row]]
        for r in range(k):
            if r != pivot_row and aug[r][col] % p:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[pivot_row])]
        pivot_row += 1
        if pivot_row == k:
            break
    return [row[m:] for row in aug[pivot_row:]]


def _upper_step(pres, lower) -> Subgroup:
    """The preimage of Z(G/lower) for normal lower: the c in G with
    [c, g] in lower for every g."""
    kept, project, _ = _coset_coordinates(pres, lower)
    tops = [pres.gen(t) for t in kept]
    C, images = whole_group(pres), None
    # refine coordinate by coordinate of G/lower: after step a, [C, G]
    # vanishes on its first a coordinates (the tail filtration is central,
    # so the per-coordinate commutator map is a homomorphism on C)
    for a in range(len(kept)):
        if C.log_order == lower.log_order:
            break
        if images is None:
            images = [[project(pres.commutator(b, g)) for g in tops]
                      for b in C.basis]
        rows = [[image[a] for image in row] for row in images]
        if not any(map(any, rows)):
            continue
        images = None
        gens = [_basis_product(pres, C.basis, x)
                for x in _left_nullspace(rows, pres.p)]
        gens.extend(pres.power(b, pres.p) for b in C.basis)
        gens.extend(pres.commutator(C.basis[i], C.basis[j])
                    for i in range(len(C.basis)) for j in range(i + 1, len(C.basis)))
        C = generated_subgroup(pres, gens + list(lower.basis))
    return C


@_memo
def center(pres) -> Subgroup:
    return _upper_step(pres, trivial_subgroup(pres))


@_memo
def upper_central_series(pres) -> CentralSeries:
    terms = [trivial_subgroup(pres)]
    while terms[-1] != whole_group(pres):
        bigger = _upper_step(pres, terms[-1])
        if bigger.log_order <= terms[-1].log_order:
            raise AssertionError("upper central series failed to ascend")
        terms.append(bigger)
    widths = [terms[i + 1].log_order - terms[i].log_order
              for i in range(len(terms) - 1)]
    return CentralSeries("upper", terms, widths)


# ----------------------------------------------------------------------
# agemo, omega, exponent, Frattini

@_memo
def frattini(pres) -> Subgroup:
    gens = list(derived_subgroup(pres).basis)
    gens.extend(pres.power(g, pres.p) for g in pres.gens())
    return generated_subgroup(pres, gens)


@_memo
def frattini_quotient(pres):
    """(rank r of G/Frattini, project, lift), the coordinate maps of
    _coset_coordinates.  G/Frattini is elementary abelian, so project is
    linear: a normal form maps to the sum of its exponents times the
    generators' images, mod p."""
    kept, project, lift = _coset_coordinates(pres, frattini(pres))
    p, r = pres.p, len(kept)
    images = [project(g) for g in pres.gens()]

    def linear(vec):
        return tuple(sum(e * image[k] for e, image in zip(vec, images))
                     % p for k in range(r))

    return r, linear, lift


@_memo
def _power_kernel_start(pres):
    """The least k from which on every gamma_k qualifies as the N of
    _coset_sweep, sub aside: abelian, with a basis of order p."""
    k = max(2, nilpotency_class(pres) - pres.p + 2)
    while not (is_abelian_subgroup(pres, gamma(pres, k)) and all(
            pres.power(b, pres.p) == pres.identity
            for b in gamma(pres, k).basis)):
        k += 1
    return k


def _coset_sweep(pres, sub, budget):
    """(N, a transversal of sub modulo N): the one sweep behind every
    p-th power question (agemo, omega1, exponent, the exponent-p
    maximals and the order-p scan of the omega criterion).

    N is the largest lower central term gamma_k with
    k >= max(2, c - p + 2) that lies in sub, is abelian and has a basis
    of order-p elements (the trivial group when no other term does).
    So N has exponent p and [N, _{p-1} G] = gamma_{k+p-1} = 1, and by
    Hall-Petrescu (xn)^p = x^p for every x in G and n in N: the p-th
    power is constant on each coset of N, and so is the element order
    on each coset other than N itself.  The transversal is the products
    of the basis elements of sub whose leads are not leads of N; the
    budget is checked once, on |sub : N|."""
    k = _power_kernel_start(pres)
    while not sub.contains_subgroup(gamma(pres, k)):
        k += 1
    N = gamma(pres, k)
    check_budget(sub.order // N.order, budget,
                 "p-th power sweep needs {} cosets")
    return N, pres.products(_layer_basis(sub, N))


@_memo
def agemo(pres, budget=None) -> Subgroup:
    """The subgroup generated by all p-th powers: by the p-th powers of
    the generators when G has class below p and gamma_2 has exponent p
    (x -> x^p is then a homomorphism, see the module docstring), else of
    one transversal modulo the Hall-Petrescu term of _coset_sweep."""
    # gamma_2 has class below p, so it is regular and has exponent p as
    # soon as its basis does
    if nilpotency_class(pres) < pres.p and all(
            pres.power(b, pres.p) == pres.identity
            for b in gamma(pres, 2).basis):
        reps = pres.gens()
    else:
        _, reps = _coset_sweep(pres, whole_group(pres), budget)
    return generated_subgroup(pres, {pres.power(r, pres.p) for r in reps})


def omega1(pres, budget=None) -> Subgroup:
    """Subgroup generated by the elements of order dividing p: the
    Hall-Petrescu term N of _coset_sweep (exponent p) and the
    representatives of the cosets of N whose p-th power is trivial."""
    N, reps = _coset_sweep(pres, whole_group(pres), budget)
    return generated_subgroup(pres, list(N.basis) + [
        r for r in reps if pres.power(r, pres.p) == pres.identity])


def exponent(pres, sub, budget=None) -> int:
    """Largest element order in the subgroup: read off the basis when
    the subgroup is abelian, else the largest order among the
    representatives of _coset_sweep, and at least p when its N is
    nontrivial."""
    if sub.log_order == 0:
        return 1
    if is_abelian_subgroup(pres, sub):
        return max(pres.element_order(b) for b in sub.basis)
    N, reps = _coset_sweep(pres, sub, budget)
    return max(max(pres.element_order(r) for r in reps),
               pres.p if N.log_order else 1)


@_memo
def maximal_subgroups(pres, budget=None):
    """Index-p subgroups, ordered by their direction in G/Frattini; the
    budget is checked on their number, (p^r - 1)/(p - 1) for G/Frattini
    of rank r."""
    r, _, lift = frattini_quotient(pres)
    p = pres.p
    check_budget((p ** r - 1) // (p - 1), budget,
                 "maximal subgroups need {} directions")
    phi = frattini(pres)
    out = []
    for direction in _projective_points(p, r):
        # for rank 2 a maximal subgroup is the preimage of one line;
        # above that, of the hyperplane orthogonal to the direction
        span = ([direction] if r == 2
                else _left_nullspace([[d] for d in direction], p))
        # Phi is normal and M/Phi elementary abelian, so Phi holds every
        # p-th power and commutator of the lifts: adjoining each lift to
        # Phi's induced sequence gives one of M, with no closure
        slots = dict(phi._leadmap)
        for v in span:
            _adjoin(pres, slots, lift(v))
        out.append((direction, Subgroup(pres, _echelon(pres, slots))))
    return [sub for _, sub in sorted(out, key=lambda t: t[0])]


def _projective_points(p, r):
    """Normalized direction vectors (first nonzero entry 1), lex order:
    the (p^r - 1)/(p - 1) of them and no other vector."""
    return [(0,) * lead + (1,) + tail for lead in reversed(range(r))
            for tail in itertools.product(range(p), repeat=r - lead - 1)]


def maximal_subgroup_of(pres, vec) -> list:
    """The maximal subgroups containing vec (one unless vec is a Frattini element)."""
    return [m for m in maximal_subgroups(pres) if vec in m]


# ----------------------------------------------------------------------
# predicates

@_memo
def is_metabelian(pres) -> bool:
    return is_abelian_subgroup(pres, derived_subgroup(pres))


def is_maximal_class(pres) -> bool:
    if pres.n == 2:
        # order p^2 is abelian; the exclusion targets the nonabelian family
        return False
    return nilpotency_class(pres) == pres.n - 1


@dataclass
class ThinReport:
    thin: bool
    witness_kind: str = None      # cyclic | width | normal-subgroup
    layer: int = None
    witness_element: tuple = None
    witness_subgroup: Subgroup = None

    def __bool__(self):
        return self.thin


@_memo
def is_thin(pres, budget=None) -> ThinReport:
    """Sandwich test: every normal subgroup between consecutive lower
    central terms, and every layer of width at most p^2."""
    if frattini_quotient(pres)[0] < 2:
        return ThinReport(False, witness_kind="cyclic")
    series = lower_central_series(pres)
    for i, w in enumerate(series.widths, start=1):
        if w > 2:
            return ThinReport(False, witness_kind="width", layer=i)
    c = len(series.terms) - 1
    # the last layer holds vacuously, as [gamma_c, G] = 1
    for i in range(1, c):
        upper = series.terms[i - 1]
        target = series.terms[i]
        ok, bad = _covering_holds_on_layer(pres, upper, target,
                                           gamma(pres, i + 2), budget)
        if ok:
            continue
        # verify a genuine sandwich violation before answering no
        closure = normal_closure(pres, [bad])
        if not closure.contains_subgroup(target):
            return ThinReport(
                False, witness_kind="normal-subgroup", layer=i,
                witness_element=bad, witness_subgroup=closure)
        witness = _sieve_layer(pres, upper, target, budget)
        if witness is not None:
            closure = normal_closure(pres, [witness])
            return ThinReport(
                False, witness_kind="normal-subgroup", layer=i,
                witness_element=witness, witness_subgroup=closure)
    return ThinReport(True)


def _covering_holds_on_layer(pres, upper, target, deeper, budget=None):
    """Check [g,G] deeper = target for all g in upper minus target.

    The caller has checked that G/gamma_2 is elementary, so every layer
    is elementary abelian and target/deeper is central in G/deeper.
    Modulo deeper, g -> [g, x] is then linear on upper/target for each
    x, as [gt, x] = [g, x] [[g, x], t] [t, x] with the last two factors
    in deeper, and x -> [g, x] is a homomorphism; so g ranges over one
    representative u per direction of upper/target, and the [u, x] for
    the generators x, adjoined to deeper's induced sequence, must span
    target/deeper."""
    basis = _layer_basis(upper, target)
    check_budget((pres.p ** len(basis) - 1) // (pres.p - 1), budget,
                 "thinness covering check needs {} directions")
    for exps in _projective_points(pres.p, len(basis)):
        u = _basis_product(pres, basis, exps)
        slots = dict(deeper._leadmap)
        for g in pres.gens():
            if len(slots) == target.log_order:
                break
            _adjoin(pres, slots, pres.commutator(u, g))
        if len(slots) < target.log_order:
            return False, u
    return True, None


def _layer_basis(upper, lower):
    """The basis elements of upper whose leads are not leads of lower:
    for lower inside upper, a basis of upper modulo lower."""
    leads = set(lower.leads)
    return [b for b in upper.basis if _leading(b) not in leads]


def _sieve_layer(pres, upper, target, budget):
    """An element of upper outside target whose normal closure misses
    target, or None when there is none."""
    check_budget(upper.order, budget, "thinness sieve needs {} elements")
    for g in upper.elements():
        if g in target:
            continue
        if not normal_closure(pres, [g]).contains_subgroup(target):
            return g
    return None


# ----------------------------------------------------------------------
# normal subgroup lattice of a thin group

@dataclass
class LatticeLayer:
    index: int
    width: int          # log_p of the layer order
    count: int          # normal subgroups N with term(i+1) <= N <= term(i)
    tag: str            # chain | diamond


@dataclass
class LatticeProfile:
    layers: list
    ends_with_chain: bool

    def tags(self):
        return [layer.tag for layer in self.layers]


def lattice_profile(pres, budget=None) -> LatticeProfile:
    report = is_thin(pres, budget)
    if not report.thin:
        raise ValueError("lattice profile requires a thin group")
    series = lower_central_series(pres)
    # is_thin has made G/gamma_2 elementary of order p^2, and every layer
    # is an image of a tensor power of it: a width-2 layer is elementary,
    # with p+1 intermediate subgroups (diamond)
    layers = [LatticeLayer(i, 2, pres.p + 3, "diamond") if width == 2
              else LatticeLayer(i, 1, 2, "chain")
              for i, width in enumerate(series.widths, start=1)]
    return LatticeProfile(layers, ends_with_chain=layers[-1].tag == "chain" if layers else False)


def lattice_nodes(pres, budget=None):
    """(subgroup, layer index) pairs for every normal subgroup of a thin
    group, plus the covering edges, both canonically ordered."""
    profile = lattice_profile(pres, budget)
    series = lower_central_series(pres)
    p = pres.p
    # the terms come first: term i is node i - 1
    nodes = [(term, i) for i, term in enumerate(series.terms, start=1)]
    edges = []
    for layer in profile.layers:
        top, bottom = layer.index - 1, layer.index
        upper, lower = series.terms[top], series.terms[bottom]
        if layer.tag == "chain":
            edges.append((top, bottom))
            continue
        # the mids are the same whichever two layer generators are used
        gens = _layer_basis(upper, lower)
        mids = [generated_subgroup(
                    pres, list(lower.basis) + [_basis_product(pres, gens, d)])
                for d in _projective_points(p, 2)]
        for mid in sorted(mids, key=lambda s: s.basis):
            mid_id = len(nodes)
            nodes.append((mid, layer.index))
            edges.append((top, mid_id))
            edges.append((mid_id, bottom))
    return nodes, edges


def profile_matches_shape_grammar(profile: LatticeProfile, p: int) -> bool:
    """Diamond on top, then a chain, then up to p-2 diamonds, then an
    optional final chain.  Prefixes of that shape (small groups) pass."""
    tags = profile.tags()
    if not tags or tags[0] != "diamond":
        return False
    rest = tags[1:]
    if not rest:
        return True
    if rest[0] != "chain":
        return False
    rest = rest[1:]
    diamonds = 0
    while rest and rest[0] == "diamond":
        diamonds += 1
        rest = rest[1:]
    if diamonds > p - 2:
        return False
    if not rest:
        return True
    return rest == ["chain"]


# ----------------------------------------------------------------------
# structural facts about the agemo of a thin group

@dataclass
class PlaceOfAgemoReport:
    applicable: bool
    depth: int = None            # largest i with G^p inside term i
    agemo_order: int = None
    checks: dict = field(default_factory=dict)

    @property
    def all_pass(self):
        return all(self.checks.values()) if self.applicable else True


def place_depth(pres) -> int:
    """Largest lower central index whose term contains the power subgroup.

    A trivial power subgroup sits inside the final (trivial) term, so
    the depth comes out as class + 1.
    """
    W = agemo(pres)
    terms = lower_central_series(pres).terms
    return max(i for i, term in enumerate(terms, start=1)
               if term.contains_subgroup(W))


def verify_place_of_agemo(pres, budget=None) -> PlaceOfAgemoReport:
    report = is_thin(pres, budget)
    if not (report.thin and is_metabelian(pres) and not is_maximal_class(pres)):
        raise ValueError(
            "place-of-agemo checks require a metabelian thin group "
            "that is not of maximal class")
    W = agemo(pres, budget)
    if W.log_order == 0:
        return PlaceOfAgemoReport(applicable=False, agemo_order=1)
    depth = place_depth(pres)
    p = pres.p
    derived = derived_subgroup(pres)
    derived_powers = generated_subgroup(
        pres, [pres.power(b, p) for b in derived.basis])
    checks = {
        "depth at least 3": depth >= 3,
        "depth at most p": depth <= p,
        "next term cyclic": is_cyclic_subgroup(pres, gamma(pres, depth + 1)),
        "term after next trivial": gamma(pres, depth + 2).log_order == 0,
        "derived powers inside next term": gamma(pres, depth + 1).contains_subgroup(derived_powers),
        "agemo order at most p^3": W.log_order <= 3,
    }
    return PlaceOfAgemoReport(True, depth, W.order, checks)


def covering_property_check(pres) -> bool:
    """Whether [g, G] gamma_(i+2) = gamma_(i+1) for every i and every g
    in gamma_i outside gamma_(i+1): is_thin's exact layer test,
    _covering_holds_on_layer, run on every layer.  Its precondition is
    that the Frattini subgroup is gamma_2, that is, that G/gamma_2 is
    elementary; ValueError otherwise."""
    if frattini(pres).log_order != gamma(pres, 2).log_order:
        raise ValueError("covering check needs G/gamma_2 elementary")
    terms = lower_central_series(pres).terms
    return all(_covering_holds_on_layer(pres, terms[i - 1], terms[i],
                                        gamma(pres, i + 2))[0]
               for i in range(1, len(terms)))


# ----------------------------------------------------------------------
# exponent-p maximal subgroups

@_memo
def exponent_p_maximal_count(pres, budget=None) -> int:
    """How many maximal subgroups have exponent p."""
    return sum(1 for sub in maximal_subgroups(pres, budget)
               if maximal_has_exponent_p(pres, sub, budget))


def maximal_has_exponent_p(pres, sub, budget=None) -> bool:
    """exponent(pres, sub) == p, asked as yes or no: every p-th power of
    the elements exponent reads (the basis when sub is abelian, else the
    transversal of _coset_sweep) is trivial.  It stops at the first
    nontrivial power, with one p-th power per element.  A nonabelian sub
    has elements of order p or more on its transversal or in N, so only
    the trivial subgroup (exponent 1) needs its own answer."""
    if sub.log_order == 0:
        return False
    reps = (sub.basis if is_abelian_subgroup(pres, sub)
            else _coset_sweep(pres, sub, budget)[1])
    return all(pres.power(r, pres.p) == pres.identity for r in reps)
