"""Subgroup machinery and structural predicates.

Subgroups are carried as echelonized induced generating sequences: the
basis elements have strictly increasing leading generator indices,
leading exponent 1, and zero entries at every other basis lead.  That
form is canonical, so subgroup equality is basis equality and the
membership sieve is exact.  All closures (generated subgroup, normal
closure) run a queue that keeps the product set closed under p-th
powers, commutators, and, for normal closures, conjugation by the
presentation generators.

Every p-th power question (agemo, omega1, exponent and so the
exponent-p maximal subgroups, and the omega criterion's order-p scan)
reads one sweep, _coset_sweep, over a transversal of the subgroup
modulo a normal subgroup N.  The sweep rests on the Hall-Petrescu
formula (P. Hall, Proc. LMS 36, 1934), in the one form used here:

    if N is normal of exponent p and [N, _{p-1} G] = 1, then
    (xn)^p = x^p for every x in G and n in N.

The enumerating operations (that sweep, conjugacy orbits, the thinness
sieve, brute oracles and lattice walks) respect an element budget,
settable per call or through the THINVILLE_BUDGET environment variable.
They all go through one gate, check_budget, which compares the count a
phase needs with the budget before the phase starts and raises
BudgetExceededError rather than letting it return a partial answer.
"""

from __future__ import annotations

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
    with `{}` where the count goes."""
    budget = get_budget(budget)
    if needed > budget:
        raise BudgetExceededError(
            what.format(needed) + f", budget is {budget}")


def _leading(vec):
    for i, e in enumerate(vec):
        if e:
            return i + 1
    return None


def _sift(pres, leadmap, u):
    """Reduce u by the elements of leadmap (lead index -> element with
    leading exponent 1); the identity comes back exactly when u lies in
    the subgroup they generate as an induced sequence."""
    while u != pres.identity:
        l = _leading(u)
        b = leadmap.get(l)
        if b is None:
            return u
        u = pres.multiply(pres.power(b, -u[l - 1]), u)
    return u


def _basis_product(pres, basis, exps):
    """basis[0]^exps[0] * basis[1]^exps[1] * ..."""
    v = pres.identity
    for b, e in zip(basis, exps):
        if e:
            v = pres.multiply(v, pres.power(b, e))
    return v


def _products(pres, basis):
    """Every product basis[0]^e_0 * basis[1]^e_1 * ... with exponents in
    [0, p), in lexicographic order of the exponents."""
    if not basis:
        yield pres.identity
        return
    # odometer with a prefix-product stack: one multiply per element
    k = len(basis)
    exps = [0] * k
    prefix = [pres.identity] * (k + 1)
    while True:
        yield prefix[k]
        i = k - 1
        while i >= 0 and exps[i] == pres.p - 1:
            exps[i] = 0
            i -= 1
        if i < 0:
            return
        exps[i] += 1
        prefix[i + 1] = pres.multiply(prefix[i + 1], basis[i])
        for j in range(i + 1, k):
            prefix[j + 1] = prefix[j]


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
        return _sift(self.pres, self._leadmap, vec) == self.pres.identity

    def contains_subgroup(self, other) -> bool:
        return all(b in self for b in other.basis)

    def elements(self):
        """Every member, as products of basis powers (lexicographic)."""
        return _products(self.pres, self.basis)

    def random_element(self, rng):
        exps = [rng.randrange(self.pres.p) for _ in self.basis]
        return _basis_product(self.pres, self.basis, exps)


class _Closure:
    def __init__(self, pres, normal):
        self.pres = pres
        self.normal = normal
        self.slots = {}
        self.queue = []

    def run(self, gens):
        P = self.pres
        self.queue.extend(gens)
        while self.queue:
            u = _sift(P, self.slots, self.queue.pop())
            if u == P.identity:
                continue
            l = _leading(u)
            b = P.power(u, pow(u[l - 1], -1, P.p))
            self.slots[l] = b
            self.queue.append(P.power(b, P.p))
            # commutator obligations, both orders
            for other in list(self.slots.values()):
                if other is not b:
                    self.queue.append(P.commutator(b, other))
                    self.queue.append(P.commutator(other, b))
            if self.normal:
                for g in P.gens():
                    self.queue.append(P.conjugate(b, g))
        return self.canonical_basis()

    def canonical_basis(self):
        P = self.pres
        leads = sorted(self.slots)
        out = []
        for l in leads:
            b = self.slots[l]
            for l2 in leads:
                if l2 > l and b[l2 - 1]:
                    b = P.multiply(b, P.power(self.slots[l2], P.p - b[l2 - 1]))
            out.append(b)
        return out


def generated_subgroup(pres, gens) -> Subgroup:
    pres.ensure_consistent()
    closure = _Closure(pres, normal=False)
    return Subgroup(pres, closure.run(list(gens)))


def normal_closure(pres, gens) -> Subgroup:
    pres.ensure_consistent()
    closure = _Closure(pres, normal=True)
    return Subgroup(pres, closure.run(list(gens)))


def trivial_subgroup(pres) -> Subgroup:
    return Subgroup(pres, ())


def whole_group(pres) -> Subgroup:
    cache = pres.cache
    if "whole" not in cache:
        cache["whole"] = generated_subgroup(pres, pres.gens())
    return cache["whole"]


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

def conjugacy_orbit(pres, v, label=None, budget=None):
    """Everything reached from v by repeated conjugation with the
    generators: the conjugacy class of v.  With a label map each
    conjugate w is replaced by label(pres, w) before it is followed, so
    the orbit is one of labels, and v must be a label itself.

    The presentation refines a central series, so with l the leading
    index of v every conjugate of v lies in v<g_{l+1}, ..., g_n> (and so
    does every label of beauville.line_key); the budget is checked on
    that coset's size, p^(n-l), before the search starts."""
    check_budget(pres.p ** (pres.n - (_leading(v) or pres.n)), budget,
                 "conjugacy orbit search needs up to {} elements")
    gens = pres.gens()
    seen = {v}
    queue = [v]
    while queue:
        u = queue.pop()
        for g in gens:
            w = pres.conjugate(u, g)
            if label is not None:
                w = label(pres, w)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def conjugacy_class_reps(pres, pool, budget=None):
    """The first member of pool from each conjugacy class meeting it,
    in pool order."""
    seen = set()
    reps = []
    for v in pool:
        if v not in seen:
            reps.append(v)
            seen |= conjugacy_orbit(pres, v, budget=budget)
    return reps


# ----------------------------------------------------------------------
# cosets and quotient presentations

def canonical_coset_rep(pres, sub, vec):
    """The unique element of vec*sub with zeros at the basis leads."""
    for b in sub.basis:
        l = _leading(b)
        e = vec[l - 1]
        if e:
            vec = pres.multiply(vec, pres.power(b, pres.p - e))
    return vec


def quotient_presentation(pres, sub):
    """Presentation of G/N for normal N, with project and lift maps."""
    key = ("quotient", sub.basis)
    cache = pres.cache
    if key in cache:
        return cache[key]
    if not is_normal(pres, sub):
        raise ValueError("quotient requires a normal subgroup")
    kept = [i for i in range(1, pres.n + 1) if i not in sub._leadmap]
    if not kept:
        raise ValueError("quotient by the whole group is trivial")

    def project(vec):
        r = canonical_coset_rep(pres, sub, vec)
        return tuple(r[g - 1] for g in kept)

    def lift(qvec):
        out = [0] * pres.n
        for a, g in enumerate(kept):
            out[g - 1] = qvec[a]
        return tuple(out)

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
    cache[key] = (quotient, project, lift)
    return cache[key]


# ----------------------------------------------------------------------
# central series

@dataclass
class CentralSeries:
    kind: str                 # "lower" or "upper"
    terms: list               # Subgroups; lower: descending to 1, upper: ascending to G
    widths: list              # log_p indices between consecutive terms


def lower_central_series(pres) -> CentralSeries:
    cache = pres.cache
    if "lcs" not in cache:
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
        cache["lcs"] = CentralSeries("lower", terms, widths)
    return cache["lcs"]


def gamma(pres, i) -> Subgroup:
    """Lower central term; indices past the class give the trivial group."""
    if i < 1:
        raise ValueError("lower central terms are indexed from 1")
    terms = lower_central_series(pres).terms
    return terms[min(i - 1, len(terms) - 1)]


def nilpotency_class(pres) -> int:
    return len(lower_central_series(pres).terms) - 1


def derived_subgroup(pres) -> Subgroup:
    cache = pres.cache
    if "derived" not in cache:
        gens = [pres.commutator(pres.gen(j), pres.gen(i))
                for j in range(2, pres.n + 1) for i in range(1, j)]
        cache["derived"] = normal_closure(pres, gens)
    return cache["derived"]


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


def center(pres) -> Subgroup:
    cache = pres.cache
    if "center" in cache:
        return cache["center"]
    pres.ensure_consistent()
    C = whole_group(pres)
    # refine coordinate by coordinate: after step t, [C, G] vanishes on
    # the first t coordinates (the tail filtration is central, so the
    # per-coordinate commutator map is a homomorphism on C)
    for t in range(1, pres.n + 1):
        if C.log_order == 0:
            break
        rows = [[pres.commutator(b, g)[t - 1] for g in pres.gens()]
                for b in C.basis]
        gens = [_basis_product(pres, C.basis, x)
                for x in _left_nullspace(rows, pres.p)]
        gens.extend(pres.power(b, pres.p) for b in C.basis)
        gens.extend(pres.commutator(C.basis[i], C.basis[j])
                    for i in range(len(C.basis)) for j in range(i + 1, len(C.basis)))
        C = generated_subgroup(pres, gens)
    cache["center"] = C
    return C


def upper_central_series(pres) -> CentralSeries:
    cache = pres.cache
    if "ucs" not in cache:
        whole = whole_group(pres)
        terms = [trivial_subgroup(pres)]
        current = terms[0]
        while current != whole:
            if current.log_order == 0:
                bigger = center(pres)
            else:
                quotient, project, lift = quotient_presentation(pres, current)
                zq = center(quotient)
                bigger = generated_subgroup(
                    pres, [lift(b) for b in zq.basis] + list(current.basis))
            if bigger.log_order <= current.log_order:
                raise AssertionError("upper central series failed to ascend")
            terms.append(bigger)
            current = bigger
        widths = [terms[i + 1].log_order - terms[i].log_order
                  for i in range(len(terms) - 1)]
        cache["ucs"] = CentralSeries("upper", terms, widths)
    return cache["ucs"]


# ----------------------------------------------------------------------
# agemo, omega, exponent, Frattini

def frattini(pres) -> Subgroup:
    cache = pres.cache
    if "frattini" not in cache:
        gens = list(derived_subgroup(pres).basis)
        gens.extend(pres.power(g, pres.p) for g in pres.gens())
        cache["frattini"] = generated_subgroup(pres, gens)
    return cache["frattini"]


def frattini_quotient(pres):
    """(quotient presentation of G/Frattini, project, lift)."""
    return quotient_presentation(pres, frattini(pres))


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
    cache = pres.cache
    if "power-kernel-start" not in cache:
        # sub aside, the terms that qualify are the gamma_k from some k on
        k = max(2, nilpotency_class(pres) - pres.p + 2)
        while not (is_abelian_subgroup(pres, gamma(pres, k)) and all(
                pres.power(b, pres.p) == pres.identity
                for b in gamma(pres, k).basis)):
            k += 1
        cache["power-kernel-start"] = k
    k = cache["power-kernel-start"]
    while not sub.contains_subgroup(gamma(pres, k)):
        k += 1
    N = gamma(pres, k)
    check_budget(sub.order // N.order, budget,
                 "p-th power sweep needs {} cosets")
    leads = set(N.leads)
    return N, _products(pres, [b for b in sub.basis
                               if _leading(b) not in leads])


def agemo(pres, budget=None) -> Subgroup:
    """The subgroup generated by all p-th powers: by the p-th powers of
    one transversal modulo the Hall-Petrescu term of _coset_sweep."""
    cache = pres.cache
    if "agemo" not in cache:
        _, reps = _coset_sweep(pres, whole_group(pres), budget)
        cache["agemo"] = generated_subgroup(
            pres, {pres.power(r, pres.p) for r in reps})
    return cache["agemo"]


def agemo_brute(pres, budget=None) -> Subgroup:
    """Reference agemo by enumerating every element's p-th power."""
    check_budget(pres.order, budget, "brute agemo needs {} elements")
    gens = {pres.power(v, pres.p) for v in pres.elements()}
    return generated_subgroup(pres, gens)


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


def maximal_subgroups(pres):
    """Index-p subgroups, ordered by their direction in G/Frattini."""
    cache = pres.cache
    if "maximals" in cache:
        return cache["maximals"]
    quotient, project, lift = frattini_quotient(pres)
    p, r = pres.p, quotient.n
    phi = frattini(pres)
    out = []
    for direction in _projective_points(p, r):
        # for rank 2 a maximal subgroup is the preimage of one line;
        # above that, of the hyperplane orthogonal to the direction
        if r == 2:
            span = [direction]
        else:
            span = _left_nullspace([[d] for d in direction], p)
        gens = list(phi.basis) + [lift(v) for v in span]
        out.append((direction, generated_subgroup(pres, gens)))
    maximals = [sub for _, sub in sorted(out, key=lambda t: t[0])]
    cache["maximals"] = maximals
    return maximals


def _projective_points(p, r):
    """Normalized direction vectors (first nonzero entry 1), lex order."""
    pts = []
    for v in itertools.product(range(p), repeat=r):
        lead = next((x for x in v if x), None)
        if lead == 1:
            pts.append(v)
    return sorted(pts)


def maximal_subgroup_of(pres, vec) -> list:
    """The maximal subgroups containing vec (one unless vec is a Frattini element)."""
    return [m for m in maximal_subgroups(pres) if vec in m]


# ----------------------------------------------------------------------
# predicates

def is_metabelian(pres) -> bool:
    cache = pres.cache
    if "metabelian" not in cache:
        cache["metabelian"] = is_abelian_subgroup(pres, derived_subgroup(pres))
    return cache["metabelian"]


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


def is_thin(pres, budget=None) -> ThinReport:
    """Sandwich test: every normal subgroup between consecutive lower
    central terms, and every layer of width at most p^2."""
    cache = pres.cache
    if "thin" in cache:
        return cache["thin"]
    result = _is_thin_impl(pres, budget)
    cache["thin"] = result
    return result


def _is_thin_impl(pres, budget):
    quotient, project, lift = frattini_quotient(pres)
    if quotient.n < 2:
        return ThinReport(False, witness_kind="cyclic")
    series = lower_central_series(pres)
    for i, w in enumerate(series.widths, start=1):
        if w > 2:
            return ThinReport(False, witness_kind="width", layer=i)
    c = len(series.terms) - 1
    for i in range(1, c + 1):
        upper = series.terms[i - 1]
        target = series.terms[i]
        deeper = series.terms[i + 1] if i + 1 < len(series.terms) else trivial_subgroup(pres)
        ok, bad = _covering_holds_on_layer(pres, upper, target, deeper)
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


def _covering_holds_on_layer(pres, upper, target, deeper):
    """Check [g,G] deeper = target for all g in upper minus target,
    ranging g over representatives modulo deeper (enough: commutators
    of deeper against G land below deeper)."""
    group, lift = pres, None
    if deeper.log_order:
        group, project, lift = quotient_presentation(pres, deeper)
        upper = generated_subgroup(group, [project(b) for b in upper.basis])
        target = generated_subgroup(group, [project(b) for b in target.basis])
    for u in upper.elements():
        if u in target or u == group.identity:
            continue
        comms = [group.commutator(u, g) for g in group.gens()]
        if generated_subgroup(group, comms) != target:
            return False, lift(u) if lift else u
    return True, None


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


def is_thin_brute(pres, budget=None) -> bool:
    """Definitional test over the full normal subgroup lattice."""
    series = lower_central_series(pres)
    for sub in normal_subgroups(pres, budget):
        if not any(
            series.terms[i].contains_subgroup(sub)
            and (i + 1 >= len(series.terms) or sub.contains_subgroup(series.terms[i + 1]))
            for i in range(len(series.terms))
        ):
            return False
    for w in series.widths:
        if w > 2:
            return False
    if frattini_quotient(pres)[0].n < 2:
        return False
    return True


def normal_subgroups(pres, budget=None):
    """All normal subgroups: cyclic normal closures, closed under join."""
    check_budget(pres.order, budget, "normal subgroup walk needs {} elements")
    found = {}
    for v in pres.elements():
        sub = normal_closure(pres, [v])
        found.setdefault(sub.basis, sub)
    frontier = list(found.values())
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(found.values()):
                join = subgroup_join(pres, a, b)
                if join.basis not in found:
                    found[join.basis] = join
                    fresh.append(join)
        frontier = fresh
    return sorted(found.values(), key=lambda s: (s.log_order, s.basis))


# ----------------------------------------------------------------------
# normal subgroup lattice of a thin group

@dataclass
class LatticeLayer:
    index: int
    width: int          # log_p of the layer order
    count: int          # normal subgroups N with term(i+1) <= N <= term(i)
    tag: str            # chain | diamond | other


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
    layers = []
    for i in range(1, len(series.terms)):
        upper, lower = series.terms[i - 1], series.terms[i]
        width = series.widths[i - 1]
        if width == 1:
            layers.append(LatticeLayer(i, width, 2, "chain"))
            continue
        # width 2: the layer is abelian; elementary gives p+1 intermediate
        # subgroups (diamond), cyclic gives exactly one
        elementary = all(pres.power(b, pres.p) in lower for b in upper.basis)
        if elementary:
            layers.append(LatticeLayer(i, width, pres.p + 3, "diamond"))
        else:
            layers.append(LatticeLayer(i, width, 3, "other"))
    return LatticeProfile(layers, ends_with_chain=layers[-1].tag == "chain" if layers else False)


def lattice_nodes(pres, budget=None):
    """(subgroup, layer index) pairs for every normal subgroup of a thin
    group, plus the covering edges, both canonically ordered."""
    profile = lattice_profile(pres, budget)
    series = lower_central_series(pres)
    p = pres.p
    nodes = []
    edges = []
    term_ids = {}
    for i, term in enumerate(series.terms, start=1):
        term_ids[term.basis] = len(nodes)
        nodes.append((term, i))
    for layer in profile.layers:
        upper = series.terms[layer.index - 1]
        lower = series.terms[layer.index]
        top, bottom = term_ids[upper.basis], term_ids[lower.basis]
        if layer.tag == "chain":
            edges.append((top, bottom))
            continue
        # two independent generators of the layer, picked greedily
        gens = []
        grown = lower
        for b in upper.basis:
            if b not in grown:
                gens.append(b)
                grown = generated_subgroup(pres, list(grown.basis) + [b])
            if len(gens) == 2:
                break
        if layer.tag == "diamond":
            mids = [generated_subgroup(
                        pres, list(lower.basis) + [_basis_product(pres, gens, d)])
                    for d in _projective_points(p, 2)]
        else:
            u = gens[0] if pres.power(gens[0], p) not in lower else gens[1]
            mids = [generated_subgroup(pres, list(lower.basis) + [pres.power(u, p)])]
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


def covering_property_check(pres, rng, samples_per_layer=3) -> bool:
    """Spot-check that commutation with random layer elements regenerates
    the next lower central term."""
    series = lower_central_series(pres)
    for i in range(1, len(series.terms)):
        upper = series.terms[i - 1]
        target = series.terms[i]
        deeper = series.terms[i + 1] if i + 1 < len(series.terms) else trivial_subgroup(pres)
        if upper.log_order == target.log_order:
            continue
        for _ in range(samples_per_layer):
            g = upper.random_element(rng)
            while g in target:
                g = upper.random_element(rng)
            comms = [pres.commutator(g, h) for h in pres.gens()]
            span = generated_subgroup(pres, comms + list(deeper.basis))
            if span != target:
                return False
    return True


# ----------------------------------------------------------------------
# exponent-p maximal subgroups

def exponent_p_maximal_count(pres, budget=None) -> int:
    """How many maximal subgroups have exponent p."""
    cache = pres.cache
    if "exp-p-maximals" not in cache:
        cache["exp-p-maximals"] = sum(
            1 for sub in maximal_subgroups(pres)
            if maximal_has_exponent_p(pres, sub, budget))
    return cache["exp-p-maximals"]


def maximal_has_exponent_p(pres, sub, budget=None) -> bool:
    return exponent(pres, sub, budget) == pres.p
