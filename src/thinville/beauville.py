"""Beauville structures: search, verification, and criteria.

A Beauville structure is a pair of generating pairs whose conjugate
cyclic subgroups meet trivially. In a p-group two nontrivial cyclic
subgroups meet nontrivially exactly when they contain the same order-p
subgroup, so each generating pair is summarized by the conjugacy-closed
set of socle lines of its three members. Disjoint summaries mean a
Beauville structure; the summary is what the search engine enumerates
and what every certificate records.

Refutations are only ever produced by a completed exhaustive sweep, by
the abelian classification, or by the small-power criterion with its
order-p element scan. Positive verdicts always re-verify from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

from .structure import (
    BudgetExceededError,
    _coset_sweep,
    _left_nullspace,
    _memo,
    _projective_points,
    agemo,
    check_budget,
    conjugacy_class,
    conjugacy_class_reps,
    derived_subgroup,
    exponent_p_maximal_count,
    frattini_quotient,
    gamma,
    generated_subgroup,
    is_maximal_class,
    is_metabelian,
    is_thin,
    line_key,
    maximal_has_exponent_p,
    maximal_subgroup_of,
    nilpotency_class,
    quotient_presentation,
    whole_group,
)


# ----------------------------------------------------------------------
# socle lines and fingerprints

def socle_key(pres, a):
    """Label of the unique order-p subgroup of a nontrivial cyclic
    subgroup: the last nontrivial term of a, a^p, a^(p^2), ...; None
    for the identity."""
    if a == pres.identity:
        return None
    while True:
        b = pres.power(a, pres.p)
        if b == pres.identity:
            return line_key(pres, a)
        a = b


def triple_fingerprint(pres, x, y, budget=None):
    """Conjugacy-closed socle lines of x, y, and xy."""
    out = set()
    for m in (x, y, pres.multiply(x, y)):
        key = socle_key(pres, m)
        if key is None:
            raise ValueError("trivial member in a generating pair")
        out |= conjugacy_class(pres, key, budget)
    return frozenset(out)


def generates(pres, x, y) -> bool:
    """Two elements generate a p-group iff they do so modulo the
    Frattini subgroup."""
    r, project, lift = frattini_quotient(pres)
    rows = [project(x), project(y)]
    rank = len(rows) - len(_left_nullspace(rows, pres.p))
    return rank == r


# ----------------------------------------------------------------------
# certificates and verdicts

@dataclass
class BeauvilleCertificate:
    first_pair: tuple
    second_pair: tuple
    first_socles: frozenset
    second_socles: frozenset


@dataclass
class BeauvilleVerdict:
    status: str                    # found | refuted | inconclusive
    method: str
    certificate: BeauvilleCertificate | None = None
    detail: str = ""


def verify_beauville_structure(pres, pair1, pair2, budget=None):
    """(certificate, detail). Recomputes everything; certificate is
    None with a reason when the pairs fail."""
    for x, y in (pair1, pair2):
        if not generates(pres, x, y):
            return None, "a pair does not generate"
    f1 = triple_fingerprint(pres, *pair1, budget)
    f2 = triple_fingerprint(pres, *pair2, budget)
    if not f1.isdisjoint(f2):
        return None, "conjugate cyclic subgroups meet"
    return BeauvilleCertificate(pair1, pair2, f1, f2), "verified"


# ----------------------------------------------------------------------
# exhaustive search

def outside_frattini(pres):
    """The elements outside the Frattini subgroup, in lexicographic
    order, each mapped to its image in the Frattini quotient."""
    r, project, lift = frattini_quotient(pres)
    zero = (0,) * r
    images = ((v, project(v)) for v in pres.elements())
    return {v: d for v, d in images if d != zero}


@_memo
def _class_count_bound(pres, budget=None):
    """A lower bound on the number of conjugacy classes outside the
    Frattini subgroup: the count for Q = G/gamma_4.  As gamma_4 lies in
    the Frattini subgroup, every class of G outside it maps onto a class
    of Q outside the Frattini subgroup of Q, and every such class of Q
    is the image of one.  Q is small: |Q| <= p^5 for a thin group."""
    quotient = quotient_presentation(pres, gamma(pres, 4))[0]
    check_budget(quotient.order, budget, "class count bound needs {} elements")
    return len(conjugacy_class_reps(quotient, outside_frattini(quotient),
                                    budget)[0])


def _socle_bits(pres, pool, reps, rep_of, budget=None):
    """Each pool element mapped to its socle-orbit bit: one bit per
    conjugacy orbit of socle lines, in order of first appearance in
    pool.  The bit is a class function, as socle(v^g) = socle(v)^g, so
    socle_key runs on the class representatives only, as
    conjugacy_class_reps gives them.  Each is its class's first member
    in pool, so the bits come in the same order as element by element."""
    bit_of, rep_bit = {}, {}
    for r in reps:
        lines = conjugacy_class(pres, socle_key(pres, r), budget)
        rep_bit[r] = bit_of.setdefault(lines, 1 << len(bit_of))
    return {v: rep_bit[rep_of[v]] for v in pool}


def _bit_blind_tail(pres, pool, bits):
    """The least t >= 1 such that each g_k with k > t lies in the
    Frattini subgroup and bits[v g_k] == bits[v] for every v in pool,
    checked generator by generator from g_n down to the first failure.

    Then K = <g_(t+1), ..., g_n> is the set of normal forms with zero
    head, a normal subgroup inside the Frattini subgroup, and v K is the
    set of normal forms with v's first t exponents.  Each v k is a
    product of such generators onto v, so bits, like the Frattini image,
    is constant on v K."""
    r, project, lift = frattini_quotient(pres)
    zero = (0,) * r
    t = pres.n
    while t > 1:
        g = pres.gen(t)
        if project(g) != zero or any(bits[pres.multiply(v, g)] != bits[v]
                                     for v in pool):
            break
        t -= 1
    return t


def exhaustive_beauville(pres, budget=None) -> BeauvilleVerdict:
    """Enumerate every generating pair up to conjugacy of the first
    member, collect the distinct fingerprints, and look for a disjoint
    pair. Completing the sweep with no disjoint pair refutes.

    The sweep reads only what the fingerprint can see.  The socle-orbit
    bits are computed once per conjugacy class, and y runs over one
    transversal of the bit-blind tail K of _bit_blind_tail: the p^t
    normal forms with zero tail.  On y K the direction of y and the
    fingerprint bits[x] | bits[y] | bits[xy] are constant (xy k = x(yk)),
    and the zero-tail y is the lexicographically first of its block, so
    the fingerprints, their first pairs and their order are those of
    the sweep over every y.  The budget gates count every y, so the
    sweep does fewer pair evaluations than they admit, never more."""
    r, project, lift = frattini_quotient(pres)
    if r != 2:
        # rank 1: every two cyclic subgroups share the unique socle;
        # rank > 2: no two elements generate at all
        return BeauvilleVerdict("refuted", "exhaustive", None,
                                "the group is not two-generated")
    # the pool outside the Frattini subgroup is a union of cosets of the
    # derived subgroup, and each conjugacy class lies in one of them, so
    # the class count is at least their number
    pool_size = pres.order - pres.order // pres.p ** 2
    least = pool_size * (pool_size // derived_subgroup(pres).order)
    limit = check_budget(least, budget,
                         "exhaustive search needs at least {} pair evaluations")
    if pool_size * pool_size > limit:
        check_budget(_class_count_bound(pres, budget) * pool_size, budget,
                     "exhaustive search needs at least {} pair evaluations")
    pool = outside_frattini(pres)
    reps, rep_of = conjugacy_class_reps(pres, pool, budget)
    check_budget(len(reps) * len(pool), budget,
                 "exhaustive search needs {} pair evaluations")
    # a pair's fingerprint is the OR of its members' bits
    bits = _socle_bits(pres, pool, reps, rep_of, budget)
    t, p = _bit_blind_tail(pres, pool, bits), pres.p
    tail = (0,) * (pres.n - t)
    heads = [(y, pool.get(y)) for y in (
        head + tail for head in product(range(p), repeat=t))]
    gens = pres.gens()[:t]
    fingerprints = {}
    for x in reps:
        px, bx = pool[x], bits[x]
        # x*y for every zero-tail y, in the lexicographic order of y
        for (y, py), m in zip(heads, pres.products(gens, x)):
            if py is None or (px[0] * py[1] - px[1] * py[0]) % p == 0:
                continue
            # x and y are independent modulo the Frattini subgroup, so
            # xy lies outside it and is in the pool
            fp = bx | bits[y] | bits[m]
            if fp not in fingerprints:
                fingerprints[fp] = (x, y)
    for (f1, p1), (f2, p2) in combinations(fingerprints.items(), 2):
        if not f1 & f2:
            cert, detail = verify_beauville_structure(pres, p1, p2, budget)
            if cert is None:
                raise AssertionError(
                    "disjoint fingerprints failed re-verification: " + detail)
            return BeauvilleVerdict("found", "exhaustive", cert)
    return BeauvilleVerdict(
        "refuted", "exhaustive", None,
        f"all {len(fingerprints)} fingerprints pairwise intersect")


# ----------------------------------------------------------------------
# criteria

@dataclass
class OmegaReport:
    applies: bool
    refuted: bool
    directions: tuple
    detail: str = ""


def omega_negative_test(pres, budget=None) -> OmegaReport:
    """No Beauville structure exists when the power subgroup has order
    p and the order-p elements fall inside two maximal subgroups.

    Elements of the Frattini subgroup lie in every maximal subgroup and
    are ignored.  The scan reads one representative per coset of the
    Hall-Petrescu term N of structure._coset_sweep: N lies in the
    Frattini subgroup, so a coset has one direction, and one element
    order unless it is N itself.
    """
    if agemo(pres, budget).order != pres.p:
        return OmegaReport(False, False, (),
                           "power subgroup does not have order p")
    _, project, _ = frattini_quotient(pres)
    _, reps = _coset_sweep(pres, whole_group(pres), budget)
    directions = {_direction_of(pres, project, r) for r in reps
                  if pres.power(r, pres.p) == pres.identity}
    directions.discard(None)
    dirs = tuple(sorted(directions))
    refuted = len(dirs) <= 2
    return OmegaReport(True, refuted, dirs,
                       f"order-p elements span {len(dirs)} maximal directions")


def abelian_invariants(pres):
    """Invariant factor exponents of an abelian presentation, largest
    first, read off the p^k-th power subgroup filtration."""
    if derived_subgroup(pres).order != 1:
        raise ValueError("invariant factors require an abelian group")
    logs = []
    k = 0
    while True:
        gens = [pres.power(pres.gen(i), pres.p ** k)
                for i in range(1, pres.n + 1)]
        sub = generated_subgroup(pres, gens)
        logs.append(sub.log_order)
        if sub.order == 1:
            break
        k += 1
    # counts[k] = number of invariant factors of exponent above k
    counts = [logs[j] - logs[j + 1] for j in range(len(logs) - 1)]
    out = []
    for j in range(len(counts)):
        exact = counts[j] - (counts[j + 1] if j + 1 < len(counts) else 0)
        out.extend([j + 1] * exact)
    return tuple(sorted(out, reverse=True))


def catanese_criterion(pres) -> BeauvilleVerdict:
    """Abelian groups: Beauville exactly for a square of one cyclic
    factor over a prime at least five."""
    factors = abelian_invariants(pres)
    if len(factors) == 2 and factors[0] == factors[1] and pres.p >= 5:
        return BeauvilleVerdict(
            "found", "catanese", None,
            f"square abelian shape with exponent p^{factors[0]}, p >= 5")
    return BeauvilleVerdict(
        "refuted", "catanese", None,
        f"abelian invariants {factors} with p = {pres.p}")


# ----------------------------------------------------------------------
# four-case classification

@dataclass
class TheoremAClassification:
    in_scope: bool
    reason: str = ""
    case_label: str | None = None
    predicted_beauville: bool | None = None
    exponent_p_maximals: int | None = None
    details: dict = field(default_factory=dict)


def classify_theorem_a(pres, budget=None) -> TheoremAClassification:
    p = pres.p
    if p < 5:
        return TheoremAClassification(False, "prime below five")
    if not is_metabelian(pres):
        return TheoremAClassification(False, "not metabelian")
    if not is_thin(pres, budget).thin:
        return TheoremAClassification(False, "not thin")
    if is_maximal_class(pres):
        return TheoremAClassification(False, "maximal class excluded")
    c = nilpotency_class(pres)
    if c < p:
        return TheoremAClassification(False, "class below p")
    if c > p + 1:
        return TheoremAClassification(False, "class above p plus one")
    details = {"class": c}
    if c == p + 1:
        return TheoremAClassification(True, "", "A2", True, None, details)
    deep = gamma(pres, p)
    details["deepest_order"] = deep.order
    if deep.order == p * p:
        return TheoremAClassification(True, "", "A1", True, None, details)
    if deep.order != p:
        return TheoremAClassification(
            True, "deepest term has unexpected order", None, None, None,
            details)
    ag = agemo(pres, budget)
    details["power_subgroup_log"] = ag.log_order
    if ag.basis == gamma(pres, p - 1).basis:
        return TheoremAClassification(True, "", "A3", True, None, details)
    if ag.basis == deep.basis:
        count = exponent_p_maximal_count(pres, budget)
        return TheoremAClassification(True, "", "A4", count >= 3, count,
                                      details)
    return TheoremAClassification(
        True, "power subgroup matches no case", None, None, None, details)


# ----------------------------------------------------------------------
# guided search

def _direction_of(pres, project, v):
    d = project(v)
    lead = next((e for e in d if e), None)
    if lead is None:
        return None
    inv = pow(lead, -1, pres.p)
    return tuple((e * inv) % pres.p for e in d)


def _pair_for_directions(pres, lift, d1, d2, d3):
    """Generating pair (x, y) whose triple x, y, xy falls into the
    maximal subgroups named by three distinct directions. Scaling the
    lifts of d1 and d2 steers the product onto the d3 line."""
    p = pres.p
    c1 = (d2[0] * d3[1] - d2[1] * d3[0]) % p
    c2 = (d3[0] * d1[1] - d3[1] * d1[0]) % p
    return pres.power(lift(d1), c1), pres.power(lift(d2), c2)


def _guided_candidates(pres, cls, budget=None):
    """The direction-partition sweep: one candidate structure per pair of
    disjoint direction triples, lazily.  Any three distinct maximal
    directions can host a generating triple, so the pairs built on two
    disjoint triples have images that cannot collide downstairs.  In
    case A4 with a positive prediction the first triple lies in the
    exponent-p maximal subgroups.  Verification is the caller's job."""
    _, _, lift = frattini_quotient(pres)
    dirs = _projective_points(pres.p, 2)
    first = dirs
    if cls.case_label == "A4" and cls.predicted_beauville:
        first = [d for d in dirs
                 if maximal_has_exponent_p(
                     pres, maximal_subgroup_of(pres, lift(d))[0], budget)]
    for t1 in combinations(first, 3):
        rest = [d for d in dirs if d not in t1]
        for t2 in combinations(rest, 3):
            yield (_pair_for_directions(pres, lift, *t1),
                   _pair_for_directions(pres, lift, *t2))


def guided_beauville(pres, budget=None) -> BeauvilleVerdict:
    """Case-driven search. Positive cases walk recipe candidates and
    re-verify each; the remaining case refutes through the order-p
    element scan when it applies."""
    cls = classify_theorem_a(pres, budget)
    if not cls.in_scope:
        if derived_subgroup(pres).order == 1:
            return catanese_criterion(pres)
        return BeauvilleVerdict(
            "inconclusive", "guided", None,
            f"no recipe: {cls.reason}")
    if cls.case_label is None:
        return BeauvilleVerdict("inconclusive", "guided", None, cls.reason)
    if cls.case_label == "A4" and not cls.predicted_beauville:
        report = omega_negative_test(pres, budget)
        if report.applies and report.refuted:
            return BeauvilleVerdict(
                "refuted", "omega", None, report.detail)
        return BeauvilleVerdict(
            "inconclusive", "guided-A4", None,
            "two or fewer exponent-p maximal subgroups but the order-p "
            "scan did not confirm; " + report.detail)
    tried = 0
    for pair1, pair2 in _guided_candidates(pres, cls, budget):
        tried += 1
        cert, detail = verify_beauville_structure(pres, pair1, pair2,
                                                  budget)
        if cert is not None:
            return BeauvilleVerdict(
                "found", f"guided-{cls.case_label}", cert)
    return BeauvilleVerdict(
        "inconclusive", f"guided-{cls.case_label}", None,
        f"recipe candidates exhausted after {tried} attempts")


def beauville(pres, mode="auto", budget=None) -> BeauvilleVerdict:
    """Dispatch: abelian groups go to the classification, small groups
    to the exhaustive sweep, the rest to the guided recipes.  This is
    the one place where an exceeded budget becomes a verdict:
    inconclusive, by the exhaustive method in exhaustive mode and by
    the guided one otherwise."""
    if mode not in ("auto", "exhaustive", "guided"):
        raise ValueError(f"unknown search mode: {mode}")
    try:
        if mode == "exhaustive":
            return exhaustive_beauville(pres, budget)
        if mode == "guided":
            return guided_beauville(pres, budget)
        if derived_subgroup(pres).order == 1:
            return catanese_criterion(pres)
        try:
            return exhaustive_beauville(pres, budget)
        except BudgetExceededError:
            return guided_beauville(pres, budget)
    except BudgetExceededError as err:
        method = "exhaustive" if mode == "exhaustive" else "guided"
        return BeauvilleVerdict("inconclusive", method, None, str(err))
