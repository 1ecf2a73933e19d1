"""Correctness checks on Beauville verdicts, computed apart from the search.

Every check derives what a verdict must be from the paper's statements
and known results, never from a stored copy of earlier output:

* among the shipped 3-group entries, the metabelian thin Beauville
  groups are exactly sg-3_5-3, sg-3_6-34 and sg-3_6-37, and sg-3_6-40
  is a non-thin Beauville group with a center of order 9;
* an abelian group is Beauville exactly when it is the square of a
  cyclic group and p >= 5 (Catanese's criterion); the shape is recomputed
  here from element orders;
* heisenberg-p is Beauville exactly when p >= 5;
* a thin 5-group entry has the classification case its provenance line
  says it was built for, and its verdict is the Theorem A prediction
  for that case (A1-A3 Beauville; A4 Beauville exactly when at least
  three maximal subgroups have exponent p).

A reported certificate is re-checked from the public arithmetic: each
pair generates G by closure, and no conjugates of the cyclic subgroups
of the first triple meet those of the second.  In a p-group two
nontrivial cyclic subgroups meet exactly when they share their unique
subgroup of order p, so the second test compares those order-p lines up
to conjugacy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from thinville import structure

THIN_BEAUVILLE_3 = frozenset({"sg-3_5-3", "sg-3_6-34", "sg-3_6-37"})
NON_THIN_BEAUVILLE_3 = "sg-3_6-40"

_CASE_RE = re.compile(r"classification case (A[1-4])\b")
_COUNT_WORDS = {"no": 0, "one": 1, "two": 2, "three": 3, "four": 4,
                "five": 5, "six": 6}
_EXP_P_RE = re.compile(r"\b(" + "|".join(_COUNT_WORDS)
                       + r") maximal subgroups? of exponent")
_HEISENBERG_RE = re.compile(r"heisenberg-(\d+)\Z")


@dataclass
class Outcome:
    """What one verdict call returned, reduced to the checked fields."""
    status: str                        # found | refuted | inconclusive
    pairs: tuple | None = None         # (pair1, pair2) of a certificate
    case_label: str | None = None
    exponent_p_maximals: int | None = None


def outcome_of_verdict(verdict) -> Outcome:
    cert = verdict.certificate
    pairs = None if cert is None else (cert.first_pair, cert.second_pair)
    return Outcome(verdict.status, pairs)


def outcome_of_report(report) -> Outcome:
    cert = report.certificate
    pairs = None if cert is None else (cert.first_pair, cert.second_pair)
    return Outcome(report.beauville_status, pairs, report.case_label,
                   report.exponent_p_maximals)


# ----------------------------------------------------------------------
# certificates

def _order_p_member(pres, a):
    """The order-p element of <a> that is a power of a; None for 1."""
    if a == pres.identity:
        return None
    while True:
        b = pres.power(a, pres.p)
        if b == pres.identity:
            return a
        a = b


def _line(pres, s):
    """Label of the order-p subgroup <s>: its least nontrivial member."""
    return min(pres.power(s, k) for k in range(1, pres.p))


def _depth(terms, s):
    """Largest i with s in the i-th lower central term (s nontrivial)."""
    i = 1
    while i < len(terms) and s in terms[i]:
        i += 1
    return i


def _layers_separate(pres, terms, s, t):
    """True when <s> and <t> cannot be conjugate.  A conjugate of s^k
    lies in s^k times the next lower central term, so the two lines are
    only conjugate if they sit at one depth with equal images there."""
    d = _depth(terms, s)
    if d != _depth(terms, t):
        return True
    below = terms[d]
    return not any(
        pres.multiply(pres.inverse(pres.power(s, k)), t) in below
        for k in range(1, pres.p))


def lines_conjugate(pres, s, t) -> bool:
    """Whether the order-p subgroups <s> and <t> are conjugate in G.

    Breadth-first search over both conjugacy orbits at once, one level
    per side in turn, conjugating by the generators; it stops as soon as
    one orbit closes or meets the other line."""
    a, b = _line(pres, s), _line(pres, t)
    if a == b:
        return True
    gens = pres.gens()
    frontier = [[a], [b]]
    seen = [{a}, {b}]
    target = (b, a)
    while True:
        for side in (0, 1):
            grown = []
            for v in frontier[side]:
                for g in gens:
                    w = _line(pres, pres.conjugate(v, g))
                    if w == target[side]:
                        return True
                    if w not in seen[side]:
                        seen[side].add(w)
                        grown.append(w)
            if not grown:
                return False
            frontier[side] = grown


def certificate_problems(pres, pairs) -> list:
    """Reasons the two generating pairs fail to be a Beauville structure."""
    problems = []
    lines = []
    for pair in pairs:
        x, y = pair
        if structure.generated_subgroup(pres, [x, y]).order != pres.order:
            problems.append(f"pair {pair} does not generate G")
        triple = (x, y, pres.multiply(x, y))
        socles = [_order_p_member(pres, m) for m in triple]
        if None in socles:
            problems.append(f"pair {pair} has a trivial member")
            return problems
        lines.append(socles)
    terms = structure.lower_central_series(pres).terms
    for s in lines[0]:
        for t in lines[1]:
            if _layers_separate(pres, terms, s, t):
                continue
            if lines_conjugate(pres, s, t):
                problems.append(
                    f"conjugates of <{s}> and <{t}> meet across the triples")
    return problems


# ----------------------------------------------------------------------
# required verdicts

def _is_abelian(pres) -> bool:
    gens = pres.gens()
    return all(pres.commutator(a, b) == pres.identity
               for i, a in enumerate(gens) for b in gens[i + 1:])


def _square_of_cyclic(pres) -> bool:
    """Abelian G is C_{p^k} x C_{p^k} iff it has exactly p^2 elements of
    order dividing p and an element of order p^(n/2)."""
    order_p = sum(1 for v in pres.elements()
                  if pres.power(v, pres.p) == pres.identity)
    top = max(pres.element_order(g) for g in pres.gens())
    return order_p == pres.p ** 2 and top * top == pres.order


def required_beauville(entry, outcome: Outcome):
    """(required verdict as a bool, list of problems found on the way).
    The verdict is None when no result above decides the entry."""
    pres = entry.presentation
    problems = []
    if entry.source == "builtin":
        m = _HEISENBERG_RE.match(entry.id)
        if m:
            return int(m.group(1)) >= 5, problems
        if _is_abelian(pres):
            return _square_of_cyclic(pres) and pres.p >= 5, problems
        return None, problems
    if pres.p == 3:
        thin = bool(structure.is_thin(pres).thin)
        metabelian = structure.is_metabelian(pres)
        if entry.id == NON_THIN_BEAUVILLE_3:
            if thin:
                problems.append(f"{entry.id} should be non-thin")
            if structure.center(pres).order != 9:
                problems.append(f"{entry.id} should have a center of order 9")
            return True, problems
        if entry.id in THIN_BEAUVILLE_3 and not (thin and metabelian):
            problems.append(f"{entry.id} should be metabelian and thin")
        if thin and metabelian:
            return entry.id in THIN_BEAUVILLE_3, problems
        return None, problems
    m = _CASE_RE.search(entry.provenance)
    if not m:
        return None, problems
    case = m.group(1)
    if outcome.case_label != case:
        problems.append(f"case {outcome.case_label}, provenance says {case}")
    if case != "A4":
        return True, problems
    m = _EXP_P_RE.search(entry.provenance)
    if not m:
        problems.append("A4 provenance names no exponent-p maximal count")
        return None, problems
    count = _COUNT_WORDS[m.group(1)]
    if outcome.exponent_p_maximals != count:
        problems.append(f"{outcome.exponent_p_maximals} exponent-p maximal "
                        f"subgroups, provenance says {count}")
    return count >= 3, problems


def problems_of(entry, outcome: Outcome, certificate_memo: dict) -> list:
    """Everything wrong with one verdict; empty when it is correct.

    certificate_memo maps (entry id, pairs) to the problems found with that
    certificate, so a certificate repeated within one run is checked once."""
    want, problems = required_beauville(entry, outcome)
    if want is None:
        problems.append("no known result decides this entry")
    elif outcome.status != ("found" if want else "refuted"):
        problems.append(f"verdict {outcome.status}, required "
                        f"{'found' if want else 'refuted'}")
    if outcome.status == "found":
        if outcome.pairs is None:
            problems.append("a found verdict without a certificate")
        else:
            key = (entry.id, outcome.pairs)
            if key not in certificate_memo:
                certificate_memo[key] = certificate_problems(
                    entry.presentation, outcome.pairs)
            problems.extend(certificate_memo[key])
    return problems
