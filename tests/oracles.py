"""Brute-force oracles the tests compare the engine against.

Each one answers its question from the definition, by enumerating
elements or subgroups, with no shortcut the engine's fast paths take.
"""

from thinville.structure import (
    Subgroup,
    _leading,
    check_budget,
    frattini_quotient,
    generated_subgroup,
    lower_central_series,
    normal_closure,
    subgroup_join,
)


def agemo_brute(pres, budget=None) -> Subgroup:
    """Reference agemo by enumerating every element's p-th power."""
    check_budget(pres.order, budget, "brute agemo needs {} elements")
    gens = {pres.power(v, pres.p) for v in pres.elements()}
    return generated_subgroup(pres, gens)


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
    if frattini_quotient(pres)[0] < 2:
        return False
    return True


def upper_central_series_brute(pres, budget=None):
    """Every upper central term as an element set, from the definition:
    Z_0 = 1, and Z_(i+1) holds the x with [x, g] in Z_i for every
    generator g, found by enumerating every element, up to G."""
    check_budget(pres.order, budget,
                 "brute upper central series needs {} elements")
    terms = [{pres.identity}]
    while len(terms[-1]) < pres.order:
        terms.append({x for x in pres.elements()
                      if all(pres.commutator(x, g) in terms[-1]
                             for g in pres.gens())})
        if len(terms[-1]) == len(terms[-2]):
            raise AssertionError("upper central series failed to ascend")
    return terms


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


def min_power_label(pres, v):
    """The least of v, v^2, ..., v^(p-1): the line label by definition."""
    return min(pres.power(v, j) for j in range(1, pres.p))


def line_orbit_brute(pres, v, budget=None):
    """The orbit of the line through v under conjugation, as the set of
    its lines' least-power labels: every conjugate is relabelled by
    min_power_label before it is followed, so v must be a label itself.
    The budget is checked on the size of v's coset of
    <g_{l+1}, ..., g_n>, with l the leading index of v."""
    check_budget(pres.p ** (pres.n - (_leading(v) or pres.n)), budget,
                 "conjugacy orbit search needs up to {} elements")
    gens = pres.gens()
    seen = {v}
    queue = [v]
    while queue:
        u = queue.pop()
        for g in gens:
            w = min_power_label(pres, pres.conjugate(u, g))
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def sigma_brute(pres, x, y):
    """The literal union of all conjugates of the three cyclic
    subgroups, as an element set. Oracle for fingerprint disjointness."""
    out = {pres.identity}
    for m in (x, y, pres.multiply(x, y)):
        seen = {m}
        queue = [m]
        while queue:
            v = queue.pop()
            for g in pres.gens():
                w = pres.conjugate(v, g)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        for v in seen:
            u = v
            while u != pres.identity:
                out.add(u)
                u = pres.multiply(u, v)
    return out
