import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from thinville.catalog import BUILTIN_IDS, builtin, data_entry_paths, resolve
from thinville.pcgroup import (
    ConsistencyReport,
    InconsistentPresentationError,
    PcPresentation,
    check_consistency,
    format_element,
    format_word,
    parse_presentation,
    parse_word,
    random_element,
)
from thinville.structure import gamma, maximal_subgroups


# ----------------------------------------------------------------------
# Matrix oracle: unitriangular groups UT(m, p).  The presentation is
# derived from matrix arithmetic alone, so agreement between collected
# products and matrix products validates the collector end to end.

def _matmul(p, A, B):
    m = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(m)) % p for j in range(m))
        for i in range(m))


def _matinv(p, A):
    # (I + N)^-1 = I - N + N^2 - ... with N the nilpotent part
    m = len(A)
    ident = tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))
    N = tuple(tuple((A[i][j] - ident[i][j]) % p for j in range(m)) for i in range(m))
    total = ident
    term = ident
    sign = -1
    for _ in range(m - 1):
        term = _matmul(p, term, N)
        total = tuple(
            tuple((total[i][j] + sign * term[i][j]) % p for j in range(m))
            for i in range(m))
        sign = -sign
    return total


class UnitriangularModel:
    """UT(m, p) with its weight-ordered pc generating sequence."""

    def __init__(self, m, p):
        self.m, self.p = m, p
        self.positions = sorted(
            ((i, j) for i in range(m) for j in range(i + 1, m)),
            key=lambda ij: (ij[1] - ij[0], ij[0]))
        self.ident = tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))
        self.gens = [self._elem_matrix(i, j, 1) for (i, j) in self.positions]
        self.presentation = self._derive_presentation()

    def _elem_matrix(self, i, j, e):
        rows = [list(r) for r in self.ident]
        rows[i][j] = e % self.p
        return tuple(tuple(r) for r in rows)

    def matrix_power(self, A, e):
        out = self.ident
        if e < 0:
            A, e = _matinv(self.p, A), -e
        for _ in range(e):
            out = _matmul(self.p, out, A)
        return out

    def vector_of(self, A):
        # peel exponents in pc order; works because later generators
        # cannot touch the leading position of an earlier one
        vec = []
        for k, (i, j) in enumerate(self.positions):
            e = A[i][j] % self.p
            vec.append(e)
            A = _matmul(self.p, self.matrix_power(self.gens[k], -e), A)
        assert A == self.ident
        return tuple(vec)

    def matrix_of(self, vec):
        A = self.ident
        for k, e in enumerate(vec):
            A = _matmul(self.p, A, self.matrix_power(self.gens[k], e))
        return A

    def _derive_presentation(self):
        n = len(self.positions)
        powers = {}
        commutators = {}
        for k in range(n):
            vec = self.vector_of(self.matrix_power(self.gens[k], self.p))
            powers[k + 1] = [(t + 1, e) for t, e in enumerate(vec) if e]
        for b in range(n):
            for a in range(b):
                gj, gi = self.gens[b], self.gens[a]
                commut = _matmul(
                    self.p,
                    _matmul(self.p, _matinv(self.p, gj), _matinv(self.p, gi)),
                    _matmul(self.p, gj, gi))
                vec = self.vector_of(commut)
                commutators[(b + 1, a + 1)] = [(t + 1, e) for t, e in enumerate(vec) if e]
        return PcPresentation(self.p, n, powers, commutators)


@pytest.fixture(scope="module")
def ut35():
    return UnitriangularModel(3, 5)


@pytest.fixture(scope="module")
def ut43():
    return UnitriangularModel(4, 3)


@pytest.fixture(scope="module")
def h5():
    # Heisenberg group of order 125: all fifth powers trivial, [g2,g1] = g3
    return PcPresentation(5, 3, powers={}, commutators={(2, 1): [(3, 1)]})


def test_unitriangular_presentations_are_consistent(ut35, ut43):
    assert ut35.presentation.is_consistent()
    assert ut43.presentation.is_consistent()


@pytest.mark.parametrize("model_name", ["ut35", "ut43"])
def test_collector_matches_matrix_oracle(model_name, request):
    model = request.getfixturevalue(model_name)
    P = model.presentation
    rng = random.Random(7)
    for _ in range(300):
        a = random_element(P, rng)
        b = random_element(P, rng)
        want = model.vector_of(_matmul(model.p, model.matrix_of(a), model.matrix_of(b)))
        assert P.multiply(a, b) == want


def test_inverse_and_power_match_matrix_oracle(ut43):
    P = ut43.presentation
    rng = random.Random(11)
    for _ in range(100):
        a = random_element(P, rng)
        assert P.inverse(a) == ut43.vector_of(_matinv(ut43.p, ut43.matrix_of(a)))
        k = rng.randrange(-10, 30)
        assert P.power(a, k) == ut43.vector_of(ut43.matrix_power(ut43.matrix_of(a), k))


def test_conjugate_matches_matrix_oracle(ut43):
    # generators take the cached-inverse path, random elements the other
    P = ut43.presentation
    rng = random.Random(13)
    conjugators = P.gens() + [random_element(P, rng) for _ in range(6)]
    for _ in range(20):
        a = random_element(P, rng)
        for g in conjugators:
            mg = ut43.matrix_of(g)
            want = _matmul(ut43.p, _matmul(ut43.p, _matinv(ut43.p, mg),
                                           ut43.matrix_of(a)), mg)
            assert P.conjugate(a, g) == ut43.vector_of(want)


def test_deep_tower_collector_matches_matrix_oracle():
    model = UnitriangularModel(5, 3)  # rank 10, class 4
    P = model.presentation
    assert P.is_consistent()
    rng = random.Random(23)
    for _ in range(60):
        a = random_element(P, rng)
        b = random_element(P, rng)
        want = model.vector_of(_matmul(3, model.matrix_of(a), model.matrix_of(b)))
        assert P.multiply(a, b) == want


# ----------------------------------------------------------------------
# frozen expected values on the Heisenberg group

def test_collect_swap(h5):
    assert h5.collect([(2, 1), (1, 1)]) == (1, 1, 1)


def test_collect_empty_word_is_identity(h5):
    assert h5.collect([]) == (0, 0, 0)


def test_commutator_echoes_relator(h5):
    assert h5.commutator(h5.gen(2), h5.gen(1)) == h5.gen(3)


def test_product_fifth_power_is_identity(h5):
    xy = h5.multiply(h5.gen(1), h5.gen(2))
    assert h5.power(xy, 5) == h5.identity


def test_generator_inverse(h5):
    assert h5.inverse(h5.gen(1)) == (4, 0, 0)


def test_generator_power_relator(h5):
    assert h5.power(h5.gen(1), 5) == h5.identity


def test_left_normed_commutator(h5):
    g1, g2 = h5.gen(1), h5.gen(2)
    assert h5.left_normed_commutator(g2, [g1]) == h5.gen(3)
    assert h5.left_normed_commutator(g2, [g1, g1]) == h5.identity


def test_element_orders(h5):
    assert h5.element_order(h5.identity) == 1
    assert h5.element_order(h5.gen(1)) == 5
    assert h5.element_order((2, 3, 1)) == 5


def test_inverse_axiom_exhaustive(h5):
    for a in h5.elements():
        assert h5.multiply(a, h5.inverse(a)) == h5.identity
        assert h5.multiply(h5.inverse(a), a) == h5.identity


def test_associativity_exhaustive_pairs(h5):
    rng = random.Random(3)
    c = random_element(h5, rng)
    for a, b in itertools.product(h5.elements(), repeat=2):
        assert h5.multiply(h5.multiply(a, b), c) == h5.multiply(a, h5.multiply(b, c))


# ----------------------------------------------------------------------
# towers with nontrivial power relators

@pytest.fixture(scope="module")
def c25c25():
    return PcPresentation(5, 4, powers={1: [(3, 1)], 2: [(4, 1)]})


def test_tower_generator_order(c25c25):
    assert c25c25.element_order(c25c25.gen(1)) == 25
    assert c25c25.element_order((1, 1, 0, 0)) == 25
    assert c25c25.element_order(c25c25.gen(3)) == 5


def test_tower_power_overflow(c25c25):
    g1 = c25c25.gen(1)
    assert c25c25.power(g1, 5) == c25c25.gen(3)
    assert c25c25.power(g1, 25) == c25c25.identity
    assert c25c25.collect([(1, 7)]) == (2, 0, 1, 0)


def test_negative_exponents_in_collect(c25c25):
    g1 = c25c25.gen(1)
    assert c25c25.collect([(1, -1)]) == c25c25.power(g1, 24)
    assert c25c25.collect([(1, -3), (1, 3)]) == c25c25.identity


def test_cyclic_27_tower():
    P = PcPresentation(3, 3, powers={1: [(2, 1)], 2: [(3, 1)]})
    assert P.is_consistent()
    assert P.element_order(P.gen(1)) == 27
    assert P.power(P.gen(1), 9) == P.gen(3)
    assert P.element_order(P.gen(2)) == 9


# ----------------------------------------------------------------------
# consistency checking

def test_h5_consistent(h5):
    report = check_consistency(h5)
    assert isinstance(report, ConsistencyReport)
    assert report.consistent
    assert report.failures == []


def test_elementary_abelian_consistent():
    assert PcPresentation(3, 2).is_consistent()


def test_mutated_h5_commutator_word():
    # same tower with [g2,g1] = g3^2; the checker decides, not an assumption
    P = PcPresentation(5, 3, commutators={(2, 1): [(3, 2)]})
    assert check_consistency(P).consistent


def test_inconsistent_power_tower_detected():
    # g1^3 = g2 forces [g2,g1] = 1, contradicting the commutator relator
    P = PcPresentation(
        3, 3,
        powers={1: [(2, 1)], 2: [(3, 1)]},
        commutators={(2, 1): [(3, 1)]})
    report = check_consistency(P)
    assert not report.consistent
    assert any(kind == "power-self" for kind, *_ in report.failures)
    with pytest.raises(InconsistentPresentationError):
        P.multiply(P.gen(1), P.gen(2))


# ----------------------------------------------------------------------
# parsing and formatting

H5_TEXT = """
# Heisenberg group of order 125
p 5
n 3
comm 2 1 = g3
"""


def test_parse_presentation_roundtrip():
    P = parse_presentation(H5_TEXT)
    assert (P.p, P.n) == (5, 3)
    assert P.is_consistent()
    assert P.commutator(P.gen(2), P.gen(1)) == P.gen(3)


def test_parse_word_forms():
    assert parse_word("1") == []
    assert parse_word("g1^2 g3") == [(1, 2), (3, 1)]
    assert parse_word("g1^2*g3^-1") == [(1, 2), (3, -1)]
    assert format_word([(1, 2), (3, 1)]) == "g1^2 g3"
    assert format_word([]) == "1"
    assert format_element((1, 0, 2)) == "g1 g3^2"
    assert format_element((0, 0, 0)) == "1"


def test_parse_rejects_nonprime_modulus():
    with pytest.raises(ValueError, match="non-prime modulus"):
        parse_presentation("p 4\nn 2\n")


def test_parse_rejects_word_index_at_or_below_base():
    with pytest.raises(ValueError, match="word index not above base"):
        parse_presentation("p 5\nn 2\npow 1 = g1\n")
    with pytest.raises(ValueError, match="word index not above base"):
        PcPresentation(5, 3, commutators={(3, 1): [(2, 1)]})


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError, match="malformed syntax"):
        parse_presentation("p 5\nn 2\nfrobnicate\n")
    with pytest.raises(ValueError, match="missing p or n"):
        parse_presentation("# empty\n")
    with pytest.raises(ValueError, match="duplicate relator"):
        parse_presentation("p 5\nn 3\ncomm 2 1 = g3\ncomm 2 1 = g3^2\n")


def test_presentation_rejects_out_of_range_index():
    with pytest.raises(ValueError, match="generator index out of range"):
        PcPresentation(5, 2, powers={3: []})
    with pytest.raises(ValueError, match="out of range"):
        parse_presentation("p 5\nn 2\npow 1 = g7\n")


# ----------------------------------------------------------------------
# algebraic properties

@settings(deadline=None, max_examples=60)
@given(st.integers(-40, 40), st.integers(-40, 40), st.data())
def test_power_compatibility(k, m, data):
    P = PcPresentation(5, 3, commutators={(2, 1): [(3, 1)]})
    a = tuple(data.draw(st.integers(0, 4)) for _ in range(3))
    assert P.power(a, k + m) == P.multiply(P.power(a, k), P.power(a, m))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_collect_splits_agree(data):
    # collect(w1 ++ w2) equals collect(w1) * collect(w2): rebracketing safety
    model_p = 3
    P = UnitriangularModel(4, model_p).presentation
    w = [(data.draw(st.integers(1, P.n)), data.draw(st.integers(-6, 6)))
         for _ in range(data.draw(st.integers(0, 8)))]
    cut = data.draw(st.integers(0, len(w)))
    assert P.collect(w) == P.multiply(P.collect(w[:cut]), P.collect(w[cut:]))


def test_order_of_pth_power_drops(c25c25):
    rng = random.Random(5)
    for _ in range(40):
        a = random_element(c25c25, rng)
        o = c25c25.element_order(a)
        if o > 1:
            assert c25c25.element_order(c25c25.power(a, 5)) == o // 5


# ----------------------------------------------------------------------
# differential oracle: collection by recursion on the generator index

class RecursiveCollector(PcPresentation):
    """The same presentation collected by recursion on the generator
    index, with tuple-keyed conjugate memos: every arithmetic method and
    the consistency check run on this reference collection, and
    conjugation is the two folds g^-1 a g."""

    def __init__(self, pres):
        super().__init__(
            pres.p, pres.n,
            {i: pres.word_of(v) for i, v in enumerate(pres._powvec, 1)},
            {ji: pres.word_of(v) for ji, v in pres._comvec.items()})
        self._conj, self._conjpow = {}, {}

    def _rmul(self, v, i, e):
        if e == 0:
            return v
        i0 = i - 1
        s = v[i0] + e
        tail = [(j0, v[j0]) for j0 in range(i0 + 1, self.n) if v[j0]]
        out = list(v)
        out[i0] = s % self.p
        for j0, _ in tail:
            out[j0] = 0
        w = tuple(out)
        if s >= self.p:
            w = self._fold(w, self._powvec[i0])
        for j0, a in tail:
            w = self._fold(w, self._conj_gen_pow(j0 + 1, i, e, a))
        return w

    def _fold(self, v, w):
        for j0, e in enumerate(w):
            if e:
                v = self._rmul(v, j0 + 1, e)
        return v

    def _conj_gen(self, j, i, r):
        key = (j, i, r)
        if key not in self._conj:
            if r == 1:
                res = self._fold(self._gens[j - 1],
                                 self._comvec.get((j, i), self.identity))
            else:
                res = self.identity
                for j0, a in enumerate(self._conj_gen(j, i, r - 1)):
                    if a:
                        res = self._fold(res,
                                         self._conj_gen_pow(j0 + 1, i, 1, a))
            self._conj[key] = res
        return self._conj[key]

    def _conj_gen_pow(self, j, i, r, e):
        if e == 1:
            return self._conj_gen(j, i, r)
        key = (j, i, r, e)
        if key not in self._conjpow:
            self._conjpow[key] = self._fold(
                self._conj_gen_pow(j, i, r, e - 1), self._conj_gen(j, i, r))
        return self._conjpow[key]

    def _collect(self, word):
        v = self.identity
        for idx, exp in word:
            if exp > 0:
                q, r = divmod(exp, self.p)
                v = self._rmul(v, idx, r)
                if q:
                    v = self._fold(v, self._power(self._powvec[idx - 1], q))
            elif exp < 0:
                v = self._fold(v, self._power(self._gen_inverse(idx), -exp))
        return v

    def _inverse(self, a):
        x, c = self.identity, a
        for i in range(1, self.n + 1):
            if c[i - 1]:
                d = self.p - c[i - 1]
                c, x = self._rmul(c, i, d), self._rmul(x, i, d)
        return x

    def conjugate(self, a, g):
        return self._fold(self._fold(self._inverse(g), a), g)


def _oracle_targets():
    out = {name: builtin(name) for name in BUILTIN_IDS}
    for path in data_entry_paths():
        with open(path) as fh:
            out[path.rsplit("/", 1)[-1][:-3]] = parse_presentation(fh.read())
    out["ut43"] = UnitriangularModel(4, 3).presentation
    out["ut53"] = UnitriangularModel(5, 3).presentation
    out["c25c25"] = PcPresentation(5, 4, powers={1: [(3, 1)], 2: [(4, 1)]})
    return out


def test_oracle_covers_the_catalog():
    assert len(BUILTIN_IDS) + len(data_entry_paths()) == 27


@pytest.mark.parametrize("name", sorted(_oracle_targets()))
def test_collector_matches_recursive_reference(name):
    P = _oracle_targets()[name]
    R = RecursiveCollector(P)
    rng = random.Random(29)
    for _ in range(12):
        a, b = random_element(P, rng), random_element(P, rng)
        assert P.multiply(a, b) == R.multiply(a, b)
        assert P.inverse(a) == R.inverse(a)
        assert P.conjugate(a, b) == R.conjugate(a, b)
        g = P.gen(rng.randrange(1, P.n + 1))
        assert P.conjugate(a, g) == R.conjugate(a, g)
        m = rng.randrange(-3 * P.p, 3 * P.p)
        assert P.power(a, m) == R.power(a, m)
        word = [(rng.randrange(1, P.n + 1), rng.randrange(-2 * P.p, 2 * P.p))
                for _ in range(rng.randrange(0, 8))]
        assert P.collect(word) == R.collect(word)


def _mutated_ut43():
    # UT(4, 3), where g4 and g1 commute, with [g4, g1] = g5 g6 instead
    P = UnitriangularModel(4, 3).presentation
    powers = {i: P.word_of(v) for i, v in enumerate(P._powvec, 1)}
    comms = {ji: P.word_of(v) for ji, v in P._comvec.items()}
    comms[(4, 1)] = [(5, 1), (6, 1)]
    return PcPresentation(3, 6, powers, comms)


@pytest.mark.parametrize("make", [
    lambda: PcPresentation(5, 3, commutators={(2, 1): [(3, 2)]}),
    lambda: PcPresentation(3, 3, powers={1: [(2, 1)], 2: [(3, 1)]},
                           commutators={(2, 1): [(3, 1)]}),
    _mutated_ut43,
], ids=["mutated-h5", "inconsistent-tower", "mutated-ut43"])
def test_consistency_failures_match_recursive_reference(make):
    P = make()
    want = RecursiveCollector(P).consistency_report()
    assert P.consistency_report().failures == want.failures



def test_inconsistent_failures_follow_the_collection_path():
    # On an inconsistent presentation the conjugate rows, built from the
    # top bit of r and a, collect some overlap words to other normal
    # forms than the one-power-at-a-time reference: here one more overlap
    # relation fails.  Only the list of failures moves, not the verdict.
    P = PcPresentation(
        7, 5, {1: [(3, 5), (4, 3), (5, 2)], 3: [(5, 6)], 4: [(5, 4)]},
        {(2, 1): [(3, 3), (4, 1)], (3, 1): [], (3, 2): [(4, 4), (5, 3)],
         (4, 3): [(5, 5)]})
    want = RecursiveCollector(P).consistency_report()
    got = P.consistency_report()
    assert not got.consistent and not want.consistent
    assert got.failures == [
        ("product", (3, 2, 1), (1, 1, 4, 5, 1), (1, 1, 4, 5, 0)),
        ("product", (4, 2, 1), (1, 1, 3, 2, 0), (1, 1, 3, 2, 1)),
        ("power-left", (2, 1), (1, 0, 0, 0, 0), (1, 0, 0, 0, 4)),
        ("power-right", (2, 1), (0, 1, 5, 3, 2), (0, 1, 5, 2, 6)),
        ("power-right", (3, 1), (0, 0, 6, 3, 2), (0, 0, 6, 3, 3)),
        ("power-right", (4, 1), (0, 0, 5, 4, 6), (0, 0, 5, 4, 2)),
        ("power-left", (3, 2), (0, 1, 0, 0, 6), (0, 1, 0, 0, 1)),
        ("power-right", (3, 2), (0, 0, 1, 0, 0), (0, 0, 1, 0, 2)),
    ]
    assert [f for f in got.failures if f not in want.failures] == [
        ("power-left", (2, 1), (1, 0, 0, 0, 0), (1, 0, 0, 0, 4))]

def test_large_prime_builtins_collect_without_recursion():
    for name in ("elab-1009", "heisenberg-1009"):
        P = builtin(name)
        assert P.is_consistent()
        g1 = P.gen(1)
        assert P.power(g1, P.p - 1) == P.inverse(g1)
        a = (5, 700, 3)[:P.n]
        assert P.multiply(P.power(a, 1000), a) == P.power(a, 1001)


@pytest.mark.parametrize("name", ["heisenberg-7", "thin5-c5-A4pos",
                                  "thin5-c6-A2", "ut53"])
def test_conjugation_by_each_generator_matches_the_reference(name):
    # every generator: entries below, at and above its index
    P = _oracle_targets()[name]
    R = RecursiveCollector(P)
    rng = random.Random(31)
    for _ in range(10):
        a = random_element(P, rng)
        for g in P.gens():
            assert P.conjugate(a, g) == R.conjugate(a, g)


def test_ut4_11_matches_matrix_oracle():
    # p = 11: conjugate rows of every power of g_i, split at their top bit
    model = UnitriangularModel(4, 11)
    P = model.presentation
    rng = random.Random(37)
    for _ in range(60):
        a, b = random_element(P, rng), random_element(P, rng)
        ma, mb = model.matrix_of(a), model.matrix_of(b)
        assert P.multiply(a, b) == model.vector_of(_matmul(11, ma, mb))
        g = P.gen(rng.randrange(1, P.n + 1))
        mg = model.matrix_of(g)
        want = _matmul(11, _matmul(11, _matinv(11, mg), ma), mg)
        assert P.conjugate(a, g) == model.vector_of(want)


def _products_cases():
    """name -> (presentation, basis): the generators of h5 and UT(4, 3),
    and the maximal subgroups and gamma_2 of two catalog entries."""
    h5 = PcPresentation(5, 3, commutators={(2, 1): [(3, 1)]})
    ut43 = UnitriangularModel(4, 3).presentation
    cases = {"h5": (h5, h5.gens()), "ut43": (ut43, ut43.gens())}
    for target in ("sg-3_6-34", "heisenberg-7"):
        P = resolve(target).presentation
        for k, m in enumerate(maximal_subgroups(P)):
            cases[f"{target}-max{k}"] = (P, m.basis)
        cases[f"{target}-gamma2"] = (P, gamma(P, 2).basis)
    return cases


@pytest.mark.parametrize("name", sorted(_products_cases()))
def test_products_match_power_products(name):
    P, basis = _products_cases()[name]
    rng = random.Random(41)
    for start in (None, random_element(P, rng)):
        want = []
        for exps in itertools.product(range(P.p), repeat=len(basis)):
            prod = P.identity
            for b, e in zip(basis, exps):
                prod = P.multiply(prod, P.power(b, e))
            want.append(P.multiply(start or P.identity, prod))
        assert list(P.products(basis, start)) == want
