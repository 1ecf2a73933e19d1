"""Power-commutator presentations for finite p-groups.

A presentation has generators g_1 .. g_n, each of relative order p (an
odd prime in all intended uses), with relators

    g_i^p      = word in g_{i+1} .. g_n
    [g_j, g_i] = word in g_{j+1} .. g_n        for j > i

under the convention [a, b] = a^-1 b^-1 a b.  Omitted relators default
to the empty word.  Every element is carried as its normal form
g_1^{e_1} ... g_n^{e_n}, stored as a plain exponent tuple with entries
in [0, p), so the group has order p^n exactly when the presentation is
consistent.

Collection works from the left (Leedham-Green & Soicher, J. Symbolic
Comput. 9, 1990) in one loop, `_run`, on one mutable exponent list and a
stack of pending generator powers.  Multiplying by g_i^e zeroes the
displaced tail and pushes its conjugates by g_i^e, then the power
relator on overflow: words in higher generators only, which grounds the
loop.  The conjugate powers (g_j^(g_i^r))^a live in rows keyed by integer
arithmetic and filled on first use, growing only as used.  The rows are
logarithmic: r and a split at their top bit, so a missing entry is built
from O(log p) others and large primes cost no more than small ones.

Conjugation by a generator g_i is one collection too: conjugation is an
automorphism, so a^(g_i) is the product over j of (g_j^(g_i))^(a_j).
For j > i those words are the rows; for j < i they are filled once, on
first use, by two folds.  `products(basis, start)` is the odometer
behind every subgroup enumeration and the exhaustive Beauville sweep: a
stack of prefix products, with one collection of one basis element per
product.

Deliberately inconsistent presentations are still safe to collect with:
rewriting terminates regardless, and `check_consistency` reports which
overlap relations fail to agree.  On a consistent presentation every
collection path gives the same normal forms; on an inconsistent one the
failing overlaps listed, and so their count, depend on the path, here
on how the logarithmic rows are built.

The public methods (`multiply`, `power`, `inverse`, `conjugate`,
`commutator`, `collect`, `element_order`, `products`, `gen`, `gens`) are
the whole collector API: every other module does its arithmetic through
them.  The arithmetic methods hold the one consistency gate: the first
call runs the check, and once it has passed a single flag lets every
later call through; a presentation that fails it refuses all
arithmetic.  The private collection paths below serve only this module.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

Word = list  # [(generator index, exponent)] pairs, indices 1-based

_TERM_RE = re.compile(r"g(\d+)(?:\^(-?\d+))?\Z")


class InconsistentPresentationError(ValueError):
    """Arithmetic was requested on a presentation that failed its check."""


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def parse_word(text: str) -> Word:
    """Parse "g1^2 g3" (or "g1^2*g3") into [(1, 2), (3, 1)]; "1" is empty."""
    s = text.strip()
    if s in ("", "1"):
        return []
    out = []
    for term in s.replace("*", " ").split():
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"malformed syntax: bad word term {term!r}")
        exp = int(m.group(2)) if m.group(2) is not None else 1
        out.append((int(m.group(1)), exp))
    return out


def format_word(word: Word) -> str:
    if not word:
        return "1"
    return " ".join(f"g{i}" if e == 1 else f"g{i}^{e}" for i, e in word)


def format_element(vec) -> str:
    """Normal form as a word string, e.g. (1, 0, 2) -> "g1 g3^2"."""
    return format_word([(i + 1, e) for i, e in enumerate(vec) if e])


def _stacked(vec):
    """Nonzero (0-based index, exponent) pairs of a normal form, last first."""
    return [(j, vec[j]) for j in range(len(vec) - 1, -1, -1) if vec[j]]


def _top_part(m):
    """The largest power of two below m, for m >= 2."""
    return 1 << ((m - 1).bit_length() - 1)


@dataclass
class ConsistencyReport:
    consistent: bool
    # (relation kind, generator indices, left normal form, right normal form)
    failures: list


class PcPresentation:
    """A finite p-group given by power and commutator relator words."""

    def __init__(self, p, n, powers=None, commutators=None):
        if not _is_prime(p):
            raise ValueError(f"non-prime modulus: {p!r}")
        if n < 1:
            raise ValueError("rank must be at least 1")
        self.p = p
        self.n = n
        self.identity = (0,) * n
        self._powvec = [self.identity] * n
        self._comvec = {}
        for i, word in (powers or {}).items():
            if not 1 <= i <= n:
                raise ValueError(f"generator index out of range: {i}")
            self._powvec[i - 1] = self._relator_vector(word, base=i)
        for (j, i), word in (commutators or {}).items():
            if not 1 <= i < j <= n:
                raise ValueError(f"bad commutator key ({j}, {i}): need n >= j > i >= 1")
            vec = self._relator_vector(word, base=j)
            if vec != self.identity:
                self._comvec[(j, i)] = vec
        self._gens = tuple(
            tuple(1 if k == i else 0 for k in range(n)) for i in range(n))
        self._genidx = {g: i for i, g in enumerate(self._gens, start=1)}
        self._pows = [_stacked(v) for v in self._powvec]
        self._rows = {}     # i0 * p + r -> conjugate rows, see _conj_power
        self._below = {}    # conjugates by later generators, see _conj_below
        self._geninv = [None] * n
        self._report = None
        self._checked = False    # set once the consistency check has passed
        #: results derived from the group by the other layers (series,
        #: subgroups, conjugacy classes), filled on first use
        self.cache = {}

    def __repr__(self):
        return f"PcPresentation(p={self.p}, rank={self.n})"

    @property
    def order(self) -> int:
        return self.p ** self.n

    def _relator_vector(self, word, base):
        vec = [0] * self.n
        prev = None
        for idx, exp in word:
            if not 1 <= idx <= self.n:
                raise ValueError(f"generator index out of range: {idx}")
            if idx <= base:
                raise ValueError(
                    f"word index not above base: g{idx} in a relator of g{base}")
            if prev is not None and idx <= prev:
                raise ValueError(f"word terms out of order at g{idx}")
            prev = idx
            vec[idx - 1] = exp % self.p
        return tuple(vec)

    # ------------------------------------------------------------------
    # collection core (private paths never consult the consistency gate)

    def _run(self, v, stack):
        # v times the pending (0-based index, exponent) pairs, top first;
        # v is updated in place and returned as a tuple
        p, n, rows, pows = self.p, self.n, self._rows, self._pows
        pop, push = stack.pop, stack.extend
        top = n                                   # v[top:] is zero
        while stack:
            i0, e = pop()
            if i0 + 1 < top:
                conj = rows.get(i0 * p + e) or rows.setdefault(
                    i0 * p + e, [None] * n)
                for j0 in range(top - 1, i0, -1):
                    a = v[j0]
                    if a:
                        v[j0] = 0
                        try:
                            push(conj[j0][a])
                        except (TypeError, KeyError):
                            push(self._conj_power(j0, i0, e, a))
            top = i0 + 1
            s = v[i0] + e
            if s >= p:
                v[i0] = s - p
                push(pows[i0])
            else:
                v[i0] = s
        return tuple(v)

    def _conj_power(self, j0, i0, r, a):
        # (g_j^(g_i^r))^a stacked, 0-based j0 > i0, 1 <= r, a < p.  Row
        # i0 * p + r maps j0 to {a: that power} for the powers asked for.
        # Both r and a split at their top bit b, so a missing entry needs
        # O(log p) others: c_r = g_j^(g_i^r) is the product of the terms
        # of c_b each conjugated by g_i^(r-b), and c^a = c^b c^(a-b).
        p, n = self.p, self.n
        conj = self._rows.setdefault(i0 * p + r, [None] * n)
        row = conj[j0]
        if row is None:
            if r == 1:                           # g_j [g_j, g_i]
                v = list(self._gens[j0])
                stack = _stacked(self._comvec.get((j0 + 1, i0 + 1), ()))
            else:
                b = _top_part(r)
                v, stack = [0] * n, []
                for j1, a1 in self._conj_power(j0, i0, b, 1):
                    stack.extend(self._conj_power(j1, i0, r - b, a1))
            row = conj[j0] = {1: _stacked(self._run(v, stack))}
        if a not in row:
            b = _top_part(a)
            row[a] = _stacked(self._run(
                [0] * n, self._conj_power(j0, i0, r, a - b)
                + self._conj_power(j0, i0, r, b)))
        return row[a]

    def _conj_below(self, j0, i0, a):
        # (g_j^(g_i))^a stacked for 0-based j0 < i0, by two folds on first
        # use: the rows hold conjugates by earlier generators only
        key = (i0 * self.n + j0) * self.p + a
        word = self._below.get(key)
        if word is None:
            ga = tuple(a if k == j0 else 0 for k in range(self.n))
            word = self._below[key] = _stacked(self._fold(
                self._fold(self._gen_inverse(i0 + 1), ga), self._gens[i0]))
        return word

    def _fold(self, v, w):
        # v * (the element with normal form w)
        return self._run(list(v), _stacked(w))

    def _collect(self, word):
        pending = []
        for idx, exp in word:
            if not 1 <= idx <= self.n:
                raise ValueError(f"generator index out of range: {idx}")
            # g^exp is g^r (g^p)^q, and g^-q is (g^-1)^q
            q, r = divmod(exp, self.p) if exp > 0 else (-exp, 0)
            if r:
                pending.append((idx - 1, r))
            if q:
                base = (self._powvec[idx - 1] if exp > 0
                        else self._gen_inverse(idx))
                pending.extend(reversed(_stacked(self._power(base, q))))
        return self._run([0] * self.n, pending[::-1])

    def _inverse(self, a):
        # multiply a up to the identity; the inverse is the same factors
        c, factors = list(a), []
        for i0 in range(self.n):
            if c[i0]:
                factors.append((i0, self.p - c[i0]))
                self._run(c, factors[-1:])
        return self._run([0] * self.n, factors[::-1])

    def _power(self, a, m):
        if m < 0:
            a, m = self._inverse(a), -m
        result = None
        while m:
            if m & 1:
                result = a if result is None else self._fold(result, a)
            m >>= 1
            if m:
                a = self._fold(a, a)
        return self.identity if result is None else result

    def _gen_inverse(self, i):
        cached = self._geninv[i - 1]
        if cached is None:
            cached = self._geninv[i - 1] = self._inverse(self._gens[i - 1])
        return cached

    # ------------------------------------------------------------------
    # consistency

    def consistency_report(self) -> ConsistencyReport:
        if self._report is None:
            self._report = self._run_consistency()
        return self._report

    def is_consistent(self) -> bool:
        return self.consistency_report().consistent

    def ensure_consistent(self):
        report = self.consistency_report()
        if not report.consistent:
            raise InconsistentPresentationError(
                f"presentation failed its consistency check: "
                f"{len(report.failures)} overlap relations disagree")
        self._checked = True

    def _run_consistency(self):
        p, n = self.p, self.n
        fails = []

        def record(kind, idx, lhs, rhs):
            if lhs != rhs:
                fails.append((kind, idx, lhs, rhs))

        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                w_ji = self.word_of(self._comvec.get((j, i), self.identity))
                for k in range(j + 1, n + 1):
                    w_kj = self.word_of(self._comvec.get((k, j), self.identity))
                    record(
                        "product", (k, j, i),
                        self._collect([(j, 1), (k, 1)] + w_kj + [(i, 1)]),
                        self._collect([(k, 1), (i, 1), (j, 1)] + w_ji))
                w_j = self.word_of(self._powvec[j - 1])
                w_i = self.word_of(self._powvec[i - 1])
                record(
                    "power-left", (j, i),
                    self._collect(w_j + [(i, 1)]),
                    self._collect([(j, p - 1), (i, 1), (j, 1)] + w_ji))
                record(
                    "power-right", (j, i),
                    self._collect([(j, 1)] + w_i),
                    self._collect([(i, 1), (j, 1)] + w_ji + [(i, p - 1)]))
        for i in range(1, n + 1):
            w_i = self.word_of(self._powvec[i - 1])
            record(
                "power-self", (i,),
                self._collect([(i, 1)] + w_i),
                self._collect(w_i + [(i, 1)]))
        return ConsistencyReport(consistent=not fails, failures=fails)

    # ------------------------------------------------------------------
    # public arithmetic

    def gen(self, i):
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index out of range: {i}")
        return self._gens[i - 1]

    def gens(self):
        return list(self._gens)

    def collect(self, word) -> tuple:
        """Normal form of an arbitrary word; exponents may be any integers."""
        if not self._checked:
            self.ensure_consistent()
        return self._collect(word)

    def multiply(self, a, b) -> tuple:
        if not self._checked:
            self.ensure_consistent()
        return self._fold(a, b)

    def inverse(self, a) -> tuple:
        if not self._checked:
            self.ensure_consistent()
        return self._inverse(a)

    def power(self, a, m: int) -> tuple:
        """a^m by square-and-multiply; m may be negative."""
        if not self._checked:
            self.ensure_consistent()
        return self._power(a, m)

    def conjugate(self, a, g) -> tuple:
        """g^-1 a g.  By a generator g_i this is one collection of the
        product of the (g_j^(g_i))^(a_j), as conjugation is an
        automorphism; by any other g it is two folds."""
        if not self._checked:
            self.ensure_consistent()
        i = self._genidx.get(g)
        if i is None:
            return self._fold(self._fold(self._inverse(g), a), g)
        i0 = i - 1
        conj = self._rows.get(i0 * self.p + 1)
        stack = []
        for j0 in range(self.n - 1, i0, -1):
            e = a[j0]
            if e:
                try:
                    stack.extend(conj[j0][e])
                except (TypeError, KeyError):
                    stack.extend(self._conj_power(j0, i0, 1, e))
                    conj = self._rows[i0 * self.p + 1]
        if a[i0]:
            stack.append((i0, a[i0]))
        for j0 in range(i0 - 1, -1, -1):
            if a[j0]:
                stack.extend(self._conj_below(j0, i0, a[j0]))
        return self._run([0] * self.n, stack)

    def commutator(self, a, b) -> tuple:
        """[a, b] = a^-1 b^-1 a b."""
        if not self._checked:
            self.ensure_consistent()
        return self._fold(self._inverse(self._fold(b, a)), self._fold(a, b))

    def left_normed_commutator(self, base, tail) -> tuple:
        """Fold [..[[base, t1], t2], .., tk] left to right."""
        v = base
        for t in tail:
            v = self.commutator(v, t)
        return v

    def element_order(self, a) -> int:
        if not self._checked:
            self.ensure_consistent()
        k = 0
        b = a
        while b != self.identity:
            b = self._power(b, self.p)
            k += 1
        return self.p ** k

    def elements(self):
        """Iterate every normal form, lexicographically."""
        return itertools.product(range(self.p), repeat=self.n)

    def products(self, basis, start=None):
        """Every start * basis[0]^e_0 * ... * basis[k-1]^e_(k-1) with
        exponents in [0, p), in lexicographic order of the exponents
        (start defaults to the identity).  An odometer over a stack of
        prefix products: each product is one collection of one basis
        element onto its prefix."""
        if not self._checked:
            self.ensure_consistent()
        k, last = len(basis), self.p - 1
        words = [_stacked(b) for b in basis]
        exps = [0] * k
        prefix = [self.identity if start is None else tuple(start)] * (k + 1)
        while True:
            yield prefix[k]
            i = k - 1
            while i >= 0 and exps[i] == last:
                exps[i] = 0
                i -= 1
            if i < 0:
                return
            exps[i] += 1
            v = prefix[i + 1] = self._run(list(prefix[i + 1]), words[i][:])
            for j in range(i + 2, k + 1):
                prefix[j] = v

    def word_of(self, vec) -> Word:
        return [(i + 1, e) for i, e in enumerate(vec) if e]


def parse_presentation(text: str) -> PcPresentation:
    """Build a presentation from the text file format.

    Line 1 `p <prime>`, line 2 `n <rank>`, then any number of
    `pow <i> = <word>` and `comm <j> <i> = <word>` lines; `#` starts a
    comment line.  The returned presentation is range-checked but not
    consistency-checked.
    """
    p_val = n_val = None
    powers = {}
    commutators = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if fields[0] == "p" and len(fields) == 2:
                if p_val is not None:
                    raise ValueError("duplicate p line")
                p_val = int(fields[1])
            elif fields[0] == "n" and len(fields) == 2:
                if n_val is not None:
                    raise ValueError("duplicate n line")
                n_val = int(fields[1])
            elif fields[0] == "pow" and len(fields) >= 4 and fields[2] == "=":
                i = int(fields[1])
                if i in powers:
                    raise ValueError(f"duplicate relator pow {i}")
                powers[i] = parse_word(" ".join(fields[3:]))
            elif fields[0] == "comm" and len(fields) >= 5 and fields[3] == "=":
                j, i = int(fields[1]), int(fields[2])
                if (j, i) in commutators:
                    raise ValueError(f"duplicate relator comm {j} {i}")
                commutators[(j, i)] = parse_word(" ".join(fields[4:]))
            else:
                raise ValueError(f"malformed syntax: {line!r}")
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    if p_val is None or n_val is None:
        raise ValueError("malformed syntax: missing p or n line")
    return PcPresentation(p_val, n_val, powers, commutators)


def check_consistency(pres: PcPresentation) -> ConsistencyReport:
    return pres.consistency_report()


def random_element(pres: PcPresentation, rng) -> tuple:
    return tuple(rng.randrange(pres.p) for _ in range(pres.n))
