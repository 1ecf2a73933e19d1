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

Collection works from the left.  Right-multiplying a normal form by a
generator power splits the form at that generator: the displaced tail
is conjugated, and exponent overflow feeds the power relator back in.
Both steps only ever touch strictly higher generator indices, which
grounds the recursion.  Conjugates of generators by generator powers
are memoized per presentation; tables are filled on first use and only
read afterwards, so concurrent readers are safe once warmed up.

Deliberately inconsistent presentations are still safe to collect with:
rewriting terminates regardless, and `check_consistency` reports which
overlap relations fail to agree.

The public methods (`multiply`, `power`, `inverse`, `conjugate`,
`commutator`, `collect`, `element_order`, `gen`, `gens`) are the whole
collector API: every other module does its arithmetic through them.  The
arithmetic methods hold the one consistency gate: the first call runs
the check, and once it has passed a single flag lets every later call
through; a presentation that fails it refuses all arithmetic.  The
private collection paths below serve only this module.
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
        self._conj = {}      # (j, i, r) -> normal form of g_j conjugated by g_i^r
        self._conjpow = {}   # (j, i, r, e) -> that conjugate to the e-th power
        self._geninv = [None] * n
        self._report = None
        self._checked = False    # set once the consistency check has passed
        #: results derived from the group by the other layers (series,
        #: subgroups, quotients, orbit memos), filled on first use
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

    def _rmul(self, v, i, e):
        # v * g_i^e for 0 <= e < p.  Coordinates below i are untouched;
        # every recursive step works at a strictly higher index.
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
        # v * (the element with normal form w)
        for j0, e in enumerate(w):
            if e:
                v = self._rmul(v, j0 + 1, e)
        return v

    def _conj_gen(self, j, i, r):
        # normal form of g_j conjugated by g_i^r, for j > i, r >= 1
        key = (j, i, r)
        got = self._conj.get(key)
        if got is not None:
            return got
        if r == 1:
            rel = self._comvec.get((j, i))
            unit = self._gens[j - 1]
            res = unit if rel is None else self._fold(unit, rel)
        else:
            prev = self._conj_gen(j, i, r - 1)
            res = self.identity
            for j0, a in enumerate(prev):
                if a:
                    res = self._fold(res, self._conj_gen_pow(j0 + 1, i, 1, a))
        self._conj[key] = res
        return res

    def _conj_gen_pow(self, j, i, r, e):
        if e == 1:
            return self._conj_gen(j, i, r)
        key = (j, i, r, e)
        got = self._conjpow.get(key)
        if got is not None:
            return got
        res = self._fold(self._conj_gen_pow(j, i, r, e - 1), self._conj_gen(j, i, r))
        self._conjpow[key] = res
        return res

    def _collect(self, word):
        v = self.identity
        for idx, exp in word:
            if not 1 <= idx <= self.n:
                raise ValueError(f"generator index out of range: {idx}")
            if exp == 0:
                continue
            if exp > 0:
                q, r = divmod(exp, self.p)
                if r:
                    v = self._rmul(v, idx, r)
                if q:
                    v = self._fold(v, self._power(self._powvec[idx - 1], q))
            else:
                v = self._fold(v, self._power(self._gen_inverse(idx), -exp))
        return v

    def _inverse(self, a):
        x = self.identity
        c = a
        for i in range(1, self.n + 1):
            e = c[i - 1]
            if e:
                d = self.p - e
                c = self._rmul(c, i, d)
                x = self._rmul(x, i, d)
        return x

    def _power(self, a, m):
        if m < 0:
            return self._power(self._inverse(a), -m)
        result = self.identity
        base = a
        while m:
            if m & 1:
                result = self._fold(result, base)
            m >>= 1
            if m:
                base = self._fold(base, base)
        return result

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
        """g^-1 a g; the inverse of a generator g is computed once."""
        if not self._checked:
            self.ensure_consistent()
        i = self._genidx.get(g)
        ginv = self._inverse(g) if i is None else self._gen_inverse(i)
        return self._fold(self._fold(ginv, a), g)

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
