"""Shuffle and quasi-shuffle Hopf algebras on words over an abstract alphabet.

Letters are arbitrary hashable objects.  A word is a tuple of letters; the
empty tuple is the unit.  Linear combinations carry exact Fraction
coefficients.  The quasi-shuffle product additionally needs a commutative,
associative pairing on letters, supplied through an :class:`Alphabet`.

The deconcatenation coproduct used here puts the suffix in the first tensor
slot and the prefix in the second.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Hashable, Iterable

from .errors import DomainError, InputError

Letter = Hashable
Word = tuple  # tuple of letters


class Alphabet:
    """Letter universe with an optional commutative-associative pairing.

    ``pairing(l1, l2)`` must return a letter.  If ``zero`` is given, any
    product term containing that letter is dropped; a pairing returning the
    zero letter makes the quasi-shuffle collapse to the plain shuffle.
    """

    def __init__(self, pairing: Callable[[Letter, Letter], Letter] | None = None,
                 zero: Letter | None = None):
        self.pairing = pairing
        self.zero = zero

    def pair(self, l1: Letter, l2: Letter) -> Letter:
        if self.pairing is None:
            raise DomainError("alphabet has no pairing; quasi-shuffle is not defined")
        return self.pairing(l1, l2)


def min_pairing_alphabet(letters: Iterable[Letter]) -> Alphabet:
    """Totally ordered alphabet whose pairing takes the smaller letter.

    min is commutative and associative, which makes this a convenient closed
    test alphabet.
    """
    return Alphabet(pairing=lambda a, b: min(a, b))


def absorbing_zero_alphabet(letters: Iterable[Letter], zero: Letter = "0") -> Alphabet:
    """Pairing that always lands on an absorbing zero letter."""
    return Alphabet(pairing=lambda a, b: zero, zero=zero)


class LinComb:
    """Finite rational linear combination of words; zero coefficients not stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, Fraction] | None = None):
        self.terms = {}
        if terms:
            for w, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    self.terms[tuple(w)] = c

    @classmethod
    def of(cls, word: Iterable[Letter], coeff=1) -> "LinComb":
        return cls({tuple(word): Fraction(coeff)})

    @classmethod
    def zero(cls) -> "LinComb":
        return cls({})

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "LinComb") -> "LinComb":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, Fraction(0)) + c
            if s == 0:
                out.pop(w, None)
            else:
                out[w] = s
        return LinComb(out)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + other.scale(-1)

    def scale(self, c) -> "LinComb":
        c = Fraction(c)
        return LinComb({w: cc * c for w, cc in self.terms.items()})

    def total_mass(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def words(self) -> list[Word]:
        return sorted(self.terms, key=lambda w: (len(w), tuple(str(l) for l in w)))

    def __repr__(self) -> str:
        return f"LinComb({self.format()})"

    def format(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in self.words():
            c = self.terms[w]
            word = "".join(str(l) for l in w) if w else "e"
            if c == 1:
                parts.append(word)
            elif c == -1:
                parts.append(f"-{word}")
            else:
                parts.append(f"{c}*{word}")
        return " + ".join(parts).replace("+ -", "- ")


class TensorComb:
    """Rational linear combination of word pairs (elements of A (x) A)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[Word, Word], Fraction] | None = None):
        self.terms = {}
        if terms:
            for (u, v), c in terms.items():
                c = Fraction(c)
                if c != 0:
                    self.terms[(tuple(u), tuple(v))] = c

    def __eq__(self, other) -> bool:
        return isinstance(other, TensorComb) and self.terms == other.terms

    def __add__(self, other: "TensorComb") -> "TensorComb":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, Fraction(0)) + c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return TensorComb(out)

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: (len(kv[0][0]) + len(kv[0][1]), str(kv[0])))
        inner = " + ".join(
            f"{c}*({''.join(map(str, u)) or 'e'} (x) {''.join(map(str, v)) or 'e'})" for (u, v), c in items
        )
        return f"TensorComb({inner or '0'})"


def _lift(f):
    """Extend a word-level map returning LinComb linearly to LinComb inputs."""

    def lifted(x: "LinComb | Iterable[Letter]", *args, **kwargs) -> LinComb:
        if not isinstance(x, LinComb):
            return f(tuple(x), *args, **kwargs)
        acc = LinComb.zero()
        for w, c in x.terms.items():
            acc = acc + f(w, *args, **kwargs).scale(c)
        return acc

    return lifted


# ---------------------------------------------------------------------------
# shuffle product
# ---------------------------------------------------------------------------

def shuffle(u: Iterable[Letter], v: Iterable[Letter]) -> LinComb:
    """Sum over all interleavings preserving the internal order of u and of v.

    Multiplicities are counted, so the total coefficient mass is
    binomial(|u|+|v|, |u|).
    """
    u, v = tuple(u), tuple(v)
    r = len(u) + len(v)
    out: dict[Word, Fraction] = {}
    for posu in combinations(range(r), len(u)):
        word = [None] * r
        iu = iter(u)
        for p in posu:
            word[p] = next(iu)
        iv = iter(v)
        for p in range(r):
            if word[p] is None:
                word[p] = next(iv)
        key = tuple(word)
        out[key] = out.get(key, Fraction(0)) + 1
    return LinComb(out)


def shuffle_recursive(u: Iterable[Letter], v: Iterable[Letter]) -> LinComb:
    """Recursive form: peel the leading letter of either factor."""
    u, v = tuple(u), tuple(v)

    def rec(a: Word, b: Word) -> LinComb:
        if not a:
            return LinComb.of(b)
        if not b:
            return LinComb.of(a)
        left = _prepend(a[0], rec(a[1:], b))
        right = _prepend(b[0], rec(a, b[1:]))
        return left + right

    return rec(u, v)


def _prepend(letter: Letter, x: LinComb) -> LinComb:
    return LinComb({(letter,) + w: c for w, c in x.terms.items()})


def shuffle_lincomb(x: LinComb, y: LinComb) -> LinComb:
    acc = LinComb.zero()
    for wu, cu in x.terms.items():
        for wv, cv in y.terms.items():
            acc = acc + shuffle(wu, wv).scale(cu * cv)
    return acc


# ---------------------------------------------------------------------------
# quasi-shuffle product
# ---------------------------------------------------------------------------

def quasi_shuffle(u: Iterable[Letter], v: Iterable[Letter], alphabet: Alphabet) -> LinComb:
    """Recursive quasi-shuffle: shuffle terms plus the merged-letter term."""
    u, v = tuple(u), tuple(v)
    if alphabet.pairing is None:
        raise DomainError("quasi-shuffle requires an alphabet with a pairing")

    def rec(a: Word, b: Word) -> LinComb:
        if not a:
            return LinComb.of(b)
        if not b:
            return LinComb.of(a)
        out = _prepend(a[0], rec(a[1:], b))
        out = out + _prepend(b[0], rec(a, b[1:]))
        merged = alphabet.pair(a[0], b[0])
        if alphabet.zero is None or merged != alphabet.zero:
            out = out + _prepend(merged, rec(a[1:], b[1:]))
        return out

    return rec(u, v)


def quasi_shuffle_lincomb(x: LinComb, y: LinComb, alphabet: Alphabet) -> LinComb:
    acc = LinComb.zero()
    for wu, cu in x.terms.items():
        for wv, cv in y.terms.items():
            acc = acc + quasi_shuffle(wu, wv, alphabet).scale(cu * cv)
    return acc


# ---------------------------------------------------------------------------
# coalgebra structure (common to both products)
# ---------------------------------------------------------------------------

def coproduct(w: Iterable[Letter]) -> TensorComb:
    """Deconcatenation, suffix in the first slot: sum of (suffix) (x) (prefix)."""
    w = tuple(w)
    out: dict[tuple[Word, Word], Fraction] = {}
    for j in range(len(w) + 1):
        key = (w[j:], w[:j])
        out[key] = out.get(key, Fraction(0)) + 1
    return TensorComb(out)


def counit(x: "LinComb | Iterable[Letter]") -> Fraction:
    """Coefficient of the empty word."""
    if not isinstance(x, LinComb):
        x = LinComb.of(tuple(x))
    return x.terms.get((), Fraction(0))


@_lift
def antipode_shuffle(w: Word) -> LinComb:
    """Closed form: sign (-1)^len times the reversed word."""
    return LinComb.of(tuple(reversed(w)), Fraction(-1) ** len(w))


def antipode_quasi(w: Iterable[Letter], alphabet: Alphabet) -> LinComb:
    """Recursive antipode of the quasi-shuffle Hopf algebra."""
    w = tuple(w)
    if not w:
        return LinComb.of(())
    out = LinComb.of(w, -1)
    for j in range(1, len(w)):
        s = antipode_quasi(w[j:], alphabet)
        out = out - quasi_shuffle_lincomb(s, LinComb.of(w[:j]), alphabet)
    return out


def convolution_check(w: Iterable[Letter], antipode, product) -> LinComb:
    """m o (S (x) id) o Delta.  Equals e for the empty word, 0 otherwise."""
    w = tuple(w)
    acc = LinComb.zero()
    for (suf, pre), c in coproduct(w).terms.items():
        acc = acc + product(antipode(LinComb.of(suf)), LinComb.of(pre)).scale(c)
    return acc


# ---------------------------------------------------------------------------
# Lyndon words
# ---------------------------------------------------------------------------

def is_lyndon(w: Word, key: Callable[[Letter], object] | None = None) -> bool:
    """True when the word is strictly smaller than each of its proper suffixes."""
    w = tuple(w)
    if not w:
        return False
    k = (lambda l: l) if key is None else key
    kw = tuple(k(l) for l in w)
    return all(kw < kw[j:] for j in range(1, len(w)))


def lyndon_words(alphabet: Iterable[Letter], max_length: int) -> list[Word]:
    """All Lyndon words up to the given length, in (length, lex) order.

    The alphabet iterable fixes the letter order.
    """
    if max_length < 1:
        raise InputError(f"max length must be at least 1, not {max_length}")
    letters = list(alphabet)
    index = {l: i for i, l in enumerate(letters)}
    out: list[Word] = []

    def extend(prefix: tuple):
        if prefix and is_lyndon(prefix, key=lambda l: index[l]):
            out.append(prefix)
        if len(prefix) == max_length:
            return
        for l in letters:
            extend(prefix + (l,))

    extend(())
    return sorted(out, key=lambda w: (len(w), tuple(index[l] for l in w)))
