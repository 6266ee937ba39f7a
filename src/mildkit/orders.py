"""Multiplicative total orders on monomials.

Two families are shipped: weighted degree-lexicographic orders induced by a
permutation of the letters, and the subset orders that additionally count
how many letters fall outside a distinguished subset U and how far right
the out-of-U letters sit.  Both compare weighted degree first, so they are
multiplicative for any weight vector.

An order is its sort key: `order.key(m)` is a tuple that compares as the
order does, so sorting, maximising (`high_term`) and the certificate's
block columns all read the order through `key`.  Distinct words get
distinct keys, because every key ends with the word's ranked letters.
"""

from __future__ import annotations

import random

from .algebra import Monomial, check_weights
from .errors import ParseError
from .magnus import generator_index

LT, EQ, GT = -1, 0, 1


class MonomialOrder:
    """Base class over a weight vector and a letter permutation; subclasses
    implement key(m), from which compare(a, b) -> {-1, 0, 1} is derived (an
    order without a key may implement compare alone)."""

    tau: tuple[int, ...]

    def __init__(self, tau, letter_order=None):
        self.tau = check_weights(tau)
        if letter_order is None:
            letter_order = tuple(range(1, self.d + 1))
        self.letter_order = tuple(letter_order)
        if sorted(self.letter_order) != list(range(1, self.d + 1)):
            raise ValueError(f"letter order {letter_order} is not a permutation of 1..{self.d}")
        self.rank = {letter: pos for pos, letter in enumerate(self.letter_order)}

    @property
    def d(self) -> int:
        return len(self.tau)

    def key(self, m: Monomial) -> tuple:
        raise NotImplementedError

    def compare(self, a: Monomial, b: Monomial) -> int:
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def describe(self) -> str:
        raise NotImplementedError


class DegLexOrder(MonomialOrder):
    """Weighted degree first, then lexicographic in a letter permutation.
    Distinct words of equal weighted degree are never prefixes of one
    another, so the ranked letters decide at their first difference."""

    def key(self, m: Monomial) -> tuple:
        return (m.tau_degree, tuple([self.rank[x] for x in m.letters]))

    def describe(self) -> str:
        perm = "<".join(f"X{i}" for i in self.letter_order)
        return f"deglex:{perm}"

    def __repr__(self):
        return f"DegLexOrder({self.describe()}, tau={self.tau})"


class UOrder(MonomialOrder):
    """Subset order: weighted degree, then the number of letters outside U,
    then the rightward placement statistic k_u, then lexicographic.

    A word is larger when it has more out-of-U letters and when those
    letters sit further to the right; equivalently U-letters push a word
    down and to the left.
    """

    def __init__(self, u, tau, letter_order=None):
        super().__init__(tau, letter_order)
        self.u = frozenset(u)
        if not all(1 <= i <= self.d for i in self.u):
            raise ValueError(f"U = {sorted(self.u)} not a subset of 1..{self.d}")

    def stats(self, m: Monomial) -> tuple[int, int]:
        """Subset-order statistics (l_u, k_u) of a word: l_u counts letters
        outside U, k_u sums the weighted degree of the prefix ending at each
        such letter."""
        l_u = 0
        k_u = 0
        prefix_deg = 0
        for letter in m.letters:
            prefix_deg += self.tau[letter - 1]
            if letter not in self.u:
                l_u += 1
                k_u += prefix_deg
        return l_u, k_u

    def key(self, m: Monomial) -> tuple:
        return (m.tau_degree, self.stats(m), tuple([self.rank[x] for x in m.letters]))

    def describe(self) -> str:
        u = ",".join(f"X{i}" for i in sorted(self.u))
        perm = "<".join(f"X{i}" for i in self.letter_order)
        return f"u-order:U={u};{perm}"

    def __repr__(self):
        return f"UOrder({self.describe()}, tau={self.tau})"


def high_term(order: MonomialOrder, a) -> Monomial:
    """The order-maximal monomial of a nonzero polynomial."""
    if a.is_zero:
        raise ValueError("the zero polynomial has no high term")
    return max(a.terms, key=order.key)


def check_multiplicative(order, trials: int, max_len: int, seed: int):
    """Randomized check of the two multiplicativity axioms: 1 < a for a != 1,
    and a < a' implying b*a*c < b*a'*c.  Returns the first counterexample,
    or None when every trial passes."""
    rng = random.Random(seed)
    d = order.d
    tau = order.tau

    def rand_word(min_len=0):
        n = rng.randint(min_len, max_len)
        letters = tuple(rng.randint(1, d) for _ in range(n))
        return Monomial(letters, sum(tau[i - 1] for i in letters))

    one = Monomial((), 0)
    for _ in range(trials):
        a = rand_word(min_len=1)
        if order.compare(one, a) != LT:
            return ("one-minimal", a)
        a2 = rand_word(min_len=1)
        cmp = order.compare(a, a2)
        if cmp == EQ:
            continue
        if cmp == GT:
            a, a2 = a2, a
        b = rand_word()
        c = rand_word()
        if order.compare(b * a * c, b * a2 * c) != LT:
            return ("translation", a, a2, b, c)
    return None


def parse_order_spec(spec: str, names, tau) -> MonomialOrder:
    """Parse CLI order selectors.

    Formats: "deglex", "deglex:x1<x3<x2<x4", "u-order:U=x1,x2",
    "u-order:U=x1,x2;x1<x2<x3".  Generator references use the
    presentation's names.
    """

    def lookup(token):
        return generator_index(token.strip(), names, "order spec")

    def parse_perm(text):
        letters = tuple(lookup(t) for t in text.split("<"))
        if sorted(letters) != list(range(1, len(names) + 1)):
            raise ParseError(f"order spec {text!r} must list every generator exactly once")
        return letters

    spec = spec.strip()
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "deglex":
        perm = parse_perm(rest) if rest else None
        return DegLexOrder(tau, perm)
    if kind in ("u-order", "uorder"):
        if not rest.startswith("U="):
            raise ParseError(f"u-order spec must start with 'U=', got {spec!r}")
        u_part, _, perm_part = rest[2:].partition(";")
        u = frozenset(lookup(t) for t in u_part.split(",") if t.strip())
        perm = parse_perm(perm_part) if perm_part else None
        return UOrder(u, tau, perm)
    raise ParseError(f"unknown order kind {kind!r} (expected deglex or u-order)")
