"""Hall commutator bases of free (restricted) Lie algebras inside the free
associative algebra, and the restricted split that decides membership.

Hall set conventions: the letters are ordered X_1 > X_2 > ... > X_d; a
bracket [c1, c2] is admitted when c1 > c2 and, if c1 = [c3, c4], also
c2 >= c4.  Elements of lower weight precede higher weight, and brackets of
equal weight compare lexicographically by (left, right).

The free Lie algebra is graded by letter content, the sorted (letter,
count) pairs of a word, so the commutators are built content by content:
those of a content are the admitted brackets of the commutators of its
splits into two parts.  A listing builds only the contents it asks for and
their parts, never a whole weight to filter.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .algebra import Context, Frozen, Poly, check_weights, is_prime
from .errors import MildkitError
from .linalg import solve_combination
from .magnus import Gen, GroupWord, Sub, commutator as group_commutator


class HallElement(Frozen):
    """A Hall commutator: either a generator leaf or a bracket of two
    smaller Hall elements, with weight and weighted degree cached."""

    letter: int | None
    left: HallElement | None
    right: HallElement | None
    weight: int
    tau_degree: int

    @property
    def is_leaf(self) -> bool:
        return self.letter is not None

    @cached_property
    def key(self):
        """Total-order key: weight first, then leaves X_1 > ... > X_d,
        then lexicographic in (left, right)."""
        if self.is_leaf:
            return (1, -self.letter)
        return (self.weight, self.left.key, self.right.key)

    def format(self, names=None) -> str:
        if self.is_leaf:
            return names[self.letter - 1] if names else f"X{self.letter}"
        return f"[{self.left.format(names)},{self.right.format(names)}]"

    def __repr__(self):
        return f"HallElement({self.format()})"


def _leaf(i: int, tau) -> HallElement:
    return HallElement(i, None, None, 1, tau[i - 1])


def _bracket(a: HallElement, b: HallElement) -> HallElement:
    return HallElement(None, a, b, a.weight + b.weight, a.tau_degree + b.tau_degree)


def _contents(tau, n: int, first: int = 1) -> list[tuple[tuple[int, int], ...]]:
    """The letter contents of weighted degree n over the letters first..d."""
    if n == 0:
        return [()]
    return [((x, k),) + rest for x in range(first, len(tau) + 1) for k in range(1, n // tau[x - 1] + 1)
            for rest in _contents(tau, n - k * tau[x - 1], x + 1)]


def _splits(content):
    """The splits (a, b) of a content into two nonempty parts with a of at
    least b's weight: a Hall bracket [c1, c2] needs c1 > c2, and the key
    compares weights first."""
    total = sum(k for _, k in content)
    for counts in itertools.product(*(range(k + 1) for _, k in content)):
        if total <= 2 * sum(counts) < 2 * total:
            yield (tuple((x, i) for (x, _), i in zip(content, counts) if i),
                   tuple((x, k - i) for (x, k), i in zip(content, counts) if k - i))


def _hall_of(content, tau, memo: dict) -> list[HallElement]:
    """The Hall commutators of a letter content, unsorted: a leaf for one
    letter of count 1, nothing for one letter of a higher count, else the
    admitted brackets [c1, c2] over the content's splits.  memo holds the
    contents built so far in one listing."""
    if content not in memo:
        if len(content) == 1:
            [(letter, count)] = content
            memo[content] = [_leaf(letter, tau)] if count == 1 else []
        else:
            memo[content] = [
                _bracket(c1, c2)
                for a, b in _splits(content)
                for c1 in _hall_of(a, tau, memo) for c2 in _hall_of(b, tau, memo)
                if c1.key > c2.key and (c1.is_leaf or c1.right.key <= c2.key)
            ]
    return memo[content]


def _weights(d: int, n: int, tau) -> tuple[int, ...]:
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    return (1,) * d if tau is None else check_weights(tau, d)


def hall_basis(d: int, n: int, tau=None) -> list[HallElement]:
    """All Hall commutators of weighted degree n over d generators (unit
    weights by default), sorted."""
    tau = _weights(d, n, tau)
    memo: dict = {}
    return sorted((c for content in _contents(tau, n) for c in _hall_of(content, tau, memo)),
                  key=lambda c: c.key)


class RestrictedBasisElement(Frozen):
    """A Hall commutator raised to a p^j-th power (j = 0: the commutator
    itself); contributes in weighted degree tau_degree(base) * p^j."""

    base: HallElement
    p_exp: int

    @property
    def key(self):
        return (self.p_exp, self.base.key)

    def format(self, names=None, p=None) -> str:
        base = self.base.format(names)
        if self.p_exp == 0:
            return base
        if p is not None:
            return f"{base}^{p ** self.p_exp}"
        return f"{base}^(p^{self.p_exp})"

    def __repr__(self):
        return f"RestrictedBasisElement({self.format()})"


def restricted_basis(d: int, n: int, p: int, tau=None) -> list[RestrictedBasisElement]:
    """Basis of degree n of the free restricted Lie algebra: all c^(p^j)
    with (weighted degree of c) * p^j = n, so p^j <= n and j < log2(n) + 1."""
    tau = _weights(d, n, tau)
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    return [RestrictedBasisElement(c, j) for j in range(n.bit_length()) if n % p**j == 0
            for c in hall_basis(d, n // p**j, tau)]


def expand_to_assoc(elem, ctx: Context) -> Poly:
    """Image in the free associative algebra: [a, b] -> ab - ba, and a
    p^j-th power mark -> the associative p^j-th power."""
    if isinstance(elem, RestrictedBasisElement):
        out = expand_to_assoc(elem.base, ctx)
        for _ in range(elem.p_exp):
            acc = out
            for _ in range(ctx.p - 1):
                acc = acc * out
            out = acc
        return out
    if elem.is_leaf:
        return ctx.gen(elem.letter)
    a = expand_to_assoc(elem.left, ctx)
    b = expand_to_assoc(elem.right, ctx)
    return a * b - b * a


def hall_to_group_word(elem, p=None) -> GroupWord:
    """Group-word realization: brackets become group commutators and p^j-th
    powers become literal powers (p must be supplied for those)."""
    if isinstance(elem, RestrictedBasisElement):
        inner = hall_to_group_word(elem.base)
        if elem.p_exp == 0:
            return inner
        if p is None:
            raise ValueError("p is required to realize a p-power element as a word")
        return GroupWord((Sub(inner, p**elem.p_exp),))
    if elem.is_leaf:
        return GroupWord((Gen(elem.letter),))
    return group_commutator(hall_to_group_word(elem.left), hall_to_group_word(elem.right))


class NotInRestrictedLieError(MildkitError):
    """The polynomial is not a combination of the restricted Hall basis in
    its degree, so it cannot be the initial form of a group element."""


def lie_membership(f: Poly, n: int):
    """Coordinates of f over the weight-graded Hall basis (pure commutators,
    no p-powers) in degree n, or None when f is not a Lie polynomial.  They
    are read off the restricted split, whose basis contains that Hall basis:
    f is Lie exactly when its unique split has no p-power part."""
    try:
        split = p_power_commutator_split(f, n)
    except NotInRestrictedLieError:
        return None
    return None if split.power_part else [(e.base, c) for e, c in split.lie_part]


class PowerCommutatorSplit(Frozen):
    """Unique coordinates over the restricted Hall basis, partitioned into
    genuine p-power elements (j >= 1) and pure commutators."""

    power_part: list[tuple[RestrictedBasisElement, int]]
    lie_part: list[tuple[RestrictedBasisElement, int]]

    @property
    def is_lie(self) -> bool:
        return not self.power_part


def p_power_commutator_split(f: Poly, n: int) -> PowerCommutatorSplit:
    """Split f over the restricted Hall basis of its degree; raises
    NotInRestrictedLieError when f lies outside (nonzero residual).  The
    algebra is graded by letter content: every word of c's expansion has
    c's letters, and every word of c^(p^j)'s has them p^j times each.  So
    only the basis elements with the content of some term of f can have a
    nonzero coordinate, and only those are built and expanded."""
    if f.is_zero or not f.is_homogeneous() or f.tau_valuation() != n:
        raise ValueError(f"expected a nonzero homogeneous polynomial of degree {n}")
    ctx, memo = f.ctx, {}
    contents = {tuple((x, m.letters.count(x)) for x in sorted(set(m.letters))) for m in f.terms}
    # the contents of f divided by p^j: each count is at most n, so j < log2(n) + 1
    parts = [(j, tuple((x, k // ctx.p**j) for x, k in content)) for content in contents
             for j in range(n.bit_length()) if all(k % ctx.p**j == 0 for _, k in content)]
    basis = sorted((RestrictedBasisElement(c, j) for j, part in parts for c in _hall_of(part, ctx.tau, memo)),
                   key=lambda e: e.key)
    keys: dict = {}
    columns = [{keys.setdefault(m, len(keys)): c for m, c in expand_to_assoc(e, ctx).terms.items()}
               for e in basis]
    target = {keys.setdefault(m, len(keys)): c for m, c in f.terms.items()}
    coords = solve_combination(ctx.p, columns, target)
    if coords is None:
        raise NotInRestrictedLieError(
            f"polynomial is not in the degree-{n} part of the restricted Lie algebra"
        )
    power = [(e, c) for e, c in zip(basis, coords) if c and e.p_exp >= 1]
    lie = [(e, c) for e, c in zip(basis, coords) if c and e.p_exp == 0]
    return PowerCommutatorSplit(power, lie)


def witt_number(d: int, n: int) -> int:
    """Dimension of degree n of the free Lie algebra on d letters:
    (1/n) sum_{k | n} mu(k) d^(n/k)."""
    total = 0
    for k in range(1, n + 1):
        if n % k == 0:
            total += _moebius(k) * d ** (n // k)
    assert total % n == 0
    return total // n


def _moebius(k: int) -> int:
    mu = 1
    q = 2
    while q * q <= k:
        if k % q == 0:
            k //= q
            if k % q == 0:
                return 0
            mu = -mu
        q += 1
    if k > 1:
        mu = -mu
    return mu
