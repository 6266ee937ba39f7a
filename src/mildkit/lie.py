"""Hall commutator bases of free (restricted) Lie algebras inside the free
associative algebra, and the restricted split that decides membership.

Hall set conventions: the letters are ordered X_1 > X_2 > ... > X_d; a
bracket [c1, c2] is admitted when c1 > c2 and, if c1 = [c3, c4], also
c2 >= c4.  Elements of lower weight precede higher weight, and brackets of
equal weight compare lexicographically by (left, right).
"""

from __future__ import annotations

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


def hall_basis(d: int, n: int) -> list[HallElement]:
    """All Hall commutators of weight n over d generators, sorted."""
    return hall_layers(d, n)[n]


def hall_layers(d: int, n: int, tau=None) -> list[list[HallElement]]:
    """Hall commutators of every weight 1..n, indexed by weight.  Only
    nonempty layers are paired, so for d = 1 every layer past the first is
    empty at once."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    tau = check_weights(tau) if tau is not None else (1,) * d
    if len(tau) != d:
        raise ValueError(f"expected {d} weights, got {len(tau)}")
    layers: list[list[HallElement]] = [[]]
    layers.append(sorted((_leaf(i, tau) for i in range(1, d + 1)), key=lambda c: c.key))
    nonempty = [1]
    for w in range(2, n + 1):
        new = []
        for w1 in nonempty:
            for c1 in layers[w1]:
                for c2 in layers[w - w1]:
                    if c1.key <= c2.key:
                        continue
                    if not c1.is_leaf and c1.right.key > c2.key:
                        continue
                    new.append(_bracket(c1, c2))
        new.sort(key=lambda c: c.key)
        layers.append(new)
        if new:
            nonempty.append(w)
    return layers


def _hall_up_to(d: int, tdeg: int, tau) -> list[HallElement]:
    """The Hall commutators that can have weighted degree <= tdeg, in key
    order: a commutator of weight w has weighted degree >= w * min(tau),
    so the layers stop at weight tdeg // min(tau).  Each layer is sorted
    and the key begins with the weight, so the layers run in key order."""
    if tdeg < 1:
        raise ValueError("need d >= 1 and n >= 1")
    tau = check_weights(tau)
    layers = hall_layers(d, max(1, tdeg // min(tau)), tau)
    return [c for layer in layers for c in layer]


def hall_basis_by_tau_degree(d: int, tdeg: int, tau) -> list[HallElement]:
    """Hall commutators of weighted degree tdeg, sorted."""
    return [c for c in _hall_up_to(d, tdeg, tau) if c.tau_degree == tdeg]


class RestrictedBasisElement(Frozen):
    """A Hall commutator raised to a p^j-th power (j = 0: the commutator
    itself); contributes in weighted degree tau_degree(base) * p^j."""

    base: HallElement
    p_exp: int

    @property
    def key(self):
        return (self.p_exp, self.base.key)

    def degree(self, p: int) -> int:
        return self.base.tau_degree * p**self.p_exp

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
    with (weighted degree of c) * p^j = n."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    commutators = _hall_up_to(d, n, tau if tau is not None else (1,) * d)
    out = []
    q, j = 1, 0
    while q <= n:
        if n % q == 0:
            out.extend(RestrictedBasisElement(c, j) for c in commutators if c.tau_degree == n // q)
        q *= p
        j += 1
    return out


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


def _letters(c: HallElement) -> list[int]:
    return [c.letter] if c.is_leaf else _letters(c.left) + _letters(c.right)


def p_power_commutator_split(f: Poly, n: int) -> PowerCommutatorSplit:
    """Split f over the restricted Hall basis of its degree; raises
    NotInRestrictedLieError when f lies outside (nonzero residual).  The
    algebra is graded by letter content: every word of c's expansion has
    c's letters, and every word of c^(p^j)'s has them p^j times each.  So
    only the basis elements with the content of some term of f can have a
    nonzero coordinate, and only those are expanded."""
    if f.is_zero or not f.is_homogeneous() or f.tau_valuation() != n:
        raise ValueError(f"expected a nonzero homogeneous polynomial of degree {n}")
    ctx = f.ctx
    contents = {tuple(sorted(m.letters)) for m in f.terms}
    basis = [e for e in restricted_basis(ctx.d, n, ctx.p, ctx.tau)
             if tuple(sorted(_letters(e.base) * ctx.p**e.p_exp)) in contents]
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
