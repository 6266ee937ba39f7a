"""Hall commutator bases of free (restricted) Lie algebras inside the free
associative algebra, and the membership/splitting solves built on them.

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
    """Hall commutators of every weight 1..n, indexed by weight."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    tau = check_weights(tau) if tau is not None else (1,) * d
    if len(tau) != d:
        raise ValueError(f"expected {d} weights, got {len(tau)}")
    layers: list[list[HallElement]] = [[]]
    layers.append(sorted((_leaf(i, tau) for i in range(1, d + 1)), key=lambda c: c.key))
    for w in range(2, n + 1):
        new = []
        for w1 in range(1, w):
            w2 = w - w1
            for c1 in layers[w1]:
                for c2 in layers[w2]:
                    if c1.key <= c2.key:
                        continue
                    if not c1.is_leaf and c1.right.key > c2.key:
                        continue
                    new.append(_bracket(c1, c2))
        new.sort(key=lambda c: c.key)
        layers.append(new)
    return layers


def hall_basis_by_tau_degree(d: int, tdeg: int, tau) -> list[HallElement]:
    """Hall commutators of weighted degree tdeg (weights >= 1 bound the
    bracket weight by tdeg)."""
    tau = check_weights(tau)
    layers = hall_layers(d, tdeg, tau)
    out = [c for layer in layers for c in layer if c.tau_degree == tdeg]
    out.sort(key=lambda c: c.key)
    return out


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
    if tau is None:
        tau = (1,) * d
    out = []
    q = 1
    j = 0
    while q <= n:
        if n % q == 0:
            for c in hall_basis_by_tau_degree(d, n // q, tau):
                out.append(RestrictedBasisElement(c, j))
        q *= p
        j += 1
    out.sort(key=lambda e: e.key)
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


def _solve_over(ctx: Context, elements, f: Poly, n: int):
    if f.is_zero or not f.is_homogeneous() or f.tau_valuation() != n:
        raise ValueError(f"expected a nonzero homogeneous polynomial of degree {n}")
    columns = []
    keys: dict = {}

    def vec(poly):
        out = {}
        for m, c in poly.terms.items():
            k = keys.setdefault(m, len(keys))
            out[k] = c
        return out

    expansions = [expand_to_assoc(e, ctx) for e in elements]
    columns = [vec(e) for e in expansions]
    target = vec(f)
    coords = solve_combination(ctx.p, columns, target)
    if coords is None:
        return None
    return [(e, c) for e, c in zip(elements, coords) if c]


def lie_membership(f: Poly, n: int):
    """Coordinates of f over the weight-graded Hall basis (pure commutators,
    no p-powers) in degree n, or None when f is not a Lie polynomial."""
    ctx = f.ctx
    basis = hall_basis_by_tau_degree(ctx.d, n, ctx.tau)
    return _solve_over(ctx, basis, f, n)


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
    NotInRestrictedLieError when f lies outside (nonzero residual)."""
    ctx = f.ctx
    basis = restricted_basis(ctx.d, n, ctx.p, ctx.tau)
    coords = _solve_over(ctx, basis, f, n)
    if coords is None:
        raise NotInRestrictedLieError(
            f"polynomial is not in the degree-{n} part of the restricted Lie algebra"
        )
    power = [(e, c) for e, c in coords if e.p_exp >= 1]
    lie = [(e, c) for e, c in coords if e.p_exp == 0]
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
