"""Exact arithmetic kernel: F_p contexts, weighted monomials, sparse
noncommutative polynomials, and truncated integer power series with the
first-nonzero-coefficient total order used for Poincaré series.
"""

from __future__ import annotations

import itertools
import math
import operator

from .errors import ContextMismatchError

# Coefficient moduli stay machine-sized; rank computations assume this.
MAX_MODULUS = 1 << 16

#: Valuation of the zero polynomial.
INFINITY = math.inf

LESS = "less"
EQUAL_TO_CUTOFF = "equal-to-cutoff"
GREATER = "greater"


def is_prime(n: int) -> bool:
    """Trial division; inputs are desk-scale by design."""
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def check_weights(tau, d=None) -> tuple[int, ...]:
    """Validate a generator weight vector (every entry >= 1), and its
    length when the number of generators d is given."""
    tau = tuple(int(t) for t in tau)
    if not tau:
        raise ValueError("weight vector must be nonempty")
    if any(t < 1 for t in tau):
        raise ValueError(f"weights must be positive integers, got {tau}")
    if d is not None and len(tau) != d:
        raise ValueError(f"expected {d} weights, got {len(tau)}")
    return tau


_setattr = object.__setattr__
_MISSING = object()


class Frozen:
    """Base of mildkit's immutable values.  A class's fields follow its bases':
    its `__slots__`, else its annotated names, a class-level value being the
    default.  The base gives equality by class and fields, the hash of the
    field tuple, a repr, `replace`, assignment that raises, and a constructor
    that then runs the class's `__post_init__` check, if it has one.  The
    slotted types write their own `__init__`, and the hot ones their own
    `__eq__` and `__hash__`, to the same effect."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__") or cls.__annotations__
        cls._fields = fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        cls._defaults = tuple(getattr(cls, n, _MISSING) for n in fields)
        cls._checked = hasattr(cls, "__post_init__")
        # the field tuple, as self._values(self)
        cls._values = staticmethod(operator.attrgetter(*fields) if len(fields) > 1
                                   else lambda obj: tuple([getattr(obj, n) for n in fields]))

    def __init__(self, *args, **kwargs):
        fields, given = self._fields, len(args)
        if given != len(fields) or kwargs:
            rest = self._defaults[given:]
            args += tuple([kwargs.pop(n, v) for n, v in zip(fields[given:], rest)]) if kwargs else rest
            if len(args) != len(fields) or kwargs or _MISSING in args:
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        # one field at a time: __dict__.update would turn the inline values
        # into a dict, and every later read of a field would be slower
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        if self._checked:
            self.__post_init__()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete {name!r}: a {type(self).__name__} is frozen")

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), self._values(self)

    def replace(self, **changes):
        """A copy with the given fields changed, checked like a new value."""
        return type(self)(*[changes.pop(n, getattr(self, n)) for n in self._fields], **changes)


class Context(Frozen):
    """Ambient data for polynomial arithmetic: prime modulus p, number of
    generators d, and the weight vector tau assigning deg X_i = tau_i
    (all 1 when omitted).

    Instances are immutable and compare by value; all polynomial
    operations require equal contexts on both operands.
    """

    __slots__ = ("p", "d", "tau")

    def __init__(self, p: int, d: int, tau=None):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p > MAX_MODULUS:
            raise ValueError(f"modulus {p} exceeds the supported bound {MAX_MODULUS}")
        if d < 1:
            raise ValueError("need at least one generator")
        tau = check_weights((1,) * d if tau is None else tau, d)
        _setattr(self, "p", p)
        _setattr(self, "d", d)
        _setattr(self, "tau", tau)

    def __eq__(self, other):
        return (other.__class__ is self.__class__ and self.p == other.p and self.d == other.d
                and self.tau == other.tau)

    def __hash__(self):
        return hash((self.p, self.d, self.tau))

    def monomial(self, letters) -> Monomial:
        letters = tuple(letters)
        for i in letters:
            if not 1 <= i <= self.d:
                raise ValueError(f"generator index {i} out of range 1..{self.d}")
        return Monomial(letters, sum(self.tau[i - 1] for i in letters))

    def decode(self, code: int, degree: int) -> Monomial:
        """The monomial of an integer-coded word of the given degree: the
        word X_{l_1}...X_{l_k} is l_1 (d+1)^(k-1) + ... + l_k, its letters
        read as digits 1..d in base d + 1."""
        letters = []
        while code:
            code, j = divmod(code, self.d + 1)
            letters.append(j)
        return Monomial(tuple(reversed(letters)), degree)

    # -- polynomial constructors -------------------------------------------

    def poly(self, items) -> Poly:
        """Build a polynomial from (letters, coefficient) pairs."""
        terms: dict[Monomial, int] = {}
        for letters, c in items:
            m = letters if isinstance(letters, Monomial) else self.monomial(letters)
            terms[m] = (terms.get(m, 0) + c) % self.p
        return Poly(self, {m: c for m, c in terms.items() if c})

    def zero(self) -> Poly:
        return Poly(self, {})

    def one(self) -> Poly:
        return Poly(self, {Monomial((), 0): 1 % self.p})

    def gen(self, i: int) -> Poly:
        return self.poly([((i,), 1)])


class Monomial(Frozen):
    """A word over generator indices with its weighted degree cached.

    The cached degree makes concatenation weight-free: degrees add.  The
    empty word is the monomial 1 (degree 0).
    """

    __slots__ = ("letters", "tau_degree")

    def __init__(self, letters: tuple[int, ...], tau_degree: int):
        _setattr(self, "letters", letters)
        _setattr(self, "tau_degree", tau_degree)

    def __eq__(self, other):
        return (other.__class__ is self.__class__ and self.letters == other.letters
                and self.tau_degree == other.tau_degree)

    def __hash__(self):
        return hash((self.letters, self.tau_degree))

    def __mul__(self, other: Monomial) -> Monomial:
        return Monomial(self.letters + other.letters, self.tau_degree + other.tau_degree)

    def __len__(self):
        return len(self.letters)

    @property
    def sort_key(self):
        """Canonical container key: (degree, length, letters). Storage order
        only; semantic comparisons live in the orders module."""
        return (self.tau_degree, len(self.letters), self.letters)

    def format(self, names=None) -> str:
        if not self.letters:
            return "1"
        out = []
        for letter, run in itertools.groupby(self.letters):
            name = names[letter - 1] if names else f"X{letter}"
            mult = len(list(run))
            out.append(name if mult == 1 else f"{name}^{mult}")
        return "*".join(out)

    def __repr__(self):
        return f"Monomial({self.format()})"


class Poly(Frozen):
    """Sparse noncommutative polynomial over F_p: a map monomial -> nonzero
    coefficient in [1, p).  Immutable after construction.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict[Monomial, int]):
        _setattr(self, "ctx", ctx)
        _setattr(self, "terms", terms)

    def _check(self, other: Poly):
        if self.ctx != other.ctx:
            raise ContextMismatchError(f"{self.ctx} vs {other.ctx}")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def __add__(self, other: Poly) -> Poly:
        self._check(other)
        p = self.ctx.p
        terms = dict(self.terms)
        for m, c in other.terms.items():
            v = (terms.get(m, 0) + c) % p
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
        return Poly(self.ctx, terms)

    def __neg__(self) -> Poly:
        p = self.ctx.p
        return Poly(self.ctx, {m: (-c) % p for m, c in self.terms.items()})

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other) -> Poly:
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        p = self.ctx.p
        terms: dict[Monomial, int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = ma * mb
                v = (terms.get(m, 0) + ca * cb) % p
                if v:
                    terms[m] = v
                else:
                    terms.pop(m, None)
        return Poly(self.ctx, terms)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: int) -> Poly:
        c %= self.ctx.p
        if c == 0:
            return self.ctx.zero()
        return Poly(self.ctx, {m: (c * v) % self.ctx.p for m, v in self.terms.items()})

    def coefficient(self, letters) -> int:
        m = letters if isinstance(letters, Monomial) else self.ctx.monomial(letters)
        return self.terms.get(m, 0)

    def tau_valuation(self):
        """Minimum weighted degree of a term; INFINITY for 0."""
        if not self.terms:
            return INFINITY
        return min(m.tau_degree for m in self.terms)

    def homogeneous_component(self, n: int) -> Poly:
        return Poly(self.ctx, {m: c for m, c in self.terms.items() if m.tau_degree == n})

    def degrees(self) -> list[int]:
        return sorted({m.tau_degree for m in self.terms})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def truncate(self, cutoff: int) -> Poly:
        return Poly(self.ctx, {m: c for m, c in self.terms.items() if m.tau_degree <= cutoff})

    def monomials(self) -> list[Monomial]:
        return sorted(self.terms, key=lambda m: m.sort_key)

    def format(self, names=None) -> str:
        if not self.terms:
            return "0"
        out = []
        for m in self.monomials():
            c = self.terms[m]
            if not m.letters:
                out.append(str(c))
            elif c == 1:
                out.append(m.format(names))
            else:
                out.append(f"{c}*{m.format(names)}")
        return " + ".join(out)

    def __repr__(self):
        return f"Poly({self.format()} mod {self.ctx.p})"


def mul_truncated(a: Poly, b: Poly, cutoff: int) -> Poly:
    """The Poly-level truncated product: a * b with all terms of weighted
    degree > cutoff dropped."""
    return (a * b).truncate(cutoff)


class IntSeries(Frozen):
    """Integer power series c_0 + c_1 t + ... + c_N t^N known up to cutoff N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        _setattr(self, "coeffs", tuple(int(c) for c in coeffs))

    @property
    def cutoff(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    @classmethod
    def one(cls, cutoff: int) -> IntSeries:
        return cls((1,) + (0,) * cutoff)

    def __add__(self, other: IntSeries) -> IntSeries:
        n = min(self.cutoff, other.cutoff)
        return IntSeries(tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)))

    def __sub__(self, other: IntSeries) -> IntSeries:
        n = min(self.cutoff, other.cutoff)
        return IntSeries(tuple(self.coeffs[i] - other.coeffs[i] for i in range(n + 1)))

    def __mul__(self, other: IntSeries) -> IntSeries:
        """Cauchy product truncated at the smaller cutoff."""
        n = min(self.cutoff, other.cutoff)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return IntSeries(tuple(out))

    def inverse(self) -> IntSeries:
        """Multiplicative inverse up to the cutoff; requires c_0 in {1, -1}."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError(f"constant coefficient must be +-1 to invert, got {c0}")
        n = self.cutoff
        out = [0] * (n + 1)
        out[0] = c0
        for k in range(1, n + 1):
            acc = sum(self.coeffs[i] * out[k - i] for i in range(1, k + 1))
            out[k] = -c0 * acc
        return IntSeries(tuple(out))

    def __repr__(self):
        return f"IntSeries({list(self.coeffs)})"


def series_compare(a: IntSeries, b: IntSeries) -> str:
    """Total order on truncated integer series: decided by the sign of the
    first nonzero coefficient of a - b; EQUAL_TO_CUTOFF when all agree.
    Requires equal cutoffs."""
    if a.cutoff != b.cutoff:
        raise ValueError(f"cutoff mismatch: {a.cutoff} vs {b.cutoff}")
    for x, y in zip(a.coeffs, b.coeffs):
        if x != y:
            return GREATER if x > y else LESS
    return EQUAL_TO_CUTOFF


class Record(Frozen):
    """Base of the result records.  `as_dict` is the JSON envelope of a
    record: its fields in declaration order, leaving out a field that is
    None or "" (0 and False stay).  Nested records and sequences recurse,
    and a Poly or Monomial prints with `format(names)`."""

    def as_dict(self, names=None) -> dict:
        out = {}
        for name in self._fields:
            value = getattr(self, name)
            if value is not None and value != "":
                out[name] = _envelope(value, names)
        return out


def _envelope(value, names):
    if isinstance(value, Record):
        return value.as_dict(names)
    if isinstance(value, (Poly, Monomial)):
        return value.format(names)
    if isinstance(value, (tuple, list)):
        return [_envelope(v, names) for v in value]
    return value
