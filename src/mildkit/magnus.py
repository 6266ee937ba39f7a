"""Group words and their truncated Magnus expansions.

A word in the free group maps into the power-series algebra by sending
each generator x_i to 1 + X_i; everything downstream (valuations, initial
forms, Massey coefficients) reads off this expansion.  Negative exponents
go through the truncated series inverse, so x * x^-1 collapses to 1
exactly at every cutoff.

Word grammar (also used by presentation files):

    word := term+
    term := atom ('^' signed-int)?
    atom := generator-name | '(' word ')' | '[' word ',' word ']'

Whitespace between terms is optional and '*' is permitted as a separator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Context, Poly, check_weights, mul_truncated
from .errors import ParseError, PrecisionError


# ---------------------------------------------------------------------------
# word structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gen:
    index: int
    exponent: int = 1

    def __post_init__(self):
        if self.exponent == 0:
            raise ValueError("zero exponent")


@dataclass(frozen=True)
class Commutator:
    left: GroupWord
    right: GroupWord
    exponent: int = 1

    def __post_init__(self):
        if self.exponent == 0:
            raise ValueError("zero exponent")


@dataclass(frozen=True)
class Sub:
    """Parenthesized subword, possibly with an exponent (e.g. the inverse)."""

    word: GroupWord
    exponent: int = 1

    def __post_init__(self):
        if self.exponent == 0:
            raise ValueError("zero exponent")


@dataclass(frozen=True)
class GroupWord:
    factors: tuple = ()

    def __mul__(self, other: GroupWord) -> GroupWord:
        return GroupWord(self.factors + other.factors)

    def inverse(self) -> GroupWord:
        out = []
        for atom in reversed(self.factors):
            if isinstance(atom, Gen):
                out.append(Gen(atom.index, -atom.exponent))
            elif isinstance(atom, Commutator):
                out.append(Commutator(atom.left, atom.right, -atom.exponent))
            else:
                out.append(Sub(atom.word, -atom.exponent))
        return GroupWord(tuple(out))

    @property
    def is_empty(self) -> bool:
        return not self.factors

    def max_index(self) -> int:
        top = 0
        for atom in self.factors:
            if isinstance(atom, Gen):
                top = max(top, atom.index)
            elif isinstance(atom, Commutator):
                top = max(top, atom.left.max_index(), atom.right.max_index())
            else:
                top = max(top, atom.word.max_index())
        return top


def word(*atoms) -> GroupWord:
    return GroupWord(tuple(atoms))


def commutator(a: GroupWord, b: GroupWord, exponent: int = 1) -> GroupWord:
    return GroupWord((Commutator(a, b, exponent),))


def substitute(w: GroupWord, images) -> GroupWord:
    """Structurally replace x_i by images[i-1]; exponents and commutators
    are preserved.  images must cover every generator index used."""
    images = list(images)
    if w.max_index() > len(images):
        raise ValueError(
            f"word uses generator index {w.max_index()} but only "
            f"{len(images)} images were given"
        )
    out = []
    for atom in w.factors:
        if isinstance(atom, Gen):
            out.append(Sub(images[atom.index - 1], atom.exponent))
        elif isinstance(atom, Commutator):
            out.append(
                Commutator(
                    substitute(atom.left, images),
                    substitute(atom.right, images),
                    atom.exponent,
                )
            )
        else:
            out.append(Sub(substitute(atom.word, images), atom.exponent))
    return GroupWord(tuple(out))


def word_to_text(w: GroupWord, names=None) -> str:
    def name(i):
        return names[i - 1] if names else f"x{i}"

    def atom_text(atom):
        if isinstance(atom, Gen):
            base = name(atom.index)
        elif isinstance(atom, Commutator):
            base = f"[{word_to_text(atom.left, names)}, {word_to_text(atom.right, names)}]"
        else:
            base = f"({word_to_text(atom.word, names)})"
        return base if atom.exponent == 1 else f"{base}^{atom.exponent}"

    if w.is_empty:
        return "()"
    return " ".join(atom_text(a) for a in w.factors)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MagnusExpansion:
    """Truncated Magnus expansion: all terms of weighted degree <= cutoff."""

    poly: Poly
    cutoff: int

    @property
    def reduced(self) -> Poly:
        """The expansion minus its constant term 1."""
        one = self.poly.ctx.one()
        return self.poly - one


def _series_inverse(s: Poly, cutoff: int) -> Poly:
    # s = 1 + h with val(h) >= 1; inverse is the geometric sum in (-h)
    ctx = s.ctx
    h = s - ctx.one()
    acc = ctx.one()
    term = ctx.one()
    for _ in range(cutoff):
        term = mul_truncated(term, h, cutoff)
        if term.is_zero:
            break
        acc = acc - term if _ % 2 == 0 else acc + term
    return acc


def _series_power(s: Poly, e: int, cutoff: int) -> Poly:
    if e < 0:
        s = _series_inverse(s, cutoff)
        e = -e
    acc = s.ctx.one()
    base = s
    while e:
        if e & 1:
            acc = mul_truncated(acc, base, cutoff)
        e >>= 1
        if e:
            base = mul_truncated(base, base, cutoff)
    return acc


def _expand_atom(atom, ctx: Context, cutoff: int) -> Poly:
    if isinstance(atom, Gen):
        base = ctx.one() + ctx.gen(atom.index).truncate(cutoff)
        return _series_power(base, atom.exponent, cutoff)
    if isinstance(atom, Commutator):
        a = _expand_word(atom.left, ctx, cutoff)
        b = _expand_word(atom.right, ctx, cutoff)
        ai = _series_inverse(a, cutoff)
        bi = _series_inverse(b, cutoff)
        comm = mul_truncated(mul_truncated(ai, bi, cutoff), mul_truncated(a, b, cutoff), cutoff)
        return _series_power(comm, atom.exponent, cutoff)
    sub = _expand_word(atom.word, ctx, cutoff)
    return _series_power(sub, atom.exponent, cutoff)


def _expand_word(w: GroupWord, ctx: Context, cutoff: int) -> Poly:
    acc = ctx.one()
    for atom in w.factors:
        acc = mul_truncated(acc, _expand_atom(atom, ctx, cutoff), cutoff)
    return acc


def expand(w: GroupWord, ctx: Context, cutoff: int) -> MagnusExpansion:
    """Image of the word under x_i -> 1 + X_i, truncated past cutoff.

    The commutator convention is [a, b] = a^-1 b^-1 a b; mildness and
    Demuškin-type verdicts are invariant under the choice.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if w.max_index() > ctx.d:
        raise ValueError(
            f"word uses generator index {w.max_index()} but the context has d = {ctx.d}"
        )
    return MagnusExpansion(_expand_word(w, ctx, cutoff), cutoff)


def epsilon(w: GroupWord, index_tuple, ctx: Context) -> int:
    """Coefficient of X_{i_1} ... X_{i_k} in the Magnus expansion."""
    letters = tuple(index_tuple)
    mono = ctx.monomial(letters)
    cutoff = max(mono.tau_degree, 1)
    return expand(w, ctx, cutoff).poly.coefficient(mono)


def omega(w: GroupWord, ctx: Context, cutoff: int):
    """Weighted valuation of the expansion minus one; None when the
    truncation is trivial (the word sits deeper than the cutoff, or is 1)."""
    reduced = expand(w, ctx, cutoff).reduced
    if reduced.is_zero:
        return None
    return reduced.tau_valuation()


def initial_form(w: GroupWord, ctx: Context, cutoff: int) -> Poly:
    """Lowest-degree homogeneous component of the expansion minus one."""
    return _initial_form(expand(w, ctx, cutoff).reduced, cutoff)


def _initial_form(reduced: Poly, cutoff: int) -> Poly:
    """initial_form off the expansion minus one, truncated past the cutoff."""
    if reduced.is_zero:
        raise PrecisionError(
            f"no terms of weighted degree <= {cutoff}; increase precision "
            "(the word may also be trivial)"
        )
    return reduced.homogeneous_component(reduced.tau_valuation())


# ---------------------------------------------------------------------------
# word parsing
# ---------------------------------------------------------------------------

class _WordParser:
    def __init__(self, text: str, names, line=None, column_offset=0):
        self.text = text
        self.names = list(names)
        self.by_length = sorted(self.names, key=len, reverse=True)
        self.line = line
        self.column_offset = column_offset
        self.pos = 0

    def error(self, message):
        raise ParseError(message, line=self.line, column=self.pos + 1 + self.column_offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t*":
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_word(self, stop=frozenset()) -> GroupWord:
        atoms = []
        self.skip_ws()
        while self.pos < len(self.text) and self.peek() not in stop:
            atoms.append(self.parse_term())
            self.skip_ws()
        if not atoms:
            self.error("expected a word")
        return GroupWord(tuple(atoms))

    def parse_term(self):
        atom = self.parse_atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            e = self.parse_int()
            if isinstance(atom, Gen):
                atom = Gen(atom.index, atom.exponent * e)
            elif isinstance(atom, Commutator):
                atom = Commutator(atom.left, atom.right, atom.exponent * e)
            else:
                atom = Sub(atom.word, atom.exponent * e)
        return atom

    def parse_atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.parse_word(stop=frozenset(")"))
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return Sub(inner)
        if ch == "[":
            self.pos += 1
            left = self.parse_word(stop=frozenset(","))
            if self.peek() != ",":
                self.error("expected ',' in commutator")
            self.pos += 1
            right = self.parse_word(stop=frozenset("]"))
            if self.peek() != "]":
                self.error("expected ']'")
            self.pos += 1
            return Commutator(left, right)
        for name in self.by_length:
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                return Gen(self.names.index(name) + 1)
        self.error(f"expected a generator name, '(' or '['; got {ch!r}")

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        while self.peek().isdigit():
            self.pos += 1
        token = self.text[start : self.pos]
        if not token or token in "+-":
            self.error("expected an integer exponent")
        value = int(token)
        if value == 0:
            self.pos = start
            self.error("exponent must be nonzero")
        return value


def parse_word(text: str, names, line=None, column_offset=0) -> GroupWord:
    """Parse a word over the given generator names (longest match wins)."""
    parser = _WordParser(text, names, line=line, column_offset=column_offset)
    w = parser.parse_word()
    if parser.pos != len(parser.text):
        parser.error(f"unexpected {parser.peek()!r}")
    return w


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    """A finite pro-p presentation: prime, generator names, weights, and
    named relator words.  Loading checks that every relator has valuation
    >= 2 in the unweighted filtration (minimality); deeper structure is
    the caller's business."""

    p: int
    names: tuple[str, ...]
    tau: tuple[int, ...]
    relators: tuple[tuple[str, GroupWord], ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("need at least one generator")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator names")
        if len(check_weights(self.tau)) != len(self.names):
            raise ValueError(f"expected {len(self.names)} weights, got {len(self.tau)}")
        seen = set()
        for name, _ in self.relators:
            if name in seen:
                raise ValueError(f"duplicate relator name {name!r}")
            seen.add(name)
        ctx = self.context(unweighted=True)  # validates the prime as well
        for name, w in self.relators:
            red = expand(w, ctx, 1).reduced
            if not red.is_zero:
                raise ValueError(
                    f"relator {name!r} has valuation 1: presentation is not minimal"
                )

    @property
    def d(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.relators)

    def context(self, tau=None, unweighted=False) -> Context:
        if unweighted:
            return Context(self.p, self.d)
        return Context(self.p, self.d, self.tau if tau is None else check_weights(tau))

    def relator_words(self):
        return [w for _, w in self.relators]

    def relator_names(self):
        return tuple(name for name, _ in self.relators)

    def to_text(self) -> str:
        lines = [
            f"p: {self.p}",
            f"generators: {', '.join(self.names)}",
            f"weights: {', '.join(str(t) for t in self.tau)}",
            "relators:",
        ]
        for name, w in self.relators:
            lines.append(f"  {name}: {word_to_text(w, self.names)}")
        return "\n".join(lines) + "\n"


def make_presentation(p, names, relator_texts, tau=None) -> Presentation:
    """Convenience builder: relator_texts is a list of (name, word text)."""
    names = tuple(names)
    if tau is None:
        tau = (1,) * len(names)
    relators = tuple((name, parse_word(text, names)) for name, text in relator_texts)
    return Presentation(p, names, check_weights(tau), relators)
