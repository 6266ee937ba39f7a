"""Group words, their truncated Magnus expansions, and presentations with
their file format.

A word in the free group maps into the power-series algebra by sending
each generator x_i to 1 + X_i; everything downstream (valuations, initial
forms, Massey coefficients) reads off this expansion.  It is computed in
integers: a truncated series is a dict {(weighted degree, length): {word:
coefficient}}, the word X_{l_1}...X_{l_k} coded l_1 (d+1)^(k-1) + ... + l_k
as in GradedQuotient, so u.v is u (d+1)^len(v) + v and truncation skips
whole buckets.  Generator powers have a closed form and inverses are
structural ((w)^-e expands w^-1, [a, b]^-1 = [b, a]), so no series is ever
inverted and x * x^-1 collapses to 1 exactly at every cutoff.

Word grammar (also used by presentation files):

    word := term+
    term := atom ('^' signed-int)?
    atom := generator-name | '(' word ')' | '[' word ',' word ']'

Whitespace between terms is optional and '*' is permitted as a separator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .algebra import Context, Poly, check_weights
from .errors import ParseError, PrecisionError


# ---------------------------------------------------------------------------
# word structure
# ---------------------------------------------------------------------------

class _Atom:
    """A factor of a word: a generator, a commutator or a parenthesized
    subword, raised to a nonzero exponent."""

    def __post_init__(self):
        if self.exponent == 0:
            raise ValueError("zero exponent")


@dataclass(frozen=True)
class Gen(_Atom):
    index: int
    exponent: int = 1


@dataclass(frozen=True)
class Commutator(_Atom):
    left: GroupWord
    right: GroupWord
    exponent: int = 1


@dataclass(frozen=True)
class Sub(_Atom):
    """Parenthesized subword, possibly with an exponent (e.g. the inverse)."""

    word: GroupWord
    exponent: int = 1


@dataclass(frozen=True)
class GroupWord:
    factors: tuple = ()

    def __mul__(self, other: GroupWord) -> GroupWord:
        return GroupWord(self.factors + other.factors)

    def inverse(self) -> GroupWord:
        return GroupWord(tuple(replace(a, exponent=-a.exponent) for a in reversed(self.factors)))

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
            left, right = substitute(atom.left, images), substitute(atom.right, images)
            out.append(replace(atom, left=left, right=right))
        else:
            out.append(replace(atom, word=substitute(atom.word, images)))
    return GroupWord(tuple(out))


def word_to_text(w: GroupWord, names=None) -> str:
    def atom_text(atom):
        if isinstance(atom, Gen):
            base = names[atom.index - 1] if names else f"x{atom.index}"
        elif isinstance(atom, Commutator):
            base = f"[{word_to_text(atom.left, names)}, {word_to_text(atom.right, names)}]"
        else:
            base = f"({word_to_text(atom.word, names)})"
        return base if atom.exponent == 1 else f"{base}^{atom.exponent}"

    if not w.factors:
        return "()"
    return " ".join(atom_text(a) for a in w.factors)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MagnusExpansion:
    """Truncated Magnus expansion: all terms of weighted degree <= cutoff,
    kept as the kernel's degree buckets, which expand's memo shares and
    nothing mutates.  poly decodes every term into a new Poly; valuation
    and component(n) read one degree only."""

    ctx: Context
    cutoff: int
    buckets: dict

    @property
    def poly(self) -> Poly:
        return self._decode(lambda key: True)

    @property
    def valuation(self):
        """Weighted valuation of the expansion minus one; None when that is
        zero up to the cutoff (the word sits deeper, or is 1)."""
        return min((deg for deg, _ in self.buckets if deg), default=None)

    def component(self, n: int) -> Poly:
        """The homogeneous component of weighted degree n."""
        return self._decode(lambda key: key[0] == n)

    def _decode(self, wanted) -> Poly:
        decode = self.ctx.decode
        return Poly(self.ctx, {decode(w, key[0]): c for key, terms in self.buckets.items()
                               if wanted(key) for w, c in terms.items()})


_ONE = {(0, 0): {0: 1}}  # the series 1; kernel functions never mutate a series


def _mul(ctx: Context, cutoff: int, *products) -> dict:
    """The sum of c * a * b over the given (c, a, b), truncated past the
    cutoff.  Bucket pairs past the cutoff are skipped, u.v is
    u * (d+1)^len(v) + v, and each output bucket is reduced mod p once."""
    out: dict = {}
    for c, a, b in products:
        for (da, la), ta in a.items():
            for (db, lb), tb in b.items():
                if da + db > cutoff:
                    continue
                shift = (ctx.d + 1) ** lb
                acc = out.setdefault((da + db, la + lb), {})
                get = acc.get
                for u, cu in ta.items():
                    u, cu = u * shift, c * cu
                    for v, cv in tb.items():
                        acc[u + v] = get(u + v, 0) + cu * cv
    p = ctx.p
    reduced = ((key, {w: r for w, c in terms.items() if (r := c % p)}) for key, terms in out.items())
    return {key: terms for key, terms in reduced if terms}


def _power(S: dict, e: int, ctx: Context, cutoff: int) -> dict:
    """(1 + S)^e = sum_k C(e, k) S^k for e > 0 and S without constant term;
    S^k vanishes past the cutoff for k large enough."""
    products, Sk = [(1, _ONE, _ONE)], _ONE
    for k in range(1, e + 1):
        Sk = _mul(ctx, cutoff, (1, Sk, S))
        if not Sk:
            break
        products.append((math.comb(e, k), _ONE, Sk))
    return _mul(ctx, cutoff, *products)


def _gen_power(i: int, e: int, ctx: Context, cutoff: int) -> dict:
    """(1 + X_i)^e in closed form: the coefficient of X_i^k (the word code
    i...i) is C(e, k), and (-1)^k C(-e + k - 1, k) for e < 0."""
    t, out, code = ctx.tau[i - 1], dict(_ONE), 0
    for k in range(1, cutoff // t + 1):
        code = code * (ctx.d + 1) + i
        c = (math.comb(e, k) if e > 0 else (-1) ** k * math.comb(k - e - 1, k)) % ctx.p
        if c:
            out[(k * t, k)] = {code: c}
    return out


def _commutator(a: GroupWord, b: GroupWord, ctx: Context, cutoff: int) -> dict:
    """[a, b] = 1 + a^-1 b^-1 (AB - BA) with a = 1 + A and b = 1 + B.  A and
    B have no terms below the least weight t, so they are read to cutoff - t,
    and the inverses to cutoff minus the valuation of AB - BA."""
    t = min(ctx.tau)
    A, B = ({k: v for k, v in _expand_word(x, ctx, cutoff - t).items() if k[0]} for x in (a, b))
    D = _mul(ctx, cutoff, (1, A, B), (-1, B, A))
    if not D:
        return _ONE
    room = cutoff - min(deg for deg, _ in D)
    out = _mul(ctx, cutoff, (1, _expand_word(b.inverse(), ctx, room), D))
    return _mul(ctx, cutoff, (1, _ONE, _ONE), (1, _expand_word(a.inverse(), ctx, room), out))


def _expand_atom(atom, ctx: Context, cutoff: int) -> dict:
    e = atom.exponent
    if isinstance(atom, Gen):
        return _gen_power(atom.index, e, ctx, cutoff)
    if isinstance(atom, Commutator):  # [a, b]^-1 = [b, a]
        a, b = (atom.left, atom.right) if e > 0 else (atom.right, atom.left)
        s = _commutator(a, b, ctx, cutoff)
    else:
        s = _expand_word(atom.word if e > 0 else atom.word.inverse(), ctx, cutoff)
    return s if abs(e) == 1 else _power({k: v for k, v in s.items() if k[0]}, abs(e), ctx, cutoff)


def _expand_word(w: GroupWord, ctx: Context, cutoff: int) -> dict:
    acc = _ONE
    for atom in w.factors:
        s = _expand_atom(atom, ctx, cutoff)
        acc = s if acc is _ONE else _mul(ctx, cutoff, (1, acc, s))
    return acc


def expand(w: GroupWord, ctx: Context, cutoff: int) -> MagnusExpansion:
    """Image of the word under x_i -> 1 + X_i, truncated past cutoff.

    The commutator convention is [a, b] = a^-1 b^-1 a b; mildness and
    Demuškin-type verdicts are invariant under the choice.  Expansions
    are memoized per process and shared between callers: read only.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if w.max_index() > ctx.d:
        raise ValueError(
            f"word uses generator index {w.max_index()} but the context has d = {ctx.d}"
        )
    return _expansion(w, ctx, cutoff)


@functools.lru_cache(maxsize=128)
def _expansion(w: GroupWord, ctx: Context, cutoff: int) -> MagnusExpansion:
    """The memo below expand: the expansions of the 128 most recently used
    (word, context, cutoff) keys.  A lower cutoff is computed anew, not read
    off a higher one."""
    return MagnusExpansion(ctx, cutoff, _expand_word(w, ctx, cutoff))


def initial_form(w: GroupWord, ctx: Context, cutoff: int) -> Poly:
    """Lowest-degree homogeneous component of the expansion minus one."""
    e = expand(w, ctx, cutoff)
    if e.valuation is None:
        raise PrecisionError(
            f"no terms of weighted degree <= {cutoff}; increase precision "
            "(the word may also be trivial)"
        )
    return e.component(e.valuation)


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
            atom = replace(atom, exponent=atom.exponent * self.parse_int())
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
        ctx = Context(self.p, self.d)  # validates the prime as well
        for name, w in self.relators:
            if expand(w, ctx, 1).valuation is not None:
                raise ValueError(
                    f"relator {name!r} has valuation 1: presentation is not minimal"
                )

    @property
    def d(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.relators)

    def context(self, tau=None) -> Context:
        return Context(self.p, self.d, self.tau if tau is None else check_weights(tau))

    def expansions(self, cutoff: int) -> list:
        """The relators' unweighted expansions, truncated past the cutoff:
        every coefficient of degree <= cutoff is exact, so z(G) and each
        Massey tensor up to the cutoff are read off them."""
        ctx = Context(self.p, self.d)
        return [expand(w, ctx, cutoff) for _, w in self.relators]

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


# ---------------------------------------------------------------------------
# presentation files: to_text writes them, parse_presentation_text reads them
# ---------------------------------------------------------------------------

def split_list(value: str) -> list[str]:
    return [t for t in value.replace(",", " ").split() if t]


def int_list(value: str, what: str, line=None) -> tuple[int, ...]:
    """The integers of a comma- or space-separated list; a ParseError
    naming what the list is and its value when an entry is not one."""
    try:
        return tuple(int(t) for t in split_list(value))
    except ValueError:
        raise ParseError(f"{what} must be integers, got {value!r}", line=line) from None


def parse_presentation_text(text: str) -> Presentation:
    """The presentation in a file's text; a ParseError with the line (and
    column, inside a word) of the first fault.  The format::

        # comment
        p: 3
        generators: x1, x2, x3
        weights: 1, 1, 1          # optional, defaults to all 1
        relators:
          r1: x1^3 x2^3 [[x1, x3], x3]
    """
    p = None
    names = None
    weights = None
    relators = []
    relator_names = set()
    in_relators = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if not in_relators:
            if stripped == "relators:":
                in_relators = True
                continue
            key, sep, value = stripped.partition(":")
            if not sep:
                raise ParseError(f"expected 'key: value', got {stripped!r}", line=lineno)
            key = key.strip()
            value = value.strip()
            if key == "p":
                try:
                    p = int(value)
                except ValueError:
                    raise ParseError(f"p must be an integer, got {value!r}", line=lineno)
            elif key == "generators":
                names = split_list(value)
                if not names:
                    raise ParseError("empty generator list", line=lineno)
            elif key == "weights":
                weights = int_list(value, "weights", line=lineno)
            else:
                raise ParseError(
                    f"unknown header key {key!r} (expected p, generators, weights, relators)",
                    line=lineno,
                )
        else:
            name, sep, wordtext = stripped.partition(":")
            if not sep:
                raise ParseError(f"expected 'name: word', got {stripped!r}", line=lineno)
            name = name.strip()
            if name in relator_names:
                raise ParseError(f"duplicate relator name {name!r}", line=lineno)
            if names is None:
                raise ParseError("relators block before the generators header", line=lineno)
            relator_names.add(name)
            offset = raw.index(":", raw.find(name)) + 1
            w = parse_word(wordtext.strip(), names, line=lineno,
                           column_offset=offset + len(wordtext) - len(wordtext.lstrip()))
            relators.append((name, w))

    if p is None:
        raise ParseError("missing header key 'p'")
    if names is None:
        raise ParseError("missing header key 'generators'")
    if weights is None:
        weights = (1,) * len(names)
    try:
        return Presentation(p, tuple(names), weights, tuple(relators))
    except ValueError as exc:
        raise ParseError(str(exc))


def load_presentation(path: str) -> Presentation:
    """The presentation in the file at path (see parse_presentation_text)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    return parse_presentation_text(text)
