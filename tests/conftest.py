import importlib.util
import random
from pathlib import Path

from hypothesis import strategies as st

import mildkit.magnus
from mildkit import Context, Monomial
from mildkit.magnus import Commutator, Gen, GroupWord, Presentation, Sub

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """The benchmark's workload definitions, `perfbench/workloads.py`."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_worker(monkeypatch):
    """The benchmark's one-pass runner, `perfbench/worker.py`, with its
    directory on the path for the modules it imports."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("worker", ROOT / "perfbench" / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_expansions(monkeypatch) -> list:
    """(word, context, cutoff) of every expansion that the kernel computes
    below expand's memo, in order.  The memo is cleared first, so a key
    that an earlier test computed is counted again."""
    computed, depth = [], [0]
    kernel = mildkit.magnus._expand_word

    def counted(w, ctx, cutoff):
        if not depth[0]:  # the kernel recurses into subwords
            computed.append((w, ctx, cutoff))
        depth[0] += 1
        try:
            return kernel(w, ctx, cutoff)
        finally:
            depth[0] -= 1

    mildkit.magnus._expansion.cache_clear()
    monkeypatch.setattr(mildkit.magnus, "_expand_word", counted)
    return computed


def random_monomial(rng: random.Random, ctx: Context, max_len=5) -> Monomial:
    letters = tuple(rng.randint(1, ctx.d) for _ in range(rng.randint(0, max_len)))
    return ctx.monomial(letters)


def reduce_fully(red, row: dict[int, int]) -> dict[int, int]:
    """Reference reduction of a row against a RowReducer's pivots: every
    pivot column present is eliminated, not only the leading one.  It ends
    because pivot tails only touch larger columns."""
    p = red.p
    row = {k: v % p for k, v in row.items() if v % p}
    while hits := [k for k in row if k in red.pivots]:
        lead = min(hits)
        c = row[lead]
        for k, v in red.pivots[lead].items():
            nv = (row.get(k, 0) - c * v) % p
            if nv:
                row[k] = nv
            else:
                row.pop(k, None)
    return row


def random_poly(rng: random.Random, ctx: Context, max_terms=4, max_len=5):
    items = []
    for _ in range(rng.randint(0, max_terms)):
        items.append((random_monomial(rng, ctx, max_len), rng.randint(1, ctx.p - 1)))
    return ctx.poly(items)


# -- the properties' examples, built from one integer seed ------------------------

SEEDS = st.integers(0, 2**32 - 1)


class Seeded(random.Random):
    """The properties' examples, built from one integer seed: words, a
    context with two words and a cutoff, or a presentation.  A property
    takes any further draw (a permutation, a generator, weights) from the
    same seed, and notes the text of what it built, since Hypothesis cannot
    shrink a seed."""

    def weights(self, d: int) -> tuple[int, ...]:
        """Unit weights, or as often d weights from 1-3."""
        return (1,) * d if self.random() < 0.5 else tuple(self.randint(1, 3) for _ in range(d))

    def word(self, p: int, d: int, weight: int = 1, exponents=(-3, -2, -1, 1, 2, 3), inner: int = 2,
             heaviest: int = 0) -> GroupWord:
        """A product of one to three atoms, the first of weight `weight` and
        the others of weights from `weight` to `heaviest` (at most 8; by
        default all of `weight`), each of valuation >= its weight:
        generator powers, and commutators and parenthesized
        subwords nested 3 deep, with one to `inner` atoms on each level
        below the top.  A generator of weight 1 and every commutator and
        subword take an exponent from `exponents`; a generator of weight p
        is raised to the power +-p.  The two sides of a commutator begin
        with different letters where d > 1, so that [x, x^k] does not make
        most commutators of small words trivial."""

        def product(weight, factors, depth, letter=None):
            count = self.randint(1, factors)
            return GroupWord(tuple(atom(weight, depth, letter if k == 0 else None) for k in range(count)))

        def atom(weight, depth, letter):
            # weight <= 2^depth holds on every level: a commutator splits the
            # weight between two sides of room 2^(depth - 1), and a subword
            # keeps it only where it fits that room.  With single-atom sides
            # (inner = 1) only an atom of weight >= 2 is a commutator, so a
            # word's valuation stays near its weight.
            half = 2**depth // 2
            bracket = depth > 0 and (weight > 1 or inner > 1)
            kind = self.choice(["gen"] * (weight in (1, p)) + ["commutator"] * bracket + ["sub"] * (weight <= half))
            if kind == "gen":
                return Gen(letter or self.randint(1, d), self.choice(exponents if weight == 1 else (-p, p)))
            if kind == "sub":
                return Sub(product(weight, inner, depth - 1, letter), self.choice(exponents))
            left = self.randint(max(1, weight - half), max(1, min(weight - 1, half)))
            right = max(1, weight - left)
            i, j = self.sample(range(1, d + 1), 2) if d > 1 else (1, 1)
            return Commutator(product(left, inner, depth - 1, i), product(right, inner, depth - 1, j),
                              self.choice(exponents))

        count = self.randint(1, 3)
        weights = [weight] + [self.randint(weight, heaviest) if heaviest > weight else weight for _ in range(count - 1)]
        return GroupWord(tuple(atom(w, 3, None) for w in weights))

    def case(self):
        """A context with p in {2, 3, 5}, d <= 4 and unit or mixed weights,
        a cutoff 1-6 and two words over the context, each of a weight at
        most the cutoff."""
        p, d = self.choice((2, 3, 5)), self.randint(1, 4)
        ctx, c = Context(p, d, self.weights(d)), self.randint(1, 6)
        u, v = (self.word(p, d, self.randint(1, c)) for _ in "uv")
        return ctx, u, v, c

    def presentation(self) -> Presentation:
        """p in {2, 3, 5}, 2 <= d <= 4 and one or two relators, each of its
        own weight 2-6 with atoms of weights up to 6, so that relators of
        different valuations meet, and a relator may put a p-th power next
        to a commutator.  Exponents other than p are +-1 and a commutator's
        sides are single atoms, which keeps the expansions to cutoff 8
        small.  Cancellation can lift every relator past its weight, to
        z(G) = 7 or 8, and some presentations have no term up to degree 8."""
        p, d = self.choice((2, 3, 5)), self.randint(2, 4)
        names = tuple(f"x{i}" for i in range(1, d + 1))
        relators = tuple((f"r{k}", self.word(p, d, self.randint(2, 6), (-1, 1), inner=1, heaviest=6))
                         for k in range(1, self.randint(1, 2) + 1))
        return Presentation(p, names, (1,) * d, relators)
