"""Reference oracle for the Magnus expansion: the Poly-based expander.

Every factor is expanded as a Poly and multiplied with `mul_truncated`;
negative exponents go through the truncated series inverse, the geometric
sum in -h of s = 1 + h.  This is the definition with no word coding and
no degree buckets, so it serves as an independent check of
`magnus.expand` at modest cutoffs.
"""

from __future__ import annotations

from mildkit.algebra import Context, Poly, mul_truncated
from mildkit.magnus import Commutator, Gen, GroupWord


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


def reference_expand(w: GroupWord, ctx: Context, cutoff: int) -> Poly:
    """The truncated expansion of w as one Poly, constant term included."""
    return _expand_word(w, ctx, cutoff)
