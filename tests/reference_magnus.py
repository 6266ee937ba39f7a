"""Reference oracle for the Magnus expansion: the Poly-based expander.

Every factor is expanded as a Poly and multiplied term by term with
`_mul`, which drops the terms past the cutoff; negative exponents go
through the truncated series inverse, the geometric sum in -h of
s = 1 + h.  This is the definition with no word coding and no degree
buckets, so it serves as an independent check of `magnus.expand` at
modest cutoffs.
"""

from __future__ import annotations

from mildkit.algebra import Context, Monomial, Poly
from mildkit.magnus import Commutator, Gen, GroupWord


def _mul(a: Poly, b: Poly, cutoff: int) -> Poly:
    """a * b with all terms of weighted degree > cutoff dropped.  b's terms
    run in increasing degree, so each of a's terms stops at its room
    instead of visiting every pair, as `algebra.mul_truncated` does; the
    products are summed under (letters, degree) keys and made monomials
    once."""
    p = a.ctx.p
    b_terms = sorted(((m.letters, m.tau_degree, c) for m, c in b.terms.items()), key=lambda t: t[1])
    sums: dict = {}
    for ma, ca in a.terms.items():
        room = cutoff - ma.tau_degree
        for letters, degree, cb in b_terms:
            if degree > room:
                break
            key = (ma.letters + letters, ma.tau_degree + degree)
            sums[key] = sums.get(key, 0) + ca * cb
    return Poly(a.ctx, {Monomial(*key): c % p for key, c in sums.items() if c % p})


def _series_inverse(s: Poly, cutoff: int) -> Poly:
    # s = 1 + h with val(h) >= 1; inverse is the geometric sum in (-h)
    ctx = s.ctx
    h = s - ctx.one()
    acc = ctx.one()
    term = ctx.one()
    for _ in range(cutoff):
        term = _mul(term, h, cutoff)
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
            acc = _mul(acc, base, cutoff)
        e >>= 1
        if e:
            base = _mul(base, base, cutoff)
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
        comm = _mul(_mul(ai, bi, cutoff), _mul(a, b, cutoff), cutoff)
        return _series_power(comm, atom.exponent, cutoff)
    sub = _expand_word(atom.word, ctx, cutoff)
    return _series_power(sub, atom.exponent, cutoff)


def _expand_word(w: GroupWord, ctx: Context, cutoff: int) -> Poly:
    acc = ctx.one()
    for atom in w.factors:
        acc = _mul(acc, _expand_atom(atom, ctx, cutoff), cutoff)
    return acc


def reference_expand(w: GroupWord, ctx: Context, cutoff: int) -> Poly:
    """The truncated expansion of w as one Poly, constant term included."""
    return _expand_word(w, ctx, cutoff)
