"""Reference oracle for the quotient engine: the literal degree-n slice of
the two-sided ideal and its rank.

The slice is spanned by every alpha * rho_i * beta of degree n, written as
rows over the length-lex monomial basis of the free algebra.  This is the
definition itself, with no incremental bookkeeping, so it serves as an
independent check of `GradedQuotient` at modest degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from mildkit.algebra import Context, Monomial
from mildkit.freeness import _check_relators
from mildkit.linalg import RowReducer, check_budget


def enumerate_basis(ctx: Context, n: int) -> list[Monomial]:
    """All monomials of weighted degree n, in length-lex order."""
    out = []

    def walk(letters, deg):
        if deg == n:
            out.append(Monomial(tuple(letters), n))
            return
        for i in range(1, ctx.d + 1):
            t = ctx.tau[i - 1]
            if deg + t <= n:
                letters.append(i)
                walk(letters, deg + t)
                letters.pop()

    walk([], 0)
    out.sort(key=lambda m: m.sort_key)
    return out


@dataclass
class GradedIdealSlice:
    """Degree-n slice of the two-sided ideal: spanning vectors of all
    alpha * rho_i * beta with matching degree, as rows over the length-lex
    monomial basis of the free algebra in degree n."""

    degree: int
    basis: list[Monomial]
    rows: list[dict[int, int]]


def ideal_slice(ctx: Context, rhos, n: int, budget=None) -> GradedIdealSlice:
    """Literal spanning-set construction; duplicate rows are removed."""
    _check_relators(ctx, rhos)
    basis = enumerate_basis(ctx, n)
    index = {m: k for k, m in enumerate(basis)}
    rows = []
    seen = set()
    for rho in rhos:
        sigma = rho.tau_valuation()
        for a in range(0, n - sigma + 1):
            b = n - sigma - a
            for alpha in enumerate_basis(ctx, a):
                for beta in enumerate_basis(ctx, b):
                    row: dict[int, int] = {}
                    for m, c in rho.terms.items():
                        row[index[alpha * m * beta]] = c
                    key = frozenset(row.items())
                    if key not in seen:
                        seen.add(key)
                        rows.append(row)
    check_budget(len(rows), len(basis), budget)
    return GradedIdealSlice(n, basis, rows)


def slice_rank(ctx: Context, slc: GradedIdealSlice) -> int:
    red = RowReducer(ctx.p)
    for row in slc.rows:
        red.add(dict(row))
    return red.rank
