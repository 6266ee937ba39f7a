"""Exact sparse row reduction over F_p.

Rows are dicts mapping integer column indices to nonzero residues; the
pivot of a row is its smallest column.  One implementation serves the
Hilbert-series oracle, the Lie-membership solves, and the Massey
certificate construction; the last two track row operations in extra
columns past the data columns.
"""

from __future__ import annotations

from .errors import BudgetError


def check_budget(rows: int, cols: int, budget):
    if budget is not None and rows * cols > budget:
        raise BudgetError(
            f"matrix of {rows} x {cols} = {rows * cols} entries exceeds the "
            f"budget of {budget}; raise the budget or lower the degree"
        )


class RowReducer:
    """Incremental echelon basis over F_p."""

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _eliminate(self, row: dict[int, int]):
        """Reduce a copy of a row; returns it and its lead, None once zero."""
        p = self.p
        # a plain loop: on Python 3.11 a comprehension is a call per row
        reduced = {}
        for k, v in row.items():
            if r := v % p:
                reduced[k] = r
        while reduced:
            lead = min(reduced)
            piv = self.pivots.get(lead)
            if piv is None:
                return reduced, lead
            c = reduced[lead]
            for k, v in piv.items():
                nv = (reduced.get(k, 0) - c * v) % p
                if nv:
                    reduced[k] = nv
                else:
                    reduced.pop(k, None)
        return reduced, None

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """Reduce a copy of a row against the current pivots."""
        return self._eliminate(row)[0]

    def add(self, row: dict[int, int]):
        """Insert a row; returns its pivot column, or None if dependent."""
        row, lead = self._eliminate(row)
        if lead is None:
            return None
        if row[lead] != 1:  # normalise the copy in place
            inv = pow(row[lead], -1, self.p)
            for k, v in row.items():
                row[k] = v * inv % self.p
        self.pivots[lead] = row
        return lead

    def finalize(self):
        """Back-substitute so every pivot row is reduced against all others
        (reduced echelon form).  Tails then touch non-pivot columns only.
        In decreasing order each tail's pivot rows are final: one pass."""
        p = self.p
        for lead in sorted(self.pivots, reverse=True):
            row = self.pivots[lead]
            for col in [k for k in row if k != lead and k in self.pivots]:
                c = row[col]
                for k, v in self.pivots[col].items():
                    nv = (row.get(k, 0) - c * v) % p
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)


def solve_combination(p: int, columns, target):
    """Coefficients x with sum_i x_i * columns[i] = target over F_p, or None.

    Columns and target are sparse dicts over a shared set of row indices
    (nonnegative integers).  Column i is tracked in the extra column
    width + i; a column that depends on earlier ones is dropped.
    """
    width = 1 + max((k for v in (*columns, target) for k in v), default=-1)
    red = RowReducer(p)
    for i, col in enumerate(columns):
        lead = red.add({**col, width + i: 1})
        if lead >= width:
            del red.pivots[lead]
    row = red.reduce(dict(target))
    if any(k < width for k in row):
        return None
    return [(-row.get(width + i, 0)) % p for i in range(len(columns))]


def dense_rank(p: int, matrix) -> int:
    red = RowReducer(p)
    for row in matrix:
        red.add({j: v for j, v in enumerate(row) if v % p})
    return red.rank


def kernel_basis(p: int, matrix, ncols: int):
    """Basis of the right kernel of an m x ncols matrix over F_p."""
    red = RowReducer(p)
    for i, row in enumerate(matrix):
        if len(row) != ncols:
            raise ValueError(f"row {i} has {len(row)} entries, expected {ncols}")
        red.add({j: v for j, v in enumerate(row) if v % p})
    red.finalize()
    basis = []
    for free in range(ncols):
        if free in red.pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for lead, prow in red.pivots.items():
            c = prow.get(free, 0)
            if c:
                vec[lead] = (-c) % p
        basis.append(vec)
    return basis


def is_invertible(p: int, matrix) -> bool:
    n = len(matrix)
    return all(len(row) == n for row in matrix) and dense_rank(p, matrix) == n
