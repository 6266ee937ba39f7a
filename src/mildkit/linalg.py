"""Exact sparse row reduction over F_p.

Rows are dicts mapping integer column indices to nonzero residues; the
pivot of a row is its smallest column.  One implementation serves the
Hilbert-series oracle, the Lie-membership solves, and the Massey
certificate construction; the last two track row operations in extra
columns past the data columns.  Its one back-substitution,
RowReducer.finalize, has two users: the oracle's GradedQuotient, which
rewrites each degree's pivot columns in its quotient basis, and
kernel_basis.
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

    def finalize(self, images: dict) -> dict:
        """Back-substitution.  images holds the image of every non-pivot
        column: an int index, standing for that unit vector, or an {index:
        coefficient} dict.  Each pivot column gets minus its row's tail
        pushed through the images; a tail only touches larger columns, so
        in decreasing order it is already imaged: one pass.  Consumes the
        pivot rows and returns images extended to every column."""
        p = self.p
        pivots = self.pivots
        for w in sorted(pivots, reverse=True):
            prow = pivots.pop(w)  # frees each pivot row once converted
            del prow[w]
            if len(prow) == 1:
                (k, v), = prow.items()
                img = images[k]
                if type(img) is int:
                    # one index: the index itself when -v = 1
                    images[w] = img if v == p - 1 else {img: p - v}
                    continue
            img = push(prow, images, p, -1)
            # a pivot that maps to one unit vector is stored as its index
            images[w] = next(iter(img)) if len(img) == 1 and 1 in img.values() else img
        return images


def push(vec: dict[int, int], images, p: int, scale: int = 1) -> dict[int, int]:
    """Map scale * vec through images (indexed like finalize's)."""
    out: dict[int, int] = {}
    for r, c in vec.items():
        img = images[r]
        if type(img) is int:
            out[img] = out.get(img, 0) + c
        else:
            for s, v in img.items():
                out[s] = out.get(s, 0) + c * v
    return {k: scale * v % p for k, v in out.items() if v % p}


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
    free = [j for j in range(ncols) if j not in red.pivots]
    # the kernel vector of free column f holds, at each column, the
    # coefficient of f in that column's image: 1 at f, 0 at the other free
    # columns
    basis = [[0] * ncols for _ in free]
    for j, img in red.finalize({f: i for i, f in enumerate(free)}).items():
        for i, c in img.items() if type(img) is dict else [(img, 1)]:
            basis[i][j] = c
    return basis


def is_invertible(p: int, matrix) -> bool:
    n = len(matrix)
    return all(len(row) == n for row in matrix) and dense_rank(p, matrix) == n
