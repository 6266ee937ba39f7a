import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import reduce_fully
from mildkit.errors import BudgetError
from mildkit.linalg import (
    RowReducer,
    check_budget,
    dense_rank,
    is_invertible,
    kernel_basis,
    solve_combination,
)


def test_rank_simple():
    assert dense_rank(2, [[1, 0], [0, 1], [1, 1]]) == 2
    assert dense_rank(3, [[1, 2], [2, 4]]) == 1
    assert dense_rank(5, []) == 0


def test_finalize_clears_pivot_columns_from_tails():
    # regression: a tail whose minimum is a non-pivot column can still
    # contain later pivot columns; finalize must eliminate those too
    red = RowReducer(2)
    red.add({0: 1, 3: 1, 5: 1})
    red.add({5: 1, 6: 1})
    red.finalize()
    pivot_cols = set(red.pivots)
    for lead, row in red.pivots.items():
        for col in row:
            assert col == lead or col not in pivot_cols


def test_finalize_random_rref():
    rng = random.Random(51)
    for p in (2, 3, 5):
        for _ in range(20):
            red = RowReducer(p)
            rows = [
                {c: rng.randrange(1, p) for c in rng.sample(range(10), rng.randint(1, 5))}
                for _ in range(6)
            ]
            for row in rows:
                red.add(dict(row))
            red.finalize()
            pivot_cols = set(red.pivots)
            for lead, row in red.pivots.items():
                assert row[lead] == 1
                assert all(c == lead or c not in pivot_cols for c in row)
            # the reduced basis must still span the same rows
            for row in rows:
                assert reduce_fully(red, dict(row)) == {}


@pytest.mark.parametrize("p", [3, 5])
def test_add_normalises_without_touching_the_callers_row(p):
    red = RowReducer(p)
    row = {2: 2, 4: 1, 7: p - 1}
    before = dict(row)
    assert red.add(row) == 2
    assert row == before
    assert red.pivots[2][2] == 1
    assert red.pivots[2] == {k: v * pow(2, -1, p) % p for k, v in before.items()}
    # a row reduced against that pivot first keeps the caller's dict too
    row = {2: 1, 3: p - 2, 4: 3}
    before = dict(row)
    lead = red.add(row)
    assert row == before
    assert red.pivots[lead][lead] == 1


def _reference_add(pivots, p, row):
    """The echelon insert written out: reduce the leading column against
    its pivot until it has none, then store the row scaled to lead 1."""
    vec = {k: v % p for k, v in row.items() if v % p}
    while vec:
        lead = min(vec)
        if lead not in pivots:
            inv = pow(vec[lead], p - 2, p)
            pivots[lead] = {k: v * inv % p for k, v in vec.items()}
            return lead
        c = vec[lead]
        for k, v in pivots[lead].items():
            vec[k] = vec.get(k, 0) - c * v
        vec = {k: v % p for k, v in vec.items() if v % p}
    return None


@st.composite
def row_sequences(draw):
    """p and rows with negative entries, multiples of p and rows that are
    combinations of earlier ones."""
    p = draw(st.sampled_from([2, 3, 5]))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if rows and draw(st.booleans()):
            combo: dict[int, int] = {}
            for row in rows:
                c = draw(st.integers(-p, p))
                for k, v in row.items():
                    combo[k] = combo.get(k, 0) + c * v
            rows.append(combo)
        else:
            rows.append(draw(st.dictionaries(st.integers(0, 7), st.integers(-2 * p, 2 * p), max_size=5)))
    return p, rows


@settings(max_examples=100, deadline=None, derandomize=True)
@given(row_sequences())
@example((3, [{0: 1, 2: 2}, {0: -4, 2: 4}, {1: 3, 5: -6}, {2: 5, 4: 1}]))
def test_add_matches_reference_elimination(case):
    p, rows = case
    red = RowReducer(p)
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        before = dict(row)
        assert red.add(row) == _reference_add(pivots, p, before)
        assert row == before
        assert red.pivots == pivots
        assert red.rank == len(pivots)


def test_solve_combination():
    cols = [{0: 1, 1: 1}, {1: 1}]
    assert solve_combination(5, cols, {0: 2, 1: 3}) == [2, 1]
    assert solve_combination(5, cols, {2: 1}) is None
    assert solve_combination(5, [], {}) == []
    # a column that depends on earlier ones gets coefficient 0
    assert solve_combination(5, [{0: 1}, {0: 2}, {1: 1}], {0: 3, 1: 1}) == [3, 0, 1]


def test_solve_matches_random_combos():
    rng = random.Random(52)
    for p in (2, 3, 5):
        for _ in range(20):
            cols = [
                {c: rng.randrange(1, p) for c in rng.sample(range(8), rng.randint(1, 4))}
                for _ in range(4)
            ]
            xs = [rng.randrange(p) for _ in range(4)]
            target: dict[int, int] = {}
            for x, col in zip(xs, cols):
                for c, v in col.items():
                    target[c] = (target.get(c, 0) + x * v) % p
            target = {c: v for c, v in target.items() if v}
            sol = solve_combination(p, cols, target)
            assert sol is not None
            rebuilt: dict[int, int] = {}
            for x, col in zip(sol, cols):
                for c, v in col.items():
                    rebuilt[c] = (rebuilt.get(c, 0) + x * v) % p
            assert {c: v for c, v in rebuilt.items() if v} == target


def test_kernel_basis():
    kern = kernel_basis(3, [[1, 1, 0]], 3)
    assert len(kern) == 2
    for vec in kern:
        assert (vec[0] + vec[1]) % 3 == 0
    assert kernel_basis(2, [[1, 0], [0, 1]], 2) == []


def test_kernel_basis_refuses_rows_of_the_wrong_length():
    # a row whose length is not ncols is refused; [[0, 0, 1]] with ncols 2
    # used to give the whole plane as its kernel
    with pytest.raises(ValueError, match="row 0 has 3 entries, expected 2"):
        kernel_basis(3, [[0, 0, 1]], 2)
    with pytest.raises(ValueError):
        kernel_basis(3, [[1, 1, 0], [1]], 3)


def test_is_invertible():
    assert is_invertible(2, [[1, 1], [0, 1]])
    assert not is_invertible(2, [[1, 1], [1, 1]])
    assert not is_invertible(3, [[1, 0, 0], [0, 1, 0]])


def test_budget_guard():
    check_budget(10, 10, None)
    check_budget(10, 10, 100)
    with pytest.raises(BudgetError):
        check_budget(10, 11, 100)
