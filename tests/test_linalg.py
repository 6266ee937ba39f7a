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
    push,
    solve_combination,
)


def test_rank_simple():
    assert dense_rank(2, [[1, 0], [0, 1], [1, 1]]) == 2
    assert dense_rank(3, [[1, 2], [2, 4]]) == 1
    assert dense_rank(5, []) == 0


def _reference_kernel(p, rows, ncols):
    """The right kernel read off the rows in reduced echelon form, each
    pivot's tail reduced against every other pivot the way
    test_freeness's _reference_degree does it: one vector per free column,
    1 there, 0 in the other free columns."""
    red = RowReducer(p)
    for row in rows:
        red.add(dict(row))
    tails = {lead: reduce_fully(red, {k: v for k, v in prow.items() if k != lead})
             for lead, prow in red.pivots.items()}
    basis = []
    for free in range(ncols):
        if free in tails:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for lead, tail in tails.items():
            vec[lead] = (-tail.get(free, 0)) % p
        basis.append(vec)
    return basis


def _assert_kernel_matches_reference(p, rows, ncols):
    matrix = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    kern = kernel_basis(p, matrix, ncols)
    assert kern == _reference_kernel(p, rows, ncols)
    for vec in kern:
        for row in matrix:
            assert sum(a * b for a, b in zip(row, vec)) % p == 0


def test_finalize_clears_pivot_columns_from_tails():
    # regression: a tail whose minimum is a non-pivot column can still
    # contain later pivot columns; the back-substitution must eliminate
    # those too, or the kernel vector of column 3 misses column 5's pivot
    _assert_kernel_matches_reference(2, [{0: 1, 3: 1, 5: 1}, {5: 1, 6: 1}], 7)


def test_finalize_random_rref():
    rng = random.Random(51)
    for p in (2, 3, 5):
        for _ in range(20):
            rows = [
                {c: rng.randrange(1, p) for c in rng.sample(range(10), rng.randint(1, 5))}
                for _ in range(6)
            ]
            _assert_kernel_matches_reference(p, rows, 10)


def test_finalize_maps_every_row_to_zero():
    # non-pivot columns sent to indices and to dicts with non-unit
    # coefficients: the extended map must kill every row, keep the given
    # images and consume the pivot rows
    rng = random.Random(53)
    for p in (2, 3, 5):
        for _ in range(20):
            red = RowReducer(p)
            rows = [
                {c: rng.randrange(1, p) for c in rng.sample(range(10), rng.randint(1, 5))}
                for _ in range(6)
            ]
            for row in rows:
                red.add(row)
            free_images = {}
            for j in range(10):
                if j not in red.pivots:
                    free_images[j] = rng.randrange(4) if rng.random() < 0.5 else {
                        i: rng.randrange(1, p) for i in rng.sample(range(4), rng.randint(0, 3))}
            images = red.finalize(dict(free_images))
            assert red.pivots == {}
            assert set(images) == set(range(10))
            assert all(images[j] == img for j, img in free_images.items())
            for row in rows:
                assert push(row, images, p) == {}


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
