import itertools
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import random_poly, reduce_fully
from mildkit import Context, IntSeries, initial_form, linalg
from mildkit.cli import load_presentation
from mildkit.errors import BudgetError, InternalInvariantError
from mildkit.freeness import (
    CONSISTENT,
    PROVEN,
    REFUTED,
    GradedQuotient,
    anick_check,
    combinatorially_free,
    denominator_series,
    dimension_series,
    quotient_dimensions,
    series_admissibility,
    strongly_free_oracle,
    target_series,
)
from mildkit.linalg import RowReducer
from mildkit.orders import DegLexOrder, UOrder
from reference_slice import enumerate_basis, ideal_slice, slice_rank

CTX2 = Context(2, 2)
CTX3 = Context(2, 3)
CTX4 = Context(2, 4)
PRES = Path(__file__).resolve().parent.parent / "presentations"


def mono(ctx, *letters):
    return ctx.monomial(letters)


def circuit(ctx, pairs=((1, 2), (2, 3), (3, 4), (4, 1))):
    return [ctx.poly([((i, j), 1), ((j, i), -1)]) for i, j in pairs]


# -- combinatorial freeness ---------------------------------------------------


def test_circuit_high_terms_combinatorially_free():
    ms = [mono(CTX4, 2, 1), mono(CTX4, 2, 3), mono(CTX4, 4, 3), mono(CTX4, 4, 1)]
    assert combinatorially_free(ms).free


def test_duplicate_not_free():
    res = combinatorially_free([mono(CTX2, 1), mono(CTX2, 1)])
    assert not res.free
    assert res.witness.kind == "submonomial"


def test_self_overlap_not_free():
    res = combinatorially_free([mono(CTX2, 1, 2, 1)])
    assert not res.free
    assert res.witness.kind == "prefix-suffix"
    assert res.witness.i == res.witness.j == 0


def test_empty_monomial_rejected():
    with pytest.raises(ValueError):
        combinatorially_free([mono(CTX2)])


def test_comb_freeness_permutation_invariant():
    rng = random.Random(21)
    for _ in range(100):
        words = [
            mono(CTX3, *(rng.randint(1, 3) for _ in range(rng.randint(1, 4))))
            for _ in range(rng.randint(1, 4))
        ]
        shuffled = words[:]
        rng.shuffle(shuffled)
        assert combinatorially_free(words).free == combinatorially_free(shuffled).free


# -- the high-term criterion --------------------------------------------------


def test_anick_circuit_proven():
    order = DegLexOrder((1, 1, 1, 1), (1, 3, 2, 4))
    verdict = anick_check(circuit(CTX4), order)
    assert verdict.status == PROVEN
    assert verdict.engine == "anick"
    assert [m.letters for m in verdict.certificate.high_terms] == [
        (2, 1), (2, 3), (4, 3), (4, 1),
    ]


@pytest.mark.parametrize(
    "order",
    [
        DegLexOrder((2, 1)),
        DegLexOrder((2, 1), (2, 1)),
        UOrder({1}, (2, 1)),
        UOrder({2}, (2, 1)),
    ],
)
def test_anick_inconclusive_on_self_overlapping_high_terms(order):
    ctx = Context(2, 2, (2, 1))
    rho = ctx.poly([((1, 1), 1), ((2, 2, 2, 2), 1)])
    verdict = anick_check([rho], order)
    assert verdict.status == CONSISTENT
    assert verdict.degree == 0


def test_anick_single_letter_proven():
    verdict = anick_check([CTX2.gen(1)], DegLexOrder((1, 1)))
    assert verdict.status == PROVEN


def test_anick_rejects_inhomogeneous():
    bad = CTX2.gen(1) + CTX2.poly([((1, 2), 1)])
    with pytest.raises(ValueError):
        anick_check([bad], DegLexOrder((1, 1)))


def test_anick_rejects_a_zero_form():
    with pytest.raises(ValueError, match="^rho_2 is zero$"):
        anick_check([CTX2.gen(1), CTX2.poly([])], DegLexOrder((1, 1)))


@pytest.mark.parametrize(
    "rho, message",
    [
        (CTX3.gen(1), "rho_2 built over a different context"),
        (CTX2.poly([]), "rho_2 is zero"),
        (CTX2.gen(1) + CTX2.poly([((1, 2), 1)]), r"rho_2 is not homogeneous: degrees \[1, 2\]"),
        (CTX2.poly([((), 1)]), "rho_2 has a constant term"),
    ],
)
def test_oracle_rejects_a_bad_form(rho, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        strongly_free_oracle(CTX2, [CTX2.gen(2), rho], 3)


# -- slices and dimensions ----------------------------------------------------


def test_slice_x1_squared_degree3():
    slc = ideal_slice(CTX2, [CTX2.poly([((1, 1), 1)])], 3)
    assert len(slc.basis) == 8
    assert slice_rank(CTX2, slc) == 3


def test_slice_empty_relators():
    slc = ideal_slice(CTX2, [], 4)
    assert slc.rows == []


def test_slice_single_vector_rank_one():
    slc = ideal_slice(CTX2, [CTX2.gen(1) + CTX2.gen(2)], 1)
    assert slice_rank(CTX2, slc) == 1


def brute_avoiding_factor(d, factor, n):
    """Independent count of words of length n over 1..d avoiding a factor."""
    count = 0
    for w in itertools.product(range(1, d + 1), repeat=n):
        ok = all(w[i : i + len(factor)] != factor for i in range(n - len(factor) + 1))
        count += ok
    return count


def test_quotient_dimensions_fibonacci():
    rho = CTX2.poly([((1, 1), 1)])
    dims = quotient_dimensions(CTX2, [rho], 8)
    expected = [brute_avoiding_factor(2, (1, 1), n) for n in range(9)]
    assert list(dims.coeffs) == expected == [1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_quotient_dimensions_free_algebra():
    ctx = Context(2, 3)
    assert list(quotient_dimensions(ctx, [], 4).coeffs) == [1, 3, 9, 27, 81]


def test_quotient_dimensions_weighted_free_algebra():
    ctx = Context(2, 2, (2, 1))
    dims = quotient_dimensions(ctx, [], 10)
    # words weighted by 1/(1 - t - t^2): Fibonacci counts
    assert dims.coeffs == IntSeries((1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0)).inverse().coeffs
    assert dims.coeffs == dimension_series(ctx, 10).coeffs


def test_quotient_dimensions_circuit_matches_target():
    dims = quotient_dimensions(CTX4, circuit(CTX4), 8)
    assert dims.coeffs == target_series((1, 1, 1, 1), (2, 2, 2, 2), 8).coeffs
    assert list(dims.coeffs) == [1, 4, 12, 32, 80, 192, 448, 1024, 2304]


def test_quotient_dimensions_against_slice_rank():
    # dual route: the incremental engine must agree with the literal
    # spanning-set rank in every degree it can reach
    rng = random.Random(22)
    for trial in range(12):
        p = rng.choice([2, 3, 5])
        d = rng.randint(1, 3)
        tau = tuple(rng.randint(1, 2) for _ in range(d))
        ctx = Context(p, d, tau)
        rhos = []
        for _ in range(rng.randint(1, 3)):
            poly = random_poly(rng, ctx, max_terms=3, max_len=3)
            if poly.is_zero or 0 in poly.degrees():
                continue
            deg = poly.degrees()[0]
            rhos.append(poly.homogeneous_component(deg))
        rhos = [r for r in rhos if not r.is_zero]
        if not rhos:
            continue
        dims = quotient_dimensions(ctx, rhos, 6)
        for n in range(7):
            free_dim = len(enumerate_basis(ctx, n))
            assert dims[n] == free_dim - slice_rank(ctx, ideal_slice(ctx, rhos, n))


def test_representatives_are_stable_basis():
    rho = CTX2.poly([((1, 1), 1)])
    q = GradedQuotient(CTX2, [rho])
    q.dimension(4)
    # degree-2 basis omits the pivot X1^2
    assert [m.letters for m in q.representatives(2)] == [(1, 2), (2, 1), (2, 2)]


def test_representatives_weighted_column_order():
    # tau = (2, 1): columns of one degree mix words of different lengths
    ctx = Context(3, 2, (2, 1))
    rho = ctx.poly([((1, 1), 1), ((2, 2, 2, 2), 1)])
    q = GradedQuotient(ctx, [rho])
    assert [m.letters for m in q.representatives(4)] == [(1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2, 2)]
    assert [m.letters for m in q.representatives(5)] == [
        (1, 2, 1), (1, 2, 2, 2), (2, 1, 2, 2), (2, 2, 1, 2), (2, 2, 2, 1), (2, 2, 2, 2, 2)
    ]
    assert [m.letters for m in q.representatives(6)] == [
        (1, 2, 1, 2), (1, 2, 2, 1), (2, 1, 2, 1), (2, 1, 2, 2, 2),
        (2, 2, 1, 2, 2), (2, 2, 2, 1, 2), (2, 2, 2, 2, 1), (2, 2, 2, 2, 2, 2),
    ]
    assert all(m.tau_degree == 6 for m in q.representatives(6))


def test_representatives_length_lex_under_mixed_weights():
    # words of one degree differ in length under unequal weights, which
    # exercises the integer coding of words at every length
    rng = random.Random(25)
    for trial in range(30):
        d = rng.randint(1, 5)
        ctx = Context(rng.choice([2, 3, 5]), d, tuple(rng.randint(1, 3) for _ in range(d)))
        rhos = []
        for _ in range(rng.randint(0, 2)):
            basis = enumerate_basis(ctx, rng.randint(1, 3))
            items = [(m, rng.randint(1, ctx.p - 1)) for m in basis if rng.random() < 0.4]
            if items:
                rhos.append(ctx.poly(items))
        q = GradedQuotient(ctx, rhos)
        free = GradedQuotient(ctx, [])
        for n in range(9):
            if dimension_series(ctx, n)[n] > 2000:
                break
            words = [m.letters for m in q.representatives(n)]
            keys = [(len(w), w) for w in words]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert all(m.tau_degree == n for m in q.representatives(n))
            assert free.representatives(n) == enumerate_basis(ctx, n)


@st.composite
def weighted_relators(draw):
    """p in {2, 3, 5}, d <= 4, weights <= 2, one to three homogeneous
    relators of weighted degree <= 3."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 4))
    ctx = Context(p, d, tuple(draw(st.lists(st.integers(1, 2), min_size=d, max_size=d))))
    rhos = []
    for _ in range(draw(st.integers(1, 3))):
        basis = enumerate_basis(ctx, draw(st.integers(1, 3)))
        if not basis:
            continue
        terms = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True))
        coeffs = draw(st.lists(st.integers(1, p - 1), min_size=len(terms), max_size=len(terms)))
        rhos.append(ctx.poly(list(zip(terms, coeffs))))
    return ctx, rhos


# cubic relators over F_3: at n = 6 a term table pushes a vector with a
# coefficient 2 through an image table entry that is itself a pivot image
CUBIC_F3 = Context(3, 2)
CUBIC_F3_RELATORS = [
    CUBIC_F3.poly([((1, 2, 1), 1), ((2, 1, 2), 2), ((2, 2, 2), 1)]),
    CUBIC_F3.poly([((2, 2, 1), 1), ((2, 2, 2), 1)]),
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weighted_relators())
@example((CUBIC_F3, CUBIC_F3_RELATORS))
def test_quotient_dimensions_match_reference_slice(case):
    ctx, rhos = case
    assume(rhos)
    free = dimension_series(ctx, 6)
    N = max(n for n in range(7) if free[n] <= 300)
    dims = quotient_dimensions(ctx, rhos, N)
    for n in range(N + 1):
        assert dims[n] == free[n] - slice_rank(ctx, ideal_slice(ctx, rhos, n))


@pytest.mark.parametrize("fname", ["circuit_d4.pres", "demuskin_p3.pres"])
def test_one_reducer_add_per_quotient_row(monkeypatch, fname):
    # one RowReducer.add per beta * rho_i, beta a representative of degree
    # n - sigma_i: sum_i b_{n - sigma_i} adds in degree n
    calls = []
    original = RowReducer.add

    def counted(self, row):
        calls.append(None)
        return original(self, row)

    monkeypatch.setattr(RowReducer, "add", counted)
    ctx, forms = _corpus_forms(fname)
    q = GradedQuotient(ctx, forms)
    b = q.dimensions(8)
    assert len(calls) == sum(b[n - sigma] for n in range(9) for sigma in q.sigmas if n >= sigma)


def test_negative_degree_rejected():
    q = GradedQuotient(CTX2, [CTX2.poly([((1, 1), 1)])])
    assert q.dimension(5) == 13
    with pytest.raises(ValueError):
        q.dimension(-1)
    with pytest.raises(ValueError):
        q.representatives(-1)
    with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
        quotient_dimensions(CTX2, [CTX2.poly([((1, 1), 1)])], -1)
    with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
        quotient_dimensions(CTX2, [], -1)
    with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
        strongly_free_oracle(CTX2, [CTX2.poly([((1, 1), 1)])], -1)


# pivot tails of several entries with non-unit coefficients over F_5, many of
# them holding later pivot columns before the back-substitution
TAILS_F5 = Context(5, 3)
TAILS_F5_RELATORS = [
    TAILS_F5.poly([((1, 2), 1), ((2, 1), 2), ((3, 3), 3)]),
    TAILS_F5.poly([((2, 3), 4), ((3, 1), 1), ((1, 1), 2)]),
]


def _reference_degree(q, n, rows):
    """Representatives and image tables of degree n the long way: the rows
    reduced to reduced echelon form (each pivot's tail re-reduced, largest
    pivot first), then every pivot row rewritten by its tail over the
    non-pivot columns."""
    ctx = q.ctx
    base = ctx.d + 1
    # the recorded rows are keyed by column word
    words = sorted(w * base + j + 1 for j, t in enumerate(ctx.tau) if n >= t for w in q._reps[n - t])
    red = RowReducer(ctx.p)
    for row in rows:
        red.add(row)
    for lead in sorted(red.pivots, reverse=True):
        tail = reduce_fully(red, {k: v for k, v in red.pivots.pop(lead).items() if k != lead})
        red.pivots[lead] = {**tail, lead: 1}
    col_image = {}
    reps = []
    for w in words:
        if w not in red.pivots:
            col_image[w] = len(reps)
            reps.append(w)
    while red.pivots:
        w, prow = red.pivots.popitem()
        img = {col_image[k]: (-v) % ctx.p for k, v in prow.items() if k != w}
        col_image[w] = next(iter(img)) if len(img) == 1 and 1 in img.values() else img
    images = [None if n < t else [col_image[w] for w in words if w % base == j + 1]
              for j, t in enumerate(ctx.tau)]
    return reps, images


def _recorded_dimensions(q, N):
    """q.dimensions(N), returning for each degree 1..N the rows given to
    that degree's reducer."""
    reducers, rows = [], {}
    original_init, original_add = RowReducer.__init__, RowReducer.add

    def init(self, p):
        original_init(self, p)
        reducers.append(self)

    def add(self, row):
        rows.setdefault(self, []).append(dict(row))
        return original_add(self, row)

    with mock.patch.object(RowReducer, "__init__", init), mock.patch.object(RowReducer, "add", add):
        q.dimensions(N)
    return [rows.get(red, []) for red in reducers]


def _assert_matches_reference(q, N):
    """Representatives and image tables of every degree 1..N against
    _reference_degree, the top degree's tables finished first."""
    degree_rows = _recorded_dimensions(q, N)
    assert len(degree_rows) == N  # one reducer per degree 1..N
    assert len(q._images) == N  # degree N is pending: no degree has read it
    q._finish()
    for n, rows in enumerate(degree_rows, start=1):
        reps, images = _reference_degree(q, n, rows)
        assert q._reps[n] == reps
        assert q._images[n] == images


@pytest.mark.parametrize("case", ["circuit_d4.pres", "demuskin_p3.pres", "tails_f5"])
def test_fused_back_substitution_is_reduced_echelon_form(monkeypatch, case):
    if case == "tails_f5":
        ctx, forms, N = TAILS_F5, TAILS_F5_RELATORS, 7
    else:
        (ctx, forms), N = _corpus_forms(case), 8
    finalized = []
    original = RowReducer.finalize

    def finalize(self, images):
        finalized.append(self)
        return original(self, images)

    monkeypatch.setattr(RowReducer, "finalize", finalize)
    q = GradedQuotient(ctx, forms)
    _assert_matches_reference(q, N)
    # the reducer's one back-substitution, once per finished degree 1..N
    assert len(finalized) == N
    if case == "tails_f5":
        tails = [img for table in q._images[N] if table for img in table if type(img) is dict]
        assert any(len(img) > 1 and set(img.values()) - {1} for img in tails)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weighted_relators())
@example((CUBIC_F3, CUBIC_F3_RELATORS))
@example((TAILS_F5, TAILS_F5_RELATORS))
def test_image_tables_match_reference_on_random_relators(case):
    # non-unit coefficients and weights of 2 reach both rewrites of a
    # pivot: the one-column tail read off directly and the pushed tail
    ctx, rhos = case
    assume(rhos)
    free = dimension_series(ctx, 6)
    N = max(n for n in range(1, 7) if free[n] <= 300)
    _assert_matches_reference(GradedQuotient(ctx, rhos), N)
    try:
        strongly_free_oracle(ctx, rhos, N)
    except InternalInvariantError as exc:
        pytest.fail(f"the oracle's defect went negative: {exc}")


@pytest.mark.parametrize("case", ["demuskin_p3.pres", "tails_f5"])
def test_tables_do_not_depend_on_how_degrees_are_asked_for(case):
    if case == "tails_f5":
        ctx, forms, N = TAILS_F5, TAILS_F5_RELATORS, 6
    else:
        (ctx, forms), N = _corpus_forms(case), 8
    jumped = GradedQuotient(ctx, forms)
    jumped.dimension(N)
    jumped.dimension(N + 1)
    stepped = GradedQuotient(ctx, forms)
    for n in range(N + 2):
        stepped.dimension(n)
    assert jumped._reps == stepped._reps
    jumped._finish()
    stepped._finish()
    assert len(jumped._images) == N + 2
    assert jumped._images == stepped._images


def test_interrupted_rewrite_leaves_the_degree_to_be_recomputed():
    q = GradedQuotient(TAILS_F5, TAILS_F5_RELATORS)
    q.dimension(5)
    original = linalg.push

    def push(vec, images, p, scale=1):
        if scale == -1:  # only the pivot rewrite negates
            raise RuntimeError("interrupted")
        return original(vec, images, p, scale)

    with mock.patch.object(linalg, "push", push), pytest.raises(RuntimeError):
        q.dimension(6)
    assert len(q._reps) == len(q._images) == 5
    q.dimensions(7)
    q._finish()
    fresh = GradedQuotient(TAILS_F5, TAILS_F5_RELATORS)
    fresh.dimensions(7)
    fresh._finish()
    assert q._reps == fresh._reps
    assert q._images == fresh._images


def _corpus_forms(fname):
    P = load_presentation(str(PRES / fname))
    ctx = P.context()
    return ctx, [initial_form(w, ctx, 8) for w in P.relator_words()]


def test_quotient_dimensions_circuit_closed_form():
    # 1/(1 - 4t + 4t^2) = 1/(1 - 2t)^2
    ctx, forms = _corpus_forms("circuit_d4.pres")
    assert list(quotient_dimensions(ctx, forms, 9)) == [(n + 1) * 2**n for n in range(10)]


def test_quotient_dimensions_demuskin_recurrence():
    # 1/(1 - 3t + t^3): b_n = 3 b_{n-1} - b_{n-3}
    ctx, forms = _corpus_forms("demuskin_p3.pres")
    want = [1, 3, 9]
    while len(want) < 10:
        want.append(3 * want[-1] - want[-3])
    assert list(quotient_dimensions(ctx, forms, 9)) == want


def test_budget_enforced():
    with pytest.raises(BudgetError):
        quotient_dimensions(CTX4, circuit(CTX4), 8, budget=1000)
    # a refused degree leaves the quotient consistent
    q = GradedQuotient(CTX4, circuit(CTX4), budget=1000)
    with pytest.raises(BudgetError):
        q.dimension(8)
    q.budget = None
    assert q.dimensions(8) == [(n + 1) * 2**n for n in range(9)]
    # also when it is refused while the degree below is still pending:
    # degree 3 (16 x 48) fits the budget, degree 4 (48 x 128) does not
    q = GradedQuotient(CTX4, circuit(CTX4), budget=1000)
    assert q.dimension(3) == 32
    assert len(q._images) == 3
    with pytest.raises(BudgetError):
        q.dimension(4)
    assert len(q._reps) == len(q._images) == 4
    q.budget = None
    assert q.dimensions(8) == [(n + 1) * 2**n for n in range(9)]
    unbudgeted = GradedQuotient(CTX4, circuit(CTX4))
    unbudgeted.dimensions(8)
    assert q._reps == unbudgeted._reps
    assert q._images == unbudgeted._images
    with pytest.raises(BudgetError):
        ideal_slice(CTX4, circuit(CTX4), 6, budget=10)


def test_budget_sees_the_weighted_matrix_shape(monkeypatch):
    # tau = (1, 2, 1): degree n's matrix has sum_i b_{n - sigma_i} rows and
    # sum_j b_{n - tau_j} columns, one per word beta * X_j
    ctx = Context(3, 3, (1, 2, 1))
    rhos = [ctx.poly([((1, 3), 1), ((3, 1), -1)]),
            ctx.poly([((2, 1), 1), ((1, 2), -1), ((1, 1, 1), 1)])]
    shapes = []
    monkeypatch.setattr("mildkit.freeness.check_budget", lambda rows, cols, budget: shapes.append((rows, cols)))
    q = GradedQuotient(ctx, rhos)
    b = q.dimensions(8)
    assert shapes == [(sum(b[n - s] for s in (2, 3) if n >= s), sum(b[n - t] for t in ctx.tau if n >= t))
                      for n in range(1, 9)]
    monkeypatch.undo()
    # degree 6 (19 x 52 = 988) fits a budget of 1000 and degree 7 (32 x 86)
    # does not, so a count one column off would move the refusal
    assert shapes[5:7] == [(19, 52), (32, 86)]
    q = GradedQuotient(ctx, rhos, budget=1000)
    assert q.dimensions(6) == b[:7]
    with pytest.raises(BudgetError):
        q.dimension(7)


# -- the oracle ---------------------------------------------------------------


def test_oracle_weighted_rescue_consistent():
    ctx = Context(2, 2, (2, 1))
    rho = ctx.poly([((1, 1), 1), ((2, 2, 2, 2), 1)])
    verdict = strongly_free_oracle(ctx, [rho], 12)
    assert verdict.status == CONSISTENT
    assert verdict.degree == 12


def test_oracle_refutes_x1_squared():
    verdict = strongly_free_oracle(CTX2, [CTX2.poly([((1, 1), 1)])], 5)
    assert verdict.status == REFUTED
    assert verdict.at_degree == 3
    assert verdict.witness_coefficient == 1


def test_oracle_refutes_commutator_triple():
    rhos = circuit(CTX3, pairs=((1, 2), (2, 3), (3, 1)))
    verdict = strongly_free_oracle(CTX3, rhos, 6)
    assert verdict.status == REFUTED
    assert verdict.at_degree <= 6
    # the quotient is the polynomial ring on three letters
    dims = quotient_dimensions(CTX3, rhos, 6)
    assert list(dims.coeffs) == [1, 3, 6, 10, 15, 21, 28]
    assert verdict.at_degree == 3


def test_oracle_never_proves():
    verdict = strongly_free_oracle(CTX4, circuit(CTX4), 8)
    assert verdict.status == CONSISTENT


def test_anick_proofs_never_contradict_the_oracle():
    # cross-engine soundness on polynomial inputs: whenever the high-term
    # criterion proves a random homogeneous sequence, the series oracle
    # must stay consistent
    rng = random.Random(24)
    proven_seen = 0
    order_pool = [DegLexOrder((1, 1)), DegLexOrder((1, 1), (2, 1)), UOrder({1}, (1, 1))]
    ctx = Context(2, 2)
    while proven_seen < 15:
        rhos = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            items = [(m, 1) for m in enumerate_basis(ctx, deg) if rng.random() < 0.3]
            if items:
                rhos.append(ctx.poly(items))
        if not rhos:
            continue
        verdict = anick_check(rhos, rng.choice(order_pool))
        if verdict.status == PROVEN:
            proven_seen += 1
            assert strongly_free_oracle(ctx, rhos, 8).status == CONSISTENT


# -- admissibility ------------------------------------------------------------


def test_denominator_series_rejects_negative_degree():
    assert denominator_series((1, 1), [2], 0).coeffs == (1,)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        denominator_series((1, 1), [2], -1)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        series_admissibility((1, 1), [2], -1)


def test_admissibility_triple_inadmissible():
    report = series_admissibility((1, 1, 1), (2, 2, 2), 6)
    assert not report.admissible
    assert report.at_degree == 6
    assert report.coefficient == -27


def test_admissibility_circuit():
    report = series_admissibility((1, 1, 1, 1), (2, 2, 2, 2), 10)
    assert report.admissible


def test_admissibility_geometric():
    assert series_admissibility((1,), (), 12).admissible


# -- positivity tripwire ------------------------------------------------------


def test_defect_positivity_on_random_corpus():
    # the oracle aborts on a negative defect coefficient; a clean pass over
    # random homogeneous inputs exercises the tripwire
    rng = random.Random(23)
    for _ in range(40):
        p = rng.choice([2, 3])
        d = rng.randint(1, 3)
        ctx = Context(p, d)
        rhos = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            basis = enumerate_basis(ctx, deg)
            items = [(m, rng.randint(1, p - 1)) for m in basis if rng.random() < 0.4]
            if items:
                rhos.append(ctx.poly(items))
        if not rhos:
            continue
        strongly_free_oracle(ctx, rhos, 7)
