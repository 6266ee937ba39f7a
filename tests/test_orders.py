import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_monomial, random_poly
from mildkit import Context
from mildkit.algebra import Monomial
from mildkit.orders import (
    DegLexOrder,
    EQ,
    GT,
    LT,
    MonomialOrder,
    UOrder,
    check_multiplicative,
    high_term,
    parse_order_spec,
)

CTX2 = Context(2, 2)
CTX3 = Context(3, 3)
CTX4 = Context(2, 4)


def mono(ctx, *letters):
    return ctx.monomial(letters)


def test_uorder_rightward_statistic():
    # same degree and same out-of-U count; the out-of-U letter further
    # right makes the word larger
    order = UOrder({1}, (1, 1))
    assert order.compare(mono(CTX2, 2, 1), mono(CTX2, 1, 2)) == LT
    assert order.stats(mono(CTX2, 2, 1))[1] == 1
    assert order.stats(mono(CTX2, 1, 2))[1] == 2


def test_deglex_degree_dominates():
    order = DegLexOrder((1, 1))
    assert order.compare(mono(CTX2, 1), mono(CTX2, 1, 2)) == LT


def test_compare_equal():
    for order in (DegLexOrder((1, 1)), UOrder({1}, (1, 1))):
        m = mono(CTX2, 1, 2, 1)
        assert order.compare(m, m) == EQ


def test_weighted_deglex_uses_tau_degree():
    order = DegLexOrder((2, 1))
    # X2^3 has degree 3 > deg X1 = 2 even though lex would say otherwise
    assert order.compare(mono(CTX2, 1), mono(CTX2, 2, 2, 2)) == LT


def test_multiplicative_uorder():
    order = UOrder({1, 2}, (1, 1, 1))
    assert check_multiplicative(order, 10000, 5, seed=101) is None


def test_multiplicative_deglex():
    order = DegLexOrder((1, 1, 1), (1, 3, 2))
    assert check_multiplicative(order, 10000, 5, seed=102) is None


def test_multiplicative_weighted_orders():
    assert check_multiplicative(DegLexOrder((2, 1)), 5000, 5, seed=103) is None
    assert check_multiplicative(UOrder({2}, (3, 1, 2)), 5000, 5, seed=104) is None


class PureLexOrder(MonomialOrder):
    """Deliberately broken: plain lexicographic with prefix < extension,
    ignoring degree.  Not multiplicative: appending on the right can flip
    a prefix comparison."""

    def __init__(self, tau):
        self.tau = tau

    def compare(self, a, b):
        if a.letters == b.letters:
            return EQ
        if a.letters < b.letters:
            return LT
        return GT


def test_broken_order_caught():
    counterexample = check_multiplicative(PureLexOrder((1, 1)), 10000, 4, seed=105)
    assert counterexample is not None
    # concrete failing transport: X1 < X1X1 but (X1)(X2) > (X1X1)(X2)...
    # the checker must exhibit some counterexample of either kind
    assert counterexample[0] in ("one-minimal", "translation")


def test_circuit_high_terms_under_section3_order():
    # lex order X1 < X3 < X2 < X4 sends the cyclic commutators to
    # X2X1, X2X3, X4X3, X4X1
    order = DegLexOrder((1, 1, 1, 1), (1, 3, 2, 4))

    def comm(i, j):
        return CTX4.poly([((i, j), 1), ((j, i), -1)])

    highs = [high_term(order, comm(*pair)) for pair in [(1, 2), (2, 3), (3, 4), (4, 1)]]
    assert [h.letters for h in highs] == [(2, 1), (2, 3), (4, 3), (4, 1)]


def test_high_term_single_monomial():
    order = DegLexOrder((1, 1))
    a = CTX2.poly([((1, 2, 1), 1)])
    assert high_term(order, a).letters == (1, 2, 1)


def test_high_term_degree3_subset_order():
    # under U = {X1, X2} the out-of-U letters dominate and the rightmost
    # placement wins, so X1*X3^2 beats the pure powers and the rotations
    f = CTX3.poly(
        [((1, 1, 1), 1), ((2, 2, 2), 1), ((1, 3, 3), 1), ((3, 1, 3), 1), ((3, 3, 1), 1)]
    )
    order = UOrder({1, 2}, (1, 1, 1))
    assert high_term(order, f).letters == (1, 3, 3)


def test_high_term_zero_rejected():
    with pytest.raises(ValueError):
        high_term(DegLexOrder((1, 1)), CTX2.zero())


@pytest.mark.parametrize(
    "order",
    [
        DegLexOrder((1, 1, 1), (2, 1, 3)),
        UOrder({1}, (1, 1, 1)),
        UOrder({1, 3}, (1, 2, 1), (3, 1, 2)),
    ],
)
def test_strict_total_order(order):
    rng = random.Random(106)
    ctx = Context(2, 3, order.tau)
    ms = [random_monomial(rng, ctx, max_len=4) for _ in range(120)]
    for a in ms[:40]:
        for b in ms[:40]:
            cab, cba = order.compare(a, b), order.compare(b, a)
            assert cab == -cba
            assert (cab == EQ) == (a.letters == b.letters)
    for _ in range(300):
        a, b, c = rng.sample(ms, 3)
        if order.compare(a, b) != GT and order.compare(b, c) != GT:
            assert order.compare(a, c) != GT


@pytest.mark.parametrize(
    "order",
    [DegLexOrder((1, 1)), UOrder({2}, (1, 1)), UOrder({1}, (2, 1), (2, 1))],
)
def test_high_term_multiplicative_on_products(order):
    rng = random.Random(107)
    ctx = Context(3, 2, order.tau)
    done = 0
    while done < 60:
        a = random_poly(rng, ctx, max_terms=4, max_len=3)
        b = random_poly(rng, ctx, max_terms=4, max_len=3)
        if a.is_zero or b.is_zero:
            continue
        assert high_term(order, a * b) == high_term(order, a) * high_term(order, b)
        done += 1


def test_parse_order_specs():
    names = ["x1", "x2", "x3", "x4"]
    tau = (1, 1, 1, 1)
    o = parse_order_spec("deglex:x1<x3<x2<x4", names, tau)
    assert isinstance(o, DegLexOrder)
    assert o.letter_order == (1, 3, 2, 4)
    o = parse_order_spec("u-order:U=x1,x2;x1<x2<x3<x4", names, tau)
    assert isinstance(o, UOrder)
    assert o.u == frozenset({1, 2})
    o = parse_order_spec("deglex", names, tau)
    assert o.letter_order == (1, 2, 3, 4)
    from mildkit.errors import ParseError

    with pytest.raises(ParseError):
        parse_order_spec("deglex:x1<x3", names, tau)
    with pytest.raises(ParseError):
        parse_order_spec("u-order:x1", names, tau)
    with pytest.raises(ParseError):
        parse_order_spec("weird:x1", names, tau)


def reference_compare(order, a, b):
    """The orders written out as pairwise comparisons: weighted degree,
    then for a subset order the out-of-U count l_u and the rightward sum
    k_u, then the first differing letter in the letter order."""
    if a.tau_degree != b.tau_degree:
        return LT if a.tau_degree < b.tau_degree else GT
    if isinstance(order, UOrder):

        def stats(m):
            l_u = k_u = prefix = 0
            for letter in m.letters:
                prefix += order.tau[letter - 1]
                if letter not in order.u:
                    l_u += 1
                    k_u += prefix
            return l_u, k_u

        sa, sb = stats(a), stats(b)
        if sa != sb:
            return LT if sa < sb else GT
    for x, y in zip(a.letters, b.letters):
        if x != y:
            return LT if order.letter_order.index(x) < order.letter_order.index(y) else GT
    assert len(a.letters) == len(b.letters), "equal-degree words in prefix relation"
    return EQ


@st.composite
def orders_and_words(draw):
    d = draw(st.integers(2, 4))
    tau = tuple(draw(st.lists(st.integers(1, 3), min_size=d, max_size=d)))
    perm = tuple(draw(st.permutations(range(1, d + 1))))
    if draw(st.booleans()):
        order = DegLexOrder(tau, perm)
    else:
        order = UOrder(draw(st.sets(st.integers(1, d))), tau, perm)
    ctx = Context(3, d, tau)
    word = st.lists(st.integers(1, d), max_size=5).map(lambda letters: ctx.monomial(tuple(letters)))
    return order, ctx, draw(st.lists(word, min_size=1, max_size=12))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(orders_and_words())
def test_key_agrees_with_the_reference_comparison(case):
    order, ctx, words = case
    cmp = functools.partial(reference_compare, order)
    assert sorted(words, key=order.key) == sorted(words, key=functools.cmp_to_key(cmp))
    for a in words:
        for b in words:
            assert order.compare(a, b) == cmp(a, b)
    f = ctx.poly([(m, 1) for m in words])
    if not f.is_zero:
        reference = functools.reduce(lambda x, y: y if cmp(y, x) == GT else x, f.terms)
        assert high_term(order, f) == reference
