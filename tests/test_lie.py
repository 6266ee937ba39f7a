import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mildkit import Context
from mildkit.lie import (
    HallElement,
    NotInRestrictedLieError,
    expand_to_assoc,
    hall_basis,
    hall_basis_by_tau_degree,
    hall_layers,
    hall_to_group_word,
    lie_membership,
    p_power_commutator_split,
    restricted_basis,
    witt_number,
)
from mildkit.linalg import RowReducer
from mildkit.magnus import initial_form
from reference_slice import enumerate_basis


def brute_lyndon_count(d, n):
    """Independent oracle: count length-n words strictly smaller than all
    their proper rotations (Lyndon words), which equals the dimension of
    the degree-n part of the free Lie algebra."""
    count = 0
    for word in itertools.product(range(d), repeat=n):
        rotations = [word[i:] + word[:i] for i in range(1, n)]
        if all(word < r for r in rotations):
            count += 1
    return count


# -- Hall bases ----------------------------------------------------------------


def test_hall_small_cases():
    basis = hall_basis(2, 2)
    assert len(basis) == 1
    assert basis[0].format() == "[X1,X2]"
    assert len(hall_basis(2, 3)) == 2
    assert [c.format() for c in hall_basis(3, 1)] == ["X3", "X2", "X1"]


def test_hall_sizes_match_witt_numbers():
    for d in (1, 2, 3):
        for n in range(1, 9):
            expected = brute_lyndon_count(d, n)
            assert witt_number(d, n) == expected
            assert len(hall_basis(d, n)) == expected


def test_hall_conditions_hold():
    for c in hall_basis(3, 5):
        stack = [c]
        while stack:
            e = stack.pop()
            if e.is_leaf:
                continue
            assert e.left.key > e.right.key
            if not e.left.is_leaf:
                assert e.right.key >= e.left.right.key
            stack.extend([e.left, e.right])


def test_restricted_basis_p2_degree2():
    basis = restricted_basis(2, 2, 2)
    labels = sorted(e.format(p=2) for e in basis)
    assert labels == ["X1^2", "X2^2", "[X1,X2]"]


def test_restricted_basis_single_generator():
    basis = restricted_basis(1, 3, 3)
    assert [e.format(p=3) for e in basis] == ["X1^3"]


@pytest.mark.parametrize("p", [0, 4, 9, -2])
def test_restricted_basis_rejects_non_prime(p):
    with pytest.raises(ValueError, match="p must be a prime"):
        restricted_basis(2, 4, p)


@pytest.mark.parametrize("d, n", [(2, 0), (-1, 2)])
def test_restricted_basis_rejects_bad_rank_or_degree(d, n):
    # the same check and message as hall_layers
    with pytest.raises(ValueError, match="^need d >= 1 and n >= 1$"):
        restricted_basis(d, n, 3)


def test_restricted_basis_rejects_p1_without_looping():
    # p = 1 never grows p^j; run it in a child process so that a regression
    # fails on the timeout rather than hanging the suite
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "from mildkit.lie import restricted_basis; restricted_basis(2, 4, 1)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "ValueError: p must be a prime, got 1" in done.stderr


def test_restricted_basis_weighted():
    basis = restricted_basis(2, 4, 2, (2, 1))
    labels = sorted(e.format(p=2) for e in basis)
    assert labels == ["X1^2", "X2^4", "[[X1,X2],X2]"]


def test_restricted_sizes_match_layer_sums():
    for d in (1, 2, 3):
        for p in (2, 3):
            for n in range(1, 8):
                expected = 0
                q = 1
                while q <= n:
                    if n % q == 0:
                        expected += witt_number(d, n // q)
                    q *= p
                assert len(restricted_basis(d, n, p)) == expected


def _every_hall_commutator(d, n, tau):
    """Every Hall commutator of weight 1..n, sorted: each layer pairs every
    two lower layers, empty or not."""
    layers = [[], [HallElement(i, None, None, 1, tau[i - 1]) for i in range(1, d + 1)]]
    for w in range(2, n + 1):
        layers.append([
            HallElement(None, c1, c2, w, c1.tau_degree + c2.tau_degree)
            for w1 in range(1, w) for c1 in layers[w1] for c2 in layers[w - w1]
            if c1.key > c2.key and (c1.is_leaf or c1.right.key <= c2.key)
        ])
    return sorted((c for layer in layers for c in layer), key=lambda c: c.key)


def test_hall_listings_match_the_enumeration_of_every_weight():
    for d in (1, 2, 3):
        for tau in itertools.product((1, 2, 3), repeat=d):
            every = [(c.key, c.tau_degree) for c in _every_hall_commutator(d, 8, tau)]
            for n in range(1, 9):
                listed = hall_basis_by_tau_degree(d, n, tau)
                assert [(c.key, c.tau_degree) for c in listed] == [c for c in every if c[1] == n]
                for p in (q for q in (2, 3) if n % q == 0):  # otherwise no p-th powers
                    listed = restricted_basis(d, n, p, tau)
                    expected = [(j, c) for j in range(4) if n % p**j == 0 for c in every if c[1] * p**j == n]
                    assert [(e.p_exp, (e.base.key, e.base.tau_degree)) for e in listed] == expected
    # one letter has no brackets, so the layers past the first are empty at once
    start = time.perf_counter()
    layers = hall_layers(1, 20000)
    assert time.perf_counter() - start < 1
    assert len(layers) == 20001 and len(layers[1]) == 1 and not any(layers[2:])


# -- expansion into the free algebra --------------------------------------------


def test_expand_bracket():
    ctx = Context(5, 2)
    [c] = hall_basis(2, 2)
    assert expand_to_assoc(c, ctx) == ctx.poly([((1, 2), 1), ((2, 1), -1)])


def test_expand_nested_bracket_mod3():
    ctx = Context(3, 3)
    target = ctx.poly([((1, 3, 3), 1), ((3, 1, 3), 1), ((3, 3, 1), 1)])
    elems = [c for c in hall_basis(3, 3) if c.format() == "[[X1,X3],X3]"]
    assert len(elems) == 1
    assert expand_to_assoc(elems[0], ctx) == target


def test_expand_p_power():
    ctx = Context(2, 2)
    [elem] = [e for e in restricted_basis(2, 2, 2) if e.format(p=2) == "X1^2"]
    assert expand_to_assoc(elem, ctx) == ctx.poly([((1, 1), 1)])


@pytest.mark.parametrize("d,p,n", [(2, 2, 4), (2, 3, 3), (3, 2, 3), (3, 3, 3)])
def test_restricted_images_linearly_independent(d, p, n):
    ctx = Context(p, d)
    basis = enumerate_basis(ctx, n)
    index = {m: i for i, m in enumerate(basis)}
    reducer = RowReducer(p)
    elems = restricted_basis(d, n, p)
    for e in elems:
        poly = expand_to_assoc(e, ctx)
        assert reducer.add({index[m]: c for m, c in poly.terms.items()}) is not None
    assert reducer.rank == len(elems)


@pytest.mark.parametrize("d,p,n", [(2, 2, 2), (2, 2, 4), (2, 3, 3), (3, 3, 3)])
def test_group_realizations_span_the_graded_piece(d, p, n):
    # initial forms of the group-word realizations of the restricted basis
    # are linearly independent at degree n: the graded pieces of the free
    # group match the restricted Lie algebra
    ctx = Context(p, d)
    basis = enumerate_basis(ctx, n)
    index = {m: i for i, m in enumerate(basis)}
    reducer = RowReducer(p)
    elems = restricted_basis(d, n, p)
    for e in elems:
        form = initial_form(hall_to_group_word(e, p), ctx, n)
        assert form.tau_valuation() == n
        assert form == expand_to_assoc(e, ctx)
        reducer.add({index[m]: c for m, c in form.terms.items()})
    assert reducer.rank == len(elems)


# -- membership and splitting ----------------------------------------------------


def test_membership_simple_bracket():
    ctx = Context(5, 2)
    f = ctx.poly([((1, 2), 1), ((2, 1), -1)])
    coords = lie_membership(f, 2)
    assert coords is not None
    [(elem, coeff)] = coords
    assert elem.format() == "[X1,X2]" and coeff == 1


def test_membership_rejects_square():
    ctx = Context(2, 2)
    assert lie_membership(ctx.poly([((1, 1), 1)]), 2) is None


def test_membership_rejects_demuskin_form():
    ctx = Context(3, 3)
    f = ctx.poly(
        [((1, 1, 1), 1), ((2, 2, 2), 1), ((1, 3, 3), 1), ((3, 1, 3), 1), ((3, 3, 1), 1)]
    )
    assert lie_membership(f, 3) is None


def test_membership_roundtrip_on_hall_elements():
    ctx = Context(3, 2)
    for n in (2, 3, 4):
        for c in hall_basis(2, n):
            coords = lie_membership(expand_to_assoc(c, ctx), n)
            assert coords == [(c, 1)]


def test_split_demuskin_form():
    ctx = Context(3, 3)
    f = ctx.poly(
        [((1, 1, 1), 1), ((2, 2, 2), 1), ((1, 3, 3), 1), ((3, 1, 3), 1), ((3, 3, 1), 1)]
    )
    split = p_power_commutator_split(f, 3)
    assert sorted(e.format(p=3) for e, _ in split.power_part) == ["X1^3", "X2^3"]
    assert [(e.format(), c) for e, c in split.lie_part] == [("[[X1,X3],X3]", 1)]
    assert not split.is_lie


def test_split_pure_power():
    for p in (2, 3, 5):
        ctx = Context(p, 2)
        f = ctx.poly([((1,) * p, 1)])
        split = p_power_commutator_split(f, p)
        assert [(e.format(p=p), c) for e, c in split.power_part] == [(f"X1^{p}", 1)]
        assert split.lie_part == []


def test_split_rejects_non_lie_element():
    ctx = Context(2, 2)
    with pytest.raises(NotInRestrictedLieError):
        p_power_commutator_split(ctx.poly([((1, 2), 1)]), 2)


def test_weighted_hall_enumeration():
    # tau = (2, 1): degree-4 brackets have weight <= 4 and weighted degree 4
    elems = hall_basis_by_tau_degree(2, 4, (2, 1))
    assert [c.format() for c in elems] == ["[[X1,X2],X2]"]
    assert all(c.tau_degree == 4 for c in elems)
