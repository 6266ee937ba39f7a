import random

import pytest

from mildkit import Context
from mildkit.errors import ParseError, PrecisionError
from mildkit.magnus import (
    Commutator,
    Gen,
    GroupWord,
    Presentation,
    Sub,
    expand,
    initial_form,
    make_presentation,
    parse_presentation_text,
    parse_word,
    substitute,
    word,
    word_to_text,
)

NAMES2 = ["x1", "x2"]
NAMES3 = ["x1", "x2", "x3"]


def w(text, names=NAMES3):
    return parse_word(text, names)


# -- expansion ----------------------------------------------------------------


def test_expand_single_generator():
    ctx = Context(3, 3)
    poly = expand(w("x1"), ctx, 3).poly
    assert poly == ctx.one() + ctx.gen(1)


def test_expand_cancellation_is_exact():
    ctx = Context(5, 2)
    for cutoff in (1, 4, 9):
        poly = expand(w("x1 x1^-1", NAMES2), ctx, cutoff).poly
        assert poly == ctx.one()


def test_expand_power_word_mod2():
    ctx = Context(2, 2)
    poly = expand(w("x1^2 x2^4", NAMES2), ctx, 8).poly
    expected = ctx.poly([((), 1), ((1, 1), 1), ((2, 2, 2, 2), 1), ((1, 1, 2, 2, 2, 2), 1)])
    assert poly == expected


def test_expand_commutator_low_degree():
    ctx = Context(5, 2)
    poly = expand(w("[x1, x2]", NAMES2), ctx, 2).poly
    assert poly.coefficient(()) == 1
    assert poly.coefficient((1, 2)) == 1
    assert poly.coefficient((2, 1)) == 4
    assert poly.coefficient((1,)) == 0
    assert poly.coefficient((2,)) == 0


def test_expand_requires_positive_cutoff():
    with pytest.raises(ValueError):
        expand(w("x1"), Context(2, 3), 0)


def test_expand_homomorphism_random_words():
    rng = random.Random(31)
    ctx = Context(3, 2)

    def rand_word(depth=2):
        atoms = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.6 or depth == 0:
                atoms.append(Gen(rng.randint(1, 2), rng.choice([-2, -1, 1, 2, 3])))
            elif kind < 0.8:
                atoms.append(Commutator(rand_word(depth - 1), rand_word(depth - 1)))
            else:
                atoms.append(Sub(rand_word(depth - 1), rng.choice([-1, 2])))
        return GroupWord(tuple(atoms))

    from mildkit.algebra import mul_truncated

    for _ in range(25):
        u, v = rand_word(), rand_word()
        eu = expand(u, ctx, 5).poly
        ev = expand(v, ctx, 5).poly
        euv = expand(u * v, ctx, 5).poly
        assert euv == mul_truncated(eu, ev, 5)
        # group inverse expands to the series inverse
        assert expand(u * u.inverse(), ctx, 5).poly == ctx.one()


def test_filtration_membership_iff_low_coefficients_vanish():
    # weight-n commutators and p-th powers land exactly in filtration step n
    cases = [
        (2, "[x1, x2]", 2),
        (2, "[[x1, x2], x2]", 3),
        (3, "[[x1, x3], x3]", 3),
        (2, "x1^2", 2),
        (3, "x1^3", 3),
        (5, "x2^5", 5),
        (3, "x1^3 [x1, x2]", 2),
    ]
    for p, text, n in cases:
        ctx = Context(p, 3)
        reduced = expand(w(text), ctx, n).poly - ctx.one()
        assert reduced.tau_valuation() == n
        for k in range(1, n):
            assert reduced.homogeneous_component(k).is_zero


# -- expansion coefficients ---------------------------------------------------


def coefficient(u, letters, ctx):
    """The coefficient of X_{l_1} ... X_{l_k} in the expansion of the word u."""
    mono = ctx.monomial(letters)
    return expand(u, ctx, max(mono.tau_degree, 1)).poly.coefficient(mono)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_epsilon_commutator(p):
    ctx = Context(p, 2)
    assert coefficient(w("[x1, x2]", NAMES2), (1, 2), ctx) == 1
    assert coefficient(w("[x1, x2]", NAMES2), (2, 1), ctx) == p - 1


def test_epsilon_generator_delta():
    ctx = Context(3, 3)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert coefficient(w(f"x{j}"), (i,), ctx) == (1 if i == j else 0)


def test_epsilon_cube_mod3():
    ctx = Context(3, 2)
    assert coefficient(w("x1^3", NAMES2), (1, 1, 1), ctx) == 1


# -- valuations and initial forms ----------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_omega_pth_power(p):
    ctx = Context(p, 2)
    assert expand(w("x1^p".replace("p", str(p)), NAMES2), ctx, p + 1).valuation == p


def test_omega_weight3_commutator():
    ctx = Context(3, 3)
    assert expand(w("[[x1, x3], x3]"), ctx, 4).valuation == 3


def test_omega_weighted():
    ctx = Context(2, 2, (2, 1))
    assert expand(w("x1^2 x2^4", NAMES2), ctx, 8).valuation == 4


def test_omega_unknown_when_too_deep():
    ctx = Context(2, 2)
    assert expand(w("[x1, x2]", NAMES2), ctx, 1).valuation is None
    assert expand(w("x1 x1^-1", NAMES2), ctx, 6).valuation is None


def test_initial_form_demuskin_relator():
    ctx = Context(3, 3)
    form = initial_form(w("x1^3 x2^3 [[x1, x3], x3]"), ctx, 3)
    expected = ctx.poly(
        [((1, 1, 1), 1), ((2, 2, 2), 1), ((1, 3, 3), 1), ((3, 1, 3), 1), ((3, 3, 1), 1)]
    )
    assert form == expected


def test_initial_form_commutator():
    ctx = Context(5, 2)
    form = initial_form(w("[x1, x2]", NAMES2), ctx, 2)
    assert form == ctx.poly([((1, 2), 1), ((2, 1), -1)])


def test_initial_form_weighted_rescue():
    ctx = Context(2, 2, (2, 1))
    form = initial_form(w("x1^2 x2^4", NAMES2), ctx, 8)
    assert form == ctx.poly([((1, 1), 1), ((2, 2, 2, 2), 1)])


def test_initial_form_needs_precision():
    ctx = Context(2, 2)
    with pytest.raises(PrecisionError):
        initial_form(w("[x1, x2]", NAMES2), ctx, 1)


# -- shuffle identity at the coefficient level ---------------------------------


def _shuffle_sum(values, index, a):
    import itertools

    n = len(index)
    total = 0
    for s in itertools.combinations(range(n), a):
        comp = [k for k in range(n) if k not in s]
        out = [0] * n
        for src, dst in enumerate(s):
            out[dst] = index[src]
        for src, dst in enumerate(comp):
            out[dst] = index[a + src]
        total += values.get(tuple(out), 0)
    return total


@pytest.mark.parametrize(
    "p,text,n",
    [
        (2, "[[x1, x2], x2] [[x1, x3], x2]", 3),
        (3, "x1^3 x2^3 [[x1, x3], x3]", 3),
        (2, "[x1, x2] [x2, x3]^3", 2),
        (5, "[[x1, x2], [x1, x3]] x1^-4 x1^4", 4),
    ],
)
def test_shuffle_identities_on_deep_words(p, text, n):
    import itertools

    ctx = Context(p, 3)
    reduced = expand(w(text), ctx, n).poly - ctx.one()
    assert reduced.tau_valuation() >= n
    values = {m.letters: c for m, c in reduced.terms.items() if m.tau_degree == n}
    for a in range(1, n):
        for index in itertools.product((1, 2, 3), repeat=n):
            assert _shuffle_sum(values, index, a) % p == 0


# -- substitution ---------------------------------------------------------------


def test_substitute_swap():
    u = substitute(w("x1 x2", NAMES2), [word(Gen(2)), word(Gen(1))])
    ctx = Context(3, 2)
    assert expand(u, ctx, 3).poly == expand(w("x2 x1", NAMES2), ctx, 3).poly


def test_substitute_identity():
    ww = w("[x1, x2^2] x3^-1")
    images = [word(Gen(i)) for i in (1, 2, 3)]
    ctx = Context(2, 3)
    assert expand(substitute(ww, images), ctx, 4).poly == expand(ww, ctx, 4).poly


def test_substitute_structural_commutator():
    ww = w("[x1, x2]", NAMES2)
    out = substitute(ww, [w("x1", NAMES2), w("x1 x2", NAMES2)])
    assert isinstance(out.factors[0], Commutator)
    ctx = Context(3, 2)
    assert expand(out, ctx, 3).poly == expand(w("[x1, x1 x2]", NAMES2), ctx, 3).poly


def test_substitute_arity_checked():
    with pytest.raises(ValueError):
        substitute(w("x1 x3"), [word(Gen(1))])


# -- parsing and printing --------------------------------------------------------


def test_parse_longest_name_wins():
    names = ["x1", "x10"]
    ww = parse_word("x10 x1", names)
    assert [a.index for a in ww.factors] == [2, 1]


def test_parse_whitespace_and_star_optional():
    names = NAMES2
    ctx = Context(3, 2)
    for text in ("x1x2", "x1 * x2", "x1*x2", "x1   x2"):
        assert expand(parse_word(text, names), ctx, 2).poly == expand(
            w("x1 x2", NAMES2), ctx, 2
        ).poly


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_word("x1 x9", NAMES2, line=3)
    assert err.value.line == 3
    assert err.value.column == 4
    with pytest.raises(ParseError):
        parse_word("[x1 x2", NAMES2)
    with pytest.raises(ParseError):
        parse_word("x1^0", NAMES2)
    with pytest.raises(ParseError):
        parse_word("x1^", NAMES2)
    with pytest.raises(ParseError):
        parse_word("(x1", NAMES2)


def test_word_text_round_trip():
    texts = [
        "x1^3 x2^3 [[x1, x3], x3]",
        "[x1, x2]^-2 (x1 x3^-5)^2",
        "x1 x2 x3",
    ]
    for text in texts:
        ww = w(text)
        again = parse_word(word_to_text(ww, NAMES3), NAMES3)
        assert again == ww


# -- presentations ----------------------------------------------------------------


def test_presentation_minimality_enforced():
    with pytest.raises(ValueError):
        make_presentation(2, NAMES2, [("r", "x1 x2")])
    with pytest.raises(ValueError):
        make_presentation(3, NAMES2, [("r", "x1^4")])  # valuation 1: (1+X)^4 has X term


def test_presentation_minimal_ok():
    P = make_presentation(3, NAMES2, [("r", "x1^3"), ("s", "[x1, x2]")])
    assert P.d == 2 and P.m == 2


def test_presentation_duplicate_names_rejected():
    with pytest.raises(ValueError):
        make_presentation(2, ["x1", "x1"], [])
    with pytest.raises(ValueError):
        make_presentation(2, NAMES2, [("r", "x1^2"), ("r", "x2^2")])


def test_presentation_round_trip():
    P = make_presentation(3, NAMES3, [("r1", "x1^3 [x2, x3]"), ("r2", "[x1, [x2, x3]]")])
    again = parse_presentation_text(P.to_text())
    assert again == P
