"""The integer expansion kernel against the Poly-based reference expander,
and the homomorphism properties of the expansion."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ROOT, load_workloads
from mildkit import Context
from mildkit.algebra import INFINITY, mul_truncated
from mildkit.magnus import Commutator, Gen, GroupWord, Sub, expand, load_presentation, parse_presentation_text
from reference_magnus import reference_expand

# the six corpus files and the benchmark's sweep presentations of seed 1
PRESENTATIONS = [(path.stem, load_presentation(path))
                 for path in sorted((ROOT / "presentations").glob("*.pres"))]
PRESENTATIONS += [(f"sweep1-{k:02d}", parse_presentation_text(text))
                  for k, text in enumerate(load_workloads().sweep_presentations(1))]


def _valuation(poly):
    """The reference valuation of an expansion: None when it is 1."""
    v = (poly - poly.ctx.one()).tau_valuation()
    return None if v is INFINITY else v


@pytest.mark.parametrize("unit", [True, False], ids=["unit", "weights-1..d"])
@pytest.mark.parametrize("P", [P for _, P in PRESENTATIONS], ids=[n for n, _ in PRESENTATIONS])
def test_expansion_matches_reference(P, unit):
    ctx = P.context((1,) * P.d if unit else range(1, P.d + 1))
    cutoff = 8
    for _, w in P.relators:
        e = expand(w, ctx, cutoff)
        ref = reference_expand(w, ctx, cutoff)
        assert e.poly == ref
        assert e.valuation == _valuation(ref)
        for n in range(cutoff + 1):
            assert e.component(n) == ref.homogeneous_component(n)


# -- homomorphism properties ---------------------------------------------------


def _words(d, depth):
    """Products of one to three atoms (two inside a bracket): generator
    powers and, down to the depth, commutators and parenthesized subwords
    with small exponents."""
    atom = st.builds(Gen, st.integers(1, d), st.sampled_from([-3, -2, -1, 1, 2, 3]))
    if depth:
        inner = _words(d, depth - 1)
        exponent = st.sampled_from([-2, -1, 1, 2])
        atom = st.one_of(atom, st.builds(Commutator, inner, inner, exponent),
                         st.builds(Sub, inner, exponent))
    return st.lists(atom, min_size=1, max_size=3 if depth == 3 else 2).map(
        lambda atoms: GroupWord(tuple(atoms)))


@st.composite
def cases(draw):
    """A context with p in {2, 3, 5}, d <= 4 and unit or mixed weights, two
    words of depth <= 3 over it and a cutoff."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 4))
    tau = draw(st.one_of(st.just((1,) * d), st.tuples(*[st.integers(1, 3)] * d)))
    words = _words(d, 3)
    return Context(p, d, tau), draw(words), draw(words), draw(st.integers(1, 6))


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@PROPERTY
@given(cases())
def test_expansion_matches_reference_on_random_words(case):
    # the corpus has no parenthesized or commutator powers beyond +-1; these do
    ctx, u, _, c = case
    assert expand(u, ctx, c).poly == reference_expand(u, ctx, c)


@PROPERTY
@given(cases())
def test_expansion_is_multiplicative(case):
    ctx, u, v, c = case
    assert expand(u * v, ctx, c).poly == mul_truncated(expand(u, ctx, c).poly, expand(v, ctx, c).poly, c)


@PROPERTY
@given(cases())
def test_word_times_inverse_expands_to_one(case):
    ctx, u, _, c = case
    assert expand(u * u.inverse(), ctx, c).poly == ctx.one()


@PROPERTY
@given(cases())
def test_commutator_inverse_is_the_swapped_commutator(case):
    ctx, a, b, c = case
    inverse = expand(GroupWord((Commutator(a, b, -1),)), ctx, c).poly
    swapped = expand(GroupWord((Commutator(b, a),)), ctx, c).poly
    assert inverse == swapped
    assert mul_truncated(expand(GroupWord((Commutator(a, b),)), ctx, c).poly, swapped, c) == ctx.one()


@PROPERTY
@given(cases())
def test_component_and_valuation_read_the_full_expansion(case):
    ctx, u, _, c = case
    e = expand(u, ctx, c)
    poly = e.poly
    for n in range(c + 1):
        assert e.component(n) == poly.homogeneous_component(n)
    assert e.valuation == _valuation(poly)
