"""The integer expansion kernel against the Poly-based reference expander,
and the homomorphism properties of the expansion."""

import pytest
from hypothesis import given, note, settings

from conftest import ROOT, SEEDS, Seeded, load_workloads
from mildkit.algebra import INFINITY, mul_truncated
from mildkit.magnus import (
    Commutator, Gen, GroupWord, Sub, expand, load_presentation, parse_presentation_text, word_to_text,
)
from mildkit.massey import zassenhaus_invariant
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


def _case(seed):
    """The generator's context, two words and cutoff for the seed, noted."""
    ctx, u, v, c = case = Seeded(seed).case()
    note(f"p = {ctx.p}, tau = {ctx.tau}, cutoff = {c}\nu = {word_to_text(u)}\nv = {word_to_text(v)}")
    return case


def _atoms(w):
    """Every atom of the word, inside commutators and subwords too."""
    for a in w.factors:
        yield a
        if isinstance(a, Commutator):
            yield from _atoms(a.left)
            yield from _atoms(a.right)
        elif isinstance(a, Sub):
            yield from _atoms(a.word)


def test_the_seeds_reach_every_prime_rank_and_degree():
    # a seed does not shrink, so the generator alone must cover the ranges
    cases = [Seeded(seed).case() for seed in range(40)]
    assert {ctx.p for ctx, *_ in cases} == {2, 3, 5}
    assert {ctx.d for ctx, *_ in cases} == {1, 2, 3, 4}
    assert {t for ctx, *_ in cases for t in ctx.tau} == {1, 2, 3}
    assert {c for *_, c in cases} == set(range(1, 7))
    for kind in (Gen, Commutator, Sub):
        exponents = {a.exponent for _, u, v, _ in cases for w in (u, v) for a in _atoms(w) if isinstance(a, kind)}
        assert exponents >= {-3, -2, -1, 1, 2, 3}
    presentations = [Seeded(seed).presentation() for seed in range(40)]
    assert {P.p for P in presentations} == {2, 3, 5}
    assert {P.d for P in presentations} == {2, 3, 4}
    assert {zassenhaus_invariant(P, 8) for P in presentations} >= set(range(2, 8))
    # relators of different valuations often meet in one presentation, so
    # that z(G) is a minimum over relators, and a relator's top-level atoms
    # often differ in valuation, a p-th power next to another valuation among them
    def valuation(P, w):
        return expand(w, P.context(), 8).valuation

    assert sum(len({valuation(P, w) for w in P.relator_words()}) > 1 for P in presentations) >= 10
    relators = [(P, w, [valuation(P, GroupWord((a,))) for a in w.factors])
                for P in presentations for w in P.relator_words()]
    assert sum(len(set(vs)) > 1 for *_, vs in relators) >= 15
    assert any(isinstance(a, Gen) and abs(a.exponent) == P.p and P.p in vs and len(set(vs)) > 1
               for P, w, vs in relators for a in w.factors)


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@PROPERTY
@given(SEEDS)
def test_expansion_matches_reference_on_random_words(seed):
    # the corpus has no parenthesized or commutator powers beyond +-1; these do
    ctx, u, _, c = _case(seed)
    assert expand(u, ctx, c).poly == reference_expand(u, ctx, c)


@PROPERTY
@given(SEEDS)
def test_expansion_is_multiplicative(seed):
    ctx, u, v, c = _case(seed)
    assert expand(u * v, ctx, c).poly == mul_truncated(expand(u, ctx, c).poly, expand(v, ctx, c).poly, c)


@PROPERTY
@given(SEEDS)
def test_word_times_inverse_expands_to_one(seed):
    ctx, u, _, c = _case(seed)
    assert expand(u * u.inverse(), ctx, c).poly == ctx.one()


@PROPERTY
@given(SEEDS)
def test_commutator_inverse_is_the_swapped_commutator(seed):
    ctx, a, b, c = _case(seed)
    inverse = expand(GroupWord((Commutator(a, b, -1),)), ctx, c).poly
    swapped = expand(GroupWord((Commutator(b, a),)), ctx, c).poly
    assert inverse == swapped
    assert mul_truncated(expand(GroupWord((Commutator(a, b),)), ctx, c).poly, swapped, c) == ctx.one()


@PROPERTY
@given(SEEDS)
def test_component_and_valuation_read_the_full_expansion(seed):
    ctx, u, _, c = _case(seed)
    e = expand(u, ctx, c)
    poly = e.poly
    for n in range(c + 1):
        assert e.component(n) == poly.homogeneous_component(n)
    assert e.valuation == _valuation(poly)
