"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its measured runtime.  Run with `pytest -v tests/test_acceptance.py`
(add -s to see the lines for passing criteria too)."""

import random
import time
from pathlib import Path

import pytest

from mildkit import Context, IntSeries
from mildkit.cli import load_presentation
from mildkit.freeness import (
    CONSISTENT,
    PROVEN,
    REFUTED,
    anick_check,
    combinatorially_free,
    quotient_dimensions,
    series_admissibility,
    strongly_free_oracle,
)
from mildkit.lie import hall_basis, hall_to_group_word, restricted_basis, witt_number
from mildkit.magnus import Presentation, initial_form
from mildkit.massey import (
    Decomposition,
    bn_map,
    check_mild,
    check_shuffles,
    demuskin_mildness,
    demuskin_type,
    massey_tensor,
    one_relator_verdict,
    zassenhaus_invariant,
)
from mildkit.orders import parse_order_spec

PRES = Path(__file__).resolve().parent.parent / "presentations"


class Criterion:
    def __init__(self, number, title, limit_s):
        self.number = number
        self.title = title
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {self.title}: {status} ({elapsed:.3f}s)")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its {self.limit_s}s budget: {elapsed:.3f}s"
            )
        return False


def test_criterion_1_series_fidelity():
    with Criterion(1, "series-fidelity", 10):
        denominator = IntSeries((1, -3, 3, 0, 0, 0, 0))
        denominator.inverse()  # warm-up
        best = min(
            _timed(denominator.inverse) for _ in range(5)
        )
        assert list(denominator.inverse().coeffs) == [1, 3, 6, 9, 9, 0, -27]
        assert best < 0.001, f"inversion took {best * 1000:.3f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_strong_freeness_positive():
    with Criterion(2, "circuit-strongly-free", 10):
        P = load_presentation(str(PRES / "circuit_d4.pres"))
        ctx = P.context()
        forms = [initial_form(w, ctx, 4) for _, w in P.relators]
        order = parse_order_spec("deglex:x1<x3<x2<x4", P.names, P.tau)
        verdict = anick_check(forms, order)
        assert verdict.status == PROVEN
        assert [m.letters for m in verdict.certificate.high_terms] == [
            (2, 1), (2, 3), (4, 3), (4, 1),
        ]
        dims = quotient_dimensions(ctx, forms, 8)
        target = IntSeries((1, -4, 4, 0, 0, 0, 0, 0, 0)).inverse()
        assert dims.coeffs == target.coeffs
        assert list(dims.coeffs) == [1, 4, 12, 32, 80, 192, 448, 1024, 2304]


def test_criterion_3_strong_freeness_negative():
    with Criterion(3, "triple-refuted", 10):
        P = load_presentation(str(PRES / "triple_d3.pres"))
        ctx = P.context()
        forms = [initial_form(w, ctx, 4) for _, w in P.relators]
        verdict = strongly_free_oracle(ctx, forms, 6)
        assert verdict.status == REFUTED
        assert verdict.at_degree <= 6
        report = series_admissibility((1, 1, 1), (2, 2, 2), 6)
        assert not report.admissible
        assert report.coefficient == -27


def test_criterion_4_weighted_rescue():
    with Criterion(4, "weighted-rescue", 30):
        P = load_presentation(str(PRES / "two_four.pres"))
        flat = P.context()
        flat_form = initial_form(P.relators[0][1], flat, 8)
        flat_verdict = strongly_free_oracle(flat, [flat_form], 5)
        assert flat_verdict.status == REFUTED
        assert flat_verdict.at_degree <= 5

        weighted = P.context((2, 1))
        weighted_form = initial_form(P.relators[0][1], weighted, 8)
        assert weighted_form == weighted.poly([((1, 1), 1), ((2, 2, 2, 2), 1)])
        weighted_verdict = strongly_free_oracle(weighted, [weighted_form], 12)
        assert weighted_verdict.status == CONSISTENT
        assert weighted_verdict.degree == 12


def test_criterion_5_massey_mildness_end_to_end():
    with Criterion(5, "demuskin-example", 5):
        P = load_presentation(str(PRES / "demuskin_p3.pres"))
        assert zassenhaus_invariant(P, 8) == 3
        assert demuskin_type(P).is_type
        direct = check_mild(P, Decomposition(2, 1))
        constructed = demuskin_mildness(P)
        for verdict in (direct, constructed):
            assert verdict.is_mild
            assert combinatorially_free(verdict.certificate.high_terms).free
            assert verdict.certificate.anick.status == PROVEN


def _coprime_corpus():
    """Hall-commutator relators with bracket weight coprime to p."""
    corpus = []
    for p, d, weight in [(2, 3, 3), (2, 2, 5), (3, 3, 2), (3, 2, 4), (5, 3, 2), (5, 2, 3), (5, 2, 4)]:
        names = tuple(f"x{i}" for i in range(1, d + 1))
        for c in hall_basis(d, weight):
            word = hall_to_group_word(c)
            corpus.append((Presentation(p, names, (1,) * d, (("r", word),)), weight))
    return corpus


def test_criterion_6_one_relator_theorems():
    with Criterion(6, "one-relator-coprime", 60):
        corpus = _coprime_corpus()
        assert len(corpus) >= 20
        for P, weight in corpus:
            report = one_relator_verdict(P, cutoff=weight + 1)
            assert report.z == weight
            assert report.coprime is True
            assert report.status == "mild"
            # the initial form of a bracket word is a Lie polynomial
            flat = next(m for m in report.memberships if m.tau == (1,) * P.d)
            assert flat.is_lie is True


def test_criterion_7_property_suites():
    with Criterion(7, "property-suites", 300):
        # shuffle identities on every computed tensor, for every split
        tensors = []
        for fname in ("demuskin_p3.pres", "circuit_d4.pres", "triple_d3.pres",
                      "cup_demuskin_p2.pres", "cyclic_p3.pres"):
            P = load_presentation(str(PRES / fname))
            n = zassenhaus_invariant(P, 8)
            tensors.append(massey_tensor(P, n))
        for T in tensors:
            for a in range(1, T.n):
                assert check_shuffles(T, a, T.n - a).ok

        # the diagonal map vanishes when n is not a p-power
        for p, d, weight in [(2, 3, 3), (2, 2, 5), (3, 2, 2), (3, 2, 4), (5, 2, 2), (5, 2, 3)]:
            names = tuple(f"x{i}" for i in range(1, d + 1))
            for c in hall_basis(d, weight)[:4]:
                P = Presentation(p, names, (1,) * d, (("r", hall_to_group_word(c)),))
                T = massey_tensor(P, weight)
                assert bn_map(T) == [[0] * d]

        # Hall and restricted basis sizes
        for d in (1, 2, 3):
            for n in range(1, 9):
                assert len(hall_basis(d, n)) == witt_number(d, n)
        for d in (1, 2, 3):
            for p in (2, 3, 5):
                for n in range(1, 8):
                    expected = 0
                    q = 1
                    while q <= n:
                        if n % q == 0:
                            expected += witt_number(d, n // q)
                        q *= p
                    assert len(restricted_basis(d, n, p)) == expected

        # positivity tripwire across a randomized oracle corpus: the oracle
        # aborts internally on any negative defect coefficient
        rng = random.Random(71)
        from reference_slice import enumerate_basis

        for _ in range(60):
            p = rng.choice([2, 3, 5])
            d = rng.randint(1, 3)
            ctx = Context(p, d)
            rhos = []
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(1, 3)
                items = [
                    (m, rng.randint(1, p - 1))
                    for m in enumerate_basis(ctx, deg)
                    if rng.random() < 0.5
                ]
                if items:
                    rhos.append(ctx.poly(items))
            if rhos:
                strongly_free_oracle(ctx, rhos, 7)


def test_criterion_8_cross_engine_soundness():
    with Criterion(8, "cross-engine-monomials", 120):
        rng = random.Random(81)
        seen_free = seen_overlapping = 0
        for _ in range(100):
            d = rng.randint(1, 3)
            ctx = Context(rng.choice([2, 3]), d)
            monomials = [
                ctx.monomial(tuple(rng.randint(1, d) for _ in range(rng.randint(1, 4))))
                for _ in range(rng.randint(1, 4))
            ]
            rhos = [ctx.poly([(m, 1)]) for m in monomials]
            free = combinatorially_free(monomials).free
            verdict = strongly_free_oracle(ctx, rhos, 8)
            if free:
                seen_free += 1
                assert verdict.status == CONSISTENT, monomials
            else:
                seen_overlapping += 1
                assert verdict.status == REFUTED, monomials
                assert verdict.at_degree <= 8
        # both sides of the equivalence must actually be exercised
        assert seen_free >= 10 and seen_overlapping >= 10
