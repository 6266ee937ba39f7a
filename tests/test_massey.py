import itertools
import json
import random
import time
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import count_expansions
from mildkit.cli import main as cli_main
from mildkit.errors import BudgetError, PrecisionError
from mildkit.algebra import Context
from mildkit.freeness import (
    ADMISSIBLE, INADMISSIBLE, PROVEN, CONSISTENT, REFUTED, AdmissibilityResult, FreenessCertificate,
    FreenessVerdict, anick_check, strongly_free_oracle,
)
from mildkit.lie import hall_basis, hall_to_group_word
from mildkit.magnus import (
    Commutator, GroupWord, Gen, Presentation, Sub, _expansion, expand, initial_form, make_presentation,
    substitute,
)
from mildkit.massey import (
    CRITERION_FAILED,
    MILD,
    NOT_APPLICABLE,
    Decomposition,
    MildCertificate,
    MildVerdict,
    bn_map,
    check_mild,
    check_shuffles,
    demuskin,
    demuskin_mildness,
    demuskin_type,
    massey_tensor,
    massey_value,
    one_relator_verdict,
    search_mild,
    subset_decomposition,
    zassenhaus_invariant,
)
from mildkit.orders import UOrder
from reference_magnus import reference_expand

PRES = Path(__file__).resolve().parent.parent / "presentations"

NAMES = {1: ["x"], 2: ["x1", "x2"], 3: ["x1", "x2", "x3"], 4: ["x1", "x2", "x3", "x4"]}


def pres(p, d, relators, tau=None):
    return make_presentation(p, NAMES[d], [(f"r{k + 1}", t) for k, t in enumerate(relators)], tau)


DEMUSKIN_P3 = pres(3, 3, ["x1^3 x2^3 [[x1, x3], x3]"])
CIRCUIT = pres(2, 4, ["[x1, x2]", "[x2, x3]", "[x3, x4]", "[x4, x1]"])
TRIPLE = pres(2, 3, ["[x1, x2]", "[x2, x3]", "[x3, x1]"])


# -- Zassenhaus invariant -------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_z_of_pth_power(p):
    P = pres(p, 1, [f"x^{p}"])
    assert zassenhaus_invariant(P, p + 1) == p


def test_z_of_commutator():
    P = pres(3, 2, ["[x1, x2]"])
    assert zassenhaus_invariant(P, 4) == 2


def test_z_of_demuskin_example():
    assert zassenhaus_invariant(DEMUSKIN_P3, 8) == 3


def test_z_is_minimum_over_relators():
    P = pres(2, 3, ["[x1, x2]", "[[x1, x2], x3]"])
    assert zassenhaus_invariant(P, 6) == 2


def test_z_unknown_for_trivial_relator():
    P = pres(2, 2, ["x1 x2 x2^-1 x1^-1"])
    assert zassenhaus_invariant(P, 6) is None


def test_z_infinite_for_free_presentation():
    from mildkit.algebra import INFINITY

    P = pres(2, 2, [])
    assert zassenhaus_invariant(P, 4) is INFINITY


# -- tensors ---------------------------------------------------------------------


def test_tensor_of_commutator():
    P = pres(5, 2, ["[x1, x2]"])
    T = massey_tensor(P, 2)
    assert T.values[0] == {(1, 2): 1, (2, 1): 4}


def test_tensor_demuskin_entries():
    T = massey_tensor(DEMUSKIN_P3, 3)
    assert T.values[0] == {
        (1, 1, 1): 1,
        (2, 2, 2): 1,
        (1, 3, 3): 1,
        (3, 1, 3): 1,
        (3, 3, 1): 1,
    }


def test_tensor_refuses_beyond_invariant():
    P = pres(3, 2, ["[x1, x2]"])
    with pytest.raises(ValueError):
        massey_tensor(P, 3)


def test_tensor_defaults_to_z_off_one_expansion_read(monkeypatch):
    reads = []
    original = Presentation.expansions

    def expansions(self, cutoff):
        reads.append(cutoff)
        return original(self, cutoff)

    monkeypatch.setattr(Presentation, "expansions", expansions)
    T = massey_tensor(DEMUSKIN_P3, cutoff=8)
    assert reads == [8]
    assert T == massey_tensor(DEMUSKIN_P3, zassenhaus_invariant(DEMUSKIN_P3, 8), 8)
    with pytest.raises(PrecisionError, match="every relator expands to 1 up to degree 8"):
        massey_tensor(pres(2, 2, ["x1 x1^-1"]), cutoff=8)


def test_cup_product_sign():
    # at n = 2 the pairing equals the cup product, which carries sign -1
    P = pres(5, 2, ["[x1, x2]"])
    T = massey_tensor(P, 2)
    chi1 = [1, 0]
    chi2 = [0, 1]
    assert massey_value(T, [chi1, chi2]) == [(-1) % 5]
    assert massey_value(T, [chi2, chi1]) == [1]


def test_massey_value_basis_tuple_and_zero():
    T = massey_tensor(DEMUSKIN_P3, 3)
    sign = T.sign
    for index in [(1, 1, 1), (1, 3, 3), (2, 3, 3)]:
        vecs = [[1 if k == i - 1 else 0 for k in range(3)] for i in index]
        assert massey_value(T, vecs) == [(sign * T.value(0, index)) % 3]
    vecs = [[1, 2, 0], [0, 0, 0], [1, 1, 1]]
    assert massey_value(T, vecs) == [0]


def test_massey_value_multilinear():
    rng = random.Random(41)
    T = massey_tensor(DEMUSKIN_P3, 3)
    p, d = T.p, T.d
    for _ in range(30):
        slot = rng.randrange(3)
        base = [[rng.randrange(p) for _ in range(d)] for _ in range(3)]
        u = [rng.randrange(p) for _ in range(d)]
        v = [rng.randrange(p) for _ in range(d)]
        lam = rng.randrange(p)
        left = base[:slot] + [[(a + lam * b) % p for a, b in zip(u, v)]] + base[slot + 1 :]
        right_u = base[:slot] + [u] + base[slot + 1 :]
        right_v = base[:slot] + [v] + base[slot + 1 :]
        lhs = massey_value(T, left)
        rhs = [
            (x + lam * y) % p
            for x, y in zip(massey_value(T, right_u), massey_value(T, right_v))
        ]
        assert lhs == rhs


def test_massey_value_dimension_checks():
    T = massey_tensor(DEMUSKIN_P3, 3)
    with pytest.raises(ValueError):
        massey_value(T, [[1, 0, 0]] * 2)
    with pytest.raises(ValueError):
        massey_value(T, [[1, 0]] * 3)


# -- shuffles ---------------------------------------------------------------------


def test_shuffles_pass_on_real_tensors():
    for P in (DEMUSKIN_P3, CIRCUIT, TRIPLE):
        n = zassenhaus_invariant(P, 8)
        T = massey_tensor(P, n)
        for a in range(1, n):
            assert check_shuffles(T, a, n - a).ok


def test_shuffles_z3_cyclic_and_reversal():
    T = massey_tensor(DEMUSKIN_P3, 3)
    vals = T.values[0]
    for i, j, k in itertools.product((1, 2, 3), repeat=3):
        cyc = vals.get((i, j, k), 0) + vals.get((j, k, i), 0) + vals.get((k, i, j), 0)
        assert cyc % 3 == 0
        assert vals.get((i, j, k), 0) == vals.get((k, j, i), 0)


def test_shuffles_detect_corruption():
    T = massey_tensor(DEMUSKIN_P3, 3)
    corrupted = dict(T.values[0])
    corrupted[(1, 2, 3)] = 1
    bad = type(T)(T.p, T.d, T.n, T.relator_names, (corrupted,))
    assert any(not check_shuffles(bad, a, 3 - a).ok for a in (1, 2))


def test_shuffles_sample_when_the_space_is_large():
    T = massey_tensor(DEMUSKIN_P3, 3)  # 27 tuples
    report = check_shuffles(T, 1, 2, max_tuples=5, seed=3)
    assert report.checked == 5
    assert report.ok
    # every entry 1 mod 5: each tuple's three (1,2)-shuffles sum to 3
    ones = {i: 1 for i in itertools.product(range(1, 5), repeat=3)}
    bad = type(T)(5, 4, 3, ("r",), (ones,))
    report = check_shuffles(bad, 1, 2, max_tuples=10, seed=3)
    assert report.checked == 10
    assert len(report.violations) == 10
    assert check_shuffles(bad, 1, 2, max_tuples=10, seed=3) == report  # same sample
    # a sample is drawn without replacement: 63 of the 64 tuples, each once
    report = check_shuffles(bad, 1, 2, max_tuples=63, seed=3)
    assert report.checked == 63
    tuples = [index for _, index in report.violations]
    assert len(tuples) == len(set(tuples)) == 63
    assert set(tuples) < set(ones)


def test_shuffles_validate_split():
    T = massey_tensor(DEMUSKIN_P3, 3)
    with pytest.raises(ValueError):
        check_shuffles(T, 0, 3)
    with pytest.raises(ValueError):
        check_shuffles(T, 2, 2)


def test_cup_tensor_antisymmetric():
    # the n = 2 pairing is the cup product: value(j, (a, b)) = -value(j, (b, a))
    for P in (CIRCUIT, TRIPLE, pres(5, 2, ["[x1, x2]^2 [x2, x1]"])):
        T = massey_tensor(P, 2)
        for j in range(T.m):
            for a in range(1, T.d + 1):
                for b in range(1, T.d + 1):
                    assert (T.value(j, (a, b)) + T.value(j, (b, a))) % T.p == 0


# -- the diagonal map -------------------------------------------------------------


def test_bn_zero_when_not_p_power():
    from mildkit.magnus import Presentation

    # weight-3 commutator relators at p = 2: 3 is not a 2-power
    for c in hall_basis(3, 3):
        word = hall_to_group_word(c)
        Q = Presentation(2, tuple(NAMES[3]), (1, 1, 1), (("r", word),))
        assert bn_map(massey_tensor(Q, 3)) == [[0, 0, 0]]
    # a weight-6 bracket at p = 5
    w6 = hall_to_group_word(hall_basis(2, 6)[0])
    Q = Presentation(5, tuple(NAMES[2]), (1, 1), (("r", w6),))
    assert zassenhaus_invariant(Q, 7) == 6
    assert bn_map(massey_tensor(Q, 6)) == [[0, 0]]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_bn_nonzero_for_pth_power(p):
    P = pres(p, 1, [f"x^{p}"])
    T = massey_tensor(P, p)
    assert bn_map(T) == [[(-1) ** (p - 1) % p]]


def test_bn_demuskin_columns():
    T = massey_tensor(DEMUSKIN_P3, 3)
    assert bn_map(T) == [[1, 1, 0]]


def test_bn_additive():
    rng = random.Random(42)
    T = massey_tensor(DEMUSKIN_P3, 3)
    B = bn_map(T)
    p, d, n = T.p, T.d, T.n
    for _ in range(40):
        chi = [rng.randrange(p) for _ in range(d)]
        psi = [rng.randrange(p) for _ in range(d)]
        s = [(a + b) % p for a, b in zip(chi, psi)]
        direct = massey_value(T, [s] * n)
        additive = [
            (massey_value(T, [chi] * n)[j] + massey_value(T, [psi] * n)[j]) % p
            for j in range(T.m)
        ]
        assert direct == additive
        # and both agree with the matrix
        from_matrix = [sum(B[j][i] * s[i] for i in range(d)) % p for j in range(T.m)]
        assert direct == from_matrix


# -- the decomposition criterion ----------------------------------------------------


def test_check_mild_demuskin_example():
    verdict = check_mild(DEMUSKIN_P3, Decomposition(2, 1))
    assert verdict.status == MILD
    cert = verdict.certificate
    assert cert.n == 3
    assert [m.letters for m in cert.high_terms] == [(1, 3, 3)]
    assert cert.anick.status == PROVEN


def test_check_mild_triple_fails_everywhere():
    for c in (1, 2):
        for subset in itertools.combinations((1, 2, 3), c):
            verdict = check_mild(TRIPLE, subset_decomposition(3, subset, 1))
            assert verdict.status == CRITERION_FAILED
    assert search_mild(TRIPLE).status == CRITERION_FAILED


def test_check_mild_circuit_bipartite():
    D = subset_decomposition(4, (2, 4), 1)
    verdict = check_mild(CIRCUIT, D)
    assert verdict.status == MILD
    highs = verdict.certificate.high_terms
    assert len({m.letters for m in highs}) == 4
    # every high term starts in U (first two transformed letters) and ends in V
    for m in highs:
        assert m.letters[0] <= 2 < m.letters[1]


def test_check_mild_free_presentation():
    P = pres(2, 2, [])
    assert check_mild(P, Decomposition(1, 1)).status == NOT_APPLICABLE


def test_check_mild_validates_decomposition():
    with pytest.raises(ValueError):
        check_mild(DEMUSKIN_P3, Decomposition(3, 1))
    with pytest.raises(ValueError):
        check_mild(DEMUSKIN_P3, Decomposition(2, 3))
    singular = ((1, 0, 0), (1, 0, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        check_mild(DEMUSKIN_P3, Decomposition(2, 1, singular))


def test_check_mild_certificate_is_oracle_consistent():
    # the certificate's reduced forms must stay consistent with the series
    # oracle and prove out under the high-term criterion
    for P, D in [
        (DEMUSKIN_P3, Decomposition(2, 1)),
        (CIRCUIT, subset_decomposition(4, (2, 4), 1)),
    ]:
        verdict = check_mild(P, D)
        assert verdict.status == MILD
        forms = list(verdict.certificate.initial_forms)
        ctx = forms[0].ctx
        order = UOrder(frozenset(range(1, D.c + 1)), ctx.tau)
        assert anick_check(forms, order).status == PROVEN
        assert strongly_free_oracle(ctx, forms, 8).status == CONSISTENT


def test_search_mild_demuskin_finds_identity_split():
    verdict = search_mild(DEMUSKIN_P3)
    assert verdict.status == MILD
    D = verdict.certificate.decomposition
    assert D == Decomposition(2, 1) == subset_decomposition(3, (1, 2), 1)


def test_search_mild_circuit():
    assert search_mild(CIRCUIT).status == MILD


def test_verdicts_are_frozen():
    verdict = search_mild(CIRCUIT)
    assert verdict.reason == "found by search: U = span(1, 3), e = 1"
    with pytest.raises(FrozenInstanceError):
        verdict.reason = ""
    with pytest.raises(FrozenInstanceError):
        verdict.certificate.notes = ""


# The envelope serializers of the six Record types as they were written out
# by hand, one per type: the reference that Record.as_dict must reproduce.

def _ref_certificate(c, names):
    return {"order": c.order, "high_terms": [m.format(names) for m in c.high_terms]}


def _ref_freeness(v, names):
    out = {"status": v.status, "engine": v.engine}
    if v.degree is not None:
        out["degree"] = v.degree
    if v.at_degree is not None:
        out["at_degree"] = v.at_degree
    if v.witness_coefficient is not None:
        out["witness_coefficient"] = v.witness_coefficient
    if v.certificate is not None:
        out["certificate"] = _ref_certificate(v.certificate, names)
    if v.detail:
        out["detail"] = v.detail
    return out


def _ref_admissibility(r):
    out = {"status": r.status, "degree": r.degree}
    if r.at_degree is not None:
        out["at_degree"] = r.at_degree
        out["coefficient"] = r.coefficient
    return out


def _ref_decomposition(D):
    out = {"c": D.c, "e": D.e}
    if D.matrix is not None:
        out["matrix"] = [list(row) for row in D.matrix]
    return out


def _ref_mild_certificate(c, names):
    return {
        "n": c.n,
        "order": c.order,
        "decomposition": _ref_decomposition(c.decomposition),
        "initial_forms": [f.format(names) for f in c.initial_forms],
        "high_terms": [m.format(names) for m in c.high_terms],
        "anick": _ref_freeness(c.anick, names),
        "notes": c.notes,
    }


def _ref_mild(v, names):
    out = {"status": v.status}
    if v.reason:
        out["reason"] = v.reason
    if v.certificate is not None:
        out["certificate"] = _ref_mild_certificate(v.certificate, names)
    return out


def test_records_serialize_as_the_hand_written_envelopes():
    ctx = Context(3, 2)
    highs = (ctx.monomial((2, 1)), ctx.monomial((1, 1, 2)))
    certs = [FreenessCertificate("deglex", highs), FreenessCertificate("deglex, X2 > X1", ())]
    verdicts = [
        FreenessVerdict(PROVEN, "anick", certificate=certs[0]),
        FreenessVerdict(CONSISTENT, "anick", degree=0, detail="inconclusive"),
        FreenessVerdict(REFUTED, "oracle", at_degree=0, witness_coefficient=0, certificate=certs[1]),
        FreenessVerdict(CONSISTENT, "oracle", degree=7, detail=""),
    ]
    admissibility = [
        AdmissibilityResult(ADMISSIBLE, 0),
        AdmissibilityResult(INADMISSIBLE, 6, 0, -2),
        AdmissibilityResult(INADMISSIBLE, 6, 4, 0),
    ]
    decompositions = [Decomposition(1, 0), Decomposition(0, 1, ((0, 1), (1, 0))), Decomposition(2, 2, ())]
    forms = (ctx.poly([((1, 2), 1), ((2, 1), -1)]), ctx.poly([((1, 1), 2)]), ctx.poly([]))
    mild_certs = [
        MildCertificate(2, "U-order", D, forms[: len(D.matrix or ())], highs[:1], v, "notes")
        for D, v in zip(decompositions, verdicts)
    ]
    mild = [MildVerdict(MILD, "found", mild_certs[0]), MildVerdict(CRITERION_FAILED, ""),
            MildVerdict(NOT_APPLICABLE, "", mild_certs[1]), MildVerdict(MILD, "", mild_certs[2])]
    for names in (None, ["a", "b"]):
        for c in certs:
            assert c.as_dict(names) == _ref_certificate(c, names)
        for v in verdicts:
            assert v.as_dict(names) == _ref_freeness(v, names)
        for c in mild_certs:
            assert c.as_dict(names) == _ref_mild_certificate(c, names)
        for v in mild:
            assert v.as_dict(names) == _ref_mild(v, names)
    for r in admissibility:
        assert r.as_dict() == _ref_admissibility(r)
    for D in decompositions:
        assert D.as_dict() == _ref_decomposition(D)
    # key order is part of the envelope
    assert list(verdicts[2].as_dict()) == ["status", "engine", "at_degree", "witness_coefficient", "certificate"]
    assert list(mild_certs[0].as_dict()) == [
        "n", "order", "decomposition", "initial_forms", "high_terms", "anick", "notes"]
    # the departure: fields the hand-written serializers always wrote, such
    # as an empty note or order, are left out like every other "" field
    assert "notes" not in replace(mild_certs[0], notes="").as_dict()
    assert FreenessCertificate("", ()).as_dict() == {"high_terms": []}


def test_search_mild_free():
    assert search_mild(pres(3, 2, [])).status == NOT_APPLICABLE


def test_search_mild_budget():
    with pytest.raises(BudgetError):
        search_mild(CIRCUIT, max_cases=3)


def test_search_mild_counts_its_cases_before_building_them():
    # (2^40 - 2)(n - 1) coordinate subsets: refused before any is built
    names = [f"x{i}" for i in range(1, 41)]
    P = make_presentation(2, names, [("r", "x1^2 [x1, x2] [x39, x40]")])
    started = time.perf_counter()
    with pytest.raises(BudgetError, match=f"^{2**40 - 2} decompositions exceed the search budget 4096$"):
        search_mild(P)
    assert time.perf_counter() - started < 1.0


def test_precision_error_when_z_unknown():
    P = pres(2, 2, ["x1 x1^-1"])
    with pytest.raises(PrecisionError):
        check_mild(P, Decomposition(1, 1))


# -- one-relator reports ---------------------------------------------------------


def test_one_relator_commutator_p2():
    P = pres(2, 2, ["[x1, x2]"])
    report = one_relator_verdict(P)
    assert report.z == 2
    assert report.coprime is False
    assert report.status == "mild"
    assert any("Lie polynomial" in r for r in report.routes)
    lie_rec = next(m for m in report.memberships if m.tau == (1, 1))
    assert lie_rec.is_lie


def test_one_relator_coprime_route():
    P = pres(2, 3, ["[[x1, x2], x3]"])
    report = one_relator_verdict(P)
    assert report.z == 3
    assert report.coprime is True
    assert report.status == "mild"


def test_one_relator_pth_power_flags():
    P = pres(3, 1, ["x^3"])
    report = one_relator_verdict(P)
    assert report.status == "finite"
    assert report.split is not None
    assert [(e.format(p=3), c) for e, c in report.split.power_part] == [("X1^3", 1)]
    assert report.split.lie_part == []


def test_one_relator_bp_kernel_when_z_equals_p():
    report = one_relator_verdict(DEMUSKIN_P3)
    assert report.z == 3 == DEMUSKIN_P3.p
    assert report.bp_matrix == [[1, 1, 0]]
    assert report.bp_kernel is not None and len(report.bp_kernel) == 2


def test_one_relator_requires_single_relator():
    with pytest.raises(ValueError):
        one_relator_verdict(CIRCUIT)


def test_one_relator_weighted_route():
    # x1^2 x2^4 at p = 2: inconclusive at tau = (1,1) but the weighted
    # initial form X1^2 + X2^4 is not Lie either; the tau = (2,1) strong
    # freeness is the oracle's business, checked elsewhere
    P = pres(2, 2, ["x1^2 x2^4"])
    report = one_relator_verdict(P, extra_taus=[(2, 1)])
    assert report.z == 2
    weighted = next(m for m in report.memberships if m.tau == (2, 1))
    assert weighted.valuation == 4
    assert weighted.is_lie is False


def test_one_relator_unknown_below_the_cutoff():
    report = one_relator_verdict(pres(2, 2, ["[[x1, x2], x2]"]), cutoff=2)
    assert report.status == "unknown"
    assert report.z is None
    assert report.routes == [] and report.memberships == []
    assert report.notes == "relator trivial to degree 2; raise the cutoff"


def test_one_relator_membership_at_the_presentation_weights():
    # weights (2, 1) add a row after the unweighted one, then the extra tau
    P = pres(2, 2, ["[x1, x2] x2^4"], tau=(2, 1))
    report = one_relator_verdict(P, extra_taus=[(1, 2)])
    assert [m.tau for m in report.memberships] == [(1, 1), (2, 1), (1, 2)]
    flat, weighted, extra = report.memberships
    assert (flat.valuation, flat.is_lie) == (2, True)
    assert (weighted.valuation, weighted.is_lie) == (3, True)
    assert (extra.valuation, extra.is_lie) == (3, True)
    assert report.status == "mild"


# -- Demuškin type ----------------------------------------------------------------


def test_demuskin_type_example():
    report = demuskin_type(DEMUSKIN_P3)
    assert report.is_type
    assert report.n == 3


def test_demuskin_type_witness_failure():
    P = pres(2, 3, ["[x1, x2]"])
    report = demuskin_type(P)
    assert not report.is_type
    assert report.witness == (0, 0, 1)


def test_demuskin_type_single_generator():
    for p in (2, 3):
        P = pres(p, 1, [f"x^{p}"])
        assert demuskin_type(P).is_type


def test_demuskin_type_budget():
    with pytest.raises(BudgetError):
        demuskin_type(DEMUSKIN_P3, budget=10)


def test_demuskin_mildness_example():
    verdict = demuskin_mildness(DEMUSKIN_P3)
    assert verdict.status == MILD
    assert verdict.certificate.decomposition.e == 1
    assert verdict.certificate.decomposition.c == 2
    # demuskin gives the type report and the same verdict together
    report, both = demuskin(DEMUSKIN_P3)
    assert report == demuskin_type(DEMUSKIN_P3)
    assert both.as_dict() == verdict.as_dict()


def test_demuskin_mildness_finite_cyclic():
    for p, k in [(2, 1), (3, 1), (2, 2)]:
        P = pres(p, 1, [f"x^{p ** k}"])
        verdict = demuskin_mildness(P)
        assert verdict.status == NOT_APPLICABLE
        assert f"Z/{p ** k}" in verdict.reason


def test_demuskin_mildness_rank2_cup():
    P = pres(2, 2, ["x1^2 [x1, x2]"])
    assert demuskin_type(P).is_type
    verdict = demuskin_mildness(P)
    assert verdict.status == MILD


def test_demuskin_mildness_not_applicable():
    P = pres(2, 3, ["[x1, x2]"])
    verdict = demuskin_mildness(P)
    assert verdict.status == NOT_APPLICABLE
    assert "not of Demuškin type" in verdict.reason


# -- basis-change invariance -------------------------------------------------------


def test_verdicts_invariant_under_letter_permutations():
    rng = random.Random(43)
    base_relators = ["x1^3 x2^3 [[x1, x3], x3]"]
    P = DEMUSKIN_P3
    for _ in range(5):
        perm = list(range(1, 4))
        rng.shuffle(perm)
        images = [GroupWord((Gen(i),)) for i in perm]
        relators = tuple(
            (name, substitute(w, images)) for name, w in P.relators
        )
        Q = Presentation(P.p, P.names, P.tau, relators)
        assert zassenhaus_invariant(Q, 8) == zassenhaus_invariant(P, 8)
        assert search_mild(Q).status == search_mild(P).status
        assert demuskin_type(Q).is_type == demuskin_type(P).is_type


# -- one expansion per relator -------------------------------------------------------


@pytest.fixture
def expand_calls(monkeypatch):
    """(word, context, cutoff) of every expansion computed below expand's
    memo, which starts empty."""
    return count_expansions(monkeypatch)


@pytest.mark.parametrize(
    "P, run",
    [
        (CIRCUIT, search_mild),
        (CIRCUIT, lambda P: check_mild(P, subset_decomposition(4, (2, 4), 1))),
        (DEMUSKIN_P3, demuskin_mildness),
    ],
    ids=["search_mild", "check_mild", "demuskin_mildness"],
)
def test_verdict_expands_each_relator_once(expand_calls, P, run):
    assert run(P).status == MILD
    assert len(expand_calls) == P.m


def test_one_relator_expands_once_per_weight_vector(expand_calls):
    taus = [(2, 1, 1), (1, 1, 1), (2, 1, 1)]
    one_relator_verdict(DEMUSKIN_P3, extra_taus=taus)
    assert demuskin(DEMUSKIN_P3, 8)[1].status == MILD
    assert [(ctx.tau, cutoff) for _, ctx, cutoff in expand_calls] == [
        ((1, 1, 1), 8),
        ((2, 1, 1), 16),
    ]


def test_demuskin_command_reads_one_tensor(expand_calls, capsys):
    # the type report and the mildness verdict share one expansion
    code = cli_main(["demuskin", str(PRES / "demuskin_p3.pres"), "--cutoff", "8", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == MILD
    assert [cutoff for _, _, cutoff in expand_calls if cutoff == 8] == [8]


# -- search and direct check agree ---------------------------------------------------


@st.composite
def presentations(draw):
    """p in {2, 3, 5}, 2 <= d <= 4, one or two relators, each a product of
    p-th powers of generators and commutators nested up to depth 3."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(2, 4))
    gen = st.integers(1, d).map(lambda i: f"x{i}")

    def bracket(inner):
        return st.tuples(inner, inner).map(lambda ab: f"[{ab[0]}, {ab[1]}]")

    comm = bracket(st.recursive(gen, bracket, max_leaves=2))
    power = gen.map(lambda x: f"{x}^{p}")
    relator = st.lists(st.one_of(power, comm), min_size=1, max_size=3).map(" ".join)
    relators = draw(st.lists(relator, min_size=1, max_size=2))
    return pres(p, d, relators)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(presentations())
def test_search_certificate_matches_direct_check(P):
    assume(zassenhaus_invariant(P, 8) is not None)
    verdict = search_mild(P)
    if verdict.is_mild:
        direct = check_mild(P, verdict.certificate.decomposition)
        assert direct.is_mild
        assert direct.certificate.as_dict(P.names) == verdict.certificate.as_dict(P.names)



def test_search_through_a_supplied_basis_change_matches_direct_check():
    # at p = 2 no coordinate subset decomposes x1^2 x2^2, but the dual basis
    # chi'_1 = chi_1, chi'_2 = chi_1 + chi_2 does
    P = pres(2, 2, ["x1^2 x2^2"])
    M = ((1, 0), (1, 1))
    assert search_mild(P).status == CRITERION_FAILED
    verdict = search_mild(P, matrices=[M])
    assert verdict.is_mild
    assert verdict.reason == "found by search: user matrix"
    D = verdict.certificate.decomposition
    assert D == Decomposition(1, 1, M)
    direct = check_mild(P, Decomposition(D.c, D.e, M))
    assert direct.status == verdict.status
    assert direct.certificate.as_dict(P.names) == verdict.certificate.as_dict(P.names)


def test_witness_does_not_depend_on_how_the_relator_is_written():
    # [x2, x3] written as a commutator and as the product it stands for: the
    # two expansions produce their terms in different orders
    for text in ("[x2, x3]", "x2^-1 x3^-1 x2 x3"):
        verdict = check_mild(pres(2, 3, ["[x1, x2]", text]), Decomposition(1, 1))
        assert verdict.status == CRITERION_FAILED
        assert verdict.reason == (
            "condition (a) fails: relator r2 has a nonzero product on tuple (3, 2) with >= 2 entries in V"
        )


# -- the expansion memo: shared, read only, one computation per key ---------------------


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(presentations())
def test_verdicts_leave_the_shared_expansions_unchanged(P):
    assume(zassenhaus_invariant(P, 8) is not None)
    ctx = P.context()
    shared = [expand(w, ctx, 8) for w in P.relator_words()]
    search_mild(P)
    if P.m == 1:
        demuskin_mildness(P)
        one_relator_verdict(P)
    for w, e in zip(P.relator_words(), shared):
        if e.valuation is not None:
            initial_form(w, ctx, 8)
        assert expand(w, ctx, 8) is e
        assert e == _expansion.__wrapped__(w, ctx, 8)
        assert e.poly == reference_expand(w, ctx, 8)


def test_readme_library_sequence_computes_each_expansion_once(expand_calls):
    P = make_presentation(3, ["x1", "x2", "x3"], [("r", "x1^3 x2^3 [[x1, x3], x3]")])
    verdict = search_mild(P)
    ctx = P.context()
    form = initial_form(P.relators[0][1], ctx, 8)
    strongly_free_oracle(ctx, [form], 12)
    assert verdict.is_mild
    keys = [(w, c.tau, cutoff) for w, c, cutoff in expand_calls]
    assert keys == [
        (P.relators[0][1], (1, 1, 1), 1),
        (P.relators[0][1], (1, 1, 1), 8),
    ]


# -- verdicts under the commutator convention and letter permutations ----------------


def _opposite_convention(w: GroupWord) -> GroupWord:
    """w with every commutator [a, b] written [a^-1, b^-1], which is a b a^-1 b^-1:
    the opposite convention."""
    def atom(a):
        if isinstance(a, Commutator):
            left, right = (_opposite_convention(x).inverse() for x in (a.left, a.right))
            return replace(a, left=left, right=right)
        if isinstance(a, Sub):
            return replace(a, word=_opposite_convention(a.word))
        return a

    return GroupWord(tuple(atom(a) for a in w.factors))


def _statuses(P):
    """The search_mild status and, for one relator, the demuskin_mildness status."""
    out = [search_mild(P).status]
    if P.m == 1:
        out.append(demuskin_mildness(P).status)
    return out


def _rewritten(P, rewrite):
    return Presentation(P.p, P.names, P.tau, tuple((name, rewrite(w)) for name, w in P.relators))


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(presentations())
def test_verdicts_invariant_under_the_opposite_commutator_convention(P):
    assume(zassenhaus_invariant(P, 8) is not None)
    assert _statuses(_rewritten(P, _opposite_convention)) == _statuses(P)


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(presentations(), st.data())
def test_verdicts_invariant_under_letter_permutations_property(P, data):
    assume(zassenhaus_invariant(P, 8) is not None)
    perm = data.draw(st.permutations(range(1, P.d + 1)))
    images = [GroupWord((Gen(i),)) for i in perm]
    assert _statuses(_rewritten(P, lambda w: substitute(w, images))) == _statuses(P)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(presentations())
def test_verdicts_invariant_under_relator_inversion(P):
    assume(zassenhaus_invariant(P, 8) is not None)
    assert _statuses(_rewritten(P, GroupWord.inverse)) == _statuses(P)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(presentations(), st.data())
def test_verdicts_invariant_under_conjugation_by_a_generator_power(P, data):
    # g^-k w g^k: the expansion changes past degree z(G), the initial forms do not
    assume(zassenhaus_invariant(P, 8) is not None)
    g = data.draw(st.integers(1, P.d))
    k = data.draw(st.sampled_from([1, -1, 2, -2]))
    power = GroupWord((Gen(g, k),))
    assert _statuses(_rewritten(P, lambda w: power.inverse() * w * power)) == _statuses(P)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(presentations(), st.data())
def test_verdicts_invariant_under_inverting_a_generator(P, data):
    # x_i -> x_i^-1 acts on the graded pieces as X_i -> -X_i, a diagonal basis change
    assume(zassenhaus_invariant(P, 8) is not None)
    i = data.draw(st.integers(1, P.d))
    images = [GroupWord((Gen(j, -1 if j == i else 1),)) for j in range(1, P.d + 1)]
    assert _statuses(_rewritten(P, lambda w: substitute(w, images))) == _statuses(P)
