import itertools
import json
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, note, settings

from conftest import SEEDS, Seeded, count_expansions, load_worker
from mildkit.cli import DEFAULT_BUDGET, main as cli_main
from mildkit.errors import BudgetError, PrecisionError
from mildkit.algebra import Context, Monomial, Poly
from mildkit.freeness import (
    ADMISSIBLE, INADMISSIBLE, PROVEN, CONSISTENT, REFUTED, AdmissibilityResult, FreenessCertificate,
    FreenessVerdict, anick_check, strongly_free_oracle,
)
from mildkit import lie, massey
from mildkit.lie import (
    NotInRestrictedLieError, RestrictedBasisElement, expand_to_assoc, hall_basis, hall_to_group_word,
    lie_membership, p_power_commutator_split, restricted_basis,
)
from mildkit.magnus import (
    Commutator, GroupWord, Gen, Presentation, Sub, _expansion, expand, initial_form, leading_expansions,
    load_presentation, make_presentation, substitute,
)
from mildkit.massey import (
    CRITERION_FAILED,
    MILD,
    NOT_APPLICABLE,
    Decomposition,
    MasseyTensor,
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
from mildkit.linalg import RowReducer, is_invertible
from mildkit.orders import UOrder, high_term
from reference_magnus import reference_expand

PRES = Path(__file__).resolve().parent.parent / "presentations"

NAMES = {1: ["x"], **{d: [f"x{i}" for i in range(1, d + 1)] for d in range(2, 6)}}


def pres(p, d, relators, tau=None):
    return make_presentation(p, NAMES[d], [(f"r{k + 1}", t) for k, t in enumerate(relators)], tau)


def first_probe_at(z: int) -> int:
    """The first of the probe cutoffs 2, 4, 8, ... at or past z."""
    c = 2
    while c < z:
        c *= 2
    return c


def assert_probed(computed, z):
    """No (word, context, cutoff) key is computed twice, and none lies past
    the first probe cutoff at or past z."""
    assert len(set(computed)) == len(computed)
    assert max(cutoff for *_, cutoff in computed) <= first_probe_at(z)


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
    original = Presentation.leading_expansions

    def leading_expansions(self, cutoff):
        reads.append(cutoff)
        return original(self, cutoff)

    computed = count_expansions(monkeypatch)
    monkeypatch.setattr(Presentation, "leading_expansions", leading_expansions)
    T = massey_tensor(DEMUSKIN_P3)  # the documented default cutoff is 8
    assert reads == [8]
    # z = 3: the probe expands at 2, where nothing shows, and stops at 4
    assert [cutoff for *_, cutoff in computed] == [2, 4]
    assert_probed(computed, 3)
    assert T == massey_tensor(DEMUSKIN_P3, zassenhaus_invariant(DEMUSKIN_P3, 8), 8)
    with pytest.raises(PrecisionError, match="every relator expands to 1 up to degree 8"):
        massey_tensor(pres(2, 2, ["x1 x1^-1"]))


def test_tensor_of_a_free_presentation_needs_an_n():
    # no relators: z(G) is infinite, not unknown at the cutoff
    free = pres(3, 2, [])
    with pytest.raises(ValueError, match="free presentation"):
        massey_tensor(free)
    assert massey_tensor(free, 3).values == ()


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


# a left-normed commutator of length 8 on five letters: 5^8 = 390,625 tuples
LENGTH8 = pres(2, 5, ["[[[[[[[x1, x2], x3], x4], x5], x1], x2], x3]"])


def test_shuffles_pass_on_real_tensors():
    for P in (DEMUSKIN_P3, CIRCUIT, TRIPLE, LENGTH8):
        n = zassenhaus_invariant(P, 8)
        T = massey_tensor(P, n)
        for a in range(1, n):
            report = check_shuffles(T, a, n - a)
            assert report.ok
            assert report.checked == P.d**n  # every tuple, no sample
    assert n == 8 and report.checked == 5**8


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


def dense_shuffle_violations(T, a):
    """The violations of the (a, n - a)-shuffle identities found by walking
    all d^n tuples u + v in order, summing the entries at each shuffle of u
    into v."""
    out = []
    for name, vals in zip(T.relator_names, T.values):
        for index in itertools.product(range(1, T.d + 1), repeat=T.n):
            total = 0
            for S in itertools.combinations(range(T.n), a):
                u, v = iter(index[:a]), iter(index[a:])
                total += vals.get(tuple(next(u) if k in S else next(v) for k in range(T.n)), 0)
            if total % T.p:
                out.append((name, index))
    return out


def test_shuffles_equal_a_dense_enumeration():
    tensors = [massey_tensor(P) for P in (DEMUSKIN_P3, CIRCUIT, TRIPLE, load_presentation(PRES / "length5_p7.pres"))]
    # corrupted copies: entries changed, added and dropped at random,
    # across one and two relators
    rng = random.Random(0)
    for T in tensors[:]:
        for _ in range(10):
            values = []
            for vals in T.values + T.values[:1]:
                vals = dict(vals)
                for _ in range(rng.randint(1, 3)):
                    key = tuple(rng.randint(1, T.d) for _ in range(T.n))
                    vals[key] = rng.randrange(T.p)
                for key in rng.sample(sorted(vals), min(len(vals), rng.randint(0, 2))):
                    del vals[key]
                values.append(vals)
            tensors.append(MasseyTensor(T.p, T.d, T.n, tuple(f"r{j}" for j in range(len(values))), tuple(values)))
    # every entry 1 mod 5: each tuple's three shuffles sum to 3, for either split
    ones = {i: 1 for i in itertools.product(range(1, 5), repeat=3)}
    tensors.append(MasseyTensor(5, 4, 3, ("r",), (ones,)))
    failing = []
    for T in tensors:
        reports = [check_shuffles(T, a, T.n - a) for a in range(1, T.n)]
        for a, report in enumerate(reports, 1):
            assert report.checked == T.d**T.n
            assert report.violations == dense_shuffle_violations(T, a)
        failing.append(not all(r.ok for r in reports))
    assert [len(r.violations) for r in reports] == [64, 64]  # the all-ones tensor
    # the real tensors pass, and most corruptions break an identity, so the
    # comparison above is not between empty lists
    assert not any(failing[:4]) and sum(failing) > len(failing) / 2


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS)
def test_shuffles_vanish_exactly_on_restricted_lie_forms(seed):
    # in characteristic p the primitive elements of the free associative
    # algebra are the free restricted Lie algebra (Friedrichs' criterion in
    # Jacobson's form), so the shuffle check over every split and the
    # p-power/commutator split decide the same thing by two engines.  A
    # product of two restricted Lie elements of degrees >= 2 is not Lie, yet
    # every word count of its coproduct vanishes: a check that reads only
    # the S side of each split passes it.
    rng = Seeded(seed)
    kind = rng.choice(("restricted", "stray", "random", "product"))
    p, d, n = rng.choice((2, 3, 5)), rng.randint(1, 3), rng.randint(4 if kind == "product" else 2, 6)
    ctx = Context(p, d)

    def combination(n):
        basis = restricted_basis(d, n, p)
        return sum((rng.randint(1, p - 1) * expand_to_assoc(e, ctx)
                    for e in rng.sample(basis, min(len(basis), rng.randint(1, 3)))), ctx.zero())

    def monomial():
        return ctx.poly([(tuple(rng.randint(1, d) for _ in range(n)), rng.randint(1, p - 1))])

    if kind == "product":
        k = rng.randint(2, n - 2)
        f = combination(k) * combination(n - k)
    elif kind == "random":
        f = sum((monomial() for _ in range(rng.randint(1, 6))), ctx.zero())
    else:
        f = combination(n) + (monomial() if kind == "stray" else ctx.zero())
    note(f"p = {p}, {kind}: {f}")
    assume(not f.is_zero)
    T = MasseyTensor(p, d, n, ("r",), ({m.letters: c for m, c in f.terms.items()},))
    try:
        p_power_commutator_split(f, n)
        splits = True
    except NotInRestrictedLieError:
        splits = False
    assert all(check_shuffles(T, a, n - a).ok for a in range(1, n)) == splits


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


def test_check_mild_refuses_a_basis_change_of_the_wrong_size():
    # d = 3: a 2 x 2 identity would index past its rows, and a 4 x 4 one
    # would be read off its leading 3 x 3 block; both are invertible
    for size in (2, 4):
        identity = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
        with pytest.raises(ValueError, match=f"^basis-change matrix has {size} rows, need d = 3$"):
            check_mild(DEMUSKIN_P3, Decomposition(2, 1, identity))


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
    with pytest.raises(AttributeError):
        verdict.reason = ""
    with pytest.raises(AttributeError):
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
    assert "notes" not in mild_certs[0].replace(notes="").as_dict()
    assert FreenessCertificate("", ()).as_dict() == {"high_terms": []}


def test_search_mild_free():
    assert search_mild(pres(3, 2, [])).status == NOT_APPLICABLE


def test_search_mild_counts_its_cases_before_building_them():
    # (2^40 - 2)(n - 1) coordinate subsets: refused before any is built
    names = [f"x{i}" for i in range(1, 41)]
    P = make_presentation(2, names, [("r", "x1^2 [x1, x2] [x39, x40]")])
    started = time.perf_counter()
    with pytest.raises(BudgetError, match=f"^{2**40 - 2} decompositions exceed the search budget 4096$"):
        search_mild(P)
    assert time.perf_counter() - started < 1.0


# two relators of valuation 8 over six letters: 256 tensor terms, and a
# block over U^e x V^(8-e) of up to 5^7 = 78,125 multi-indices
SIX = make_presentation(3, [f"x{i}" for i in range(1, 7)], [
    ("r", "[[[x1, x2], [x3, x4]], [[x1, x3], [x2, x4]]]"),
    ("s", "[[[x5, x6], [x3, x4]], [[x5, x3], [x6, x4]]]"),
])


def test_search_reads_each_block_off_the_tensor(monkeypatch):
    # every decision sorts at most the tensor's keys under the subset order,
    # never the whole U^e x V^(n-e)
    terms = sum(len(vals) for vals in massey_tensor(SIX).values)
    keys, per_decision = [0], []
    key, decide = UOrder.key, massey._decide

    def counted_key(order, m):
        keys[0] += 1
        return key(order, m)

    def counted_decide(T, D):
        before = keys[0]
        verdict = decide(T, D)
        per_decision.append(keys[0] - before)
        return verdict

    monkeypatch.setattr(UOrder, "key", counted_key)
    monkeypatch.setattr(massey, "_decide", counted_decide)
    verdict = search_mild(SIX)
    assert verdict.status == CRITERION_FAILED
    assert verdict.reason == "criterion failed for all 434 searched decompositions"
    assert terms == 256 and len(per_decision) == 56
    assert max(per_decision) <= terms


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
    "P, run, cutoffs",
    [
        (CIRCUIT, search_mild, [2]),
        (CIRCUIT, lambda P: check_mild(P, subset_decomposition(4, (2, 4), 1)), [2]),
        # z = 3: nothing shows at 2
        (DEMUSKIN_P3, demuskin_mildness, [2, 4]),
    ],
    ids=["search_mild", "check_mild", "demuskin_mildness"],
)
def test_verdict_expands_each_relator_once(expand_calls, P, run, cutoffs):
    assert run(P).status == MILD
    assert [(w, cutoff) for w, _, cutoff in expand_calls] == [
        (w, cutoff) for cutoff in cutoffs for w in P.relator_words()
    ]
    assert_probed(expand_calls, zassenhaus_invariant(P, 8))


def test_one_relator_expands_once_per_weight_vector(expand_calls):
    taus = [(2, 1, 1), (1, 1, 1), (2, 1, 1)]
    one_relator_verdict(DEMUSKIN_P3, extra_taus=taus)
    assert demuskin(DEMUSKIN_P3, 8)[1].status == MILD
    # the weighted valuation at (2, 1, 1) is 3 as well, from X2^3
    assert [(ctx.tau, cutoff) for _, ctx, cutoff in expand_calls] == [
        ((1, 1, 1), 2),
        ((1, 1, 1), 4),
        ((2, 1, 1), 2),
        ((2, 1, 1), 4),
    ]
    assert_probed(expand_calls, 3)


def test_one_relator_splits_each_form_once_over_its_contents(monkeypatch):
    # z = 7 over four letters: the restricted basis of degree 7 has 2,340
    # elements, of which only those with the letters of a term of the form
    # are expanded, once per weight vector and by the split alone
    P = pres(3, 4, ["[[(x1), [x2, x1]^-1], [[x2^-1, x1], [x4, x3^-1]^-1]]"])
    taus = [(1, 1, 1, 1), (1, 1, 1, 2)]
    forms = [initial_form(P.relator_words()[0], P.context(tau), 8 * max(tau)) for tau in taus]

    def letters(e):
        return tuple(sorted([int(k) for k in re.findall(r"\d+", e.base.format())] * 3**e.p_exp))

    bases = [restricted_basis(4, f.tau_valuation(), 3, tau) for f, tau in zip(forms, taus)]
    expected = [e for f, basis in zip(forms, bases) for e in basis
                if letters(e) in {tuple(sorted(m.letters)) for m in f.terms}]
    split, expand_element = lie.p_power_commutator_split, lie.expand_to_assoc
    splits, expanded = [], []

    def counted_split(f, n):
        splits.append((f, n, split(f, n)))
        return splits[-1][2]

    def counted_expand(elem, ctx):
        if isinstance(elem, RestrictedBasisElement):  # not the subtrees it recurses into
            expanded.append(elem)
        return expand_element(elem, ctx)

    def membership(f, n):
        raise AssertionError("lie_membership ran")

    monkeypatch.setattr(massey, "p_power_commutator_split", counted_split)
    monkeypatch.setattr(lie, "expand_to_assoc", counted_expand)
    for module in (lie, massey):
        monkeypatch.setattr(module, "lie_membership", membership, raising=False)
    report = one_relator_verdict(P, extra_taus=taus[1:])
    assert report.z == 7 and report.status == MILD
    assert [(f, n) for f, n, _ in splits] == [(f, f.tau_valuation()) for f in forms]
    assert report.split is splits[0][2]
    assert expanded == expected and 0 < len(expanded) < len(bases[0]) // 10
    monkeypatch.undo()
    coordinates = [lie_membership(f, f.tau_valuation()) for f in forms]
    assert [(m.tau, m.is_lie, m.coordinates) for m in report.memberships] == [
        (tau, c is not None, c) for tau, c in zip(taus, coordinates)
    ]


def test_one_relator_splits_a_weighted_form_of_valuation_18_at_once():
    # at weights (3, 3, 1, 3) the initial form has valuation 18, and every
    # Hall commutator over four letters to weight 18 numbers about 5·10^9;
    # the commutators of the form's own letter contents are a few
    for p in (2, 3):
        P = pres(p, 4, ["[[[x4, x2]^-1, x4^-1]^-1, [x2^-1, [x2^-1, x1]^-1]^-1]"])
        start = time.perf_counter()
        report = one_relator_verdict(P, extra_taus=[(3, 3, 1, 3)])
        assert time.perf_counter() - start < 1
        weighted = report.memberships[1]
        assert (weighted.tau, weighted.valuation, weighted.is_lie) == ((3, 3, 1, 3), 18, True)
        assert report.status == MILD


def test_demuskin_command_reads_one_tensor(expand_calls, capsys):
    # the type report and the mildness verdict share one probe, whose first
    # key the minimality check computed while loading the presentation
    code = cli_main(["demuskin", str(PRES / "demuskin_p3.pres"), "--cutoff", "8", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == MILD
    assert [cutoff for _, _, cutoff in expand_calls] == [2, 4]
    assert_probed(expand_calls, 3)


def test_a_sweep_pass_expands_nothing_past_cutoff_4(monkeypatch):
    # the benchmark's verdict pipeline on every sweep presentation of seed 1;
    # each relator there has valuation 2 or 3, so no probe goes past 4
    worker = load_worker(monkeypatch)
    sweep = [worker.mildkit.cli.parse_presentation_text(t) for t in worker.workloads.sweep_presentations(1)]
    computed = count_expansions(monkeypatch)
    for P in sweep:
        assert worker._verdict_pipeline(P) == []
    assert computed
    assert_probed(computed, 3)


# -- search and direct check agree ---------------------------------------------------


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS)
def test_search_certificate_matches_direct_check(seed):
    P = Seeded(seed).presentation()
    note(P.to_text())
    assume(zassenhaus_invariant(P, 8) is not None)
    verdict = search_mild(P)
    if verdict.is_mild:
        direct = check_mild(P, verdict.certificate.decomposition)
        assert direct.is_mild
        assert direct.certificate.as_dict(P.names) == verdict.certificate.as_dict(P.names)


def dense_decide(P, D):
    """check_mild's verdict with the block over every multi-index of
    U^e x V^(n-e), the columns the tensor holds no entry on included."""
    T = massey_tensor(P)
    if D.matrix is not None:
        T = T.transformed(D.matrix)
    n, d, p, c, e = T.n, T.d, T.p, D.c, D.e
    for name, vals in zip(T.relator_names, T.values):
        for index in vals:
            if sum(i > c for i in index) >= n - e + 1:
                return MildVerdict(CRITERION_FAILED, f"condition (a) fails: relator {name} has a nonzero "
                                   f"product on tuple {index} with >= {n - e + 1} entries in V")
    order = UOrder(frozenset(range(1, c + 1)), (1,) * d)
    block = sorted((Monomial(u + v, n) for u in itertools.product(range(1, c + 1), repeat=e)
                    for v in itertools.product(range(c + 1, d + 1), repeat=n - e)), key=order.key, reverse=True)
    col = {m.letters: k for k, m in enumerate(block)}
    reducer = RowReducer(p)
    for j, vals in enumerate(T.values):
        reducer.add({**{col[i]: v for i, v in vals.items() if i in col}, len(block) + j: 1})
    leads = sorted(lead for lead in reducer.pivots if lead < len(block))
    if len(leads) < T.m:
        return MildVerdict(CRITERION_FAILED, "condition (b) fails: the block over U^e x V^(n-e) has rank "
                           "< m (relators dependent or too deep)")
    ctx = Context(p, d)
    full = [Poly(ctx, {Monomial(i, n): v for i, v in vals.items()}) for vals in T.values]
    forms = []
    for lead in leads:
        poly = ctx.zero()
        for k, t in reducer.pivots[lead].items():
            if k >= len(block):
                poly = poly + full[k - len(block)].scale(t)
        forms.append(poly)
    anick = anick_check(forms, order)
    cert = MildCertificate(n, order.describe(), D, tuple(forms), tuple(high_term(order, f) for f in forms), anick,
                           "forms are the row-reduced degree-n relator coefficients in the transformed letters")
    if not anick.proven:
        return MildVerdict(CRITERION_FAILED, "certificate rebuild failed: high terms not combinatorially free",
                           certificate=cert)
    return MildVerdict(MILD, certificate=cert)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS)
@example(87).via("z = 7 over four letters")
@example(530).via("z = 8")
@example(806).via("z = 7, two relators")
@example(46).via("found at U = span(2,), e = 2")
def test_check_mild_equals_a_dense_block(seed):
    # the block keeps only the tensor's keys over U^e x V^(n-e); the one over
    # every such multi-index must give the same status, reason and
    # certificate.  The search, which decides each subset once, at the one e
    # that conditions (a) and (b) admit, returns the first of these verdicts
    # that is mild.
    P = Seeded(seed).presentation()
    note(P.to_text())
    n = zassenhaus_invariant(P, 8)
    assume(n is not None and n >= 2)
    found = []
    for c in range(1, P.d):
        for s in itertools.combinations(range(1, P.d + 1), c):
            for e in range(1, n):
                D = subset_decomposition(P.d, s, e)
                verdict = check_mild(P, D)
                assert verdict == dense_decide(P, D), D
                if verdict.is_mild:
                    found.append(verdict.replace(reason=f"found by search: U = span{s}, e = {e}"))
    searched = search_mild(P)
    if found:
        assert searched == found[0]
    else:
        assert searched.reason == f"criterion failed for all {(2**P.d - 2) * (n - 1)} searched decompositions"


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS)
@example(87).via("z = 7 over four letters")
@example(530).via("z = 8")
@example(806).via("z = 7, two relators")
def test_transformed_is_the_tensor_of_the_rewritten_relators(seed):
    # at n = z the degree-n part of a relator in new letters is the old one
    # under the linear part of the substitution: a permutation matrix for
    # x_a -> x_perm(a), and -1 on the diagonal for x_i -> x_i^-1
    rng = Seeded(seed)
    P = rng.presentation()
    perm, i = rng.sample(range(1, P.d + 1), P.d), rng.randint(1, P.d)
    note(f"{P.to_text()}permutation {perm}, inverting x{i}")
    n = zassenhaus_invariant(P, 8)
    assume(n is not None and n >= 4)
    T, letters = massey_tensor(P), range(1, P.d + 1)
    permuted = tuple(tuple(int(a == b) for b in perm) for a in letters)
    inverted = tuple(tuple(-1 if a == b == i else int(a == b) for b in letters) for a in letters)
    for images, M in [
        ([GroupWord((Gen(a),)) for a in perm], permuted),
        ([GroupWord((Gen(a, -1 if a == i else 1),)) for a in letters], inverted),
    ]:
        rewritten = _rewritten(P, lambda w: substitute(w, images))
        assert massey_tensor(rewritten).as_dict() == T.transformed(M).as_dict()


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS)
def test_transformed_contracts_with_the_rows_of_a_general_basis_change(seed):
    # chi'_i = sum_a Q[i][a] chi_a, so on every index tuple I the new tensor
    # holds the product on the rows of Q that I names.  Q is invertible with
    # zero entries and any number of nonzero ones per column, where a
    # permutation or a sign change has exactly one
    rng = Seeded(seed)
    P = rng.presentation()
    n = zassenhaus_invariant(P, 8)
    assume(n is not None and P.d**n <= 256)
    p, d, T = P.p, P.d, massey_tensor(P)
    Q = None
    while Q is None or not is_invertible(p, Q) or all(all(row) for row in Q):
        Q = tuple(tuple(rng.choice((0, rng.randint(1, p - 1))) for _ in range(d)) for _ in range(d))
    note(f"{P.to_text()}Q = {Q}")
    transformed = T.transformed(Q)
    for I in itertools.product(range(1, d + 1), repeat=n):
        values = massey_value(T, [Q[i - 1] for i in I])
        assert [transformed.value(j, I) * T.sign % p for j in range(T.m)] == values, I


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS)
def test_a_mild_verdict_never_meets_a_refuted_oracle(seed):
    # G is mild exactly when the initial forms of its relators are strongly
    # free (Labute), so the oracle cannot refute the forms of a mild verdict
    P = Seeded(seed).presentation()
    note(P.to_text())
    assume(zassenhaus_invariant(P, 8) is not None)
    verdict = search_mild(P)
    assume(verdict.is_mild)
    ctx = P.context()
    forms = [initial_form(w, ctx, 8) for w in P.relator_words()]
    z = verdict.certificate.n
    for N in range(z + 2, z - 1, -1):  # the highest degree <= z + 2 within the CLI's budget
        try:
            oracle = strongly_free_oracle(ctx, forms, N, budget=DEFAULT_BUDGET)
            break
        except BudgetError:
            continue
    note(f"oracle to degree {N}")
    assert oracle.status == CONSISTENT


def test_a_basis_change_is_mild_where_the_subset_search_fails():
    # at p = 2 no coordinate subset decomposes x1^2 x2^2, but the dual basis
    # chi'_1 = chi_1, chi'_2 = chi_1 + chi_2 does
    P = pres(2, 2, ["x1^2 x2^2"])
    M = ((1, 0), (1, 1))
    searched = search_mild(P)
    assert searched.status == CRITERION_FAILED
    assert searched.reason == "criterion failed for all 2 searched decompositions"
    verdict = check_mild(P, Decomposition(1, 1, M))
    assert verdict.is_mild
    assert verdict.certificate.decomposition == Decomposition(1, 1, M)


def test_witness_does_not_depend_on_how_the_relator_is_written():
    # [x2, x3] written as a commutator and as the product it stands for: the
    # two expansions produce their terms in different orders
    for text in ("[x2, x3]", "x2^-1 x3^-1 x2 x3"):
        verdict = check_mild(pres(2, 3, ["[x1, x2]", text]), Decomposition(1, 1))
        assert verdict.status == CRITERION_FAILED
        assert verdict.reason == (
            "condition (a) fails: relator r2 has a nonzero product on tuple (3, 2) with >= 2 entries in V"
        )


# -- the probes read what the full cutoff reads --------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS)
def test_probes_read_the_valuation_and_component_of_the_full_cutoff(seed):
    rng = Seeded(seed)
    P, weights, cutoff = rng.presentation(), rng.weights(4), rng.randint(1, 8)
    note(f"{P.to_text()}weights {weights[: P.d]}, cutoff {cutoff}")
    ctx = P.context(weights[: P.d])
    for w in P.relator_words():
        probed, full = leading_expansions([w], ctx, cutoff)[0], expand(w, ctx, cutoff)
        assert probed.cutoff <= cutoff
        assert probed.valuation == full.valuation
        if full.valuation is not None:
            assert probed.component(full.valuation) == full.component(full.valuation)
    full = [expand(w, Context(P.p, P.d), cutoff) for w in P.relator_words()]
    z = min((e.valuation for e in full if e.valuation is not None), default=None)
    probed = P.leading_expansions(cutoff)
    assert min((e.valuation for e in probed if e.valuation is not None), default=None) == z
    assert zassenhaus_invariant(P, cutoff) == z
    if z is not None:
        assert [e.component(z) for e in probed] == [e.component(z) for e in full]


# -- the expansion memo: shared, read only, one computation per key ---------------------


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS)
def test_verdicts_leave_the_shared_expansions_unchanged(seed):
    P = Seeded(seed).presentation()
    note(P.to_text())
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
    # the load's minimality check at 2, which the probe then reads from the
    # memo, and the probe at 4 (z = 3); initial_form reads both again
    assert keys == [
        (P.relators[0][1], (1, 1, 1), 2),
        (P.relators[0][1], (1, 1, 1), 4),
    ]
    assert_probed(expand_calls, 3)


# -- verdicts under the commutator convention and letter permutations ----------------


def _opposite_convention(w: GroupWord) -> GroupWord:
    """w with every commutator [a, b] written [a^-1, b^-1], which is a b a^-1 b^-1:
    the opposite convention."""
    def atom(a):
        if isinstance(a, Commutator):
            left, right = (_opposite_convention(x).inverse() for x in (a.left, a.right))
            return a.replace(left=left, right=right)
        if isinstance(a, Sub):
            return a.replace(word=_opposite_convention(a.word))
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
@given(SEEDS)
def test_verdicts_invariant_under_the_opposite_commutator_convention(seed):
    P = Seeded(seed).presentation()
    note(P.to_text())
    assume(zassenhaus_invariant(P, 8) is not None)
    assert _statuses(_rewritten(P, _opposite_convention)) == _statuses(P)


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS)
def test_verdicts_invariant_under_letter_permutations_property(seed):
    rng = Seeded(seed)
    P = rng.presentation()
    perm = rng.sample(range(1, P.d + 1), P.d)
    note(f"{P.to_text()}permutation {perm}")
    assume(zassenhaus_invariant(P, 8) is not None)
    images = [GroupWord((Gen(i),)) for i in perm]
    assert _statuses(_rewritten(P, lambda w: substitute(w, images))) == _statuses(P)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS)
def test_verdicts_invariant_under_relator_inversion(seed):
    P = Seeded(seed).presentation()
    note(P.to_text())
    assume(zassenhaus_invariant(P, 8) is not None)
    assert _statuses(_rewritten(P, GroupWord.inverse)) == _statuses(P)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS)
def test_verdicts_invariant_under_conjugation_by_a_generator_power(seed):
    # g^-k w g^k: the expansion changes past degree z(G), the initial forms do not
    rng = Seeded(seed)
    P = rng.presentation()
    g, k = rng.randint(1, P.d), rng.choice((1, -1, 2, -2))
    note(f"{P.to_text()}conjugation by x{g}^{k}")
    assume(zassenhaus_invariant(P, 8) is not None)
    power = GroupWord((Gen(g, k),))
    assert _statuses(_rewritten(P, lambda w: power.inverse() * w * power)) == _statuses(P)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS)
def test_verdicts_invariant_under_inverting_a_generator(seed):
    # x_i -> x_i^-1 acts on the graded pieces as X_i -> -X_i, a diagonal basis change
    rng = Seeded(seed)
    P = rng.presentation()
    i = rng.randint(1, P.d)
    note(f"{P.to_text()}inverting x{i}")
    assume(zassenhaus_invariant(P, 8) is not None)
    images = [GroupWord((Gen(j, -1 if j == i else 1),)) for j in range(1, P.d + 1)]
    assert _statuses(_rewritten(P, lambda w: substitute(w, images))) == _statuses(P)
