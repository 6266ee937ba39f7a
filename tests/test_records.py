"""The frozen-value base that every mildkit value and record is built on:
construction, immutability, equality and hash, `replace` and repr, and a
cold `import mildkit.cli` that loads neither `dataclasses` nor `inspect`."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from mildkit import freeness, lie, magnus, massey
from mildkit.algebra import Context, Frozen, IntSeries, Monomial, Poly, Record
from mildkit.magnus import Commutator, Gen, GroupWord, Sub, expand, make_presentation, parse_word

ROOT = Path(__file__).resolve().parent.parent

CTX = Context(3, 2)
X1X2 = CTX.monomial((1, 2))
WORD = parse_word("[x1, x2]^2 (x1 x2)^-1", ("x1", "x2"))
P = make_presentation(3, ("a", "b", "c"), [("r", "a^3 [b, c]")])
VERDICT = massey.search_mild(P)

# one instance per class, and a field to replace with a value the class
# accepts: (build, field, new value)
EXAMPLES = {
    Context: (lambda: Context(3, 2, (1, 2)), "tau", (2, 1)),
    Monomial: (lambda: Monomial((1, 2), 2), "tau_degree", 3),
    Poly: (lambda: CTX.poly([((1, 2), 1), ((2,), 2)]), "terms", {X1X2: 2}),
    IntSeries: (lambda: IntSeries((1, -2, 0)), "coeffs", (1, 1)),
    Gen: (lambda: Gen(2, 3), "exponent", -1),
    Commutator: (lambda: WORD.factors[0], "exponent", 5),
    Sub: (lambda: WORD.factors[1], "word", GroupWord((Gen(1),))),
    GroupWord: (lambda: WORD, "factors", (Gen(1, 2),)),
    magnus.MagnusExpansion: (lambda: expand(WORD, CTX, 3), "cutoff", 4),
    magnus.Presentation: (lambda: P, "tau", (1, 2, 1)),
    freeness.OverlapWitness: (lambda: freeness.OverlapWitness("submonomial", 0, 1, 2, 1), "offset", 0),
    freeness.CombFreeResult: (lambda: freeness.combinatorially_free([(1, 2), (2, 1)]), "free", True),
    freeness.FreenessCertificate: (lambda: freeness.FreenessCertificate("deglex", (X1X2,)), "order", "u"),
    freeness.FreenessVerdict: (lambda: freeness.FreenessVerdict("refuted", "oracle", at_degree=3),
                               "degree", 4),
    freeness.AdmissibilityResult: (lambda: freeness.series_admissibility((1, 1), (1, 1, 1), 4),
                                   "degree", 5),
    lie.HallElement: (lambda: lie.hall_basis(2, 2)[0], "weight", 7),
    lie.RestrictedBasisElement: (lambda: lie.restricted_basis(2, 2, 2)[0], "p_exp", 2),
    lie.PowerCommutatorSplit: (lambda: lie.p_power_commutator_split(CTX.poly([((1, 1, 1), 1)]), 3),
                               "power_part", []),
    massey.MasseyTensor: (lambda: massey.massey_tensor(P), "n", 3),
    massey.ShuffleReport: (lambda: massey.check_shuffles(massey.massey_tensor(P), 1, 1), "checked", 0),
    massey.Decomposition: (lambda: massey.Decomposition(2, 1), "e", 2),
    massey.MildCertificate: (lambda: VERDICT.certificate, "notes", ""),
    massey.MildVerdict: (lambda: VERDICT, "reason", "by hand"),
    massey.MembershipRecord: (lambda: massey.MembershipRecord((1, 1), 2, True), "is_lie", False),
    massey.OneRelatorReport: (lambda: massey.one_relator_verdict(P), "notes", "by hand"),
    massey.DemuskinTypeReport: (lambda: massey.demuskin_type(P), "n", 4),
}


def _classes(base):
    for cls in base.__subclasses__():
        yield cls
        yield from _classes(cls)


def test_every_value_class_has_an_example():
    abstract = {Record, magnus._Atom}
    assert set(_classes(Frozen)) - abstract == set(EXAMPLES)


@pytest.fixture(params=list(EXAMPLES), ids=lambda cls: cls.__name__)
def example(request):
    build, field, new = EXAMPLES[request.param]
    value = build()
    assert type(value) is request.param
    return build, value, field, new


def _hashable(value):
    try:
        hash(value)
    except TypeError:  # a dict or list field, as with a frozen dataclass
        return False
    return True


def test_assignment_raises_and_leaves_the_value(example):
    _, value, field, new = example
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, new)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


def test_equality_is_by_class_and_fields(example):
    build, value, field, new = example
    fields = type(value)._fields
    assert field in fields
    twin = build()
    assert value == twin and not value != twin
    assert value != value.replace(**{field: new})
    assert value != object()

    class Other(type(value)):
        pass

    assert [getattr(value, f) for f in Other._fields] == [getattr(value, f) for f in fields]
    assert Other(*(getattr(value, f) for f in fields)) != value
    if _hashable(value):
        assert hash(value) == hash(twin)
        if type(value) is not Poly:  # a Poly hashes its terms as a frozenset
            assert hash(value) == hash(tuple(getattr(value, f) for f in fields))


def test_replace_keeps_the_other_fields(example):
    _, value, field, new = example
    changed = value.replace(**{field: new})
    assert type(changed) is type(value)
    assert getattr(changed, field) == new
    for f in type(value)._fields:
        if f != field:
            assert getattr(changed, f) is getattr(value, f)
    assert value.replace() == value
    with pytest.raises(TypeError):
        value.replace(no_such_field=1)


def test_copy_and_pickle_rebuild_an_equal_value(example):
    _, value, _, _ = example
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("make", [
    lambda: Gen(1).replace(exponent=0),
    lambda: WORD.factors[0].replace(exponent=0),
    lambda: WORD.factors[1].replace(exponent=0),
    lambda: CTX.replace(p=4),
    lambda: CTX.replace(tau=(1, 0)),
    lambda: IntSeries((1,)).replace(coeffs=()),
    lambda: P.replace(names=("a", "a", "c")),
], ids=["gen-exponent", "commutator-exponent", "sub-exponent", "context-prime", "context-weights",
        "series-empty", "presentation-names"])
def test_replace_validates_again(make):
    with pytest.raises(ValueError):
        make()


def test_replace_normalizes_again():
    assert IntSeries((1,)).replace(coeffs=[2, True]).coeffs == (2, 1)


def test_constructor_checks_the_fields():
    D = massey.Decomposition
    assert D(2, 1) == D(2, e=1) == D(c=2, e=1, matrix=None)
    for bad in [lambda: D(), lambda: D(2), lambda: D(1, 2, None, 4), lambda: D(2, c=1),
                lambda: D(2, 1, colour=0)]:
        with pytest.raises(TypeError):
            bad()


def test_custom_reprs_are_unchanged():
    ctx = Context(3, 2)
    assert repr(ctx.monomial((1, 2, 2))) == "Monomial(X1*X2^2)"
    assert repr(ctx.poly([((1, 2), 1), ((2,), 2), ((), 1)])) == "Poly(1 + 2*X2 + X1*X2 mod 3)"
    assert repr(ctx.zero()) == "Poly(0 mod 3)"
    assert repr(IntSeries((1, -2, 0))) == "IntSeries([1, -2, 0])"
    assert repr(lie.hall_basis(2, 3)) == "[HallElement([[X1,X2],X2]), HallElement([[X1,X2],X1])]"
    # the generic repr reads like a dataclass's
    assert repr(massey.Decomposition(2, 1)) == "Decomposition(c=2, e=1, matrix=None)"
    assert repr(Gen(1, -2)) == "Gen(index=1, exponent=-2)"


def test_hall_element_caches_its_key():
    element = lie.hall_basis(2, 3)[0]
    assert element.key is element.key
    assert "key" in vars(element)


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    code = "import sys, mildkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # -S: no site hooks, so only what mildkit.cli imports is counted
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
