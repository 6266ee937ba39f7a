"""Massey-product tensors of a finite presentation and the verdicts built
on them.

All Massey values are read off the Magnus expansions of the relators: the
coefficient of X_{i_1}...X_{i_n} in the expansion of r equals, up to the
sign (-1)^(n-1), the trace of the n-fold product on the dual basis tuple.
No cochain-level defining systems are ever constructed.  Tensors store the
raw coefficients; the sign lives in massey_value alone.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

from .algebra import INFINITY, Context, Frozen, Monomial, Poly, Record
from .errors import BudgetError, PrecisionError
from .freeness import FreenessVerdict, anick_check
from .lie import p_power_commutator_split
from .linalg import RowReducer, is_invertible, kernel_basis
from .magnus import Presentation, leading_expansions
from .orders import UOrder, high_term

MILD = "mild"
CRITERION_FAILED = "criterion-failed"
NOT_APPLICABLE = "not-applicable"


# ---------------------------------------------------------------------------
# Zassenhaus invariant
# ---------------------------------------------------------------------------

def zassenhaus_invariant(P: Presentation, cutoff: int):
    """Largest n with every relator of valuation >= n: the minimum of the
    relator valuations.  INFINITY for a free presentation; None when the
    minimum is not visible at this cutoff."""
    return _least_valuation(P.leading_expansions(cutoff)) if P.m else INFINITY


def _least_valuation(exps):
    return min((e.valuation for e in exps if e.valuation is not None), default=None)


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

class MasseyTensor(Frozen):
    """For each relator, the map multi-index I (length n) -> coefficient of
    X_I in its Magnus expansion, stored sparsely."""

    p: int
    d: int
    n: int
    relator_names: tuple[str, ...]
    values: tuple[dict, ...]

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def sign(self) -> int:
        return (-1) ** (self.n - 1) % self.p

    def value(self, j: int, index_tuple) -> int:
        return self.values[j].get(tuple(index_tuple), 0)

    def transformed(self, matrix) -> MasseyTensor:
        """Tensor after the change of dual basis chi'_i = sum_a Q[i][a] chi_a;
        equals the coefficient tensor of the relators in the new letters."""
        vals = tuple(
            _transform_values(v, matrix, self.p, self.d, self.n) for v in self.values
        )
        return MasseyTensor(self.p, self.d, self.n, self.relator_names, vals)

    def as_dict(self):
        return {
            "n": self.n,
            "relators": {
                name: {"".join(map(str, i)): c for i, c in sorted(v.items())}
                for name, v in zip(self.relator_names, self.values)
            },
        }


def _transform_values(values, matrix, p, d, n):
    cur = values
    for slot in range(n):
        nxt: dict = {}
        for index, c in cur.items():
            a = index[slot]
            for i in range(1, d + 1):
                q = matrix[i - 1][a - 1] % p
                if not q:
                    continue
                key = index[:slot] + (i,) + index[slot + 1 :]
                v = (nxt.get(key, 0) + q * c) % p
                if v:
                    nxt[key] = v
                else:
                    nxt.pop(key, None)
        cur = nxt
    return cur


def massey_tensor(P: Presentation, n=None, cutoff=8) -> MasseyTensor:
    """All length-n expansion coefficients of the relators, n = z(G) by
    default.  Defined only for n <= the Zassenhaus invariant (the products
    are not uniquely defined beyond it).  One probe reads the expansions, up
    to n or else the cutoff; a probe that stops below n has found z < n."""
    if n is not None and n < 2:
        raise ValueError(f"tensors start at n = 2, got {n}")
    if n is None and not P.m:
        raise ValueError("free presentation: z(G) is infinite, so n must be given")
    exps = P.leading_expansions(cutoff if n is None else n)
    z = _least_valuation(exps)
    if n is None:
        if z is None:
            raise PrecisionError(
                f"every relator expands to 1 up to degree {cutoff}; raise the cutoff "
                "(a trivial relator can never yield a finite invariant)"
            )
        n = z
    elif z is not None and n > z:
        raise ValueError(
            f"n = {n} exceeds the Zassenhaus invariant {z}; "
            "the Massey product is not uniquely defined there"
        )
    # in decreasing index order, so that a witness read off the tensor does
    # not depend on the order in which an expansion produced its terms
    values = []
    for e in exps:
        terms = ((m.letters, c) for m, c in e.component(n).terms.items())
        values.append(dict(sorted(terms, reverse=True)))
    return MasseyTensor(P.p, P.d, n, P.relator_names(), tuple(values))


def massey_value(T: MasseyTensor, xs) -> list[int]:
    """Multilinear extension: component j is (-1)^(n-1) times the full
    contraction of relator j's tensor with the given n coefficient vectors."""
    xs = [list(x) for x in xs]
    if len(xs) != T.n:
        raise ValueError(f"expected {T.n} vectors, got {len(xs)}")
    for x in xs:
        if len(x) != T.d:
            raise ValueError(f"expected vectors of length {T.d}")
    p = T.p
    out = []
    for vals in T.values:
        total = 0
        for index, c in vals.items():
            w = c
            for k, i in enumerate(index):
                w = (w * xs[k][i - 1]) % p
                if not w:
                    break
            total = (total + w) % p
        out.append((T.sign * total) % p)
    return out


# ---------------------------------------------------------------------------
# shuffles and the diagonal map
# ---------------------------------------------------------------------------

class ShuffleReport(Frozen):
    a: int
    b: int
    checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def check_shuffles(T: MasseyTensor, a: int, b: int) -> ShuffleReport:
    """Verify exactly that the sum over all (a,b)-shuffles of the tensor
    entries vanishes mod p on every one of the d^n basis tuples.  A term w
    with coefficient c lies in the sum on u + v (u of length a) once for
    each a-subset S of the n slots with w|S = u and w|S^c = v, so the sums
    are built from the stored terms alone: each term and each S adds c at
    the key w|S + w|S^c.  The violations are the keys whose sums are
    nonzero mod p, per relator in sorted order; every other tuple sums to 0."""
    if a < 1 or b < 1 or a + b != T.n:
        raise ValueError(f"need a, b >= 1 with a + b = {T.n}")
    slots = range(T.n)
    orders = [itemgetter(*S, *(k for k in slots if k not in S)) for S in itertools.combinations(slots, a)]
    violations = []
    for name, vals in zip(T.relator_names, T.values):
        sums: dict = {}
        for w, c in vals.items():
            for order in orders:
                key = order(w)
                sums[key] = sums.get(key, 0) + c
        violations.extend((name, key) for key in sorted(sums) if sums[key] % T.p)
    return ShuffleReport(a, b, T.d**T.n, violations)


def bn_map(T: MasseyTensor) -> list[list[int]]:
    """Matrix of the linear map chi -> n-fold product on (chi, ..., chi):
    m rows (relators), d columns (dual basis vectors), sign included."""
    return [
        [(T.sign * vals.get((i,) * T.n, 0)) % T.p for i in range(1, T.d + 1)]
        for vals in T.values
    ]


# ---------------------------------------------------------------------------
# the decomposition criterion
# ---------------------------------------------------------------------------

class Decomposition(Record):
    """A splitting of the dual basis: after the (optional) basis change,
    U is spanned by the first c coordinates and V by the rest; e is the
    number of U-slots required on the left of the surjectivity block."""

    c: int
    e: int
    matrix: tuple | None = None


class MildCertificate(Record):
    """Re-execution of the criterion's proof path: the transformed,
    row-reduced degree-n relator forms, their high terms under the subset
    order, and the combinatorial-freeness outcome."""

    n: int
    order: str
    decomposition: Decomposition
    initial_forms: tuple[Poly, ...]
    high_terms: tuple[Monomial, ...]
    anick: FreenessVerdict
    notes: str = ""


class MildVerdict(Record):
    status: str
    reason: str = ""
    certificate: MildCertificate | None = None

    @property
    def is_mild(self) -> bool:
        return self.status == MILD


def check_mild(P: Presentation, D: Decomposition, cutoff: int = 8) -> MildVerdict:
    """Decide the decomposition criterion at n = z(G) and, on success,
    rebuild its constructive certificate.

    Condition (a): every tensor entry with at least n-e+1 indices in V
    vanishes.  Condition (b): the block over U^e x V^(n-e) multi-indices
    has full rank m.  The certificate row-reduces that block (columns in
    decreasing subset order), recovers the high terms of the reduced
    relator forms, and re-checks combinatorial freeness via the high-term
    criterion; the mild verdict is issued only if that check proves out.
    """
    if P.m == 0:
        return MildVerdict(NOT_APPLICABLE, "free presentation: cd <= 1, nothing to check")
    return _decide(massey_tensor(P, cutoff=cutoff), D)


def _decide(T: MasseyTensor, D: Decomposition) -> MildVerdict:
    """The criterion of check_mild on the tensor at n = z(G)."""
    n, d, p = T.n, T.d, T.p
    c, e = D.c, D.e
    if not 1 <= c < d:
        raise ValueError(f"need 1 <= c < d = {d}, got c = {c}")
    if not 1 <= e <= n - 1:
        raise ValueError(f"need 1 <= e <= n - 1 = {n - 1}, got e = {e}")
    if D.matrix is not None:
        if not is_invertible(p, D.matrix):
            raise ValueError("basis-change matrix is not invertible")
        T = T.transformed(D.matrix)

    # (a) vanishing on tuples with >= n - e + 1 entries in V
    for j, vals in enumerate(T.values):
        for index, coeff in vals.items():
            if sum(1 for i in index if i > c) >= n - e + 1:
                return MildVerdict(
                    CRITERION_FAILED,
                    f"condition (a) fails: relator {T.relator_names[j]} has a nonzero "
                    f"product on tuple {index} with >= {n - e + 1} entries in V",
                )

    # (b) and the certificate: row-reduce the block over U^e x V^(n-e),
    # columns in decreasing subset order, with relator j tracked in column
    # width + j.  The block has rank m iff m pivots land on block columns;
    # those pivots are the high terms of the reduced relator forms.
    order = UOrder(frozenset(range(1, c + 1)), (1,) * d)
    block = sorted(
        (
            Monomial(u + v, n)
            for u in itertools.product(range(1, c + 1), repeat=e)
            for v in itertools.product(range(c + 1, d + 1), repeat=n - e)
        ),
        key=order.key,
        reverse=True,
    )
    width = len(block)
    col = {m.letters: k for k, m in enumerate(block)}
    reducer = RowReducer(p)
    for j, vals in enumerate(T.values):
        row = {col[i]: v for i, v in vals.items() if i in col}
        row[width + j] = 1
        reducer.add(row)
    leads = sorted(lead for lead in reducer.pivots if lead < width)
    if len(leads) < T.m:
        return MildVerdict(
            CRITERION_FAILED,
            "condition (b) fails: the block over U^e x V^(n-e) has rank "
            "< m (relators dependent or too deep)",
        )

    ctx = Context(p, d)
    full = [Poly(ctx, {Monomial(i, n): v for i, v in vals.items()}) for vals in T.values]
    forms = []
    for lead in leads:
        poly = ctx.zero()
        for k, t in reducer.pivots[lead].items():
            if k >= width:
                poly = poly + full[k - width].scale(t)
        forms.append(poly)
    verdict = anick_check(forms, order)
    highs = tuple(high_term(order, f) for f in forms)
    cert = MildCertificate(
        n=n,
        order=order.describe(),
        decomposition=D,
        initial_forms=tuple(forms),
        high_terms=highs,
        anick=verdict,
        notes="forms are the row-reduced degree-n relator coefficients "
        "in the transformed letters",
    )
    if not verdict.proven:
        return MildVerdict(
            CRITERION_FAILED,
            "certificate rebuild failed: high terms not combinatorially free",
            certificate=cert,
        )
    return MildVerdict(MILD, certificate=cert)


def subset_decomposition(d: int, subset, e: int) -> Decomposition:
    """The decomposition with U spanned by the given coordinates (1-based)
    and V by the rest: the basis change lists the chosen standard vectors
    first, in the given order, the others following in index order.  No
    basis change when the subset is 1..c."""
    subset = tuple(subset)
    if subset == tuple(range(1, len(subset) + 1)):
        return Decomposition(len(subset), e)
    rest = [i for i in range(1, d + 1) if i not in subset]
    matrix = tuple(tuple(1 if j == i else 0 for j in range(1, d + 1)) for i in [*subset, *rest])
    return Decomposition(len(subset), e, matrix)


def search_mild(P: Presentation, cutoff: int = 8, max_cases: int = 4096) -> MildVerdict:
    """Try the criterion over all coordinate-subset decompositions and
    every admissible e; first success wins.  The subset space is
    2^d-sized, so a case budget applies to its closed-form count before any
    case is built."""
    if P.m == 0:
        return MildVerdict(NOT_APPLICABLE, "free presentation: cd <= 1, nothing to check")
    T = massey_tensor(P, cutoff=cutoff)
    n, d = T.n, P.d
    if n < 2 or d < 2:
        return MildVerdict(
            CRITERION_FAILED,
            f"no decomposition exists for d = {d}, n = {n}",
        )
    count = (2**d - 2) * (n - 1)
    if count > max_cases:
        raise BudgetError(
            f"{count} decompositions exceed the search budget {max_cases}"
        )
    for c in range(1, d):
        for s in itertools.combinations(range(1, d + 1), c):
            for e in range(1, n):
                verdict = _decide(T, subset_decomposition(d, s, e))
                if verdict.is_mild:
                    return verdict.replace(reason=f"found by search: U = span{s}, e = {e}")
    return MildVerdict(
        CRITERION_FAILED,
        f"criterion failed for all {count} searched decompositions",
    )


# ---------------------------------------------------------------------------
# one-relator reports
# ---------------------------------------------------------------------------

class MembershipRecord(Frozen):
    tau: tuple[int, ...]
    valuation: int
    is_lie: bool
    coordinates: list | None = None


class OneRelatorReport(Frozen):
    p: int
    d: int
    relator: str
    z: int | None
    status: str  # mild | finite | inconclusive | unknown
    routes: list[str]
    coprime: bool | None
    memberships: list[MembershipRecord]
    split: object | None
    bp_matrix: list | None
    bp_kernel: list | None
    notes: str = ""


def _one_relator(P: Presentation, what: str):
    if P.m != 1:
        raise ValueError(f"{what} needs exactly one relator, got {P.m}")


def one_relator_verdict(P: Presentation, cutoff: int = 8, extra_taus=()) -> OneRelatorReport:
    """Diagnostics for a one-relator presentation: the invariant z, the
    coprimality route, Lie-polynomial initial forms at the requested weight
    vectors, the p-power/commutator split, and (for z = p) the diagonal map
    and its kernel.  Each weight vector's initial form is split once over
    the restricted Hall elements of its letter contents; its membership
    record is read off that split (Lie exactly when there is no p-power
    part), and the unit-weight split is the report's `split`.  Mildness
    claims are one-directional; absence of a route is reported as
    inconclusive, never as a refutation.  The Demuškin-type route is
    demuskin(P, cutoff)."""
    _one_relator(P, "one-relator analysis")
    name, w = P.relators[0]
    exps = P.leading_expansions(cutoff)
    z = exps[0].valuation  # z(G) of one relator is its valuation
    routes: list[str] = []
    notes = []

    if z is None:
        return OneRelatorReport(
            P.p, P.d, name, None, "unknown", [], None, [], None, None, None,
            notes=f"relator trivial to degree {cutoff}; raise the cutoff",
        )

    coprime = math.gcd(z, P.p) == 1
    if coprime:
        routes.append(f"zassenhaus-invariant {z} coprime to p = {P.p}")

    unweighted = (1,) * P.d
    taus = [unweighted]
    if P.tau != unweighted:
        taus.append(P.tau)
    taus.extend(tuple(t) for t in extra_taus)
    memberships, splits = [], []
    for tau in taus:
        # not None: a word of length z <= cutoff has weight <= cutoff * max(tau)
        e = leading_expansions([w], P.context(tau), cutoff * max(tau))[0]
        val = e.valuation
        # an initial form of a group element is restricted-Lie, so it splits
        splits.append(split := p_power_commutator_split(e.component(val), val))
        coords = [(c.base, k) for c, k in split.lie_part] if split.is_lie else None
        memberships.append(MembershipRecord(tau, val, split.is_lie, coords))
        if split.is_lie:
            routes.append(f"initial form at tau = {tau} is a Lie polynomial")

    bp_matrix = None
    bp_kernel = None
    if z == P.p and P.d >= 2:
        bp_matrix = bn_map(massey_tensor(P, cutoff=cutoff))
        bp_kernel = kernel_basis(P.p, bp_matrix, P.d)

    if P.d == 1:
        status = "finite"
        notes.append(f"single generator: the group is cyclic of order {P.p}^k with p^k = {z}")
    elif routes:
        status = "mild"
    else:
        status = "inconclusive"
        notes.append("no one-relator route applies; try other weight vectors, "
                     "the decomposition search or demuskin")

    return OneRelatorReport(
        P.p, P.d, name, z, status, routes, coprime, memberships,
        splits[0], bp_matrix, bp_kernel, "; ".join(notes),
    )


# ---------------------------------------------------------------------------
# Demuškin type
# ---------------------------------------------------------------------------

class DemuskinTypeReport(Frozen):
    is_type: bool
    n: int
    witness: tuple | None = None

    def as_dict(self):
        return {
            "is_demuskin_type": self.is_type,
            "n": self.n,
            "witness": None if self.witness is None else list(self.witness),
        }


def _pairing_form(T: MasseyTensor, chi, slot: int) -> list[int]:
    """The linear form psi -> product on (chi^slot, psi, chi^(n-1-slot)),
    as a coefficient vector over the dual basis (m = 1 tensors only)."""
    p = T.p
    vals = T.values[0]
    out = [0] * T.d
    for index, c in vals.items():
        w = c
        for k, i in enumerate(index):
            if k != slot:
                w = (w * chi[i - 1]) % p
                if not w:
                    break
        else:
            out[index[slot] - 1] = (out[index[slot] - 1] + w) % p
    return out


def demuskin_type(P: Presentation, cutoff: int = 8, budget: int = 200000) -> DemuskinTypeReport:
    """Check non-degeneracy of the n-fold pairing: for every nonzero chi
    there must be a slot position and a psi with a nonzero product on
    (chi, ..., psi, ..., chi).  Enumerates all p^d - 1 classes; refuses
    honestly when that exceeds the budget."""
    _one_relator(P, "Demuškin-type analysis")
    return _demuskin_type(massey_tensor(P, cutoff=cutoff), budget)


def _demuskin_type(T: MasseyTensor, budget: int) -> DemuskinTypeReport:
    count = T.p**T.d - 1
    if count > budget:
        raise BudgetError(
            f"enumerating {count} classes of H^1 exceeds the budget {budget}"
        )
    for chi in itertools.product(range(T.p), repeat=T.d):
        if any(chi) and not any(any(_pairing_form(T, chi, slot)) for slot in range(T.n)):
            return DemuskinTypeReport(False, T.n, witness=chi)
    return DemuskinTypeReport(True, T.n)


def demuskin(
    P: Presentation, cutoff: int = 8, budget: int = 200000
) -> tuple[DemuskinTypeReport, MildVerdict]:
    """The Demuškin-type report of demuskin_type and the verdict of the
    Demuškin-type construction, off one tensor at n = z(G).  The
    construction picks chi in the kernel of the diagonal map, finds psi
    pairing nontrivially against chi^(n-1), sends chi to the last
    coordinate, and checks the criterion with V = span(chi), e = 1.
    One-generator groups of Demuškin type are finite cyclic."""
    _one_relator(P, "Demuškin-type analysis")
    T = massey_tensor(P, cutoff=cutoff)
    report = _demuskin_type(T, budget)
    n, d = T.n, T.d
    if not report.is_type:
        return report, MildVerdict(
            NOT_APPLICABLE,
            f"not of Demuškin type: no pairing partner for chi = {report.witness}",
        )
    if d == 1:
        k, q = 0, 1
        while q < n:
            q *= T.p
            k += 1
        if q != n:
            raise ValueError(
                f"inconsistent input: one generator forces z to be a power of p, got {n}"
            )
        return report, MildVerdict(
            NOT_APPLICABLE,
            f"finite group: G = Z/{n} (cyclic of order p^{k}); not mild, cd is infinite",
        )
    kern = kernel_basis(T.p, bn_map(T), d)
    if not kern:  # pragma: no cover - impossible for m = 1 < d
        return report, MildVerdict(CRITERION_FAILED, "diagonal map has trivial kernel")
    chi = tuple(kern[0])
    form = _pairing_form(T, chi, 0)
    if not any(form):  # pragma: no cover - excluded by the shifting identity
        return report, MildVerdict(
            CRITERION_FAILED,
            "no psi pairs with chi^(n-1); shifting identity violated",
        )
    pivot = next(i for i, v in enumerate(chi) if v)
    rows = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d) if i != pivot]
    rows.append(chi)
    verdict = _decide(T, Decomposition(d - 1, 1, tuple(rows)))
    if verdict.is_mild:
        reason = f"Demuškin-type construction with chi = {list(chi)} spanning V"
        verdict = verdict.replace(reason=reason)
    return report, verdict


def demuskin_mildness(P: Presentation, cutoff: int = 8, budget: int = 200000) -> MildVerdict:
    """The verdict of the Demuškin-type construction (see demuskin)."""
    return demuskin(P, cutoff, budget)[1]
