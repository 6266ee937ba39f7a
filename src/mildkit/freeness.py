"""Strong-freeness engines.

Three routes are provided and kept independent:

* combinatorial freeness of monomial sequences (no submonomial, no
  prefix/suffix overlap), which for monomials is equivalent to strong
  freeness;
* the high-term criterion: extract the order-maximal monomials under a
  multiplicative order and test those for combinatorial freeness — a
  one-directional proof, never a refutation;
* the graded Hilbert-series oracle: exact F_p dimension counts of the
  quotient by the two-sided ideal, compared degreewise against the
  extremal series 1/(1 - sum t^tau_i + sum t^sigma_j).

The defect series (actual minus extremal, as detected by multiplying with
the denominator) is coefficientwise nonnegative for every input, so a
positive coefficient refutes strong freeness definitively and a negative
one can only mean an implementation bug; the oracle aborts on it.
"""

from __future__ import annotations

from .algebra import Context, Frozen, IntSeries, Monomial, Record, check_weights
from .errors import InternalInvariantError
from .linalg import RowReducer, check_budget, push
from .orders import high_term

PROVEN = "proven-strongly-free"
REFUTED = "refuted"
CONSISTENT = "consistent-to-degree"

ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"


# ---------------------------------------------------------------------------
# combinatorial freeness
# ---------------------------------------------------------------------------

class OverlapWitness(Frozen):
    """Why a monomial sequence fails combinatorial freeness.

    kind "submonomial": rho_i occurs inside rho_j starting at offset.
    kind "prefix-suffix": the first `length` letters of rho_i equal the
    last `length` letters of rho_j (both proper, nonempty).
    """

    kind: str
    i: int
    j: int
    offset: int
    length: int

    def describe(self) -> str:
        if self.kind == "submonomial":
            return f"rho_{self.i + 1} is a submonomial of rho_{self.j + 1} at offset {self.offset}"
        return (
            f"prefix of rho_{self.i + 1} of length {self.length} equals "
            f"a suffix of rho_{self.j + 1}"
        )


class CombFreeResult(Frozen):
    free: bool
    witness: OverlapWitness | None = None

    def __bool__(self):
        return self.free


def combinatorially_free(rhos) -> CombFreeResult:
    """Decide combinatorial freeness of a sequence of monomials.

    Condition (i): no rho_i is a contiguous subword of rho_j for i != j
    (duplicates fail here).  Condition (ii): no proper nonempty prefix of
    any rho_i equals a proper nonempty suffix of any rho_j, i = j allowed.
    Independent of the weights and of the ordering of the sequence.
    """
    words = []
    for r in rhos:
        letters = r.letters if isinstance(r, Monomial) else tuple(r)
        if not letters:
            raise ValueError("combinatorial freeness is undefined for the empty monomial")
        words.append(letters)

    for i, wi in enumerate(words):
        for j, wj in enumerate(words):
            if i != j and len(wi) <= len(wj):
                for off in range(len(wj) - len(wi) + 1):
                    if wj[off : off + len(wi)] == wi:
                        return CombFreeResult(False, OverlapWitness("submonomial", i, j, off, len(wi)))
    for i, wi in enumerate(words):
        for j, wj in enumerate(words):
            for k in range(1, min(len(wi), len(wj))):
                if wi[:k] == wj[len(wj) - k :]:
                    return CombFreeResult(False, OverlapWitness("prefix-suffix", i, j, len(wj) - k, k))
    return CombFreeResult(True)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class FreenessCertificate(Record):
    """Names the order and the high terms that witnessed a proof."""

    order: str
    high_terms: tuple[Monomial, ...]


class FreenessVerdict(Record):
    status: str
    engine: str
    degree: int | None = None
    at_degree: int | None = None
    witness_coefficient: int | None = None
    certificate: FreenessCertificate | None = None
    detail: str = ""

    @property
    def proven(self) -> bool:
        return self.status == PROVEN

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED


def _check_form(k: int, rho):
    if rho.is_zero:
        raise ValueError(f"rho_{k + 1} is zero")
    if not rho.is_homogeneous():
        raise ValueError(f"rho_{k + 1} is not homogeneous: degrees {rho.degrees()}")


def anick_check(rhos, order) -> FreenessVerdict:
    """High-term criterion: if the high terms under a multiplicative order
    are combinatorially free, the sequence is strongly free.  Inconclusive
    otherwise (consistent-to-degree 0); this route never refutes."""
    highs = []
    for k, rho in enumerate(rhos):
        _check_form(k, rho)
        highs.append(high_term(order, rho))
    result = combinatorially_free(highs)
    if result.free:
        cert = FreenessCertificate(order.describe(), tuple(highs))
        return FreenessVerdict(PROVEN, "anick", certificate=cert)
    return FreenessVerdict(
        CONSISTENT,
        "anick",
        degree=0,
        detail=f"criterion inconclusive for this order: {result.witness.describe()}",
    )


# ---------------------------------------------------------------------------
# graded quotient dimensions
# ---------------------------------------------------------------------------

def dimension_series(ctx: Context, N: int) -> IntSeries:
    """Weighted word counts of the free algebra: inverse of 1 - sum t^tau_i."""
    dims = [0] * (N + 1)
    dims[0] = 1
    for n in range(1, N + 1):
        dims[n] = sum(dims[n - t] for t in ctx.tau if n - t >= 0)
    return IntSeries(tuple(dims))


def _check_relators(ctx: Context, rhos):
    sigmas = []
    for k, rho in enumerate(rhos):
        if rho.ctx != ctx:
            raise ValueError(f"rho_{k + 1} built over a different context")
        _check_form(k, rho)
        sigma = rho.tau_valuation()
        if sigma < 1:
            raise ValueError(f"rho_{k + 1} has a constant term")
        sigmas.append(sigma)
    return sigmas


class GradedQuotient:
    """Degreewise dimensions of B = A / (rho_1, ..., rho_m) by exact
    elimination over F_p.

    Degree n of the ideal decomposes as (sum_j R_{n - tau_j} X_j) + the
    span of beta * rho_i over representatives beta of a basis of B in
    degree n - sigma_i; the first part is a direct sum over last letters,
    so only the second needs reducing, over coordinates indexed by the
    quotient bases of the previous degrees.  Per degree this is one
    Gaussian elimination on a (sum_i b_{n-sigma_i}) x (sum_j b_{n-tau_j})
    matrix, which stays desk-scale even where the literal spanning set of
    the slice would not.

    All bookkeeping is in integers.  A word X_{l_1}...X_{l_k} is stored as
    the integer l_1 (d+1)^(k-1) + ... + l_k, its letters read as digits
    1..d in bijective base d+1, so integer order is length-lex order.  Per
    degree n the engine keeps the representative words in increasing
    order and one image table per letter X_j: entry b is the image of
    beta_b * X_j, beta_b the b-th representative of degree n - tau_j, in
    the degree-n basis -- a representative index when the word is itself a
    representative or rewrites to one, a {representative index:
    coefficient} dict otherwise.  Per degree each relator term is read
    through these tables once, for every beta at once, so a row is built by
    lookups alone.  A row is keyed by the column words beta_b * X_j, so
    its pivot is its smallest word, and degree n needs only its non-pivot
    words.  Its tables map to words until degree n + 1 first reads them;
    only then are the word -> representative map and the pivot images
    built, so the top degree asked for builds neither.  The tables grow
    lazily, so an instance is not safe to share across threads while it
    is being extended.
    """

    def __init__(self, ctx: Context, rhos, budget=None):
        self.ctx = ctx
        self.rhos = list(rhos)
        self.sigmas = _check_relators(ctx, self.rhos)
        self.budget = budget
        # per relator, its terms as (coefficient, 0-based letters)
        self._terms = [[(c, [i - 1 for i in mu.letters]) for mu, c in rho.terms.items()]
                       for rho in self.rhos]
        self._reps: list[list[int]] = [[0]]
        # _images[n][j]: the image table of X_{j+1} into degree n (None if n < tau_{j+1})
        self._images: list[list[list | None]] = [[None] * ctx.d]
        # the last degree's (column-word tables, reducer) until _finish
        # turns them into _images[n]
        self._pending = None

    def dimension(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"degree must be nonnegative, got {n}")
        while len(self._reps) <= n:
            self._extend()
        return len(self._reps[n])

    def dimensions(self, N: int) -> list[int]:
        return [self.dimension(n) for n in range(N + 1)]

    def representatives(self, n: int) -> list[Monomial]:
        self.dimension(n)
        return [self.ctx.decode(w, n) for w in self._reps[n]]

    def _term_table(self, deg: int, letters, landing: list) -> list:
        """Entry b: the image of beta_b * X_letters, beta_b the b-th
        representative of degree deg; the last letter maps through landing."""
        tau = self.ctx.tau
        tables = []
        for j in letters[:-1]:
            deg += tau[j]
            tables.append(self._images[deg][j])
        tables.append(landing)
        composed = tables[0]
        for table in tables[1:]:
            composed = [table[img] if type(img) is int else push(img, table, self.ctx.p) for img in composed]
        return composed

    def _extend(self):
        self._finish()
        n = len(self._reps)
        ctx = self.ctx
        base = ctx.d + 1
        # coordinates of A_n modulo sum_j R_{n - tau_j} X_j: one column per
        # beta_b * X_j, beta_b a representative of degree n - tau_j, keyed
        # by the word, so integer order is column order; the tables map to
        # these words until _finish rewrites them
        images = [[w * base + j + 1 for w in self._reps[n - t]] if n >= t else None
                  for j, t in enumerate(ctx.tau)]

        nrows = sum(len(self._reps[n - sigma]) for sigma in self.sigmas if n >= sigma)
        check_budget(nrows, sum(len(table) for table in images if table is not None), self.budget)

        red = RowReducer(ctx.p)
        for terms, sigma in zip(self._terms, self.sigmas):
            k = n - sigma
            if k < 0:
                continue
            # the rows beta * rho, one per representative beta of degree k,
            # summed one term at a time
            rows: list[dict[int, int]] = [{} for _ in self._reps[k]]
            for c, letters in terms:
                for row, img in zip(rows, self._term_table(k, letters, images[letters[-1]])):
                    if type(img) is int:
                        row[img] = row.get(img, 0) + c
                    else:
                        for w, v in img.items():
                            row[w] = row.get(w, 0) + c * v
            for row in rows:
                red.add(row)  # reduces mod p and drops zero entries

        # the representatives of degree n are its non-pivot columns
        pivots = red.pivots
        self._reps.append(sorted([w for table in images if table is not None
                                  for w in table if w not in pivots]))
        self._pending = (images, red)

    def _finish(self):
        """Fill the image tables of the pending degree, if any: only the
        next degree reads them, so the top degree asked for never builds
        them."""
        if self._pending is None:
            return
        images, red = self._pending
        self._pending = None
        # degree n is withdrawn until its tables are built, so an interrupted
        # rewrite leaves it to be recomputed rather than half rewritten
        reps = self._reps.pop()
        # column word -> its image in the degree-n basis: the non-pivot
        # columns are the representatives, the back-substitution adds the
        # pivot columns
        col_image = red.finalize(dict(zip(reps, range(len(reps)))))
        images = [None if table is None else [col_image[w] for w in table] for table in images]
        self._images.append(images)
        self._reps.append(reps)


def quotient_dimensions(ctx: Context, rhos, N: int, budget=None) -> IntSeries:
    """Dimensions of A/(rhos) in degrees 0..N (equal to dim A_n minus the
    rank of the degree-n ideal slice)."""
    if N < 0:
        raise ValueError(f"degree must be >= 0, got {N}")
    if not rhos:
        return dimension_series(ctx, N)
    q = GradedQuotient(ctx, rhos, budget=budget)
    return IntSeries(tuple(q.dimensions(N)))


# ---------------------------------------------------------------------------
# the series oracle
# ---------------------------------------------------------------------------

def denominator_series(tau, sigmas, N: int) -> IntSeries:
    """1 - (t^tau_1 + ... + t^tau_d) + (t^sigma_1 + ... + t^sigma_m)."""
    if N < 0:
        raise ValueError(f"degree must be >= 0, got {N}")
    tau = check_weights(tau)
    coeffs = [0] * (N + 1)
    coeffs[0] = 1
    for t in tau:
        if t <= N:
            coeffs[t] -= 1
    for s in sigmas:
        if s < 1:
            raise ValueError(f"relator degrees must be >= 1, got {s}")
        if s <= N:
            coeffs[s] += 1
    return IntSeries(tuple(coeffs))


def target_series(tau, sigmas, N: int) -> IntSeries:
    """The extremal quotient series 1/(1 - sum t^tau_i + sum t^sigma_j)."""
    return denominator_series(tau, sigmas, N).inverse()


class AdmissibilityResult(Record):
    status: str
    degree: int
    at_degree: int | None = None
    coefficient: int | None = None

    @property
    def admissible(self) -> bool:
        return self.status == ADMISSIBLE


def series_admissibility(tau, sigmas, N: int) -> AdmissibilityResult:
    """Report the first negative coefficient of the extremal series, if any
    up to degree N.  Nonnegativity is necessary for a strongly free
    sequence with the given degrees to exist."""
    target = target_series(tau, sigmas, N)
    for n in range(N + 1):
        if target[n] < 0:
            return AdmissibilityResult(INADMISSIBLE, N, n, target[n])
    return AdmissibilityResult(ADMISSIBLE, N)


def strongly_free_oracle(ctx: Context, rhos, N: int, budget=None) -> FreenessVerdict:
    """Compare actual quotient dimensions against the extremal series.

    The product of the actual series with the denominator minus 1 is a
    coefficientwise nonnegative defect; the first positive coefficient
    refutes strong freeness definitively, and a full run of zeros up to N
    is evidence only (consistent-to-degree N), never a proof.
    """
    sigmas = _check_relators(ctx, rhos)
    dims = quotient_dimensions(ctx, rhos, N, budget=budget)
    defect = dims * denominator_series(ctx.tau, sigmas, N) - IntSeries.one(N)
    for n in range(1, N + 1):
        c = defect[n]
        if c < 0:
            raise InternalInvariantError(
                f"negative defect coefficient {c} at degree {n}; "
                "the quotient-dimension engine is broken"
            )
        if c > 0:
            return FreenessVerdict(REFUTED, "oracle", at_degree=n, witness_coefficient=c)
    return FreenessVerdict(CONSISTENT, "oracle", degree=N)
