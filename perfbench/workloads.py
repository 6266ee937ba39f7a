"""Inputs of the four benchmark workloads and the references their outputs
are checked against.

Nothing here decides a verdict with mildkit's own code: the references are
closed formulas (the ladders), verdicts and values stated in the README or
derived from it by hand (the CLI commands), and a re-check of every mild
certificate written out below (the sweep, which `worker.py` also holds to
the cross-engine rule that an Anick proof is never refuted by the oracle).
"""

from __future__ import annotations

import random

# ---------------------------------------------------------------------------
# oracle ladders
# ---------------------------------------------------------------------------

# workload -> (corpus file, top degree of the ladder)
LADDERS = {
    "oracle-p2": ("presentations/circuit_d4.pres", 12),
    "oracle-p3": ("presentations/demuskin_p3.pres", 11),
}

# initial forms are taken at the CLI's default cutoff max(8, 2z) = 8 for both files
LADDER_CUTOFF = 8


def ladder_reference(workload: str, N: int) -> list[int]:
    """Expected quotient dimensions b_0..b_N.

    circuit_d4 (d = 4, four quadratic relators, strongly free): the
    extremal series 1/(1 - 4t + 4t^2) = 1/(1 - 2t)^2, so b_n = (n+1) 2^n.
    demuskin_p3 (d = 3, one cubic relator, strongly free): 1/(1 - 3t + t^3),
    so b_n = 3 b_{n-1} - b_{n-3}.
    """
    if workload == "oracle-p2":
        return [(n + 1) * 2**n for n in range(N + 1)]
    dims: list[int] = []
    for n in range(N + 1):
        b = 1 if n == 0 else 3 * dims[n - 1]
        if n >= 3:
            b -= dims[n - 3]
        dims.append(b)
    return dims


# ---------------------------------------------------------------------------
# verdict sweep
# ---------------------------------------------------------------------------

SWEEP_PRIMES = (2, 3, 5)
SWEEP_RANKS = (2, 3, 4, 5)
SWEEP_RELATOR_COUNTS = (1, 2)

# Oracle degree per rank d: every item's rows x cols matrix stays within the
# CLI default budget of 2,000,000 entries at this degree; one degree more is
# refused for every d = 4 and d = 5 item of the family at this commit.
ORACLE_DEGREE = {2: 12, 3: 7, 4: 6, 5: 5}
CLI_DEFAULT_BUDGET = 2_000_000

# the d = 5, p = 5 relator that the sweep always includes
FIXED_ITEM = "p: 5\ngenerators: a, b, c, d, e\nrelators:\n  r: a^5 [a, b] [c, d] [[a, c], e]\n"

NAMES = ("a", "b", "c", "d", "e")

# The relator shapes (which letters sit in which power, commutator and
# nested commutator, in which order) are drawn once from this fixed seed.
# The run's seed then draws the orientation of every commutator, inner and
# outer.  That keeps the nonzero pattern of the degree-z coefficients, so
# the decomposition search stops at the same place and a pass costs about
# the same for every seed.  Drawing the letters per seed moved single
# items' cost by up to 4x and a pass's by about 20%; drawing the sign of a
# power (x^-p) moves the length of its expansion at p = 2 and 3.
SHAPE_SEED = 12122118


def _relator_shape(rng: random.Random, d: int, first: bool):
    """A p-th power with a commutator and a nested commutator (first
    relator) or with one of the two (second relator), over at most three of
    the d letters, in random order.  The lowest-degree part is nonzero: a
    commutator [x, y] with x != y, X^2 at p = 2, X^3 beside a Lie element
    at p = 3, or the nested commutator alone at p = 5."""
    letters = rng.sample(NAMES[:d], min(3, d))
    nest = ("nest", *rng.sample(letters, 2), rng.choice(letters))
    comm = ("comm", *rng.sample(letters, 2))
    factors = [("pow", rng.choice(letters))]
    factors += [comm, nest] if first else [rng.choice([comm, nest])]
    rng.shuffle(factors)
    return factors


def _render(shape, p: int, rng: random.Random) -> str:
    out = []
    for kind, *xs in shape:
        if kind == "pow":
            out.append(f"{xs[0]}^{p}")
            continue
        x, y = xs[:2] if rng.random() < 0.5 else xs[1::-1]
        if kind == "comm":
            out.append(f"[{x}, {y}]")
        else:
            inner, outer = f"[{x}, {y}]", xs[2]
            out.append(f"[{inner}, {outer}]" if rng.random() < 0.5 else f"[{outer}, {inner}]")
    return " ".join(out)


def sweep_presentations(seed: int) -> list[str]:
    """Presentation-file texts of one sweep pass, generated from the seed:
    FIXED_ITEM and one presentation for every (p, d, m) with p in
    {2, 3, 5}, d in 2..5 and m in {1, 2}."""
    shapes = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    texts = [FIXED_ITEM]
    for p in SWEEP_PRIMES:
        for d in SWEEP_RANKS:
            for m in SWEEP_RELATOR_COUNTS:
                lines = [f"p: {p}", f"generators: {', '.join(NAMES[:d])}", "relators:"]
                for k in range(m):
                    lines.append(f"  r{k + 1}: {_render(_relator_shape(shapes, d, k == 0), p, rng)}")
                texts.append("\n".join(lines) + "\n")
    return texts


def _combinatorially_free(words) -> bool:
    """No word is a factor of another (duplicates included) and no proper
    nonempty prefix of one equals a suffix of any (itself included)."""
    words = [tuple(w) for w in words]
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if i != j and any(v[k : k + len(u)] == u for k in range(len(v) - len(u) + 1)):
                return False
            if any(u[:k] == v[len(v) - k :] for k in range(1, min(len(u), len(v)))):
                return False
    return True


def _u_order_key(letters, c: int):
    """Sort key of the subset order with U = {1..c} and unit weights:
    degree, then letters outside U, then their rightward placement, then
    lexicographic."""
    outside = [pos + 1 for pos, x in enumerate(letters) if x > c]
    return (len(letters), len(outside), sum(outside), tuple(letters))


def mild_certificate_problems(verdict) -> list[str]:
    """Re-check a `mild` verdict's certificate without mildkit's search
    code: each high term must be the subset-order maximum of its form, and
    the high terms must be combinatorially free."""
    cert = verdict.certificate
    if cert is None:
        return ["mild verdict without certificate"]
    c = cert.decomposition.c
    highs = []
    for form, high in zip(cert.initial_forms, cert.high_terms):
        top = max((m.letters for m in form.terms), key=lambda w: _u_order_key(w, c))
        if top != high.letters:
            return [f"high term {high.letters} is not the maximum {top} of its form"]
        highs.append(top)
    if len(highs) != len(cert.initial_forms):
        return ["certificate lists fewer high terms than forms"]
    if not _combinatorially_free(highs):
        return [f"high terms {highs} are not combinatorially free"]
    return []


# ---------------------------------------------------------------------------
# cold CLI commands
# ---------------------------------------------------------------------------


def _witt(d: int, n: int) -> int:
    def mu(k):
        out, q = 1, 2
        while q * q <= k:
            if k % q == 0:
                k //= q
                if k % q == 0:
                    return 0
                out = -out
            q += 1
        return -out if k > 1 else out

    return sum(mu(k) * d ** (n // k) for k in range(1, n + 1) if n % k == 0) // n


def _extremal_series(tau, sigma, N):
    den = [0] * (N + 1)
    den[0] = 1
    for t in tau:
        den[t] -= 1
    for s in sigma:
        den[s] += 1
    out = [0] * (N + 1)
    for n in range(N + 1):
        out[n] = (1 if n == 0 else 0) - sum(den[i] * out[n - i] for i in range(1, n + 1))
    return out


def _check_series_admissible(env):
    series = _extremal_series((1, 1, 1), (2, 2, 2), 6)
    first_negative = next(n for n, c in enumerate(series) if c < 0)
    r = env["result"]
    return (
        env["verdict"] == "inadmissible"
        and r["series"] == series
        and r["at_degree"] == first_negative == 6
        and r["coefficient"] == series[6] == -27
    )


def _check_mild(env):
    cert = env["certificate"]
    return env["verdict"] == "mild" and cert is not None and cert["anick"]["status"] == "proven-strongly-free"


# The README's example commands, each with the check of its envelope.
# Verdicts are the README's (the circuit is strongly free; two_four is
# consistent at weights (2, 1); demuskin_p3 has invariant 3 and is of
# Demuškin type, hence mild; the extremal series of three quadratic
# relators on three letters first goes negative at degree 6 with -27).
# Values are derived by hand from those relators: the initial form of
# x1^2 x2^4 at weights (2, 1) is X1^2 + X2^4; the deglex order
# x1<x3<x2<x4 gives the high terms X2X1, X2X3, X4X3, X4X1 of the circuit,
# which are combinatorially free; [[x1,x3],x3] starts with
# X1X3X3 - 2 X3X1X3 + X3X3X1; the free restricted Lie algebra on two
# letters at p = 2 has W(2,4) + W(2,2) + W(2,1) basis elements in degree 4.
CLI_COMMANDS = [
    (["zassenhaus", "presentations/demuskin_p3.pres"],
     lambda e: e["verdict"] == "computed" and e["result"]["zassenhaus_invariant"] == 3),
    (["initial-forms", "presentations/two_four.pres", "--tau", "2,1"],
     lambda e: e["result"]["r"] == {"valuation": 4, "initial_form": "x1^2 + x2^4"}),
    (["anick", "presentations/circuit_d4.pres", "--order", "deglex:x1<x3<x2<x4"],
     lambda e: e["verdict"] == "proven-strongly-free"
     and e["certificate"]["high_terms"] == ["x2*x1", "x2*x3", "x4*x3", "x4*x1"]),
    (["hilbert", "presentations/circuit_d4.pres", "--degree", "8", "--budget", "10000000"],
     lambda e: e["verdict"] == "match" and e["result"]["actual"] == ladder_reference("oracle-p2", 8)),
    (["strongly-free", "presentations/two_four.pres", "--degree", "12", "--tau", "2,1"],
     lambda e: e["verdict"] == "consistent-to-degree" and e["result"]["verdict"]["degree"] == 12),
    (["mild", "presentations/demuskin_p3.pres", "--search"], _check_mild),
    (["mild", "presentations/circuit_d4.pres", "--subset", "x2,x4", "--e", "1"], _check_mild),
    (["massey", "presentations/demuskin_p3.pres", "--tuple", "x1,x3,x3"],
     lambda e: e["result"]["value"] == {"r": 1}),
    (["demuskin", "presentations/demuskin_p3.pres"],
     lambda e: e["verdict"] == "mild" and e["result"]["type"]["is_demuskin_type"] is True),
    (["hall", "--d", "2", "--n", "4", "--p", "2"],
     lambda e: e["result"]["size"] == _witt(2, 4) + _witt(2, 2) + _witt(2, 1) == 6),
    (["series-admissible", "--tau", "1,1,1", "--sigma", "2,2,2", "--degree", "6"],
     _check_series_admissible),
    (["expand", "presentations/demuskin_p3.pres", "--degree", "3"],
     lambda e: e["result"]["r"]["terms_by_degree"]
     == {"0": "1", "3": "x1^3 + x1*x3^2 + x2^3 + x3*x1*x3 + x3^2*x1"}),
]

ENVELOPE_KEYS = ["command", "inputs", "result", "verdict", "certificate", "witness", "timing_ms"]
