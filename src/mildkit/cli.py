"""Command-line front end: presentation files, command dispatch, and the
text/JSON output envelope.

Presentation file format::

    # comment
    p: 3
    generators: x1, x2, x3
    weights: 1, 1, 1          # optional, defaults to all 1
    relators:
      r1: x1^3 x2^3 [[x1, x3], x3]

Exit codes: 0 = computed (whatever the verdict), 1 = negative verdict
under --strict, 2 = input error, 3 = budget or precision error.  The
matrix-entry budget defaults to 2_000_000 and can be overridden with
--budget or the MILDKIT_BUDGET environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import freeness, massey
from .algebra import series_compare, EQUAL_TO_CUTOFF
from .errors import BudgetError, MildkitError, ParseError, PrecisionError
from .magnus import Presentation, expand, initial_form, omega, parse_word, word_to_text
from .lie import hall_basis, restricted_basis
from .orders import parse_order_spec

DEFAULT_BUDGET = 2_000_000

NEGATIVE_VERDICTS = {
    freeness.REFUTED,
    freeness.INADMISSIBLE,
    massey.CRITERION_FAILED,
    "mismatch",
    "not-demuskin-type",
    "not-combinatorially-free",
    "inconclusive",
}


# ---------------------------------------------------------------------------
# presentation files
# ---------------------------------------------------------------------------

def parse_presentation_text(text: str) -> Presentation:
    p = None
    names = None
    weights = None
    relators = []
    relator_names = set()
    in_relators = False

    def split_list(value):
        return [t for t in value.replace(",", " ").split() if t]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if not in_relators:
            if stripped == "relators:":
                in_relators = True
                continue
            key, sep, value = stripped.partition(":")
            if not sep:
                raise ParseError(f"expected 'key: value', got {stripped!r}", line=lineno)
            key = key.strip()
            value = value.strip()
            if key == "p":
                try:
                    p = int(value)
                except ValueError:
                    raise ParseError(f"p must be an integer, got {value!r}", line=lineno)
            elif key == "generators":
                names = split_list(value)
                if not names:
                    raise ParseError("empty generator list", line=lineno)
            elif key == "weights":
                try:
                    weights = tuple(int(t) for t in split_list(value))
                except ValueError:
                    raise ParseError(f"weights must be integers, got {value!r}", line=lineno)
            else:
                raise ParseError(
                    f"unknown header key {key!r} (expected p, generators, weights, relators)",
                    line=lineno,
                )
        else:
            name, sep, wordtext = stripped.partition(":")
            if not sep:
                raise ParseError(f"expected 'name: word', got {stripped!r}", line=lineno)
            name = name.strip()
            if name in relator_names:
                raise ParseError(f"duplicate relator name {name!r}", line=lineno)
            if names is None:
                raise ParseError("relators block before the generators header", line=lineno)
            relator_names.add(name)
            offset = raw.index(":", raw.find(name)) + 1
            w = parse_word(wordtext.strip(), names, line=lineno,
                           column_offset=offset + len(wordtext) - len(wordtext.lstrip()))
            relators.append((name, w))

    if p is None:
        raise ParseError("missing header key 'p'")
    if names is None:
        raise ParseError("missing header key 'generators'")
    if weights is None:
        weights = (1,) * len(names)
    try:
        return Presentation(p, tuple(names), weights, tuple(relators))
    except ValueError as exc:
        raise ParseError(str(exc))


def load_presentation(path: str) -> Presentation:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    return parse_presentation_text(text)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def _render_text(value, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(v)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _scalar(v):
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, dict)) and not v:
        return "[]" if isinstance(v, list) else "{}"
    return str(v)


def emit(args, command, inputs, result, verdict=None, certificate=None, witness=None, started=None):
    envelope = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "verdict": verdict,
        "certificate": certificate,
        "witness": witness,
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    if args.json:
        print(json.dumps(envelope, indent=2, sort_keys=False))
    else:
        print(f"== {command} ==")
        for line in _render_text({k: v for k, v in envelope.items() if k != "command"}):
            print(line)
    if args.strict and verdict in NEGATIVE_VERDICTS:
        return 1
    return 0


def _inputs(P: Presentation, cutoff=None, tau=None, extra=None):
    out = {
        "p": P.p,
        "d": P.d,
        "generators": list(P.names),
        "weights": list(tau if tau is not None else P.tau),
    }
    if cutoff is not None:
        out["cutoff"] = cutoff
    if extra:
        out.update(extra)
    return out


def _tau_arg(P, value):
    if value is None:
        return P.tau
    tau = tuple(int(t) for t in value.replace(",", " ").split())
    if len(tau) != P.d:
        raise ParseError(f"expected {P.d} weights, got {len(tau)}")
    return tau


def _resolve_cutoff(P, value):
    if value is not None:
        return value
    z = massey.zassenhaus_invariant(P, 8)
    if z is None or z is massey.INFINITY:
        return 8
    return max(8, 2 * z)


def _initial_forms(P, ctx, cutoff):
    forms = []
    for name, w in P.relators:
        forms.append((name, initial_form(w, ctx, cutoff)))
    return forms


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_expand(args, budget):
    started = time.perf_counter()
    P = load_presentation(args.file)
    tau = _tau_arg(P, args.tau)
    ctx = P.context(tau)
    picked = [r for r in P.relators if args.relator in (None, r[0])]
    if args.relator is not None and not picked:
        raise ParseError(f"no relator named {args.relator!r}")
    result = {}
    for name, w in picked:
        poly = expand(w, ctx, args.degree).poly
        by_degree = {}
        for deg in poly.degrees():
            by_degree[str(deg)] = poly.homogeneous_component(deg).format(P.names)
        result[name] = {
            "word": word_to_text(w, P.names),
            "terms_by_degree": by_degree,
        }
    return emit(args, "expand", _inputs(P, args.degree, tau), result, started=started)


def cmd_zassenhaus(args, budget):
    started = time.perf_counter()
    P = load_presentation(args.file)
    cutoff = _resolve_cutoff(P, args.cutoff)
    vals = massey.relator_valuations(P, cutoff)
    z = massey.zassenhaus_invariant(P, cutoff)
    result = {
        "zassenhaus_invariant": "unknown(>%d)" % cutoff if z is None else
        ("infinity (free presentation)" if z is massey.INFINITY else z),
        "relator_valuations": {
            name: (v if v is not None else f"unknown(>{cutoff})")
            for (name, _), v in zip(P.relators, vals)
        },
    }
    if z is None:
        result["note"] = "every relator expands to 1 at this cutoff; raise --cutoff"
    return emit(args, "zassenhaus", _inputs(P, cutoff), result,
                verdict="computed" if z is not None else "unknown", started=started)


def cmd_initial_forms(args, budget):
    started = time.perf_counter()
    P = load_presentation(args.file)
    tau = _tau_arg(P, args.tau)
    cutoff = _resolve_cutoff(P, args.cutoff) * max(tau)
    ctx = P.context(tau)
    result = {}
    for name, w in P.relators:
        val = omega(w, ctx, cutoff)
        if val is None:
            result[name] = {"valuation": f"unknown(>{cutoff})"}
        else:
            result[name] = {
                "valuation": val,
                "initial_form": initial_form(w, ctx, cutoff).format(P.names),
            }
    return emit(args, "initial-forms", _inputs(P, cutoff, tau), result, started=started)


def cmd_anick(args, budget):
    started = time.perf_counter()
    P = load_presentation(args.file)
    tau = _tau_arg(P, args.tau)
    cutoff = _resolve_cutoff(P, args.cutoff) * max(tau)
    ctx = P.context(tau)
    order = parse_order_spec(args.order, P.names, tau)
    forms = _initial_forms(P, ctx, cutoff)
    verdict = freeness.anick_check([f for _, f in forms], order)
    result = {
        "initial_forms": {name: f.format(P.names) for name, f in forms},
        "order": order.describe(),
        "verdict": verdict.as_dict(P.names),
    }
    return emit(args, "anick", _inputs(P, cutoff, tau), result,
                verdict=verdict.status,
                certificate=verdict.certificate.as_dict(P.names) if verdict.certificate else None,
                started=started)


def cmd_hilbert(args, budget):
    started = time.perf_counter()
    P = load_presentation(args.file)
    tau = _tau_arg(P, args.tau)
    ctx = P.context(tau)
    cutoff = _resolve_cutoff(P, None) * max(tau)
    forms = _initial_forms(P, ctx, cutoff)
    rhos = [f for _, f in forms]
    sigmas = [f.tau_valuation() for f in rhos]
    actual = freeness.quotient_dimensions(ctx, rhos, args.degree, budget=budget)
    target = freeness.target_series(tau, sigmas, args.degree)
    match = series_compare(actual, target) == EQUAL_TO_CUTOFF
    result = {
        "initial_forms": {name: f.format(P.names) for name, f in forms},
        "actual": list(actual.coeffs),
        "target": list(target.coeffs),
        "match_to_degree": args.degree if match else None,
        "verdict": "match" if match else "mismatch",
    }
    return emit(args, "hilbert", _inputs(P, args.degree, tau), result,
                verdict="match" if match else "mismatch", started=started)


def cmd_strongly_free(args, budget):
    started = time.perf_counter()
    P = load_presentation(args.file)
    tau = _tau_arg(P, args.tau)
    ctx = P.context(tau)
    cutoff = _resolve_cutoff(P, None) * max(tau)
    forms = _initial_forms(P, ctx, cutoff)
    verdict = freeness.strongly_free_oracle(ctx, [f for _, f in forms], args.degree, budget=budget)
    result = {
        "initial_forms": {name: f.format(P.names) for name, f in forms},
        "verdict": verdict.as_dict(P.names),
    }
    witness = None
    if verdict.refuted:
        witness = {"at_degree": verdict.at_degree, "coefficient": verdict.witness_coefficient}
    return emit(args, "strongly-free", _inputs(P, args.degree, tau), result,
                verdict=verdict.status, witness=witness, started=started)


def cmd_mild(args, budget):
    started = time.perf_counter()
    P = load_presentation(args.file)
    cutoff = _resolve_cutoff(P, args.cutoff)
    if args.search:
        verdict = massey.search_mild(P, cutoff)
    else:
        if args.subset is None or args.e is None:
            raise ParseError("either --search or both --subset and --e are required")
        subset = []
        for token in args.subset.replace(",", " ").split():
            if token not in P.names:
                raise ParseError(f"unknown generator {token!r} in --subset")
            subset.append(P.names.index(token) + 1)
        matrix = None
        if tuple(subset) != tuple(range(1, len(subset) + 1)):
            matrix = massey._subset_permutation(P.d, tuple(subset))
        verdict = massey.check_mild(P, massey.Decomposition(len(subset), args.e, matrix), cutoff)
    result = verdict.as_dict(P.names)
    note = "verdict depends only on the relator coefficients up to degree z(G)"
    result["note"] = note
    return emit(args, "mild", _inputs(P, cutoff), result, verdict=verdict.status,
                certificate=verdict.certificate.as_dict(P.names) if verdict.certificate else None,
                started=started)


def cmd_massey(args, budget):
    started = time.perf_counter()
    P = load_presentation(args.file)
    cutoff = _resolve_cutoff(P, args.cutoff)
    n = args.n
    if n is None:
        z = massey.zassenhaus_invariant(P, cutoff)
        if z is None or z is massey.INFINITY:
            raise PrecisionError("cannot infer n: Zassenhaus invariant unknown or infinite")
        n = z
    T = massey.massey_tensor(P, n, cutoff)
    result = {"tensor": T.as_dict()}
    if args.tuple:
        tokens = args.tuple.replace(",", " ").split()
        if len(tokens) != n:
            raise ParseError(f"--tuple needs {n} generator names, got {len(tokens)}")
        vectors = []
        for tok in tokens:
            if tok not in P.names:
                raise ParseError(f"unknown generator {tok!r} in --tuple")
            i = P.names.index(tok)
            vectors.append([1 if k == i else 0 for k in range(P.d)])
        value = massey.massey_value(T, vectors)
        result["tuple"] = tokens
        result["value"] = {name: v for name, v in zip(T.relator_names, value)}
    return emit(args, "massey", _inputs(P, cutoff, extra={"n": n}), result, started=started)


def cmd_demuskin(args, budget):
    started = time.perf_counter()
    P = load_presentation(args.file)
    cutoff = _resolve_cutoff(P, args.cutoff)
    report, verdict = massey._demuskin(P, cutoff, budget)
    result = {
        "type": report.as_dict(),
        "mildness": verdict.as_dict(P.names),
    }
    overall = verdict.status if report.is_type else "not-demuskin-type"
    witness = None if report.is_type else {"chi": list(report.witness)}
    return emit(args, "demuskin", _inputs(P, cutoff), result, verdict=overall,
                certificate=verdict.certificate.as_dict(P.names) if verdict.certificate else None,
                witness=witness, started=started)


def cmd_hall(args, budget):
    started = time.perf_counter()
    tau = tuple(int(t) for t in args.weights.replace(",", " ").split()) if args.weights else (1,) * args.d
    if len(tau) != args.d:
        raise ParseError(f"expected {args.d} weights, got {len(tau)}")
    inputs = {"d": args.d, "n": args.n, "weights": list(tau)}
    if args.p is not None:
        inputs["p"] = args.p
        basis = restricted_basis(args.d, args.n, args.p, tau)
        listing = [e.format(p=args.p) for e in basis]
    else:
        basis = [c for c in hall_basis(args.d, args.n, tau)]
        listing = [c.format() for c in basis]
    result = {"size": len(basis), "elements": listing}
    return emit(args, "hall", inputs, result, started=started)


def cmd_series_admissible(args, budget):
    started = time.perf_counter()
    tau = tuple(int(t) for t in args.tau.replace(",", " ").split())
    sigmas = [int(s) for s in args.sigma.replace(",", " ").split()]
    report = freeness.series_admissibility(tau, sigmas, args.degree)
    inputs = {"tau": list(tau), "sigma": sigmas, "degree": args.degree}
    result = report.as_dict()
    result["series"] = list(freeness.target_series(tau, sigmas, args.degree).coeffs)
    witness = None
    if not report.admissible:
        witness = {"at_degree": report.at_degree, "coefficient": report.coefficient}
    return emit(args, "series-admissible", inputs, result, verdict=report.status,
                witness=witness, started=started)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mildkit",
        description="Exact-arithmetic analysis of finitely presented pro-p groups",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON envelope")
    common.add_argument("--strict", action="store_true",
                        help="exit 1 on refuted/failed verdicts")
    common.add_argument("--budget", type=int, default=None,
                        help="matrix-entry budget (default %d or MILDKIT_BUDGET)" % DEFAULT_BUDGET)

    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, with_file=True):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        if with_file:
            sp.add_argument("file", help="presentation file")
        sp.set_defaults(fn=fn)
        return sp

    sp = add("expand", cmd_expand, "Magnus expansion of the relators")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--tau", help="weights override, e.g. '2,1'")
    sp.add_argument("--relator", help="restrict to one relator")

    sp = add("zassenhaus", cmd_zassenhaus, "Zassenhaus invariant")
    sp.add_argument("--cutoff", type=int)

    sp = add("initial-forms", cmd_initial_forms, "weighted valuations and initial forms")
    sp.add_argument("--cutoff", type=int)
    sp.add_argument("--tau")

    sp = add("anick", cmd_anick, "high-term criterion for the initial forms")
    sp.add_argument("--order", default="deglex",
                    help="deglex[:x1<x3<x2] or u-order:U=x1,x2[;x1<x2<x3]")
    sp.add_argument("--cutoff", type=int)
    sp.add_argument("--tau")

    sp = add("hilbert", cmd_hilbert, "quotient dimensions vs the extremal series")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--tau")

    sp = add("strongly-free", cmd_strongly_free, "series oracle for the initial forms")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--tau")

    sp = add("mild", cmd_mild, "decomposition criterion for mildness")
    sp.add_argument("--subset", help="generators spanning U, e.g. 'x1,x2'")
    sp.add_argument("--e", type=int)
    sp.add_argument("--search", action="store_true", help="search all coordinate subsets")
    sp.add_argument("--cutoff", type=int)

    sp = add("massey", cmd_massey, "Massey tensor and optional value on a tuple")
    sp.add_argument("--n", type=int)
    sp.add_argument("--tuple", help="basis tuple, e.g. 'x1,x3,x3'")
    sp.add_argument("--cutoff", type=int)

    sp = add("demuskin", cmd_demuskin, "Demuškin-type analysis of a one-relator group")
    sp.add_argument("--cutoff", type=int)

    sp = add("hall", cmd_hall, "Hall basis listing", with_file=False)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int)
    sp.add_argument("--weights")

    sp = add("series-admissible", cmd_series_admissible,
             "sign check of the extremal series", with_file=False)
    sp.add_argument("--tau", required=True)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--degree", type=int, required=True)

    return parser


def _env_budget() -> int:
    text = os.environ.get("MILDKIT_BUDGET", str(DEFAULT_BUDGET))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"MILDKIT_BUDGET must be an integer, got {text!r}") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        budget = args.budget
        if budget is None:
            budget = _env_budget()
        return args.fn(args, budget)
    except (BudgetError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MildkitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        raise


if __name__ == "__main__":
    sys.exit(main())
