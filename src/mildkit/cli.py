"""Command-line front end: the command table and the text/JSON output
envelope.

Each command is one row of COMMANDS: its name, its function, its help line
and its arguments.  An argument named by a string is one of the flags in
SHARED (the presentation file, --cutoff, --tau, --degree), declared there
once; a (flag, keywords) pair is the command's own.  `main` starts the
clock, builds one Invocation, calls the command and prints the envelope; a
command only returns the envelope's fields.  An Invocation works out what
the commands read: the presentation, its weights, the cutoff and the
initial forms.  Commands call only the public API of magnus (which also
reads the presentation files) and massey.

Exit codes: 0 = computed (whatever the verdict), 1 = negative verdict
under --strict, 2 = input error, 3 = budget or precision error; a reader
that closes stdout early (``| head``) ends the command quietly with 0.  The
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
from .magnus import expand, initial_form, int_list, load_presentation, split_list, word_to_text
# re-exported: the benchmark's tracer wraps mildkit.cli.parse_presentation_text
from .magnus import parse_presentation_text  # noqa: F401
from .lie import hall_basis_by_tau_degree, restricted_basis
from .orders import parse_order_spec

DEFAULT_BUDGET = 2_000_000

NEGATIVE_VERDICTS = {
    freeness.REFUTED,
    freeness.INADMISSIBLE,
    massey.CRITERION_FAILED,
    "mismatch",
    "not-demuskin-type",
}


# ---------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------

class Invocation:
    """What one command reads: the parsed arguments and the budget and,
    for a command with a presentation file, the presentation and its
    weights (--tau or the file's)."""

    def __init__(self, args, budget: int):
        self.args = args
        self.budget = budget
        if not hasattr(args, "file"):
            return
        self.P = P = load_presentation(args.file)
        self.tau = P.tau
        if getattr(args, "tau", None) is not None:
            self.tau = int_list(args.tau, "--tau")
            if len(self.tau) != P.d:
                raise ParseError(f"expected {P.d} weights, got {len(self.tau)}")
        self.ctx = P.context(self.tau)

    def cutoff(self) -> int:
        """--cutoff, or else max(8, 2z) with z(G) read at cutoff 8."""
        if getattr(self.args, "cutoff", None) is not None:
            return self.args.cutoff
        z = massey.zassenhaus_invariant(self.P, 8)
        if z is None or z is massey.INFINITY:
            return 8
        return max(8, 2 * z)

    def weighted_cutoff(self) -> int:
        """The cutoff of the weighted initial forms: cutoff * max(tau)."""
        return self.cutoff() * max(self.tau)

    def initial_forms(self) -> dict:
        """The relators' initial forms at the weights, by relator name."""
        cutoff = self.weighted_cutoff()
        return {name: initial_form(w, self.ctx, cutoff) for name, w in self.P.relators}

    def inputs(self, cutoff=None, **extra) -> dict:
        out = {
            "p": self.P.p,
            "d": self.P.d,
            "generators": list(self.P.names),
            "weights": list(self.tau),
        }
        if cutoff is not None:
            out["cutoff"] = cutoff
        out.update(extra)
        return out


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


def emit(args, started, inputs, result, verdict=None, certificate=None, witness=None):
    envelope = {
        "command": args.command,
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
        print(f"== {args.command} ==")
        for line in _render_text({k: v for k, v in envelope.items() if k != "command"}):
            print(line)
    if args.strict and verdict in NEGATIVE_VERDICTS:
        return 1
    return 0


# ---------------------------------------------------------------------------
# commands: each returns the fields of its envelope
# ---------------------------------------------------------------------------

def cmd_expand(run):
    P, args = run.P, run.args
    picked = [r for r in P.relators if args.relator in (None, r[0])]
    if args.relator is not None and not picked:
        raise ParseError(f"no relator named {args.relator!r}")
    result = {}
    for name, w in picked:
        poly = expand(w, run.ctx, args.degree).poly
        by_degree = {}
        for deg in poly.degrees():
            by_degree[str(deg)] = poly.homogeneous_component(deg).format(P.names)
        result[name] = {
            "word": word_to_text(w, P.names),
            "terms_by_degree": by_degree,
        }
    return {"inputs": run.inputs(args.degree), "result": result}


def cmd_zassenhaus(run):
    cutoff = run.cutoff()
    z = massey.zassenhaus_invariant(run.P, cutoff)
    result = {
        "zassenhaus_invariant": "unknown(>%d)" % cutoff if z is None else
        ("infinity (free presentation)" if z is massey.INFINITY else z),
        "relator_valuations": {
            name: f"unknown(>{cutoff})" if e.valuation is None else e.valuation
            for (name, _), e in zip(run.P.relators, run.P.expansions(cutoff))
        },
    }
    if z is None:
        result["note"] = "every relator expands to 1 at this cutoff; raise --cutoff"
    return {"inputs": run.inputs(cutoff), "result": result,
            "verdict": "computed" if z is not None else "unknown"}


def cmd_initial_forms(run):
    cutoff = run.weighted_cutoff()
    result = {}
    for name, w in run.P.relators:
        e = expand(w, run.ctx, cutoff)
        if e.valuation is None:
            result[name] = {"valuation": f"unknown(>{cutoff})"}
        else:
            result[name] = {
                "valuation": e.valuation,
                "initial_form": e.component(e.valuation).format(run.P.names),
            }
    return {"inputs": run.inputs(cutoff), "result": result}


def cmd_anick(run):
    names = run.P.names
    order = parse_order_spec(run.args.order, names, run.tau)
    forms = run.initial_forms()
    verdict = freeness.anick_check(list(forms.values()), order)
    result = {
        "initial_forms": {name: f.format(names) for name, f in forms.items()},
        "order": order.describe(),
        "verdict": verdict.as_dict(names),
    }
    return {"inputs": run.inputs(run.weighted_cutoff()), "result": result,
            "verdict": verdict.status,
            "certificate": verdict.certificate.as_dict(names) if verdict.certificate else None}


def cmd_hilbert(run):
    degree = run.args.degree
    forms = run.initial_forms()
    rhos = list(forms.values())
    sigmas = [f.tau_valuation() for f in rhos]
    actual = freeness.quotient_dimensions(run.ctx, rhos, degree, budget=run.budget)
    target = freeness.target_series(run.tau, sigmas, degree)
    match = series_compare(actual, target) == EQUAL_TO_CUTOFF
    result = {
        "initial_forms": {name: f.format(run.P.names) for name, f in forms.items()},
        "actual": list(actual.coeffs),
        "target": list(target.coeffs),
        "match_to_degree": degree if match else None,
        "verdict": "match" if match else "mismatch",
    }
    return {"inputs": run.inputs(degree), "result": result, "verdict": result["verdict"]}


def cmd_strongly_free(run):
    degree = run.args.degree
    forms = run.initial_forms()
    verdict = freeness.strongly_free_oracle(run.ctx, list(forms.values()), degree, budget=run.budget)
    result = {
        "initial_forms": {name: f.format(run.P.names) for name, f in forms.items()},
        "verdict": verdict.as_dict(run.P.names),
    }
    witness = None
    if verdict.refuted:
        witness = {"at_degree": verdict.at_degree, "coefficient": verdict.witness_coefficient}
    return {"inputs": run.inputs(degree), "result": result, "verdict": verdict.status,
            "witness": witness}


def cmd_mild(run):
    P, args, cutoff = run.P, run.args, run.cutoff()
    if args.search:
        verdict = massey.search_mild(P, cutoff)
    else:
        if args.subset is None or args.e is None:
            raise ParseError("either --search or both --subset and --e are required")
        subset = []
        for token in split_list(args.subset):
            if token not in P.names:
                raise ParseError(f"unknown generator {token!r} in --subset")
            if P.names.index(token) + 1 in subset:
                raise ParseError(f"duplicate generator {token!r} in --subset")
            subset.append(P.names.index(token) + 1)
        verdict = massey.check_mild(P, massey.subset_decomposition(P.d, subset, args.e), cutoff)
    result = verdict.as_dict(P.names)
    result["note"] = "verdict depends only on the relator coefficients up to degree z(G)"
    return {"inputs": run.inputs(cutoff), "result": result, "verdict": verdict.status,
            "certificate": verdict.certificate.as_dict(P.names) if verdict.certificate else None}


def cmd_massey(run):
    P, args, cutoff = run.P, run.args, run.cutoff()
    n = args.n
    if n is None:
        n = massey.zassenhaus_invariant(P, cutoff)
        if n is None or n is massey.INFINITY:
            raise PrecisionError("cannot infer n: Zassenhaus invariant unknown or infinite")
    T = massey.massey_tensor(P, n, cutoff)
    result = {"tensor": T.as_dict()}
    if args.tuple:
        tokens = split_list(args.tuple)
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
    return {"inputs": run.inputs(cutoff, n=n), "result": result}


def cmd_demuskin(run):
    P, cutoff = run.P, run.cutoff()
    report, verdict = massey.demuskin(P, cutoff, run.budget)
    result = {
        "type": report.as_dict(),
        "mildness": verdict.as_dict(P.names),
    }
    return {"inputs": run.inputs(cutoff), "result": result,
            "verdict": verdict.status if report.is_type else "not-demuskin-type",
            "certificate": verdict.certificate.as_dict(P.names) if verdict.certificate else None,
            "witness": None if report.is_type else {"chi": list(report.witness)}}


def cmd_hall(run):
    args = run.args
    if args.d < 1 or args.n < 1:
        raise ParseError("need d >= 1 and n >= 1")
    tau = int_list(args.weights, "--weights") if args.weights else (1,) * args.d
    if len(tau) != args.d:
        raise ParseError(f"expected {args.d} weights, got {len(tau)}")
    inputs = {"d": args.d, "n": args.n, "weights": list(tau)}
    if args.p is not None:
        inputs["p"] = args.p
        basis = restricted_basis(args.d, args.n, args.p, tau)
        listing = [e.format(p=args.p) for e in basis]
    else:
        basis = hall_basis_by_tau_degree(args.d, args.n, tau)
        listing = [c.format() for c in basis]
    return {"inputs": inputs, "result": {"size": len(basis), "elements": listing}}


def cmd_series_admissible(run):
    args = run.args
    tau = int_list(args.tau, "--tau")
    sigmas = list(int_list(args.sigma, "--sigma"))
    report = freeness.series_admissibility(tau, sigmas, args.degree)
    inputs = {"tau": list(tau), "sigma": sigmas, "degree": args.degree}
    result = report.as_dict()
    result["series"] = list(freeness.target_series(tau, sigmas, args.degree).coeffs)
    witness = None
    if not report.admissible:
        witness = {"at_degree": report.at_degree, "coefficient": report.coefficient}
    return {"inputs": inputs, "result": result, "verdict": report.status, "witness": witness}


# ---------------------------------------------------------------------------
# the command table and argument parsing
# ---------------------------------------------------------------------------

# the flags that several commands take, each declared once
SHARED = {
    "file": {"help": "presentation file"},
    "--cutoff": {"type": int},
    "--tau": {"help": "weights override, e.g. '2,1'"},
    "--degree": {"type": int, "required": True},
}

# name, function, help line, arguments: a name from SHARED or (flag, keywords)
COMMANDS = [
    ("expand", cmd_expand, "Magnus expansion of the relators",
     ["file", "--degree", "--tau", ("--relator", {"help": "restrict to one relator"})]),
    ("zassenhaus", cmd_zassenhaus, "Zassenhaus invariant", ["file", "--cutoff"]),
    ("initial-forms", cmd_initial_forms, "weighted valuations and initial forms",
     ["file", "--cutoff", "--tau"]),
    ("anick", cmd_anick, "high-term criterion for the initial forms",
     ["file", ("--order", {"default": "deglex",
                           "help": "deglex[:x1<x3<x2] or u-order:U=x1,x2[;x1<x2<x3]"}),
      "--cutoff", "--tau"]),
    ("hilbert", cmd_hilbert, "quotient dimensions vs the extremal series",
     ["file", "--degree", "--tau"]),
    ("strongly-free", cmd_strongly_free, "series oracle for the initial forms",
     ["file", "--degree", "--tau"]),
    ("mild", cmd_mild, "decomposition criterion for mildness",
     ["file", ("--subset", {"help": "generators spanning U, e.g. 'x1,x2'"}), ("--e", {"type": int}),
      ("--search", {"action": "store_true", "help": "search all coordinate subsets"}), "--cutoff"]),
    ("massey", cmd_massey, "Massey tensor and optional value on a tuple",
     ["file", ("--n", {"type": int}), ("--tuple", {"help": "basis tuple, e.g. 'x1,x3,x3'"}),
      "--cutoff"]),
    ("demuskin", cmd_demuskin, "Demuškin-type analysis of a one-relator group",
     ["file", "--cutoff"]),
    ("hall", cmd_hall, "Hall basis listing",
     [("--d", {"type": int, "required": True}), ("--n", {"type": int, "required": True}),
      ("--p", {"type": int}), ("--weights", {})]),
    ("series-admissible", cmd_series_admissible, "sign check of the extremal series",
     [("--tau", {"required": True}), ("--sigma", {"required": True}), "--degree"]),
]


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
    for name, fn, help_text, arguments in COMMANDS:
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.set_defaults(fn=fn)
        for arg in arguments:
            flag, keywords = (arg, SHARED[arg]) if isinstance(arg, str) else arg
            sp.add_argument(flag, **keywords)
    return parser


def _budget(args) -> int:
    """--budget, else MILDKIT_BUDGET, else the default; 0 refuses any
    nonempty matrix, and a negative budget is an input error."""
    source, budget = "--budget", args.budget
    if budget is None:
        source, text = "MILDKIT_BUDGET", os.environ.get("MILDKIT_BUDGET", str(DEFAULT_BUDGET))
        try:
            budget = int(text)
        except ValueError:
            raise ValueError(f"MILDKIT_BUDGET must be an integer, got {text!r}") from None
    if budget < 0:
        raise ValueError(f"{source} must be >= 0, got {budget}")
    return budget


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        fields = args.fn(Invocation(args, _budget(args)))
    except (BudgetError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MildkitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        raise
    try:
        code = emit(args, started, **fields)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # of what is still buffered at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    return code


if __name__ == "__main__":
    sys.exit(main())
