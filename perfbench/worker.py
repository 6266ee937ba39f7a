"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1>

Run from the root of a mildkit checkout.  The process imports mildkit from
`src/`, sets up the workload's inputs, stamps the monotonic clock at its
first timed call, runs the pass, checks every output against its reference
and prints one JSON line: the stamp, the pass's wall time, the latency of
every item, how many items were attempted and how many failed (with the
first problems), the peak RSS and, when traced, the span summary.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import mildkit  # noqa: E402
import mildkit.cli  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACE_MARK, Tracer, merge_summaries  # noqa: E402

# the console script `mildkit`, as pip would install it
CLI_MAIN = "import sys; from mildkit.cli import main; sys.exit(main())"


class Pass:
    def __init__(self):
        self.t_first = None
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.command_ms = None  # cli-cold: the envelopes' timing_ms, summed

    def start(self):
        self.t_first = time.monotonic()
        self.t0 = time.perf_counter()

    def item(self, label, fn):
        """Time one item; fn returns its list of problems."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            problems = fn()
        except Exception:  # any exception is a failed item, reported with its traceback
            problems = [traceback.format_exc(limit=3)]
        self.latencies_ms.append((time.perf_counter() - t) * 1000.0)
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def oracle_ladder(workload, ps: Pass):
    """One item: a fresh quotient answered up to the top degree, which is
    what one strongly_free_oracle or quotient_dimensions call costs."""
    path, top = workloads.LADDERS[workload]
    P = mildkit.cli.load_presentation(os.path.join(ROOT, path))
    ctx = P.context()
    forms = [mildkit.initial_form(w, ctx, workloads.LADDER_CUTOFF) for w in P.relator_words()]
    reference = workloads.ladder_reference(workload, top)
    ps.start()
    ps.item(workload, lambda: _ladder_problems(ctx, forms, reference))


def _ladder_problems(ctx, forms, reference):
    q = mildkit.freeness.GradedQuotient(ctx, forms)
    dims = [q.dimension(n) for n in range(len(reference))]
    return [f"dimension {got} at n = {n}, reference {want}"
            for n, (got, want) in enumerate(zip(dims, reference)) if got != want]


def verdict_sweep(seed, ps: Pass):
    presentations = [mildkit.cli.parse_presentation_text(t) for t in workloads.sweep_presentations(seed)]
    ps.start()
    for k, P in enumerate(presentations):
        ps.item(f"item {k} (p={P.p}, d={P.d}, m={P.m})", lambda: _verdict_pipeline(P))


def _verdict_pipeline(P):
    """The library verdict pipeline on one presentation, with the checks
    that do not use mildkit's search code."""
    problems = []
    verdicts = [mildkit.search_mild(P)]
    if P.m == 1:
        verdicts.append(mildkit.demuskin_mildness(P))
        mildkit.one_relator_verdict(P)
    for v in verdicts:
        if v.is_mild:
            problems += workloads.mild_certificate_problems(v)
    ctx = P.context()
    forms = [mildkit.initial_form(w, ctx, 8) for w in P.relator_words()]
    anick = mildkit.anick_check(forms, mildkit.DegLexOrder(ctx.tau))
    oracle = mildkit.strongly_free_oracle(
        ctx, forms, workloads.ORACLE_DEGREE[P.d], budget=workloads.CLI_DEFAULT_BUDGET
    )
    if anick.proven and oracle.refuted:
        problems.append(f"anick proves strong freeness but the oracle refutes it at degree {oracle.at_degree}")
    return problems


def cli_cold(trace, ps: Pass, child_traces: list):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("MILDKIT_BUDGET", None)
    if trace:
        prefix = [sys.executable, os.path.join(ROOT, "perfbench", "trace_cli.py")]
    else:
        prefix = [sys.executable, "-c", CLI_MAIN]
    ps.command_ms = 0.0
    ps.start()
    for argv, check in workloads.CLI_COMMANDS:
        ps.item(" ".join(argv), lambda: _run_command(prefix, argv, check, env, ps, child_traces))


def _run_command(prefix, argv, check, env, ps: Pass, child_traces: list):
    """Run one cold child to completion and check its envelope."""
    proc = subprocess.Popen(
        prefix + argv + ["--json"], cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    out, err = proc.communicate()
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {err.decode(errors='replace')[-300:]}"]
    for line in err.decode().splitlines():
        if line.startswith(TRACE_MARK):
            child_traces.append(json.loads(line[len(TRACE_MARK):]))
    try:
        envelope = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON envelope: {exc}"]
    if list(envelope) != workloads.ENVELOPE_KEYS or envelope["command"] != argv[0]:
        return [f"malformed envelope: {out.decode()[:300]}"]
    ps.command_ms += envelope["timing_ms"]
    return [] if check(envelope) else [f"envelope differs from the reference: {out.decode()[:300]}"]


def main():
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    tracer = None
    if trace and workload != "cli-cold":
        tracer = Tracer()
        tracer.install()
    ps = Pass()
    child_traces: list = []
    if workload in workloads.LADDERS:
        oracle_ladder(workload, ps)
    elif workload == "verdict-sweep":
        verdict_sweep(seed, ps)
    else:
        cli_cold(trace, ps, child_traces)
    wall = time.perf_counter() - ps.t0
    # for cli-cold, the largest of the children (Linux reports their maximum)
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss
    out = {
        "t_first": ps.t_first,
        "wall_s": wall,
        "latencies_ms": ps.latencies_ms,
        "attempted": ps.attempted,
        "failed": ps.failed,
        "problems": ps.problems[:5],
        "peak_rss_mb": rss_kb / 1024.0,
        "command_ms": ps.command_ms,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
    elif trace:
        out["trace"] = merge_summaries(child_traces)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
