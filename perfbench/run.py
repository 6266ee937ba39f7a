"""The mildkit benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a mildkit checkout; mildkit is imported from `src/`.
One caller, one thread, a closed loop: the runner starts one pass at a
time, each in a fresh process (`worker.py`), so no in-process cache carries
over from one pass to the next.  Passes repeat until `--seconds` would be
exceeded by one more pass, and at least the workload's minimum number of
times (TAIL) so that the tail percentile has ten samples beyond it.

With `--trace 0` the last line of stdout is the JSON result with the
end-to-end metrics, medians over the passes.  With `--trace 1` untraced
and traced passes alternate; the traced ones wrap mildkit's public
functions from outside (`tracer.py`) and the result carries the per-layer
metrics, the traced passes' span summary is printed above it, and
`trace.overhead_s` is the traced minus the untraced median pass time.

Workloads:
  oracle-p2      a fresh GradedQuotient of circuit_d4 (p = 2, d = 4, four
                 quadratic relators), dimension(n) for n = 0..12: one item
  oracle-p3      the same for demuskin_p3 (p = 3, d = 3, one cubic relator)
                 up to n = 11
  verdict-sweep  the library verdict pipeline on 25 seeded presentations
  cli-cold       the README's 12 example commands with --json, each a cold
                 child process
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("oracle-p2", "oracle-p3", "verdict-sweep", "cli-cold")
# (minimum passes, tail percentile).  The tail is the highest percentile
# with at least ten item latencies beyond it at the minimum pass count,
# fixed per workload so that it does not move with the number of passes a
# run happens to fit.  A ladder is one item per pass, so its p90 has fewer
# than ten samples beyond it.
TAIL = {"oracle-p2": (5, 90), "oracle-p3": (5, 90), "verdict-sweep": (3, 85), "cli-cold": (9, 90)}
HARD_STOP_S = 150.0
IMPORT_PROBE = "import time; t = time.perf_counter(); import mildkit.cli; print(time.perf_counter() - t)"


def spawn(cmd):
    return subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                          stdout=subprocess.PIPE, check=True).stdout


def run_pass(workload, seed, traced):
    t_spawn = time.monotonic()
    out = spawn([sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), "1" if traced else "0"])
    result = json.loads(out.decode().splitlines()[-1])
    result["setup_s"] = result["t_first"] - t_spawn
    result["duration_s"] = time.monotonic() - t_spawn
    result["traced"] = traced
    return result


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, tail_percentile):
    latencies = [x for p in passes for x in p["latencies_ms"]]
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "items_per_s": (statistics.median(p["attempted"] / p["wall_s"] for p in passes), "1/s"),
        "item_p50_ms": (statistics.median(latencies), "ms"),
        "item_tail_ms": (percentile(latencies, tail_percentile), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


TOP_NAMES = ("ntop", "ntop-1", "ntop-2")


def layer_counts(trace):
    """The per-layer counts of one traced pass; they must repeat exactly."""
    spans, events = trace["spans"], trace["events"]

    def calls(name):
        return spans.get(name, {"calls": 0})["calls"]

    out = {}
    for name, top in zip(TOP_NAMES, trace["quotients"]["top"]):
        out[f"freeness.rows.{name}"] = (top["rows"], "count")
        out[f"freeness.cols.{name}"] = (top["cols"], "count")
        out[f"freeness.rank.{name}"] = (top["rank"], "count")
        out[f"freeness.row_yield.{name}"] = (top["rank"] / top["rows"] if top["rows"] else 0.0, "ratio")
    expands, tried = calls("magnus.expand"), calls("massey.check_mild")
    out.update({
        "freeness.anick_calls": (calls("freeness.anick"), "count"),
        "linalg.add_calls": (calls("linalg.add"), "count"),
        "linalg.dependent_rows": (events.get("dependent_rows", 0), "count"),
        "magnus.expand_calls": (expands, "count"),
        "magnus.expand_distinct": (trace["expand_distinct"], "count"),
        "magnus.expand_reuse_ratio": (trace["expand_distinct"] / expands if expands else 0.0, "ratio"),
        "magnus.initial_form_calls": (calls("magnus.initial_form"), "count"),
        "algebra.mul_truncated_calls": (calls("algebra.mul_truncated"), "count"),
        "massey.zassenhaus_calls": (calls("massey.zassenhaus"), "count"),
        "massey.tensor_calls": (calls("massey.tensor"), "count"),
        "massey.check_mild_calls": (tried, "count"),
        "massey.search_hit_ratio": (events.get("mild_found", 0) / tried if tried else 0.0, "ratio"),
        "massey.demuskin_calls": (calls("massey.demuskin"), "count"),
        "orders.high_term_calls": (calls("orders.high_term"), "count"),
        "lie.membership_calls": (calls("lie.membership"), "count"),
        "cli.parse_calls": (calls("cli.parse"), "count"),
    })
    return out


def layer_times(trace):
    ms = {name: s["ms"] for name, s in trace["spans"].items()}
    out = {f"freeness.degree_ms.{name}": top["ms"] for name, top in zip(TOP_NAMES, trace["quotients"]["top"])}
    for metric, span in [
        ("freeness.quotient_ms", "freeness.dimension"),
        ("linalg.add_ms", "linalg.add"),
        ("linalg.finalize_ms", "linalg.finalize"),
        ("magnus.expand_ms", "magnus.expand"),
        ("magnus.initial_form_ms", "magnus.initial_form"),
        ("algebra.mul_truncated_ms", "algebra.mul_truncated"),
        ("cli.parse_ms", "cli.parse"),
    ]:
        out[metric] = ms.get(span, 0.0)
    return out


def per_layer(passes, workload, problems):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    counts = [layer_counts(p["trace"]) for p in traced]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced passes")
    if workload in ("oracle-p2", "oracle-p3"):
        trace = traced[0]["trace"]
        if trace["spans"]["linalg.add"]["calls"] != trace["quotients"]["rows_all"]:
            problems.append("RowReducer.add calls differ from the quotient rows summed over degrees")
    out = dict(counts[-1])
    times = [layer_times(p["trace"]) for p in traced]
    for name in times[0]:
        out[name] = (statistics.median(t[name] for t in times), "ms")
    imports = [float(spawn([sys.executable, "-c", IMPORT_PROBE])) * 1000.0 for _ in range(3)]
    out["cli.import_ms"] = (statistics.median(imports), "ms")
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain)
    out["trace.overhead_s"] = (overhead, "s")
    return out


def print_trace(trace):
    print("spans (calls, inclusive ms, self ms) of the last traced pass:")
    for name, s in sorted(trace["spans"].items(), key=lambda kv: -kv[1]["self_ms"]):
        if s["calls"]:
            print(f"  {name:24s} {s['calls']:9d} {s['ms']:11.1f} {s['self_ms']:11.1f}")
    print("edges (parent -> child: calls):")
    for a, b, c in trace["edges"]:
        print(f"  {a} -> {b}: {c}")


def metadata():
    lines = 0
    src = os.path.join(ROOT, "src", "mildkit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    rev = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, src/ lines {lines}, revision {rev}"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mildkit", "cli.py")) or not os.path.isdir(
        os.path.join(ROOT, "presentations")
    ):
        sys.exit("run from the root of a mildkit checkout: src/mildkit and presentations/ are missing")

    print(metadata())
    # untimed warm-up: fills the bytecode caches of mildkit and the benchmark
    spawn([sys.executable, "-c", f"import sys; sys.path.insert(0, {HERE!r}); import mildkit.cli, worker"])

    started = time.monotonic()
    passes = []
    while time.monotonic() - started < HARD_STOP_S:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(args.workload, args.seed, traced))
        # the next pass is of the other kind when tracing
        kind = [p for p in passes if p["traced"] == (bool(args.trace) and not traced)] or passes
        next_cost = statistics.median(p["duration_s"] for p in kind)
        needed = 4 if args.trace else TAIL[args.workload][0]
        if len(passes) >= needed and time.monotonic() - started + next_cost > args.seconds:
            break

    problems = [q for p in passes for q in p["problems"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    tail = TAIL[args.workload][1]
    samples = sum(len(p["latencies_ms"]) for p in plain)
    print(f"{args.workload}: {len(plain)} untraced passes, {samples} item latencies "
          f"(item_tail_ms is p{tail}), fail_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    print("pass wall_s: " + " ".join(f"{p['wall_s']:.4f}" for p in plain))
    print("pass setup_s: " + " ".join(f"{p['setup_s']:.4f}" for p in plain))
    if plain[0]["command_ms"] is not None:
        print(f"cli.command_ms (sum of the envelopes' timing_ms): "
              f"{statistics.median(p['command_ms'] for p in plain):.1f}")
    if args.trace:
        metrics = per_layer(passes, args.workload, problems)
        print_trace([p for p in passes if p["traced"]][-1]["trace"])
    else:
        metrics = end_to_end(plain, tail)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    for q in problems[:10]:
        print(f"problem: {q}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
