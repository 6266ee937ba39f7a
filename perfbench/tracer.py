"""Per-layer tracing from outside the program.

`install()` replaces public functions and methods of mildkit's modules by
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  A function imported by name into another
module (such as `mildkit.massey.expand` or `mildkit.magnus.mul_truncated`)
is replaced there too, so calls through every binding are seen.  Spans are
kept in memory in flat arrays and summarised when the pass ends: calls,
inclusive and self time per name, and the parent/child edges.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
import weakref
from array import array
from collections import Counter

# (module, attribute) -> span name; a dotted attribute is a method
TRACED = [
    ("mildkit.cli", "parse_presentation_text", "cli.parse"),
    ("mildkit.cli", "main", "cli.main"),
    ("mildkit.magnus", "expand", "magnus.expand"),
    ("mildkit.magnus", "initial_form", "magnus.initial_form"),
    ("mildkit.algebra", "mul_truncated", "algebra.mul_truncated"),
    ("mildkit.massey", "zassenhaus_invariant", "massey.zassenhaus"),
    ("mildkit.massey", "massey_tensor", "massey.tensor"),
    ("mildkit.massey", "check_mild", "massey.check_mild"),
    ("mildkit.massey", "search_mild", "massey.search_mild"),
    ("mildkit.massey", "demuskin_type", "massey.demuskin_type"),
    ("mildkit.massey", "demuskin_mildness", "massey.demuskin"),
    ("mildkit.massey", "one_relator_verdict", "massey.one_relator"),
    ("mildkit.freeness", "anick_check", "freeness.anick"),
    ("mildkit.freeness", "strongly_free_oracle", "freeness.oracle"),
    ("mildkit.freeness", "GradedQuotient.dimension", "freeness.dimension"),
    ("mildkit.linalg", "RowReducer.add", "linalg.add"),
    ("mildkit.linalg", "RowReducer.finalize", "linalg.finalize"),
    ("mildkit.orders", "high_term", "orders.high_term"),
    ("mildkit.lie", "lie_membership", "lie.membership"),
    ("mildkit.lie", "p_power_commutator_split", "lie.split"),
]

TOP_DEGREES = 3

# prefix of the stderr line that carries a traced CLI child's summary
TRACE_MARK = "PERFBENCH-TRACE "


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent = array("l")
        self.name_ix = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.events = Counter()
        self.expand_keys: set = set()
        # quotient serial -> (sigmas, tau, {degree: (dimension, ms)})
        self.quotients: dict[int, tuple] = {}
        self._serials = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count()

    def wrap(self, name, fn, observe=None):
        ix = len(self.names)
        self.names.append(name)
        parent, name_ix, start, end, stack = self.parent, self.name_ix, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_ix)
            parent.append(stack[-1] if stack else -1)
            name_ix.append(ix)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result, end[sid] - start[sid])
            return result

        return traced

    # -- observers for counts that the span alone does not give ------------

    def _on_expand(self, args, result, dt):
        self.expand_keys.add((args[0], args[1], args[2]))

    def _on_add(self, args, result, dt):
        if result is None:
            self.events["dependent_rows"] += 1

    def _on_check_mild(self, args, result, dt):
        if result.is_mild:
            self.events["mild_found"] += 1

    def _on_dimension(self, args, result, dt):
        q, n = args[0], args[1]
        serial = self._serials.get(q)
        if serial is None:
            serial = self._serials[q] = next(self._next_serial)
            self.quotients[serial] = (tuple(q.sigmas), tuple(q.ctx.tau), {})
        degrees = self.quotients[serial][2]
        if n not in degrees:
            degrees[n] = (result, dt * 1000.0)

    def install(self):
        observers = {
            "magnus.expand": self._on_expand,
            "linalg.add": self._on_add,
            "massey.check_mild": self._on_check_mild,
            "freeness.dimension": self._on_dimension,
        }
        modules = [m for n, m in list(sys.modules.items()) if n == "mildkit" or n.startswith("mildkit.")]
        for modname, attr, name in TRACED:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), observers.get(name)))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, observers.get(name))
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    setattr(m, key, wrapped)

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive ms and self ms; edges between
        parent and child names; and the derived layer counts."""
        n = len(self.name_ix)
        child_time = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child_time[p] += self.end[sid] - self.start[sid]
        spans = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for name in self.names}
        edges = Counter()
        for sid in range(n):
            name = self.names[self.name_ix[sid]]
            dur = self.end[sid] - self.start[sid]
            s = spans[name]
            s["calls"] += 1
            s["ms"] += dur * 1000.0
            s["self_ms"] += (dur - child_time[sid]) * 1000.0
            p = self.parent[sid]
            edges[(self.names[self.name_ix[p]] if p >= 0 else "-", name)] += 1
        return {
            "spans": spans,
            "edges": [[a, b, c] for (a, b), c in sorted(edges.items())],
            "events": dict(self.events),
            "expand_distinct": len(self.expand_keys),
            "quotients": quotient_shapes(self.quotients.values()),
        }


def quotient_shapes(quotients) -> dict:
    """Rows, columns, rank and time of the TOP_DEGREES deepest degrees of
    every quotient, summed over quotients, from its public dimensions:
    rows = sum_i b_{n - sigma_i}, cols = sum_j b_{n - tau_j},
    rank = cols - b_n.  Also the rows summed over all degrees."""
    top = [{"ms": 0.0, "rows": 0, "cols": 0, "rank": 0} for _ in range(TOP_DEGREES)]
    rows_all = 0
    for sigmas, tau, degrees in quotients:
        b = {k: dim for k, (dim, _) in degrees.items()}

        def shape(n):
            rows = sum(b[n - s] for s in sigmas if n - s >= 0)
            cols = sum(b[n - t] for t in tau if n - t >= 0)
            return rows, cols, cols - b[n]

        rows_all += sum(shape(n)[0] for n in degrees if n)
        deepest = max(degrees)
        for r in range(TOP_DEGREES):
            n = deepest - r
            if n < 1:
                break
            rows, cols, rank = shape(n)
            top[r]["ms"] += degrees[n][1]
            top[r]["rows"] += rows
            top[r]["cols"] += cols
            top[r]["rank"] += rank
    return {"top": top, "rows_all": rows_all}


def merge_summaries(summaries) -> dict:
    """Sum the summaries of several processes (the cold CLI children)."""
    spans: dict = {}
    edges = Counter()
    events = Counter()
    top = [{"ms": 0.0, "rows": 0, "cols": 0, "rank": 0} for _ in range(TOP_DEGREES)]
    out = {"spans": spans, "events": events, "expand_distinct": 0, "quotients": {"top": top, "rows_all": 0}}
    for s in summaries:
        for name, v in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            for k in acc:
                acc[k] += v[k]
        for a, b, c in s["edges"]:
            edges[(a, b)] += c
        events.update(s["events"])
        out["expand_distinct"] += s["expand_distinct"]
        out["quotients"]["rows_all"] += s["quotients"]["rows_all"]
        for acc, v in zip(top, s["quotients"]["top"]):
            for k in acc:
                acc[k] += v[k]
    out["edges"] = [[a, b, c] for (a, b), c in sorted(edges.items())]
    out["events"] = dict(events)
    return out
