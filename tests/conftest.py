import importlib.util
import random
from pathlib import Path

import mildkit.magnus
from mildkit import Context, Monomial

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """The benchmark's workload definitions, `perfbench/workloads.py`."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_worker(monkeypatch):
    """The benchmark's one-pass runner, `perfbench/worker.py`, with its
    directory on the path for the modules it imports."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("worker", ROOT / "perfbench" / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_expansions(monkeypatch) -> list:
    """(word, context, cutoff) of every expansion that the kernel computes
    below expand's memo, in order.  The memo is cleared first, so a key
    that an earlier test computed is counted again."""
    computed, depth = [], [0]
    kernel = mildkit.magnus._expand_word

    def counted(w, ctx, cutoff):
        if not depth[0]:  # the kernel recurses into subwords
            computed.append((w, ctx, cutoff))
        depth[0] += 1
        try:
            return kernel(w, ctx, cutoff)
        finally:
            depth[0] -= 1

    mildkit.magnus._expansion.cache_clear()
    monkeypatch.setattr(mildkit.magnus, "_expand_word", counted)
    return computed


def random_monomial(rng: random.Random, ctx: Context, max_len=5) -> Monomial:
    letters = tuple(rng.randint(1, ctx.d) for _ in range(rng.randint(0, max_len)))
    return ctx.monomial(letters)


def reduce_fully(red, row: dict[int, int]) -> dict[int, int]:
    """Reference reduction of a row against a RowReducer's pivots: every
    pivot column present is eliminated, not only the leading one.  It ends
    because pivot tails only touch larger columns."""
    p = red.p
    row = {k: v % p for k, v in row.items() if v % p}
    while hits := [k for k in row if k in red.pivots]:
        lead = min(hits)
        c = row[lead]
        for k, v in red.pivots[lead].items():
            nv = (row.get(k, 0) - c * v) % p
            if nv:
                row[k] = nv
            else:
                row.pop(k, None)
    return row


def random_poly(rng: random.Random, ctx: Context, max_terms=4, max_len=5):
    items = []
    for _ in range(rng.randint(0, max_terms)):
        items.append((random_monomial(rng, ctx, max_len), rng.randint(1, ctx.p - 1)))
    return ctx.poly(items)
