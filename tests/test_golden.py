"""Golden CLI envelopes: every run below must print the envelope, write the
stderr and exit with the code recorded in `golden_envelopes.json`, apart
from `timing_ms`, which is dropped.

The runs are the README's commands and, on every corpus file, the
presentation commands with their flags, error exits included.  After a
change that is meant to alter an envelope, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

and review its diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from conftest import load_workloads
from mildkit.cli import load_presentation, main

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = Path(__file__).resolve().parent / "golden_envelopes.json"


def _file_runs(path: Path) -> list:
    """The presentation commands on one corpus file, with paths relative
    to the repository root."""
    f = str(path.relative_to(ROOT))
    names = load_presentation(str(path)).names
    first, last = names[0], names[-1]
    return [
        ["zassenhaus", f],
        ["zassenhaus", f, "--cutoff", "1"],
        ["initial-forms", f],
        ["anick", f],
        ["hilbert", f, "--degree", "6"],
        ["strongly-free", f, "--degree", "6"],
        ["expand", f, "--degree", "4"],
        ["mild", f, "--search"],
        ["mild", f, "--search", "--cutoff", "3"],
        ["mild", f, "--subset", first, "--e", "1"],
        ["mild", f, "--subset", last, "--e", "1"],
        ["mild", f, "--subset", f"{last},{first}", "--e", "1"],
        ["mild", f],
        ["massey", f],
        ["massey", f, "--cutoff", "1"],
        ["massey", f, "--n", "2"],
        ["massey", f, "--n", "9"],
        ["demuskin", f],
        ["demuskin", f, "--cutoff", "3"],
        ["demuskin", f, "--budget", "5"],
    ]


def runs() -> list:
    readme = [argv for argv, _ in load_workloads().CLI_COMMANDS]
    corpus = [argv for path in sorted((ROOT / "presentations").glob("*.pres"))
              for argv in _file_runs(path)]
    # one generator makes the first and the last the same
    return [list(t) for t in dict.fromkeys(tuple(argv) for argv in readme + corpus)]


def record(argv) -> dict:
    """Exit code, stderr and the JSON envelope without timing_ms of one run
    of main; presentation paths are relative to the repository root."""
    out, err = io.StringIO(), io.StringIO()
    args = [str(ROOT / a) if a.endswith(".pres") else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*args, "--json"])
    envelope = json.loads(out.getvalue()) if out.getvalue() else None
    if envelope is not None:
        envelope.pop("timing_ms")
    return {"argv": argv, "code": code, "stderr": err.getvalue(), "envelope": envelope}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_run(golden):
    assert [g["argv"] for g in golden] == runs()


@pytest.mark.parametrize("argv", runs(), ids=" ".join)
def test_envelope_matches_golden(golden, argv):
    want = next(g for g in golden if g["argv"] == argv)
    got = record(argv)
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # the keys in the same order too


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([record(argv) for argv in runs()], indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
