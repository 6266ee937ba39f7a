import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

from conftest import count_expansions, load_workloads
from mildkit import cli, magnus
from mildkit.cli import main
from mildkit.magnus import load_presentation, parse_presentation_text
from mildkit.errors import ParseError

ROOT = Path(__file__).resolve().parent.parent
PRES = ROOT / "presentations"


# the benchmark's README commands that read a presentation file
PRESENTATION_COMMANDS = [
    argv for argv, _ in load_workloads().CLI_COMMANDS if argv[1].endswith(".pres")
]

ENVELOPE_SCHEMA = {
    "type": "object",
    "required": ["command", "inputs", "result", "verdict", "certificate", "witness", "timing_ms"],
    "properties": {
        "command": {"type": "string"},
        "inputs": {"type": "object"},
        "result": {"type": ["object", "array"]},
        "verdict": {"type": ["string", "null"]},
        "certificate": {"type": ["object", "null"]},
        "witness": {"type": ["object", "null"]},
        "timing_ms": {"type": "number"},
    },
    "additionalProperties": False,
}


def run_child(argv, **kwargs):
    """One `python -m mildkit.cli` child process on this checkout's src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "mildkit.cli", *argv], env=env, timeout=60, **kwargs)


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    jsonschema.validate(doc, ENVELOPE_SCHEMA)
    return code, doc


# -- presentation files ----------------------------------------------------------


def test_corpus_files_load():
    expected = {
        "circuit_d4.pres": (2, 4, 4),
        "triple_d3.pres": (2, 3, 3),
        "two_four.pres": (2, 2, 1),
        "demuskin_p3.pres": (3, 3, 1),
        "cyclic_p3.pres": (3, 1, 1),
        "cup_demuskin_p2.pres": (2, 2, 1),
    }
    for fname, (p, d, m) in expected.items():
        P = load_presentation(str(PRES / fname))
        assert (P.p, P.d, P.m) == (p, d, m)


def test_parse_round_trip_on_corpus():
    for path in sorted(PRES.glob("*.pres")):
        P = load_presentation(str(path))
        assert parse_presentation_text(P.to_text()) == P


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_presentation_text("p: 2\ngenerators: a\nrelators:\n  r: a b\n")
    assert err.value.line == 4
    with pytest.raises(ParseError) as err:
        parse_presentation_text("p: two\ngenerators: a\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_presentation_text("generators: a\nrelators:\n  r: a^2\n")
    with pytest.raises(ParseError) as err:
        parse_presentation_text("p: 2\ngenerators: a\nrelators:\n  r: a^2\n  r: a^4\n")
    assert err.value.line == 5
    with pytest.raises(ParseError) as err:
        parse_presentation_text("p: 2\nbogus: 1\n")
    assert err.value.line == 2


def test_weights_default_and_parse():
    P = parse_presentation_text("p: 2\ngenerators: a, b\nweights: 2, 1\nrelators:\n  r: a^2 b^4\n")
    assert P.tau == (2, 1)
    Q = parse_presentation_text("p: 2\ngenerators: a b\nrelators:\n  r: [a, b]\n")
    assert Q.tau == (1, 1)


# -- commands and exit codes -------------------------------------------------------


def test_expand_command_json(capsys):
    code, doc = run_json(
        capsys, "expand", str(PRES / "two_four.pres"), "--degree", "8"
    )
    assert code == 0
    terms = doc["result"]["r"]["terms_by_degree"]
    assert terms["0"] == "1"
    assert terms["2"] == "x1^2"
    assert terms["4"] == "x2^4"
    assert terms["6"] == "x1^2*x2^4"


def test_expand_demuskin_degree3(capsys):
    code, doc = run_json(
        capsys, "expand", str(PRES / "demuskin_p3.pres"), "--degree", "3"
    )
    assert code == 0
    terms = doc["result"]["r"]["terms_by_degree"]
    assert terms["0"] == "1"
    assert set(terms) == {"0", "3"}
    assert terms["3"].count("+") == 4  # five degree-3 terms


def test_expand_trivial_word(capsys, tmp_path):
    f = tmp_path / "t.pres"
    f.write_text("p: 2\ngenerators: a\nrelators:\n  r: a a^-1\n")
    code, doc = run_json(capsys, "expand", str(f), "--degree", "5")
    assert code == 0
    assert doc["result"]["r"]["terms_by_degree"] == {"0": "1"}


def test_zassenhaus_command(capsys):
    code, doc = run_json(capsys, "zassenhaus", str(PRES / "demuskin_p3.pres"))
    assert code == 0
    assert doc["result"]["zassenhaus_invariant"] == 3
    assert doc["result"]["relator_valuations"] == {"r": 3}


def test_initial_forms_weighted(capsys):
    code, doc = run_json(
        capsys, "initial-forms", str(PRES / "two_four.pres"), "--tau", "2,1"
    )
    assert code == 0
    rec = doc["result"]["r"]
    assert rec["valuation"] == 4
    assert rec["initial_form"] == "x1^2 + x2^4"


def test_anick_command_with_order(capsys):
    code, doc = run_json(
        capsys,
        "anick",
        str(PRES / "circuit_d4.pres"),
        "--order",
        "deglex:x1<x3<x2<x4",
    )
    assert code == 0
    assert doc["verdict"] == "proven-strongly-free"
    assert doc["certificate"]["high_terms"] == ["x2*x1", "x2*x3", "x4*x3", "x4*x1"]


def test_hilbert_command(capsys):
    code, doc = run_json(
        capsys, "hilbert", str(PRES / "circuit_d4.pres"), "--degree", "6",
        "--budget", "10000000",
    )
    assert code == 0
    assert doc["verdict"] == "match"
    assert doc["result"]["actual"] == doc["result"]["target"]


def test_strongly_free_command_weighted(capsys):
    code, doc = run_json(
        capsys, "strongly-free", str(PRES / "two_four.pres"),
        "--degree", "12", "--tau", "2,1",
    )
    assert code == 0
    assert doc["verdict"] == "consistent-to-degree"
    assert doc["result"]["verdict"]["degree"] == 12


def test_strict_exit_code_on_refutation(capsys):
    code, doc = run_json(
        capsys, "strongly-free", str(PRES / "triple_d3.pres"), "--degree", "6",
        "--strict",
    )
    assert code == 1
    assert doc["verdict"] == "refuted"
    assert doc["witness"]["at_degree"] == 3


def test_mild_search_command(capsys):
    code, doc = run_json(capsys, "mild", str(PRES / "demuskin_p3.pres"), "--search")
    assert code == 0
    assert doc["verdict"] == "mild"
    assert doc["certificate"]["high_terms"] == ["x1*x3^2"]


def test_mild_subset_command(capsys):
    code, doc = run_json(
        capsys, "mild", str(PRES / "circuit_d4.pres"), "--subset", "x2,x4", "--e", "1"
    )
    assert code == 0
    assert doc["verdict"] == "mild"


def test_mild_subset_rejects_a_repeated_generator(capsys):
    argv = ["mild", str(PRES / "circuit_d4.pres"), "--subset", "x1,x1", "--e", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: duplicate generator 'x1' in --subset\n"


def test_mild_requires_subset_or_search(capsys):
    code = main(["mild", str(PRES / "circuit_d4.pres")])
    assert code == 2


def test_massey_command_with_tuple(capsys):
    code, doc = run_json(
        capsys, "massey", str(PRES / "demuskin_p3.pres"), "--tuple", "x1,x3,x3"
    )
    assert code == 0
    assert doc["result"]["tensor"]["n"] == 3
    assert doc["result"]["tensor"]["relators"]["r"]["133"] == 1
    assert doc["result"]["value"] == {"r": 1}


def test_demuskin_command(capsys):
    code, doc = run_json(capsys, "demuskin", str(PRES / "demuskin_p3.pres"))
    assert code == 0
    assert doc["verdict"] == "mild"
    assert doc["result"]["type"]["is_demuskin_type"] is True


def test_demuskin_witness(capsys, tmp_path):
    f = tmp_path / "w.pres"
    f.write_text("p: 2\ngenerators: x1, x2, x3\nrelators:\n  r: [x1, x2]\n")
    code, doc = run_json(capsys, "demuskin", str(f), "--strict")
    assert code == 1
    assert doc["verdict"] == "not-demuskin-type"
    assert doc["witness"] == {"chi": [0, 0, 1]}


def test_hall_command(capsys):
    code, doc = run_json(capsys, "hall", "--d", "2", "--n", "2", "--p", "2")
    assert code == 0
    assert doc["result"]["size"] == 3


def test_hall_lists_by_weighted_degree(capsys):
    # at weights (2, 1) the only Hall commutator of weighted degree 4 is
    # [[X1,X2],X2]; the bracket weight 4 would list three
    code, doc = run_json(capsys, "hall", "--d", "2", "--n", "4", "--weights", "2,1")
    assert code == 0
    assert doc["result"] == {"size": 1, "elements": ["[[X1,X2],X2]"]}


def test_series_admissible_command(capsys):
    code, doc = run_json(
        capsys, "series-admissible", "--tau", "1,1,1", "--sigma", "2,2,2",
        "--degree", "6", "--strict",
    )
    assert code == 1
    assert doc["verdict"] == "inadmissible"
    assert doc["witness"] == {"at_degree": 6, "coefficient": -27}
    assert doc["result"]["series"] == [1, 3, 6, 9, 9, 0, -27]


def test_series_admissible_negative_degree(capsys):
    argv = ["series-admissible", "--tau", "1,1", "--sigma", "2", "--degree", "-1"]
    assert main(argv) == 2
    assert "degree must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hilbert", "strongly-free"])
def test_oracle_negative_degree(capsys, command):
    assert main([command, str(PRES / "circuit_d4.pres"), "--degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degree must be >= 0, got -1\n"


@pytest.mark.parametrize("p", ["0", "4"])
def test_hall_rejects_non_prime(capsys, p):
    assert main(["hall", "--d", "2", "--n", "4", "--p", p]) == 2
    assert "p must be a prime" in capsys.readouterr().err


@pytest.mark.parametrize("d, n", [("-1", "2"), ("0", "2"), ("2", "0")])
def test_hall_checks_d_and_n_before_the_weights(capsys, d, n):
    assert main(["hall", "--d", d, "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need d >= 1 and n >= 1\n"


def test_hall_p1_exits_instead_of_looping():
    # a child process, so that a regression fails on the timeout rather
    # than hanging the suite
    done = run_child(["hall", "--d", "2", "--n", "4", "--p", "1"], capture_output=True, text=True)
    assert done.returncode == 2
    assert "p must be a prime" in done.stderr


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.pres"
    bad.write_text("p: 4\ngenerators: a\nrelators:\n  r: a^2\n")
    assert main(["zassenhaus", str(bad)]) == 2
    assert main(["zassenhaus", str(tmp_path / "missing.pres")]) == 2


def test_budget_exit_code(capsys):
    code = main(
        ["hilbert", str(PRES / "circuit_d4.pres"), "--degree", "8", "--budget", "1000"]
    )
    assert code == 3


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("MILDKIT_BUDGET", "1000")
    code = main(["hilbert", str(PRES / "circuit_d4.pres"), "--degree", "8"])
    assert code == 3
    monkeypatch.setenv("MILDKIT_BUDGET", "100000000")
    code = main(["hilbert", str(PRES / "circuit_d4.pres"), "--degree", "8", "--json"])
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", str(PRES / "two_four.pres"), "--degree", "1", "--budget", "-5"],
        ["demuskin", str(PRES / "demuskin_p3.pres"), "--budget", "-5"],
        ["hall", "--d", "2", "--n", "3", "--budget", "-5"],
    ],
    ids=["hilbert", "demuskin", "hall"],
)
def test_negative_budget_flag_is_an_input_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("MILDKIT_BUDGET", "100")  # the flag wins
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --budget must be >= 0, got -5\n")


def test_negative_env_budget_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("MILDKIT_BUDGET", "-5")
    assert main(["demuskin", str(PRES / "demuskin_p3.pres")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: MILDKIT_BUDGET must be >= 0, got -5\n")


def test_zero_budget_refuses_any_nonempty_matrix(capsys, monkeypatch):
    two_four = str(PRES / "two_four.pres")
    assert main(["hilbert", two_four, "--degree", "1", "--budget", "0"]) == 0
    assert main(["hilbert", two_four, "--degree", "2", "--budget", "0"]) == 3
    monkeypatch.setenv("MILDKIT_BUDGET", "0")
    assert main(["demuskin", str(PRES / "demuskin_p3.pres")]) == 3
    assert "exceeds the budget 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["hall", "--d", "2", "--n", "3", "--weights", "1,x"], "--weights", "1,x"),
        (["series-admissible", "--tau", "1,a", "--sigma", "2", "--degree", "4"], "--tau", "1,a"),
        (["series-admissible", "--tau", "1,1", "--sigma", "2,b", "--degree", "4"], "--sigma", "2,b"),
        (["initial-forms", str(PRES / "two_four.pres"), "--tau", "2,x"], "--tau", "2,x"),
    ],
)
def test_integer_list_flags_name_the_flag(capsys, argv, flag, value):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be integers, got {value!r}\n"


@pytest.mark.parametrize("argv", PRESENTATION_COMMANDS, ids=" ".join)
def test_each_relator_expanded_once_per_weights_and_cutoff(monkeypatch, capsys, argv):
    computed = count_expansions(monkeypatch)
    monkeypatch.chdir(ROOT)
    assert main([*argv, "--json"]) == 0
    capsys.readouterr()
    keys = [(w, ctx.tau, cutoff) for w, ctx, cutoff in computed]
    # cutoff 1 is the minimality check made while loading the presentation
    counts = Counter(key for key in keys if key[2] != 1)
    assert counts
    assert [key for key, count in counts.items() if count > 1] == []


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_env_budget_must_be_an_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("MILDKIT_BUDGET", value)
    assert main(["zassenhaus", str(PRES / "demuskin_p3.pres")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: MILDKIT_BUDGET must be an integer, got {value!r}\n"


def test_text_and_json_verdicts_agree(capsys):
    cases = [
        (["mild", str(PRES / "demuskin_p3.pres"), "--search"], "mild"),
        (["strongly-free", str(PRES / "triple_d3.pres"), "--degree", "6"], "refuted"),
        (
            ["anick", str(PRES / "circuit_d4.pres"), "--order", "deglex:x1<x3<x2<x4"],
            "proven-strongly-free",
        ),
    ]
    for argv, expected in cases:
        code, doc = run_json(capsys, *argv)
        assert doc["verdict"] == expected
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert f"verdict: {expected}" in text


@pytest.mark.parametrize(
    "argv",
    [["zassenhaus", str(PRES / "demuskin_p3.pres")], ["hall", "--d", "3", "--n", "9", "--json"]],
    ids=["short-envelope", "long-envelope"],
)
def test_closed_stdout_ends_without_a_traceback(argv):
    # the read end is closed before the child starts; the long envelope
    # fails inside print, the short one at the flush after it
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_child(argv, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")


# -- the CLI on the public API ----------------------------------------------------


def private_reads(source: str) -> list[str]:
    """The `_`-prefixed names that a module takes from other mildkit
    modules: imported by name, or read as an attribute of a name that it
    imported from mildkit.  Dunder names do not count."""
    tree = ast.parse(source)
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("mildkit")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.module or '.'}.{alias.name}")
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names if alias.name.startswith("mildkit"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        root = node.value
        while isinstance(root, ast.Attribute):
            root = root.value
        private = node.attr.startswith("_") and not node.attr.startswith("__")
        if private and isinstance(root, ast.Name) and root.id in imported:
            found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_private_reads_finds_both_forms():
    source = (
        "from . import massey\n"
        "from .magnus import expand, _initial_form\n"
        "import mildkit.lie\n"
        "z = massey._z(massey.zassenhaus_invariant)\n"
        "b = mildkit.lie._moebius(massey.__name__)\n"
    )
    assert sorted(private_reads(source)) == ["magnus._initial_form", "massey._z", "mildkit.lie._moebius"]


def test_cli_reads_only_public_names():
    assert private_reads((ROOT / "src" / "mildkit" / "cli.py").read_text(encoding="utf-8")) == []


def imports_cli(source: str) -> bool:
    """Whether a module of the mildkit package imports mildkit.cli, in any
    form: `from . import cli`, `from .cli import ...`, `import mildkit.cli`,
    `from mildkit import cli` or `from mildkit.cli import ...`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["mildkit" if node.level else "", node.module]))
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name == "mildkit.cli" or name.startswith("mildkit.cli.") for name in names):
            return True
    return False


def test_imports_cli_finds_every_form():
    found = [
        "from . import cli", "from . import massey, cli as c", "from .cli import main",
        "import mildkit.cli", "import mildkit.cli as c", "from mildkit import cli",
        "from mildkit.cli import load_presentation", "def f():\n    from .cli import main\n",
    ]
    missed = [
        "from . import massey", "from .client import x", "import mildkit", "import climate",
        "from .magnus import load_presentation", "from mildkit.massey import cli",
    ]
    assert [s for s in found if not imports_cli(s)] == []
    assert [s for s in missed if imports_cli(s)] == []


def test_only_the_cli_imports_the_cli():
    # so that a checker can read presentation files without the CLI
    modules = sorted((ROOT / "src" / "mildkit").glob("*.py"))
    assert "magnus.py" in [path.name for path in modules]
    assert [path.name for path in modules
            if path.name != "cli.py" and imports_cli(path.read_text(encoding="utf-8"))] == []


def test_cli_reexports_the_presentation_reader():
    assert cli.parse_presentation_text is magnus.parse_presentation_text
    assert cli.load_presentation is magnus.load_presentation
