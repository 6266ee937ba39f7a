import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

from conftest import count_expansions, load_workloads
from mildkit.cli import load_presentation, main, parse_presentation_text
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "mildkit.cli", "hall", "--d", "2", "--n", "4", "--p", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
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
