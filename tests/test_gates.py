"""scripts/gates.py on synthetic script outputs, and the gates each script states."""

import importlib.util
import pathlib
import re

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
_spec = importlib.util.spec_from_file_location("gates", SCRIPTS / "gates.py")
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)

# the tails of the three scripts' outputs, prose totals then gate lines
OUTPUTS = {
    "cli_digest": (
        "1c0ffee0c0ffee00 0 solve --family sextic --two-j 0 --mu 0\n"
        "2c0ffee0c0ffee00 2 verify --family morse --two-j 12 --mu 0.7\n"
        "total 2 outputs 0123456789abcdef\n"
        "gate commands-raise 0 zero\n"
        "gate outputs-not-canonical 0 zero\n"
    ),
    "solve_digest": (
        "3c0ffee0c0ffee00 ok sextic even 2j=0 mu=0\n"
        "evaluations 14554\n"
        "fallback starts 2\n"
        "total 875 blocks 25f6e237be5a3a33\n"
        "gate fallback-starts 2 no-more\n"
    ),
    "verify_matrix": (
        "block sextic-even 2j=0 mu=0.3: pass\n"
        "total: 68 of 384 blocks pass\n"
        "survey total: 0 of 540 calls raise\n"
        "translation total: 288 of 288 calls pass\n"
        "gate blocks-pass 68 no-fewer\n"
        "gate survey-raises 0 no-more\n"
        "gate translations-pass 288 no-fewer\n"
    ),
}

# each script's gates and their rules
STATED = {
    "cli_digest": {"commands-raise": "zero", "outputs-not-canonical": "zero"},
    "solve_digest": {"fallback-starts": "no-more"},
    "verify_matrix": {"blocks-pass": "no-fewer", "survey-raises": "no-more", "translations-pass": "no-fewer"},
}


def _with_gate(text: str, name: str, value: int | None) -> str:
    """text with gate `name` set to value, or its line deleted for None."""
    line = re.compile(rf"^gate {name} (-?\d+) (\S+)\n", re.MULTILINE)
    assert line.search(text)
    return line.sub("" if value is None else rf"gate {name} {value} \2\n", text)


def _run(tmp_path, capsys, head: str, parent: str) -> tuple[int, list[str]]:
    (tmp_path / "head").write_text(head)
    (tmp_path / "parent").write_text(parent)
    code = gates.main([str(tmp_path / "head"), str(tmp_path / "parent")])
    return code, capsys.readouterr().out.splitlines()


def test_every_script_states_its_gates():
    for script, stated in STATED.items():
        source = (SCRIPTS / f"{script}.py").read_text()
        found = re.findall(r'print\(f"gate ([a-z-]+) \{\w+\} ([a-z-]+)"\)', source)
        assert dict(found) == stated and len(found) == len(stated), script
        assert set(gates.read_gates(OUTPUTS[script])[0]) == set(stated), script


@pytest.mark.parametrize("script", sorted(OUTPUTS))
def test_identical_outputs_pass(tmp_path, capsys, script):
    code, lines = _run(tmp_path, capsys, OUTPUTS[script], OUTPUTS[script])
    assert code == 0
    assert len(lines) == len(STATED[script]) and all(line.endswith(": ok") for line in lines)


@pytest.mark.parametrize(
    "script, name, value",
    [
        ("verify_matrix", "survey-raises", 1),
        ("verify_matrix", "blocks-pass", 67),
        ("verify_matrix", "translations-pass", 287),
        ("solve_digest", "fallback-starts", 3),
        ("cli_digest", "commands-raise", 1),
        ("cli_digest", "outputs-not-canonical", 1),
    ],
)
def test_a_broken_gate_fails_and_is_named(tmp_path, capsys, script, name, value):
    code, lines = _run(tmp_path, capsys, _with_gate(OUTPUTS[script], name, value), OUTPUTS[script])
    assert code == 1
    assert lines[-1] == f"failing gates: {name}"
    broken = [line for line in lines if line.endswith(": broken")]
    assert len(broken) == 1 and broken[0].startswith(f"{name}: HEAD {value}, HEAD^ ")


def test_zero_rule_ignores_the_parent(tmp_path, capsys):
    raising = _with_gate(OUTPUTS["cli_digest"], "commands-raise", 1)
    code, lines = _run(tmp_path, capsys, raising, raising)
    assert code == 1 and lines[-1] == "failing gates: commands-raise"
    code, _ = _run(tmp_path, capsys, OUTPUTS["cli_digest"], raising)
    assert code == 0
    # outputs that are not canonical at HEAD^ do not fail HEAD
    parent = _with_gate(OUTPUTS["cli_digest"], "outputs-not-canonical", 319)
    code, _ = _run(tmp_path, capsys, OUTPUTS["cli_digest"], parent)
    assert code == 0


_digest_spec = importlib.util.spec_from_file_location("cli_digest", SCRIPTS / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_digest_spec)
_digest_spec.loader.exec_module(cli_digest)
HEADER = cli_digest.SCAN_HEADER


@pytest.mark.parametrize(
    "out, expected",
    [
        ("", True),
        ('{\n  "re": 0.7,\n  "im": -0.0\n}\n', True),
        ('{\n  "re": 0.69999999999999996,\n  "im": -0.0\n}\n', False),  # 17 digits
        ('{\n  "re": 0.7,\n  "im": -0\n}\n', False),  # json.loads reads -0 as the integer 0
        ('{"re": 0.7, "im": -0.0}\n', False),  # not indented
        ("numeric failure\n", False),
        (f"{HEADER}\n", True),
        (f"{HEADER}\n0.25,1,1e-10,-0.0,5.0,0.0,-0.25,0\n", True),
        (f"{HEADER}\n0.25,1,1e-10,-0,5,0,-0.25,0\n", False),
        (f"{HEADER}\n0.25,1,1.0000000000000000e-10,-0.0,5.0,0.0,-0.25,0\n", False),
    ],
)
def test_canonical_output_is_what_the_standard_library_prints(out, expected):
    assert cli_digest.canonical(out) is expected


@pytest.mark.parametrize(
    "name, value", [("blocks-pass", 69), ("survey-raises", 0), ("translations-pass", 288)]
)
def test_a_gate_that_holds_or_improves_passes(tmp_path, capsys, name, value):
    parent = _with_gate(OUTPUTS["verify_matrix"], "survey-raises", 2)
    code, _ = _run(tmp_path, capsys, _with_gate(parent, name, value), parent)
    assert code == 0


def test_prose_totals_are_not_read(tmp_path, capsys):
    # only gate lines count; a moved prose total alone passes
    head = OUTPUTS["verify_matrix"].replace("total: 68 of 384", "total: 0 of 384")
    code, _ = _run(tmp_path, capsys, head, OUTPUTS["verify_matrix"])
    assert code == 0


@pytest.mark.parametrize("side", ["HEAD", "HEAD^"])
@pytest.mark.parametrize("script, name", [(s, n) for s, stated in STATED.items() for n in stated])
def test_a_missing_gate_line_fails(tmp_path, capsys, side, script, name):
    text, cut = OUTPUTS[script], _with_gate(OUTPUTS[script], name, None)
    head, parent = (cut, text) if side == "HEAD" else (text, cut)
    code, lines = _run(tmp_path, capsys, head, parent)
    assert code == 1
    assert f"{name}: missing at {side}" in lines
    assert lines[-1] == f"failing gates: {name}"


def test_outputs_without_gate_lines_fail(tmp_path, capsys):
    # a script that died before its gate lines, at both commits
    code, lines = _run(tmp_path, capsys, "", "total 0 outputs e3b0c44298fc1c14\n")
    assert code == 1 and lines[-1] == "failing gates: (none stated)"


@pytest.mark.parametrize(
    "line", ["gate blocks-pass many no-fewer", "gate blocks-pass 68 at-least", "gate blocks-pass 68"]
)
def test_an_unreadable_gate_line_fails(tmp_path, capsys, line):
    head = OUTPUTS["verify_matrix"].replace("gate blocks-pass 68 no-fewer", line)
    code, lines = _run(tmp_path, capsys, head, OUTPUTS["verify_matrix"])
    assert code == 1
    assert "blocks-pass: unreadable gate line" in lines
    assert lines[-1] == "failing gates: blocks-pass"
