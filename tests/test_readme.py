"""The README's examples run, as written, against the package."""

import inspect
import pathlib
import re
import shlex

import pytest

import qesolve
from qesolve.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _library_example() -> str:
    return re.search(r"```python\n(.*?)```", _section("Library use"), re.DOTALL).group(1)


def _command_lines() -> list[str]:
    block = re.search(r"```\n(.*?)```", _section("Command line"), re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.startswith("qesolve ")]


def test_readme_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # three lines for each of the two levels, then the grid check and W, (V-, V+)
    assert len(lines) == 8
    shifted = [complex(lines[k].split(" ", 1)[0]) for k in (0, 3)]
    assert abs(shifted[0] + 2.0) <= 1e-10 and abs(shifted[1] - 2.0) <= 1e-10


def test_readme_lists_five_commands():
    assert len(_command_lines()) == 5


@pytest.mark.parametrize("line", _command_lines())
def test_readme_command_line_runs(capsys, line):
    # the optional [...] flags are given as written, without their brackets
    argv = shlex.split(line.replace("[", "").replace("]", ""))[1:]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip()


def test_readme_names_every_export():
    exports = {n for n, v in vars(qesolve).items() if not n.startswith("_") and not inspect.ismodule(v)}
    paragraph = _section("Library use").split("The package exports", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"`(\w+)`", paragraph)) == exports
