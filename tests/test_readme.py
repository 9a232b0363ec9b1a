"""The README's library example runs, as written, against the package."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # three lines for each of the two levels, then the grid check and W, (V-, V+)
    assert len(lines) == 8
    shifted = [complex(lines[k].split(" ", 1)[0]) for k in (0, 3)]
    assert abs(shifted[0] + 2.0) <= 1e-10 and abs(shifted[1] - 2.0) <= 1e-10
