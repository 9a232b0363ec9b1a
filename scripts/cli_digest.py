#!/usr/bin/env python3
"""Print a short digest of every CLI output over a fixed case matrix, then a total.

Each line is `<digest> <exit code> <argv>`, the digest a hash of the exit
code, stdout and stderr of `qesolve <argv>` run in-process through
cli.main; an exception that escapes main is an outcome of its own, and
its exit code field reads `raised:<exception type>`.  The `total` line
hashes all of them.  Then `gate commands-raise <n> zero` counts the
commands that raised, and the last line, `gate outputs-not-canonical <n>
zero` (new with the switch to the standard library's float format), counts
the commands whose stdout is not what the standard library prints for the
values it parses to: a JSON stdout that differs from
`json.dumps(json.loads(out), indent=2) + "\n"`, or a scan with a cell after
the header that is neither an integer nor `repr(float(cell))`.
`scripts/gates.py` fails either n but 0.  Two
checkouts whose outputs agree byte for byte print the same lines, so a
diff of two runs names every command whose output moved.  The script imports qesolve from the `src`
directory next to it; to digest another checkout, copy the script into
that checkout's `scripts` directory and run it there.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from qesolve.cli import SCAN_HEADER, main

TWO_JS = (0, 1, 2, 3, 5, 12, 31)
MUS = ("0", "0.7", "1.4", "2.2")
FAMILIES = (
    ("--family", "sextic"),
    ("--family", "sextic", "--sector", "odd"),
    ("--family", "morse"),
)
GRID_NS = ("64", "65", "257", "701")
DOMAINS = {"sextic": "--domain=-5,5", "morse": "--domain=-10,3"}
MORSE_USER_SETS = (
    ("--a", "1,0", "--d", "1,0", "--b", "0,0"),
    ("--a", "0.5,0.2", "--d", "2,0", "--b=-1.5,0.3"),
    ("--a", "1,0", "--d", "0.5,-0.1", "--b=-1,0.7"),
)
# Inputs at the edge of what the flags accept: grid steps that cannot be
# differenced, potentials that overflow on the grid, a Newton step beyond
# 1e102, Morse states far from x = 0 or underflowing everywhere, partner
# abscissas whose square or span leaves the doubles, and a 2j past 2**53.
SEXTIC_1 = "verify --family sextic --two-j 1"
EDGE_CASES = [
    argv.split()
    for argv in (
        f"{SEXTIC_1} --mu 0.5 --domain=0,1e-300",
        f"{SEXTIC_1} --mu 0.5 --domain=0,1e-150",
        f"{SEXTIC_1} --mu 0.5 --domain=-1e150,1e150",
        f"{SEXTIC_1} --mu 0.5 --domain=1e300,1.0000000001e300",
        f"{SEXTIC_1} --mu 0.5 --domain=1e60,2e60",
        f"{SEXTIC_1} --a 1e200,0",
        f"{SEXTIC_1} --mu 1e100",
        "verify --family morse --two-j 0 --mu 0.5 --a 1e8,0 --d 1e-8,0",
        "verify --family morse --two-j 0 --mu 0.5 --a 2e4,0 --d 5e-5,0",
        "verify --family morse --two-j 2 --mu 0.5 --a 1e7,0 --d 1e-7,0",
        "verify --family morse --two-j 0 --mu 0.5 --a 300,0 --d 300,0",
        "solve --family morse --two-j 1 --mu inf",
        "partner --family sextic --two-j 1 --sector odd --mu 0.5 --range=1e-320,1 --samples 1",
        "partner --family sextic --two-j 1 --mu 0.5 --range=-1e308,1e308 --samples 3",
        f"solve --family sextic --two-j {10**400} --mu 0.5",
    )
]


def cases():
    for family in FAMILIES:
        for two_j in TWO_JS:
            model = (*family, "--two-j", str(two_j))
            for mu in MUS:
                yield ("solve", *model, "--mu", mu)
                if two_j <= 12:
                    yield ("verify", *model, "--mu", mu)
            yield ("scan", *model, "--mu-range", "0:2.2:0.1")
            if two_j <= 5:
                yield ("partner", *model, "--mu", "0.7", "--samples", "5", "--range=-1,1")
        for two_j in (0, 1, 2, 5):
            model = (*family, "--two-j", str(two_j), "--mu", "0.7")
            for n in GRID_NS:
                yield ("verify", *model, "--grid-n", n)
                yield ("verify", *model, "--grid-n", n, DOMAINS[family[1]])
    for user in MORSE_USER_SETS:
        for two_j in (0, 1, 3):
            model = ("--family", "morse", "--two-j", str(two_j), *user)
            yield ("solve", *model)
            yield ("verify", *model)
            yield ("partner", *model, "--samples", "4")
    yield from EDGE_CASES


def canonical(out: str) -> bool:
    """Whether out is what the standard library prints for the values it parses to."""
    try:
        if out.startswith(SCAN_HEADER):
            cells = [cell for row in out.splitlines()[1:] for cell in row.split(",")]
            return all(cell.isdigit() or cell == repr(float(cell)) for cell in cells)
        return not out or json.dumps(json.loads(out), indent=2) + "\n" == out
    except ValueError:
        return False


def digest(argv) -> tuple[str, bool]:
    """The digest line of argv, and whether its stdout is canonical."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:  # a crash is an outcome too, not the end of the digest
            code = f"raised:{type(exc).__name__}"
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()
    line = f"{hashlib.sha256(blob).hexdigest()[:16]} {code} {' '.join(argv)}"
    return line, canonical(out.getvalue())


def main_digest() -> int:
    total = hashlib.sha256()
    count = raised = not_canonical = 0
    for argv in cases():
        line, is_canonical = digest(argv)
        print(line)
        total.update(line.encode() + b"\n")
        count += 1
        raised += line.split(" ", 2)[1].startswith("raised:")
        not_canonical += not is_canonical
    print(f"total {count} outputs {total.hexdigest()[:16]}")
    print(f"gate commands-raise {raised} zero")
    print(f"gate outputs-not-canonical {not_canonical} zero")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_digest())
