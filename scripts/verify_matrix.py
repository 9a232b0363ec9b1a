#!/usr/bin/env python3
"""Count the blocks that `verify` passes over the matrix of blocks the CLI accepts.

Runs build_report(verify=True) on the default grid for sextic even, sextic
odd and Morse, 2j = 0..31, mu in {0.3, 0.7, 1.0, 1.4}: 384 blocks.  Each
block gets one outcome: `pass`, the failed gates (`grid`, `residual` or
`grid+residual`), or the message of the error that stopped it.  The script
prints one line per block, so two checkouts' runs can be diffed block by
block, then one line per family and outcome, with the first 2j at which
that outcome occurs and its block count, then the total that pass.

A second table surveys the grid check on coarse grids: fd_verify on the
family default domain for the same three families, 2j = 0..12, 20 and 31,
mu in {0, 0.7, 1.4}, with n = 64, 65, 257 and the default 2000 points: 540
calls.  Each call gets one `grid` line with its outcome, `within` or `over`
the defect bound, or the message of the error that stopped it, and a short
hash of its refined values (`-` when it raised), so a diff also names the
calls whose values moved; then one `survey` line per grid size and outcome
with its call count, then the number of calls that raised.

A third table surveys Morse with a d = 1, whose potential is a translate of
the a = d = 1 one with the same spectrum: build_report(verify=True) with
a = 10^p, d = 10^-p, p = -4..4, 2j = 0..7, mu in {0.3, 0.7, 1.0, 1.4}: 288
calls.  Each call gets one `translate` line with its outcome, as in the
first table, then the total that pass.

Last come three gate lines for `scripts/gates.py`, which compares them with
the parent commit's: `gate blocks-pass <n> no-fewer` (blocks that pass),
`gate survey-raises <n> no-more` (survey calls that raise) and
`gate translations-pass <n> no-fewer` (a*d = 1 calls that pass).

The script imports qesolve from the `src` directory next to it; to run
another checkout, copy the script into that checkout's `scripts` directory
and run it there.  It takes 19 to 37 s on two vCPUs with Python 3.11.

    python3 scripts/verify_matrix.py
"""

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from qesolve.analysis import default_grid, fd_verify
from qesolve.cli import build_report
from qesolve.errors import QesError
from qesolve.families import EVEN, ODD, MorseParams, SexticParams, make_morse, make_sextic
from qesolve.spectrum import RESIDUAL_GATE, solve_model

TWO_JS = range(32)
MUS = (0.3, 0.7, 1.0, 1.4)
FAMILIES = {
    "sextic-even": lambda mu, two_j: make_sextic(SexticParams.from_mu(mu, two_j, EVEN)),
    "sextic-odd": lambda mu, two_j: make_sextic(SexticParams.from_mu(mu, two_j, ODD)),
    "morse": lambda mu, two_j: make_morse(MorseParams.from_mu(mu, two_j)),
}
GRID_TWO_JS = (*range(13), 20, 31)
GRID_MUS = (0.0, 0.7, 1.4)
GRID_NS = (64, 65, 257, 2000)
TRANSLATE_POWERS = range(-4, 5)
TRANSLATE_TWO_JS = range(8)


def outcome(model) -> str:
    """`pass`, the failed gates joined by `+`, or the error message."""
    try:
        report, ok = build_report(model, verify=True)
    except QesError as exc:
        return f"error: {exc}"
    if ok:
        return "pass"
    fd = report.verification.fd
    failed = [
        name
        for name, over in (
            ("grid", fd.defect > fd.defect_bound),
            ("residual", report.residual_sup > RESIDUAL_GATE),
        )
        if over
    ]
    return "+".join(failed)


def grid_outcome(model, n_points: int) -> tuple[str, str]:
    """`within` or `over` the grid check's defect bound, or the error message,
    and a 12-digit hash of the refined values' reprs, or `-` on an error."""
    try:
        solutions, result = solve_model(model)
        check = fd_verify(model, solutions, result.shift, default_grid(model, n_points))
    except QesError as exc:
        return f"error: {exc}", "-"
    refined = hashlib.sha256(repr(check.refined).encode()).hexdigest()[:12]
    return "within" if check.defect <= check.defect_bound else "over", refined


def main() -> int:
    groups: dict[tuple[str, str], list[int]] = {}
    passed = total = 0
    for family, make in FAMILIES.items():
        for two_j in TWO_JS:
            for mu in MUS:
                label = outcome(make(mu, two_j))
                print(f"block {family} 2j={two_j} mu={mu}: {label}")
                groups.setdefault((family, label), []).append(two_j)
                passed += label == "pass"
                total += 1
    for (family, label), two_js in groups.items():
        print(f"{family} | {label} | first 2j={min(two_js)} | {len(two_js)} blocks")
    print(f"total: {passed} of {total} blocks pass")
    blocks_passed = passed

    counts: dict[tuple[int, str], int] = {}
    raised = calls = 0
    for family, make in FAMILIES.items():
        for two_j in GRID_TWO_JS:
            for mu in GRID_MUS:
                model = make(mu, two_j)
                for n in GRID_NS:
                    label, refined = grid_outcome(model, n)
                    print(f"grid {family} 2j={two_j} mu={mu} n={n}: {label} refined={refined}")
                    counts[n, label] = counts.get((n, label), 0) + 1
                    raised += label.startswith("error")
                    calls += 1
    for (n, label), count in sorted(counts.items()):
        print(f"survey n={n} | {label} | {count} calls")
    print(f"survey total: {raised} of {calls} calls raise")

    passed = total = 0
    for power in TRANSLATE_POWERS:
        for two_j in TRANSLATE_TWO_JS:
            for mu in MUS:
                params = MorseParams.from_mu(mu, two_j, a=10.0**power, d=10.0**-power)
                label = outcome(make_morse(params))
                print(f"translate p={power} 2j={two_j} mu={mu}: {label}")
                passed += label == "pass"
                total += 1
    print(f"translation total: {passed} of {total} calls pass")
    print(f"gate blocks-pass {blocks_passed} no-fewer")
    print(f"gate survey-raises {raised} no-more")
    print(f"gate translations-pass {passed} no-fewer")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
