#!/usr/bin/env python3
"""Count the blocks that `verify` passes over the matrix of blocks the CLI accepts.

Runs build_report(verify=True) on the default grid for sextic even, sextic
odd and Morse, 2j = 0..31, mu in {0.3, 0.7, 1.0, 1.4}: 384 blocks.  Each
block gets one outcome: `pass`, the failed gates (`grid`, `residual` or
`grid+residual`), or the message of the error that stopped it.  The script
prints one line per block, so two checkouts' runs can be diffed block by
block, then one line per family and outcome, with the first 2j at which
that outcome occurs and its block count, then the total that pass.  It
imports qesolve from the `src` directory next to it; to run another
checkout, copy the script into that checkout's `scripts` directory and run
it there.  It takes about a minute.

    python3 scripts/verify_matrix.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from qesolve.cli import build_report
from qesolve.errors import QesError
from qesolve.families import EVEN, ODD, MorseParams, SexticParams, make_morse, make_sextic
from qesolve.spectrum import RESIDUAL_GATE

TWO_JS = range(32)
MUS = (0.3, 0.7, 1.0, 1.4)
FAMILIES = {
    "sextic-even": lambda mu, two_j: make_sextic(SexticParams.from_mu(mu, two_j, EVEN)),
    "sextic-odd": lambda mu, two_j: make_sextic(SexticParams.from_mu(mu, two_j, ODD)),
    "morse": lambda mu, two_j: make_morse(MorseParams.from_mu(mu, two_j)),
}


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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
