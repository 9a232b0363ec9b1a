#!/usr/bin/env python3
"""Print the four mu = 1 reference configurations as full JSON reports.

These are the blocks (2j = 0 and 1 of the even sextic and of Morse) whose
closed forms the paper prints.  Each report's published_comparison holds
one line per published level, additive constant and, for the two-level
sextic, upper-level coefficient c_1, each ending in AGREES or DISAGREES
(within 1e-9), and then the notes on the adjudicated misprints.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from qesolve.cli import build_report, render_report
from qesolve.families import MorseParams, SexticParams, make_morse, make_sextic


def main() -> int:
    models = [
        make_sextic(SexticParams.from_mu(1.0, 0)),
        make_sextic(SexticParams.from_mu(1.0, 1)),
        make_morse(MorseParams.from_mu(1.0, 0)),
        make_morse(MorseParams.from_mu(1.0, 1)),
    ]
    for model in models:
        report, _ = build_report(model)
        print(render_report(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
