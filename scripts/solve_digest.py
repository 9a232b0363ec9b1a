#!/usr/bin/env python3
"""Print a short digest of every block solve over a fixed matrix, then a total.

Each line is `<digest> <outcome> <block>`, the digest a hash of each level's
energy, phi coefficients, eigenvector residual and multiplicity plus the
model's shift, or of the error's type, message and defect.  Floats enter by
repr, which round-trips every bit.  The matrix is the three families
(sextic even and odd, Morse) at 2j = 0..31 and mu in MUS, solved by
spectrum.solve_model, then two hand-made blocks solved by
spectrum.eigen_solve: the graded 32 x 32 block whose couplings span
10^-8 .. 10^8, and the strongly non-normal 4 x 4 whose eigenvector grows by
about 1e150 a row.  Two checkouts whose solves agree bit for bit print the
same lines, so a diff of two runs names every block that moved.  The script
imports qesolve from the `src` directory next to it; to digest another
checkout, copy the script into that checkout's `scripts` directory and run
it there.
"""

import cmath
import hashlib
import math
import os
import sys
from functools import partial

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from qesolve.errors import QesError
from qesolve.families import MorseParams, SexticParams, make_morse, make_sextic
from qesolve.sl2 import BlockMatrix
from qesolve.spectrum import common_imaginary_shift, eigen_solve, solve_model

TWO_JS = range(32)
MUS = ("0", "0.3", "0.7", "1.0", "1.4", "2.2", "3.0")
FAMILIES = (
    ("sextic even", lambda mu, two_j: make_sextic(SexticParams.from_mu(mu, two_j, "even"))),
    ("sextic odd", lambda mu, two_j: make_sextic(SexticParams.from_mu(mu, two_j, "odd"))),
    ("morse", lambda mu, two_j: make_morse(MorseParams.from_mu(mu, two_j))),
)


def _graded_block() -> BlockMatrix:
    n = 32
    sub = tuple(10.0 ** (8 * math.sin(k)) for k in range(n - 1))
    diag = tuple(cmath.exp(1j * k) for k in range(n))
    sup = tuple(10.0 ** (8 * math.cos(k)) for k in range(n - 1))
    return BlockMatrix(sub, diag, sup)


def _non_normal_block() -> BlockMatrix:
    return BlockMatrix(sub=(1e-300,) * 3, diag=(0.0, 1e-150j, 2e-150j, 3e-150j), sup=(1.0,) * 3)


def _family_solve(make, mu: str, two_j: int):
    return solve_model(make(float(mu), two_j))


def _block_solve(block: BlockMatrix):
    solutions = eigen_solve(block)
    return solutions, common_imaginary_shift([s.energy_base for s in solutions])


def cases():
    for name, make in FAMILIES:
        for two_j in TWO_JS:
            for mu in MUS:
                yield f"{name} 2j={two_j} mu={mu}", partial(_family_solve, make, mu, two_j)
    yield "graded 32x32", partial(_block_solve, _graded_block())
    yield "non-normal 4x4", partial(_block_solve, _non_normal_block())


def digest(name, solve) -> str:
    try:
        solutions, shift = solve()
    except QesError as exc:
        outcome, blob = type(exc).__name__, repr((str(exc), getattr(exc, "defect", None)))
    else:
        levels = [(s.energy_base, s.phi_coeffs.coeffs, s.eigvec_residual, s.multiplicity) for s in solutions]
        outcome, blob = "ok", repr((levels, shift.found, shift.shift, shift.spread))
    text = f"{outcome}\0{blob}".encode()
    return f"{hashlib.sha256(text).hexdigest()[:16]} {outcome} {name}"


def main() -> int:
    total = hashlib.sha256()
    count = 0
    for name, solve in cases():
        line = digest(name, solve)
        print(line)
        total.update(line.encode() + b"\n")
        count += 1
    print(f"total {count} blocks {total.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
