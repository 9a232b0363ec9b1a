#!/usr/bin/env python3
"""Print a short digest of every block solve over a fixed matrix, then a total.

Each line is `<digest> <outcome> <block>`, the digest a hash of each level's
energy, phi coefficients, eigenvector residual and multiplicity plus the
model's shift, or of the error's type, message and defect.  Floats enter by
repr, which round-trips every bit.  The matrix is the three families
(sextic even and odd, Morse) at 2j = 0..31 and mu in MUS, solved by
spectrum.solve_model, then the graded Morse translates a = 10^p,
d = 10^-p at 2j in TRANSLATE_TWO_JS, p in TRANSLATE_POWERS and mu = 0.5,
whose levels are those of a = d = 1, then four hand-made blocks solved by
spectrum.eigen_solve: the graded 32 x 32 block whose couplings span
10^-8 .. 10^8, the strongly non-normal 4 x 4 whose eigenvector grows by
about 1e150 a row, the 2 x 2 Jordan block at 0, and the Morse 2 x 2 whose
coupling is negligible against its equal diagonal entries.  Last comes
the non-normal 4 x 4 again with spectrum._ql_values replaced by one that
gives no values, so Aberth starts from the circle on a block whose
spectrum sits far below its norm.  Before the total it prints
`evaluations <n>`, the number of continuant evaluations
(spectrum._newton_terms calls) the whole matrix took, and `fallback starts
<n>`, the number of pieces for which spectrum._ql_values gave no values,
so that Aberth started from a circle.  The QL-off case counts its
evaluations but no fallback start: its replacement bypasses the counting
wrapper, so `fallback starts` counts the same pieces on any checkout and
stays comparable across them.  After the total, `gate fallback-starts <n>
no-more` repeats that count for `scripts/gates.py`, which fails it when it
is larger than the parent commit's.  Two checkouts whose solves agree
bit for bit print the same lines, so a diff of two runs names every block
that moved.  The script imports qesolve from the `src` directory next to
it; to digest another checkout, copy the script into that checkout's
`scripts` directory and run it there.
"""

import cmath
import hashlib
import math
import os
import sys
from functools import partial

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from qesolve import spectrum
from qesolve.errors import QesError
from qesolve.families import MorseParams, SexticParams, make_morse, make_sextic
from qesolve.sl2 import BlockMatrix
from qesolve.spectrum import common_imaginary_shift, eigen_solve, solve_model

TWO_JS = range(32)
MUS = ("0", "0.3", "0.7", "1.0", "1.4", "2.2", "3.0", "1e-308", "1e-310")
TRANSLATE_TWO_JS = (1, 3)
TRANSLATE_POWERS = (14, 170, 300)
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


def _jordan_block() -> BlockMatrix:
    return BlockMatrix(sub=(2.0,), diag=(2.0, -2.0), sup=(-2.0,))


def _equal_diagonal_block() -> BlockMatrix:
    # the Morse block at 2j = 1, mu = 0, a = -1 - 1e8 i, d = 1e154 + 1e8 i
    return BlockMatrix(sub=(2 + 2e8j,), diag=(-2e154 - 2e162j,) * 2, sup=(-2e154 - 2e8j,))


def _family_solve(make, mu: str, two_j: int):
    return solve_model(make(float(mu), two_j))


def _block_solve(block: BlockMatrix):
    solutions = eigen_solve(block)
    return solutions, common_imaginary_shift([s.energy_base for s in solutions])


def _without_ql(solve):
    ql_values = spectrum._ql_values
    spectrum._ql_values = lambda diag, prod: None
    try:
        return solve()
    finally:
        spectrum._ql_values = ql_values


def cases():
    for name, make in FAMILIES:
        for two_j in TWO_JS:
            for mu in MUS:
                yield f"{name} 2j={two_j} mu={mu}", partial(_family_solve, make, mu, two_j)
    for two_j in TRANSLATE_TWO_JS:
        for p in TRANSLATE_POWERS:
            model = make_morse(MorseParams.from_mu(0.5, two_j, 10.0**p, 10.0**-p))
            yield f"morse 2j={two_j} mu=0.5 a=1e{p} d=1e-{p}", partial(solve_model, model)
    yield "graded 32x32", partial(_block_solve, _graded_block())
    yield "non-normal 4x4", partial(_block_solve, _non_normal_block())
    yield "jordan 2x2", partial(_block_solve, _jordan_block())
    yield "morse equal diagonal 2x2", partial(_block_solve, _equal_diagonal_block())
    yield "non-normal 4x4 ql off", partial(_without_ql, partial(_block_solve, _non_normal_block()))


def digest(name, solve) -> str:
    try:
        solutions, shift = solve()
    except QesError as exc:
        outcome, blob = type(exc).__name__, repr((str(exc), getattr(exc, "defect", None)))
    else:
        # a plain coefficient tuple, or one wrapped in a `coeffs` attribute on older checkouts
        levels = [
            (s.energy_base, getattr(s.phi_coeffs, "coeffs", s.phi_coeffs), s.eigvec_residual, s.multiplicity)
            for s in solutions
        ]
        outcome, blob = "ok", repr((levels, shift.found, shift.shift, shift.spread))
    text = f"{outcome}\0{blob}".encode()
    return f"{hashlib.sha256(text).hexdigest()[:16]} {outcome} {name}"


def main() -> int:
    evaluations = fallbacks = 0
    newton_terms, ql_values = spectrum._newton_terms, spectrum._ql_values

    def counting(*args):
        nonlocal evaluations
        evaluations += 1
        return newton_terms(*args)

    def counting_fallbacks(*args):
        nonlocal fallbacks
        values = ql_values(*args)
        fallbacks += values is None
        return values

    # eigen_solve reads the module attributes, so the counts work on any checkout
    spectrum._newton_terms = counting
    spectrum._ql_values = counting_fallbacks
    total = hashlib.sha256()
    count = 0
    for name, solve in cases():
        line = digest(name, solve)
        print(line)
        total.update(line.encode() + b"\n")
        count += 1
    print(f"evaluations {evaluations}")
    print(f"fallback starts {fallbacks}")
    print(f"total {count} blocks {total.hexdigest()[:16]}")
    print(f"gate fallback-starts {fallbacks} no-more")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
