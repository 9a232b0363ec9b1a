"""Shared test utilities: scaled comparisons, deterministic parameter draws and oracles."""

import math
import random
from array import array

from qesolve.errors import ValidationError
from qesolve.families import (
    EVEN,
    MorseParams,
    SexticParams,
    closed_form_block_action,
    make_morse,
    make_sextic,
    potential_eval,
)
from qesolve.sl2 import OperatorCombination, SpinJ

from _oracles import ZERO, Poly, monomial, poly_add, poly_derivative, poly_mul, poly_scale, poly_sub

SEED = 20260808


def fresh_rng() -> random.Random:
    return random.Random(SEED)


def rel_err(x: complex, y: complex) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1.0)


def pack(coeffs) -> bytes:
    """The coefficients as a QesSolution's phi_packed: (re, im) doubles."""
    return array("d", [x for c in map(complex, coeffs) for x in (c.real, c.imag)]).tobytes()


def unit_complex(rng: random.Random, min_magnitude: float = 0.0) -> complex:
    while True:
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if min_magnitude <= abs(c) <= 1.0:
            return c


def random_sextic_model(rng: random.Random, two_j: int, sector: str = EVEN):
    return make_sextic(SexticParams(a=unit_complex(rng), two_j=two_j, sector=sector))


def random_morse_model(rng: random.Random, two_j: int):
    return make_morse(
        MorseParams(
            a=unit_complex(rng, min_magnitude=0.2),
            d=unit_complex(rng, min_magnitude=0.2),
            b=unit_complex(rng),
            two_j=two_j,
        )
    )


def reality_regime_sextic(rng: random.Random, two_j: int, sector: str = EVEN):
    return make_sextic(SexticParams.from_mu(rng.uniform(0.0, 1.3), two_j, sector))


def reality_regime_morse(rng: random.Random, two_j: int):
    return make_morse(
        MorseParams.from_mu(
            rng.uniform(0.0, 1.3),
            two_j,
            a=rng.uniform(0.5, 1.5),
            d=rng.uniform(0.5, 1.5),
        )
    )


def tridiagonal_from_action(model):
    """Assemble the block predicted by the closed-form monomial action."""
    n = model.rep.dim
    out = [[0.0j] * n for _ in range(n)]
    for k in range(n):
        lower, diag, upper = closed_form_block_action(model, k)
        if k > 0:
            out[k - 1][k] = lower
        out[k][k] = diag
        if k + 1 < n:
            out[k + 1][k] = upper
    return out


def max_matrix_mismatch(a, b) -> float:
    """Largest entrywise difference scaled by the larger entry (floor 1)."""
    worst = 0.0
    for row_a, row_b in zip(a, b):
        for x, y in zip(row_a, row_b):
            worst = max(worst, rel_err(x, y))
    return worst


def romberg(f, lo: float, hi: float, max_level: int = 18, tol: float = 1e-12) -> float:
    """Plain Romberg integration; an oracle kept independent of the package."""
    h = hi - lo
    rows = [[(f(lo) + f(hi)) * h / 2.0]]
    n = 1
    for level in range(1, max_level + 1):
        n *= 2
        h /= 2.0
        trap = rows[-1][0] / 2.0 + h * math.fsum(
            f(lo + (2 * i - 1) * h) for i in range(1, n // 2 + 1)
        )
        row = [trap]
        for m in range(1, level + 1):
            row.append(row[m - 1] + (row[m - 1] - rows[-1][m - 1]) / (4.0 ** m - 1.0))
        if abs(row[-1] - rows[-1][-1]) < tol * max(abs(row[-1]), 1e-300):
            return row[-1]
        rows.append(row)
    return rows[-1][-1]


_Z = monomial(1)
_Z2 = monomial(2)


def apply_generator(gen: str, p: Poly, rep: SpinJ) -> Poly:
    """Apply one generator to p in the spin-(two_j/2) representation.

    The polynomial-arithmetic oracle for the block builder: p may have any
    degree, and the image can leave the degree <= 2j block when degree(p)
    exceeds two_j.
    """
    if gen == "minus":
        return poly_derivative(p)
    dp = poly_derivative(p)
    if gen == "zero":
        return poly_sub(poly_mul(_Z, dp), poly_scale(p, rep.j))
    if gen == "plus":
        return poly_sub(poly_mul(_Z2, dp), poly_scale(poly_mul(_Z, p), float(rep.two_j)))
    raise ValidationError(f"unknown generator tag {gen!r}")


def apply_combination(combo: OperatorCombination, p: Poly, rep: SpinJ) -> Poly:
    """Apply the full quadratic combination to p by polynomial arithmetic."""
    out = ZERO
    if combo.c_pm != 0 or combo.c_0m != 0:
        lowered = apply_generator("minus", p, rep)
        if combo.c_pm != 0:
            out = poly_add(out, poly_scale(apply_generator("plus", lowered, rep), combo.c_pm))
        if combo.c_0m != 0:
            out = poly_add(out, poly_scale(apply_generator("zero", lowered, rep), combo.c_0m))
    if combo.c_p != 0:
        out = poly_add(out, poly_scale(apply_generator("plus", p, rep), combo.c_p))
    if combo.c_m != 0:
        out = poly_add(out, poly_scale(apply_generator("minus", p, rep), combo.c_m))
    if combo.c_0 != 0:
        out = poly_add(out, poly_scale(apply_generator("zero", p, rep), combo.c_0))
    if combo.c_id != 0:
        out = poly_add(out, poly_scale(p, combo.c_id))
    return out


def commutator_defect(rep: SpinJ) -> float:
    """Worst structure-constant violation over the basis monomials.

    Checks [J+, J-] + 2 J0, [J0, J+] - J+ and [J0, J-] + J- applied to every
    z^k with k <= 2j and returns the largest coefficient magnitude seen.
    All of it is small-integer arithmetic, so the result is 0 up to rounding.
    """

    def plus(q):
        return apply_generator("plus", q, rep)

    def zero(q):
        return apply_generator("zero", q, rep)

    def minus(q):
        return apply_generator("minus", q, rep)

    worst = 0.0
    for k in range(rep.dim):
        p = monomial(k)
        residues = (
            poly_add(poly_sub(plus(minus(p)), minus(plus(p))), poly_scale(zero(p), 2.0)),
            poly_sub(poly_sub(zero(plus(p)), plus(zero(p))), plus(p)),
            poly_add(poly_sub(zero(minus(p)), minus(zero(p))), minus(p)),
        )
        for r in residues:
            for c in r.coeffs:
                worst = max(worst, abs(c))
    return worst


def full_grid_hamiltonian(model, shift, grid):
    """(diag, off) of the grid Hamiltonian on every point of grid, as fd_verify builds it.

    H = tridiag(off, diag, off) is the central-difference -d^2/dx^2 plus the
    potential shifted by shift, sampled at x_i = x_min + (i + 1) h.  No point
    is dropped: fd_verify folds a sextic model on a grid symmetric about 0
    onto its x > 0 half, and this is the full matrix behind that fold.
    """
    n = grid.n_points
    h = (grid.x_max - grid.x_min) / (n + 1)
    inv_h2 = 1.0 / (h * h)
    xs = [grid.x_min + (i + 1) * h for i in range(n)]
    return [2.0 * inv_h2 + potential_eval(model, x, shift) for x in xs], [-inv_h2] * (n - 1)
