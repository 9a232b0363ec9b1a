"""Spin-j action of the raising / weight / lowering operators on polynomials.

On the monomial basis {z^k : 0 <= k <= 2j} the three generators act as

    plus  (raising):  z^2 d/dz - 2j z
    zero  (weight):   z   d/dz - j
    minus (lowering):       d/dz

Half-integer spins are kept exact by storing n = 2j as an integer; j enters
the formulas as two_j / 2, which is exact in binary floating point, so
top-state annihilation (the raising coefficient k - 2j vanishing at k = 2j)
holds to the last bit rather than to a tolerance.

`build_block` materializes a quadratic combination of the generators as a
matrix on the monomial basis, column by column, using generic polynomial
arithmetic only; closed-form matrix actions live with the potential
families and serve as an independent cross-check.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, fields

from .cpoly import CPolynomial, ZERO, monomial, poly_add, poly_derivative, poly_mul, poly_scale, poly_sub
from .errors import InvarianceViolationError, ValidationError

GENERATORS = ("plus", "zero", "minus")

_Z = monomial(1)
_Z2 = monomial(2)

INVARIANCE_RTOL = 1e-12


@dataclass(frozen=True)
class SpinJ:
    """Spin j stored exactly as the integer two_j = 2j; dimension 2j + 1."""

    two_j: int

    def __post_init__(self) -> None:
        if not isinstance(self.two_j, int) or isinstance(self.two_j, bool):
            raise ValidationError("two_j must be an integer")
        if self.two_j < 0:
            raise ValidationError("two_j must be non-negative")

    @property
    def dim(self) -> int:
        return self.two_j + 1

    @property
    def j(self) -> float:
        return self.two_j / 2.0


@dataclass(frozen=True)
class OperatorCombination:
    """Coefficients of  c_pm J+J- + c_0m J0J- + c_p J+ + c_m J- + c_0 J0 + c_id.

    The identity coefficient excludes the eigenvalue: blocks built from a
    combination satisfy the plain eigenproblem M v = E v.
    """

    c_pm: complex = 0.0j
    c_0m: complex = 0.0j
    c_p: complex = 0.0j
    c_m: complex = 0.0j
    c_0: complex = 0.0j
    c_id: complex = 0.0j

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, complex(getattr(self, f.name)))


@dataclass(frozen=True)
class BlockMatrix:
    """Dense square matrix; column k holds the image of the basis monomial z^k."""

    entries: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(complex(c) for c in row) for row in self.entries)
        if not rows:
            raise ValidationError("block matrix must have at least one row")
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValidationError("block matrix must be square")
            for c in row:
                if not cmath.isfinite(c):
                    raise ValidationError(f"non-finite block entry {c!r}")
        object.__setattr__(self, "entries", rows)

    @property
    def dim(self) -> int:
        return len(self.entries)


def apply_generator(gen: str, p: CPolynomial, rep: SpinJ) -> CPolynomial:
    """Apply one generator to p in the spin-(two_j/2) representation.

    p may have any degree; the image can leave the degree <= 2j block when
    degree(p) exceeds two_j.
    """
    if gen == "minus":
        return poly_derivative(p)
    dp = poly_derivative(p)
    if gen == "zero":
        return poly_sub(poly_mul(_Z, dp), poly_scale(p, rep.j))
    if gen == "plus":
        return poly_sub(poly_mul(_Z2, dp), poly_scale(poly_mul(_Z, p), float(rep.two_j)))
    raise ValidationError(f"unknown generator tag {gen!r}")


def apply_combination(combo: OperatorCombination, p: CPolynomial, rep: SpinJ) -> CPolynomial:
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


def build_block(combo: OperatorCombination, rep: SpinJ) -> BlockMatrix:
    """Matrix of the combination on {z^0, ..., z^two_j}.

    Raises InvarianceViolationError if any image sticks out of the block
    (relative to its largest coefficient), which signals ill-matched
    parameters rather than roundoff: legitimate combinations preserve the
    block analytically.
    """
    n = rep.dim
    columns = []
    for k in range(n):
        image = apply_combination(combo, monomial(k), rep)
        coeffs = list(image.coeffs) + [0.0j] * max(0, n - len(image.coeffs))
        scale = max((abs(c) for c in image.coeffs), default=0.0)
        for c in coeffs[n:]:
            if abs(c) > INVARIANCE_RTOL * max(scale, 1e-300):
                raise InvarianceViolationError(
                    f"image of z^{k} has degree {image.degree}, outside the "
                    f"dimension-{n} block (coefficient {c!r})"
                )
        columns.append(coeffs[:n])
    return BlockMatrix(tuple(tuple(columns[k][i] for k in range(n)) for i in range(n)))
