"""Spin-j action of the raising / weight / lowering operators on polynomials.

On the monomial basis {z^k : 0 <= k <= 2j} the three generators act as

    plus  (raising):  z^2 d/dz - 2j z     J+ z^k = (k - 2j) z^(k+1)
    zero  (weight):   z   d/dz - j        J0 z^k = (k - j)  z^k
    minus (lowering):       d/dz          J- z^k = k        z^(k-1)

Half-integer spins are kept exact by storing n = 2j as an integer; j enters
the formulas as two_j / 2, which is exact in binary floating point, so
top-state annihilation (the raising coefficient k - 2j vanishing at k = 2j)
holds to the last bit rather than to a tolerance.  No combination of the
generators can therefore leave the degree <= 2j block.

Each generator moves the degree by at most one, so `build_block` writes a
quadratic combination of them straight into the three diagonals of a
`BlockMatrix`.  The closed-form matrix actions that live with the potential
families are derived separately and serve as an independent cross-check.

A polynomial on that basis, a level's phi among them, is a `CPolynomial`:
dense, trimmed only of exactly zero trailing coefficients for the residuals.
"""

from __future__ import annotations

import cmath
from array import array
from dataclasses import dataclass, fields
from typing import Iterable

from .errors import NumericOverflowError, ValidationError


class CPolynomial:
    """Polynomial sum(coeffs[k] * z**k); no coefficients is the zero polynomial.

    The coefficients are held as packed doubles, 16 bytes each against 40
    for a complex object and its tuple slot, which matters for results that
    are kept by the thousand, such as solved levels.  The first read of
    `coeffs` builds the tuple and keeps it.  A CPolynomial is an immutable
    value: assignment raises, equality compares the coefficients and the
    hash agrees with it, signed zeros included.
    """

    __slots__ = ("_packed", "coeffs")

    def __init__(self, coeffs: Iterable[complex] = ()) -> None:
        items = [complex(c) for c in coeffs]
        for c in items:
            if not cmath.isfinite(c):
                raise NumericOverflowError(f"non-finite polynomial coefficient {c!r}")
        while items and items[-1].real == 0.0 and items[-1].imag == 0.0:
            items.pop()
        object.__setattr__(self, "_packed", array("d", [x for c in items for x in (c.real, c.imag)]))

    def __getattr__(self, name: str):  # reached only while `coeffs` is unset
        if name != "coeffs":
            raise AttributeError(name)
        p = self._packed
        value = tuple(complex(p[i], p[i + 1]) for i in range(0, len(p), 2))
        object.__setattr__(self, "coeffs", value)
        return value

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"CPolynomial is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if isinstance(other, CPolynomial):
            return self._packed == other._packed  # float equality: -0.0 == 0.0
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._packed))  # hash(-0.0) == hash(0.0)

    def __repr__(self) -> str:
        return f"CPolynomial({self.coeffs!r})"


@dataclass(frozen=True)
class SpinJ:
    """Spin j stored exactly as the integer two_j = 2j; dimension 2j + 1."""

    two_j: int

    def __post_init__(self) -> None:
        if not isinstance(self.two_j, int) or isinstance(self.two_j, bool):
            raise ValidationError("two_j must be an integer")
        if self.two_j < 0:
            raise ValidationError("two_j must be non-negative")
        if self.two_j > 2**53:  # past 2**53 two_j / 2 is no longer exact
            raise ValidationError("two_j must be at most 2**53")

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
    """Tridiagonal block on the monomial basis; column k holds the image of z^k.

    sub[i] = M[i+1][i], diag[i] = M[i][i] and sup[i] = M[i][i+1], the
    convention of the tridiag kernel.
    """

    sub: tuple[complex, ...]
    diag: tuple[complex, ...]
    sup: tuple[complex, ...]

    def __post_init__(self) -> None:
        sub, diag, sup = (tuple(complex(c) for c in d) for d in (self.sub, self.diag, self.sup))
        if not diag:
            raise ValidationError("block matrix must have at least one row")
        if len(sub) != len(diag) - 1 or len(sup) != len(diag) - 1:
            raise ValidationError(
                f"a block with {len(diag)} diagonal entries needs {len(diag) - 1} sub- and "
                f"superdiagonal entries, got {len(sub)} and {len(sup)}"
            )
        for c in sub + diag + sup:
            if not cmath.isfinite(c):
                raise ValidationError(f"non-finite block entry {c!r}")
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "sup", sup)

    @property
    def dim(self) -> int:
        return len(self.diag)

    @property
    def entries(self) -> tuple[tuple[complex, ...], ...]:
        """The block as dense rows, for whole-matrix comparisons."""
        n = self.dim
        rows = [[0.0j] * n for _ in range(n)]
        for i, c in enumerate(self.diag):
            rows[i][i] = c
        for i, (lo, up) in enumerate(zip(self.sub, self.sup)):
            rows[i + 1][i] = lo
            rows[i][i + 1] = up
        return tuple(tuple(row) for row in rows)


def build_block(combo: OperatorCombination, rep: SpinJ) -> BlockMatrix:
    """Matrix of the combination on {z^0, ..., z^two_j}.

    Column k is the image of z^k: J+J- and J0 keep the degree, J0J- and J-
    lower it by one, J+ raises it by one.
    """
    two_j, j = rep.two_j, rep.j
    c = combo
    return BlockMatrix(
        sub=tuple(c.c_p * (k - two_j) for k in range(two_j)),
        diag=tuple(
            c.c_pm * (k * (k - 1) - two_j * k) + c.c_0 * (k - j) + c.c_id for k in range(two_j + 1)
        ),
        sup=tuple(c.c_0m * (k * (k - 1) - j * k) + c.c_m * k for k in range(1, two_j + 1)),
    )
