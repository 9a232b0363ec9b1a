"""Dense complex-coefficient polynomials in one variable.

Everything downstream lives on polynomials of tiny degree (at most 2j + 2),
so coefficients are stored densely.
Trailing coefficients are dropped only when they are exactly zero in both
parts: numerical near-zeros carry information (residual checks depend on
seeing them) and are never trimmed.
"""

from __future__ import annotations

import cmath
import math
from array import array
from typing import Iterable

from .errors import NumericOverflowError


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


# The relative error of one complex multiplication, sqrt(2) * gamma_2 with
# gamma_2 = 2u / (1 - 2u) (Higham, Lemma 3.5); it covers one addition too.
_MUL_ERR = math.sqrt(2.0) * 2.0 * 2.0**-53 / (1.0 - 2.0 * 2.0**-53)


def poly_eval(p: CPolynomial, z: complex) -> complex:
    """Horner evaluation; raises on a non-finite result."""
    acc = 0.0j
    for c in reversed(p.coeffs):
        acc = acc * z + c
    if not cmath.isfinite(acc):
        raise NumericOverflowError(f"polynomial evaluation overflowed at z={z!r}")
    return acc


def poly_eval_bounded(p: CPolynomial, z: complex) -> tuple[complex, float]:
    """Horner evaluation and a bound on its rounding error at this z.

    The bound is the running error bound of Horner's rule (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., Algorithm 5.1) for
    complex arithmetic, to first order in the unit roundoff.
    """
    acc = 0.0j
    running = 0.0  # sum of |z|^k |y_k| over the partial sums y_k
    size = abs(z)
    try:
        for c in reversed(p.coeffs):
            acc = acc * z + c
            running = size * running + abs(acc)
    except OverflowError:  # a finite partial sum whose modulus is beyond the largest double
        return poly_eval(p, z), math.inf
    if not cmath.isfinite(acc):
        raise NumericOverflowError(f"polynomial evaluation overflowed at z={z!r}")
    return acc, _MUL_ERR * (2.0 * running - abs(acc))
