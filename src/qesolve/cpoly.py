"""Dense complex-coefficient polynomials in one variable.

Everything downstream lives on polynomials of tiny degree (at most 2j + 2),
so coefficients are stored densely and each operation builds a fresh tuple.
Trailing coefficients are dropped only when they are exactly zero in both
parts: numerical near-zeros carry information (residual checks depend on
seeing them) and are never trimmed.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass
from typing import Iterable

from .errors import NumericOverflowError


@dataclass(frozen=True, init=False, slots=True)
class CPolynomial:
    """Polynomial sum(coeffs[k] * z**k); the empty tuple is the zero polynomial."""

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Iterable[complex] = ()) -> None:
        items = [complex(c) for c in coeffs]
        for c in items:
            if not cmath.isfinite(c):
                raise NumericOverflowError(f"non-finite polynomial coefficient {c!r}")
        while items and items[-1].real == 0.0 and items[-1].imag == 0.0:
            items.pop()
        object.__setattr__(self, "coeffs", tuple(items))

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs


class PackedPolynomial(CPolynomial):
    """A CPolynomial holding its coefficients as packed doubles until they are read.

    A packed coefficient takes 16 bytes against 40 for a complex object and
    its tuple slot, which matters for results that are kept by the
    thousand, such as solved levels.  The first read of `coeffs` fills the
    ordinary slot, so later reads cost what they cost on a CPolynomial;
    equality between two packed polynomials compares the packed values
    without building anything.
    """

    __slots__ = ("_packed",)

    def __init__(self, coeffs: Iterable[complex] = ()) -> None:
        trimmed = CPolynomial(coeffs).coeffs
        object.__setattr__(self, "_packed", array("d", [x for c in trimmed for x in (c.real, c.imag)]))

    def __getattr__(self, name: str):
        if name != "coeffs":
            raise AttributeError(name)
        p = self._packed
        value = tuple(complex(p[i], p[i + 1]) for i in range(0, len(p), 2))
        object.__setattr__(self, "coeffs", value)
        return value

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedPolynomial):
            return self._packed == other._packed
        if isinstance(other, CPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))


ZERO = CPolynomial()


def monomial(k: int, c: complex = 1.0) -> CPolynomial:
    """c * z**k."""
    if k < 0:
        raise ValueError("monomial exponent must be non-negative")
    return CPolynomial((0.0,) * k + (c,))


def poly_add(p: CPolynomial, q: CPolynomial) -> CPolynomial:
    a, b = p.coeffs, q.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return CPolynomial(out)


def poly_sub(p: CPolynomial, q: CPolynomial) -> CPolynomial:
    out = list(p.coeffs) + [0.0j] * max(0, len(q.coeffs) - len(p.coeffs))
    for k, c in enumerate(q.coeffs):
        out[k] -= c
    return CPolynomial(out)


def poly_scale(p: CPolynomial, c: complex) -> CPolynomial:
    return CPolynomial(c * x for x in p.coeffs)


def poly_mul(p: CPolynomial, q: CPolynomial) -> CPolynomial:
    """Coefficient-wise convolution; result is in canonical trimmed form."""
    if p.is_zero() or q.is_zero():
        return ZERO
    out = [0.0j] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return CPolynomial(out)


def poly_derivative(p: CPolynomial) -> CPolynomial:
    """Formal derivative; drops the degree by exactly one for nonconstant p."""
    return CPolynomial(k * c for k, c in enumerate(p.coeffs) if k > 0)


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
