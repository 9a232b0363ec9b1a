"""The two implemented potential families and their algebraic resolution.

Each family is fixed by a gauge function W(x) and a change of variable that
turn the Schrodinger operator into a quadratic expression in the spin-j
generators acting on polynomials in z:

  sextic  V(x) = x^6 + 2a x^4 + (a^2 - 8j - 2 - t) x^2      z = x^2
          W(x) = x^3 + a x                    (even sector, t = 1)
          W(x) = x^3 + a x - 1/x              (odd sector, t = 3; the 1/x
          sign is chosen so the gauge factor is x * exp(-x^4/4 - a x^2/2),
          regular and normalizable at the origin)
          The odd sector is the even construction times the one extra
          gauge factor x, so every sector-dependent number is one formula
          in the offset t; the z-space equation is
          -4z phi'' + (4z^2 + 4az - 2t) phi' + (ta - 8jz - E) phi = 0.

  morse   V(x) = d^2 e^{2x} - d(1-2b) e^x - a(2b+4j+1) e^{-x} + a^2 e^{-2x}
          W(x) = d e^x - a e^{-x} + b                        z = e^{-x}

Canonical potentials carry no constant term; additive constants that make a
complex spectrum real are handled downstream as an explicit shift argument.

`make_sextic` / `make_morse` resolve user parameters into a QesModel holding
the operator combination, the z-space equation p2 phi'' + p1 phi' +
(p0 - E) phi = 0, the potential coefficients and the family's geometry.
The model evaluates the gauge itself from its family and parameters: the
pair (W, W'), the decay factor exp(-G) with G' = W, and z(x).
`closed_form_block_action` gives the tridiagonal matrix action of the model
on basis monomials in closed form; it is the documented oracle against
`sl2.build_block`, which assembles the block from the generator actions and
the operator combination instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import NumericOverflowError, PoleError, ValidationError
from .sl2 import OperatorCombination, SpinJ

SEXTIC = "sextic"
MORSE = "morse"
EVEN = "even"
ODD = "odd"

# largest exponent argument exp() accepts without overflow
_EXP_LIMIT = 709.0


def _cexp(w: complex) -> complex:
    if w.real > _EXP_LIMIT:
        raise NumericOverflowError(f"exponential overflow: exp({w!r})")
    return cmath.exp(w)


def _rexp(x: float) -> float:
    if x > _EXP_LIMIT:
        raise NumericOverflowError(f"exponential overflow: exp({x!r})")
    value = math.exp(x)
    if value == 0.0:  # the Morse gauge divides by it
        raise NumericOverflowError(f"exponential underflow: exp({x!r})")
    return value


def _poly(*coeffs: complex) -> tuple[complex, ...]:
    """Polynomial coefficients c_0, c_1, ... as complex, exactly zero trailing ones dropped."""
    items = [complex(c) for c in coeffs]
    for c in items:
        if not cmath.isfinite(c):
            raise NumericOverflowError(f"non-finite polynomial coefficient {c!r}")
    while items and not items[-1]:
        items.pop()
    return tuple(items)


def _require_finite(name: str, value: complex) -> complex:
    value = complex(value)
    if not cmath.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class SexticParams:
    """Parameters of the sextic family: gauge parameter a, spin two_j, parity sector.

    `mu` records that a was chosen as i*mu (the pure-imaginary convenience
    choice); it only drives reporting against the published closed forms.
    """

    a: complex
    two_j: int
    sector: str = EVEN
    mu: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _require_finite("a", self.a))
        SpinJ(self.two_j)  # validates 2j
        if self.sector not in (EVEN, ODD):
            raise ValidationError(f"sector must be {EVEN!r} or {ODD!r}, got {self.sector!r}")

    @classmethod
    def from_mu(cls, mu: float, two_j: int, sector: str = EVEN) -> "SexticParams":
        return cls(a=complex(0.0, mu), two_j=two_j, sector=sector, mu=float(mu))


@dataclass(frozen=True)
class MorseParams:
    """Parameters of the Morse-type family: a, d, gauge offset b, spin two_j.

    a and d must be nonzero or the gauge factor fails to decay at one end.
    Normalizable wavefunctions additionally need Re a > 0 and Re d > 0,
    enforced where normalization is actually requested.
    """

    a: complex
    d: complex
    b: complex
    two_j: int
    mu: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _require_finite("a", self.a))
        object.__setattr__(self, "d", _require_finite("d", self.d))
        object.__setattr__(self, "b", _require_finite("b", self.b))
        SpinJ(self.two_j)  # validates 2j
        if self.a == 0 or self.d == 0:
            raise ValidationError("Morse parameters a and d must be nonzero")

    @classmethod
    def from_mu(cls, mu: float, two_j: int, a: complex = 1.0, d: complex = 1.0) -> "MorseParams":
        b = (complex(0.0, mu) - 3.0) / 2.0
        return cls(a=complex(a), d=complex(d), b=b, two_j=two_j, mu=float(mu))


@dataclass(frozen=True)
class QesModel:
    """A fully resolved family instance.

    ode = (p2, p1, p0), coefficient tuples from z^0 up, gives the z-space
    equation p2 phi'' + p1 phi' + (p0 - E) phi = 0, p0 energy-free.
    potential_coeffs are (x^6, x^4, x^2) for sextic and
    (e^{2x}, e^x, e^{-x}, e^{-2x}) for Morse; there is never a constant term.
    The family's geometry, set by make_sextic / make_morse alone: centre,
    where the states sit (0, or Re x0 = ln(|a| / |d|) / 2 for Morse);
    default_domain, the grid ends where the gauge factor is below 1e-16;
    parity, psi(-x) / psi(x) (+1 or -1 by sextic sector, 0 for Morse);
    normalizable, whether the gauge decays (Morse needs Re a, Re d > 0).
    """

    family: str
    params: SexticParams | MorseParams
    rep: SpinJ
    combo: OperatorCombination
    ode: tuple[tuple[complex, ...], tuple[complex, ...], tuple[complex, ...]]
    potential_coeffs: tuple[complex, ...]
    centre: float
    default_domain: tuple[float, float]
    parity: int
    normalizable: bool

    def z_of_x(self, x: float) -> complex:
        """Apply the change of variable."""
        if self.family == SEXTIC:
            return complex(x * x)
        return complex(_rexp(-x))

    def superpotential(self, x: float) -> tuple[complex, complex]:
        """(W(x), W'(x)) from one evaluation; the odd sextic sector has a pole
        at x = 0, and its W' is infinite where x^2 underflows."""
        p = self.params
        if self.family == MORSE:
            ex = _rexp(x)
            return p.d * ex - p.a / ex + p.b, p.d * ex + p.a / ex
        w, dw = x * x * x + p.a * x, 3.0 * x * x + p.a
        if self.parity == 1:
            return w, dw
        if x == 0.0:
            raise PoleError("odd-sector superpotential has a pole at x = 0")
        x2 = x * x
        return w - 1.0 / x, dw + (1.0 / x2 if x2 else math.inf)

    def decay_factor(self, x: float) -> complex:
        """The gauge factor exp(-G(x)), G' = W; x * exp(-x^4/4 - a x^2/2) in the odd sector.

        The sextic factor underflows to exact 0 far in the tails, which is fine.
        """
        p = self.params
        if self.family == SEXTIC:
            try:
                exponent = -(x ** 4) / 4.0 - p.a * x * x / 2.0
            except OverflowError:
                # the quartic dominates any a x^2 term long before overflowing
                return 0.0j
            core = _cexp(exponent)
            return x * core if self.parity == -1 else core
        ex = _rexp(x)
        return _cexp(-(p.d * ex + p.a / ex + p.b * x))


def make_sextic(params: SexticParams) -> QesModel:
    a = params.a
    n = params.two_j
    t = 1 if params.sector == EVEN else 3  # the odd sector's extra gauge factor x adds 2
    c_m = complex(-(2 * t + 2 * n))
    combo = OperatorCombination(c_0m=-4.0, c_p=4.0, c_m=c_m, c_0=4.0 * a, c_id=a * (2 * n + t))
    p1 = _poly(-2.0 * t, 4.0 * a, 4.0)
    return QesModel(
        family=SEXTIC,
        params=params,
        rep=SpinJ(n),
        combo=combo,
        ode=(_poly(0.0, -4.0), p1, _poly(t * a, -4.0 * n)),
        potential_coeffs=(1.0 + 0.0j, 2.0 * a, a * a - (4 * n + 2 + t)),
        centre=0.0,
        default_domain=(-6.0, 6.0),
        parity=2 - t,
        normalizable=True,
    )


def make_morse(params: MorseParams) -> QesModel:
    a, b, d = params.a, params.b, params.d
    n = params.two_j
    rep = SpinJ(n)
    big_d = -(2.0 * b + 1.0 + n)
    c_id = big_d * (n / 2.0) + 2.0 * a * d - b * b
    combo = OperatorCombination(c_pm=-1.0, c_p=2.0 * a, c_m=-2.0 * d, c_0=big_d, c_id=c_id)
    p2 = _poly(0.0, 0.0, -1.0)
    p1 = _poly(-2.0 * d, -(2.0 * b + 1.0), 2.0 * a)
    p0 = _poly(2.0 * a * d - b * b, -2.0 * a * n)
    centre = 0.5 * (math.log(abs(a)) - math.log(abs(d)))
    return QesModel(
        family=MORSE,
        params=params,
        rep=rep,
        combo=combo,
        ode=(p2, p1, p0),
        potential_coeffs=(
            d * d,
            -d * (1.0 - 2.0 * b),
            -a * (2.0 * b + 2.0 * n + 1.0),
            a * a,
        ),
        centre=centre,
        default_domain=(-12.0 + centre, 4.0 + centre),
        parity=0,
        normalizable=a.real > 0.0 and d.real > 0.0,
    )


def potential_eval(model: QesModel, x: float, shift: complex = 0.0j) -> complex:
    """V(x) + shift from the family's closed form.

    The odd sextic sector is fine at x = 0: only the gauge has a pole there,
    the potential itself is a polynomial.  A value that is not finite, or a
    Morse e^x out of range, raises NumericOverflowError naming x.
    """
    if model.family == SEXTIC:
        c6, c4, c2 = model.potential_coeffs
        x2 = x * x
        value = ((c6 * x2 + c4) * x2 + c2) * x2 + shift
    else:
        c2p, c1p, c1m, c2m = model.potential_coeffs
        ex = _rexp(x)
        emx = 1.0 / ex
        value = c2p * (ex * ex) + c1p * ex + c1m * emx + c2m * (emx * emx) + shift
    if not cmath.isfinite(value):
        raise NumericOverflowError(f"{model.family.capitalize()} potential overflowed at x={x!r}")
    return value


def closed_form_block_action(model: QesModel, k: int) -> tuple[complex, complex, complex]:
    """(lower, diag, upper): coefficients of z^{k-1}, z^k, z^{k+1} in the image of z^k.

    Hand-derived tridiagonal action of the model's operator combination;
    kept deliberately independent of sl2.build_block so the two can be
    compared entry by entry.
    """
    n = model.rep.two_j
    if not isinstance(k, int) or isinstance(k, bool) or k < 0 or k > n:
        raise ValidationError(f"basis index k={k!r} outside 0..{n}")
    if model.family == SEXTIC:
        a, t = model.params.a, 1 if model.params.sector == EVEN else 3
        return complex(-2 * k * (2 * k + t - 2)), a * (4 * k + t), complex(4 * (k - n))
    a, b, d = model.params.a, model.params.b, model.params.d
    return (
        -2.0 * d * k,
        -complex(k * (k - 1)) - (2.0 * b + 1.0) * k + 2.0 * a * d - b * b,
        2.0 * a * (k - n),
    )
