"""Wavefunction assembly and independent verification of solved models.

Verification is deliberately redundant:

  * residual_sup evaluates the gauged equation symbolically in z.  The
    bracket R = p2 phi'' + p1 phi' + (p0 - E) phi is assembled with exact
    polynomial arithmetic, so for a genuine eigenpair its coefficients
    cancel to roundoff and no numerical differentiation ever happens.
  * norm_squared integrates |psi|^2 by the trapezoidal rule on the nodes
    x = k*h: it doubles the interval until the tail is negligible, then
    halves h until the sum settles, reusing every earlier sample.  For an
    analytic, super-exponentially decaying integrand the rule converges
    geometrically in 1/h.
  * is_pt_symmetric tests V*(-x) = V(x) including the additive shift.
  * susy_partner exposes the isospectral construction W^2 +/- W' built from
    the model's own superpotential.
  * fd_refine_energy discretizes the shifted Hamiltonian with second-order
    central differences on a Dirichlet grid and refines the predicted
    eigenvalue by inverse iteration (complex tridiagonal LU with a
    partial-pivoting safeguard); the shift is deliberately offset from the
    prediction so the factored matrix stays comfortably invertible.  On a
    grid symmetric about 0, sextic levels start from a vector of their
    sector's parity, so a nearly degenerate level of the other parity
    cannot mix in.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .cpoly import poly_derivative, poly_eval, poly_mul, poly_scale, poly_sub
from .errors import ConvergenceFailureError, NumericOverflowError, ValidationError
from .families import MORSE, ODD, SEXTIC, GaugeSpec, QesModel, potential_eval
from .spectrum import QesSolution
from .tridiag import LuBreakdown, tridiag_factor, tridiag_matvec, tridiag_solve


@dataclass(frozen=True)
class Wavefunction:
    """psi(x) = phi(g(x)) * exp(-G(x)) for one solved level of a model."""

    model: QesModel
    solution: QesSolution


@dataclass(frozen=True)
class GridSpec:
    """Uniform Dirichlet grid; n_points counts interior points."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise ValidationError("grid needs x_min < x_max")
        if self.n_points < 64:
            raise ValidationError("grid needs at least 64 points")


def psi_eval(w: Wavefunction, x: float) -> complex:
    """Evaluate the full-line wavefunction; underflows to exact 0 in the far tail."""
    z = w.model.z_of_x(x)
    return poly_eval(w.solution.phi_coeffs, z) * w.model.gauge.decay_factor(x)


def default_residual_sample(model: QesModel, count: int = 21) -> list[float]:
    """Sample abscissas covering the region where the block polynomials have weight."""
    if model.family == SEXTIC:
        lo, hi = -1.5, 1.5
    else:
        lo, hi = -1.0, 3.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def residual_sup(w: Wavefunction, sample: Sequence[float]) -> float:
    """Scaled sup of the z-space equation residual over the sample.

    Returns max_x |R(g(x))| / max-coefficient of p2 phi'' + p1 phi' + p0 phi,
    with R assembled coefficient-wise; at most 1e-10 for genuine eigenpairs.
    """
    if not sample:
        raise ValidationError("residual_sup needs a nonempty sample")
    p2, p1, p0 = w.model.ode
    phi = w.solution.phi_coeffs
    d1 = poly_derivative(phi)
    d2 = poly_derivative(d1)
    operator_part = poly_mul(p2, d2) + poly_mul(p1, d1) + poly_mul(p0, phi)
    residual = poly_sub(operator_part, poly_scale(phi, w.solution.energy_base))
    scale = max((abs(c) for c in operator_part.coeffs), default=0.0)
    scale = max(scale, 1e-300)
    return max(abs(poly_eval(residual, w.model.z_of_x(x))) for x in sample) / scale


# Trapezoidal rule on the line: nodes x = k*h, |x| <= half-width.
NORM_START_STEP = 0.25
NORM_REL_TOL = 1e-12
NORM_NODE_CAP = 1 << 16
NORM_MAX_WIDENINGS = 60


def norm_squared(w: Wavefunction, initial_half_width: float = 2.0) -> float:
    """Integral of |psi|^2 over the line by the trapezoidal rule on x = k*h.

    At step NORM_START_STEP the half-width doubles until one doubling
    changes the sum by at most NORM_REL_TOL relative (the tail test); on
    that wider interval the step then halves until the sum agrees with the
    one at twice the step to NORM_REL_TOL.  Nodes carry full weight, so
    the step test also fails while the edge samples matter.  |psi|^2 is
    analytic and decays faster than any exponential, so the error falls
    geometrically as the step halves (Trefethen & Weideman, SIAM Rev. 56,
    2014).  Halving or widening evaluates only the new nodes; every
    abscissa is sampled at most once per call.  More than NORM_NODE_CAP
    nodes, or more than NORM_MAX_WIDENINGS doublings, raise
    ConvergenceFailureError carrying the last sum as `best`.

    Requires a decaying gauge: always true for the sextic family, and for
    Morse only under Re a > 0 and Re d > 0 (an inferred condition; the
    construction itself never states it).
    """
    model = w.model
    if model.family == MORSE:
        if model.params.a.real <= 0.0 or model.params.d.real <= 0.0:
            raise ValidationError(
                "Morse normalization needs Re a > 0 and Re d > 0 for a decaying gauge"
            )

    samples: dict[float, float] = {}

    def trapezoid(h: float, half: float, best: float | None) -> float:
        last = int(half / h)
        if 2 * last + 1 > NORM_NODE_CAP:
            raise ConvergenceFailureError("quadrature refinement did not converge", best=best)
        terms = []
        for k in range(-last, last + 1):
            x = k * h  # h is a power of two times the start step: k*h is exact
            value = samples.get(x)
            if value is None:
                v = psi_eval(w, x)
                value = samples[x] = v.real * v.real + v.imag * v.imag
            terms.append(value)
        return h * math.fsum(terms)

    def agree(a: float, b: float) -> bool:
        return abs(a - b) <= NORM_REL_TOL * max(abs(b), 1e-300)

    h = NORM_START_STEP
    half = initial_half_width
    total = trapezoid(h, half, None)
    for _ in range(NORM_MAX_WIDENINGS):
        half *= 2.0
        wider = trapezoid(h, half, total)
        if agree(total, wider):
            break
        total = wider
    else:
        raise ConvergenceFailureError("normalization tail did not stabilize", best=total)
    # refine on the wider interval, whose edge samples the tail test showed negligible
    total = wider
    while True:
        finer = trapezoid(h / 2.0, half, total)
        if agree(total, finer):
            return finer
        total = finer
        h /= 2.0


def is_pt_symmetric(model: QesModel, shift: complex = 0.0j, tol: float = 1e-9) -> bool:
    """Test V*(-x) = V(x) for the shifted potential.

    The sextic potential is even in x, so the test reduces to all
    coefficients (and the shift) being real; the Morse test compares
    function values on a symmetric sample.
    """
    shift = complex(shift)
    if model.family == SEXTIC:
        values = list(model.potential_coeffs) + [shift]
        return all(abs(v.imag) <= tol * max(1.0, abs(v)) for v in values)
    count = 64
    xs = [-3.0 + 6.0 * i / (count - 1) for i in range(count)]
    vals = [potential_eval(model, x) + shift for x in xs]
    mirrored = [(potential_eval(model, -x) + shift).conjugate() for x in xs]
    scale = max(1.0, max(abs(v) for v in vals))
    defect = max(abs(a - b) for a, b in zip(vals, mirrored))
    return defect <= tol * scale


def _finite_or_raise(value: complex, x: float) -> complex:
    if not cmath.isfinite(value):
        raise NumericOverflowError(f"partner potential overflowed at x={x!r}")
    return value


@dataclass(frozen=True)
class SusyPartner:
    """The pair W^2 - W' (the model's own shape at j = 0) and W^2 + W'.

    Both evaluators are built from the superpotential values themselves, so
    v_plus(x) - v_minus(x) = 2 W'(x) is a checkable identity rather than a
    definition.  The odd sextic sector has a pole at x = 0.
    """

    gauge: GaugeSpec

    def v_minus(self, x: float) -> complex:
        w = self.gauge.superpotential(x)
        return _finite_or_raise(w * w - self.gauge.superpotential_derivative(x), x)

    def v_plus(self, x: float) -> complex:
        w = self.gauge.superpotential(x)
        return _finite_or_raise(w * w + self.gauge.superpotential_derivative(x), x)

    def difference(self, x: float) -> complex:
        return self.v_plus(x) - self.v_minus(x)


def susy_partner(model: QesModel) -> SusyPartner:
    return SusyPartner(model.gauge)


def _parity_start(n: int, odd: bool) -> list[float]:
    """Inverse-iteration start of one parity under the mirror i -> n-1-i.

    These are the even and odd parts of the default ramp start, up to
    scale.  On a grid symmetric about 0 they keep inverse iteration inside
    one parity sector, so a nearly degenerate level of the other parity
    cannot mix into the Rayleigh quotient.  Mirror entries are exactly
    equal or exactly opposite.
    """
    if odd:
        return [(2.0 * i + 1.0 - n) / n for i in range(n)]
    return [1.0] * n


# Inverse-iteration shift offset from the predicted eigenvalue, and the
# agreement of successive Rayleigh quotients that ends the iteration.
FD_SHIFT_OFFSET = 1e-4
FD_RQ_TOL = 1e-10


def fd_refine_energy(
    potential: Callable[[float], complex],
    x_min: float,
    x_max: float,
    n_points: int,
    predicted: complex,
    max_iter: int = 200,
    start: Sequence[float] | None = None,
) -> complex:
    """Refine `predicted` against the central-difference Dirichlet Hamiltonian.

    Inverse iteration with shift sigma = predicted + FD_SHIFT_OFFSET; the
    offset is doubled and the factorization retried (up to 5 times) if the
    tridiagonal LU breaks down.  Convergence is declared when successive
    Rayleigh quotients agree to FD_RQ_TOL.  The iteration starts from
    `start` (one real value per interior point), by default a ramp.
    """
    n = n_points
    h = (x_max - x_min) / (n + 1)
    inv_h2 = 1.0 / (h * h)
    diag0 = [2.0 * inv_h2 + potential(x_min + (i + 1) * h) for i in range(n)]
    off = [-inv_h2] * (n - 1)

    factors = None
    offset = FD_SHIFT_OFFSET
    for _ in range(6):
        sigma = predicted + offset
        try:
            factors = tridiag_factor(off, [v - sigma for v in diag0], off)
            break
        except LuBreakdown:
            offset *= 2.0
    if factors is None:
        raise ConvergenceFailureError("tridiagonal factorization kept breaking down")

    if start is None:
        # ramp start: carries both parities, so parity-odd eigenstates on a
        # symmetric grid are reachable without waiting for roundoff
        start = [1.0 + (i + 1.0) / n for i in range(n)]
    scale = math.sqrt(sum(c * c for c in start))
    v = [complex(c / scale) for c in start]
    rayleigh = None
    for _ in range(max_iter):
        u = tridiag_solve(factors, v)
        norm = math.sqrt(sum(c.real * c.real + c.imag * c.imag for c in u))
        u = [c / norm for c in u]
        hu = tridiag_matvec(off, diag0, off, u)
        estimate = sum(u[i].conjugate() * hu[i] for i in range(n))
        if rayleigh is not None and abs(estimate - rayleigh) < FD_RQ_TOL:
            return estimate
        rayleigh = estimate
        v = u
    raise ConvergenceFailureError(
        f"inverse iteration did not settle within {max_iter} iterations",
        best=rayleigh,
        defect=None,
    )


def default_grid(model: QesModel, n_points: int = 2000) -> GridSpec:
    """Family defaults sized so the gauge factor is below 1e-16 at the ends."""
    if model.family == SEXTIC:
        return GridSpec(-6.0, 6.0, n_points)
    return GridSpec(-12.0, 4.0, n_points)


def fd_verify(
    model: QesModel, solution: QesSolution, grid: GridSpec | None = None
) -> tuple[complex, float]:
    """Grid cross-check of one level: (refined eigenvalue, |refined - predicted|)."""
    if grid is None:
        grid = default_grid(model)
    predicted = solution.energy_shifted

    def shifted_potential(x: float) -> complex:
        return potential_eval(model, x, solution.shift)

    start = None
    if model.family == SEXTIC and grid.x_min == -grid.x_max:
        start = _parity_start(grid.n_points, odd=model.params.sector == ODD)
    refined = fd_refine_energy(
        shifted_potential, grid.x_min, grid.x_max, grid.n_points, predicted, start=start
    )
    return refined, abs(refined - predicted)
