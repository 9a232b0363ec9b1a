"""Wavefunctions of solved levels and independent verification of solved models.

psi_eval, psi_abs2, residual_sup and norm_squared take a model and one of
its solved levels: psi(x) = phi(z(x)) * exp(-G(x)) from the level's
polynomial phi and the model's change of variable and gauge factor.

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
  * partner_potentials evaluates the isospectral pair W^2 -/+ W' from the
    model's own superpotential.
  * fd_verify discretizes the shifted Hamiltonian of a model once, with
    second-order central differences on a Dirichlet grid, and refines each
    predicted eigenvalue on it by inverse iteration: one complex
    tridiagonal LU per level and about three solves, each giving the
    bilinear quotient u^T H u / u^T u without a product by H.  On a grid
    symmetric about 0 the even sextic potential keeps each sector's
    parity, so sextic levels are refined on the x > 0 half of the grid
    alone, where no level of the other parity exists to mix in.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .cpoly import (
    poly_add,
    poly_derivative,
    poly_eval,
    poly_eval_bounded,
    poly_mul,
    poly_scale,
    poly_sub,
)
from .errors import ConvergenceFailureError, NumericOverflowError, ValidationError
from .families import MORSE, ODD, SEXTIC, QesModel, potential_eval
from .spectrum import QesSolution
from .tridiag import tridiag_factor, tridiag_solve


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


def psi_eval(model: QesModel, solution: QesSolution, x: float) -> complex:
    """psi(x) of one solved level; underflows to exact 0 in the far tail."""
    return poly_eval(solution.phi_coeffs, model.z_of_x(x)) * model.decay_factor(x)


RESIDUAL_SAMPLE_COUNT = 21


def default_residual_sample(model: QesModel) -> list[float]:
    """Sample abscissas covering the region where the block polynomials have weight."""
    if model.family == SEXTIC:
        lo, hi = -1.5, 1.5
    else:
        lo, hi = -1.0, 3.0
    step = (hi - lo) / (RESIDUAL_SAMPLE_COUNT - 1)
    return [lo + i * step for i in range(RESIDUAL_SAMPLE_COUNT)]


def residual_sup(model: QesModel, solution: QesSolution, sample: Sequence[float]) -> float:
    """Scaled sup of the z-space equation residual over the sample.

    Returns max_x |R(g(x))| / max-coefficient of p2 phi'' + p1 phi' + p0 phi,
    with R assembled coefficient-wise; at most 1e-10 for genuine eigenpairs.
    """
    if not sample:
        raise ValidationError("residual_sup needs a nonempty sample")
    p2, p1, p0 = model.ode
    phi = solution.phi_coeffs
    d1 = poly_derivative(phi)
    d2 = poly_derivative(d1)
    operator_part = poly_add(poly_add(poly_mul(p2, d2), poly_mul(p1, d1)), poly_mul(p0, phi))
    residual = poly_sub(operator_part, poly_scale(phi, solution.energy_base))
    scale = max(max((abs(c) for c in operator_part.coeffs), default=0.0), 1e-300)
    return max(abs(poly_eval(residual, model.z_of_x(x))) for x in sample) / scale


# Trapezoidal rule on the line: nodes x = k*h, |x| <= half-width.
NORM_START_HALF_WIDTH = 2.0
NORM_START_STEP = 0.25
NORM_REL_TOL = 1e-12
NORM_NODE_CAP = 1 << 16
NORM_MAX_WIDENINGS = 60
# Largest rounding bound, relative to the sum, that the step test accepts.
NORM_ROUNDING_CAP = 1e-6


def psi_abs2(model: QesModel, solution: QesSolution, x: float) -> tuple[float, float]:
    """|psi(x)|^2 and the Horner error bound of phi carried through it.

    The other roundings stay within a few ulps, far below NORM_REL_TOL.
    """
    value, bound = poly_eval_bounded(solution.phi_coeffs, model.z_of_x(x))
    g = model.decay_factor(x)
    psi = value * g
    spread = bound * abs(g) if g else 0.0  # g == 0: psi underflowed to an exact 0
    return psi.real * psi.real + psi.imag * psi.imag, (2.0 * abs(psi) + spread) * spread


def norm_squared(model: QesModel, solution: QesSolution) -> float:
    """Integral of |psi|^2 over the line by the trapezoidal rule on x = k*h.

    At step NORM_START_STEP the half-width doubles from
    NORM_START_HALF_WIDTH until one doubling changes the sum by at most
    NORM_REL_TOL relative (the tail test); on that wider interval the step
    then halves until the sum agrees with the one at twice the step to
    NORM_REL_TOL, or within the two sums' rounding bound (psi_abs2) if
    that is larger, as for the cancelling upper levels of large blocks.
    A rounding bound above NORM_ROUNDING_CAP of the sum leaves no sum to
    trust and raises ConvergenceFailureError.
    Nodes carry full weight, so the step test also fails while the edge
    samples matter.  |psi|^2 is analytic and decays faster than any
    exponential, so the error falls geometrically as the step halves
    (Trefethen & Weideman, SIAM Rev. 56, 2014).  Halving or widening
    evaluates only the new nodes; every abscissa is sampled at most once
    per call.  More than NORM_NODE_CAP nodes, or more than
    NORM_MAX_WIDENINGS doublings, raise ConvergenceFailureError carrying
    the last sum as `best`.

    Requires a decaying gauge: always true for the sextic family, and for
    Morse only under Re a > 0 and Re d > 0 (an inferred condition; the
    construction itself never states it).
    """
    if model.family == MORSE:
        if model.params.a.real <= 0.0 or model.params.d.real <= 0.0:
            raise ValidationError(
                "Morse normalization needs Re a > 0 and Re d > 0 for a decaying gauge"
            )

    samples: dict[float, tuple[float, float]] = {}

    def trapezoid(h: float, half: float, best: float | None) -> tuple[float, float]:
        last = int(half / h)
        if 2 * last + 1 > NORM_NODE_CAP:
            raise ConvergenceFailureError("quadrature refinement did not converge", best=best)
        terms = []
        for k in range(-last, last + 1):
            x = k * h  # h is a power of two times the start step: k*h is exact
            sample = samples.get(x)
            if sample is None:
                sample = samples[x] = psi_abs2(model, solution, x)
            terms.append(sample)
        values, errors = zip(*terms)
        return h * math.fsum(values), h * sum(errors)  # the sum and its rounding bound

    def agree(a: float, b: float, rounding: float = 0.0) -> bool:
        return abs(a - b) <= max(NORM_REL_TOL * max(abs(b), 1e-300), rounding)

    h = NORM_START_STEP
    half = NORM_START_HALF_WIDTH
    total, _ = trapezoid(h, half, None)
    for _ in range(NORM_MAX_WIDENINGS):
        half *= 2.0
        wider, rounding = trapezoid(h, half, total)
        if agree(total, wider):
            break
        total = wider
    else:
        raise ConvergenceFailureError("normalization tail did not stabilize", best=total)
    # refine on the wider interval, whose edge samples the tail test showed negligible
    total = wider
    while True:
        finer, finer_rounding = trapezoid(h / 2.0, half, total)
        if rounding + finer_rounding > NORM_ROUNDING_CAP * abs(finer):
            raise ConvergenceFailureError("quadrature refinement did not converge", best=finer)
        if agree(total, finer, rounding + finer_rounding):
            return finer
        total, rounding = finer, finer_rounding
        h /= 2.0


PT_TOL = 1e-9


def is_pt_symmetric(model: QesModel, shift: complex = 0.0j) -> bool:
    """Test V*(-x) = V(x) for the shifted potential.

    The sextic potential is even in x, so the test reduces to all
    coefficients (and the shift) being real; the Morse test compares
    function values on a symmetric sample.
    """
    shift = complex(shift)
    if model.family == SEXTIC:
        values = list(model.potential_coeffs) + [shift]
        return all(abs(v.imag) <= PT_TOL * max(1.0, abs(v)) for v in values)
    count = 64
    xs = [-3.0 + 6.0 * i / (count - 1) for i in range(count)]
    vals = [potential_eval(model, x) + shift for x in xs]
    mirrored = [(potential_eval(model, -x) + shift).conjugate() for x in xs]
    scale = max(1.0, max(abs(v) for v in vals))
    defect = max(abs(a - b) for a, b in zip(vals, mirrored))
    return defect <= PT_TOL * scale


def partner_potentials(model: QesModel, x: float) -> tuple[complex, complex]:
    """(v_minus, v_plus) = (W^2 - W', W^2 + W') at x, from one evaluation of W and W'.

    v_minus is the model's own shape at j = 0.  Both are built from the
    superpotential values themselves, so v_plus - v_minus = 2 W' is a
    checkable identity rather than a definition.  The odd sextic sector has
    a pole at x = 0.
    """
    w = model.superpotential(x)
    dw = model.superpotential_derivative(x)
    v_minus, v_plus = w * w - dw, w * w + dw
    if not (cmath.isfinite(v_minus) and cmath.isfinite(v_plus)):
        raise NumericOverflowError(f"partner potential overflowed at x={x!r}")
    return v_minus, v_plus


# Inverse-iteration shift offset from the predicted eigenvalue, the
# agreement of successive quotients that ends the iteration, the solves
# allowed per level and the default grid's interior points.
FD_SHIFT_OFFSET = 1e-4
FD_RQ_TOL = 1e-10
FD_MAX_STEPS = 200
FD_GRID_N = 2000


def _inverse_iteration(factors, sigma: complex, v: Sequence[complex]) -> complex:
    """Eigenvalue nearest sigma of a complex symmetric H, from the LU of H - sigma I.

    Each solve (H - sigma I) u = v gives the bilinear quotient u^T H u / u^T u,
    stationary at eigenvectors of a complex symmetric H (Arbenz & Hochstenbach,
    SIAM J. Sci. Comput. 25, 2004), as sigma + u^T v / u^T u: no product by H.
    An isotropic u (u^T u = 0), or FD_MAX_STEPS solves without two quotients
    agreeing to FD_RQ_TOL, raise ConvergenceFailureError with the last as `best`.
    """
    estimate = None
    for _ in range(FD_MAX_STEPS):
        u = tridiag_solve(factors, v)
        uu = sum(map(operator.mul, u, u))
        if uu == 0:
            raise ConvergenceFailureError("inverse iteration met u^T u = 0", best=estimate)
        last, estimate = estimate, sigma + sum(map(operator.mul, u, v)) / uu
        if last is not None and abs(estimate - last) < FD_RQ_TOL:
            return estimate
        scale = math.hypot(*map(abs, u))
        v = [c / scale for c in u]
    raise ConvergenceFailureError(
        f"inverse iteration did not settle within {FD_MAX_STEPS} iterations", best=estimate
    )


def _refine_levels(off: list[float], diag: list[complex], predicted: Sequence[complex]) -> list:
    """Refine each prediction on tridiag(off, diag, off) from a ramp (it carries both parities)."""
    n = len(diag)
    start = [1.0 + (i + 1.0) / n for i in range(n)]
    sigmas = [guess + FD_SHIFT_OFFSET for guess in predicted]
    return [_inverse_iteration(tridiag_factor(off, diag, off, s), s, start) for s in sigmas]


def fd_refine_energy(
    potential: Callable[[float], complex],
    x_min: float,
    x_max: float,
    n_points: int,
    predicted: Sequence[complex],
) -> list[complex]:
    """Refine each of `predicted` on the central-difference Dirichlet Hamiltonian.

    H samples the potential once per interior point.  The off-diagonals
    are -1/h^2, so only the last pivot can vanish, and tridiag_factor
    replaces it by eps * ||H||.
    """
    h = (x_max - x_min) / (n_points + 1)
    inv_h2 = 1.0 / (h * h)
    diag = [2.0 * inv_h2 + potential(x_min + (i + 1) * h) for i in range(n_points)]
    return _refine_levels([-inv_h2] * (n_points - 1), diag, predicted)


def default_grid(model: QesModel, n_points: int = FD_GRID_N) -> GridSpec:
    """Family defaults sized so the gauge factor is below 1e-16 at the ends."""
    if model.family == SEXTIC:
        return GridSpec(-6.0, 6.0, n_points)
    return GridSpec(-12.0, 4.0, n_points)


def fd_verify(
    model: QesModel, solutions: Sequence[QesSolution], grid: GridSpec | None = None
) -> tuple[tuple[complex, ...], float]:
    """Grid check of a model's levels on one grid: (refined values, max |refined - predicted|).

    The levels must share one potential shift, as solve_model's do.  A
    sextic model on a grid symmetric about 0 is discretized on the x > 0
    half only, with the mirror neighbour psi(-x) = +/-psi(x) of its sector
    folded in; every other grid keeps all its points (fd_refine_energy).
    """
    shift = solutions[0].shift
    if any(s.shift != shift for s in solutions):
        raise ValidationError("fd_verify needs levels that share one potential shift")
    if grid is None:
        grid = default_grid(model)

    def shifted_potential(x: float) -> complex:
        return potential_eval(model, x, shift)

    predicted = [s.energy_shifted for s in solutions]
    n = grid.n_points
    if model.family == SEXTIC and grid.x_min == -grid.x_max:
        # an odd n puts a point at x = 0; an odd psi vanishes there, and an
        # even psi couples to its two equal neighbours by -2/h^2, which
        # scaling psi(0) by 1/sqrt(2) makes a symmetric -sqrt(2)/h^2
        odd = model.params.sector == ODD
        h = (grid.x_max - grid.x_min) / (n + 1)
        inv_h2 = 1.0 / (h * h)
        first = n // 2 + (n % 2 == 1 and odd)
        diag = [2.0 * inv_h2 + shifted_potential(grid.x_min + (i + 1) * h) for i in range(first, n)]
        off = [-inv_h2] * (n - first - 1)
        if n % 2 == 0:
            diag[0] += inv_h2 if odd else -inv_h2
        elif not odd:
            off[0] *= math.sqrt(2.0)
        refined = _refine_levels(off, diag, predicted)
    else:
        refined = fd_refine_energy(shifted_potential, grid.x_min, grid.x_max, n, predicted)
    return tuple(refined), max(abs(r - p) for r, p in zip(refined, predicted))
