"""Wavefunctions of solved levels and independent verification of solved models.

psi_eval, psi_abs2, residual_sup and norm_squared take a model and one of
its solved levels: psi(x) = phi(z(x)) * exp(-G(x)) from the level's
polynomial phi and the model's change of variable and gauge factor.

Verification is deliberately redundant:

  * residual_sup evaluates the gauged equation symbolically in z.  The
    bracket R = p2 phi'' + p1 phi' + (p0 - E) phi is assembled coefficient
    by coefficient, with no sample points and no numerical differentiation,
    and its largest coefficient is divided by the largest sum of the
    magnitudes of the four terms that make it up: the normwise backward
    error of phi, rounding-sized for a genuine eigenpair.
  * norm_squared integrates |psi|^2 by the trapezoidal rule on the nodes
    x = k*h: it doubles the interval until the tail is negligible, then
    halves h until the sum settles, reusing every earlier sample.  For an
    analytic, super-exponentially decaying integrand the rule converges
    geometrically in 1/h.
  * is_pt_symmetric tests V*(-x) = V(x) including the additive shift, each
    coefficient against the conjugate of its mirror term's.
  * partner_potentials evaluates the isospectral pair W^2 -/+ W' from the
    model's own superpotential.
  * fd_verify builds a model's Hamiltonian, shifted by its one constant,
    once on a second-order central-difference Dirichlet grid and refines
    each energy_base + shift on it by Newton on det(H - zI), each step one
    O(n) pass of the LDL^T pivot recurrence for p'/p.  Newton stops once the
    step it would take next is below the level's rounding floor
    eps * (4/h^2 + |z|), two passes on the default grid.  A Newton root
    within the level's defect bound of the prediction is kept; any other level
    falls back to inverse iteration, one complex tridiagonal LU of H minus
    the prediction itself and about three solves, each giving the bilinear
    quotient u^T H u / u^T u without a product by H, which names the grid
    eigenvalue nearest the prediction however far off it lies.  The grid
    keeps all its points, except that on a grid symmetric about 0 the even
    sextic potential keeps each sector's parity, so sextic levels are
    refined on the x > 0 half alone, where no level of the other parity
    exists to mix in.  It returns one GridCheck: the grid, the refined
    values, their largest defect and the bound that is both the Newton
    radius and the verify gate.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import zip_longest
from typing import Sequence

from .cpoly import poly_derivative, poly_eval, poly_eval_bounded, poly_mul, poly_scale
from .errors import ConvergenceFailureError, NumericOverflowError, ValidationError
from .families import MORSE, ODD, SEXTIC, QesModel, potential_eval
from .spectrum import QesSolution
from .tridiag import tridiag_factor, tridiag_log_derivative, tridiag_solve


MAX_POINTS = 10**6  # the most points a grid, a scan or a partner sample may hold


@dataclass(frozen=True)
class GridSpec:
    """Uniform Dirichlet grid; n_points counts interior points."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise ValidationError("grid needs x_min < x_max")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValidationError("grid needs finite ends")
        if not isinstance(self.n_points, int) or isinstance(self.n_points, bool):
            raise ValidationError("grid needs an integer number of points")
        if self.n_points < 64:
            raise ValidationError("grid needs at least 64 points")
        if self.n_points > MAX_POINTS:
            raise ValidationError(f"grid needs at most {MAX_POINTS} points")


def psi_eval(model: QesModel, solution: QesSolution, x: float) -> complex:
    """psi(x) of one solved level; underflows to exact 0 in the far tail."""
    return poly_eval(solution.phi_coeffs, model.z_of_x(x)) * model.decay_factor(x)


def residual_sup(model: QesModel, solution: QesSolution) -> float:
    """Normwise backward error of a level in the z-space equation; 0 when every term is 0.

    With a, b, c the coefficients of p2 phi'', p1 phi' and p0 phi, and
    r = a + b + c - E phi those of the residual R, returns
    max_k |r_k| / max_k (|a_k| + |b_k| + |c_k| + |E phi_k|) (Higham,
    Accuracy and Stability of Numerical Algorithms, section 7.1); at most
    1e-10 for genuine eigenpairs.  It reads no sample points, so it stays
    rounding-sized where every term vanishes at some z (E = 0 at z = 0).
    """
    p2, p1, p0 = model.ode
    phi = solution.phi_coeffs
    d1 = poly_derivative(phi)
    a, b, c = poly_mul(p2, poly_derivative(d1)), poly_mul(p1, d1), poly_mul(p0, phi)
    e = poly_scale(phi, -solution.energy_base)
    columns = list(zip_longest(a.coeffs, b.coeffs, c.coeffs, e.coeffs, fillvalue=0j))
    # float sums left to right: builtin sum() compensates floats from Python 3.12 on
    scale = max((reduce(operator.add, map(abs, col), 0.0) for col in columns), default=0.0)
    return max(abs(sum(col)) for col in columns) / scale if scale else 0.0


# Trapezoidal rule on the line: nodes x = k*h, |x| <= half-width.
NORM_START_HALF_WIDTH = 2.0
NORM_START_STEP = 0.25
NORM_REL_TOL = 1e-12
NORM_NODE_CAP = 1 << 16
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
    trust and raises ConvergenceFailureError with that ratio as `defect`.
    Nodes carry full weight, so the step test also fails while the edge
    samples matter.  |psi|^2 is analytic and decays faster than any
    exponential, so the error falls geometrically as the step halves
    (Trefethen & Weideman, SIAM Rev. 56, 2014).  Halving or widening
    evaluates only the new nodes; every abscissa is sampled at most once
    per call.  A sum over more than NORM_NODE_CAP nodes raises
    ConvergenceFailureError with the last sum as `best` and the relative
    change of the last widening or halving as `defect`: "normalization tail
    did not stabilize" while widening (from half-width 8192 at the start
    step), "quadrature refinement did not converge" while halving.  A sum
    beyond the largest double raises it too, "normalization sum overflowed",
    with the largest finite sample over the largest double as `defect`.

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
    # |psi(-x)|^2 is |psi(x)|^2 to the last bit for the sextic: x enters as x*x
    # and x^4, and the odd sector's factor x flips the sign of psi exactly
    mirrored = model.family == SEXTIC

    def trapezoid(h: float, half: float) -> tuple[float, float]:
        last = int(half / h)
        terms = []
        for k in range(-last, last + 1):
            x = k * h  # h is a power of two times the start step: k*h is exact
            if mirrored:
                x = abs(x)
            sample = samples.get(x)
            if sample is None:
                sample = samples[x] = psi_abs2(model, solution, x)
            terms.append(sample)
        values, errors = zip(*terms)
        try:
            # the sum and its rounding bound, added left to right on every Python version
            return h * math.fsum(values), h * reduce(operator.add, errors, 0.0)
        except OverflowError:  # finite samples whose sum is beyond the largest double
            largest = max(filter(math.isfinite, values))
            raise ConvergenceFailureError(
                "normalization sum overflowed", defect=largest / sys.float_info.max
            ) from None

    change = math.inf  # relative change of the last widening or halving: a cap's defect

    def agree(a: float, b: float, rounding: float = 0.0) -> bool:
        nonlocal change
        scale = max(abs(b), 1e-300)
        change = abs(a - b) / scale
        return abs(a - b) <= max(NORM_REL_TOL * scale, rounding)

    h = NORM_START_STEP
    half = NORM_START_HALF_WIDTH
    total, _ = trapezoid(h, half)
    while True:
        half *= 2.0
        if 2 * int(half / h) + 1 > NORM_NODE_CAP:
            raise ConvergenceFailureError(
                "normalization tail did not stabilize", best=total, defect=change
            )
        wider, rounding = trapezoid(h, half)
        if agree(total, wider):
            break
        total = wider
    # refine on the wider interval, whose edge samples the tail test showed negligible
    total = wider
    while True:
        if 2 * int(2.0 * half / h) + 1 > NORM_NODE_CAP:
            raise ConvergenceFailureError(
                "quadrature refinement did not converge", best=total, defect=change
            )
        finer, finer_rounding = trapezoid(h / 2.0, half)
        if rounding + finer_rounding > NORM_ROUNDING_CAP * abs(finer):
            bound = (rounding + finer_rounding) / abs(finer) if finer else math.inf
            raise ConvergenceFailureError(
                "quadrature refinement did not converge", best=finer, defect=bound
            )
        if agree(total, finer, rounding + finer_rounding):
            return finer
        total, rounding = finer, finer_rounding
        h /= 2.0


PT_TOL = 1e-9


def is_pt_symmetric(model: QesModel, shift: complex = 0.0j) -> bool:
    """Test V*(-x) = V(x) for the shifted potential, coefficient by coefficient.

    Each coefficient c must match the conjugate of its mirror m,
    |c - conj(m)| <= 2 PT_TOL max(1, |c|).  A sextic x^{2m} term and the
    shift are their own mirrors, so they must be real; a Morse e^{kx} term
    mirrors e^{-kx}, so the Morse coefficients pair with their reverse.
    """
    coeffs = model.potential_coeffs
    mirrors = coeffs if model.family == SEXTIC else coeffs[::-1]
    pairs = zip((*coeffs, complex(shift)), (*mirrors, complex(shift)))
    return all(abs(c - m.conjugate()) <= 2.0 * PT_TOL * max(1.0, abs(c)) for c, m in pairs)


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


# Newton steps allowed per level before the fallback (every default-grid
# level of a block with 2j <= 5 that Newton keeps settles in 2, its second
# step below the rounding floor; coarse grids and large 2j can take more
# than 20), the step (Newton) or the agreement of successive
# quotients (inverse iteration, shifted by the prediction itself) that ends
# the refinement, the least |u^T u| / ||u||^2 trusted (grids measured keep
# it above 4.9e-7; rounding leaves an isotropic u at about 1e-16), the
# solves allowed per level and the default grid's interior points.
FD_NEWTON_STEPS = 6
FD_RQ_TOL = 1e-10
FD_ISOTROPY_TOL = 1e-12
FD_MAX_STEPS = 200
FD_GRID_N = 2000
# Second-order truncation budget of a level on the default grid.
FD_REFERENCE_DEFECT = 5e-3


def _newton_root(
    diag: list[complex], prod: list[float], guess: complex, radius: float, kinetic: float = 0.0
) -> complex | None:
    """Eigenvalue of H within radius of guess by Newton on det(H - zI), or None.

    Each step is 1 / (p'/p) from tridiag_log_derivative.  A root is
    returned once a step is below FD_RQ_TOL, or once a step shorter than
    the one before, and not the last allowed, puts the quadratic model's
    next step |s_k|^3 / |s_{k-1}|^2 at or below the level's rounding floor
    eps * (kinetic + |z|), kinetic being H's kinetic row sum 4 / h^2.  None
    means the level needs inverse iteration: a step that is not finite, an
    iterate farther than radius from guess, or FD_NEWTON_STEPS steps
    without settling.
    """
    z, previous = guess, 0.0  # no step comes before the first
    for k in range(1, FD_NEWTON_STEPS + 1):
        ratio = tridiag_log_derivative(diag, prod, z)
        step = 1.0 / ratio if ratio else complex(math.inf)
        z -= step
        if not cmath.isfinite(step) or abs(z - guess) > radius:
            return None
        size = abs(step)
        if size < FD_RQ_TOL:
            return z
        floor = sys.float_info.epsilon * (kinetic + abs(z))
        if k < FD_NEWTON_STEPS and size < previous and size**3 <= floor * previous**2:
            return z
        previous = size
    return None


def _inverse_iteration(factors, sigma: complex, v: Sequence[complex]) -> complex:
    """Eigenvalue nearest sigma of a complex symmetric H, from the LU of H - sigma I.

    Each solve (H - sigma I) u = v gives the bilinear quotient u^T H u / u^T u,
    stationary at eigenvectors of a complex symmetric H (Arbenz & Hochstenbach,
    SIAM J. Sci. Comput. 25, 2004), as sigma + u^T v / u^T u: no product by H.
    A nearly isotropic u (|u^T u| <= FD_ISOTROPY_TOL ||u||^2), or FD_MAX_STEPS
    solves without two quotients agreeing to FD_RQ_TOL, raise
    ConvergenceFailureError with the last estimate as `best` and, as
    `defect`, |u^T u| / ||u||^2 or the last change of the quotient (from
    sigma after one solve).
    """
    estimate = None
    for _ in range(FD_MAX_STEPS):
        u = tridiag_solve(factors, v)
        uu = sum(map(operator.mul, u, u))
        scale = math.hypot(*map(abs, u))
        if abs(uu) <= FD_ISOTROPY_TOL * scale * scale:
            raise ConvergenceFailureError(
                "inverse iteration met u^T u ~ 0", best=estimate, defect=abs(uu) / scale / scale
            )
        last, estimate = estimate, sigma + sum(map(operator.mul, u, v)) / uu
        change = abs(estimate - (sigma if last is None else last))
        if last is not None and change < FD_RQ_TOL:
            return estimate
        v = [c / scale for c in u]
    raise ConvergenceFailureError(
        f"inverse iteration did not settle within {FD_MAX_STEPS} iterations",
        best=estimate,
        defect=change,
    )


def _refine_levels(
    off: list[float], diag: list[complex], predicted: Sequence[complex], radius: float
) -> list:
    """Refine each prediction on tridiag(off, diag, off): Newton, else inverse iteration.

    A Newton root within radius of its prediction is kept.  Any other level
    is refined by inverse iteration shifted by the prediction itself, from a
    ramp start (it carries both parities), which finds the grid eigenvalue
    nearest the prediction wherever it lies.  The off-diagonals are
    nonzero, so only the last LU pivot can vanish, as it does when the
    prediction is a grid eigenvalue, and tridiag_factor replaces it by
    eps * ||H||.
    """
    prod = [0.0, *(c * c for c in off)]
    kinetic = 4.0 * max(map(abs, off))
    refined = []
    for guess in predicted:
        root = _newton_root(diag, prod, guess, radius, kinetic)
        if root is None:
            n = len(diag)
            start = [1.0 + (i + 1.0) / n for i in range(n)]
            root = _inverse_iteration(tridiag_factor(off, diag, off, guess), guess, start)
        refined.append(root)
    return refined


def default_grid(model: QesModel, n_points: int = FD_GRID_N) -> GridSpec:
    """Family defaults sized so the gauge factor is below 1e-16 at the ends."""
    if model.family == SEXTIC:
        return GridSpec(-6.0, 6.0, n_points)
    return GridSpec(-12.0, 4.0, n_points)


def fd_defect_bound(model: QesModel, grid: GridSpec) -> float:
    """A level's allowed |refined - predicted|: FD_REFERENCE_DEFECT scaled by h^2."""
    reference = default_grid(model)
    h_ref = (reference.x_max - reference.x_min) / (reference.n_points + 1)
    h = (grid.x_max - grid.x_min) / (grid.n_points + 1)
    return max(FD_REFERENCE_DEFECT * (h / h_ref) ** 2, 1e-8)


@dataclass(frozen=True)
class GridCheck:
    """A grid check: the grid, each level's grid eigenvalue, the largest defect and its bound."""

    grid_n: int
    x_min: float
    x_max: float
    refined: tuple[complex, ...]
    defect: float
    defect_bound: float


def fd_verify(
    model: QesModel, solutions: Sequence[QesSolution], shift: complex, grid: GridSpec | None = None
) -> GridCheck:
    """Grid check of a model's levels on one grid (the family default when None).

    The grid Hamiltonian carries the model's potential shift (solve_model's
    ShiftResult.shift), and each level predicts energy_base + shift.  Its
    diagonal samples the potential once per kept point.  A sextic model on
    a grid symmetric about 0 keeps the x > 0 half only, with the mirror
    neighbour psi(-x) = +/-psi(x) of its sector folded in; every other grid
    keeps all its points.
    """
    grid = grid or default_grid(model)
    predicted = [s.energy_base + shift for s in solutions]
    n = grid.n_points
    h = (grid.x_max - grid.x_min) / (n + 1)
    inv_h2 = 1.0 / (h * h)
    half = model.family == SEXTIC and grid.x_min == -grid.x_max
    odd = half and model.params.sector == ODD
    # an odd n puts a point at x = 0; an odd psi vanishes there, and an even
    # psi couples to its two equal neighbours by -2/h^2, which scaling psi(0)
    # by 1/sqrt(2) makes a symmetric -sqrt(2)/h^2
    first = n // 2 + (n % 2 == 1 and odd) if half else 0
    xs = [grid.x_min + (i + 1) * h for i in range(first, n)]
    diag = [2.0 * inv_h2 + potential_eval(model, x, shift) for x in xs]
    off = [-inv_h2] * (n - first - 1)
    if half and n % 2 == 0:
        diag[0] += inv_h2 if odd else -inv_h2
    elif half and not odd:
        off[0] *= math.sqrt(2.0)
    bound = fd_defect_bound(model, grid)
    refined = tuple(_refine_levels(off, diag, predicted, bound))
    defect = max(abs(r - p) for r, p in zip(refined, predicted))
    return GridCheck(n, grid.x_min, grid.x_max, refined, defect, bound)
