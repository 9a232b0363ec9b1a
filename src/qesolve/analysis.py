"""Wavefunctions of solved levels and independent verification of solved models.

psi_eval, residual_sup and norm_squared take a model and one of its solved
levels (psi_abs2 its phi): psi(x) = phi(z(x)) * exp(-G(x)) from the level's
polynomial phi and the model's change of variable and gauge factor, phi
by the one Horner loop, poly_eval_bounded, with its rounding error bound.

Verification is deliberately redundant:

  * residual_sup evaluates the gauged equation symbolically in z.  The
    bracket R = p2 phi'' + p1 phi' + (p0 - E) phi is assembled coefficient
    by coefficient, with no sample points and no numerical differentiation,
    and its largest coefficient is divided by the largest sum of the
    magnitudes of the four terms that make it up: the normwise backward
    error of phi, rounding-sized for a genuine eigenpair.
  * norm_squared integrates |psi|^2 by the trapezoidal rule on the nodes
    x = x0 + k*h about where the states sit (x0 the model's centre):
    it doubles the interval until the tail is negligible, then
    halves h until the sum settles, each rule fsumming running lists that
    gain only its new nodes.  For an analytic, super-exponentially decaying
    integrand the rule converges geometrically in 1/h.
  * is_pt_symmetric tests V*(-x) = V(x) including the additive shift, each
    coefficient against the conjugate of its mirror term's.
  * partner_potentials evaluates the isospectral pair W^2 -/+ W' from the
    model's own superpotential.
  * fd_verify builds a model's Hamiltonian, shifted by its one constant,
    once on a second-order central-difference Dirichlet grid and refines
    each energy_base + shift on it by Newton on det(H - zI), each step one
    O(n) pass of the LDL^T pivot recurrence for p'/p, until the step it
    would take next is below eps * (4 max|coupling| + |z|), the level's
    rounding floor: two passes on the default grid.  Newton runs once per
    level, from its prediction.  A Newton root within the level's defect
    bound of the prediction is kept, otherwise the nearest eigenvalue
    counted in that disc by the argument principle, with p'/p from the
    same pass at each contour node, or None when there is none.  On a grid
    symmetric about 0 the even sextic potential keeps each sector's
    parity, so sextic levels are refined on the x > 0 half alone, where no
    level of the other parity exists to mix in.  It returns one GridCheck:
    the grid, the refined values, their largest defect (inf for a None)
    and the bound that is both the disc's radius and the verify gate.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import chain, zip_longest
from typing import Sequence

from .errors import ConvergenceFailureError, NumericOverflowError, ValidationError
from .families import QesModel, potential_eval
from .spectrum import QesSolution
from .tridiag import tridiag_log_derivative


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
        # the grid Hamiltonian's diagonal holds 2/h^2 and its coupling products 1/h^4
        h2 = self.step * self.step
        inv_h2 = 1.0 / h2 if h2 else math.inf
        if not 0.0 < inv_h2 * inv_h2 < math.inf:
            raise ValidationError(
                f"grid step h = {self.step!r} cannot be differenced: "
                "1/h^2 or 1/h^4 is not a finite positive double"
            )

    @property
    def step(self) -> float:
        """The spacing h of the grid points."""
        return (self.x_max - self.x_min) / (self.n_points + 1)


# The relative error of one complex multiplication, sqrt(2) * gamma_2 with
# gamma_2 = 2u / (1 - 2u) (Higham, Lemma 3.5); it covers one addition too.
_MUL_ERR = math.sqrt(2.0) * 2.0 * 2.0**-53 / (1.0 - 2.0 * 2.0**-53)


def poly_eval_bounded(coeffs: Sequence[complex], z: complex) -> tuple[complex, float]:
    """Horner evaluation of sum(coeffs[k] * z**k) and a bound on its rounding error at this z.

    The bound is the running error bound of Horner's rule (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., Algorithm 5.1) for
    complex arithmetic, to first order in the unit roundoff, or inf past
    a partial sum whose modulus is beyond the largest double.
    """
    acc = 0.0j
    running = 0.0  # sum of |z|^k |y_k| over the partial sums y_k
    size, coeffs = abs(z), reversed(coeffs)
    try:
        for c in coeffs:
            acc = acc * z + c
            running = size * running + abs(acc)
    except OverflowError:  # a finite partial sum whose modulus is beyond the largest double
        for c in coeffs:  # the rest of the same Horner sum
            acc = acc * z + c
        running = math.inf
    if not cmath.isfinite(acc):
        raise NumericOverflowError(f"polynomial evaluation overflowed at z={z!r}")
    return acc, running if running == math.inf else _MUL_ERR * (2.0 * running - abs(acc))


def psi_eval(model: QesModel, solution: QesSolution, x: float) -> complex:
    """psi(x) of one solved level; underflows to exact 0 in the far tail."""
    return poly_eval_bounded(solution.phi_coeffs, model.z_of_x(x))[0] * model.decay_factor(x)


def _convolve(p: Sequence[complex], q: Sequence[complex]) -> list[complex]:
    """Coefficients of the product of p and q, each summed over p's nonzero entries in order."""
    out = [0j] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


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
    d1 = [k * c for k, c in enumerate(phi) if k]
    d2 = [k * c for k, c in enumerate(d1) if k]
    a, b, c = _convolve(p2, d2), _convolve(p1, d1), _convolve(p0, phi)
    e = [-solution.energy_base * x for x in phi]
    for x in chain(d1, d2, a, b, c, e):
        if not cmath.isfinite(x):
            raise NumericOverflowError(f"non-finite polynomial coefficient {x!r}")
    columns = list(zip_longest(a, b, c, e, fillvalue=0j))
    # float sums left to right: builtin sum() compensates floats from Python 3.12 on
    scale = max((reduce(operator.add, map(abs, col), 0.0) for col in columns), default=0.0)
    return max(abs(sum(col)) for col in columns) / scale if scale else 0.0


# Trapezoidal rule on the line: nodes x = centre + k*h, |k*h| <= half-width.
NORM_START_HALF_WIDTH = 2.0
NORM_START_STEP = 0.25
NORM_REL_TOL = 1e-12
NORM_NODE_CAP = 1 << 16
# Largest rounding bound, relative to the sum, that the step test accepts.
NORM_ROUNDING_CAP = 1e-6


def psi_abs2(model: QesModel, phi: Sequence[complex], x: float) -> tuple[float, float]:
    """|psi(x)|^2 for the level phi and the Horner error bound of phi carried through it.

    The other roundings stay within a few ulps, far below NORM_REL_TOL.
    """
    value, bound = poly_eval_bounded(phi, model.z_of_x(x))
    g = model.decay_factor(x)
    psi = value * g
    spread = bound * abs(g) if g else 0.0  # g == 0: psi underflowed to an exact 0
    return psi.real * psi.real + psi.imag * psi.imag, (2.0 * abs(psi) + spread) * spread


def norm_squared(model: QesModel, solution: QesSolution) -> float:
    """Integral of |psi|^2 over the line by the trapezoidal rule on x = x0 + k*h,
    x0 the model's centre, so a Morse norm samples its a = d translate's nodes.

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
    (Trefethen & Weideman, SIAM Rev. 56, 2014).  Each rule appends only its
    new nodes to running lists of |psi|^2 and its bound and takes h times
    their fsums; a sextic x > 0 stands for -x too.  A sum over more than
    NORM_NODE_CAP nodes raises ConvergenceFailureError with the last sum as
    `best` and the relative change of the last widening or halving as
    `defect`: "normalization tail did not stabilize" while widening (from
    half-width 8192 at the start step), "quadrature refinement did not
    converge" while halving.  A sum beyond the largest double raises it
    too, "normalization sum overflowed", with the largest finite sample
    over the largest double as `defect`; a sum of samples that all underflow
    to 0 raises "normalization sum underflowed", defect 1 (its relative error).

    Requires a decaying gauge: the model's normalizable, false only for Morse.
    """
    if not model.normalizable:
        raise ValidationError("Morse normalization needs Re a > 0 and Re d > 0 for a decaying gauge")
    x0, phi = model.centre, solution.phi_coeffs
    # |psi|^2 and its rounding bound at every node of the current rule, x = x0 first
    values, errors = ([sample] for sample in psi_abs2(model, phi, x0))

    def trapezoid(h: float, new: range) -> tuple[float, float]:
        for k in new:  # sample the new nodes x0 + k*h and x0 - k*h, then sum every node
            x = k * h  # h is a power of two times the start step: k*h is exact
            right = psi_abs2(model, phi, x0 + x)
            # |psi(-x)|^2 is |psi(x)|^2 to the last bit for a model with a parity (the
            # sextic, x0 = 0): x enters as x*x and x^4, and the odd factor x flips psi's sign
            left = right if model.parity else psi_abs2(model, phi, x0 - x)
            values.extend((right[0], left[0]))
            errors.extend((right[1], left[1]))
        try:
            total = h * math.fsum(values)
        except OverflowError:  # finite samples whose sum is beyond the largest double
            largest = max(filter(math.isfinite, values))
            raise ConvergenceFailureError(
                "normalization sum overflowed", defect=largest / sys.float_info.max
            ) from None
        try:
            return total, h * math.fsum(errors)
        except OverflowError:  # a finite bound beyond the largest double
            return total, math.inf

    change = math.inf  # relative change of the last widening or halving: a cap's defect

    def agree(a: float, b: float, rounding: float = 0.0) -> bool:
        nonlocal change
        scale = max(abs(b), 1e-300)
        change = abs(a - b) / scale
        return abs(a - b) <= max(NORM_REL_TOL * scale, rounding)

    h = NORM_START_STEP
    half = NORM_START_HALF_WIDTH
    total, _ = trapezoid(h, range(1, int(half / h) + 1))
    while True:
        half *= 2.0
        last = int(half / h)
        if 2 * last + 1 > NORM_NODE_CAP:
            raise ConvergenceFailureError(
                "normalization tail did not stabilize", best=total, defect=change
            )
        wider, rounding = trapezoid(h, range(last // 2 + 1, last + 1))
        if agree(total, wider):
            break
        total = wider
    if not wider:
        raise ConvergenceFailureError("normalization sum underflowed", best=0.0, defect=1.0)
    # refine on the wider interval, whose edge samples the tail test showed negligible.
    # Not on the narrower one: the tail test samples at h = NORM_START_STEP (0.25) and can
    # miss narrow Morse edge peaks, and refining on the narrower half-width gave
    # 2.959954178e-4 for Morse 2j = 22, mu = 0.7, level 20, against 2.959954245e-4
    total = wider
    while True:
        if 2 * int(2.0 * half / h) + 1 > NORM_NODE_CAP:
            raise ConvergenceFailureError(
                "quadrature refinement did not converge", best=total, defect=change
            )
        h /= 2.0
        finer, finer_rounding = trapezoid(h, range(1, int(half / h) + 1, 2))
        if rounding + finer_rounding > NORM_ROUNDING_CAP * abs(finer):
            bound = (rounding + finer_rounding) / abs(finer) if finer else math.inf
            raise ConvergenceFailureError(
                "quadrature refinement did not converge", best=finer, defect=bound
            )
        if agree(total, finer, rounding + finer_rounding):
            return finer
        total, rounding = finer, finer_rounding


PT_TOL = 1e-9


def is_pt_symmetric(model: QesModel, shift: complex = 0.0j) -> bool:
    """Test V*(-x) = V(x) for the shifted potential, coefficient by coefficient.

    Each coefficient c must match the conjugate of its mirror m,
    |c - conj(m)| <= 2 PT_TOL max(1, |c|).  The shift and each term of a
    potential with a parity (sextic x^{2m}) are their own mirrors, so they
    must be real; a Morse e^{kx} term mirrors e^{-kx}, its reverse's.
    """
    coeffs = model.potential_coeffs
    mirrors = coeffs if model.parity else coeffs[::-1]
    pairs = zip((*coeffs, complex(shift)), (*mirrors, complex(shift)))
    return all(abs(c - m.conjugate()) <= 2.0 * PT_TOL * max(1.0, abs(c)) for c, m in pairs)


def partner_potentials(model: QesModel, x: float) -> tuple[complex, complex]:
    """(v_minus, v_plus) = (W^2 - W', W^2 + W') at x, from one evaluation of W and W'.

    v_minus is the model's own shape at j = 0.  Both are built from the
    superpotential values themselves, so v_plus - v_minus = 2 W' is a
    checkable identity rather than a definition.  The odd sextic sector has
    a pole at x = 0.
    """
    w, dw = model.superpotential(x)
    v_minus, v_plus = w * w - dw, w * w + dw
    if not (cmath.isfinite(v_minus) and cmath.isfinite(v_plus)):
        raise NumericOverflowError(f"partner potential overflowed at x={x!r}")
    return v_minus, v_plus


# Newton steps allowed per level before the count (every default-grid level
# of a block with 2j <= 5 that Newton keeps settles in 2, its second step
# below the rounding floor; coarse grids and large 2j can take more than
# 20), the step that ends a Newton refinement, the change between two
# contour rules that settles a count (at 1/4 the coarse-grid survey misses 3
# levels), the nodes a count takes before it deflates a pole (a power of two
# from 8; at 32, 21 of the survey's 405 coarse calls raise, at 64 none) and
# the default grid's interior points.
FD_NEWTON_STEPS = 6
FD_RQ_TOL = 1e-10
FD_COUNT_TOL = 1e-2
FD_CONTOUR_NODES = 256
FD_GRID_N = 2000
# Second-order truncation budget of a level on the default grid.
FD_REFERENCE_DEFECT = 5e-3


def _newton_root(
    diag: list[complex], prod: list[float], guess: complex, kinetic: float, known=()
) -> complex | None:
    """Eigenvalue of H by Newton on det(H - zI) from guess, or None.

    Each step is 1 / (p'/p) from tridiag_log_derivative, less 1 / (z - w)
    for each known eigenvalue w, which divides it out of p (Maehly's
    deflation).  A root is returned once a step is below FD_RQ_TOL, or once
    a step shorter than the one before, and not the last allowed, puts the
    quadratic model's next step |s_k|^3 / |s_{k-1}|^2 at or below the
    level's rounding floor eps * (kinetic + |z|), kinetic being 4 times H's
    largest off-diagonal modulus: 4/h^2, or 4 sqrt(2)/h^2 on an odd-n half
    grid of even levels, whose x = 0 coupling is sqrt(2)/h^2.  None means a
    step that is not finite or FD_NEWTON_STEPS steps without settling.
    """
    z, previous = guess, 0.0  # no step comes before the first
    for k in range(1, FD_NEWTON_STEPS + 1):
        ratio = tridiag_log_derivative(diag, prod, z)
        ratio = reduce(operator.sub, (1.0 / (z - w) for w in known), ratio)  # left to right
        step = 1.0 / ratio if ratio else complex(math.inf)
        if not cmath.isfinite(step):
            return None
        z -= step
        size = abs(step)
        if size < FD_RQ_TOL:
            return z
        floor = sys.float_info.epsilon * (kinetic + abs(z))
        # size / previous < 1 where it is evaluated, so no power can overflow
        if k < FD_NEWTON_STEPS and size < previous and size * (size / previous) ** 2 <= floor:
            return z
        previous = size
    return None


def _power_sum_roots(sums: list[complex]) -> list[complex]:
    """The k numbers whose j-th powers sum to sums[j - 1], j = 1..k: their
    monic polynomial by Newton's identities, then its roots by 64 sweeps of
    Weierstrass' simultaneous iteration from (0.4 + 0.9i)^i."""
    coeffs = [1.0 + 0.0j]  # highest power first
    for k in range(1, len(sums) + 1):
        coeffs.append(-reduce(operator.add, map(operator.mul, reversed(coeffs), sums)) / k)
    roots = [(0.4 + 0.9j) ** i for i in range(len(sums))]
    for _ in range(64):
        for i, w in enumerate(roots):
            gap = math.prod(w - v for j, v in enumerate(roots) if j != i)
            roots[i] = w - reduce(lambda acc, c: acc * w + c, coeffs, 0.0j) / (gap or 1.0)
    return roots


def _grid_eigenvalue(
    diag: list[complex], prod: list[float], centre: complex, radius: float, kinetic: float
) -> complex | None:
    """The eigenvalue of H for the level predicted at centre, or None.

    Newton runs once from centre, with no radius limit, and a root within
    radius of centre is returned.  Otherwise the eigenvalues of H in the
    disc |z - centre| <= radius are counted and the one nearest centre is
    returned, or None when the disc holds none.  The count is the argument
    principle, the integral of p'/p / 2 pi i around the circle, by the
    trapezoid rule on m nodes (one kept pass of tridiag_log_derivative
    each), m doubling from 4 until two rules differ by at most FD_COUNT_TOL
    (Delves & Lyness, Math. Comp. 21, 1967).  Its error falls like q^m for
    a pole at q or 1/q times the radius, so p'/p loses 1 / (z - w) of each
    known eigenvalue w: the Newton root from the centre, and whenever
    FD_CONTOUR_NODES nodes leave the count unsettled the Newton root from
    the node where the rest is largest, the count then restarting from 4
    nodes.  The k eigenvalues still counted are polished by Newton from the
    roots whose power sums are the rule's moments of (z - centre)^j p'/p,
    j = 1..k.  If Newton fails at the node cap, ConvergenceFailureError
    carries the last change of the rule as `defect`.
    """
    first = _newton_root(diag, prod, centre, kinetic)
    if first is not None and abs(first - centre) <= radius:
        return first
    known = [] if first is None else [first]
    units, ratios = [], []  # each node as (z - centre) / radius, in doubling order; p'/p there

    def deflated(u: complex, f: complex) -> complex:
        return reduce(operator.sub, (1.0 / (centre + radius * u - w) for w in known), f)

    def moment(m: int, power: int) -> complex:
        """The rule on the first m nodes for the power-th moment over radius^power."""
        terms = (u ** (power + 1) * deflated(u, f) for u, f in zip(units[:m], ratios))
        return radius * reduce(operator.add, terms) / m

    m, last = 4, None
    while True:
        if len(units) < m:  # the first 4 nodes, then the odd multiples of 2 pi / m
            for i in range(1, m, 2) if units else range(m):
                units.append(cmath.rect(1.0, 2.0 * math.pi * i / m))
                ratios.append(tridiag_log_derivative(diag, prod, centre + radius * units[-1]))
        count = moment(m, 0)
        if last is not None and abs(count - last) <= FD_COUNT_TOL:
            break
        if m < FD_CONTOUR_NODES:
            last, m = count, 2 * m
            continue
        sizes = [abs(deflated(u, f)) for u, f in zip(units, ratios)]
        start = centre + radius * units[sizes.index(max(sizes))]
        pole = _newton_root(diag, prod, start, kinetic, known)
        if pole is None or len(known) == len(diag):
            message = f"grid eigenvalue count did not settle within {FD_CONTOUR_NODES} nodes"
            raise ConvergenceFailureError(message, defect=abs(count - last))
        known.append(pole)
        m, last = 4, None
    for w in _power_sum_roots([moment(m, power) for power in range(1, round(count.real) + 1)]):
        root = _newton_root(diag, prod, centre + radius * w, kinetic, known)
        if root is not None:
            known.append(root)
    inside = [w for w in known if abs(w - centre) <= radius]
    return min(inside, key=lambda w: abs(w - centre), default=None)


def fd_defect_bound(model: QesModel, grid: GridSpec) -> float:
    """A level's allowed |refined - predicted|: FD_REFERENCE_DEFECT scaled by h^2."""
    reference = GridSpec(*model.default_domain, FD_GRID_N)
    return max(FD_REFERENCE_DEFECT * (grid.step / reference.step) ** 2, 1e-8)


@dataclass(frozen=True)
class GridCheck:
    """A grid check: the grid, each level's grid eigenvalue or None, the worst defect, its bound."""

    grid_n: int
    x_min: float
    x_max: float
    refined: tuple[complex | None, ...]
    defect: float
    defect_bound: float


def fd_verify(
    model: QesModel, solutions: Sequence[QesSolution], shift: complex, grid: GridSpec | None = None
) -> GridCheck:
    """Grid check of a model's levels on one grid, by default the model's default_domain.

    The grid Hamiltonian carries the model's potential shift (solve_model's
    ShiftResult.shift), and each level predicts energy_base + shift.  Its
    diagonal samples the potential once per kept point.  A model with a
    parity (the sextic) on a grid symmetric about 0 keeps the x > 0 half
    only, with the mirror neighbour psi(-x) = parity * psi(x) folded in;
    every other grid keeps all its points.
    """
    grid = grid or GridSpec(*model.default_domain, FD_GRID_N)
    predicted = [s.energy_base + shift for s in solutions]
    n, h = grid.n_points, grid.step
    inv_h2 = 1.0 / (h * h)
    half = model.parity != 0 and grid.x_min == -grid.x_max
    odd = half and model.parity < 0
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
    prod = [0.0, *(c * c for c in off)]
    kinetic = 4.0 * max(map(abs, off))
    bound = fd_defect_bound(model, grid)
    refined = tuple(_grid_eigenvalue(diag, prod, p, bound, kinetic) for p in predicted)
    defect = max(math.inf if r is None else abs(r - p) for r, p in zip(refined, predicted))
    return GridCheck(n, grid.x_min, grid.x_max, refined, defect, bound)
