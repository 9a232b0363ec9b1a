"""Eigenpairs of the tridiagonal sl(2) blocks and real-spectrum shifts.

Every block the algebraic construction produces is tridiagonal (dimension
2j + 1, capped at 32); a BlockMatrix holds only its three diagonals, and
eigen_solve works on them directly:

  * balancing       a power-of-two diagonal similarity brings |sub_i| and
                    |sup_i| within a factor 2 of each other; it is exact in
                    floating point and shrinks the norm the QR sweeps see.
  * eigenvalues     single-shift complex QR on the balanced matrix held as
                    upper Hessenberg (Wilkinson shift, an exceptional shift
                    every 10 sweeps, deflation from the bottom), backward
                    stable (Golub & Van Loan, Matrix Computations, ch. 7).
  * clustering      near-coincident eigenvalues, within a tolerance set by
                    the block norm, are replaced by their centroid (the
                    centroid of a defective cluster is far more accurate than
                    its members) and reported with their multiplicity, with
                    no attempt at Jordan structure.
  * eigenvectors    inverse iteration on the unbalanced M - lambda I, three
                    O(n) tridiagonal solves per distinct centroid, and an O(n)
                    residual.

A complex spectrum is re-centered to a real one by a constant potential
shift exactly when all eigenvalues share one imaginary part; the shift is
minus i times the median imaginary part, the median being robust against a
single numerically off-cluster root.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .cpoly import CPolynomial, PackedPolynomial
from .errors import ConvergenceFailureError, ValidationError
from .families import QesModel
from .sl2 import BlockMatrix, build_block
from .tridiag import tridiag_factor, tridiag_matvec, tridiag_norm, tridiag_solve, upper_solve

_EPS = sys.float_info.epsilon

MAX_BLOCK_DIM = 32

# QR sweeps allowed per block dimension before the eigenvalue iteration gives up.
QR_SWEEPS_PER_LEVEL = 30


@dataclass(frozen=True, slots=True)
class QesSolution:
    """One exactly known level of a model.

    phi_coeffs holds c_0 .. c_{2j} of the polynomial factor, normalized so
    the first nonzero coefficient is 1.  energy_shifted = energy_base +
    shift, where shift is the constant added to the potential (zero when the
    spectrum admits no common imaginary part).
    """

    energy_base: complex
    energy_shifted: complex
    shift: complex
    phi_coeffs: CPolynomial
    eigvec_residual: float
    multiplicity: int = 1


@dataclass(frozen=True)
class ShiftResult:
    """Outcome of the common-imaginary-part test; spread is max - min of the parts."""

    found: bool
    shift: complex
    spread: float


@dataclass(frozen=True, slots=True)
class EigenPair:
    value: complex
    vector: CPolynomial
    residual: float
    multiplicity: int = 1


def _balanced_hessenberg(sub, diag, sup) -> list[list[complex]]:
    """D^-1 T D as a dense upper Hessenberg array, D a power-of-two diagonal.

    Each ratio D[i+1]/D[i] is the power of two nearest sqrt(|sub_i|/|sup_i|),
    so the pair ends within a factor 2 of each other; a zero coupling is left
    alone (it already splits the eigenproblem).
    """
    n = len(diag)
    h = [[0.0j] * n for _ in range(n)]
    for i in range(n):
        h[i][i] = diag[i]
    for i, (lo, up) in enumerate(zip(sub, sup)):
        if lo != 0 and up != 0:
            r = math.ldexp(1.0, round(0.5 * math.log2(abs(lo) / abs(up))))
            lo, up = lo / r, up * r
        h[i + 1][i] = lo
        h[i][i + 1] = up
    return h


def _wilkinson_shift(a: complex, b: complex, c: complex, d: complex) -> complex:
    """Eigenvalue of [[a, b], [c, d]] nearer to d, without cancellation."""
    p = 0.5 * (a - d)
    bc = b * c
    s = cmath.sqrt(p * p + bc)
    if (p.conjugate() * s).real < 0:
        s = -s
    denom = p + s
    return d if denom == 0 else d - bc / denom


def _hessenberg_eigenvalues(h: list[list[complex]], norm: float) -> list[complex]:
    """Eigenvalues of the upper Hessenberg array h (overwritten, row norm `norm`) by shifted QR.

    Each sweep is an explicitly shifted QR step on the active window
    lo..hi, factored by Givens rotations; since no Schur vectors are
    wanted, the rotations touch only the window.  Raises
    ConvergenceFailureError after QR_SWEEPS_PER_LEVEL * n sweeps, carrying
    the current diagonal (`best`) and the largest undeflated subdiagonal
    (`defect`).
    """
    n = len(h)
    cap = QR_SWEEPS_PER_LEVEL * n
    sweeps = 0
    since_deflation = 0
    hi = n - 1
    while hi > 0:
        lo = hi
        while lo > 0:
            size = abs(h[lo - 1][lo - 1]) + abs(h[lo][lo]) or norm
            if abs(h[lo][lo - 1]) <= _EPS * size:
                h[lo][lo - 1] = 0.0j
                break
            lo -= 1
        if lo == hi:
            hi -= 1
            since_deflation = 0
            continue
        if sweeps >= cap:
            raise ConvergenceFailureError(
                f"QR iteration did not converge within {cap} sweeps",
                best=[h[i][i] for i in range(n)],
                defect=max(abs(h[i][i - 1]) for i in range(1, n)),
            )
        sweeps += 1
        since_deflation += 1
        if since_deflation % 10 == 0:  # exceptional shift
            shift = h[hi][hi] + 0.75 * abs(h[hi][hi - 1])
        else:
            shift = _wilkinson_shift(h[hi - 1][hi - 1], h[hi - 1][hi], h[hi][hi - 1], h[hi][hi])
        for i in range(lo, hi + 1):
            h[i][i] -= shift
        rotations = []
        for k in range(lo, hi):
            a, b = h[k][k], h[k + 1][k]
            r = math.hypot(abs(a), abs(b))
            if r == 0:
                a, b, r = 1.0, 0.0, 1.0
            ca, cb, a, b = a.conjugate() / r, b.conjugate() / r, a / r, b / r
            top, bottom = h[k], h[k + 1]
            xs, ys = top[k : hi + 1], bottom[k : hi + 1]
            top[k : hi + 1] = [ca * x + cb * y for x, y in zip(xs, ys)]
            bottom[k : hi + 1] = [a * y - b * x for x, y in zip(xs, ys)]
            bottom[k] = 0.0j
            rotations.append((a, b, ca, cb))
        # R Q: row i meets the column rotations k >= i - 1 in order
        for i in range(lo, hi + 1):
            row = h[i]
            first = max(lo, i - 1)
            x = row[first]
            for k in range(first, hi):
                a, b, ca, cb = rotations[k - lo]
                y = row[k + 1]
                row[k] = a * x + b * y
                x = ca * y - cb * x
            row[hi] = x
        for i in range(lo, hi + 1):
            h[i][i] += shift
    return [h[i][i] for i in range(n)]


def _cluster(values: list[complex], tol: float) -> list[tuple[complex, int]]:
    """(centroid, size) of each group of values linked by gaps <= tol, sorted by (Re, Im)."""
    groups: list[list[complex]] = []
    for v in values:
        near = [i for i, g in enumerate(groups) if any(abs(v - w) <= tol for w in g)]
        merged = [v] + [w for i in near for w in groups[i]]
        groups = [g for i, g in enumerate(groups) if i not in near] + [merged]
    out = [(sum(g) / len(g), len(g)) for g in groups]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def _inverse_iteration(sub, diag, sup, lam: complex, norm: float) -> list[complex]:
    """Eigenvector of the tridiagonal T for the eigenvalue estimate lam.

    The first step solves U x = e_f with f the smallest pivot of the LU of
    T - lam I, so components that an exact zero coupling decouples stay
    exactly zero; two full solves follow.  An exactly zero pivot (lam is an
    eigenvalue to the last bit) is replaced by eps * norm (by 1 for the zero
    matrix).
    """
    n = len(diag)
    factors = tridiag_factor(sub, [d - lam for d in diag], sup, zero_pivot=_EPS * norm or 1.0)
    pivots = factors[0]
    start = [0.0j] * n
    start[min(range(n), key=lambda k: abs(pivots[k]))] = 1.0 + 0.0j
    x = upper_solve(factors, start)
    for _ in range(2):
        big = max(abs(c) for c in x)
        x = tridiag_solve(factors, [c / big for c in x])
    return x


def eigen_solve(m: BlockMatrix) -> list[EigenPair]:
    """Eigenvalues and polynomial eigenvectors of a tridiagonal block, sorted by (Re, Im).

    Degenerate eigenvalues come back once per instance, sharing the
    centroid value and carrying their cluster multiplicity.
    """
    sub, diag, sup = m.sub, m.diag, m.sup
    n = m.dim
    h = _balanced_hessenberg(sub, diag, sup)
    balanced_norm = max(sum(abs(c) for c in row) for row in h)
    tol = 8.0 * math.sqrt(_EPS * (n + 1)) * balanced_norm
    norm_m = tridiag_norm(sub, diag, sup)
    pairs = []
    for lam, mult in _cluster(_hessenberg_eigenvalues(h, balanced_norm), tol):
        v = _inverse_iteration(sub, diag, sup, lam, norm_m)
        vmax = max(abs(c) for c in v)
        first = next(i for i, c in enumerate(v) if abs(c) > 1e-12 * vmax)
        lead = v[first]
        v = [c / lead for c in v]
        v[first] = 1.0 + 0.0j
        mv = tridiag_matvec(sub, diag, sup, v)
        resid = max(abs(mv[i] - lam * v[i]) for i in range(n))
        scale = max(norm_m, 1e-300) * max(max(abs(c) for c in v), 1e-300)
        pairs += [EigenPair(lam, PackedPolynomial(v), resid / scale, mult)] * mult
    return pairs


# Largest distance of an imaginary part from the median that still counts as common.
SHIFT_TOL = 1e-9


def common_imaginary_shift(eigs: list[complex]) -> ShiftResult:
    """Shift -i * (median imaginary part) when all imaginary parts agree within SHIFT_TOL."""
    if not eigs:
        raise ValidationError("common_imaginary_shift needs at least one eigenvalue")
    ims = sorted(e.imag for e in eigs)
    n = len(ims)
    median = ims[n // 2] if n % 2 else 0.5 * (ims[n // 2 - 1] + ims[n // 2])
    spread = ims[-1] - ims[0]
    if max(abs(im - median) for im in ims) <= SHIFT_TOL:
        return ShiftResult(found=True, shift=complex(0.0, -median), spread=spread)
    return ShiftResult(found=False, shift=0.0j, spread=spread)


RESIDUAL_GATE = 1e-10


def solve_model(model: QesModel) -> tuple[list[QesSolution], ShiftResult]:
    """Solve the model's block and apply the common-imaginary-part shift (or none).

    Rejects blocks above MAX_BLOCK_DIM before building them, and refuses to
    return silently degraded eigenpairs: if any block residual exceeds the
    contracted 1e-10 the solve fails loudly instead.
    """
    if model.rep.dim > MAX_BLOCK_DIM:
        raise ValidationError(f"block dimension {model.rep.dim} exceeds the cap {MAX_BLOCK_DIM}")
    block = build_block(model.combo, model.rep)
    pairs = eigen_solve(block)
    worst = max(p.residual for p in pairs)
    if worst > RESIDUAL_GATE:
        raise ConvergenceFailureError(
            f"block eigensolve residual {worst:.3e} exceeds {RESIDUAL_GATE:.0e}",
            best=pairs,
            defect=worst,
        )
    shift_result = common_imaginary_shift([p.value for p in pairs])
    shift = shift_result.shift if shift_result.found else 0.0j
    solutions = [
        QesSolution(
            energy_base=p.value,
            energy_shifted=p.value + shift,
            shift=shift,
            phi_coeffs=p.vector,
            eigvec_residual=p.residual,
            multiplicity=p.multiplicity,
        )
        for p in pairs
    ]
    return solutions, shift_result
