"""Eigenpairs of the tridiagonal sl(2) blocks and real-spectrum shifts.

Every block the algebraic construction produces is tridiagonal (dimension
2j + 1, capped at 32); a BlockMatrix holds only its three diagonals, and
eigen_solve works on them directly:

  * eigenvalues     Ehrlich-Aberth iteration on p(z) = det(M - zI) of each
                    piece between exactly zero couplings, with p/p' from the
                    three-term continuant in O(n) and no n x n array (Bini,
                    Gemignani & Tisseur, SIAM J. Matrix Anal. Appl. 27, 2005),
                    on the piece as _aberth scales it once by a power of two,
                    started from the eigenvalues that root-free implicit QL
                    finds on its coupling products (the squared off-diagonals
                    of its complex-symmetric form), so most roots are accepted
                    after one continuant evaluation, or without usable QL
                    values from the circle about 0 that holds the spectrum
                    (Bini, Numer. Algorithms 13, 1996).
  * clustering      near-coincident eigenvalues, within a tolerance set by
                    the block norm, are replaced by their centroid, refined by
                    Newton on p^(m-1) for a cluster of m, and reported with
                    their multiplicity, with no attempt at Jordan structure.
  * eigenvectors    the twisted-factorization null vectors of M - lambda I,
                    from one call per block: O(n) per distinct centroid, exact
                    in every row but the twist row; then an O(n) residual.

Each eigenpair is one solved level (QesSolution).  A complex spectrum is
re-centered to a real one by a constant potential shift, one per model and
returned once in ShiftResult, exactly when all eigenvalues share one
imaginary part; the shift is minus i times the median imaginary part, the
median being robust against a single numerically off-cluster root.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from array import array
from dataclasses import dataclass

from .errors import ConvergenceFailureError, NumericOverflowError, ValidationError
from .families import QesModel
from .sl2 import BlockMatrix, build_block
from .tridiag import tridiag_balanced_norm, tridiag_matvec, tridiag_norm, tridiag_null_vectors

_EPS = sys.float_info.epsilon

MAX_BLOCK_DIM = 32

# Ehrlich-Aberth sweeps allowed per block before the eigenvalue iteration gives up.
# From the QL values a block needs one or two; the cap serves the circle start,
# from which the paper's blocks need at most 32 and the 32 x 32 block with
# couplings graded over 10^-8 .. 10^8 needs 114.
ABERTH_STEPS = 168


@dataclass(frozen=True, slots=True, repr=False)
class QesSolution:
    """One exactly known level of a model: an eigenpair of its block.

    energy_base is the eigenvalue of the canonical (unshifted) potential;
    the shifted level is energy_base + ShiftResult.shift, one shift per
    model.  phi_packed holds c_0 .. c_{2j} of the polynomial factor as
    (re, im) doubles, 16 bytes each, exactly zero trailing ones dropped,
    normalized so the first coefficient above 1e-12 of the largest is 1;
    equality compares these bits, a zero's sign included.
    """

    energy_base: complex
    phi_packed: bytes
    eigvec_residual: float
    multiplicity: int = 1

    @property
    def phi_coeffs(self) -> tuple[complex, ...]:
        """c_0 .. c_{2j} of phi, unpacked on each read."""
        parts = iter(memoryview(self.phi_packed).cast("d"))
        return tuple(map(complex, parts, parts))

    def __repr__(self) -> str:
        return (
            f"QesSolution(energy_base={self.energy_base!r}, phi_coeffs={self.phi_coeffs!r}, "
            f"eigvec_residual={self.eigvec_residual!r}, multiplicity={self.multiplicity!r})"
        )


@dataclass(frozen=True)
class ShiftResult:
    """Outcome of the common-imaginary-part test; spread is max - min of the parts."""

    found: bool
    shift: complex
    spread: float


def _newton_terms(rows, z: complex) -> tuple[complex, complex, float]:
    """p(z), p'(z) and the rounding scale of p(z), for p(z) = det(T - zI).

    rows holds (d_k, prod[k], |prod[k]|) per row, prod[k] = sub[k-1] * sup[k-1]
    and prod[0] = 0; p is the continuant p_k = (d_k - z) p_{k-1} - prod[k] p_{k-2}
    and the scale the same recurrence on absolute values.  All running values
    are divided by the scale when it passes 2^500, leaving every ratio unchanged.
    """
    p0, p1, q0, q1, a0, a1 = 0.0j, 1.0 + 0.0j, 0.0j, 0.0j, 0.0, 1.0
    for d, b, ab in rows:
        w = d - z
        q0, q1 = q1, w * q1 - p1 - b * q0
        p0, p1 = p1, w * p1 - b * p0
        a0, a1 = a1, abs(w) * a1 + ab * a0
        if a1 > 2.0**500:
            p0, p1, q0, q1, a0, a1 = p0 / a1, p1 / a1, q0 / a1, q1 / a1, a0 / a1, 1.0
    return p1, q1, a1


def _taylor(diag, prod, z: complex, order: int) -> list[complex]:
    """Taylor coefficients p^(r)(z) / r!, r = 0..order, of the continuant of _newton_terms.

    t_k[r] = (d_k - z) t_{k-1}[r] - prod[k] t_{k-2}[r] - t_{k-1}[r-1], unscaled:
    for ||T|| <= 1 and |z| <= 1 every term is below 4^n.
    """
    prev = [0.0j] * (order + 1)
    cur = [1.0 + 0.0j] + [0.0j] * order
    for d, b in zip(diag, prod):
        prev, cur = cur, [(d - z) * c - b * q - e for c, q, e in zip(cur, prev, (0.0, *cur))]
    return cur


def _ql_values(diag, prod) -> list[complex] | None:
    """Eigenvalues of an unreduced piece by root-free implicit QL, or None when QL cannot vouch for them.

    The piece, scaled by _aberth so that products below eps^2 deflate, is
    diagonally similar to the complex-symmetric tridiagonal with diagonal
    diag and squared off-diagonals prod[1:], on which this runs the
    Pal-Walker-Kahan QL of LAPACK dsterf with the Wilkinson shift, complex-
    orthogonal, with no square root per rotation (Parlett, The Symmetric
    Eigenvalue Problem, 8-15; Cullum & Willoughby, SIAM J. Matrix Anal.
    Appl. 17, 1996).  A rotation whose squared radius r = p + prod is near
    isotropic, |r| <= 1e-6 (|p| + |prod|), more than 30 iterations for one
    value, a non-finite value or two exactly equal values give None.
    """
    n = len(diag)
    d, e2 = list(diag), prod[1:] + [0j]
    for lo in range(n):
        for _ in range(31):
            m = lo
            while m < n - 1 and abs(e2[m]) > _EPS * _EPS:
                m += 1
            if m == lo:
                break
            e = cmath.sqrt(e2[lo])
            g = (d[lo + 1] - d[lo]) / (2.0 * e)
            r = cmath.sqrt(g * g + 1.0)
            sigma = d[lo] - e / (g + r if abs(g + r) >= abs(g - r) else g - r)
            c, s, gamma = 1.0, 0.0, d[m] - sigma
            p = gamma * gamma
            for i in range(m - 1, lo - 1, -1):
                b = e2[i]
                r = p + b
                if not abs(r) > 1e-6 * (abs(p) + abs(b)):
                    return None
                e2[i + 1] = s * r
                c_old, c, s = c, p / r, b / r
                g, gamma = gamma, c * (d[i] - sigma) - s * gamma
                d[i + 1] = g + (d[i] - gamma)
                p = gamma * gamma / c if c else c_old * b
            e2[lo], d[lo] = s * p, sigma + gamma
        else:
            return None
    if not all(map(cmath.isfinite, d)) or len(set(d)) < n:
        return None
    return d


def _circle_starts(diag, prod) -> list[complex]:
    """n points on |z| = ||T~||, T~ the piece with couplings |prod|^(1/2): a circle round the spectrum."""
    radius = tridiag_balanced_norm(diag, prod)
    return [cmath.rect(radius, 2.0 * math.pi * k / len(diag) + 0.4) for k in range(len(diag))]


def _aberth(diag, prod) -> tuple[list[complex], float]:
    """Roots of det(T - zI) for an unreduced piece T, by Ehrlich-Aberth iteration.

    T is scaled here, once and exactly, by the power of two f <= 2^1023 that puts
    max |d| + max |prod|^(1/2) in [1/2, 1), each d part by part so a zero keeps
    its sign, the products by f twice as f^2 may overflow; QL, the circle and the
    acceptance test all read that piece.  The starts are the _ql_values, usually
    accepted on the first sweep, or else the _circle_starts.  An iterate is
    accepted once |p| <= 4 (n + 1) eps (scale + |z p'|) + (n + 1) 2^-1074, the
    last term the gradual-underflow error of the n + 1 products (Higham, 2.1),
    then takes one last Newton step unless p = 0.  Returns the iterates and the
    largest |p/p'| of those left after ABERTH_STEPS sweeps (or 0), over f.
    """
    n = len(diag)
    e = math.frexp(max(map(abs, diag)) + math.sqrt(max(map(abs, prod))))[1]
    f = math.ldexp(1.0, min(-e, 1023))
    diag, prod = [complex(x.real * f, x.imag * f) for x in diag], [b * f * f for b in prod]
    zs = _ql_values(diag, prod) or _circle_starts(diag, prod)
    rows = [(d, b, abs(b)) for d, b in zip(diag, prod)]
    tol, underflow = 4.0 * (n + 1) * _EPS, (n + 1) * 2.0**-1074
    live = list(range(n))
    for _ in range(ABERTH_STEPS):
        left = []
        for i in live:
            zi = zs[i]
            p, dp, scale = _newton_terms(rows, zi)
            if abs(p) <= tol * (scale + abs(zi * dp)) + underflow:
                zs[i] = zi - p / dp if p and dp else zi
            else:
                zs[i] = zi - p / (dp - p * sum([1.0 / (zi - w) for w in zs if w != zi]))
                left.append(i)
        live = left
        if not live:
            break
    terms = [_newton_terms(rows, zs[i]) for i in live]
    defect = max([abs(p / dp) if dp else math.inf for p, dp, _ in terms], default=0.0)
    return [complex(z.real / f, z.imag / f) for z in zs], defect / f


def _eigenvalues(diag, prod) -> list[complex]:
    """All eigenvalues, piece by piece between exactly zero coupling products."""
    cuts = [k for k, b in enumerate(prod) if b == 0] + [len(diag)]
    pieces = [_aberth(diag[lo:hi], prod[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    values = [z for zs, _ in pieces for z in zs]
    defect = max(left for _, left in pieces)
    if defect:
        message = f"Aberth iteration did not converge within {ABERTH_STEPS} steps"
        raise ConvergenceFailureError(message, best=values, defect=defect)
    return values


def _cluster(values: list[complex], tol: float, tie: float) -> list[tuple[complex, int]]:
    """(centroid, size) of each group of values linked by gaps <= tol, in level order.

    Level order sorts by real part; a run of real parts each within tie of
    the previous one counts as equal and is ordered by imaginary part.
    """
    groups: list[list[complex]] = []
    for v in values:
        near = sorted({i for i, g in enumerate(groups) for w in g if abs(v - w) <= tol})
        merged = [v] + [w for i in near for w in groups[i]]
        if near:
            groups = [g for i, g in enumerate(groups) if i not in near]
        groups.append(merged)
    out = sorted(((sum(g) / len(g), len(g)) for g in groups), key=lambda t: t[0].real)
    gaps = (v[0].real - u[0].real > tie for u, v in zip(out, out[1:]))
    ranked = zip(itertools.accumulate(gaps, initial=0), out)
    return [t for _, t in sorted(ranked, key=lambda r: (r[0], r[1][0].imag))]


def _centroid_root(diag, prod, z: complex, m: int, tol: float) -> complex:
    """Newton on p^(m-1) from the centroid z of an m-member cluster.

    An m-fold eigenvalue is a simple root of p^(m-1), found to full accuracy;
    the members agree only to about eps^(1/m).  Steps beyond tol are not taken.
    """
    for _ in range(2):
        t = _taylor(diag, prod, z, m)
        step = t[m - 1] / (m * t[m]) if t[m] else math.inf
        if abs(step) > tol:
            break
        z -= step
    return z


def eigen_solve(m: BlockMatrix) -> list[QesSolution]:
    """Eigenvalues and polynomial eigenvectors of a tridiagonal block, in level order.

    Levels are sorted by real part; real parts that agree to rounding
    (within 64 n eps size, size = max |d_k| + max |sub_k sup_k|^(1/2) the
    balanced size of M) count as equal and are ordered by imaginary part.
    Degenerate eigenvalues come back once per instance, sharing the
    centroid value and carrying their cluster multiplicity.  A block whose
    entries or norm overflow once divided by its size raises
    NumericOverflowError.
    """
    sub, diag, sup = m.sub, m.diag, m.sup
    n = m.dim
    # eigenpairs of M / s, s a power of two >= the balanced size (>= size / 2
    # past the largest double), the measure _aberth gives each piece: exact
    # while the entries stay normal, and no coupling product overflows;
    # ||M|| can dwarf the levels of a graded block, whose small entries then
    # underflowed to 0 and split it
    root = [math.sqrt(abs(a)) * math.sqrt(abs(b)) for a, b in zip(sub, sup)]
    size = max(map(abs, diag)) + max(root, default=0.0)
    s = math.ldexp(1.0, min(math.frexp(min(size, sys.float_info.max))[1], 1023))
    lo, d, up = [x / s for x in sub], [x / s for x in diag], [x / s for x in sup]
    norm = tridiag_norm(lo, d, up)
    if not norm < math.inf:
        raise NumericOverflowError(f"block entries overflow when divided by its size {s:.3e}")
    prod = [0.0j] + [a * b for a, b in zip(lo, up)]
    tol = 8.0 * math.sqrt(_EPS * (n + 1)) * tridiag_balanced_norm(d, prod)
    clusters = _cluster(_eigenvalues(d, prod), tol, 64.0 * n * _EPS * size / s)
    zs = [_centroid_root(d, prod, z, mult, tol) if mult > 1 else z for z, mult in clusters]
    levels = []
    for z, (_, mult), v in zip(zs, clusters, tridiag_null_vectors(lo, d, up, zs)):
        if not all(map(cmath.isfinite, v)):
            raise NumericOverflowError(f"eigenvector for eigenvalue {s * z!r} overflowed")
        mags = [abs(c) for c in v]
        cut = 1e-12 * max(mags)
        first = next(i for i, a in enumerate(mags) if a > cut)
        lead = v[first]
        v = [c / lead for c in v]
        v[first] = 1.0 + 0.0j
        resid = max([abs(a - z * c) for a, c in zip(tridiag_matvec(lo, d, up, v), v)])
        scale = max(norm, 1e-300) * max(max(map(abs, v)), 1e-300)
        while not v[-1]:
            v.pop()
        packed = array("d", [x for c in v for x in (c.real, c.imag)]).tobytes()
        levels += [QesSolution(s * z, packed, resid / scale, mult)] * mult
    return levels


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


# The contracted 1e-10: the block eigensolve residual here, the backward error in verify.
RESIDUAL_GATE = 1e-10


def solve_model(model: QesModel) -> tuple[list[QesSolution], ShiftResult]:
    """Solve the model's block: its levels and their common-imaginary-part shift (0j if none).

    Rejects blocks above MAX_BLOCK_DIM before building them, and refuses to
    return silently degraded eigenpairs: if any block residual exceeds the
    contracted 1e-10 the solve fails loudly instead.
    """
    if model.rep.dim > MAX_BLOCK_DIM:
        raise ValidationError(f"block dimension {model.rep.dim} exceeds the cap {MAX_BLOCK_DIM}")
    block = build_block(model.combo, model.rep)
    solutions = eigen_solve(block)
    worst = max(s.eigvec_residual for s in solutions)
    if worst > RESIDUAL_GATE:
        raise ConvergenceFailureError(
            f"block eigensolve residual {worst:.3e} exceeds {RESIDUAL_GATE:.0e}",
            best=solutions,
            defect=worst,
        )
    return solutions, common_imaginary_shift([s.energy_base for s in solutions])
