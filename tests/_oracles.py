"""Oracles kept independent of the package: eigenvalues and polynomial algebra.

* char_poly / poly_roots: the Faddeev-LeVerrier recurrence and Aberth-Ehrlich
  root iteration, in plain double precision.  They lose accuracy as blocks
  grow (polynomial coefficients are a badly conditioned intermediate), so
  tests use them on small blocks only.
* high_precision_spectrum: each eigenvalue of a tridiagonal block to 60
  digits, with its condition number.
* ZERO, monomial, degree, is_zero, poly_add, poly_sub, poly_scale,
  poly_mul, poly_derivative: the polynomial algebra on CPolynomial that
  only the tests use, for the closed-form generator actions, the algebra
  checks and the reference residual that the package's one-pass
  residual_sup is compared with to the bit.
"""

import cmath
import sys

import pytest

from qesolve.errors import ConvergenceFailureError, ValidationError
from qesolve.sl2 import CPolynomial

_EPS = sys.float_info.epsilon


ZERO = CPolynomial()


def monomial(k: int, c: complex = 1.0) -> CPolynomial:
    """c * z**k."""
    if k < 0:
        raise ValueError("monomial exponent must be non-negative")
    return CPolynomial((0.0,) * k + (c,))


def degree(p: CPolynomial) -> int | None:
    """Degree of p, or None for the zero polynomial."""
    return len(p.coeffs) - 1 if p.coeffs else None


def is_zero(p: CPolynomial) -> bool:
    return not p.coeffs


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
    if is_zero(p) or is_zero(q):
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


def _trace(m):
    return sum(m[i][i] for i in range(len(m)))


def _mat_mul(a, b):
    n = len(a)
    out = [[0.0j] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            aik = a[i][k]
            if aik == 0:
                continue
            for j in range(n):
                out[i][j] += aik * b[k][j]
    return out


def char_poly(entries) -> CPolynomial:
    """det(lambda I - M) via the Faddeev-LeVerrier recurrence; leading coefficient exactly 1.

    The recurrence runs on M scaled to unit row norm; coefficients are
    unscaled on the way out.
    """
    n = len(entries)
    scale = max(1.0, max(sum(abs(c) for c in row) for row in entries))
    a = [[c / scale for c in row] for row in entries]
    mk = [row[:] for row in a]
    cs = [0.0j] * (n + 1)  # cs[k] multiplies lambda^{n-k} of the scaled matrix
    cs[0] = 1.0 + 0.0j
    cs[1] = -_trace(mk)
    for k in range(2, n + 1):
        for i in range(n):
            mk[i][i] += cs[k - 1]
        mk = _mat_mul(a, mk)
        cs[k] = -_trace(mk) / k
    power = 1.0
    for k in range(1, n + 1):
        power *= scale
        cs[k] *= power
    return CPolynomial(list(reversed(cs)))


def _horner_all(coeffs, z):
    """Value, derivative and the backward-error bound sum |c_k| |z|^k at z."""
    p = 0.0j
    dp = 0.0j
    s = 0.0
    az = abs(z)
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
        s = s * az + abs(c)
    return p, dp, s


def poly_roots(p: CPolynomial, tol: float = 1e-13, max_iter: int = 500) -> list[complex]:
    """All complex roots by Aberth-Ehrlich iteration, sorted by (Re, Im).

    Starts from a perturbed circle of radius 1 + max |coefficient| of the
    monic polynomial; a root is accepted when its update falls below tol or
    |p(z)| reaches the backward-error floor.  Raises ConvergenceFailureError
    carrying the best iterate and its defect at the iteration cap.
    """
    deg = degree(p)
    if deg is None or deg < 1:
        raise ValidationError("root finding needs degree >= 1")
    lead = p.coeffs[-1]
    coeffs = tuple(c / lead for c in p.coeffs)
    n = deg
    radius = 1.0 + max((abs(c) for c in coeffs[:-1]), default=0.0)
    zs = [
        radius
        * (1.0 + 0.02 * i / max(n - 1, 1))
        * cmath.exp(1j * (2.0 * cmath.pi * i / n + 0.4))
        for i in range(n)
    ]
    done = [False] * n
    for _ in range(max_iter):
        all_done = True
        for i in range(n):
            if done[i]:
                continue
            pv, dv, bound = _horner_all(coeffs, zs[i])
            if abs(pv) <= 8.0 * _EPS * bound:
                done[i] = True
                continue
            all_done = False
            if dv == 0:
                zs[i] += (0.5 + 0.5j) * (1.0 + abs(zs[i])) * 1e-3
                continue
            newton = pv / dv
            repulsion = 0.0j
            for k in range(n):
                if k == i:
                    continue
                diff = zs[i] - zs[k]
                if diff == 0:
                    diff = (1e-12 + 1e-12j) * (1.0 + abs(zs[i]))
                repulsion += 1.0 / diff
            denom = 1.0 - newton * repulsion
            step = newton if denom == 0 else newton / denom
            zs[i] -= step
            if abs(step) <= tol * max(1.0, abs(zs[i])):
                done[i] = True
        if all_done:
            break
    else:
        defect = max(abs(_horner_all(coeffs, z)[0]) for z in zs)
        raise ConvergenceFailureError(
            f"root iteration did not converge within {max_iter} iterations",
            best=sorted(zs, key=lambda z: (z.real, z.imag)),
            defect=defect,
        )
    return sorted(zs, key=lambda z: (z.real, z.imag))


def high_precision_spectrum(entries, dps: int = 60):
    """(values, kappas) of a tridiagonal matrix, values as dps-digit mpmath numbers.

    mpmath.eig needs about 9 s for one 32 x 32 block, so numpy's
    eigenvalues are refined instead, by Newton's method on the continuant
    det(T - lambda) = p_n evaluated in dps-digit arithmetic, where
    p_{k+1} = (d_k - lambda) p_k - sub_{k-1} sup_{k-1} p_{k-1}, until a
    step falls below 10^(-dps/2) of the block norm, which leaves each value
    good to far better than double precision.  Should two
    seeds settle on one root, or one fail to settle, the block falls back
    to mpmath.eig.  kappa_i = |x_i| |y_i| / |y_i^H x_i| comes from numpy's
    right and left vectors (mpmath's on the fallback); it only scales a
    tolerance.  When numpy's eigenvector matrix is singular, as for a
    strongly non-normal block, the seeds, the kappas and the fallback take
    the diagonally similar block whose couplings are balanced to
    sqrt(sub * sup), formed in dps-digit arithmetic: its continuant, hence
    its spectrum, is the block's, and mpmath.eig of the unbalanced block
    can return its diagonal.
    """
    np = pytest.importorskip("numpy")
    mpmath = pytest.importorskip("mpmath")
    m = np.array(entries, dtype=complex)
    n = m.shape[0]
    with mpmath.workdps(dps):
        mpc = mpmath.mpc
        diag = [mpc(m[i, i]) for i in range(n)]
        couple = [mpc(m[i + 1, i]) * mpc(m[i, i + 1]) for i in range(n - 1)]
        rows = m.tolist()
        seeds, vectors = np.linalg.eig(m)
        try:
            inverse = np.linalg.inv(vectors)
        except np.linalg.LinAlgError:
            roots = [mpmath.sqrt(c) for c in couple]
            rows = [
                [diag[i] if k == i else roots[min(i, k)] if abs(i - k) == 1 else mpc(0) for k in range(n)]
                for i in range(n)
            ]
            m = np.array(rows, dtype=complex)
            seeds, vectors = np.linalg.eig(m)
            inverse = np.linalg.inv(vectors)
        kappas = np.linalg.norm(vectors, axis=0) * np.linalg.norm(inverse, axis=1)
        scale = max(1.0, float(np.abs(m).sum(axis=1).max()))
        done = mpmath.mpf(10) ** (-dps // 2) * scale

        def newton(z):
            for _ in range(60):
                p_prev, p = mpc(1), diag[0] - z
                dp_prev, dp = mpc(0), mpc(-1)
                for k in range(1, n):
                    p_prev, p, dp_prev, dp = (
                        p,
                        (diag[k] - z) * p - couple[k - 1] * p_prev,
                        dp,
                        (diag[k] - z) * dp - p - couple[k - 1] * dp_prev,
                    )
                if dp == 0:
                    return None
                step = p / dp
                z -= step
                if abs(step) <= done:
                    return z
            return None

        values = [newton(mpc(s)) for s in seeds]
        distinct = all(
            abs(values[i] - values[k]) > 1e6 * done for i in range(n) for k in range(i)
        ) if None not in values else False
        if not distinct:
            values, left, right = mpmath.eig(mpmath.matrix(rows), left=True, right=True)
            kappas = []
            for i in range(n):
                x = [right[k, i] for k in range(n)]
                y = [left[i, k] for k in range(n)]
                norm_x = mpmath.sqrt(sum(abs(c) ** 2 for c in x))
                norm_y = mpmath.sqrt(sum(abs(c) ** 2 for c in y))
                kappas.append(norm_x * norm_y / abs(sum(a * b for a, b in zip(y, x))))
    return list(values), [float(k) for k in kappas]
