"""Complex tridiagonal kernel shared by the block eigensolver and the grid check.

A tridiagonal matrix is held as three lists: sub[i] = A[i+1][i],
diag[i] = A[i][i] and sup[i] = A[i][i+1].

The block eigensolver takes each eigenvector from the twisted factorization
of A - zI (tridiag_null_vector).  The grid check takes its Newton step from
the top-down pivots of the same elimination (tridiag_log_derivative) and
falls back to inverse iteration on tridiag_factor's pivoted LU.  Each
replaces an exactly zero pivot by eps * ||A|| of the unshifted A: the tiny
pivot an exact eigenvalue wants, so no caller re-shifts.
"""

from __future__ import annotations

import sys


def tridiag_norm(sub: list[complex], diag: list[complex], sup: list[complex]) -> float:
    """Infinity norm of A: the largest absolute row sum."""
    rows = zip((0.0j, *sub), diag, (*sup, 0.0j))
    return max(abs(lo) + abs(d) + abs(up) for lo, d, up in rows)


def tridiag_factor(sub: list[complex], diag: list[complex], sup: list[complex], shift: complex):
    """LU of A - shift I with adjacent-row partial pivoting.

    Pivoting introduces one extra superdiagonal of fill.  An exactly zero
    pivot (both candidates zero) is replaced by eps * ||A|| of the unshifted
    A, or by 1 for the zero matrix; the norm is computed only then.
    """
    n = len(diag)
    b = [x - shift for x in diag]
    c = list(sup) + [0.0j]
    d = [0.0j] * n
    a = list(sub)
    mult = [0.0j] * max(n - 1, 0)
    swap = [False] * max(n - 1, 0)

    def zero_pivot() -> complex:
        return complex(sys.float_info.epsilon * tridiag_norm(sub, diag, sup) or 1.0)

    for i in range(n - 1):
        if abs(a[i]) > abs(b[i]):
            swap[i] = True
            b[i], a[i] = a[i], b[i]
            c[i], b[i + 1] = b[i + 1], c[i]
            d[i], c[i + 1] = c[i + 1], d[i]
        if b[i] == 0:
            b[i] = zero_pivot()
        m = a[i] / b[i]
        mult[i] = m
        b[i + 1] -= m * c[i]
        c[i + 1] -= m * d[i]
    if b[n - 1] == 0:
        b[n - 1] = zero_pivot()
    return b, c, d, mult, swap


def tridiag_log_derivative(diag: list[complex], prod: list[complex], z: complex) -> complex:
    """p'(z) / p(z) for p(z) = det(T - zI), in one O(n) pass.

    T is given by its diagonal and coupling products, prod[k] = sub[k-1] *
    sup[k-1] with prod[0] = 0.  The LDL^T pivots of T - zI follow
    r_k = prod[k] / d_{k-1}, d_k = (diag[k] - z) - r_k, and p = prod_k d_k,
    so p'/p is the sum of e_k = d_k' / d_k = (r_k e_{k-1} - 1) / d_k.  p
    itself is never formed, so its growth or decay with n cannot under- or
    overflow.  An exactly zero pivot is replaced by eps * ||T|| of the
    unshifted T with its couplings balanced to |prod|^(1/2), as in
    tridiag_factor.
    """
    d, e, total = 1.0, 0.0, 0.0j
    for a, b in zip(diag, prod):
        r = b / d
        d = a - z - r
        if not d:
            coupling = [abs(c) ** 0.5 for c in prod[1:]]
            d = sys.float_info.epsilon * tridiag_norm(coupling, diag, coupling) or 1.0
        e = (r * e - 1.0) / d
        total += e
    return total


def tridiag_null_vector(sub: list[complex], diag: list[complex], sup: list[complex], z: complex):
    """Null vector of A - zI, z an eigenvalue, from its twisted factorization.

    Pivots run down, P_k = (diag[k] - z) - prod[k] / P_{k-1} as in
    tridiag_log_derivative, and up, Q_k = (diag[k] - z) - prod[k+1] / Q_{k+1}.
    The twist r minimizes |P_r + Q_r - (diag[r] - z)|, the residual of row r
    (Fernando, SIAM J. Matrix Anal. Appl. 18, 1997; Parlett & Dhillon, Linear
    Algebra Appl. 267, 1997).  With x_r = 1, x_k = -sup[k] x_{k+1} / P_k above
    r and x_k = -sub[k-1] x_{k-1} / Q_k below, every other row holds, and an
    exactly zero coupling keeps the components it decouples exactly zero.  x
    is not scaled, so a strongly non-normal A can overflow it.
    """
    n = len(diag)
    tiny = sys.float_info.epsilon * tridiag_norm(sub, diag, sup) or 1.0
    shifted = [a - z for a in diag]
    prod = [0.0, *(b * c for b, c in zip(sub, sup)), 0.0]
    down, up, p, q = [0.0j] * n, [0.0j] * n, 1.0, 1.0
    for k, j in zip(range(n), reversed(range(n))):
        down[k] = p = shifted[k] - prod[k] / p or tiny
        up[j] = q = shifted[j] - prod[j + 1] / q or tiny
    r = min(range(n), key=lambda k: abs(down[k] + up[k] - shifted[k]))
    x = [0.0j] * n
    x[r] = 1.0 + 0.0j
    for k in range(r - 1, -1, -1):
        x[k] = -sup[k] * x[k + 1] / down[k]
    for k in range(r + 1, n):
        x[k] = -sub[k - 1] * x[k - 1] / up[k]
    return x


def tridiag_solve(factors, rhs: list[complex]) -> list[complex]:
    """Solve A x = rhs from tridiag_factor's output."""
    b, c, d, mult, swap = factors
    n = len(b)
    y = list(rhs)
    for i in range(n - 1):
        if swap[i]:
            y[i], y[i + 1] = y[i + 1], y[i]
        y[i + 1] -= mult[i] * y[i]
    x = [0.0j] * n
    x[n - 1] = y[n - 1] / b[n - 1]
    if n >= 2:
        x[n - 2] = (y[n - 2] - c[n - 2] * x[n - 1]) / b[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (y[i] - c[i] * x[i + 1] - d[i] * x[i + 2]) / b[i]
    return x


def tridiag_matvec(
    sub: list[complex], diag: list[complex], sup: list[complex], x: list[complex]
) -> list[complex]:
    """A x in O(n)."""
    n = len(diag)
    if n == 1:
        return [diag[0] * x[0]]
    out = [diag[0] * x[0] + sup[0] * x[1]]
    out += [diag[i] * x[i] + sub[i - 1] * x[i - 1] + sup[i] * x[i + 1] for i in range(1, n - 1)]
    out.append(diag[n - 1] * x[n - 1] + sub[n - 2] * x[n - 2])
    return out
