"""Complex tridiagonal kernel shared by the block eigensolver and the grid check.

A tridiagonal matrix is held as three lists: sub[i] = A[i+1][i],
diag[i] = A[i][i] and sup[i] = A[i][i+1].

The block eigensolver takes its eigenvectors from the twisted factorizations
of A - zI, one call per block (tridiag_null_vectors).  The grid check takes
its Newton step from the top-down pivots of the same elimination
(tridiag_log_derivative) and falls back to inverse iteration on
tridiag_ldlt, the unpivoted LDL^T of its complex symmetric H with those same
pivots.  Each replaces an exactly zero pivot by eps * ||A|| of the unshifted
A: the tiny pivot an exact eigenvalue wants, so no caller re-shifts.
"""

from __future__ import annotations

import sys


def tridiag_norm(sub: list[complex], diag: list[complex], sup: list[complex]) -> float:
    """Infinity norm of A: the largest absolute row sum."""
    rows = zip((0.0j, *sub), diag, (*sup, 0.0j))
    return max(abs(lo) + abs(d) + abs(up) for lo, d, up in rows)


def tridiag_ldlt(off: list[complex], diag: list[complex], shift: complex):
    """Unpivoted LDL^T of the complex symmetric A - shift I, A = tridiag(off, diag, off).

    Returns the pivots d_k = (diag[k] - shift) - l_{k-1} off[k-1], the
    top-down pivots of tridiag_log_derivative, and the multipliers
    l_k = off[k] / d_k.  An exactly zero pivot is replaced by eps * ||A|| of
    the unshifted A, or by 1 for the zero matrix; the norm is computed only
    then.
    """
    pivots, mult = [], []
    for k, a in enumerate(diag):
        d = a - shift - mult[-1] * off[k - 1] if k else a - shift
        if not d:
            d = sys.float_info.epsilon * tridiag_norm(off, diag, off) or 1.0
        pivots.append(d)
        if k < len(off):
            mult.append(off[k] / d)
    return pivots, mult


def tridiag_log_derivative(diag: list[complex], prod: list[complex], z: complex) -> complex:
    """p'(z) / p(z) for p(z) = det(T - zI), in one O(n) pass.

    T is given by its diagonal and coupling products, prod[k] = sub[k-1] *
    sup[k-1] with prod[0] = 0.  The LDL^T pivots of T - zI follow
    r_k = prod[k] / d_{k-1}, d_k = (diag[k] - z) - r_k, and p = prod_k d_k,
    so p'/p is the sum of e_k = d_k' / d_k = (r_k e_{k-1} - 1) / d_k.  p
    itself is never formed, so its growth or decay with n cannot under- or
    overflow.  An exactly zero pivot is replaced by eps * ||T|| of the
    unshifted T with its couplings balanced to |prod|^(1/2), as in
    tridiag_ldlt.
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


def tridiag_null_vectors(sub: list[complex], diag: list[complex], sup: list[complex], zs):
    """For each eigenvalue z in zs, yield the twisted-factorization null vector of A - zI.

    Pivots run down, P_k = (diag[k] - z) - prod[k] / P_{k-1} as in
    tridiag_log_derivative, and up, Q_k = (diag[k] - z) - prod[k+1] / Q_{k+1};
    prod and eps * ||A|| are computed once for all of zs.  The twist r is the
    first row that minimizes |P_r + Q_r - (diag[r] - z)|, the residual of row
    r (Fernando, SIAM J. Matrix Anal. Appl. 18, 1997; Parlett & Dhillon,
    Linear Algebra Appl. 267, 1997).  With x_r = 1, x_k = -sup[k] x_{k+1} / P_k
    above r and x_k = -sub[k-1] x_{k-1} / Q_k below, every other row holds, and
    an exactly zero coupling keeps the components it decouples exactly zero.
    A component past 2^500 scales all so far by 2^-500, exact bar underflow.
    """
    n = len(diag)
    tiny = sys.float_info.epsilon * tridiag_norm(sub, diag, sup) or 1.0
    prod = [0.0, *(b * c for b, c in zip(sub, sup)), 0.0]
    for z in zs:
        shifted = [a - z for a in diag]
        down, up, p, q = [0.0j] * n, [0.0j] * n, 1.0, 1.0
        for k, j in zip(range(n), reversed(range(n))):
            down[k] = p = shifted[k] - prod[k] / p or tiny
            up[j] = q = shifted[j] - prod[j + 1] / q or tiny
        gaps = [abs(pk + qk - a) for pk, qk, a in zip(down, up, shifted)]
        r = gaps.index(min(gaps))
        x = [0.0j] * n
        x[r] = 1.0 + 0.0j
        for k in (*range(r - 1, -1, -1), *range(r + 1, n)):
            x[k] = -sup[k] * x[k + 1] / down[k] if k < r else -sub[k - 1] * x[k - 1] / up[k]
            if abs(x[k]) > 2.0**500:
                x = [c * 2.0**-500 for c in x]
        yield x


def tridiag_solve(factors, rhs: list[complex]) -> list[complex]:
    """Solve (A - shift I) x = rhs from tridiag_ldlt's pivots and multipliers.

    Forward y_k = rhs[k] - l_{k-1} y_{k-1}, then back x_k = y_k / d_k - l_k x_{k+1}.
    """
    pivots, mult = factors
    y = [rhs[0]]
    for v, m in zip(rhs[1:], mult):
        y.append(v - m * y[-1])
    x = [y[-1] / pivots[-1]]
    for yk, d, m in zip(y[-2::-1], pivots[-2::-1], mult[::-1]):
        x.append(yk / d - m * x[-1])
    x.reverse()
    return x


def tridiag_matvec(
    sub: list[complex], diag: list[complex], sup: list[complex], x: list[complex]
) -> list[complex]:
    """A x in O(n)."""
    if len(diag) == 1:
        return [diag[0] * x[0]]
    rows = zip(diag[1:], x[1:], sub, x, sup[1:], x[2:])
    out = [diag[0] * x[0] + sup[0] * x[1]]
    out += [d * mid + lo * left + up * right for d, mid, lo, left, up, right in rows]
    out.append(diag[-1] * x[-1] + sub[-1] * x[-2])
    return out
