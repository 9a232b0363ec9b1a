"""Complex tridiagonal kernel shared by the block eigensolver and the grid check.

A tridiagonal matrix is held as three lists: sub[i] = A[i+1][i],
diag[i] = A[i][i] and sup[i] = A[i][i+1].

The block eigensolver takes its eigenvectors from the twisted factorizations
of A - zI, one call per block (tridiag_null_vectors).  The grid check takes
p'/p, for its Newton steps and at the contour nodes where it counts
eigenvalues, from the top-down pivots of the same elimination
(tridiag_log_derivative).  Each replaces an exactly zero pivot by eps times
the norm of the unshifted A, the tiny pivot an exact eigenvalue wants, so no
caller re-shifts; tridiag_log_derivative's is tridiag_balanced_norm, which
the block eigensolver reads too.  The null vectors replace a subnormal pivot
too: it has lost digits to gradual underflow and would wreck the vector.
"""

from __future__ import annotations

import math
import sys

_SMALLEST_NORMAL = sys.float_info.min


def tridiag_norm(sub: list[complex], diag: list[complex], sup: list[complex]) -> float:
    """Infinity norm of A: the largest absolute row sum."""
    rows = zip((0.0j, *sub), diag, (*sup, 0.0j))
    return max(abs(lo) + abs(d) + abs(up) for lo, d, up in rows)


def tridiag_balanced_norm(diag: list[complex], prod: list[complex]) -> float:
    """||T~||, the infinity norm of T with its couplings balanced to |prod[k]|^(1/2), k >= 1."""
    couplings = [math.sqrt(abs(b)) for b in prod[1:]]
    return tridiag_norm(couplings, diag, couplings)


def tridiag_log_derivative(diag: list[complex], prod: list[complex], z: complex) -> complex:
    """p'(z) / p(z) for p(z) = det(T - zI), in one O(n) pass.

    T is given by its diagonal and coupling products, prod[k] = sub[k-1] *
    sup[k-1] with prod[0] = 0.  The LDL^T pivots of T - zI follow
    r_k = prod[k] / d_{k-1}, d_k = (diag[k] - z) - r_k, and p = prod_k d_k,
    so p'/p is the sum of e_k = d_k' / d_k = (r_k e_{k-1} - 1) / d_k.  p
    itself is never formed, so its growth or decay with n cannot under- or
    overflow.  An exactly zero pivot is replaced by eps * ||T~||, the
    tridiag_balanced_norm of the unshifted T.
    """
    d, e, total = 1.0, 0.0, 0.0j
    for a, b in zip(diag, prod):
        r = b / d
        d = a - z - r
        if not d:
            d = sys.float_info.epsilon * tridiag_balanced_norm(diag, prod) or 1.0
        e = (r * e - 1.0) / d
        total += e
    return total


def tridiag_null_vectors(sub: list[complex], diag: list[complex], sup: list[complex], zs):
    """For each eigenvalue z in zs, yield the twisted-factorization null vector of A - zI.

    Pivots run down, P_k = (diag[k] - z) - prod[k] / P_{k-1} as in
    tridiag_log_derivative, and up, Q_k = (diag[k] - z) - prod[k+1] / Q_{k+1};
    prod and eps * ||A|| are computed once for all of zs, and eps * ||A||
    replaces every pivot whose magnitude is below the smallest normal double.
    The twist r is the first row that minimizes |P_r + Q_r - (diag[r] - z)|,
    the residual of row r (Fernando, SIAM J. Matrix Anal. Appl. 18, 1997;
    Parlett & Dhillon, Linear Algebra Appl. 267, 1997).  With x_r = 1,
    x_k = -sup[k] x_{k+1} / P_k above r and x_k = -sub[k-1] x_{k-1} / Q_k
    below, every other row holds, and an exactly zero coupling keeps the
    components it decouples exactly zero.  A component past 2^500 scales all
    so far by 2^-500, exact bar underflow.
    """
    n = len(diag)
    tiny = sys.float_info.epsilon * tridiag_norm(sub, diag, sup) or 1.0
    prod = [0.0, *(b * c for b, c in zip(sub, sup)), 0.0]
    for z in zs:
        shifted = [a - z for a in diag]
        down, up, p, q = [0.0j] * n, [0.0j] * n, 1.0, 1.0
        for k, j in zip(range(n), reversed(range(n))):
            p = shifted[k] - prod[k] / p
            q = shifted[j] - prod[j + 1] / q
            down[k] = p = p if abs(p) >= _SMALLEST_NORMAL else tiny
            up[j] = q = q if abs(q) >= _SMALLEST_NORMAL else tiny
        gaps = [abs(pk + qk - a) for pk, qk, a in zip(down, up, shifted)]
        r = gaps.index(min(gaps))
        x = [0.0j] * n
        x[r] = 1.0 + 0.0j
        for k in (*range(r - 1, -1, -1), *range(r + 1, n)):
            x[k] = -sup[k] * x[k + 1] / down[k] if k < r else -sub[k - 1] * x[k - 1] / up[k]
            if abs(x[k]) > 2.0**500:
                x = [c * 2.0**-500 for c in x]
        yield x


def tridiag_matvec(
    sub: list[complex], diag: list[complex], sup: list[complex], x: list[complex]
) -> list[complex]:
    """A x in O(n): row k is diag[k] x_k + sub[k-1] x_{k-1} + sup[k] x_{k+1}, zero past the ends."""
    xs = (0.0j, *x, 0.0j)
    rows = zip(diag, xs[1:], (0.0j, *sub), xs, (*sup, 0.0j), xs[2:])
    return [d * mid + lo * left + up * right for d, mid, lo, left, up, right in rows]
