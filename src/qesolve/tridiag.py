"""Complex tridiagonal kernel shared by the block eigensolver and the grid check.

A tridiagonal matrix is held as three lists: sub[i] = A[i+1][i],
diag[i] = A[i][i] and sup[i] = A[i][i+1].

Both callers run inverse iteration on A - sigma I, factored by
tridiag_factor(sub, diag, sup, sigma).  It replaces an exactly zero pivot
by eps * ||A|| of the unshifted A: the tiny pivot inverse iteration wants
at an exact eigenvalue, so no caller re-shifts.
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


def upper_solve(factors, y: list[complex]) -> list[complex]:
    """Back substitution with the U factor alone (pivots b, two superdiagonals c, d)."""
    b, c, d, _, _ = factors
    n = len(b)
    x = [0.0j] * n
    x[n - 1] = y[n - 1] / b[n - 1]
    if n >= 2:
        x[n - 2] = (y[n - 2] - c[n - 2] * x[n - 1]) / b[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (y[i] - c[i] * x[i + 1] - d[i] * x[i + 2]) / b[i]
    return x


def tridiag_solve(factors, rhs: list[complex]) -> list[complex]:
    """Solve A x = rhs from tridiag_factor's output."""
    _, _, _, mult, swap = factors
    y = list(rhs)
    for i in range(len(y) - 1):
        if swap[i]:
            y[i], y[i + 1] = y[i + 1], y[i]
        y[i + 1] -= mult[i] * y[i]
    return upper_solve(factors, y)


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
