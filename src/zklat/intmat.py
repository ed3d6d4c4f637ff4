"""Small exact integer/rational matrix helpers.

Everything here works on plain Python ints (arbitrary precision) or
Fractions; numpy is used only as a convenient container by callers.
Matrix sizes in this package stay below ~100x50, so the textbook
algorithms are plenty fast.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form (upper triangular, positive pivots).

    Returns only the nonzero rows.  Input rows are not modified.
    """
    m = [list(map(int, r)) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    r = 0
    for j in range(ncols):
        # kill everything below the pivot with extended gcd steps
        piv = None
        for i in range(r, len(m)):
            if m[i][j] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            while m[i][j] != 0:
                q = m[r][j] // m[i][j]
                m[r] = [a - q * b for a, b in zip(m[r], m[i])]
                m[r], m[i] = m[i], m[r]
        if m[r][j] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(r):
            q = m[i][j] // m[r][j]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
    return [row for row in m[:r] if any(row)]


def det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def solve_rows(a: list[list], rhs: list[list]) -> list[list[Fraction]] | None:
    """Solve x A = b exactly for every row b of rhs; None if A is singular.

    One Gauss-Jordan elimination on A^T, carrying every right-hand side
    along as a column.
    """
    n = len(a)
    # transpose so we can do standard column elimination on A^T x^T = b^T
    m = [[Fraction(a[i][j]) for i in range(n)] + [Fraction(b[j]) for b in rhs] for j in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [[m[j][n + i] for j in range(n)] for i in range(len(rhs))]


def solve_fraction(a: list[list[int]], b: list) -> list[Fraction] | None:
    """Solve x A = b exactly (row-vector convention); None if singular."""
    x = solve_rows(a, [b])
    return None if x is None else x[0]


def vec_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, int(x))
    return g
