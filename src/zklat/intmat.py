"""Exact integer matrix helpers: two eliminations, both on Python ints.

`hnf`, for row spaces and rank, pivots each column on its smallest
nonzero entry, so intermediate entries stay small (Havas, Majewski and
Matthews, Experimental Math. 7, 1998).  `_eliminate`, for `det` and
`solve_rows`, is fraction-free (Bareiss, Math. Comp. 22, 1968): its
entries are minors of the input and its divisions are exact.  `det`
is the one rank test of a lattice basis, in `lattice.Lattice`'s
constructor, which refuses a zero determinant; `solve_rows` builds a
lattice's dual basis (`lattice.Lattice.dual`) and decides membership in
a lattice that is not unimodular.  No walk solves for a centre: the
enumerator has no shift, and every walk is centred at 0.
"""

from __future__ import annotations

from fractions import Fraction


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form (upper triangular, positive pivots).

    Entries above each pivot lie in [0, pivot).  Returns only the nonzero
    rows; the HNF is unique, so the pivot order never shows in it.
    Input rows are not modified.
    """
    m = [list(map(int, r)) for r in rows]
    r = 0
    for j in range(len(m[0]) if m else 0):
        nz = [i for i in range(r, len(m)) if m[i][j]]
        if not nz:
            continue
        while len(nz) > 1:
            piv = min(nz, key=lambda i: abs(m[i][j]))
            p, prow = m[piv][j], m[piv]
            for i in nz:
                if i != piv:
                    q = m[i][j] // p
                    m[i] = [a - q * b for a, b in zip(m[i], prow)]
            nz = [i for i in nz if m[i][j]]
        m[r], m[nz[0]] = m[nz[0]], m[r]
        if m[r][j] < 0:
            m[r] = [-a for a in m[r]]
        p, prow = m[r][j], m[r]
        for i in range(r):
            q = m[i][j] // p
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], prow)]
        r += 1
    return m[:r]


def _eliminate(a: list[list[int]], n: int) -> int:
    """Determinant of the first n columns of the n rows a (Bareiss, in place).

    Row i then holds the eliminated matrix from column i on.
    """
    sign, prev = 1, 1
    for k in range(n):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak = a[k]
        p = ak[k]
        # index loops: at these sizes a comprehension per row costs more
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            if f or p != prev:
                for j in range(k + 1, len(ak)):
                    ai[j] = (ai[j] * p - f * ak[j]) // prev
        prev = p
    return sign * prev


def det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix."""
    return _eliminate([list(map(int, r)) for r in rows], len(rows))


def solve_rows(a: list[list], rhs: list[list]) -> list[list[Fraction]] | None:
    """Solve x A = b exactly for every row b of rhs; None if A is singular.

    One elimination on A^T with every right-hand side carried along as a
    column, then back-substitution for d x in integers: d = det A, so
    d x is integral (Cramer's rule).
    """
    n = len(a)
    m = [[int(a[i][j]) for i in range(n)] + [int(b[j]) for b in rhs] for j in range(n)]
    d = _eliminate(m, n)
    if not d:
        return None
    dx = [None] * n  # dx[i][c]: d times x_i for right-hand side c
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = [d * v for v in row[n:]]
        for f, y in zip(row[i + 1 : n], dx[i + 1 :]):
            acc = [s - f * t for s, t in zip(acc, y)]
        dx[i] = [s // row[i] for s in acc]
    return [[Fraction(dx[i][c], d) for i in range(n)] for c in range(len(rhs))]

