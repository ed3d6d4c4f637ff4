import random
from fractions import Fraction

import numpy as np
import pytest

from zklat.errors import PreconditionViolation
from zklat.intmat import det, hnf, solve_rows


def random_unimodular(n, rng, steps=20):
    m = np.eye(n, dtype=object)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        m[i] = m[i] + rng.randint(-2, 2) * m[j]
    return [list(map(int, row)) for row in m]


def test_det_small():
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 1], [2, 2]]) == 0


def test_det_agrees_with_numpy():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 6)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert det(a) == round(np.linalg.det(np.array(a, dtype=float)))


def test_hnf_shape_and_span():
    h = hnf([[2, 0], [0, 2], [1, 1]])
    # index-2 sublattice of Z^2 spanned by (1,1) and (0,2)
    assert h == [[1, 1], [0, 2]]


def test_hnf_invariant_under_unimodular_row_ops():
    rng = random.Random(3)
    base = [[4, 1, 0], [0, 2, 1], [0, 0, 3]]
    h0 = hnf(base)
    for _ in range(10):
        u = random_unimodular(3, rng)
        mixed = (np.array(u, dtype=object) @ np.array(base, dtype=object)).tolist()
        assert hnf([list(map(int, r)) for r in mixed]) == h0


def hnf_by_euclid(rows):
    """Reference row HNF: extended-gcd steps against the first pivot."""
    m = [list(r) for r in rows]
    r = 0
    for j in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            while m[i][j]:
                q = m[r][j] // m[i][j]
                m[r] = [a - q * b for a, b in zip(m[r], m[i])]
                m[r], m[i] = m[i], m[r]
        if m[r][j] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(r):
            q = m[i][j] // m[r][j]
            m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
    return m[:r]


def test_hnf_matches_euclid_on_rank_deficient_matrices():
    rng = random.Random(11)
    for _ in range(100):
        rows, cols, rank = rng.randint(1, 9), rng.randint(1, 9), rng.randint(0, 6)
        u = [[rng.randint(-6, 6) for _ in range(rank)] for _ in range(rows)]
        v = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rank)]
        a = [[sum(x * y for x, y in zip(ui, col)) for col in zip(*v)] if v else [0] * cols for ui in u]
        assert hnf(a) == hnf_by_euclid(a)


def test_solve_rows_roundtrip():
    a = [[2, 1], [1, 1]]
    x = solve_rows(a, [[5, 3]])[0]
    assert x == [Fraction(2), Fraction(1)]  # (2,1)·A = (5,3)
    with pytest.raises(PreconditionViolation, match="nonsingular matrix"):
        solve_rows([[1, 0], [2, 0]], [[0, 1]])


def test_solve_rows_solves_every_right_hand_side():
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    rhs = [[5, 3, 1], [0, 0, 1], [-7, 2, 9]]
    xs = solve_rows(a, rhs)
    assert [[sum(x[i] * a[i][j] for i in range(3)) for j in range(3)] for x in xs] == rhs
    with pytest.raises(PreconditionViolation, match="nonsingular matrix"):
        solve_rows([[1, 2], [2, 4]], [[1, 0], [0, 1]])


def test_solve_rows_on_random_matrices():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 7)
        if rng.random() < 0.3:  # rank below n: a product through n - 1 columns
            u = [[rng.randint(-4, 4) for _ in range(n - 1)] for _ in range(n)]
            v = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - 1)]
            a = [[sum(u[i][t] * v[t][j] for t in range(n - 1)) for j in range(n)] for i in range(n)]
        else:
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        rhs = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        if det(a) == 0:
            with pytest.raises(PreconditionViolation, match="nonsingular matrix"):
                solve_rows(a, rhs)
            continue
        xs = solve_rows(a, rhs)
        assert len(xs) == len(rhs)
        for x, b in zip(xs, rhs):
            assert all(isinstance(t, Fraction) for t in x)
            assert [sum(x[i] * a[i][j] for i in range(n)) for j in range(n)] == b
            assert solve_rows(a, [b])[0] == x
