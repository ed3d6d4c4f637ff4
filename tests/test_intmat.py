import random
from fractions import Fraction

import numpy as np

from zklat.intmat import det, hnf, solve_fraction, solve_rows, vec_gcd


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


def test_solve_fraction_roundtrip():
    a = [[2, 1], [1, 1]]
    x = solve_fraction(a, [5, 3])
    assert x == [Fraction(2), Fraction(1)]  # (2,1)·A = (5,3)
    assert solve_fraction([[1, 0], [2, 0]], [0, 1]) is None


def test_solve_rows_solves_every_right_hand_side():
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    rhs = [[5, 3, 1], [0, 0, 1], [-7, 2, 9]]
    xs = solve_rows(a, rhs)
    assert [[sum(x[i] * a[i][j] for i in range(3)) for j in range(3)] for x in xs] == rhs
    assert solve_rows([[1, 2], [2, 4]], [[1, 0], [0, 1]]) is None


def test_vec_gcd():
    assert vec_gcd([4, 6, 10]) == 2
    assert vec_gcd([0, 0]) == 0

