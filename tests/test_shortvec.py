import itertools
import random

import numpy as np
import pytest

from zklat.errors import BudgetExceeded
from zklat.intmat import det, hnf
from zklat.shortvec import block_reduce, enumerate_ball


def brute_counts(basis, bound, shift=None, box=12):
    n = basis.shape[0]
    shift = np.zeros(basis.shape[1], dtype=np.int64) if shift is None else shift
    hist = np.zeros(bound + 1, dtype=np.int64)
    for coeffs in itertools.product(range(-box, box + 1), repeat=n):
        v = shift + np.array(coeffs) @ basis
        q = int(v @ v)
        if q <= bound:
            hist[q] += 1
    return hist


def test_z2_counts():
    basis = np.eye(2, dtype=np.int64)
    hist, _ = enumerate_ball(basis, 4)
    assert hist.tolist() == [1, 4, 4, 0, 4]


def test_z24_norm_counts():
    basis = np.eye(24, dtype=np.int64)
    hist, _ = enumerate_ball(basis, 2)
    assert hist[1] == 48 and hist[2] == 4 * (24 * 23 // 2)


@pytest.mark.parametrize("seed", range(5))
def test_random_lattices_match_bruteforce(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    while True:
        basis = rng.integers(-3, 4, size=(n, n)).astype(np.int64)
        if round(np.linalg.det(basis.astype(float))) != 0:
            break
    bound = int(rng.integers(4, 12))
    hist, vecs = enumerate_ball(basis, bound, collect=True)
    assert np.array_equal(hist, brute_counts(basis, bound))
    # collected vectors carry their exact norm in the last column
    for row in vecs:
        assert int(row[:-1] @ row[:-1]) == row[-1] <= bound


def test_coset_enumeration():
    basis = 2 * np.eye(2, dtype=np.int64)
    shift = np.array([1, 1], dtype=np.int64)
    hist, _ = enumerate_ball(basis, 8, shift=shift, center=np.array([0.5, 0.5]))
    assert np.array_equal(hist, brute_counts(basis, 8, shift=shift))
    assert hist[0] == 0 and hist[2] == 4  # (±1, ±1)


def test_budget_raises():
    basis = np.eye(8, dtype=np.int64)
    with pytest.raises(BudgetExceeded):
        enumerate_ball(basis, 16, budget=10)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_block_reduce_preserves_lattice_and_shortens(seed):
    rng = random.Random(seed)
    n = 5
    basis = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
    if det(basis) == 0:
        pytest.skip("degenerate draw")
    red = block_reduce(np.array(basis, dtype=np.int64)).tolist()
    assert abs(det(red)) == abs(det(basis))
    # same lattice: equal Hermite normal forms
    assert hnf(red) == hnf(basis)
    # reduction never increases the shortest basis-vector norm
    norm = lambda rows: min(sum(x * x for x in r) for r in rows)
    assert norm(red) <= norm(basis)
