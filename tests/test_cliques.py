import itertools

import numpy as np
import pytest

from zklat.catalog import build
from zklat.cliques import components, find_orthogonal_set
from zklat.errors import BudgetExceeded
from zklat.lattice import norm_shell


def test_find_orthogonal_set_returns_sorted_valid_indices():
    v = np.array([[1, 1, 0], [1, 0, 1], [0, 0, 1], [1, -1, 0], [0, 1, 1]])
    idx = find_orthogonal_set(v, 3)
    assert idx == sorted(idx) and len(set(idx)) == 3
    sub = v[idx]
    gram = sub @ sub.T
    assert not np.any(gram - np.diag(np.diag(gram)))


def test_find_orthogonal_set_none_is_exhaustive():
    v = np.array([[1, 1], [1, 0], [2, 1], [0, 1]])
    # (1,0) and (0,1) are the only orthogonal pair; no third vector fits
    assert find_orthogonal_set(v, 2) == [1, 3]
    assert find_orthogonal_set(v, 3) is None
    assert find_orthogonal_set(v[:1], 2) is None


def test_find_orthogonal_set_budget_raises():
    v = np.eye(6, dtype=np.int64)
    with pytest.raises(BudgetExceeded):
        find_orthogonal_set(v, 6, budget=3)


def _brute_force(v, target):
    gram = v @ v.T
    for combo in itertools.combinations(range(v.shape[0]), target):
        if all(gram[i, j] == 0 for i, j in itertools.combinations(combo, 2)):
            return True
    return False


def _random_set(rng, rows, dim):
    return rng.integers(-1, 2, size=(rows, dim))


def _direct_sum(rng):
    # two random sets in complementary coordinate blocks, rows interleaved
    a = _random_set(rng, 5, 2)
    b = _random_set(rng, 5, 3)
    v = np.zeros((10, 5), dtype=np.int64)
    v[:5, :2] = a
    v[5:, 2:] = b
    return v[rng.permutation(10)]


@pytest.mark.parametrize("seed", range(12))
def test_find_orthogonal_set_agrees_with_brute_force(seed):
    rng = np.random.default_rng(seed)
    cases = [_random_set(rng, int(rng.integers(3, 10)), 4), _direct_sum(rng)]
    for v in cases:
        n = v.shape[1]
        for target in range(1, n + 1):
            idx = find_orthogonal_set(v, target)
            assert (idx is not None) == _brute_force(v, target), (v.tolist(), target)
            if idx is not None:
                assert idx == sorted(set(idx)) and len(idx) == target
                sub = v[idx]
                gram = sub @ sub.T
                assert not np.any(gram - np.diag(np.diag(gram)))


def test_a5_4_roots_refuted_by_their_components():
    # four A5 components of rank 5, each holding at most 3 orthogonal roots
    shell = norm_shell(build("A5_4"), 2)
    assert sorted((len(idx), r) for idx, r in components(shell)) == [(15, 5)] * 4
    assert find_orthogonal_set(shell, 20, budget=1000) is None


def test_target_above_rank_needs_no_search():
    rng = np.random.default_rng(7)
    v = rng.integers(1, 4, size=(12, 3)) @ np.array([[1, 0, 2, 1], [0, 1, 1, -1], [1, 1, 0, 0]])
    # rank 3 < 4: refuted before a single backtracking node (budget 0)
    assert find_orthogonal_set(v, 4, budget=0) is None
