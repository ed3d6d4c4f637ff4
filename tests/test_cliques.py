import numpy as np
import pytest

from zklat.cliques import find_orthogonal_set
from zklat.errors import BudgetExceeded


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
