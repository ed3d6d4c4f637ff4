"""Backtracking search for n mutually orthogonal vectors.

The orthogonality relation is a graph on the candidate vectors; a frame
is a clique of the target size.  The search is exhaustive, so a None
answer is a proof of nonexistence (a blown budget raises instead).

Adjacency is never materialized: with six-figure candidate counts an
n x n bitset runs to gigabytes, so neighbourhoods are recomputed from
exact int64 inner products on the fly (O(n) memory per search level).
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded


def find_orthogonal_set(
    vectors: np.ndarray, target: int, budget: int = 50_000_000
) -> list[int] | None:
    """First index set of `target` mutually orthogonal vectors, else None.

    Enumerates cliques in increasing index order, filtering the
    candidate pool against each chosen vector with one matvec.  A None
    return means the whole space was covered.
    """
    if target == 0:
        return []
    if vectors.shape[0] < target:
        return None
    v = np.ascontiguousarray(vectors, dtype=np.int64)
    nodes = 0

    def dfs(chosen: list[int], pool: np.ndarray) -> list[int] | None:
        nonlocal nodes
        need = target - len(chosen)
        for pos in range(pool.shape[0] - need + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded("clique search nodes", nodes, budget)
            i = int(pool[pos])
            chosen.append(i)
            if need == 1:
                return list(chosen)
            rest = pool[pos + 1 :]
            sub = rest[v[rest] @ v[i] == 0]
            if sub.shape[0] >= need - 1:
                res = dfs(chosen, sub)
                if res is not None:
                    return res
            chosen.pop()
        return None

    res = dfs([], np.arange(v.shape[0]))
    if res is None:
        return None
    return sorted(res)
