"""Backtracking search for n mutually orthogonal vectors.

The orthogonality relation is a graph on the candidate vectors; a frame
is a clique of the target size.  The search is exhaustive, so a None
answer is a proof of nonexistence (a blown budget raises instead).

Before any backtracking the candidates are split into the connected
components of the non-orthogonality graph (edge = nonzero inner
product).  Vectors in different components are orthogonal, so the
components span mutually orthogonal subspaces, and an orthogonal set is
exactly a union of one orthogonal set per component.  A component of
rank d holds at most d mutually orthogonal nonzero vectors.  So if the
ranks sum to less than the target there is no orthogonal set at all.
Otherwise each component is searched on its own for as many vectors as
it can give, and the search stops once the later components' ranks
cannot make up the shortfall.  A5^4's 60 root pairs, for one, form four
A5 components of rank 5, each holding at most 3 orthogonal roots
(Conway-Sloane, SPLAG ch. 4): one failed search for 5 roots in the
first component refutes a 20-frame.  A shell with one component is
searched exactly as without the split.

Adjacency is never materialized: with six-figure candidate counts an
n x n bitset runs to gigabytes, so neighbourhoods are recomputed from
exact int64 inner products on the fly (O(n) memory per search level).
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded
from .intmat import hnf

CLIQUE_BUDGET = 50_000_000  # backtracking nodes per search
BFS_BATCH = 8  # frontier rows tested against the unvisited rows at a time


def components(vectors: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """(indices, rank) of each connected component of the non-orthogonality graph.

    Indices are ascending, and components come in the order of their
    smallest index.  The breadth-first search tests the still-unvisited
    rows against BFS_BATCH frontier rows at a time and stops once no row
    is left unvisited, so a one-component set costs only a few matrix
    products.  The rank is exact: the HNF rank of the n x n Gram VᵀV of
    the component's rows V.
    """
    v = np.ascontiguousarray(vectors, dtype=np.int64)
    rest = np.arange(v.shape[0])
    out = []
    while rest.size:
        found = [rest[:1]]
        frontier, rest = rest[:1], rest[1:]
        while frontier.size and rest.size:
            batch, frontier = frontier[:BFS_BATCH], frontier[BFS_BATCH:]
            hit = np.any(v[rest] @ v[batch].T != 0, axis=1)
            found.append(rest[hit])
            frontier = np.concatenate([frontier, rest[hit]])
            rest = rest[~hit]
        idx = np.sort(np.concatenate(found))
        w = v[idx]
        out.append((idx, len(hnf(np.einsum("ij,ik->jk", w, w).tolist()))))
    return out


def find_orthogonal_set(
    vectors: np.ndarray, target: int, budget: int = CLIQUE_BUDGET
) -> list[int] | None:
    """First index set of `target` mutually orthogonal vectors, else None.

    Splits the candidates into components (see the module docstring);
    if their ranks sum below `target`, returns None with no search.
    Otherwise each component, in order, contributes the largest
    orthogonal set it holds up to what is still needed, and the search
    steps a component down only while the later components' ranks can
    cover the shortfall.  Within a component, cliques are enumerated in
    increasing index order, filtering the candidate pool against each
    chosen vector with one matvec.  A None return means the whole space
    was covered; `budget` bounds the nodes of all components together.
    """
    if target == 0:
        return []
    if vectors.shape[0] < target:
        return None
    v = np.ascontiguousarray(vectors, dtype=np.int64)
    comps = components(v)
    # a zero row is a component of rank 0 that still holds one vector
    caps = [max(r, 1) for _, r in comps]
    nodes = 0

    def dfs(chosen: list[int], pool: np.ndarray, size: int) -> list[int] | None:
        nonlocal nodes
        need = size - len(chosen)
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
                res = dfs(chosen, sub, size)
                if res is not None:
                    return res
            chosen.pop()
        return None

    # Taking fewer vectors from a component never helps the later ones, so
    # each component keeps the largest size it reaches.  Ranks summing
    # below the target fail the `later` tests before any search.
    found: list[int] = []
    need = target
    for j, (comp, _) in enumerate(comps):
        later = sum(caps[j + 1 :])
        size = min(caps[j], need)
        while size > 0 and later >= need - size:
            part = dfs([], comp, size)
            if part is not None:
                found += part
                need -= size
                break
            size -= 1
        if need == 0:
            return sorted(found)
        if later < need:
            return None
    return None
