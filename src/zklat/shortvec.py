"""Exhaustive short-vector enumeration (Fincke-Pohst).

One enumerator, `_fincke_pohst`, serves every caller.  It expands the
Fincke-Pohst tree one level at a time as numpy arrays and walks it depth
first over frontier chunks of at most `CHUNK` rows, the scheme of
parallel enumeration (Hermans et al., AFRICACRYPT 2010; Kuo et al.,
CHES 2011), so memory stays bounded at every dimension while the tree
order stays that of Fincke-Pohst.  Every emitted vector's norm is then
recomputed in integer arithmetic, so the reported counts and norms are
exact.  `enumerate_ball` counts a ball; `shortest_norm` is the one exact
shortest-vector search, a single walk whose bound shrinks each time a
shorter vector turns up (Schnorr and Euchner, Math. Programming 66,
1994).

Pruning uses a float Cholesky factor R of the Gram matrix G and the
bound padded by a slack of 1e-4 (bound + 1).  `_factor` checks once per
call that the padding covers the float error: R is the exact factor of
G + E, it measures err = max|E|, and it bounds the coefficient sum
|x + t|_1 of every vector in the ball by c, from the dual basis norms.
Every partial norm of such a vector, taken with G + E, is at most its
full norm, bound + err c^2.  The check demands err c^2 <= slack / 1000
(the rounding of the partial sums themselves is far smaller still) and
raises PreconditionViolation otherwise, so no vector of the ball is
ever pruned.  The walk reads its limit from a one-element array that
`shortest_norm` lowers between blocks, keeping the slack of the starting
bound.  A smaller ball has a smaller coefficient bound c, so the check
made at the start still covers every lowered bound.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded, PreconditionViolation
from .intmat import solve_fraction

CHUNK = 1024  # frontier rows created per numpy step
DEFAULT_NODE_BUDGET = 2_000_000_000
SLACK_MARGIN = 1e-3  # float error allowed, as a share of the pruning slack

LLL_DELTA = 0.999
BKZ_BLOCK = 20
BKZ_TOURS = 4


def _factor(basis: np.ndarray, bound: int):
    """Upper-triangular float R with R^T R = Gram, and the pruning limit.

    The limit, bound + slack, comes as a one-element array: the walk reads
    it afresh at every step, so its consumer may lower it.
    """
    gram = (basis @ basis.T).astype(np.float64)
    try:
        R = np.ascontiguousarray(np.linalg.cholesky(gram).T)
    except np.linalg.LinAlgError:
        raise PreconditionViolation("Gram matrix is not numerically positive definite")
    slack = 1e-4 * (bound + 1)
    err = float(np.abs(R.T @ R - gram).max())
    # |x_i + t_i| <= sqrt(bound * (G^-1)_ii) for every vector in the ball
    coef = float(np.sqrt(bound * (np.linalg.inv(R) ** 2).sum(axis=1)).sum())
    if not err * coef**2 <= SLACK_MARGIN * slack:
        raise PreconditionViolation(
            f"float pruning error bound {err * coef**2:.3g} (Cholesky residual "
            f"{err:.3g}) is not far below the slack {slack:.3g}"
        )
    return R, np.array([bound + slack])


def _fincke_pohst(R, t, limit, budget):
    """Blocks of integer rows x with float |(x + t) R^T|^2 <= limit[0].

    Each step takes the deepest pending block, expands its leading rows
    whose children number at most CHUNK (at least one row) to the next
    level and leaves the rest on the stack, so the walk is depth first
    and holds at most one block of about CHUNK rows per level.  When t
    is zero the tree is symmetric under x -> -x and only the zero row
    and, of each +-pair, the row whose last nonzero entry is positive
    are walked.  The consumer may lower limit[0] between blocks; pending
    nodes are then pruned against the lowered limit.  Raises
    BudgetExceeded once more than `budget` tree nodes were expanded.
    """
    n = R.shape[0]
    diag = R.diagonal()
    # (x + t) . R[i, i+1:] = x . R[i, i+1:] + toff[i]
    toff = np.array([t[i + 1 :] @ R[i, i + 1 :] for i in range(n)])
    pairs = not np.any(t)
    nodes = 0
    # (level, suffix rows x[level:], their partial norms)
    stack = [(n, np.zeros((1, 0), dtype=np.int64), np.zeros(1))]
    while stack:
        level, rows, parts = stack.pop()
        lim = limit[0]
        xs, part = rows[:CHUNK], parts[:CHUNK]
        i = level - 1
        c = xs @ R[i, level:] + toff[i]
        rad = np.sqrt(np.maximum(lim - part, 0.0))
        lo = np.ceil((-rad - c) / diag[i] - t[i])
        hi = np.floor((rad - c) / diag[i] - t[i])
        if pairs:  # only the zero row has partial norm exactly 0
            np.maximum(lo, 0.0, out=lo, where=part == 0.0)
        width = np.maximum(hi - lo + 1.0, 0.0).astype(np.int64)
        ends = np.cumsum(width)
        # expand the leading rows whose children fit in CHUNK (at least one)
        m = max(1, int(np.searchsorted(ends, CHUNK, side="right")))
        if m < rows.shape[0]:
            stack.append((level, rows[m:], parts[m:]))
        total = int(ends[m - 1])
        if total == 0:
            continue
        xs, part, c, width = xs[:m], part[:m], c[:m], width[:m]
        parent = np.repeat(np.arange(m), width)
        x = np.arange(total) + np.repeat(lo[:m].astype(np.int64) - (ends[:m] - width), width)
        y = diag[i] * (x + t[i]) + c[parent]
        newpart = part[parent] + y * y
        keep = newpart <= lim
        x, parent, newpart = x[keep], parent[keep], newpart[keep]
        nodes += x.size
        if nodes > budget:
            raise BudgetExceeded("enumeration nodes", nodes, budget)
        if not x.size:  # a lowered limit pruned the whole block
            continue
        child = np.empty((x.size, n - i), dtype=np.int64)
        child[:, 0] = x
        child[:, 1:] = xs[parent]
        if i == 0:
            yield child
        else:
            stack.append((i, child, newpart))


def _norms(v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", v, v)


def _gso(rows):
    """Upper-triangular R with R^T R = rows rows^T and a positive diagonal.

    Householder QR of the float rows: R_jj = |b*_j| and R_jk / R_jj is the
    Gram-Schmidt coefficient mu_kj.  A QR factor, not a Cholesky factor of
    the Gram matrix, since forming the Gram squares the condition number.
    """
    R = np.linalg.qr(rows.T.astype(np.float64), mode="r")
    return R * np.where(R.diagonal() < 0, -1.0, 1.0)[:, None]


def _lll_core(b):
    """In-place LLL on an int64 row basis, reading mu and |b*|^2 from _gso."""
    n = b.shape[0]
    k = 1
    while k < n:
        R = _gso(b[: k + 1])
        diag = R.diagonal()
        mu = R[:, k] / diag  # mu[j] = mu_kj for j < k
        for j in range(k - 1, -1, -1):
            if abs(mu[j]) > 0.5:
                q = int(round(mu[j]))
                b[k] -= q * b[j]
                mu[: j + 1] -= q * R[: j + 1, j] / diag[: j + 1]
        # size reduction leaves b*_k, so R_kk, unchanged
        if diag[k] ** 2 >= (LLL_DELTA - mu[k - 1] ** 2) * diag[k - 1] ** 2:
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            k = max(k - 1, 1)
    return b


def _complete_unimodular(x):
    """Unimodular integer matrix whose first row is x (gcd(x) = 1)."""
    m = len(x)
    v = [int(t) for t in x]
    w = [[int(i == j) for j in range(m)] for i in range(m)]  # x == sum v_t w_t
    while True:
        nz = [t for t in range(m) if v[t] != 0]
        if len(nz) == 1:
            break
        nz.sort(key=lambda t: abs(v[t]))
        i, j = nz[0], nz[1]
        q = v[j] // v[i]
        v[j] -= q * v[i]
        w[i] = [a + q * c for a, c in zip(w[i], w[j])]
    s = nz[0]
    if v[s] == -1:
        v[s] = 1
        w[s] = [-a for a in w[s]]
    assert v[s] == 1, "first-row completion needs gcd 1"
    u = [w[s]] + [w[t] for t in range(m) if t != s]
    return np.array(u, dtype=np.int64)


def _shortest(R, bound):
    """Shortest nonzero coefficient row of the block with factor R, else None.

    Heuristic only (basis preprocessing), so float norms are fine here.
    """
    best, bestx = bound, None
    for xs in _fincke_pohst(R, np.zeros(R.shape[0]), np.array([bound]), np.inf):
        q = _norms(xs @ R.T)
        q[~xs.any(axis=1)] = np.inf
        j = int(np.argmin(q))
        if q[j] < best:
            best, bestx = q[j], xs[j]
    return bestx


def block_reduce(basis: np.ndarray) -> np.ndarray:
    """Float LLL followed by BKZ tours (heuristic preprocessing).

    Accepts any integer basis, reduced or not.  Every transformation
    applied is unimodular, so the output spans the same lattice; quality
    only affects downstream enumeration speed, never correctness.
    """
    b = np.array(basis, dtype=np.int64)
    n = b.shape[0]
    _lll_core(b)
    for _ in range(BKZ_TOURS):
        changed = False
        for i in range(n - 1):
            j = min(i + BKZ_BLOCK, n)
            rsub = np.ascontiguousarray(_gso(b[:j])[i:j, i:j])
            x = _shortest(rsub, 0.9999 * rsub[0, 0] ** 2)
            if x is not None:
                u = _complete_unimodular(x)
                b[i:j] = u @ b[i:j]
                _lll_core(b)
                changed = True
        if not changed:
            break
    return b


def enumerate_ball(
    basis: np.ndarray,
    bound: int,
    shift: np.ndarray | None = None,
    collect: bool = False,
    budget: int = DEFAULT_NODE_BUDGET,
):
    """All vectors shift + x * basis with integer squared length <= bound.

    Returns (hist, vectors) where hist[q] counts vectors of squared
    length q and vectors is an int64 array (or None when collect=False)
    whose last column holds each vector's squared length.  A shift in
    the basis's rational span describes a lattice coset; its exact
    coefficients against the basis centre the walk.  Without a shift the
    ball is symmetric: `vectors` holds 0 and one vector of each +-pair,
    and hist counts both.
    """
    basis = np.asarray(basis, dtype=np.int64)
    R, limit = _factor(basis, bound)
    t = np.zeros(basis.shape[0])
    sv = 0
    if shift is not None:
        sv = np.asarray(shift, dtype=np.int64)
        center = solve_fraction(basis.tolist(), sv.tolist())
        if center is None:
            raise PreconditionViolation("shift not in the lattice's span")
        t = np.array([float(x) for x in center])
    hist = np.zeros(bound + 1, dtype=np.int64)
    found = []
    for xs in _fincke_pohst(R, t, limit, budget):
        v = xs @ basis + sv
        q = _norms(v)
        inside = q <= bound
        hist += np.bincount(q[inside], minlength=bound + 1)
        if collect:
            found.append(np.column_stack([v[inside], q[inside]]))
    if not np.any(t):  # the walk held one vector of each +-pair
        hist[1:] *= 2
    if not collect:
        return hist, None
    if not found:
        return hist, np.zeros((0, basis.shape[1] + 1), dtype=np.int64)
    return hist, np.concatenate(found)


def shortest_norm(
    basis: np.ndarray, budget: int = DEFAULT_NODE_BUDGET, keep=None
) -> int:
    """Exact minimum squared length of a lattice vector that `keep` accepts.

    `keep` maps an array of vectors (rows) to a boolean mask; it must be
    symmetric under v -> -v and accept some basis row.  By default it
    accepts the nonzero vectors.  One walk starts at the bound best - 1,
    best the shortest kept basis row, and lowers its limit to best - 1
    (plus the starting slack) whenever a shorter kept vector turns up;
    the walk's end is an exhaustive proof that none is shorter than best.
    """
    basis = np.asarray(basis, dtype=np.int64)
    if keep is None:
        keep = lambda v: v.any(axis=1)
    best = int(_norms(basis)[keep(basis)].min())
    R, limit = _factor(basis, best - 1)
    for xs in _fincke_pohst(R, np.zeros(basis.shape[0]), limit, budget):
        v = xs @ basis
        q = _norms(v)
        short = q < best  # keep runs only on the few rows that could improve
        low = int(q[short][keep(v[short])].min(initial=best))
        limit[0] -= best - low  # the slack stays
        best = low
    return best
