"""Exhaustive short-vector enumeration (Fincke-Pohst).

Pruning intervals come from a float Cholesky factor padded with a
conservative slack, while every emitted vector's norm is recomputed in
integer arithmetic, so the reported counts and norms are exact.  The
slack exceeds the float roundoff of the partial sums by many orders of
magnitude at the matrix sizes used here (n <= 48, small entries).

With numba present the inner loop is jit-compiled; otherwise the same
function runs as plain Python.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded

STATUS_OK = 0
STATUS_BUDGET = 1
STATUS_OVERFLOW = 2
STATUS_FOUND = 3

LLL_DELTA = 0.999
BKZ_BLOCK = 20
BKZ_TOURS = 4


def _enum_core(R, t, basis, shift, bound, slack, budget, collect, early, half, out, hist):
    n = R.shape[0]
    xs = np.zeros(n, dtype=np.int64)
    xmax = np.zeros(n, dtype=np.int64)
    inner = np.zeros(n, dtype=np.float64)
    part = np.zeros(n + 1, dtype=np.float64)
    wpart = np.zeros((n + 1, basis.shape[1]), dtype=np.int64)
    wpart[n] = shift
    limit = float(bound) + slack
    count = 0
    nodes = 0

    i = n - 1
    s = 0.0
    inner[i] = 0.0
    rem = limit
    rad = math.sqrt(rem)
    # half=True restricts the top level to x >= 0; each +-v pair keeps a
    # representative, which is enough for existence/emptiness questions
    xs[i] = 0 if half else int(math.ceil((-rad) / R[i, i] - t[i]))
    xmax[i] = int(math.floor(rad / R[i, i] - t[i]))
    while True:
        nodes += 1
        if nodes > budget:
            return count, STATUS_BUDGET
        if xs[i] > xmax[i]:
            i += 1
            if i >= n:
                return count, STATUS_OK
            xs[i] += 1
            continue
        y = R[i, i] * (xs[i] + t[i]) + inner[i]
        newpart = part[i + 1] + y * y
        if newpart > limit:
            xs[i] += 1
            continue
        if i == 0:
            q = 0
            for j in range(basis.shape[1]):
                w = wpart[1, j] + xs[0] * basis[0, j]
                q += w * w
            if q <= bound:
                if early and q >= 1:
                    return q, STATUS_FOUND
                if q >= 0:
                    hist[q] += 1
                if collect:
                    if count >= out.shape[0]:
                        return count, STATUS_OVERFLOW
                    for j in range(basis.shape[1]):
                        out[count, j] = wpart[1, j] + xs[0] * basis[0, j]
                    out[count, basis.shape[1]] = q
                count += 1
            xs[i] += 1
        else:
            part[i] = newpart
            for j in range(basis.shape[1]):
                wpart[i, j] = wpart[i + 1, j] + xs[i] * basis[i, j]
            i -= 1
            s = 0.0
            for j in range(i + 1, n):
                s += R[i, j] * (xs[j] + t[j])
            inner[i] = s
            rem = limit - part[i + 1]
            if rem < 0.0:
                rem = 0.0
            rad = math.sqrt(rem)
            lo = (-rad - s) / R[i, i] - t[i]
            hi = (rad - s) / R[i, i] - t[i]
            xs[i] = int(math.ceil(lo))
            xmax[i] = int(math.floor(hi))


def _svp_core(R, bound):
    """Shortest nonzero coefficient vector of the block with factor R.

    Plain Fincke-Pohst over the upper-triangular float factor, keeping
    the best candidate.  Heuristic only (used for basis preprocessing),
    so float norms are fine here.
    """
    n = R.shape[0]
    xs = np.zeros(n, dtype=np.int64)
    xmax = np.zeros(n, dtype=np.int64)
    inner = np.zeros(n, dtype=np.float64)
    part = np.zeros(n + 1, dtype=np.float64)
    best = bound
    bestx = np.zeros(n, dtype=np.int64)

    i = n - 1
    inner[i] = 0.0
    rad = math.sqrt(best)
    # half-space x_{n-1} >= 0 (the +-x symmetry halves the tree)
    xs[i] = 0
    xmax[i] = int(math.floor(rad / R[i, i]))
    while True:
        if xs[i] > xmax[i]:
            i += 1
            if i >= n:
                return best, bestx
            xs[i] += 1
            continue
        y = R[i, i] * xs[i] + inner[i]
        newpart = part[i + 1] + y * y
        if newpart >= best:
            xs[i] += 1
            continue
        if i == 0:
            nz = False
            for j in range(n):
                if xs[j] != 0:
                    nz = True
                    break
            if nz:
                best = newpart
                for j in range(n):
                    bestx[j] = xs[j]
            xs[i] += 1
        else:
            part[i] = newpart
            i -= 1
            s = 0.0
            for j in range(i + 1, n):
                s += R[i, j] * xs[j]
            inner[i] = s
            rem = best - part[i + 1]
            if rem < 0.0:
                rem = 0.0
            rad = math.sqrt(rem)
            xs[i] = int(math.ceil((-rad - s) / R[i, i]))
            xmax[i] = int(math.floor((rad - s) / R[i, i]))


def _lll_core(b):
    """In-place LLL on an int64 row basis with float Gram-Schmidt data."""
    n = b.shape[0]
    bstar = np.zeros((n, b.shape[1]), dtype=np.float64)
    bsq = np.zeros(n, dtype=np.float64)
    mu = np.zeros((n, n), dtype=np.float64)

    def gso_row(i):
        star = b[i].astype(np.float64)
        for j in range(i):
            mu[i, j] = (b[i].astype(np.float64) @ bstar[j]) / bsq[j] if bsq[j] else 0.0
            star = star - mu[i, j] * bstar[j]
        bstar[i] = star
        bsq[i] = star @ star

    for i in range(n):
        gso_row(i)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k, j]) > 0.5:
                q = int(round(mu[k, j]))
                b[k] -= q * b[j]
                gso_row(k)
        if bsq[k] >= (LLL_DELTA - mu[k, k - 1] ** 2) * bsq[k - 1]:
            k += 1
        else:
            tmp = b[k].copy()
            b[k] = b[k - 1]
            b[k - 1] = tmp
            gso_row(k - 1)
            gso_row(k)
            for i in range(k + 1, n):
                for j in (k - 1, k):
                    mu[i, j] = (b[i].astype(np.float64) @ bstar[j]) / bsq[j] if bsq[j] else 0.0
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
            gram = (b @ b.T).astype(np.float64)
            R = np.ascontiguousarray(np.linalg.cholesky(gram).T)
            rsub = np.ascontiguousarray(R[i:j, i:j])
            bound = 0.9999 * rsub[0, 0] ** 2
            q, x = _svp_jit(rsub, bound)
            if q < bound and np.any(x):
                u = _complete_unimodular(x)
                b[i:j] = u @ b[i:j]
                _lll_core(b)
                changed = True
        if not changed:
            break
    return b


try:  # pragma: no cover - exercised implicitly
    from numba import njit

    _enum_jit = njit(cache=True)(_enum_core)
    _svp_jit = njit(cache=True)(_svp_core)
except Exception:  # pragma: no cover
    _enum_jit = _enum_core
    _svp_jit = _svp_core


def enumerate_ball(
    basis: np.ndarray,
    bound: int,
    shift: np.ndarray | None = None,
    center: np.ndarray | None = None,
    collect: bool = False,
    budget: int = 2_000_000_000,
    expected: int | None = None,
):
    """All vectors shift + x * basis with integer squared length <= bound.

    Returns (hist, vectors) where hist[q] counts vectors of squared
    length q and vectors is an int64 array (or None when collect=False).
    `center` is the coefficient-space image of shift (rational solve of
    shift against the basis, passed in as floats); with shift it
    describes a lattice coset.
    """
    basis = np.asarray(basis, dtype=np.int64)
    n = basis.shape[0]
    gram = (basis @ basis.T).astype(np.float64)
    L = np.linalg.cholesky(gram)
    R = np.ascontiguousarray(L.T)
    t = np.zeros(n) if center is None else np.asarray(center, dtype=np.float64)
    sv = (
        np.zeros(basis.shape[1], dtype=np.int64)
        if shift is None
        else np.asarray(shift, dtype=np.int64)
    )
    slack = 1e-4 * (bound + 1)
    hist = np.zeros(bound + 1, dtype=np.int64)
    if collect:
        cap = expected if expected is not None else 4096
        while True:
            hist[:] = 0
            out = np.zeros((cap, basis.shape[1] + 1), dtype=np.int64)
            count, status = _enum_jit(
                R, t, basis, sv, bound, slack, budget, True, False, False, out, hist
            )
            if status == STATUS_BUDGET:
                raise BudgetExceeded("enumeration node budget exhausted")
            if status == STATUS_OVERFLOW:
                cap *= 4
                continue
            return hist, out[:count]
    out = np.zeros((0, basis.shape[1] + 1), dtype=np.int64)
    count, status = _enum_jit(
        R, t, basis, sv, bound, slack, budget, False, False, False, out, hist
    )
    if status == STATUS_BUDGET:
        raise BudgetExceeded("enumeration node budget exhausted")
    return hist, None


def first_nonzero_leq(basis: np.ndarray, bound: int, budget: int = 2_000_000_000):
    """Squared length of some nonzero lattice vector <= bound, else None.

    Early-exit probe: returns as soon as any nonzero vector inside the
    ball is touched, so a hit is much cheaper than a full enumeration
    while a miss is an exhaustive emptiness proof.
    """
    basis = np.asarray(basis, dtype=np.int64)
    n = basis.shape[0]
    gram = (basis @ basis.T).astype(np.float64)
    L = np.linalg.cholesky(gram)
    R = np.ascontiguousarray(L.T)
    t = np.zeros(n)
    sv = np.zeros(basis.shape[1], dtype=np.int64)
    slack = 1e-4 * (bound + 1)
    hist = np.zeros(bound + 1, dtype=np.int64)
    out = np.zeros((0, basis.shape[1] + 1), dtype=np.int64)
    q, status = _enum_jit(
        R, t, basis, sv, bound, slack, budget, False, True, True, out, hist
    )
    if status == STATUS_BUDGET:
        raise BudgetExceeded("enumeration node budget exhausted")
    if status == STATUS_FOUND:
        return int(q)
    return None
