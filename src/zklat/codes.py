"""Codes over Z_k: construction, self-duality, Euclidean weights.

A code is held as a generator matrix with entries reduced to
{0, ..., k-1}.  The generator rows are required to enumerate the code
without repetition: the product of the additive row orders must equal
the number of distinct codewords (checked on construction via the
determinant of the lift).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .errors import BudgetExceeded, PreconditionViolation
from .intmat import hnf, vec_gcd

DEFAULT_CODEWORD_BUDGET = 2**31
CODEWORD_CHUNK = 1 << 12  # partial messages expanded or scored per numpy step


def euclidean_weight(x, k: int) -> int:
    """Sum of min(x_i, k - x_i)^2 over the coordinates, entries mod k."""
    total = 0
    for v in x:
        r = int(v) % k
        a = min(r, k - r)
        total += a * a
    return total


def weight_table(k: int) -> np.ndarray:
    r = np.arange(k, dtype=np.int64)
    return np.minimum(r, k - r) ** 2


@dataclass(frozen=True)
class ZkCode:
    k: int
    generators: tuple[tuple[int, ...], ...]
    row_orders: tuple[int, ...] = field(init=False)
    cardinality: int = field(init=False)

    def __post_init__(self):
        if self.k < 2:
            raise PreconditionViolation("modulus must be >= 2")
        gens = tuple(tuple(int(v) % self.k for v in row) for row in self.generators)
        if not gens:
            raise PreconditionViolation("a code needs at least one generator row")
        object.__setattr__(self, "generators", gens)
        orders = tuple(self.k // gcd(self.k, vec_gcd(row)) for row in gens)
        object.__setattr__(self, "row_orders", orders)
        object.__setattr__(self, "cardinality", self._count_codewords())
        prod = 1
        for o in orders:
            prod *= o
        if prod != self.cardinality:
            raise PreconditionViolation(
                "generator rows are not independent: "
                f"product of row orders {prod} != cardinality {self.cardinality}"
            )

    @property
    def n(self) -> int:
        return len(self.generators[0])

    def _count_codewords(self) -> int:
        n = self.n
        rows = [list(r) for r in self.generators]
        rows += [[self.k if i == j else 0 for j in range(n)] for i in range(n)]
        h = hnf(rows)
        d = 1
        for i, row in enumerate(h):
            d *= row[i]
        return self.k**n // d

    def matrix(self) -> np.ndarray:
        return np.array(self.generators, dtype=np.int64)

    def codewords(self) -> np.ndarray:
        """All codewords as an array (cardinality x n).  Small codes only."""
        if self.cardinality > 10**6:
            raise BudgetExceeded("codewords listed", self.cardinality, 10**6)
        grids = np.meshgrid(*[np.arange(o) for o in self.row_orders], indexing="ij")
        msgs = np.stack([g.ravel() for g in grids], axis=1)
        return (msgs @ self.matrix()) % self.k


def negacirculant(first_row) -> np.ndarray:
    row = [int(v) for v in first_row]
    m = len(row)
    out = np.zeros((m, m), dtype=np.int64)
    out[0] = row
    for i in range(1, m):
        out[i, 0] = -out[i - 1, m - 1]
        out[i, 1:] = out[i - 1, : m - 1]
    return out


def circulant(first_row) -> np.ndarray:
    row = [int(v) for v in first_row]
    m = len(row)
    out = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        out[i] = row[-i:] + row[:-i] if i else row
    return out


def build_four_negacirculant(k: int, r_a, r_b) -> ZkCode:
    """Length-4m code with generator (I | A B ; -B^T A^T), A, B negacirculant."""
    if len(r_a) != len(r_b):
        raise PreconditionViolation("r_A and r_B must have equal length")
    m = len(r_a)
    a = negacirculant(r_a)
    b = negacirculant(r_b)
    right = np.block([[a, b], [-b.T, a.T]])
    gen = np.hstack([np.eye(2 * m, dtype=np.int64), right]) % k
    return ZkCode(k, tuple(map(tuple, gen.tolist())))


def build_z4_two_block(a: int, b: int, top_right, bottom_right) -> ZkCode:
    """Z_4 code with generator (I_a  T ; O  W), W with even entries.

    T is a x (a+b), W is b x (a+b) and holds the (2I_b | 2D) block.
    """
    top = np.array(top_right, dtype=np.int64) % 4
    bot = np.array(bottom_right, dtype=np.int64) % 4
    if top.shape != (a, a + b) or bot.shape != (b, a + b):
        raise PreconditionViolation("block shapes must be a x (a+b) and b x (a+b)")
    if np.any(bot % 2 != 0):
        raise PreconditionViolation("bottom block must have even entries")
    n = 2 * a + b
    gen = np.zeros((a + b, n), dtype=np.int64)
    gen[:a, :a] = np.eye(a, dtype=np.int64)
    gen[:a, a:] = top
    gen[a:, a:] = bot
    return ZkCode(4, tuple(map(tuple, gen.tolist())))


def build_bordered_circulant(k: int, first_row) -> ZkCode:
    """Length 2(p+1) code with generator (I | bordered circulant)."""
    p = len(first_row)
    r = circulant(first_row)
    right = np.zeros((p + 1, p + 1), dtype=np.int64)
    right[0, 1:] = 1
    right[1:, 0] = 1
    right[1:, 1:] = r
    gen = np.hstack([np.eye(p + 1, dtype=np.int64), right]) % k
    return ZkCode(k, tuple(map(tuple, gen.tolist())))


def is_self_dual(code: ZkCode) -> bool:
    g = code.matrix()
    if np.any((g @ g.T) % code.k != 0):
        return False
    n = code.n
    if n % 2 != 0:
        return False
    return code.cardinality == code.k ** (n // 2)


def _pair_bound(g: np.ndarray, orders, k: int) -> int:
    """Minimum weight over codewords supported on at most two generators."""
    wt = weight_table(k)
    best = None
    m = len(orders)
    for i in range(m):
        for ci in range(1, orders[i]):
            w = int(wt[(ci * g[i]) % k].sum())
            best = w if best is None else min(best, w)
    for i in range(m):
        for j in range(i + 1, m):
            ci = np.arange(1, orders[i])[:, None, None]
            cj = np.arange(1, orders[j])[None, :, None]
            words = (ci * g[i][None, None, :] + cj * g[j][None, None, :]) % k
            w = int(wt[words].sum(axis=2).min())
            best = min(best, w)
    return best


def _pivot_columns(g: np.ndarray, orders, k: int) -> list[int | None]:
    """Per row: a column where only this row is nonzero, carrying k/order."""
    m, n = g.shape
    pivots: list[int | None] = [None] * m
    used: set[int] = set()
    for i in range(m):
        s = k // orders[i]
        for j in range(n):
            if j in used or g[i, j] != s:
                continue
            if np.count_nonzero(g[:, j]) == 1:
                pivots[i] = j
                used.add(j)
                break
    return pivots


def min_euclidean_weight(code: ZkCode, budget: int = DEFAULT_CODEWORD_BUDGET) -> int:
    """Exact minimum Euclidean weight by exhaustive pruned enumeration.

    The search walks the message space depth first, a digit at a time
    and in chunks of partial messages; a partial message is dropped once
    the weight already pinned down on the generators' pivot columns
    reaches the best complete codeword scored so far.  The
    pivot-column weight is a lower bound on any completion, so pruning
    never loses the true minimum.
    """
    if code.cardinality > budget:
        raise BudgetExceeded("codewords", code.cardinality, budget)
    k = code.k
    g = code.matrix()
    orders = code.row_orders
    m = len(orders)
    wt = weight_table(k)
    best = _pair_bound(g, orders, k)

    pivots = _pivot_columns(g, orders, k)
    # digits with a pivot first so the partial-weight prune bites early
    digit_order = sorted(range(m), key=lambda i: pivots[i] is None)
    # weight that each value of a digit pins down on its pivot column
    pinned = [
        wt[(k // orders[i]) * np.arange(orders[i]) % k]
        if pivots[i] is not None
        else np.zeros(orders[i], dtype=np.int64)
        for i in digit_order
    ]
    pivot_cols = {p for p in pivots if p is not None}
    rest_cols = [j for j in range(code.n) if j not in pivot_cols]
    g_rest = g[digit_order][:, rest_cols]
    # depth first over chunks of partial messages (digits in digit_order)
    # and their pinned weight; scored leaves tighten `best` at once
    stack = [(np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64))]
    while stack:
        msgs, fweight = stack.pop()
        if msgs.shape[0] > CODEWORD_CHUNK:
            stack.append((msgs[CODEWORD_CHUNK:], fweight[CODEWORD_CHUNK:]))
            msgs, fweight = msgs[:CODEWORD_CHUNK], fweight[:CODEWORD_CHUNK]
        d = msgs.shape[1]
        if d == m:
            tot = wt[(msgs @ g_rest) % k].sum(axis=1) + fweight
            tot = tot[msgs.any(axis=1)]
            if tot.size:
                best = min(best, int(tot.min()))
            continue
        neww = fweight[:, None] + pinned[d][None, :]
        rows, vals = np.nonzero(neww < best)
        child = np.empty((rows.size, d + 1), dtype=np.int64)
        child[:, :d] = msgs[rows]
        child[:, d] = vals
        stack.append((child, neww[rows, vals]))
    return best


def min_euclidean_weight_naive(code: ZkCode, cap: int = 10**6) -> int:
    """Unpruned reference enumeration; independent check for small codes."""
    if code.cardinality > cap:
        raise BudgetExceeded("codewords enumerated", code.cardinality, cap)
    words = code.codewords()
    wt = weight_table(code.k)
    weights = wt[words].sum(axis=1)
    nonzero = words.any(axis=1)
    return int(weights[nonzero].min())
