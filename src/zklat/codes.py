"""Codes over Z_k: construction, self-duality, Euclidean weights.

A code is given by generator rows of integers, reduced to
{0, ..., k-1}; any rows will do, dependent ones included.  The one
thing the code derives from them is the HNF basis of its lift
C + k Z^n, made on construction: it gives the cardinality (k^n over
the product of the pivots).  `ZkCode.lift()` turns the lift into one
`Lattice` at scale k, on its first call, over the centred HNF
(`_centred`), whose short rows k e_j LLL need not swap up one by one.
That lattice is the only owner of the lift's reduction and of its
proven minimum: `lattice.construction_a` hands it out for a self-dual
code, and `min_euclidean_weight` walks its reduced basis, or reads its
minimum when `lattice.min_norm` already proved one below k^2.  The one
self-duality rule, `is_self_dual`, is that the lift is unimodular (SPLAG
ch. 7); Type I means the lift is also odd, Type II even.  The minimum
Euclidean weight d_E is the shortest vector of the lift outside k Z^n.
The paper's generator shapes are written once, here: `systematic`
(I | M), `four_negacirculant` and `bordered`; `skew` builds its seeds
and codes from the same three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import PreconditionViolation
from .intmat import hnf
from .lattice import Lattice
from .shortvec import DEFAULT_NODE_BUDGET, check_integer, shortest_norm


def euclidean_weight(x, k: int) -> int:
    """Sum of min(x_i, k - x_i)^2 over the coordinates, entries mod k."""
    total = 0
    for v in x:
        r = int(v) % k
        a = min(r, k - r)
        total += a * a
    return total


@dataclass(frozen=True)
class ZkCode:
    """A code over Z_k; its lift C + k Z^n is one `Lattice`, built by `lift()`.

    The lift lattice owns the lift's reduction and its proven minimum,
    as any lattice owns its own: the code caches only the lattice.
    """

    k: int
    generators: tuple[tuple[int, ...], ...]
    cardinality: int = field(init=False)
    _lift: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _lattice: Lattice | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "k", check_integer(self.k, "modulus"))
        if self.k < 2:
            raise PreconditionViolation("modulus must be >= 2")
        gens = tuple(
            tuple(check_integer(v, "generator entry") % self.k for v in row)
            for row in self.generators
        )
        if not gens:
            raise PreconditionViolation("a code needs at least one generator row")
        if len({len(row) for row in gens}) != 1 or not gens[0]:
            raise PreconditionViolation("generator rows must share one nonzero length")
        object.__setattr__(self, "generators", gens)
        n, k = len(gens[0]), self.k
        lift = hnf([list(r) for r in gens] + [[k * (i == j) for j in range(n)] for i in range(n)])
        object.__setattr__(self, "_lift", tuple(map(tuple, lift)))
        # the lift's index k^n / |C| in Z^n is the product of its HNF pivots
        index = prod(row[i] for i, row in enumerate(lift))
        object.__setattr__(self, "cardinality", k**n // index)

    @property
    def n(self) -> int:
        return len(self.generators[0])

    def lift(self) -> Lattice:
        """The lift C + k Z^n as a `Lattice` at scale k, built on the first call.

        Its basis is the centred HNF (`_centred`), not the HNF itself: the
        HNF (I | A ; 0 | k I) keeps A in [0, k), and LLL would bubble each
        short row k e_j up past the long rows one swap at a time.  The
        basis is upper triangular with the HNF's pivots.  A lift row of
        norm >= 2^62 (k near 2^31 or above) is rejected by `Lattice`.
        """
        if self._lattice is None:
            object.__setattr__(self, "_lattice", Lattice(_centred(self._lift), self.k))
        return self._lattice


def _centred(h) -> list[list[int]]:
    """The HNF h with each entry above a pivot p moved into [-p/2, p/2).

    For each pivot row j in increasing order, every row i < j loses
    round(h[i][c] / p) times row j, c and p the column and value of its
    pivot.  Row j is zero left of c, so a later step never moves a column
    already centred.  Exact, in Python ints; the rows span the same lattice.
    """
    rows = [list(r) for r in h]
    for j, row in enumerate(rows):
        c = next(t for t, a in enumerate(row) if a)
        p = row[c]
        for i in range(j):
            q = (2 * rows[i][c] + p) // (2 * p)  # rows[i][c] - q p lies in [-p/2, p/2)
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], row)]
    return rows


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


def systematic(k: int, right) -> ZkCode:
    """The code over Z_k with generator (I | right); ZkCode reduces it mod k."""
    return ZkCode(k, np.hstack([np.eye(len(right), dtype=np.int64), right]))


def four_negacirculant(r_a, r_b) -> np.ndarray:
    """(A B ; -B^T A^T) with A, B the negacirculant matrices of r_a, r_b."""
    if len(r_a) != len(r_b):
        raise PreconditionViolation("r_A and r_B must have equal length")
    a = negacirculant(r_a)
    b = negacirculant(r_b)
    return np.block([[a, b], [-b.T, a.T]])


def bordered(inner, left: int) -> np.ndarray:
    """inner under a row of ones, with a column of `left` to its left (corner 0)."""
    n = len(inner)
    out = np.zeros((n + 1, n + 1), dtype=np.int64)
    out[0, 1:] = 1
    out[1:, 0] = left
    out[1:, 1:] = inner
    return out


def build_four_negacirculant(k: int, r_a, r_b) -> ZkCode:
    """Length-4m code with generator (I | A B ; -B^T A^T), A, B negacirculant."""
    return systematic(k, four_negacirculant(r_a, r_b))


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
    return ZkCode(4, gen)


def is_self_dual(code: ZkCode) -> bool:
    """Whether the lift is unimodular, as `construction_a` asks; past 2^62 the cap error."""
    return code.lift().is_unimodular()


def min_euclidean_weight(code: ZkCode, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact minimum Euclidean weight: the shortest lift vector outside k Z^n.

    The coset c + k Z^n of a codeword c has shortest squared length
    euclidean_weight(c), so d_E is the shortest vector of the lift
    C + k Z^n whose entries are not all divisible by k.  A minimum that
    `lattice.min_norm` already proved on the lift lattice (`code.lift()`)
    below k^2 is d_E itself, since no nonzero vector of k Z^n is that
    short, and is returned without a walk; `budget` then bounds nothing.
    Otherwise one shrinking walk (`shortest_norm`) on the lift's reduced
    basis finds d_E; `budget` is its node budget.
    """
    if code.cardinality == 1:
        raise PreconditionViolation("the zero code has no nonzero codeword, so no d_E")
    k, lift = code.k, code.lift()
    low = lift._min
    if low is not None and low < k * k:
        return low
    return shortest_norm(lift.reduced_basis(), budget, keep=lambda v: (v % k).any(axis=1))
