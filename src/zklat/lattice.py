"""Unimodular lattices: Construction A, norms, theta series, shadows,
neighbors, and frame search.

A lattice is stored as an integer basis with a global scale s: the true
lattice is spanned by the rows divided by sqrt(s).  Construction A
lattices carry s = k so every vector has integer coordinates; shadow
machinery refines the scale to 4s (or 16s) as needed.  All
correctness-critical arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import ZkCode, is_self_dual
from .cliques import find_orthogonal_set
from .errors import (
    BadDimension,
    MembershipViolation,
    NotOdd,
    NotSelfDual,
    PreconditionViolation,
)
from .intmat import det, hnf, inv_fraction, solve_fraction
from .shortvec import block_reduce, enumerate_ball, first_nonzero_leq

DEFAULT_NODE_BUDGET = 2_000_000_000


@dataclass
class Lattice:
    basis: np.ndarray  # n x n int64 rows; true vectors are rows / sqrt(scale)
    scale: int

    def __post_init__(self):
        self.basis = np.array(self.basis, dtype=np.int64)
        n = self.basis.shape[0]
        if self.basis.shape != (n, n):
            raise PreconditionViolation("basis must be square")
        # catalog.build hands one cached Lattice to every caller
        self.basis.flags.writeable = False
        self._reduced = None

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def gram_scaled(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def gram_true(self) -> np.ndarray:
        g = self.gram_scaled()
        if np.any(g % self.scale != 0):
            raise PreconditionViolation("Gram matrix is not integral")
        return g // self.scale

    def is_integral(self) -> bool:
        return not np.any(self.gram_scaled() % self.scale != 0)

    def is_unimodular(self) -> bool:
        if not self.is_integral():
            return False
        return abs(det(self.gram_true().tolist())) == 1

    def is_even(self) -> bool:
        return self.is_integral() and not np.any(self.gram_true().diagonal() % 2)

    def reduced_basis(self) -> np.ndarray:
        if self._reduced is None:
            b = block_reduce(self.basis)
            b.flags.writeable = False
            self._reduced = b
        return self._reduced

    def contains(self, coords, scale: int | None = None) -> bool:
        """Membership of a vector given in scaled coordinates."""
        v = _rescale_vector(coords, self.scale if scale is None else scale, self.scale)
        if v is None:
            return False
        # fast path: guess integer coordinates with a float solve, then
        # verify the guess exactly; fall back to an exact solve on mismatch
        try:
            guess = np.linalg.solve(
                self.basis.T.astype(np.float64), np.array(v, dtype=np.float64)
            )
            gi = np.rint(guess).astype(np.int64)
            if np.all(np.abs(guess - gi) < 0.25) and np.array_equal(
                gi @ self.basis, np.array(v, dtype=np.int64)
            ):
                return True
        except np.linalg.LinAlgError:
            pass
        sol = solve_fraction(self.basis.tolist(), list(v))
        return sol is not None and all(x.denominator == 1 for x in sol)


@dataclass(frozen=True)
class Frame:
    vectors: tuple[tuple[int, ...], ...]  # scaled coordinates
    scale: int
    norm_k: int

    def __post_init__(self):
        v = self.np_vectors()
        gram = v @ v.T
        n = v.shape[0]
        if np.any(gram != self.norm_k * self.scale * np.eye(n, dtype=np.int64)):
            raise PreconditionViolation("frame Gram is not k*I")

    def np_vectors(self) -> np.ndarray:
        return np.array(self.vectors, dtype=np.int64)


@dataclass(frozen=True)
class ThetaPrefix:
    counts: dict  # Fraction norm -> count
    bound: Fraction

    def coefficient(self, norm) -> int:
        return self.counts.get(Fraction(norm), 0)

    def as_pairs(self) -> list[tuple[Fraction, int]]:
        return sorted((q, c) for q, c in self.counts.items() if c)


def _rescale_vector(coords, from_scale: int, to_scale: int):
    """Convert scaled coordinates between scales; None if impossible."""
    if from_scale == to_scale:
        return [int(x) for x in coords]
    if to_scale % from_scale == 0:
        r2 = to_scale // from_scale
        r = int(round(r2**0.5))
        if r * r != r2:
            return None
        return [int(x) * r for x in coords]
    if from_scale % to_scale == 0:
        r2 = from_scale // to_scale
        r = int(round(r2**0.5))
        if r * r != r2:
            return None
        if any(int(x) % r for x in coords):
            return None
        return [int(x) // r for x in coords]
    return None


def construction_a(code: ZkCode) -> Lattice:
    """A_k(C): lift of the code plus k Z^n, scale k."""
    if not is_self_dual(code):
        raise NotSelfDual("Construction A requires a self-dual code")
    k, n = code.k, code.n
    rows = [list(r) for r in code.generators]
    rows += [[k if i == j else 0 for j in range(n)] for i in range(n)]
    basis = hnf(rows)
    lat = Lattice(np.array(basis, dtype=np.int64), k)
    if not lat.is_unimodular():
        raise NotSelfDual("Construction A output failed the unimodularity check")
    return lat


def min_norm(lattice: Lattice, budget: int = DEFAULT_NODE_BUDGET):
    """Exact minimum norm (block-reduced basis + exhaustive enumeration).

    The upper bound from the shortest reduced-basis row is tightened by
    early-exit probes; the final probe at best-1 finds nothing, which is
    an exhaustive proof of minimality.
    """
    b = lattice.reduced_basis()
    best = int(min(np.einsum("ij,ij->i", b, b)))
    while best > 1:
        q = first_nonzero_leq(b, best - 1, budget=budget)
        if q is None:
            break
        best = q
    return _norm_value(best, lattice.scale)


def _norm_value(q_scaled: int, scale: int):
    f = Fraction(q_scaled, scale)
    return int(f) if f.denominator == 1 else f


def theta_prefix(lattice: Lattice, max_norm, budget: int = DEFAULT_NODE_BUDGET) -> ThetaPrefix:
    """Exact vector counts for every norm <= max_norm."""
    bound = Fraction(max_norm) * lattice.scale
    if bound.denominator != 1:
        raise PreconditionViolation("max_norm * scale must be an integer")
    hist, _ = enumerate_ball(lattice.reduced_basis(), int(bound), budget=budget)
    counts = {
        Fraction(q, lattice.scale): int(c) for q, c in enumerate(hist) if c or q == 0
    }
    return ThetaPrefix(counts, Fraction(max_norm))


def coset_theta(
    lattice: Lattice, shift, max_norm, budget: int = DEFAULT_NODE_BUDGET
) -> ThetaPrefix:
    """Theta prefix of the coset shift + lattice (shift in scaled coords)."""
    bound = Fraction(max_norm) * lattice.scale
    if bound.denominator != 1:
        raise PreconditionViolation("max_norm * scale must be an integer")
    b = lattice.reduced_basis()
    shift = np.asarray(shift, dtype=np.int64)
    center = solve_fraction(b.tolist(), list(shift))
    if center is None:
        raise PreconditionViolation("shift not in the lattice's span")
    hist, _ = enumerate_ball(
        b,
        int(bound),
        shift=shift,
        center=np.array([float(x) for x in center]),
        budget=budget,
    )
    counts = {Fraction(q, lattice.scale): int(c) for q, c in enumerate(hist) if c}
    return ThetaPrefix(counts, Fraction(max_norm))


@dataclass
class ShadowParts:
    """Even sublattice, its dual, and the three nontrivial coset shifts.

    All vectors live in the refined scale `scale` (4s or 16s); l2 is the
    coset with L = L0 + l2, while l1 and l3 make up the shadow.
    """

    l0: Lattice
    l0_refined: Lattice  # same lattice, written in the refined scale
    l0_dual: Lattice
    rep_l1: np.ndarray
    rep_l2: np.ndarray
    rep_l3: np.ndarray

    @property
    def scale(self) -> int:
        return self.l0_dual.scale


def even_sublattice_and_shadow(lattice: Lattice) -> ShadowParts:
    """L0 = even-norm sublattice (index 2), shadow cosets of L0* (order 4)."""
    gt = lattice.gram_true()
    parity = gt.diagonal() % 2
    if not parity.any():
        raise NotOdd("lattice has no odd-norm basis vector (even lattice)")
    i0 = int(np.argmax(parity))
    b = lattice.basis
    rows = []
    for j in range(lattice.dim):
        if j == i0:
            continue
        rows.append(b[j] + (b[i0] if parity[j] else 0))
    rows.append(2 * b[i0])
    l0 = Lattice(np.array(hnf([list(map(int, r)) for r in rows]), dtype=np.int64), lattice.scale)

    g0 = l0.gram_true()
    inv = inv_fraction(g0.tolist())
    dual_frac = [
        [sum(inv[i][t] * int(l0.basis[t, j]) for t in range(lattice.dim)) for j in range(lattice.dim)]
        for i in range(lattice.dim)
    ]
    for mult in (2, 4):
        scaled = [[x * mult for x in row] for row in dual_frac]
        if all(x.denominator == 1 for row in scaled for x in row):
            refine = mult
            dual_basis = np.array([[int(x) for x in row] for row in scaled], dtype=np.int64)
            break
    else:
        raise MembershipViolation("dual basis of L0 did not clear denominators")
    scale = lattice.scale * refine * refine
    l0_dual = Lattice(dual_basis, scale)
    l0_ref = Lattice(l0.basis * refine, scale)

    # coordinates of L0 in the dual basis equal the Gram matrix of L0
    h = hnf(g0.tolist())
    diag = [h[i][i] for i in range(lattice.dim)]
    reps = []
    for r in _box_reps(diag):
        v = np.array(r, dtype=np.int64) @ dual_basis
        if v.any():
            reps.append(v)
    assert len(reps) == 3, "L0*/L0 must have order 4"
    in_l = [lattice.contains(v, scale) for v in reps]
    assert sum(in_l) == 1, "exactly one nontrivial coset lies in L"
    rep_l2 = reps[in_l.index(True)]
    shadow_reps = sorted(
        (v for v, f in zip(reps, in_l) if not f), key=lambda v: v.tolist()
    )
    return ShadowParts(l0, l0_ref, l0_dual, shadow_reps[0], rep_l2, shadow_reps[1])


def _box_reps(diag):
    out = [[]]
    for d in diag:
        out = [r + [v] for r in out for v in range(d)]
    return out


def even_neighbors(lattice: Lattice) -> tuple[Lattice, Lattice]:
    """The two even unimodular neighbors of an odd unimodular lattice, 8 | n."""
    if lattice.dim % 8 != 0:
        raise BadDimension("even unimodular neighbors need dimension 0 mod 8")
    parts = even_sublattice_and_shadow(lattice)
    out = []
    for rep in (parts.rep_l1, parts.rep_l3):
        rows = parts.l0_refined.basis.tolist() + [rep.tolist()]
        nb = simplify_scale(Lattice(np.array(hnf(rows), dtype=np.int64), parts.scale))
        if not (nb.is_unimodular() and nb.is_even()):
            raise MembershipViolation("neighbor failed the even/unimodular check")
        out.append(nb)
    return out[0], out[1]


def simplify_scale(lattice: Lattice) -> Lattice:
    b, s = lattice.basis, lattice.scale
    while s % 4 == 0 and not np.any(b % 2):
        b, s = b // 2, s // 4
    return Lattice(b, s)


def two_neighbor_at_vector(lattice: Lattice, x, y) -> Lattice:
    """Odd unimodular neighbor glued at x/2 + y, for even unimodular input.

    x must be a lattice vector of norm 8 with x/2 outside the lattice,
    and y a lattice vector with (x, y) odd.  Scaled coordinates.
    """
    if not (lattice.is_unimodular() and lattice.is_even()):
        raise PreconditionViolation("input must be even unimodular")
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    s = lattice.scale
    if not lattice.contains(x):
        raise PreconditionViolation("x is not a lattice vector")
    if int(x @ x) != 8 * s:
        raise PreconditionViolation("x must have norm 8")
    if all(v % 2 == 0 for v in x) and lattice.contains(x // 2):
        raise PreconditionViolation("x/2 lies in the lattice (degenerate)")
    if not lattice.contains(y):
        raise PreconditionViolation("y is not a lattice vector")
    if int(x @ y) % (2 * s) == 0 or int(x @ y) % s != 0:
        raise PreconditionViolation("(x, y) must be an odd integer")

    b = lattice.basis
    parity = (b @ x // s) % 2
    idx = np.nonzero(parity)[0]
    if len(idx) == 0:
        raise PreconditionViolation("(x, v) is even for every v (no odd pairing)")
    i0 = int(idx[0])
    rows = []
    for j in range(lattice.dim):
        if j == i0:
            continue
        rows.append(b[j] + (b[i0] if parity[j] else 0))
    rows.append(2 * b[i0])
    plus = np.array(hnf([list(map(int, r)) for r in rows]), dtype=np.int64)
    glue = x + 2 * y  # coordinates of x/2 + y in scale 4s
    stacked = (2 * plus).tolist() + [glue.tolist()]
    out = simplify_scale(Lattice(np.array(hnf(stacked), dtype=np.int64), 4 * s))
    if not out.is_unimodular() or out.is_even():
        raise MembershipViolation("two-neighbor output is not odd unimodular")
    return out


def contains_frame(lattice: Lattice, frame: Frame) -> bool:
    v = _rescale_matrix(frame.np_vectors(), frame.scale, lattice.scale)
    if v is None:
        return False
    gram = v @ v.T
    n = lattice.dim
    if v.shape != (n, n):
        return False
    if np.any(gram != frame.norm_k * lattice.scale * np.eye(n, dtype=np.int64)):
        return False
    return all(lattice.contains(row) for row in v)


def _rescale_matrix(mat: np.ndarray, from_scale: int, to_scale: int):
    rows = []
    for r in mat:
        v = _rescale_vector(r, from_scale, to_scale)
        if v is None:
            return None
        rows.append(v)
    return np.array(rows, dtype=np.int64)


def norm_shell(
    lattice: Lattice, k: int, budget: int = DEFAULT_NODE_BUDGET
) -> np.ndarray:
    """Sorted representatives of the +-pairs of norm-k vectors (scaled).

    One exhaustive enumeration; the representative of a pair is the one
    whose first nonzero coordinate is positive.  Every norm-k vector of
    the lattice is one of these rows or its negative.
    """
    bound = k * lattice.scale
    _, vecs = enumerate_ball(lattice.reduced_basis(), bound, collect=True, budget=budget)
    # one row per +-pair comes back; flip it to the representative
    shell = vecs[vecs[:, -1] == bound][:, :-1]
    lead = shell[np.arange(shell.shape[0]), np.argmax(shell != 0, axis=1)]
    shell = shell * np.sign(lead)[:, None]
    return shell[np.lexsort(shell.T[::-1])]


def frame_in_shell(
    lattice: Lattice, shell: np.ndarray, k: int, clique_budget: int = 50_000_000
) -> Frame | None:
    """A k-frame among the rows of `norm_shell(lattice, k)`, else None.

    None is exhaustive over the shell; a budget overrun raises.
    """
    idx = find_orthogonal_set(shell, lattice.dim, budget=clique_budget)
    if idx is None:
        return None
    frame = Frame(tuple(map(tuple, shell[idx].tolist())), lattice.scale, k)
    if not contains_frame(lattice, frame):
        raise MembershipViolation("frame vectors failed lattice membership")
    return frame


def find_frame(
    lattice: Lattice,
    k: int,
    budget: int = DEFAULT_NODE_BUDGET,
    clique_budget: int = 50_000_000,
) -> Frame | None:
    """Search for a k-frame; None is exhaustive, budget overrun raises."""
    shell = norm_shell(lattice, k, budget=budget)
    return frame_in_shell(lattice, shell, k, clique_budget=clique_budget)
