"""Unimodular lattices: Construction A, norms, theta series, shadows
and frame search.

A lattice is stored as an integer basis with a global scale s: the true
lattice is spanned by the rows divided by sqrt(s).  Construction A
lattices carry s = k so every vector has integer coordinates; shadow
machinery refines the scale to 4s.  All correctness-critical arithmetic
is exact.  A basis and a frame hold their rows as the read-only int64
array of `shortvec.int64_rows`, the one checked conversion: every entry
is an integer and every row has norm below 2^62, so no int64 product of
them wraps.  The constructor takes one exact determinant of the basis:
a zero one (dependent rows) is refused there, and nowhere else, and the
same determinant decides `is_unimodular()`.

A lattice owns its reduction (`reduced_basis`, one `block_reduce` of
its basis), its proven minimum (`min_norm`), its dual (`dual`) and its
walked ball, each made on the first call that needs it.  A Construction
A lattice is its code's own lift lattice (`codes.ZkCode.lift`), so a
code and `construction_a` of it share them.  The ball is kept as counts
per (class, norm) (`shortvec.enumerate_ball`), never as vectors, for the
largest bound walked so far; a smaller bound reads it, and a walk that
overruns its budget keeps nothing.

Membership (`Lattice.contains`, `contains_frame`) takes integer rows at
the lattice's own scale; any other entry is an error, on either path.
It is decided against the dual lattice when the lattice is unimodular,
as every lattice of the paper is: then L = L*, so v lies in L iff
B v = 0 (mod s), one integer product for a whole batch of rows, in int64
when every row passes `shortvec.int64_rows`.  Any other basis solves
x B = v exactly (`intmat.solve_rows`), which its nonzero determinant
makes possible, and asks for an integral x.

Theta prefixes count the vectors of each norm.  A coset of an integral
lattice L is a class of the ball of L* (`coset_theta`): the shadow's
three cosets and the theta of L0* share one walk of L0*.  A lattice
that is not unimodular walks its whole ball.  A unimodular lattice of
dimension n walks it only to norm J = n // 8:
its theta series is sum_{j <= J} a_j theta_3^(n-8j) Delta_8^j (Hecke;
Conway and Sloane, SPLAG ch. 7, Thm. 7), a form of which the leading
J + 1 coefficients fix the rest, so every count above J is read off the
series (`_unimodular_theta`).  The counts stay exact: the theorem holds
for every integral unimodular lattice, `is_unimodular()` is an exact
determinant of the basis, N_0..N_J come from the exact walk, and the a_j
and the series are Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt

import numpy as np

from .cliques import find_orthogonal_set
from .errors import BudgetExceeded, MembershipViolation, PreconditionViolation
from .intmat import det, hnf, solve_rows
from .shortvec import (
    DEFAULT_NODE_BUDGET,
    NORM_CAP,
    block_reduce,
    check_bound,
    check_integer,
    characters,
    enumerate_ball,
    enumerate_shell,
    int64_rows,
    integer_rows,
    shortest_norm,
)


@dataclass(eq=False)  # identity equality: == on ndarray fields has no single truth value
class Lattice:
    basis: np.ndarray  # n x n read-only int64 rows; true vectors are rows / sqrt(scale)
    scale: int

    def __post_init__(self):
        self.scale = check_integer(self.scale, "lattice scale")
        if self.scale < 1:
            raise PreconditionViolation(f"lattice scale {self.scale} is not a positive integer")
        # read-only: catalog.build hands one cached Lattice to every caller
        self.basis = int64_rows(self.basis, "basis")
        n = self.basis.shape[0]
        if self.basis.shape != (n, n):
            raise PreconditionViolation("basis must be square")
        d = det(self.basis.tolist())
        if not d:
            raise PreconditionViolation("basis rows are linearly dependent: no lattice basis")
        # the Gram determinant is det(B)^2 / s^n, never negative: it is +-1 iff det(B)^2 = s^n
        self._unimodular = self.is_integral() and d * d == self.scale**n
        self._reduced = None
        self._min = None  # proven minimum norm at the scale, set by min_norm
        self._dual = None
        self._ball = None  # (bound, counts, norms, keys): the largest ball walked

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
        """Integral with Gram determinant +-1, decided by the constructor.

        The constructor's one exact determinant of the basis (not of its
        larger-entried Gram matrix) both proves the rows independent and
        decides this.
        """
        return self._unimodular

    def is_even(self) -> bool:
        return self.is_integral() and not np.any(self.gram_true().diagonal() % 2)

    def reduced_basis(self) -> np.ndarray:
        """The `block_reduce`d basis, computed on the first call (read-only)."""
        if self._reduced is None:
            self._reduced = block_reduce(self.basis)
        return self._reduced

    def dual(self) -> Lattice:
        """The dual lattice L* at L's own scale s, built on the first call.

        Its basis is s G^-1 B (G = B B^T): row i pairs with b_j to
        s delta_ij.  One exact solve (`intmat.solve_rows`) gives it, and
        PreconditionViolation is raised unless every entry is an integer,
        that is unless L* has a basis at scale s.
        """
        if self._dual is None:
            s = self.scale
            # G is symmetric, so column j of s G^-1 B is the x with x G = s * column j of B
            rhs = [[s * x for x in col] for col in self.basis.T.tolist()]
            cols = solve_rows(self.gram_scaled().tolist(), rhs)
            if any(x.denominator != 1 for c in cols for x in c):
                raise PreconditionViolation(f"the dual lattice has no integer basis at scale {s}")
            self._dual = Lattice([[int(c[i]) for c in cols] for i in range(self.dim)], s)
        return self._dual

    def _tally(self, bound: int, budget: int):
        """The class tally (`shortvec.enumerate_ball`) of the vectors of scaled norm <= bound.

        One walk of `reduced_basis()` at the largest bound asked so far
        serves every smaller one, whatever its budget; a walk that
        overruns `budget` keeps nothing.
        """
        if self._ball is None or self._ball[0] < bound:
            self._ball = (bound, *enumerate_ball(self.reduced_basis(), bound, self.scale, budget))
        _, counts, norms, keys = self._ball
        inside = norms <= bound
        return counts[:, inside], norms[inside], keys

    def contains(self, rows) -> bool:
        """Whether a vector, or every row of a matrix, lies in the lattice.

        The rows are in scaled coordinates at the lattice's own scale s,
        and every entry must be an integer (`shortvec.integer_rows`).  A
        unimodular lattice equals its dual, so v is a member iff every
        <v, b_i> / s is an integer: one product of the rows with B^T,
        reduced mod s.  It runs in int64 when the rows pass `int64_rows`,
        as the basis rows do, so no partial sum can wrap; a longer row
        keeps it in Python ints.  Any other basis solves x B = v exactly
        (`intmat.solve_rows`), and v is a member iff x is integral.
        """
        # a list stays in Python ints: numpy would read an entry in [2^63, 2^64) as a float
        v = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
        v = v.reshape(1, -1) if v.ndim < 2 else v
        if v.ndim != 2 or v.shape[1] != self.dim:
            raise PreconditionViolation(
                f"vector of length {v.shape[-1]} for a lattice in dimension {self.dim}"
            )
        v = integer_rows(v, "vector")
        if not self.is_unimodular():
            x = solve_rows(self.basis.tolist(), v.tolist())
            return all(c.denominator == 1 for row in x for c in row)
        try:
            v = int64_rows(v, "vector")
        except PreconditionViolation:  # integers, one of norm >= 2^62: stay in Python ints
            v = v.astype(object)
        return not np.any(v @ self.basis.T % self.scale)


@dataclass(frozen=True, eq=False)  # identity equality, as for Lattice
class Frame:
    vectors: np.ndarray  # read-only int64 rows in scaled coordinates; any integer array
    scale: int
    norm_k: int

    def __post_init__(self):
        object.__setattr__(self, "scale", check_integer(self.scale, "frame scale"))
        object.__setattr__(self, "norm_k", check_integer(self.norm_k, "frame norm"))
        if self.scale < 1 or self.norm_k < 1:
            raise PreconditionViolation(
                f"frame scale {self.scale} and norm {self.norm_k} must be positive integers"
            )
        v = int64_rows(self.vectors, "frame")
        object.__setattr__(self, "vectors", v)
        # no row reaches NORM_CAP, and a larger target would overflow the eye
        target = self.norm_k * self.scale
        if target >= NORM_CAP or np.any(v @ v.T != target * np.eye(len(v), dtype=np.int64)):
            raise PreconditionViolation("frame Gram is not k*I")


@dataclass(frozen=True)
class ThetaPrefix:
    counts: dict  # Fraction norm -> count
    bound: Fraction

    def coefficient(self, norm) -> int:
        return self.counts.get(Fraction(norm), 0)

    def as_pairs(self) -> list[tuple[Fraction, int]]:
        return sorted((q, c) for q, c in self.counts.items() if c)


def construction_a(code) -> Lattice:
    """A_k(C) for a self-dual `codes.ZkCode`: the code's own lift lattice.

    `code.lift()` is C + k Z^n at scale k, and A_k(C) is unimodular
    exactly when C is self-dual (Conway and Sloane, SPLAG ch. 7): it is
    integral iff C is self-orthogonal, and det(B)^2 = (k^n / |C|)^2 is
    k^n iff |C|^2 = k^n.  So the one check is `is_unimodular()`, and every
    call hands out the same lattice, with its reduction and its proof.
    """
    lat = code.lift()
    if not lat.is_unimodular():
        raise PreconditionViolation("Construction A requires a self-dual code")
    return lat


def min_norm(lattice: Lattice, budget: int = DEFAULT_NODE_BUDGET):
    """Exact minimum norm: one shrinking walk on `reduced_basis()`, proved once.

    The lattice keeps the proof once its walk has finished, so a walk that
    overruns `budget` keeps nothing, and `budget` bounds only the first proof.
    """
    if lattice._min is None:
        lattice._min = shortest_norm(lattice.reduced_basis(), budget)
    return _norm_value(lattice._min, lattice.scale)


def _norm_value(q_scaled: int, scale: int):
    f = Fraction(q_scaled, scale)
    return int(f) if f.denominator == 1 else f


def theta_prefix(lattice: Lattice, max_norm, budget: int = DEFAULT_NODE_BUDGET) -> ThetaPrefix:
    """Exact vector counts for every norm <= max_norm.

    A unimodular lattice of dimension n walks its ball only to norm
    J = n // 8 and reads the counts above J off its theta series
    (`_unimodular_theta`): the series of an integral unimodular lattice is
    sum_{j <= J} a_j theta_3^(n - 8j) Delta_8^j (Hecke; Conway and Sloane,
    SPLAG ch. 7, Thm. 7), so the exact counts N_0..N_J fix every later
    one.  The lattice's own `is_unimodular()`, an exact determinant of the
    basis, picks this path; any other lattice counts its whole ball, every
    class of it.  Both paths give exact counts.  The walk and the series
    arithmetic are each held to `budget` and raise BudgetExceeded past it:
    no prefix is truncated.
    """
    bound = _scaled_bound(lattice, max_norm)
    top, fixed = bound // lattice.scale, lattice.dim // 8  # floor(max_norm), J
    derive = top > fixed and lattice.is_unimodular()
    if derive:
        bound = fixed * lattice.scale
    counts, norms, _ = lattice._tally(bound, budget)
    theta = _by_norm(counts.sum(axis=0), norms, lattice.scale)
    if derive:
        low = [theta.get(j, 0) for j in range(fixed + 1)]
        series = _unimodular_theta(lattice.dim, low, top, budget)
        theta.update((Fraction(m), c) for m, c in enumerate(series) if m > fixed and c)
    return ThetaPrefix(theta, Fraction(max_norm))


def coset_theta(
    lattice: Lattice, shift, max_norm, budget: int = DEFAULT_NODE_BUDGET
) -> ThetaPrefix:
    """Theta prefix of the coset shift + L: one class of the ball of L*.

    L must be integral, so L lies in L* = `lattice.dual()` and the classes
    of L*'s ball (`shortvec.characters`) are the cosets of L in L*; shift,
    in scaled coordinates, must lie in L* (shift . b = 0 mod s for every
    basis row b); and L* must have an integer basis at L's scale s.
    Each rule raises PreconditionViolation when broken.  A zero shift is
    `theta_prefix(L)`.  Any other coset reads its class off the tally of
    L*'s ball, which L*'s own `theta_prefix` and every other coset share.
    """
    bound = _scaled_bound(lattice, max_norm)
    if not lattice.is_integral():
        raise PreconditionViolation("a coset theta needs an integral lattice")
    v = np.asarray(shift)
    if v.shape != (lattice.dim,):
        raise PreconditionViolation(
            f"shift of shape {v.shape} for a lattice in dimension {lattice.dim}"
        )
    v = int64_rows(v[None], "shift")[0]
    if np.any(v @ lattice.basis.T % lattice.scale):
        raise PreconditionViolation(
            "shift is not in the dual lattice: some shift . b is not 0 mod the scale"
        )
    if not v.any():
        return theta_prefix(lattice, max_norm, budget)
    dual = lattice.dual()
    key = v @ characters(dual.reduced_basis(), dual.scale).T % dual.scale
    counts, norms, keys = dual._tally(bound, budget)
    row = np.flatnonzero((keys == key).all(axis=1))
    coset = counts[row[0]] if row.size else np.zeros_like(norms)
    return ThetaPrefix(_by_norm(coset, norms, lattice.scale), Fraction(max_norm))


def _scaled_bound(lattice: Lattice, max_norm) -> int:
    """max_norm * scale, checked before anyone pays for the reduction."""
    bound = Fraction(max_norm) * lattice.scale
    if bound.denominator != 1:
        raise PreconditionViolation("max_norm * scale must be an integer")
    return check_bound(int(bound))


def _by_norm(counts: np.ndarray, norms: np.ndarray, scale: int) -> dict:
    """The nonzero counts keyed by their true norm q / scale."""
    return {Fraction(q, scale): c for q, c in zip(norms.tolist(), counts.tolist()) if c}


def _unimodular_theta(n: int, low: list[int], top: int, budget: int) -> list[int]:
    """Coefficients to q^top of the dimension-n unimodular theta series
    whose first J + 1 = len(low) coefficients are `low`.

    With q^m counting norm m, theta_3 = sum_m q^(m^2), theta_4(q) =
    theta_3(-q), and Delta_8 = theta_2^4 theta_4^4 / 16 = q tau^4 theta_4^4
    for tau = sum_{m >= 0} q^(m(m+1)), since theta_2 = 2 q^(1/4) tau.  So
    f_j = theta_3^(n-8j) Delta_8^j is q^j times n sparse factors, and its
    leading term is q^j: the system sum_j a_j f_j[m] = low[m], m <= J, is
    unit lower triangular, and every a_j is an integer.  All arithmetic
    is in Python ints.  The (J + 1) n products of a series with a factor
    form at most (J + 1) n (isqrt(top) + 1) (top + 1) coefficient
    products.  That bound is charged to `budget` before any list is
    built, so a series the budget admits also has short lists.
    """
    fixed, roots = len(low) - 1, isqrt(top) + 1
    cost = (fixed + 1) * n * roots * (top + 1)
    if cost > budget:
        raise BudgetExceeded("theta series coefficient products", cost, budget)
    theta3 = [(m * m, 2 if m else 1) for m in range(roots)]
    theta4 = [(e, -c if e % 2 else c) for e, c in theta3]
    tau = [(m * (m + 1), 1) for m in range(roots)]

    def times(series: list[int], factor) -> list[int]:
        out = [0] * (top + 1)
        for i, x in enumerate(series):
            if x:
                for e, c in factor:
                    if i + e > top:
                        break
                    out[i + e] += x * c
        return out

    basis = []
    for j in range(fixed + 1):
        f = [int(m == j) for m in range(top + 1)]
        for factor in [theta3] * (n - 8 * j) + [tau, theta4] * (4 * j):
            f = times(f, factor)
        basis.append(f)
    a = []
    for j in range(fixed + 1):  # f_j[j] = 1 and f_i[j] = 0 for i > j
        a.append(low[j] - sum(ai * f[j] for ai, f in zip(a, basis)))
    return [sum(aj * f[m] for aj, f in zip(a, basis)) for m in range(top + 1)]


@dataclass(eq=False)
class ShadowParts:
    """Even sublattice, its dual, and the three nontrivial coset shifts.

    All vectors live in the refined scale `scale` (4s); l2 is the
    coset with L = L0 + l2, while l1 and l3 make up the shadow.
    """

    l0_refined: Lattice  # L0, written in the refined scale
    l0_dual: Lattice
    rep_l1: np.ndarray
    rep_l2: np.ndarray
    rep_l3: np.ndarray

    @property
    def scale(self) -> int:
        return self.l0_dual.scale


def even_sublattice_and_shadow(lattice: Lattice) -> ShadowParts:
    """L0 = even-norm sublattice (index 2), shadow cosets of L0* (order 4).

    L must be unimodular: then 2L lies in L0, so L0* lies in L/2 and the
    dual basis has integer coordinates at the refined scale 4s.
    """
    if not lattice.is_unimodular():
        raise PreconditionViolation("the shadow needs a unimodular lattice")
    gt = lattice.gram_true()
    parity = gt.diagonal() % 2
    if not parity.any():
        raise PreconditionViolation("lattice has no odd-norm basis vector (even lattice)")
    scale = 4 * lattice.scale
    l0_ref = Lattice(2 * np.array(_parity_kernel(lattice.basis, parity)), scale)
    l0_dual = l0_ref.dual()
    dual_basis = l0_dual.basis

    n = lattice.dim
    # coordinates of L0 in the dual basis equal the Gram matrix of L0
    h = hnf(l0_ref.gram_true().tolist())
    box = np.array(list(product(*(range(h[i][i]) for i in range(n)))), dtype=np.int64)
    reps = [v for v in box @ dual_basis if v.any()]
    assert len(reps) == 3, "L0*/L0 must have order 4"
    # v / sqrt(4s) lies in L iff v is even and v / 2, at scale s, is a member
    in_l = [not np.any(v % 2) and lattice.contains(v // 2) for v in reps]
    assert sum(in_l) == 1, "exactly one nontrivial coset lies in L"
    rep_l2 = reps[in_l.index(True)]
    shadow_reps = sorted((v for v, f in zip(reps, in_l) if not f), key=lambda v: v.tolist())
    return ShadowParts(l0_ref, l0_dual, shadow_reps[0], rep_l2, shadow_reps[1])


def _parity_kernel(b: np.ndarray, parity: np.ndarray) -> list[list[int]]:
    """HNF basis of the index-2 sublattice {x B : x . parity even}.

    With i0 the first odd basis vector, the rows b_j + parity_j b_i0 span
    it; row i0 itself becomes 2 b_i0.
    """
    i0 = int(np.argmax(parity))
    return hnf((b + np.outer(parity, b[i0])).tolist())


def contains_frame(lattice: Lattice, frame: Frame) -> bool:
    """All n frame vectors lie in the lattice (Frame has checked their Gram).

    The frame must have the basis's shape and be written at the lattice's
    scale.  Its n x n matrix is one batch for `Lattice.contains`: on a
    unimodular lattice one int64 product F B^T mod s, with no loop over the rows.
    """
    if frame.vectors.shape != lattice.basis.shape:
        raise PreconditionViolation(
            f"frame of shape {frame.vectors.shape} for a basis of shape {lattice.basis.shape}"
        )
    if frame.scale != lattice.scale:
        raise PreconditionViolation(
            f"frame at scale {frame.scale} for a lattice at scale {lattice.scale}"
        )
    return lattice.contains(frame.vectors)


def norm_shell(
    lattice: Lattice, k: int, budget: int = DEFAULT_NODE_BUDGET
) -> np.ndarray:
    """Sorted representatives of the +-pairs of norm-k vectors (scaled).

    One exhaustive enumeration; the representative of a pair is the one
    whose first nonzero coordinate is positive.  Every norm-k vector of
    the lattice is one of these rows or its negative.
    """
    bound = check_bound(k * lattice.scale)  # before paying for the reduction
    # one row per +-pair comes back; flip it to the representative
    shell = enumerate_shell(lattice.reduced_basis(), bound, budget=budget)
    lead = shell[np.arange(shell.shape[0]), np.argmax(shell != 0, axis=1)]
    shell = shell * np.sign(lead)[:, None]
    return shell[np.lexsort(shell.T[::-1])]


def frame_in_shell(lattice: Lattice, shell: np.ndarray, k: int) -> Frame | None:
    """A k-frame among the rows of `norm_shell(lattice, k)`, else None.

    None is exhaustive over the shell; an overrun of the clique search's
    node budget (`cliques.CLIQUE_BUDGET`) raises.
    """
    idx = find_orthogonal_set(shell, lattice.dim)
    if idx is None:
        return None
    frame = Frame(shell[idx], lattice.scale, k)
    if not contains_frame(lattice, frame):
        raise MembershipViolation("frame vectors failed lattice membership")
    return frame


def check_frame_norm(k: int) -> None:
    """Raise PreconditionViolation unless k is a positive norm bound (`check_bound`)."""
    if check_bound(k) == 0:
        raise PreconditionViolation("frame norm 0 is not a positive integer")


def find_frame(lattice: Lattice, k: int, budget: int = DEFAULT_NODE_BUDGET) -> Frame | None:
    """Search for a k-frame; None is exhaustive, budget overrun raises."""
    check_frame_norm(k)
    return frame_in_shell(lattice, norm_shell(lattice, k, budget=budget), k)
