"""The paper's frame construction: skew matrices M (M^T = -M, MM^T = mI),
the quadruples kp = a^2 + m b^2 + c^2 + m d^2, the frames they generate,
quaternion scaling, and the star condition on the primes of k.

`REPRESENTATION_CASES` is the one table of the cases (a)-(h): each row's
(k, m, ell, excluded primes).  Catalog seeds and lattices name a row
rather than repeat it.  The seeds live over the plain integers;
reduction mod k happens only when the associated code is built, because
MM^T = mI is an integer identity that reduction would destroy.  A seed
holds its matrix as the read-only int64 array of `shortvec.int64_rows`,
so every row has norm below 2^62 and MM^T is exact in int64.  Seeds and
their codes use the builders of `codes` (`four_negacirculant`,
`bordered`, `systematic`).  Every search is a bounded exhaustive scan,
so a "none" answer is a proof within the stated bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .codes import ZkCode, bordered, circulant, systematic
from .errors import PreconditionViolation
from .lattice import Frame
from .shortvec import NORM_CAP, check_bound, check_integer, int64_rows


# below _MR_LIMIT, Miller-Rabin to the first 13 prime bases decides
# primality exactly (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin over _MR_BASES, exact for p < _MR_LIMIT."""
    if p >= _MR_LIMIT:
        raise PreconditionViolation("the prime test supports p < 3.3 * 10^24")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False  # a witnesses that p is composite
    return True


def factorize(k: int) -> dict[int, int]:
    """The prime factorization {p: e} of k, by trial division.

    It stops as soon as the cofactor left is prime, so a prime times
    small factors costs a few Miller-Rabin tests, not a scan to its root.
    """
    if k >= 1 << 63:
        raise PreconditionViolation("factorization by trial division supports k < 2^63")
    out: dict[int, int] = {}
    d, prime = 2, is_prime(k)
    while not prime and d * d <= k:
        if k % d == 0:
            while k % d == 0:
                out[d] = out.get(d, 0) + 1
                k //= d
            prime = is_prime(k)
        d += 1 if d == 2 else 2
    if k > 1:
        out[k] = out.get(k, 0) + 1
    return out


@dataclass(frozen=True)
class RepresentationCase:
    label: str
    k: int
    m: int
    ell: int
    excluded_primes: frozenset[int]


REPRESENTATION_CASES = {
    c.label: c
    for c in [
        RepresentationCase("a", 3, 25, 1, frozenset({2, 5, 7, 13, 23})),
        RepresentationCase("b", 4, 7, 2, frozenset({2, 7})),
        RepresentationCase("c", 5, 49, 0, frozenset({2, 3, 7, 11, 19, 29})),
        RepresentationCase("d", 5, 25, 2, frozenset({2, 3, 17})),
        RepresentationCase("e", 4, 15, 2, frozenset({2, 3})),
        RepresentationCase("f", 6, 49, 2, frozenset({2, 3, 5, 7})),
        RepresentationCase("g", 4, 19, 0, frozenset({2, 3, 13, 19})),
        RepresentationCase("h", 5, 39, 0, frozenset({2, 3, 7, 17})),
    ]
}


@dataclass(frozen=True, eq=False)  # identity equality, as for Frame
class SkewSeed:
    matrix: np.ndarray  # read-only int64; any integer array
    k: int
    m: int
    ell: int

    def __post_init__(self):
        for name in ("k", "m", "ell"):
            object.__setattr__(self, name, check_integer(getattr(self, name), f"seed {name}"))
        mat = int64_rows(self.matrix, "seed")
        object.__setattr__(self, "matrix", mat)
        if mat.shape != mat.T.shape or np.any(mat.T != -mat):
            raise PreconditionViolation("M^T != -M")
        eye = np.eye(len(mat), dtype=np.int64)
        # MM^T's diagonal holds row norms below NORM_CAP, so a larger m never matches
        if not 0 <= self.m < NORM_CAP or np.any(mat @ mat.T != self.m * eye):
            raise PreconditionViolation("MM^T != mI")
        if not 0 <= self.ell <= self.k - 1:
            raise PreconditionViolation("ell must satisfy 0 <= ell <= k-1")
        if (self.m + self.ell**2 + 1) % self.k != 0:
            raise PreconditionViolation("m + ell^2 != -1 (mod k)")

    @property
    def order(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class FrameQuadruple:
    a: int
    b: int
    c: int
    d: int

    def check(self, k: int, ell: int) -> None:
        if (self.b - self.c + ell * self.d) % k != 0:
            raise PreconditionViolation("b != c - ell*d (mod k)")
        if (self.d - self.a - ell * self.b) % k != 0:
            raise PreconditionViolation("d != a + ell*b (mod k)")


def build_paley_skew(p: int) -> np.ndarray:
    """Bordered quadratic-residue matrix P_{p+1} with P P^T = p I."""
    if not is_prime(p) or p % 4 != 3:
        raise PreconditionViolation("p must be a prime congruent to 3 mod 4")
    squares = {x * x % p for x in range(1, p)}
    # Q_ij depends only on (j - i) mod p, so Q is the circulant of one row
    return bordered(circulant([0] + [-1 if j in squares else 1 for j in range(1, p)]), -1)


def build_code_from_skew(seed: SkewSeed) -> ZkCode:
    """Self-dual code of length 2n with generator (I_n | M + ell*I_n)."""
    right = seed.matrix.astype(object)  # Python ints: ell may pass int64
    right[np.diag_indices(seed.order)] += seed.ell
    return systematic(seed.k, right)


def frame_constant(seed: SkewSeed, q: FrameQuadruple) -> int:
    q.check(seed.k, seed.ell)
    total = q.a**2 + seed.m * q.b**2 + q.c**2 + seed.m * q.d**2
    assert total % seed.k == 0
    return total // seed.k


def build_frame(seed: SkewSeed, q: FrameQuadruple) -> Frame:
    """The N-frame F(M) of a seed and a quadruple, N = frame_constant.

    Its 2n rows are in scaled (multiplied by sqrt(k)) coordinates at scale
    k, each of norm N k, which must lie below 2^62: then no entry below
    can wrap.  The Frame constructor checks F F^T = N k I exactly.
    """
    norm_k = frame_constant(seed, q)
    check_bound(norm_k * seed.k)
    eye, mat = np.eye(seed.order, dtype=np.int64), seed.matrix
    rows = np.block([
        [q.a * eye + q.b * mat, q.c * eye + q.d * mat],
        [-q.c * eye + q.d * mat, q.a * eye - q.b * mat],
    ])
    return Frame(rows, seed.k, norm_k)


def _signed(limit: int, residue: int = 0, modulus: int = 1):
    """The v with |v| <= limit and v = residue (mod modulus), lazily, by |v|,
    positive first: 0, 1, -1, 2, -2, ... for the defaults."""
    pos = residue % modulus
    neg = modulus - pos  # the least |v| of a negative v in the class
    while pos <= limit or neg <= limit:
        if pos <= neg:
            yield pos
            pos += modulus
        else:
            yield -neg
            neg += modulus


def search_quadruple(k: int, m: int, ell: int, target: int) -> FrameQuadruple | None:
    """First (a,b,c,d) with a^2+m b^2+c^2+m d^2 = k*target and
    b = c - ell*d, d = a + ell*b (mod k), scanning each coordinate in
    magnitude-ascending order (positive before negative).

    Exhaustive over |a|,|c| <= sqrt(k*target), |b|,|d| <= sqrt(k*target/m);
    a returned None is therefore a proof of nonexistence.  Every scan is
    lazy, so memory stays flat at any target; time does not.
    """
    kn = k * target
    for a in _signed(isqrt(kn)):
        ra = kn - a * a
        for b in _signed(isqrt(ra // m)):
            rb = ra - m * b * b
            # the congruences fix d and then c modulo k given (a, b)
            d0 = (a + ell * b) % k
            for c in _signed(isqrt(rb), b + ell * d0, k):
                rc = rb - c * c
                if rc % m:
                    continue
                d_abs = isqrt(rc // m)
                if d_abs * d_abs * m != rc:
                    continue
                for d in (d_abs, -d_abs) if d_abs else (0,):
                    if (d - d0) % k == 0:
                        return FrameQuadruple(a, b, c, d)
    return None


def representation_search(case: RepresentationCase, p: int) -> FrameQuadruple | None:
    if not is_prime(p):
        raise PreconditionViolation("p must be prime")
    return search_quadruple(case.k, case.m, case.ell, p)


def four_square_decomposition(m: int) -> tuple[int, int, int, int]:
    """a^2+b^2+c^2+d^2 = m with a >= b >= c >= d >= 0, a maximal."""
    if m < 0:
        raise PreconditionViolation("m must be non-negative")
    if m and m % 8 == 0:
        # squares are 0, 1, 4 mod 8, so every representation of m is twice one of m/4
        return tuple(2 * x for x in four_square_decomposition(m // 4))
    for a in range(isqrt(m), -1, -1):
        ra = m - a * a
        for b in range(min(a, isqrt(ra)), -1, -1):
            rb = ra - b * b
            for c in range(min(b, isqrt(rb)), -1, -1):
                rc = rb - c * c
                d = isqrt(rc)
                if d * d == rc and d <= c:
                    return (a, b, c, d)
    raise AssertionError("unreachable: every m is a sum of four squares")


def quaternion_matrix(m: int) -> np.ndarray:
    a, b, c, d = four_square_decomposition(m)
    return np.array(
        [
            [a, b, c, d],
            [-b, a, -d, c],
            [-c, d, a, -b],
            [-d, -c, b, a],
        ],
        dtype=np.int64,
    )


def scale_frame(frame: Frame, m: int) -> Frame:
    """Turn a k-frame into a km-frame (dimension divisible by 4); the new row
    norm k m s is checked below 2^62 first, so no product below can wrap."""
    v = frame.vectors
    n = v.shape[0]
    if n % 4 != 0:
        raise PreconditionViolation("frame scaling needs dimension divisible by 4")
    if m < 1:
        raise PreconditionViolation("m must be positive")
    check_bound(frame.norm_k * m * frame.scale)
    q = quaternion_matrix(m)
    out = np.vstack([q @ v[i : i + 4] for i in range(0, n, 4)])
    return Frame(out, frame.scale, frame.norm_k * m)


def star_condition_check(case: RepresentationCase, min_k: int, k: int) -> bool:
    """True iff k >= min_k and some prime factor of k is not excluded by the case.

    For a lattice, min_k is its minimum norm and the case is its model
    seed's, so this says which k its quadruple construction covers.
    """
    if k < 2:
        raise PreconditionViolation("k must be >= 2")
    if k < min_k:
        return False
    return any(p not in case.excluded_primes for p in factorize(k))
