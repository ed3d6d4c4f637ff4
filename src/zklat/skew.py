"""Skew matrices M (M^T = -M, MM^T = mI) and the frames they generate.

The seeds live over the plain integers; reduction mod k happens only
when the associated code is built, because MM^T = mI is an integer
identity that reduction would destroy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .codes import ZkCode, negacirculant
from .errors import CongruenceViolation, PreconditionViolation, SkewViolation
from .lattice import Frame


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class SkewSeed:
    matrix: tuple[tuple[int, ...], ...]  # any integer array
    k: int
    m: int
    ell: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", tuple(tuple(int(x) for x in row) for row in self.matrix))
        mat = self.np_matrix()
        if np.any(mat.T != -mat):
            raise SkewViolation("M^T != -M")
        prod = mat @ mat.T
        if np.any(prod != self.m * np.eye(mat.shape[0], dtype=np.int64)):
            raise SkewViolation("MM^T != mI")
        if not 0 <= self.ell <= self.k - 1:
            raise PreconditionViolation("ell must satisfy 0 <= ell <= k-1")
        if (self.m + self.ell**2 + 1) % self.k != 0:
            raise SkewViolation("m + ell^2 != -1 (mod k)")

    @property
    def order(self) -> int:
        return len(self.matrix)

    def np_matrix(self) -> np.ndarray:
        return np.array(self.matrix, dtype=np.int64)


@dataclass(frozen=True)
class FrameQuadruple:
    a: int
    b: int
    c: int
    d: int

    def check(self, k: int, ell: int) -> None:
        if (self.b - self.c + ell * self.d) % k != 0:
            raise CongruenceViolation("b != c - ell*d (mod k)")
        if (self.d - self.a - ell * self.b) % k != 0:
            raise CongruenceViolation("d != a + ell*b (mod k)")


def build_paley_skew(p: int) -> SkewSeed:
    """Bordered quadratic-residue matrix P_{p+1} with P P^T = p I."""
    if not _is_prime(p) or p % 4 != 3:
        raise PreconditionViolation("p must be a prime congruent to 3 mod 4")
    squares = {(x * x) % p for x in range(1, (p + 1) // 2 + 1)}
    q = np.zeros((p, p), dtype=np.int64)
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            q[i, j] = -1 if (j - i) % p in squares else 1
    mat = np.zeros((p + 1, p + 1), dtype=np.int64)
    mat[0, 1:] = 1
    mat[1:, 0] = -1
    mat[1:, 1:] = q
    # (k, ell) are attached by the caller; use a valid placeholder pair
    k, ell = _default_params(p)
    return SkewSeed(mat, k=k, m=p, ell=ell)


def _default_params(m: int) -> tuple[int, int]:
    for k in range(2, 2 * m + 3):
        for ell in range(k):
            if (m + ell * ell + 1) % k == 0:
                return k, ell
    raise SkewViolation("no (k, ell) with m + ell^2 = -1 (mod k)")


def with_params(seed: SkewSeed, k: int, ell: int) -> SkewSeed:
    return SkewSeed(seed.matrix, k=k, m=seed.m, ell=ell)


def build_skew_negacirculant(r_a1, r_a2) -> np.ndarray:
    """(A1 A2 ; -A2^T A1^T) from negacirculant blocks; must come out skew."""
    a1 = negacirculant(r_a1)
    a2 = negacirculant(r_a2)
    mat = np.block([[a1, a2], [-a2.T, a1.T]])
    if np.any(mat.T != -mat):
        raise SkewViolation("A1 is not skew; M^T != -M")
    prod = mat @ mat.T
    m = int(prod[0, 0])
    if np.any(prod != m * np.eye(mat.shape[0], dtype=np.int64)):
        raise SkewViolation("MM^T is not a scalar matrix")
    return mat


def skew_seed_from_rows(r_a1, r_a2, k: int, ell: int) -> SkewSeed:
    mat = build_skew_negacirculant(r_a1, r_a2)
    m = int((mat @ mat.T)[0, 0])
    return SkewSeed(mat, k=k, m=m, ell=ell)


def build_code_from_skew(seed: SkewSeed) -> ZkCode:
    """Self-dual code of length 2n with generator (I_n | M + ell*I_n)."""
    n = seed.order
    mat = seed.np_matrix() + seed.ell * np.eye(n, dtype=np.int64)
    return ZkCode(seed.k, np.hstack([np.eye(n, dtype=np.int64), mat]))


def frame_constant(seed: SkewSeed, q: FrameQuadruple) -> int:
    q.check(seed.k, seed.ell)
    total = q.a**2 + seed.m * q.b**2 + q.c**2 + seed.m * q.d**2
    assert total % seed.k == 0
    return total // seed.k


def build_frame(seed: SkewSeed, q: FrameQuadruple) -> Frame:
    """The N-frame F(M) of a seed and a quadruple, N = frame_constant.

    Its 2n rows are in scaled (multiplied by sqrt(k)) coordinates at scale
    k; the Frame constructor checks F F^T = N k I exactly.
    """
    n = seed.order
    mat = seed.np_matrix()
    eye = np.eye(n, dtype=np.int64)
    rows = np.block(
        [
            [q.a * eye + q.b * mat, q.c * eye + q.d * mat],
            [-q.c * eye + q.d * mat, q.a * eye - q.b * mat],
        ]
    )
    return Frame(rows, seed.k, frame_constant(seed, q))


def _signed_range(limit: int):
    """0, 1, -1, 2, -2, ...: magnitude-ascending, positive first."""
    yield 0
    for v in range(1, limit + 1):
        yield v
        yield -v


def search_quadruple(k: int, m: int, ell: int, target: int) -> FrameQuadruple | None:
    """First (a,b,c,d) with a^2+m b^2+c^2+m d^2 = k*target and
    b = c - ell*d, d = a + ell*b (mod k), scanning each coordinate in
    magnitude-ascending order (positive before negative).

    Exhaustive over |a|,|c| <= sqrt(k*target), |b|,|d| <= sqrt(k*target/m);
    a returned None is therefore a proof of nonexistence.
    """
    kn = k * target
    amax = isqrt(kn)
    bmax = isqrt(kn // m)
    for a in _signed_range(amax):
        ra = kn - a * a
        for b in _signed_range(bmax):
            rb = ra - m * b * b
            if rb < 0:
                continue
            cmax = isqrt(rb)
            # congruences fix c and d modulo k given (a, b)
            d0 = (a + ell * b) % k
            c0 = (b + ell * d0) % k
            for c in sorted(
                range(-cmax + (c0 + cmax) % k, cmax + 1, k), key=lambda v: (abs(v), v < 0)
            ):
                rc = rb - c * c
                if rc % m:
                    continue
                d_abs = isqrt(rc // m)
                if d_abs * d_abs * m != rc:
                    continue
                for d in (d_abs, -d_abs) if d_abs else (0,):
                    if (d - d0) % k == 0 and (b - c + ell * d) % k == 0:
                        return FrameQuadruple(a, b, c, d)
    return None
