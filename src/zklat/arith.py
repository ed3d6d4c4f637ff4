"""Number theory for the frame constructions.

`REPRESENTATION_CASES` is the one table of the cases (a)-(h): each row's
(k, m, ell, excluded primes).  Catalog seeds and lattices name a row
rather than repeat it.  Also here: quadruple representations of primes,
four-square decompositions, frame scaling, the star condition, and the
verdict type of the frame-existence report (`catalog.frame_report`).

Every search is a bounded exhaustive scan, so a "none" answer is a
proof within the stated bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import BadDimension, OutOfRange, PreconditionViolation
from .lattice import Frame
from .skew import FrameQuadruple, _is_prime, search_quadruple

__all__ = [
    "REPRESENTATION_CASES",
    "RepresentationCase",
    "FrameVerdict",
    "representation_search",
    "four_square_decomposition",
    "quaternion_matrix",
    "scale_frame",
    "factorize",
    "star_condition_check",
]


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


def representation_search(case: RepresentationCase, p: int) -> FrameQuadruple | None:
    if not _is_prime(p):
        raise PreconditionViolation("p must be prime")
    return search_quadruple(case.k, case.m, case.ell, p)


def four_square_decomposition(m: int) -> tuple[int, int, int, int]:
    """a^2+b^2+c^2+d^2 = m with a >= b >= c >= d >= 0, a maximal."""
    if m < 0:
        raise PreconditionViolation("m must be non-negative")
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
    """Turn a k-frame into a km-frame (dimension divisible by 4)."""
    v = frame.np_vectors()
    n = v.shape[0]
    if n % 4 != 0:
        raise BadDimension("frame scaling needs dimension divisible by 4")
    if m < 1:
        raise PreconditionViolation("m must be positive")
    q = quaternion_matrix(m)
    blocks = [q @ v[i : i + 4] for i in range(0, n, 4)]
    out = np.vstack(blocks)
    return Frame(out, frame.scale, frame.norm_k * m)


def factorize(k: int) -> dict[int, int]:
    if k >= 1 << 63:
        raise OutOfRange("factorization by trial division supports k < 2^63")
    out: dict[int, int] = {}
    d = 2
    while d * d <= k:
        while k % d == 0:
            out[d] = out.get(d, 0) + 1
            k //= d
        d += 1 if d == 2 else 2
    if k > 1:
        out[k] = out.get(k, 0) + 1
    return out


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


@dataclass
class FrameVerdict:
    status: str  # yes | no | unknown
    chain: list[str] = field(default_factory=list)
    frame: Frame | None = None
