"""Upper bounds on the minimum Euclidean weight of self-dual codes over
Z_k, and on the minimum norm of unimodular lattices, with extremality
classification relative to those bounds.

Valid for code lengths n <= 48 (k >= 2); larger lengths raise
PreconditionViolation rather than extrapolating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionViolation


@dataclass(frozen=True)
class BoundProfile:
    value: int
    rule: str


def d_E_upper_bound(n: int, k: int, type_one: bool = False) -> BoundProfile:
    """Largest possible minimum Euclidean weight of a self-dual Z_k-code.

    The general bound is 2k*floor(n/24) + 2k with three sharper exceptional
    clauses; type_one=True additionally applies the strengthenings known
    for Type I codes at n = 24, 28, 48.
    """
    if n < 1:
        raise PreconditionViolation("length must be positive")
    if k < 2:
        raise PreconditionViolation("modulus must be at least 2")
    if n > 48:
        raise PreconditionViolation("bound table covers lengths up to 48")

    if n == 23 and k >= 4:
        prof = BoundProfile(3 * k, "exception n=23, k>=4")
    elif n in (22, 46) and k == 2:
        prof = BoundProfile(4 * (n // 24) + 6, "binary exception n in {22, 46}")
    elif n == 47 and k == 4:
        prof = BoundProfile(20, "exception n=47, k=4")
    else:
        prof = BoundProfile(2 * k * (n // 24) + 2 * k, "general 2k*floor(n/24) + 2k")

    if type_one:
        sharper = {24: 3 * k, 28: 3 * k, 48: 5 * k}.get(n)
        if sharper is not None and sharper < prof.value:
            prof = BoundProfile(sharper, f"Type I strengthening at n={n}")
    return prof


def classify(n: int, k: int, d_e: int) -> str:
    """extremal / near_extremal / neither, against the unrestricted bound."""
    bound = d_E_upper_bound(n, k).value
    if d_e > bound:
        raise PreconditionViolation("minimum weight exceeds the proven bound")
    if d_e == bound:
        return "extremal"
    if d_e + k == bound:
        return "near_extremal"
    return "neither"


def unimodular_min_norm_bound(n: int) -> int:
    """Upper bound on the minimum norm of a unimodular lattice of dimension n.

    Rains and Sloane's 2 floor(n/24) + 2, or 2 floor(n/24) + 3 when
    n = 23 (mod 24): 3 at n = 23 and 5 at n = 47.  An odd lattice need not
    reach it: the catalog's L48 has minimum norm 5 against 6.
    """
    if n < 1:
        raise PreconditionViolation("dimension must be positive")
    if n > 48:
        raise PreconditionViolation("bound table covers dimensions up to 48")
    return 2 * (n // 24) + 2 + (n % 24 == 23)
