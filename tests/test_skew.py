import time
from itertools import islice, product, takewhile
from math import isqrt, prod

import numpy as np
import pytest

from zklat.codes import build_four_negacirculant, four_negacirculant, is_self_dual, negacirculant
from zklat.errors import PreconditionViolation
from zklat.skew import (
    REPRESENTATION_CASES,
    FrameQuadruple,
    SkewSeed,
    build_code_from_skew,
    build_frame,
    build_paley_skew,
    factorize,
    frame_constant,
    is_prime,
    search_quadruple,
)
from zklat.skew import _signed

D6 = ((0, 2, 2), (0, 1, -4))
D6_SEED = SkewSeed(four_negacirculant(*D6), k=3, m=25, ell=1)


def test_paley_q3():
    m = build_paley_skew(3)
    assert m[1:, 1:].tolist() == [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
    assert np.array_equal(m @ m.T, 3 * np.eye(4, dtype=np.int64))


def test_paley_p7_p19():
    for p, k, ell in [(7, 4, 2), (19, 4, 0)]:
        seed = SkewSeed(build_paley_skew(p), k=k, m=p, ell=ell)
        m = seed.matrix
        assert np.array_equal(m @ m.T, p * np.eye(p + 1, dtype=np.int64))
        assert np.array_equal(m.T, -m)


def test_paley_rejects_bad_p():
    with pytest.raises(PreconditionViolation):
        build_paley_skew(5)  # 5 = 1 mod 4
    with pytest.raises(PreconditionViolation):
        build_paley_skew(9)  # not prime


def test_skew_negacirculant_d6():
    mat = four_negacirculant(*D6)
    assert np.array_equal(mat.T, -mat)
    assert np.array_equal(mat @ mat.T, 25 * np.eye(6, dtype=np.int64))


def test_skew_negacirculant_rejects_nonskew():
    with pytest.raises(PreconditionViolation, match=r"M\^T != -M"):
        # nonzero diagonal
        SkewSeed(four_negacirculant((1, 0, 0), (0, 0, 0)), k=3, m=1, ell=1)


@pytest.mark.parametrize("entry", [2**32, 2**64])
def test_a_seed_row_beyond_the_norm_cap_is_rejected(entry):
    # at 2^32, MM^T = 2^64 I reads as 0 = m I in int64; 2^64 is beyond int64
    with pytest.raises(PreconditionViolation, match=r"seed row of norm >= 2\^62"):
        SkewSeed(((0, entry), (-entry, 0)), k=2, m=0, ell=1)


def test_a_seed_with_m_past_int64_or_a_non_square_matrix_breaks_the_skew_rule():
    with pytest.raises(PreconditionViolation, match="MM\\^T != mI"):
        SkewSeed(((0, 1), (-1, 0)), k=2, m=2**64, ell=1)
    with pytest.raises(PreconditionViolation, match="M\\^T != -M"):
        SkewSeed(np.ones((2, 3), dtype=np.int64), k=3, m=1, ell=1)


@pytest.mark.parametrize("field, value", [("k", 2.0), ("m", 1.0), ("ell", 0.5)])
def test_a_seed_refuses_what_is_not_an_integer(field, value):
    fields = dict(k=2, m=1, ell=0)  # M = (0 1; -1 0): MM^T = I, and 1 + 0 + 1 = 0 mod 2
    SkewSeed(((0, 1), (-1, 0)), **fields)
    fields[field] = value
    with pytest.raises(PreconditionViolation, match=f"^seed {field} {value} is not an integer$"):
        SkewSeed(((0, 1), (-1, 0)), **fields)


def test_seed_congruence_validation():
    with pytest.raises(PreconditionViolation, match=r"m \+ ell\^2 != -1 \(mod k\)"):
        SkewSeed(four_negacirculant(*D6), k=4, m=25, ell=1)  # 27 != 0 mod 4


def test_blocks_commute():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(2, 6)
        a = negacirculant(rng.integers(-4, 5, size=n))
        b = negacirculant(rng.integers(-4, 5, size=n))
        assert np.array_equal(a @ b, b @ a)


def test_code_from_skew_selfdual():
    seed = D6_SEED
    code = build_code_from_skew(seed)
    assert code.n == 12 and code.k == 3
    assert is_self_dual(code)


def test_frame_constant_and_congruences():
    seed = D6_SEED
    assert frame_constant(seed, FrameQuadruple(0, 0, 3, 0)) == 3
    assert frame_constant(seed, FrameQuadruple(1, 0, 1, 1)) == 9
    assert frame_constant(seed, FrameQuadruple(1, 1, 0, 2)) == 42
    with pytest.raises(PreconditionViolation, match=r"b != c - ell\*d \(mod k\)"):
        frame_constant(seed, FrameQuadruple(0, 1, 2, 0))


def test_frame_rows_gram():
    seed = D6_SEED
    rows = build_frame(seed, FrameQuadruple(1, 0, 1, 1)).vectors
    assert np.array_equal(rows @ rows.T, 9 * 3 * np.eye(12, dtype=np.int64))


def test_find_quadruple_matches_direct_search():
    seed = D6_SEED
    q = search_quadruple(seed.k, seed.m, seed.ell, 3)
    assert q is not None and frame_constant(seed, q) == 3
    assert q == search_quadruple(3, 25, 1, 3)
    # excluded target: the scan bound makes this a proof
    assert search_quadruple(seed.k, seed.m, seed.ell, 7) is None


def test_search_quadruple_verifies_identity():
    for target in [3, 6, 11, 17, 50]:
        q = search_quadruple(3, 25, 1, target)
        assert q is not None
        assert q.a**2 + 25 * q.b**2 + q.c**2 + 25 * q.d**2 == 3 * target


def test_order_2_mod_4_square_ok():
    # a Pfaffian argument forces m to be a square at orders 2 mod 4, so a
    # valid seed like this one must construct without the advisory warning
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SkewSeed(((0, 1), (-1, 0)), k=3, m=1, ell=1)


def _signed_key(v):
    return (abs(v), v < 0)


def test_signed_is_the_sorted_residue_class():
    for limit in range(40):
        for modulus in range(1, 9):
            for residue in range(modulus):
                want = sorted(
                    (v for v in range(-limit, limit + 1) if (v - residue) % modulus == 0),
                    key=_signed_key,
                )
                assert list(_signed(limit, residue, modulus)) == want
    assert list(_signed(3)) == [0, 1, -1, 2, -2, 3, -3]
    assert list(_signed(-1)) == []


def test_signed_is_lazy():
    t0 = time.perf_counter()
    assert list(islice(_signed(10**15, 1, 3), 5)) == [1, -2, 4, -5, 7]
    assert time.perf_counter() - t0 < 1.0


def _first_quadruple_by_brute_force(k, m, ell, target):
    """Every solution in the scan box, then the least in signed order."""
    kn = k * target
    amax, bmax = isqrt(kn), isqrt(kn // m)
    found = []
    for a, b, c in product(range(-amax, amax + 1), range(-bmax, bmax + 1), range(-amax, amax + 1)):
        for d in range(-bmax, bmax + 1):
            if (
                a * a + m * b * b + c * c + m * d * d == kn
                and (b - c + ell * d) % k == 0
                and (d - a - ell * b) % k == 0
            ):
                found.append((a, b, c, d))
    if not found:
        return None
    return FrameQuadruple(*min(found, key=lambda q: tuple(map(_signed_key, q))))


@pytest.mark.parametrize("label", sorted(REPRESENTATION_CASES))
def test_search_quadruple_is_the_first_solution_in_signed_order(label):
    c = REPRESENTATION_CASES[label]
    for target in range(1, 31):
        want = _first_quadruple_by_brute_force(c.k, c.m, c.ell, target)
        assert search_quadruple(c.k, c.m, c.ell, target) == want, target


def test_paley_is_the_quadratic_residue_definition():
    for p in (3, 7, 11, 19, 23, 43):
        squares = {x * x % p for x in range(1, p)}
        want = np.zeros((p + 1, p + 1), dtype=np.int64)
        want[0, 1:], want[1:, 0] = 1, -1
        for i, j in product(range(p), repeat=2):
            if i != j:
                want[i + 1, j + 1] = -1 if (j - i) % p in squares else 1
        assert np.array_equal(build_paley_skew(p), want)


def test_unequal_negacirculant_rows_are_rejected():
    with pytest.raises(PreconditionViolation):
        four_negacirculant((0, 1, 1), (1, 0))
    with pytest.raises(PreconditionViolation):
        build_four_negacirculant(3, (0, 1, 1), (1, 0))


def test_is_prime():
    assert [p for p in range(-3, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(1000000007) and not is_prime(1000000007 * 3)


def _trial_division_primes(limit: int) -> list[int]:
    primes = []
    for n in range(2, limit):
        if all(n % p for p in takewhile(lambda p: p * p <= n, primes)):
            primes.append(n)
    return primes


def test_is_prime_agrees_with_trial_division_below_2e5():
    limit = 200_000
    want = set(_trial_division_primes(limit))
    assert {n for n in range(limit) if is_prime(n)} == want


def test_is_prime_rejects_pseudoprimes_and_carmichael_numbers():
    # strong pseudoprimes to the bases 2, 3, 5, 7 (and 2 to 37 for the last),
    # then Carmichael numbers; all composite
    for n in (3215031751, 3825123056546413051, 318665857834031151167461,
              561, 1105, 1729, 2465, 2821, 6601, 8911, 9746347772161):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(1000000000000037)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_prime(3317044064679887385961813)  # the largest prime below the exact range's end
    with pytest.raises(PreconditionViolation, match="prime test supports"):
        is_prime(3317044064679887385961981)


def test_factorize_stops_at_a_prime_cofactor():
    p = 1000000000000037  # a trial division to its root takes seconds
    start = time.perf_counter()
    assert factorize(p) == {p: 1}
    assert factorize(3 * p) == {3: 1, p: 1} and factorize(2**10 * p) == {2: 10, p: 1}
    assert time.perf_counter() - start < 1.0
    for n in range(1, 3000):
        f = factorize(n)
        assert all(is_prime(q) for q in f) and prod(q**e for q, e in f.items()) == n
