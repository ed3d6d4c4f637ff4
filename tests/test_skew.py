import numpy as np
import pytest

from zklat.codes import is_self_dual, negacirculant
from zklat.errors import CongruenceViolation, PreconditionViolation, SkewViolation
from zklat.skew import (
    FrameQuadruple,
    SkewSeed,
    build_code_from_skew,
    build_frame,
    build_paley_skew,
    build_skew_negacirculant,
    frame_constant,
    search_quadruple,
    skew_seed_from_rows,
    with_params,
)

D6 = ((0, 2, 2), (0, 1, -4))


def test_paley_q3():
    seed = build_paley_skew(3)
    q = np.array(seed.matrix)[1:, 1:]
    assert q.tolist() == [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
    m = seed.np_matrix()
    assert np.array_equal(m @ m.T, 3 * np.eye(4, dtype=np.int64))


def test_paley_p7_p19():
    for p, k, ell in [(7, 4, 2), (19, 4, 0)]:
        seed = with_params(build_paley_skew(p), k, ell)
        m = seed.np_matrix()
        assert np.array_equal(m @ m.T, p * np.eye(p + 1, dtype=np.int64))
        assert np.array_equal(m.T, -m)


def test_paley_rejects_bad_p():
    with pytest.raises(PreconditionViolation):
        build_paley_skew(5)  # 5 = 1 mod 4
    with pytest.raises(PreconditionViolation):
        build_paley_skew(9)  # not prime


def test_skew_negacirculant_d6():
    mat = build_skew_negacirculant(*D6)
    assert np.array_equal(mat.T, -mat)
    assert np.array_equal(mat @ mat.T, 25 * np.eye(6, dtype=np.int64))


def test_skew_negacirculant_rejects_nonskew():
    with pytest.raises(SkewViolation):
        build_skew_negacirculant((1, 0, 0), (0, 0, 0))  # nonzero diagonal


def test_seed_congruence_validation():
    with pytest.raises(SkewViolation):
        skew_seed_from_rows(*D6, k=4, ell=1)  # 25 + 1 + 1 = 27 != 0 mod 4


def test_blocks_commute():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(2, 6)
        a = negacirculant(rng.integers(-4, 5, size=n))
        b = negacirculant(rng.integers(-4, 5, size=n))
        assert np.array_equal(a @ b, b @ a)


def test_code_from_skew_selfdual():
    seed = skew_seed_from_rows(*D6, k=3, ell=1)
    code = build_code_from_skew(seed)
    assert code.n == 12 and code.k == 3
    assert is_self_dual(code)


def test_frame_constant_and_congruences():
    seed = skew_seed_from_rows(*D6, k=3, ell=1)
    assert frame_constant(seed, FrameQuadruple(0, 0, 3, 0)) == 3
    assert frame_constant(seed, FrameQuadruple(1, 0, 1, 1)) == 9
    assert frame_constant(seed, FrameQuadruple(1, 1, 0, 2)) == 42
    with pytest.raises(CongruenceViolation):
        frame_constant(seed, FrameQuadruple(0, 1, 2, 0))


def test_frame_rows_gram():
    seed = skew_seed_from_rows(*D6, k=3, ell=1)
    rows = build_frame(seed, FrameQuadruple(1, 0, 1, 1)).np_vectors()
    assert np.array_equal(rows @ rows.T, 9 * 3 * np.eye(12, dtype=np.int64))


def test_find_quadruple_matches_direct_search():
    seed = skew_seed_from_rows(*D6, k=3, ell=1)
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
