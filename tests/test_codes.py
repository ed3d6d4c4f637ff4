import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from code_oracle import codewords, min_euclidean_weight_naive, random_selfdual_code
from hypothesis import given, settings
from hypothesis import strategies as st

import zklat.codes
import zklat.lattice
import zklat.shortvec
from zklat import catalog
from zklat.codes import (
    ZkCode,
    bordered,
    build_four_negacirculant,
    build_z4_two_block,
    circulant,
    euclidean_weight,
    is_self_dual,
    min_euclidean_weight,
    negacirculant,
    systematic,
)
from zklat.errors import BudgetExceeded, PreconditionViolation
from zklat.intmat import hnf
from zklat.lattice import construction_a, min_norm

# these tests prove minima of catalog objects, so each builds them afresh
pytestmark = pytest.mark.usefixtures("fresh_catalog")


def test_euclidean_weight_basics():
    assert euclidean_weight((0, 0, 0, 0), 5) == 0
    assert euclidean_weight((1, 2, 3, 4), 5) == 10  # 1+4+4+1
    # residues above k/2 count as k - x
    assert euclidean_weight((5,), 6) == 1
    assert euclidean_weight((3,), 6) == 9


def test_euclidean_weight_published_sum():
    ra = (0, 0, 1, 2, 2, 2, 1, 2)
    rb = (1, 0, 5, 5, 1, 1, 3, 3)
    assert euclidean_weight(ra, 6) + euclidean_weight(rb, 6) == 18 + 23 == 41


@given(
    st.integers(min_value=2, max_value=12),
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8),
    st.randoms(use_true_random=False),
)
def test_euclidean_weight_monomial_invariance(k, xs, rnd):
    xs = [x % k for x in xs]
    w = euclidean_weight(xs, k)
    perm = list(xs)
    rnd.shuffle(perm)
    assert euclidean_weight(perm, k) == w
    negated = [(-x) % k if rnd.random() < 0.5 else x for x in xs]
    assert euclidean_weight(negated, k) == w


def test_negacirculant_shape():
    m = negacirculant((1, 2, 3))
    assert m.tolist() == [[1, 2, 3], [-3, 1, 2], [-2, -3, 1]]


def test_four_negacirculant_smallest():
    code = build_four_negacirculant(2, (0,), (1,))
    assert sorted(code.generators) == [(0, 1, 1, 0), (1, 0, 0, 1)]
    assert is_self_dual(code)
    assert min_euclidean_weight(code) == 2


def test_four_negacirculant_published_rows():
    c = build_four_negacirculant(5, (0, 0, 0, 1, 1), (1, 4, 2, 1, 0))
    assert c.n == 20 and is_self_dual(c)
    a = negacirculant((0, 0, 0, 1, 1))
    b = negacirculant((1, 4, 2, 1, 0))
    assert np.all((a @ a.T + b @ b.T + np.eye(5, dtype=np.int64)) % 5 == 0)
    c9 = build_four_negacirculant(9, (0, 0, 1, 5, 0, 6, 0, 1), (0, 6, 2, 2, 7, 6, 1, 7))
    assert c9.n == 32 and is_self_dual(c9)


def test_z4_two_block_rejects_odd_bottom():
    with pytest.raises(PreconditionViolation):
        build_z4_two_block(1, 1, [[1, 1]], [[1, 2]])


def test_z4_two_block_cardinality():
    code = build_z4_two_block(1, 1, [[1, 1]], [[2, 2]])
    assert code.cardinality == 4 * 2


def test_bordered_circulant_small():
    code = systematic(2, bordered(circulant((1,)), 1))
    assert code.n == 4
    assert sorted(code.generators) == [(0, 1, 1, 1), (1, 0, 0, 1)]


def test_bordered_circulant_selfdual_probe():
    # direct G G^T computation decides self-duality for this shape
    code = systematic(4, bordered(circulant((1, 1, 1)), 1))
    g = np.array(code.generators)
    expect = not np.any((g @ g.T) % 4) and code.cardinality == 4**4
    assert is_self_dual(code) == expect


@pytest.mark.parametrize("k, gens, message", [
    (4, [[0.5, 2.7]], "generator entry 0.5"),
    (4, [[2, Fraction(1, 2)]], "generator entry Fraction(1, 2)"),
    (4, np.array([[2.0, 0.0]]), "generator entry np.float64(2.0)"),
    (4.0, [[2, 0]], "modulus 4.0"),
    (Fraction(4), [[2, 0]], "modulus Fraction(4, 1)"),
], ids=["floats", "fraction", "float_array", "float_k", "fraction_k"])
def test_a_code_refuses_what_is_not_an_integer(k, gens, message):
    # (0.5, 2.7) over Z_4 was read as (0, 2): no entry is truncated
    with pytest.raises(PreconditionViolation, match=f"^{re.escape(message)} is not an integer$"):
        ZkCode(k, gens)


def test_is_self_dual_tiny():
    assert is_self_dual(ZkCode(2, ((1, 1),)))
    assert not is_self_dual(ZkCode(2, ((1, 0),)))


def test_odd_length_self_dual():
    # {0, 2}^3 over Z_4: |C|^2 = 8^2 = 4^3, and A_4(C) is Z^3
    code = ZkCode(4, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    assert is_self_dual(code)
    lat = construction_a(code)
    assert lat.dim == 3 and lat.is_unimodular() and min_norm(lat) == 1
    assert not is_self_dual(ZkCode(4, ((2, 0, 0), (0, 2, 0))))


def test_lift_is_computed_once_at_construction(monkeypatch):
    code = build_four_negacirculant(13, (0, 1, 6), (2, 3, 1))

    def no_hnf(rows):
        raise AssertionError("the lift's HNF was recomputed")

    monkeypatch.setattr(zklat.codes, "hnf", no_hnf)
    assert construction_a(code) is code.lift()
    assert min_euclidean_weight(code) == 26


@pytest.mark.parametrize("k, gens", [
    (2**33 + 2, ((2**32 + 1,),)),  # d_E = (2^32 + 1)^2, beyond int64
    (3037000507, ((1, 0),)),  # the lift row (0, k) has norm k^2 > 2^62: its Gram wraps
    (2**64 + 13, ((1, 0),)),  # k itself is beyond int64
])
def test_min_euclidean_weight_rejects_a_lift_beyond_the_norm_cap(k, gens):
    with pytest.raises(PreconditionViolation, match=r"basis row of norm >= 2\^62"):
        min_euclidean_weight(ZkCode(k, gens))


def test_min_euclidean_weight_budget():
    # the proof takes 62 nodes
    code = build_four_negacirculant(13, (0, 1, 6), (2, 3, 1))
    with pytest.raises(BudgetExceeded):
        min_euclidean_weight(code, budget=50)


EXTENDED_HAMMING = ZkCode(2, (
    (1, 0, 0, 0, 0, 1, 1, 1),
    (0, 1, 0, 0, 1, 0, 1, 1),
    (0, 0, 1, 0, 1, 1, 0, 1),
    (0, 0, 0, 1, 1, 1, 1, 0),
))


def _extended_golay():
    # (I | bordered circulant of the non-residues mod 11, with 0)
    residues = {i * i % 11 for i in range(1, 11)}
    return systematic(2, bordered(circulant([int(i not in residues) for i in range(11)]), 1))


@pytest.mark.parametrize(
    "code, d_e",
    [(EXTENDED_HAMMING, 4), (_extended_golay(), 8)],
    ids=["hamming_8_4_4", "golay_24_12_8"],
)
def test_binary_codes_at_or_above_k_squared(code, d_e):
    # d_E >= k^2: decided by counting the lift's vectors against k Z^n
    # (at norm 8, 2 Z^24 alone has 1104 vectors)
    assert is_self_dual(code)
    assert min_euclidean_weight(code) == min_euclidean_weight_naive(code) == d_e


@pytest.mark.parametrize(
    "code, d_e, lift_min, walks",
    [
        # d_E = 26 < k^2: the lift minimum is d_E, so d_E takes no walk
        (build_four_negacirculant(13, (0, 1, 6), (2, 3, 1)), 26, 26, 1),
        # d_E = k^2 and d_E > k^2: a lift minimum of k^2 may lie in k Z^n,
        # so d_E still walks after it
        (EXTENDED_HAMMING, 4, 4, 2),
        (_extended_golay(), 8, 4, 2),
    ],
    ids=["C_13_12", "hamming_8_4_4", "golay_24_12_8"],
)
def test_d_e_reads_a_lift_minimum_below_k_squared(ball_walks, code, d_e, lift_min, walks):
    code = ZkCode(code.k, code.generators)  # fresh: no proof cached by another test
    lat = construction_a(code)
    assert min_norm(lat) * code.k == lift_min
    assert len(ball_walks) == 1
    assert min_euclidean_weight(code) == d_e
    assert len(ball_walks) == walks
    assert min_norm(lat) * code.k == lift_min  # cached: no further walk
    assert len(ball_walks) == walks


@pytest.mark.parametrize(
    "code, d_e, lift_min",
    [
        (build_four_negacirculant(13, (0, 1, 6), (2, 3, 1)), 26, 26),
        (EXTENDED_HAMMING, 4, 4),
        (_extended_golay(), 8, 4),
    ],
    ids=["C_13_12", "hamming_8_4_4", "golay_24_12_8"],
)
def test_a_lift_minimum_asked_after_d_e_is_its_own_walk(ball_walks, code, d_e, lift_min):
    # d_E leaves nothing behind, so min_norm proves the lift minimum afresh
    code = ZkCode(code.k, code.generators)
    lat = construction_a(code)
    assert min_euclidean_weight(code) == d_e
    assert lat._min is None and len(ball_walks) == 1
    assert min_norm(lat) * code.k == lift_min
    assert len(ball_walks) == 2


@settings(deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False))
def test_matches_naive_on_random_codes(rnd):
    # (I | B) with B random: independent rows, mostly not self-dual
    k = rnd.choice([2, 3, 4, 5])
    m = rnd.randint(1, 4)
    n = m + rnd.randint(0, 4)
    b = [[rnd.randrange(k) for _ in range(n - m)] for _ in range(m)]
    gen = [[int(i == j) for j in range(m)] + b[i] for i in range(m)]
    code = ZkCode(k, tuple(map(tuple, gen)))
    assert min_euclidean_weight(code) == min_euclidean_weight_naive(code)


@settings(deadline=None, max_examples=25)
@given(st.randoms(use_true_random=False))
def test_pruned_matches_naive_on_random_selfdual(rnd):
    k, dsq = rnd.choice([(2, [1]), (5, [2, 3]), (10, [3, 7]), (13, [5, 8])])
    n_half = rnd.randint(2, 4)
    code = random_selfdual_code(k, dsq, n_half, rnd)
    if code.cardinality > 10**5:
        return
    assert is_self_dual(code)
    assert min_euclidean_weight(code) == min_euclidean_weight_naive(code)


def test_pruned_matches_naive_on_structured_codes():
    for k, ra, rb in [(3, (0, 1), (1, 1)), (4, (1, 2), (1, 0)), (7, (0, 1), (2, 3))]:
        code = build_four_negacirculant(k, ra, rb)
        if not is_self_dual(code) or code.cardinality > 10**5:
            continue
        assert min_euclidean_weight(code) == min_euclidean_weight_naive(code)


def test_dependent_rows_span_one_code():
    # a repeated row adds nothing: the code is still {t(1, 1)}, of size 4
    assert ZkCode(4, ((1, 1), (1, 1))).cardinality == 4


@settings(deadline=None, max_examples=60)
@given(st.randoms(use_true_random=False))
def test_hnf_box_lists_the_span(rnd):
    # any generators, dependent ones included: the box lists each word of their span once
    k = rnd.randint(2, 6)
    n = rnd.randint(1, 4)
    gens = [[rnd.randrange(k) for _ in range(n)] for _ in range(rnd.randint(1, 3))]
    code = ZkCode(k, gens)
    listed = codewords(code).tolist()
    words = {tuple(w) for w in listed}
    assert len(words) == len(listed) == code.cardinality
    span = {
        tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) % k for j in range(n))
        for coeffs in itertools.product(range(k), repeat=len(gens))
    }
    assert words == span


@pytest.mark.parametrize("gens", [((1, 2), (1,)), ((),), ((), ())])
def test_generator_rows_need_one_nonzero_length(gens):
    with pytest.raises(PreconditionViolation, match="one nonzero length"):
        ZkCode(3, gens)


def test_weights_divisible_by_k_for_selfdual():
    code = build_four_negacirculant(5, (0, 0, 0, 1, 1), (1, 4, 2, 1, 0))
    rng = np.random.default_rng(11)
    gens = np.array(code.generators)
    for _ in range(50):
        coeffs = rng.integers(0, 5, size=gens.shape[0])
        word = (coeffs @ gens) % 5
        assert euclidean_weight(word, 5) % 5 == 0


def test_a_code_and_its_lattice_share_one_reduction(monkeypatch):
    calls = []
    reduce = zklat.shortvec.block_reduce

    def counted(basis):
        calls.append(1)
        return reduce(basis)

    for module in (zklat.shortvec, zklat.lattice):
        monkeypatch.setattr(module, "block_reduce", counted)
    # built afresh, so no reduced lift is left over from other tests
    code = catalog.build.__wrapped__("C_13_12")
    assert min_norm(construction_a(code)) == 2
    assert min_euclidean_weight(code) == 26
    assert len(calls) == 1
    assert construction_a(code).reduced_basis() is code.lift().reduced_basis()
    assert len(calls) == 1


def test_frames_read_off_as_selfdual_codes():
    # a k-frame f_1..f_n of L gives phi(v) = (<v, f_i>)_i, and phi(L) / k Z^n is a
    # self-dual Z_k-code whose lift is phi(L); its n rows are dependent for composite k
    checked = 0
    for lid in ["D12_plus", "D8_2", "D4_5", "A5_4", "D20"]:
        lat = catalog.build(lid)
        for k in range(2, 13):
            frame = catalog.frame_report(lid, k).frame
            if frame is None:
                continue
            assert frame.scale == lat.scale
            prod = lat.basis.astype(object) @ frame.vectors.astype(object).T
            assert not np.any(prod % lat.scale)
            m = prod // lat.scale
            code = ZkCode(k, (m % k).tolist())
            assert is_self_dual(code), (lid, k)
            assert hnf(code.lift().basis.tolist()) == hnf(m.tolist()), (lid, k)
            assert min_norm(construction_a(code)) == min_norm(lat), (lid, k)
            checked += 1
    assert checked == 43  # every "yes" with an explicit frame at these k
