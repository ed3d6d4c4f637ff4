import itertools
import re
import time
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from code_oracle import is_self_dual_naive

import zklat.lattice
from zklat import catalog
from zklat.codes import (
    ZkCode,
    build_four_negacirculant,
    four_negacirculant,
    is_self_dual,
    min_euclidean_weight,
)
from zklat.errors import BudgetExceeded, PreconditionViolation
from zklat.fileio import dump_lattice, load, write_text
from zklat.intmat import det, hnf, solve_rows
from zklat.lattice import (
    Frame,
    Lattice,
    construction_a,
    contains_frame,
    coset_theta,
    even_sublattice_and_shadow,
    find_frame,
    frame_in_shell,
    min_norm,
    norm_shell,
    theta_prefix,
)
from zklat.shortvec import enumerate_ball
from zklat.skew import (
    FrameQuadruple,
    SkewSeed,
    build_code_from_skew,
    build_frame,
)

D6_SEED = SkewSeed(four_negacirculant((0, 2, 2), (0, 1, -4)), k=3, m=25, ell=1)


def d6_lattice():
    return construction_a(build_code_from_skew(D6_SEED))


def test_construction_a_tiny():
    lat = construction_a(ZkCode(2, ((1, 1),)))
    assert lat.is_unimodular()
    assert min_norm(lat) == 1  # isometric to Z^2


@pytest.mark.parametrize("code", [
    ZkCode(2, ((1, 0),)),  # not self-orthogonal: A_2(C) is not integral
    ZkCode(4, ((2, 0),)),  # self-orthogonal, but |C|^2 = 4 < 4^2: det(A_4(C))^2 = 4
], ids=["not_self_orthogonal", "too_small"])
def test_construction_a_requires_selfdual(code):
    with pytest.raises(PreconditionViolation, match="Construction A requires a self-dual code"):
        construction_a(code)


@pytest.mark.parametrize("k", [4, 6])
def test_construction_a_accepts_exactly_the_self_dual_one_row_codes(k):
    # unimodularity of the lift is the one rule: it must agree with the
    # codeword-list check on every one-row code of lengths 1-4, odd lengths included
    accepted = 0
    for n in range(1, 5):
        for row in itertools.product(range(k), repeat=n):
            code = ZkCode(k, (row,))
            want = is_self_dual_naive(code)
            assert is_self_dual(code) == want, (k, row)
            try:
                lat = construction_a(code)
            except PreconditionViolation as e:
                assert not want and str(e) == "Construction A requires a self-dual code", (k, row)
            else:
                assert want and lat is code.lift(), (k, row)
                accepted += 1
    # only (2) over Z_4, whose A_4 is Z; a one-row code over Z_6 is never
    # self-dual, since |C|^2 = 6^n needs n = 2 and a row of order 6
    assert accepted == {4: 1, 6: 0}[k]


@pytest.mark.parametrize("code", [
    ZkCode(3037000507, ((1, 0),)),  # not self-dual; the lift row (0, k) has norm k^2 > 2^62
    ZkCode(1099511627873, ((1, 961209656835),)),  # self-dual: x^2 = -1 mod k = 2^40 + 97
], ids=["not_self_dual", "self_dual"])
def test_construction_a_of_a_lift_past_the_norm_cap_is_the_cap_error(code):
    # the lift lattice is built before the one check, so both report the cap,
    # from construction_a and from is_self_dual alike
    for check in (construction_a, is_self_dual):
        with pytest.raises(PreconditionViolation, match=r"basis row of norm >= 2\^62"):
            check(code)


def test_construction_a_hands_out_one_lattice():
    code = build_four_negacirculant(13, (0, 1, 6), (2, 3, 1))
    assert construction_a(code) is construction_a(code) is code.lift()


def test_min_norm_of_a_loaded_lattice_is_proved_once(tmp_path, ball_walks):
    p = tmp_path / "lat.txt"
    write_text(p, dump_lattice(d6_lattice()))
    lat = load(p.read_text())
    assert min_norm(lat) == min_norm(lat) == 2
    assert len(ball_walks) == 1


def test_a_proof_that_overruns_its_budget_caches_nothing(ball_walks):
    lat = Lattice(d6_lattice().basis, 3)  # a fresh lattice: no proof cached
    with pytest.raises(BudgetExceeded):
        min_norm(lat, budget=10)
    assert lat._min is None
    ball_walks.clear()
    assert min_norm(lat) == 2
    assert len(ball_walks) == 1


def test_a_code_proof_that_overruns_caches_nothing_on_its_lift(ball_walks):
    code = build_four_negacirculant(13, (0, 1, 6), (2, 3, 1))
    lat = construction_a(code)
    for overrun in (lambda: min_euclidean_weight(code, budget=10), lambda: min_norm(lat, budget=10)):
        with pytest.raises(BudgetExceeded):
            overrun()
        assert lat._min is None
    ball_walks.clear()
    assert min_norm(lat) == 2 and min_euclidean_weight(code) == 26
    assert len(ball_walks) == 1


def unimodular_by_gram(lat) -> bool:
    """The definition: integral, with Gram determinant +-1."""
    return lat.is_integral() and abs(det(lat.gram_true().tolist())) == 1


def assert_unimodular_as_defined(lat, want):
    fresh = Lattice(lat.basis, lat.scale)  # nothing cached
    assert fresh.is_unimodular() == unimodular_by_gram(lat) == want


@pytest.mark.parametrize("lid", catalog.catalog_list("lattice"))
def test_is_unimodular_is_the_gram_determinant_test_catalog(lid):
    assert_unimodular_as_defined(catalog.build(lid), True)


@pytest.mark.parametrize("lid", ["D12_plus", "D8_2"])
def test_is_unimodular_is_the_gram_determinant_test_shadow_parts(lid):
    # L0 has index 2 in L and L in L0*: each has Gram determinant 4 or 1/4
    parts = even_sublattice_and_shadow(catalog.build(lid))
    for lat in (parts.l0_refined, parts.l0_dual):
        assert_unimodular_as_defined(lat, False)


def test_is_unimodular_is_the_gram_determinant_test_small():
    assert_unimodular_as_defined(Lattice(2 * np.eye(4, dtype=np.int64), 4), True)
    d4 = [[1, 1, 0, 0], [1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]
    assert_unimodular_as_defined(Lattice(d4, 1), False)  # index 2 in Z^4
    # det(B)^2 = s^n, but the Gram matrix diag(1/2, 2) is not integral
    assert_unimodular_as_defined(Lattice([[1, 0], [0, 2]], 2), False)


def random_unimodular(rng, n, steps=8):
    u = np.eye(n, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(n, 2, replace=False)
        u[i] += int(rng.integers(-2, 3)) * u[j]
    return u


@pytest.mark.parametrize("scale", [1, 2, 4, 9])
def test_is_unimodular_is_the_gram_determinant_test_random(scale):
    # U Z^n at the scale's root (at scale 2, U times blocks (1 1; 1 -1)),
    # the same with a row doubled, and an arbitrary basis, which may be
    # singular and then is no lattice
    rng = np.random.default_rng(900 + scale)
    seen = set()
    for _ in range(12):
        n = 2 * int(rng.integers(1, 4))
        if scale == 2:
            root = np.kron(np.eye(n // 2, dtype=np.int64), [[1, 1], [1, -1]])
        else:
            root = isqrt(scale) * np.eye(n, dtype=np.int64)
        b = random_unimodular(rng, n) @ root
        doubled = b.copy()
        doubled[int(rng.integers(n))] *= 2
        for basis in (b, doubled, rng.integers(-3, 4, size=(n, n))):
            if det(basis.tolist()) == 0:
                with pytest.raises(PreconditionViolation, match="linearly dependent"):
                    Lattice(basis, scale)
                continue
            lat = Lattice(basis, scale)
            seen.add(unimodular_by_gram(lat))
            assert_unimodular_as_defined(lat, unimodular_by_gram(lat))
    assert seen == {True, False}


def test_d6_model_lattice():
    lat = d6_lattice()
    assert lat.dim == 12 and lat.scale == 3
    assert lat.is_unimodular() and not lat.is_even()
    assert min_norm(lat) == 2


def test_min_norm_identity_small():
    code = build_four_negacirculant(5, (0, 0, 0, 1, 1), (1, 4, 2, 1, 0))
    lat = construction_a(code)
    d_e = min_euclidean_weight(code)
    assert min_norm(lat) == min(5, Fraction(d_e, 5)) == 2


def test_theta_z1():
    lat = Lattice(np.eye(1, dtype=np.int64), 1)
    th = theta_prefix(lat, 4)
    assert th.coefficient(0) == 1 and th.coefficient(1) == 2 and th.coefficient(4) == 2
    assert th.coefficient(3) == 0


def test_theta_counts_are_even():
    lat = d6_lattice()
    th = theta_prefix(lat, 3)
    assert all(c % 2 == 0 for q, c in th.as_pairs() if q != 0)


def test_shadow_z2():
    lat = Lattice(np.eye(2, dtype=np.int64), 1)
    parts = even_sublattice_and_shadow(lat)
    # shadow cosets are (1/2,1/2) + even sublattice; min norm 1/2
    th1 = coset_theta(parts.l0_refined, parts.rep_l1, 2)
    assert min(q for q, c in th1.as_pairs()) == Fraction(1, 2)


def test_shadow_partition_theta_additive():
    lat = d6_lattice()
    parts = even_sublattice_and_shadow(lat)
    bound = 2
    whole = theta_prefix(parts.l0_dual, bound)
    sub = theta_prefix(parts.l0_refined, bound)
    sums = {q: sub.coefficient(q) for q, _ in whole.as_pairs()}
    for rep in (parts.rep_l1, parts.rep_l2, parts.rep_l3):
        part = coset_theta(parts.l0_refined, rep, bound)
        for q, c in part.as_pairs():
            sums[q] = sums.get(q, 0) + c
    for q, c in whole.as_pairs():
        assert sums.get(q, 0) == c


def walked(lat, max_norm):
    """The theta pairs of one walk of the whole ball, by `enumerate_ball` itself."""
    counts, norms, _ = enumerate_ball(lat.reduced_basis(), int(max_norm * lat.scale), lat.scale)
    return [(Fraction(q, lat.scale), c) for q, c in zip(norms.tolist(), counts.sum(axis=0).tolist()) if c]


# J = n // 8 is the last norm a unimodular theta_prefix walks to
@pytest.mark.parametrize("lid", ["D12_plus", "D8_2", "D4_5", "A5_4", "D20"])
def test_derived_theta_matches_the_walk_two_norms_past_j(lid):
    lat = catalog.build(lid)
    top = lat.dim // 8 + 2
    assert theta_prefix(lat, top).as_pairs() == walked(lat, top)


def test_fractional_max_norm_gives_the_walk_s_pairs():
    for lid, max_norm in (("D12_plus", Fraction(10, 3)), ("D8_2", Fraction(7, 2))):
        lat = catalog.build(lid)
        th = theta_prefix(lat, max_norm)
        assert th.bound == max_norm and th.as_pairs() == walked(lat, max_norm)


def root_lattice_d6():
    """{x in Z^6 : sum x even}: integral, determinant 4, not unimodular."""
    return Lattice([[1, -1, 0, 0, 0, 0], [0, 1, -1, 0, 0, 0], [0, 0, 1, -1, 0, 0],
                    [0, 0, 0, 1, -1, 0], [0, 0, 0, 0, 1, -1], [0, 0, 0, 0, 1, 1]], 1)


def test_only_a_unimodular_theta_stops_its_walk_at_j(fresh_catalog, ball_walks):
    for lid in ("D12_plus", "D8_2", "D20"):
        lat = catalog.build(lid)
        theta_prefix(lat, 6)
        assert ball_walks.pop() == lat.dim // 8 * lat.scale, lid
    d6 = root_lattice_d6()
    # norm 4: the 12 vectors +-2e_i and the 2^4 C(6, 4) with four entries +-1
    assert theta_prefix(d6, 4).coefficient(4) == 12 + 16 * 15
    assert ball_walks.pop() == 4
    parts = even_sublattice_and_shadow(catalog.build("D12_plus"))
    theta_prefix(parts.l0_dual, 3)
    assert ball_walks.pop() == 3 * parts.scale
    coset_theta(parts.l0_refined, parts.rep_l1, 3)  # a class of the walk just made
    assert not ball_walks


@pytest.mark.parametrize("lid", ["D12_plus", "D8_2"])
def test_a_shadow_walks_its_dual_once(lid, ball_walks):
    parts = even_sublattice_and_shadow(catalog.build(lid))
    assert parts.l0_dual is parts.l0_refined.dual()
    reps = (parts.rep_l1, parts.rep_l2, parts.rep_l3)
    cosets = [coset_theta(parts.l0_refined, rep, 3) for rep in reps]
    whole = theta_prefix(parts.l0_dual, 3)
    assert ball_walks == [3 * parts.scale]
    # L0* is L0 and its three cosets; L0 (class 0 of the same ball) walks itself
    sums = dict(theta_prefix(parts.l0_refined, 3).counts)
    for th in cosets:
        for q, c in th.as_pairs():
            sums[q] = sums.get(q, 0) + c
    assert sums == dict(whole.as_pairs()) and len(ball_walks) == 2
    # a lower bound reads the tally of the larger one
    ball_walks.clear()
    low = [coset_theta(parts.l0_refined, rep, 2) for rep in reps]
    assert [th.as_pairs() for th in low] == [
        [(q, c) for q, c in th.as_pairs() if q <= 2] for th in cosets
    ]
    assert theta_prefix(parts.l0_dual, Fraction(3, 2)).bound == Fraction(3, 2)
    assert not ball_walks


def test_a_ball_that_overruns_its_budget_keeps_nothing(ball_walks):
    parts = even_sublattice_and_shadow(catalog.build("D12_plus"))
    with pytest.raises(BudgetExceeded):
        coset_theta(parts.l0_refined, parts.rep_l1, 3, budget=10)
    assert parts.l0_dual._ball is None and len(ball_walks) == 1
    assert coset_theta(parts.l0_refined, parts.rep_l1, 3).coefficient(1) == 24
    assert len(ball_walks) == 2


def random_integral_lattice(rng, n):
    """A random integral lattice L at a scale where L* has an integer basis.

    Rows A of small entries span L in true coordinates; written as d A at
    scale d^2, d = det(A A^T), L*'s basis s G^-1 B = d (A A^T)^-1 A is an
    integer matrix.
    """
    while True:
        a = rng.integers(-2, 3, size=(n, n))
        d = det((a @ a.T).tolist())
        if d:
            return Lattice(d * a, d * d)


def brute_coset(lat, shift, max_norm):
    """Nonzero counts by true norm of shift + L to max_norm, from a provable box."""
    bound = int(max_norm * lat.scale)
    b = lat.basis.astype(float)
    center = np.linalg.solve(b.T, shift.astype(float))  # shift = center * B
    # |x_i + center_i| <= sqrt(bound * (G^-1)_ii) for every vector of the coset's ball
    rad = np.sqrt(bound * np.linalg.inv(b @ b.T).diagonal())
    ranges = [range(int(np.floor(-c - r)) - 1, int(np.ceil(-c + r)) + 2) for c, r in zip(center, rad)]
    counts = {}
    for x in itertools.product(*ranges):
        v = shift + np.array(x) @ lat.basis
        q = int(v @ v)
        if q <= bound:
            counts[Fraction(q, lat.scale)] = counts.get(Fraction(q, lat.scale), 0) + 1
    return sorted(counts.items())


def test_cosets_of_random_lattices_match_bruteforce():
    rng = np.random.default_rng(31)
    orders = set()
    for _ in range(12):
        lat = random_integral_lattice(rng, int(rng.integers(2, 5)))
        assert lat.is_integral()
        dual = lat.dual()
        for _ in range(4):
            shift = rng.integers(-2, 3, size=lat.dim) @ dual.basis
            orders.add(next(m for m in range(1, 10**4) if lat.contains(m * shift)))
            assert coset_theta(lat, shift, 3).as_pairs() == brute_coset(lat, shift, 3)
    assert {2, 4} <= orders


def test_coset_theta_rejects_what_is_no_class_of_the_dual_ball():
    z2 = Lattice(2 * np.eye(2, dtype=np.int64), 4)  # Z^2 = Z^2*
    with pytest.raises(PreconditionViolation, match="shift is not in the dual lattice"):
        coset_theta(z2, np.array([1, 1]), 2)
    with pytest.raises(PreconditionViolation, match=r"shift of shape \(3,\)"):
        coset_theta(z2, np.array([2, 0, 0]), 2)
    # (1/sqrt 2) Z^2 has norms 1/2: not integral, so it does not lie in its dual
    with pytest.raises(PreconditionViolation, match="needs an integral lattice"):
        coset_theta(Lattice(np.eye(2, dtype=np.int64), 2), np.zeros(2, dtype=np.int64), 2)
    # 2 Z^2 at scale 1: (1, 1) lies in L* = Z^2 / 2, which has no integer basis at scale 1
    two = Lattice(2 * np.eye(2, dtype=np.int64), 1)
    with pytest.raises(PreconditionViolation, match="no integer basis at scale 1"):
        coset_theta(two, np.array([1, 1]), 2)
    # a zero shift is the lattice's own theta prefix
    assert coset_theta(z2, np.zeros(2, dtype=np.int64), 2).as_pairs() == theta_prefix(z2, 2).as_pairs()


def test_a_series_past_its_budget_raises_at_once():
    lat = catalog.build("D12_plus")
    theta_prefix(lat, 2)  # the reduction is made outside the timed call
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="theta series coefficient products"):
        theta_prefix(lat, 10**6, budget=10**6)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("lid", catalog.catalog_list("lattice"))
def test_shadow_of_every_catalog_lattice(lid):
    lat = catalog.build(lid)
    parts = even_sublattice_and_shadow(lat)
    n = lat.dim
    # L0* is dual to L0: their bases pair to the identity, exactly
    pairing = parts.l0_dual.basis.astype(object) @ parts.l0_refined.basis.T.astype(object)
    assert (pairing == parts.scale * np.eye(n, dtype=object)).all()
    # L0 is an even sublattice of index 2 in L; the shadow cosets lie outside L, l2 inside
    assert _in_lattice(lat, parts.l0_refined.basis)
    assert not np.any(parts.l0_refined.gram_true().diagonal() % 2)
    assert abs(det(parts.l0_refined.gram_true().tolist())) == 4
    assert _in_lattice(lat, parts.rep_l2)
    assert not _in_lattice(lat, parts.rep_l1)
    assert not _in_lattice(lat, parts.rep_l3)


def _in_lattice(lat, rows) -> bool:
    """Membership in L of rows written at the refined scale 4s: even, and half of them in L."""
    return not np.any(rows % 2) and lat.contains(rows // 2)


# coset reps of D12_plus and D8_2 at the refined scale; bench/reference.json
# pins the coset thetas of l1, l2 and l3 in this order
SHADOW_REPS = {
    "D12_plus": (
        [-1, 1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1],
        [-2, 0, -2, -2, -2, -4, 0, 0, 0, 0, 2, 0],
        [1, 1, 3, 1, 3, 3, -1, -1, -1, -1, -1, 1],
    ),
    "D8_2": (
        [-8, -8, -4, -4, -4, 0, -6, -2, 0, 0, 0, 0, 0, 0, 2, 2],
        [-2, -2, 2, -2, 2, 2, -4, -2, 0, 0, 0, 0, 0, 0, 2, 0],
        [-6, -6, -6, -2, -6, -2, -2, 0, 0, 0, 0, 0, 0, 0, 0, 2],
    ),
}


@pytest.mark.parametrize("lid", sorted(SHADOW_REPS))
def test_shadow_reps_are_pinned(lid):
    parts = even_sublattice_and_shadow(catalog.build(lid))
    got = tuple(r.tolist() for r in (parts.rep_l1, parts.rep_l2, parts.rep_l3))
    assert got == SHADOW_REPS[lid]


def test_shadow_rejects_even():
    e8 = _e8()
    assert e8.is_unimodular() and e8.is_even()
    with pytest.raises(PreconditionViolation, match=r"no odd-norm basis vector \(even lattice\)"):
        even_sublattice_and_shadow(e8)


def _e8():
    # D8 roots plus the all-halves glue vector, written at scale 4 so every
    # coordinate doubles to an integer
    rows = 2 * np.array([
        [2, 0, 0, 0, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0, 0, 0],
        [0, 0, -1, 1, 0, 0, 0, 0],
        [0, 0, 0, -1, 1, 0, 0, 0],
        [0, 0, 0, 0, -1, 1, 0, 0],
        [0, 0, 0, 0, 0, -1, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
    ], dtype=np.int64)
    rows[7] = 1  # (1/2, ..., 1/2) in scale-4 coordinates
    return Lattice(rows, 4)


def test_contains_frame_and_find_frame():
    lat = Lattice(np.eye(4, dtype=np.int64), 1)
    frame = find_frame(lat, 1)
    assert frame is not None
    assert sorted(frame.vectors.tolist()) == [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    assert contains_frame(lat, frame)


def test_find_frame_rejects_a_norm_below_one():
    lat = Lattice(np.eye(4, dtype=np.int64), 1)
    with pytest.raises(PreconditionViolation, match="frame norm 0 is not a positive integer"):
        find_frame(lat, 0)
    with pytest.raises(PreconditionViolation, match=r"bound -2 is outside \[0, 2\^62\)"):
        find_frame(lat, -2)


def test_contains_rejects_a_vector_of_the_wrong_length():
    lat = catalog.build("D8_2")  # dimension 16
    with pytest.raises(PreconditionViolation, match="length 3 for a lattice in dimension 16"):
        lat.contains([1, 2, 3])


def test_frame_in_shell_at_large_scale():
    # Z^4 at scale 4099^2: inner products of these rows reach ~1.5e8 > 2^24
    a, b, c, d = 1, 1, 3, 1
    quaternion = np.array(
        [[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]], dtype=np.int64
    )
    lat = Lattice(4099 * np.eye(4, dtype=np.int64), 4099**2)
    frame = frame_in_shell(lat, 4099 * quaternion, 12)
    assert frame is not None and frame.norm_k == 12 and frame.scale == 4099**2


def test_norm_shell_holds_one_of_each_pair():
    lat = d6_lattice()
    shell = norm_shell(lat, 2)
    assert 2 * len(shell) == theta_prefix(lat, 2).coefficient(2)
    assert shell.tolist() == sorted(shell.tolist())
    for row in shell:
        assert row[np.flatnonzero(row)[0]] > 0
    frame = frame_in_shell(lat, shell, 2)
    assert frame is not None and contains_frame(lat, frame)
    assert frame_in_shell(lat, shell[: lat.dim - 1], 2) is None


def test_frame_membership_rejects_perturbed():
    lat = d6_lattice()
    frame = build_frame(D6_SEED, FrameQuadruple(0, 0, 3, 0))
    assert contains_frame(lat, frame)
    bad = frame.vectors.copy()  # the frame's own array is read-only
    bad[0, 0] += 1
    with pytest.raises(PreconditionViolation):
        Frame(bad, 3, 3)  # Gram check fires


def test_frame_rejects_rows_whose_gram_wraps():
    # each row has norm 2^64 + 1, yet the int64 Gram of these rows reads I
    with pytest.raises(PreconditionViolation):
        Frame(((2**32, 1), (-1, 2**32)), 1, 1)


def test_frames_and_seeds_hold_read_only_int64_and_compare_by_identity():
    frame = find_frame(Lattice(np.eye(4, dtype=np.int64), 1), 1)
    for rows in (frame.vectors, D6_SEED.matrix):
        assert rows.dtype == np.int64 and not rows.flags.writeable
    assert frame == frame and frame != Frame(frame.vectors, frame.scale, frame.norm_k)
    assert D6_SEED == D6_SEED and D6_SEED != SkewSeed(D6_SEED.matrix, k=3, m=25, ell=1)


def test_lattices_and_shadow_parts_compare_by_identity():
    lat = Lattice(np.eye(2, dtype=np.int64), 1)
    assert lat == lat and lat != Lattice(np.eye(2, dtype=np.int64), 1)
    parts = even_sublattice_and_shadow(catalog.build("D12_plus"))
    assert parts == parts and parts != even_sublattice_and_shadow(catalog.build("D12_plus"))


def _solve_member(basis, v) -> bool:
    """Reference membership: an exact rational solve of x B = v."""
    sol = solve_rows(np.asarray(basis).tolist(), [[int(a) for a in v]])
    return all(x.denominator == 1 for x in sol[0])


def _perturbed(v, rng):
    w = v.copy()
    w[rng.integers(len(w))] += int(rng.choice([-1, 1]))
    return w


def _agrees_with_solve_member(target, rng, monkeypatch):
    """contains against the rational oracle: members, perturbed vectors, and batches.

    Every target is unimodular, so every answer must be the dual test's: `solve_rows` is
    never called.
    """
    calls = []
    monkeypatch.setattr(zklat.lattice, "solve_rows", lambda *args: calls.append(args))
    b = target.basis
    members, outside = [], []
    for _ in range(30):
        v = rng.integers(-3, 4, size=target.dim) @ b
        assert target.contains(v) and _solve_member(b, v)
        w = _perturbed(v, rng)
        assert target.contains(w) == _solve_member(b, w)
        members.append(v)
        if not _solve_member(b, w):
            outside.append(w)
    assert outside
    assert target.contains(np.array(members))
    assert not target.contains(np.array(members + outside[:1]))
    assert target.is_unimodular() and not calls


def test_contains_agrees_with_solve_fraction(monkeypatch):
    lat = catalog.build("D12_plus")
    red = Lattice(lat.reduced_basis(), lat.scale)
    assert hnf(red.basis.tolist()) != red.basis.tolist()  # not in HNF
    rng = np.random.default_rng(12)
    for target in (lat, red):
        _agrees_with_solve_member(target, rng, monkeypatch)


@pytest.mark.parametrize("lid", ["D8_2", "D4_5", "A5_4", "D20", "R28_32", "R28_15"])
def test_dual_test_agrees_with_solve_fraction(lid, monkeypatch):
    # the other catalog lattices up to dimension 28 (D12_plus: the test above)
    lat = catalog.build(lid)
    rng = np.random.default_rng(22)
    for target in (lat, Lattice(lat.reduced_basis(), lat.scale)):
        _agrees_with_solve_member(target, rng, monkeypatch)


def _hnf_oracle(basis, v) -> bool:
    """Reference membership with no solve: v joins the span iff the HNF does not change."""
    h = hnf(basis.tolist())
    return hnf(h + [[int(a) for a in v]]) == h


def _not_unimodular(name):
    """A lattice that is not unimodular, and vectors outside it: L0 of a
    catalog lattice at the refined scale, or D4."""
    if name == "D4":
        d4 = Lattice([[1, 1, 0, 0], [1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]], 1)
        return d4, [[1, 0, 0, 0], [1, 1, 1, 0], [3, -2, 0, 0]]
    lat = catalog.build(name)
    parts = even_sublattice_and_shadow(lat)
    l0 = parts.l0_refined
    # an odd-norm basis vector of L, at the refined scale, lies in L but not in L0
    odd = 2 * lat.basis[int(np.argmax(lat.gram_true().diagonal() % 2))]
    return l0, [parts.rep_l1, parts.rep_l2, parts.rep_l3] + [odd + row for row in l0.basis[:4]]


@pytest.mark.parametrize("name", ["D12_plus", "D8_2", "D4"])
def test_contains_on_lattices_that_are_not_unimodular(name):
    lat, outside = _not_unimodular(name)
    assert lat.is_integral() and not lat.is_unimodular()
    rng = np.random.default_rng(27)
    members = [rng.integers(-3, 4, size=lat.dim) @ lat.basis for _ in range(20)]
    for v in members:
        assert lat.contains(v) and _hnf_oracle(lat.basis, v)
    for v in outside:
        assert not lat.contains(v) and not _hnf_oracle(lat.basis, v)
    assert lat.contains(np.array(members))
    assert not lat.contains(np.array(members + [outside[0]]))


def test_contains_frame_rejects_a_frame_at_another_scale():
    # 3 I at scale 9 is Z^2, and so is 2 I at scale 4: the frame is in the
    # lattice, but written at another scale
    lat = Lattice(3 * np.eye(2, dtype=np.int64), 9)
    for frame in (Frame(2 * np.eye(2, dtype=np.int64), 4, 1), Frame(((1, 1), (1, -1)), 2, 1)):
        with pytest.raises(PreconditionViolation, match=f"frame at scale {frame.scale}"):
            contains_frame(lat, frame)
    assert contains_frame(lat, Frame(3 * np.eye(2, dtype=np.int64), 9, 1))


def test_contains_frame_rejects_a_frame_of_another_shape():
    # both rows of the 2-row frame lie in Z^4, yet it is no 4-frame of Z^4
    lat = Lattice(np.eye(4, dtype=np.int64), 1)
    for frame in (Frame(np.eye(4, dtype=np.int64)[:2], 1, 1), Frame(np.eye(3, dtype=np.int64), 1, 1)):
        want = f"frame of shape {frame.vectors.shape} for a basis of shape (4, 4)"
        with pytest.raises(PreconditionViolation, match=re.escape(want)):
            contains_frame(lat, frame)


def test_contains_keeps_rows_beyond_the_int64_cap_exact():
    # Z^2; each row fits in int64, but its norm is above 2^62, and its
    # product with the basis row (3, 0) would wrap in int64
    lat = Lattice(3 * np.eye(2, dtype=np.int64), 9)
    assert lat.contains([3 * 2**61, 3]) and not lat.contains([3 * 2**61, 1])
    # entries in [2^63, 2^64), which numpy would read as floats, and beyond 2^64
    assert lat.contains([3 * 2**62, 0]) and not lat.contains([3 * 2**62 + 1, 0])
    assert lat.contains([[3 * 2**70, -3], [3, 0]])
    assert not lat.contains([[3 * 2**70 + 1, 0], [3, 0]])


def test_a_dual_vector_outside_a_lattice_of_index_two_is_rejected():
    # L0, the even sublattice of D12_plus, is integral of index 2 in L.  Every
    # coset rep of L0*/L0 passes the dual criterion B v = 0 (mod s), yet none
    # lies in L0: that criterion decides membership only when L = L*.
    parts = even_sublattice_and_shadow(catalog.build("D12_plus"))
    l0 = parts.l0_refined
    assert l0.is_integral() and not l0.is_unimodular()
    for rep in (parts.rep_l1, parts.rep_l2, parts.rep_l3):
        assert not np.any(l0.basis @ rep % parts.scale)
        assert not l0.contains(rep)
    assert l0.contains(l0.basis[0] - 3 * l0.basis[5])


@pytest.mark.parametrize("lid", ["D12_plus", "D8_2", "D4_5", "A5_4", "D20"])
def test_every_explicit_frame_passes_contains_frame(lid, monkeypatch):
    model = catalog.build(lid)
    reports = [catalog.frame_report(lid, k) for k in range(1, 51)]
    frames = [v.frame for v in reports if v.frame is not None]
    # permuting the columns keeps F F^T and mostly leaves the lattice
    swapped = [Frame(f.vectors[:, ::-1], f.scale, f.norm_k) for f in frames]

    def oracle(f):
        return all(_solve_member(model.basis, row) for row in f.vectors)

    assert frames and all(f.scale == model.scale and oracle(f) for f in frames)
    want = [oracle(f) for f in swapped]
    assert not all(want)

    def no_solve(*args):
        raise AssertionError("a unimodular lattice took the solve path")

    monkeypatch.setattr(zklat.lattice, "solve_rows", no_solve)
    for lat in (model, Lattice(model.basis, model.scale)):  # cached and fresh unimodularity
        assert all(contains_frame(lat, f) for f in frames)
        assert [contains_frame(lat, f) for f in swapped] == want


def _rank_deficient(name):
    if name == "D12_plus_rank_11":
        b = catalog.build("D12_plus").reduced_basis().copy()
        b[-1] = b[0] + b[1]
        return b, 3
    return np.array([[2, 1, 0], [0, 1, 1], [2, 2, 1]]), 1  # row 2 = row 0 + row 1


@pytest.mark.parametrize("name", ["D12_plus_rank_11", "rank_2_in_dim_3"])
def test_a_rank_deficient_basis_is_no_lattice(name):
    # the constructor's determinant refuses it, so no verdict (membership,
    # minimum, theta, dual) is ever asked of dependent rows
    b, scale = _rank_deficient(name)
    want = "^basis rows are linearly dependent: no lattice basis$"
    with pytest.raises(PreconditionViolation, match=want):
        Lattice(b, scale)


def test_contains_refuses_entries_that_are_not_integers():
    # one lattice on each path: D12_plus is unimodular (the int64 dual test),
    # D4 is not (x B = v solved exactly); neither truncates 1/2 or 0.5 to 0
    d12 = catalog.build("D12_plus")
    d4 = Lattice([[1, 1, 0, 0], [1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]], 1)
    assert d12.is_unimodular() and not d4.is_unimodular()
    for lat in (d12, d4):
        zero = [0] * (lat.dim - 1)
        b0 = lat.basis[0]
        for rows in (
            [Fraction(1, 2)] + zero,
            [0.5] + zero,
            3.7 * b0,
            np.array([b0, 2.5 * b0]),
            [float("nan")] + zero,
            [float("inf")] + zero,
        ):
            with pytest.raises(PreconditionViolation, match="^vector entry .* is not an integer$"):
                lat.contains(rows)
        assert lat.contains(b0) and lat.contains([int(x) for x in b0])


@pytest.mark.parametrize("make, message", [
    (lambda: Lattice([[1.5, 0], [0, 1]], 1), "basis entry 1.5"),
    (lambda: Lattice(np.eye(2), 1), "basis entry 1.0"),
    (lambda: Lattice([[Fraction(1, 2), 0], [0, 1]], 1), "basis entry Fraction(1, 2)"),
    (lambda: Lattice(np.eye(2, dtype=np.int64), 1.5), "lattice scale 1.5"),
    (lambda: Lattice(np.eye(2, dtype=np.int64), float("nan")), "lattice scale nan"),
    (lambda: Frame(np.eye(2), 1, 1), "frame entry 1.0"),
    (lambda: Frame(np.eye(2, dtype=np.int64), 1.0, 1), "frame scale 1.0"),
    (lambda: Frame(np.eye(2, dtype=np.int64), 1, Fraction(1)), "frame norm Fraction(1, 1)"),
], ids=["float_entry", "float_array", "fraction_entry", "float_scale", "nan_scale",
        "float_frame", "float_frame_scale", "fraction_norm_k"])
def test_constructors_refuse_what_is_not_an_integer(make, message):
    with pytest.raises(PreconditionViolation, match=f"^{re.escape(message)} is not an integer$"):
        make()
