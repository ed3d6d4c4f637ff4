from fractions import Fraction

import numpy as np
import pytest

from zklat import catalog
from zklat.codes import ZkCode, build_four_negacirculant, min_euclidean_weight
from zklat.errors import BadDimension, NotOdd, NotSelfDual, PreconditionViolation
from zklat.intmat import hnf, solve_fraction
from zklat.lattice import (
    Frame,
    Lattice,
    construction_a,
    contains_frame,
    coset_theta,
    even_neighbors,
    even_sublattice_and_shadow,
    find_frame,
    frame_in_shell,
    min_norm,
    norm_shell,
    theta_prefix,
    two_neighbor_at_vector,
)
from zklat.skew import FrameQuadruple, build_code_from_skew, build_frame, skew_seed_from_rows

D6_SEED = skew_seed_from_rows((0, 2, 2), (0, 1, -4), k=3, ell=1)


def d6_lattice():
    return construction_a(build_code_from_skew(D6_SEED))


def test_construction_a_tiny():
    lat = construction_a(ZkCode(2, ((1, 1),)))
    assert lat.is_unimodular()
    assert min_norm(lat) == 1  # isometric to Z^2


def test_construction_a_requires_selfdual():
    with pytest.raises(NotSelfDual):
        construction_a(ZkCode(2, ((1, 0),)))


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


def test_shadow_rejects_even():
    e8 = _e8()
    with pytest.raises(NotOdd):
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


def test_even_neighbors_z8():
    lat = Lattice(np.eye(8, dtype=np.int64), 1)
    n1, n2 = even_neighbors(lat)
    for nb in (n1, n2):
        assert nb.is_unimodular() and nb.is_even()
        assert min_norm(nb) == 2  # both neighbors are E8-like


def test_even_neighbors_bad_dimension():
    with pytest.raises(BadDimension):
        even_neighbors(d6_lattice())


def test_two_neighbor_e8():
    e8 = _e8()
    assert e8.is_unimodular() and e8.is_even()
    x = np.array([1, 1, 1, 1, 1, 1, 1, -1], dtype=np.int64) * 2  # norm 8, scale 4
    y = np.ones(8, dtype=np.int64)  # the glue vector, (x, y) = 3
    out = two_neighbor_at_vector(e8, x, y)
    assert out.is_unimodular() and not out.is_even()
    assert min_norm(out) == 1


def test_two_neighbor_precondition_errors():
    e8 = _e8()
    with pytest.raises(PreconditionViolation):
        two_neighbor_at_vector(e8, [2, 2, 0, 0, 0, 0, 0, 0], np.ones(8, dtype=np.int64))


def test_contains_frame_and_find_frame():
    lat = Lattice(np.eye(4, dtype=np.int64), 1)
    frame = find_frame(lat, 1)
    assert frame is not None
    assert sorted(frame.vectors) == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]
    assert contains_frame(lat, frame)


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
    bad = frame.np_vectors()
    bad[0, 0] += 1
    with pytest.raises(PreconditionViolation):
        Frame(bad, 3, 3)  # Gram check fires


def _solve_member(basis, v) -> bool:
    """Reference membership: an exact rational solve of x B = v."""
    sol = solve_fraction(np.asarray(basis).tolist(), [int(a) for a in v])
    return sol is not None and all(x.denominator == 1 for x in sol)


def _perturbed(v, rng):
    w = v.copy()
    w[rng.integers(len(w))] += int(rng.choice([-1, 1]))
    return w


def test_contains_agrees_with_solve_fraction():
    lat = catalog.build("D12_plus")
    red = Lattice(lat.reduced_basis(), lat.scale)
    assert hnf(red.basis.tolist()) != red.basis.tolist()  # not in HNF
    rng = np.random.default_rng(12)
    for target in (lat, red):
        b = target.basis
        outside = 0
        for _ in range(30):
            v = rng.integers(-3, 4, size=target.dim) @ b
            assert target.contains(v) and _solve_member(b, v)
            w = _perturbed(v, rng)
            assert target.contains(w) == _solve_member(b, w)
            outside += not _solve_member(b, w)
            # the same vectors given in the scales 4s and 9s
            for r in (2, 3):
                s = r * r * target.scale
                assert target.contains(r * v, s)
                assert target.contains(r * w, s) == _solve_member(b, w)
                assert not target.contains(r * v + 1, s)  # not divisible by r
            assert not target.contains(v, 2 * target.scale)  # ratio not a square
        assert outside > 0


def test_contains_rank_deficient_basis():
    full = catalog.build("D12_plus").reduced_basis()
    b = full.copy()
    b[-1] = b[0] + b[1]  # rank 11: the lattice spanned by rows 0..10 of full
    lat = Lattice(b, 3)

    def reference(v):
        # in lat iff integral in the full basis with no component on row 11
        sol = solve_fraction(full.tolist(), [int(a) for a in v])
        return all(x.denominator == 1 for x in sol) and sol[-1] == 0

    rng = np.random.default_rng(13)
    for _ in range(30):
        v = rng.integers(-3, 4, size=12) @ b
        assert lat.contains(v) and reference(v)
        w = _perturbed(v, rng)
        assert lat.contains(w) == reference(w)
        u = v + full[-1]  # in the full lattice, outside lat
        assert _solve_member(full, u) and not reference(u)
        assert not lat.contains(u)
