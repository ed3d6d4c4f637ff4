from fractions import Fraction

import numpy as np
import pytest

from zklat.codes import ZkCode, build_four_negacirculant, min_euclidean_weight
from zklat.errors import BadDimension, NotOdd, NotSelfDual, PreconditionViolation
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
from zklat.skew import FrameQuadruple, build_code_from_skew, build_frame_rows, skew_seed_from_rows

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
    rows = build_frame_rows(D6_SEED, FrameQuadruple(0, 0, 3, 0))
    frame = Frame(tuple(map(tuple, rows.tolist())), 3, 3)
    assert contains_frame(lat, frame)
    bad = rows.copy()
    bad[0, 0] += 1
    with pytest.raises(PreconditionViolation):
        Frame(tuple(map(tuple, bad.tolist())), 3, 3)  # Gram check fires
