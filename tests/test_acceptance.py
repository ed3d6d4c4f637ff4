"""End-to-end acceptance checks for the catalog and its certificates.

Each test is an independently computed fact: self-duality and skew
identities re-derived from the raw generator data, minimum norms and
weights by exhaustive enumeration, frame certificates by exact Gram and
membership checks.  The large-dimension rows and the dimension-36 theta
prefix run only with --slow.
"""

import zlib
from fractions import Fraction

import numpy as np
import pytest

from zklat import catalog
from zklat.arith import REPRESENTATION_CASES, representation_search, scale_frame
from zklat.codes import (
    ZkCode,
    is_self_dual,
    min_euclidean_weight,
    min_euclidean_weight_naive,
)
from zklat.lattice import (
    Frame,
    Lattice,
    construction_a,
    contains_frame,
    coset_theta,
    even_neighbors,
    even_sublattice_and_shadow,
    find_frame,
    min_norm,
    theta_prefix,
)
from zklat.skew import FrameQuadruple, build_code_from_skew, build_frame, frame_constant

SLOW_NODE_BUDGET = 2 * 10**11


# -- 1. catalog validity ----------------------------------------------------

def test_all_seeds_satisfy_skew_identities():
    seeds = catalog.catalog_list("skew_seed")
    assert len(seeds) == 12
    for sid in seeds:
        seed = catalog.build(sid)  # the constructor enforces the identities
        m = seed.np_matrix()
        assert np.array_equal(m.T, -m)
        assert np.array_equal(m @ m.T, seed.m * np.eye(m.shape[0], dtype=np.int64))
        assert (seed.m + seed.ell**2 + 1) % seed.k == 0


def test_all_catalog_codes_are_self_dual():
    for cid in catalog.catalog_list("code"):
        assert is_self_dual(catalog.build(cid)), cid


# -- 2. minimum norms of the model lattices ---------------------------------

FAST_MIN_NORMS = {
    "D12_plus": 2, "D8_2": 2, "D4_5": 2, "A5_4": 2, "D20": 2,
    "R28_32": 3, "R28_15": 3,
}
SLOW_MIN_NORMS = {"L32_82": 4, "L36": 4, "L40": 4, "L44": 4, "L48": 5}


@pytest.mark.parametrize("lid", sorted(FAST_MIN_NORMS))
def test_model_min_norms_desk(lid):
    assert min_norm(catalog.build(lid)) == FAST_MIN_NORMS[lid]


@pytest.mark.slow
@pytest.mark.parametrize("lid", sorted(SLOW_MIN_NORMS))
def test_model_min_norms_large(lid):
    assert min_norm(catalog.build(lid), budget=SLOW_NODE_BUDGET) == SLOW_MIN_NORMS[lid]


# -- 3. extremal weights by exhaustive enumeration --------------------------

EXTREMAL_DESK_CODES = [
    # every catalog code at these lengths with at most 2^31 codewords
    "C_13_12", "C_23_12", "C_7_16",
    "C_5_20", "C_7_20", "Cp_5_20", "Cp_7_20", "Cpp_7_20",
]


@pytest.mark.parametrize("cid", EXTREMAL_DESK_CODES)
def test_extremal_weights(cid):
    code = catalog.build(cid)
    assert code.cardinality <= 2**31
    assert min_euclidean_weight(code) == 2 * code.k


# -- 4. frame certificates from every seed ----------------------------------

def _random_valid_quadruple(seed, rng):
    while True:
        a = int(rng.integers(-4, 5))
        b = int(rng.integers(-4, 5))
        d = a + seed.ell * b + seed.k * int(rng.integers(-1, 2))
        c = b + seed.ell * d + seed.k * int(rng.integers(-1, 2))
        if (a, b, c, d) != (0, 0, 0, 0):
            return FrameQuadruple(a, b, c, d)


@pytest.mark.parametrize("sid", sorted(catalog.catalog_list("skew_seed")))
def test_frame_rows_from_each_seed(sid):
    seed = catalog.build(sid)
    lat = construction_a(build_code_from_skew(seed))
    rng = np.random.default_rng(zlib.crc32(sid.encode()))
    for _ in range(5):
        quad = _random_valid_quadruple(seed, rng)
        frame = build_frame(seed, quad)  # Frame verifies F F^T = N k I exactly
        assert isinstance(frame, Frame)
        assert frame.scale == seed.k and frame.norm_k == frame_constant(seed, quad)
        rows = frame.np_vectors()
        assert np.array_equal(rows @ rows.T, frame.norm_k * seed.k * np.eye(len(rows), dtype=np.int64))
        assert contains_frame(lat, frame)


# -- 5. prime representations, case by case ---------------------------------

def _primes_below(n):
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


@pytest.mark.parametrize("label", sorted(REPRESENTATION_CASES))
def test_representation_cases_below_200(label):
    case = REPRESENTATION_CASES[label]
    for p in _primes_below(200):
        quad = representation_search(case, p)
        if p in case.excluded_primes:
            assert quad is None, (label, p)
        else:
            assert quad is not None, (label, p)
            total = quad.a**2 + case.m * quad.b**2 + quad.c**2 + case.m * quad.d**2
            assert total == case.k * p


# -- 6. theta-series prefixes -----------------------------------------------

def test_theta_prefix_dim20():
    th = theta_prefix(catalog.build("D20"), 5)
    assert th.coefficient(0) == 1
    assert th.coefficient(1) == 0 and th.coefficient(3) == 0
    assert th.coefficient(2) == 760
    assert th.coefficient(4) == 77560
    assert th.coefficient(5) == 524288


@pytest.mark.slow
def test_theta_prefix_dim36():
    th = theta_prefix(catalog.build("L36"), 5, budget=SLOW_NODE_BUDGET)
    assert th.coefficient(0) == 1
    for q in (1, 2, 3):
        assert th.coefficient(q) == 0
    assert th.coefficient(4) == 42840
    assert th.coefficient(5) == 1916928


# -- 7. frame existence, positive and negative ------------------------------

def test_find_frame_desk_iff():
    assert find_frame(catalog.build("D4_5"), 2) is not None
    assert find_frame(catalog.build("A5_4"), 2) is None  # exhaustive


def test_report_refutes_dim20_norm3():
    assert catalog.frame_report("D20", 3).status == "no"


def test_report_confirms_dim12_all_k():
    for k in range(2, 51):
        verdict = catalog.frame_report("D12_plus", k)
        assert verdict.status == "yes", (k, verdict.chain)


# -- 8. property suites -----------------------------------------------------

def test_min_norm_identity_on_desk_pairs():
    for cid in ["C_13_12", "C_23_12", "C_7_16", "C_5_20", "Cp_4_20"]:
        code = catalog.build(cid)
        d_e = min_euclidean_weight(code)
        expect = min(Fraction(code.k), Fraction(d_e, code.k))
        assert min_norm(construction_a(code)) == expect


def test_shadow_theta_additivity_small_dims():
    for lid in ["D12_plus", "D8_2", "D4_5"]:
        lat = catalog.build(lid)
        parts = even_sublattice_and_shadow(lat)
        bound = 3
        whole = theta_prefix(parts.l0_dual, bound)
        sums = {q: c for q, c in theta_prefix(parts.l0_refined, bound).as_pairs()}
        for rep in (parts.rep_l1, parts.rep_l2, parts.rep_l3):
            for q, c in coset_theta(parts.l0_refined, rep, bound).as_pairs():
                sums[q] = sums.get(q, 0) + c
        for q, c in whole.as_pairs():
            assert sums.get(q, 0) == c, (lid, q)


def test_scale_frame_up_to_25():
    z4 = Lattice(np.eye(4, dtype=np.int64), 1)
    base = find_frame(z4, 1)
    for m in range(1, 26):
        scaled = scale_frame(base, m)  # constructor re-verifies the Gram
        assert scaled.norm_k == m
        assert contains_frame(z4, scaled)


def _random_selfdual_code(k, dsq, n_half, rng):
    perm = rng.permutation(n_half)
    b = np.zeros((n_half, n_half), dtype=np.int64)
    for i, j in enumerate(perm):
        b[i, j] = dsq[int(rng.integers(len(dsq)))]
    gen = np.hstack([np.eye(n_half, dtype=np.int64), b]) % k
    return ZkCode(k, tuple(map(tuple, gen.tolist())))


def test_pruned_matches_naive_weight():
    rng = np.random.default_rng(2026)
    for k, dsq in [(2, [1]), (5, [2, 3]), (10, [3, 7]), (13, [5, 8])]:
        for _ in range(3):
            code = _random_selfdual_code(k, dsq, int(rng.integers(2, 5)), rng)
            if code.cardinality > 10**5:
                continue
            assert is_self_dual(code)
            assert min_euclidean_weight(code) == min_euclidean_weight_naive(code)


def test_neighbor_parity_properties():
    for lat in [Lattice(np.eye(8, dtype=np.int64), 1), catalog.build("D8_2")]:
        assert lat.is_unimodular() and not lat.is_even()
        for nb in even_neighbors(lat):
            assert nb.is_unimodular() and nb.is_even()
