"""End-to-end acceptance checks for the catalog and its certificates.

Each test is an independently computed fact: self-duality and skew
identities re-derived from the raw generator data, minimum norms and
weights by exhaustive enumeration, frame certificates by exact Gram and
membership checks.  The large-dimension rows and the dimension-36 theta
prefix run only with --slow.
"""

import random
import zlib
from fractions import Fraction

import numpy as np
import pytest
from code_oracle import min_euclidean_weight_naive, random_selfdual_code

from zklat import catalog
from zklat.codes import ZkCode, is_self_dual, min_euclidean_weight
from zklat.lattice import (
    Frame,
    Lattice,
    _unimodular_theta,
    construction_a,
    contains_frame,
    coset_theta,
    even_sublattice_and_shadow,
    find_frame,
    min_norm,
    theta_prefix,
)
from zklat.skew import (
    REPRESENTATION_CASES,
    FrameQuadruple,
    build_code_from_skew,
    build_frame,
    frame_constant,
    representation_search,
    scale_frame,
)

# these tests prove minima of catalog objects, so each builds them afresh
pytestmark = pytest.mark.usefixtures("fresh_catalog")

SLOW_NODE_BUDGET = 2 * 10**11


# -- 1. catalog validity ----------------------------------------------------

def test_all_seeds_satisfy_skew_identities():
    seeds = catalog.catalog_list("skew_seed")
    assert len(seeds) == 12
    for sid in seeds:
        seed = catalog.build(sid)  # the constructor enforces the identities
        m = seed.matrix
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


def _codes_with_d_e(lo, hi):
    """Catalog codes of length lo..hi that carry an expected d_E."""
    return [
        cid for cid in catalog.catalog_list("code")
        if "d_E" in catalog.catalog_get(cid).expected and lo <= catalog.build(cid).n <= hi
    ]


@pytest.mark.parametrize("cid", _codes_with_d_e(1, 28))
def test_catalog_d_e(cid):
    assert min_euclidean_weight(catalog.build(cid)) == catalog.catalog_get(cid).expected["d_E"]


# length 48 is left out: its proofs run at L48 scale, 4-5 minutes each on 2
# vCPUs (C_7_48 258 s, C_9_48 236 s)
@pytest.mark.slow
@pytest.mark.parametrize("cid", _codes_with_d_e(29, 47))
def test_catalog_d_e_large(cid):
    assert min_euclidean_weight(catalog.build(cid)) == catalog.catalog_get(cid).expected["d_E"]


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
        rows = frame.vectors
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
    # D20 walks to norm J = 20 // 8 = 2; N_3..N_5 are read off the series
    th = theta_prefix(catalog.build("D20"), 5)
    assert [th.coefficient(q) for q in range(6)] == [1, 0, 760, 0, 77560, 524288]


def test_transcribed_theta_prefixes_follow_from_the_first_coefficients():
    # N_0..N_J (J = n // 8), zero below the minimum norm, fix the rest
    for lid, low in (("D20", [1, 0, 760]), ("L36", [1, 0, 0, 0, 42840])):
        n = catalog.build(lid).dim
        series = _unimodular_theta(n, low, 5, budget=10**6)
        for q, c in catalog.catalog_get(lid).expected["theta"].items():
            assert series[q] == c, (lid, q)


@pytest.mark.slow
def test_theta_prefix_dim36():
    # walks to norm J = 36 // 8 = 4 and derives N_5 from N_0..N_4
    th = theta_prefix(catalog.build("L36"), 5, budget=SLOW_NODE_BUDGET)
    assert [th.coefficient(q) for q in range(6)] == [1, 0, 0, 0, 42840, 1916928]


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
    # two fresh copies of each code: d_E reads a lift minimum that min_norm
    # proved on the same object, so each side must walk its own proof
    for cid in ["C_13_12", "C_23_12", "C_7_16", "C_5_20", "Cp_4_20"]:
        code = catalog.build(cid)
        d_e = min_euclidean_weight(ZkCode(code.k, code.generators))
        expect = min(Fraction(code.k), Fraction(d_e, code.k))
        assert min_norm(construction_a(ZkCode(code.k, code.generators))) == expect


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


def _times(a, b, top):
    """The product of two power series, to exponent top."""
    out = [0] * (top + 1)
    for i, x in enumerate(a[: top + 1]):
        if x:
            for j, y in enumerate(b[: top + 1 - i]):
                out[i + j] += x * y
    return out


def _power(f, e, top):
    out = [1] + [0] * top
    for _ in range(e):
        out = _times(out, f, top)
    return out


def shadow_series(lat, max_norm):
    """Theta_S of L to max_norm, from L's own theta series (Conway and Sloane 1990).

    In x = q^(1/4), so that exponent e counts norm e / 4: theta_3 =
    sum_m x^(4m^2), theta_2 = sum_m x^((2m+1)^2), theta_4(z) =
    sum_m (-1)^m x^(4m^2) and theta_4(2z) = sum_m (-1)^m x^(8m^2).  L's
    series is sum_j a_j theta_3^(n-8j) Delta_8^j with Delta_8 =
    theta_2^4 theta_4^4 / 16, its a_j fixed by the counts N_0..N_J of L's
    own walk to J = n // 8; then Theta_S = sum_j (-1)^j 16^-j a_j
    theta_2^(n-8j) theta_4(2z)^(8j).
    """
    n, fixed = lat.dim, lat.dim // 8
    top = 4 * max(max_norm, fixed)
    roots = range(-top, top + 1)
    theta2, theta3, theta4, theta4_2z = ([0] * (top + 1) for _ in range(4))
    for m in roots:
        for series, e, c in ((theta2, (2 * m + 1) ** 2, 1), (theta3, 4 * m * m, 1),
                             (theta4, 4 * m * m, 1 - 2 * (m % 2)), (theta4_2z, 8 * m * m, 1 - 2 * (m % 2))):
            if e <= top:
                series[e] += c
    delta8 = [Fraction(c, 16) for c in _times(_power(theta2, 4, top), _power(theta4, 4, top), top)]
    forms = [_times(_power(theta3, n - 8 * j, top), _power(delta8, j, top), top) for j in range(fixed + 1)]
    low = theta_prefix(lat, fixed)
    a = []
    for j in range(fixed + 1):
        assert forms[j][4 * j] == 1 and not any(forms[j][:4 * j])
        a.append(low.coefficient(j) - sum(ai * f[4 * j] for ai, f in zip(a, forms)))
    shadow = [0] * (top + 1)
    for j, aj in enumerate(a):
        term = _times(_power(theta2, n - 8 * j, top), _power(theta4_2z, 8 * j, top), top)
        shadow = [s + (-1) ** j * aj / Fraction(16**j) * t for s, t in zip(shadow, term)]
    assert all(Fraction(c).denominator == 1 for c in shadow)
    return [(Fraction(e, 4), int(c)) for e, c in enumerate(shadow) if c and e <= 4 * max_norm]


def shadow_counts(lat, max_norm):
    """The counts by norm of the shadow L1 u L3, from the coset thetas of L0*'s ball."""
    parts = even_sublattice_and_shadow(lat)
    counts = {}
    for rep in (parts.rep_l1, parts.rep_l3):
        for q, c in coset_theta(parts.l0_refined, rep, max_norm, budget=SLOW_NODE_BUDGET).as_pairs():
            counts[q] = counts.get(q, 0) + c
    return sorted(counts.items())


@pytest.mark.parametrize("lid, max_norm", [
    ("D12_plus", 3), ("D8_2", 2), ("D4_5", 3), ("A5_4", 3), ("D20", 3),
])
def test_shadow_theta_matches_the_series_of_l(lid, max_norm):
    lat = catalog.build(lid)
    assert shadow_counts(lat, max_norm) == shadow_series(lat, max_norm)


@pytest.mark.slow
@pytest.mark.parametrize("lid", ["R28_15", "L32_82", "L36"])
def test_shadow_theta_matches_the_series_of_l_large(lid):
    lat = catalog.build(lid)
    assert shadow_counts(lat, 3) == shadow_series(lat, 3)


def test_scale_frame_up_to_25():
    z4 = Lattice(np.eye(4, dtype=np.int64), 1)
    base = find_frame(z4, 1)
    for m in range(1, 26):
        scaled = scale_frame(base, m)  # constructor re-verifies the Gram
        assert scaled.norm_k == m
        assert contains_frame(z4, scaled)


def test_pruned_matches_naive_weight():
    rnd = random.Random(2026)
    for k, dsq in [(2, [1]), (5, [2, 3]), (10, [3, 7]), (13, [5, 8])]:
        for _ in range(3):
            code = random_selfdual_code(k, dsq, rnd.randint(2, 4), rnd)
            if code.cardinality > 10**5:
                continue
            assert is_self_dual(code)
            assert min_euclidean_weight(code) == min_euclidean_weight_naive(code)
