import itertools
import math
import random
import re
from fractions import Fraction
import tracemalloc
import types

import numpy as np
import pytest

import zklat.shortvec
from zklat import catalog
from zklat.codes import ZkCode
from zklat.errors import BudgetExceeded, PreconditionViolation
from zklat.intmat import det, hnf
from zklat.lattice import Lattice, even_sublattice_and_shadow, find_frame
from zklat.shortvec import (
    BKZ_BLOCK,
    CHUNK,
    RECOMPUTE_ABOVE,
    _ball,
    _complete_unimodular,
    _factor,
    _fincke_pohst,
    _gso,
    _lll_core,
    _norm_step,
    _norms,
    _shortest,
    block_reduce,
    characters,
    enumerate_ball,
    enumerate_shell,
    int64_rows,
    shortest_norm,
)


def brute_counts(basis, bound, box=12):
    n = basis.shape[0]
    hist = np.zeros(bound + 1, dtype=np.int64)
    for coeffs in itertools.product(range(-box, box + 1), repeat=n):
        v = np.array(coeffs) @ basis
        q = int(v @ v)
        if q <= bound:
            hist[q] += 1
    return hist


def dense(ball, bound):
    """The class tally of `enumerate_ball` at scale 1 as a histogram of bound + 1 entries."""
    counts, norms, keys = ball
    assert counts.shape == (1, norms.size) and keys.shape == (1, 0)  # one class
    counts = counts[0]
    # only the norms that occur, ascending, each once
    assert (np.diff(norms) > 0).all() and (counts > 0).all() and norms.max(initial=0) <= bound
    hist = np.zeros(bound + 1, dtype=np.int64)
    hist[norms] = counts
    return hist


def ball_vectors(basis, bound):
    """Every vector `_ball` yields, each checked against its exact norm."""
    blocks = [np.zeros((0, basis.shape[1]), dtype=np.int64)]
    for v, q, _ in _ball(basis, bound):
        assert np.array_equal(np.einsum("ij,ij->i", v, v), q) and (q <= bound).all()
        blocks.append(v)
    return np.concatenate(blocks)


def test_z2_counts():
    basis = np.eye(2, dtype=np.int64)
    counts, norms, keys = enumerate_ball(basis, 4)
    assert norms.tolist() == [0, 1, 2, 4] and counts.tolist() == [[1, 4, 4, 4]]
    assert dense((counts, norms, keys), 4).tolist() == [1, 4, 4, 0, 4]


def test_z24_norm_counts():
    basis = np.eye(24, dtype=np.int64)
    hist = dense(enumerate_ball(basis, 2), 2)
    assert hist[1] == 48 and hist[2] == 4 * (24 * 23 // 2)


@pytest.mark.parametrize("seed", range(5))
def test_random_lattices_match_bruteforce(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    while True:
        basis = rng.integers(-3, 4, size=(n, n)).astype(np.int64)
        if round(np.linalg.det(basis.astype(float))) != 0:
            break
    bound = int(rng.integers(4, 12))
    assert np.array_equal(dense(enumerate_ball(basis, bound), bound), brute_counts(basis, bound))
    ball_vectors(basis, bound)  # the reader's vectors carry their exact norms


@pytest.mark.parametrize("seed", range(6))
def test_class_tally_matches_bruteforce(seed):
    # a random basis at a scale that divides none of its Gram entries: M is
    # not integral, and its classes are the cosets of M & M* in M
    rng = np.random.default_rng(900 + seed)
    basis = random_basis(rng, int(rng.integers(2, 5)))
    scale = int(rng.integers(2, 7))
    bound = int(rng.integers(6, 20))
    counts, norms, keys = enumerate_ball(basis, bound, scale)
    chars = characters(basis, scale)
    v, q = brute_ball(basis, bound)
    want = {}
    for key, norm in zip((v @ chars.T % scale).tolist(), q.tolist()):
        want[tuple(key), norm] = want.get((tuple(key), norm), 0) + 1
    got = {(tuple(k), n): c for k, row in zip(keys.tolist(), counts.tolist())
           for n, c in zip(norms.tolist(), row) if c}
    assert got == want
    assert keys.tolist() == sorted(keys.tolist()) and (np.diff(norms) > 0).all()
    # v and w share a class iff v - w lies in M*: (v - w) . b = 0 mod scale for every row b
    pair = (v @ basis.T % scale)[:, None, :] == (v @ basis.T % scale)[None, :, :]
    same = (v @ chars.T % scale)[:, None, :] == (v @ chars.T % scale)[None, :, :]
    assert np.array_equal(pair.all(axis=2), same.all(axis=2))


def test_an_integral_basis_has_no_characters():
    # Z^2 at scale 1, and D4 at scale 1: one class, no pairing product
    d4 = np.array([[1, 1, 0, 0], [1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]])
    for basis in (np.eye(2, dtype=np.int64), d4):
        assert characters(basis, 1).shape == (0, basis.shape[1])
        counts, norms, keys = enumerate_ball(basis, 4)
        assert counts.shape[0] == 1 and keys.shape == (1, 0)
    # Z^2 at scale 4 is (1/2) Z^2: both rows are characters, 16 classes mod 2 Z^2
    chars = characters(np.eye(2, dtype=np.int64), 4)
    assert chars.tolist() == [[1, 0], [0, 1]]
    counts, _, keys = enumerate_ball(np.eye(2, dtype=np.int64), 32, 4)
    assert len(keys) == 16 and counts.sum() == 101


def test_budget_raises():
    basis = np.eye(8, dtype=np.int64)
    with pytest.raises(BudgetExceeded):
        enumerate_ball(basis, 16, budget=10)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_block_reduce_preserves_lattice_and_shortens(seed):
    rng = random.Random(seed)
    n = 5
    basis = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
    if det(basis) == 0:
        pytest.skip("degenerate draw")
    red = block_reduce(np.array(basis, dtype=np.int64)).tolist()
    assert abs(det(red)) == abs(det(basis))
    # same lattice: equal Hermite normal forms
    assert hnf(red) == hnf(basis)
    # reduction never increases the shortest basis-vector norm
    norm = lambda rows: min(sum(x * x for x in r) for r in rows)
    assert norm(red) <= norm(basis)


# -- the chunked enumerator against numpy brute force ------------------------


def random_basis(rng, n, spread=3):
    while True:
        basis = rng.integers(-spread, spread + 1, size=(n, n)).astype(np.int64)
        if round(np.linalg.det(basis.astype(float))) != 0:
            return basis


def brute_ball(basis, bound):
    """Every vector x * basis of norm <= bound, from a provable box."""
    n = basis.shape[0]
    ginv = np.linalg.inv((basis @ basis.T).astype(float))
    # |x_i| <= sqrt(bound * (G^-1)_ii) inside the ball
    box = int(np.ceil(np.sqrt(bound * ginv.diagonal()).max())) + 1
    coeffs = np.indices((2 * box + 1,) * n).reshape(n, -1).T - box
    v = coeffs @ basis
    q = np.einsum("ij,ij->i", v, v)
    return v[q <= bound], q[q <= bound]


@pytest.mark.parametrize("seed", range(6))
def test_shortest_norm_matches_bruteforce(seed):
    rng = np.random.default_rng(100 + seed)
    basis = random_basis(rng, int(rng.integers(2, 5)))
    v, q = brute_ball(basis, int((basis * basis).sum(axis=1).max()))
    assert shortest_norm(basis) == q[q > 0].min()
    # keep = outside 2Z^n; the ball holds every basis row, one of them kept
    outside = (v % 2).any(axis=1)
    assert shortest_norm(basis, keep=lambda w: (w % 2).any(axis=1)) == q[outside].min()


def shortest_norm_unit_step(basis, keep=None):
    """The shrinking walk with its bound one below the best norm, not one norm step."""
    keep = keep or (lambda v: v.any(axis=1))
    best = int(_norms(basis)[keep(basis)].min())
    for v, q, limit in _ball(basis, best - 1):
        short = q < best
        low = int(q[short][keep(v[short])].min(initial=best))
        limit -= best - low
        best = low
    return best


def assert_shortest_norm_exact(basis, m):
    """shortest_norm against brute force and the unit-step walk, unfiltered and outside m Z^n."""
    v, q = brute_ball(basis, int((basis * basis).sum(axis=1).max()))
    keep = lambda w: (w % m).any(axis=1)
    assert keep(basis).any()
    for f, want in ((None, q[q > 0].min()), (keep, q[keep(v)].min())):
        assert shortest_norm(basis, keep=f) == shortest_norm_unit_step(basis, f) == want


@pytest.mark.parametrize("scale", [2, 3, 5])
@pytest.mark.parametrize("seed", range(3))
def test_shortest_norm_on_scaled_bases(scale, seed):
    # every norm of a basis scaled by s is a multiple of s^2, so the walk starts s^2 below best
    rng = np.random.default_rng(700 + 10 * scale + seed)
    while True:
        basis = scale * random_basis(rng, int(rng.integers(2, 5)))
        if (basis % (2 * scale)).any():
            break
    assert _norm_step(basis) % scale**2 == 0
    assert_shortest_norm_exact(basis, 2 * scale)


@pytest.mark.parametrize("seed", range(4))
def test_shortest_norm_when_the_step_comes_from_twice_the_off_diagonal(seed):
    # D_4 under a random unimodular change of basis: even diagonal, some odd
    # off-diagonal entries, so the step is 2 = gcd(G_ii, 2 G_ij) while gcd(G_ij) is 1
    d4 = np.array([[1, 1, 0, 0], [1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]])
    rng = np.random.default_rng(800 + seed)
    basis = _complete_unimodular(np.append(1, rng.integers(-2, 3, size=3))) @ d4
    gram = basis @ basis.T
    assert not (gram.diagonal() % 2).any() and (gram % 2).any()
    assert _norm_step(basis) == 2
    assert_shortest_norm_exact(basis, 2)


def test_a_step_shared_by_the_diagonal_alone_is_not_the_norm_step():
    # row norms 9, 9, 9 but G_01 = 8: (1, 2, 2) - (2, 2, 1) has norm 2
    basis = np.array([[1, 2, 2], [2, 2, 1], [0, 0, 3]])
    assert _norm_step(basis) == 1
    assert_shortest_norm_exact(basis, 3)
    assert shortest_norm(basis) == 2


def test_norm_step_is_exact_on_rows_near_the_norm_cap():
    # G_01 = 2a^2 - a lies in (2^61, 2^62), so 2 G_01 lies in (2^62, 2^63)
    a = math.isqrt(2**61)
    basis = np.array([[a, a], [a, a - 1]], dtype=np.int64)
    g01 = 2 * a * a - a
    assert 2**61 < g01 < 2**62
    assert _norm_step(basis) == math.gcd(2 * a * a, a * a + (a - 1) ** 2, 2 * g01)


def test_shortest_norm_lowers_its_limit_mid_walk(monkeypatch):
    # 3 Z^14 under a random unimodular L U: every basis row is longer than 9,
    # so the walk meets shorter vectors and lowers its limit while blocks are
    # still pending
    rng = np.random.default_rng(0)
    lower = np.eye(14, dtype=np.int64) + np.tril(rng.integers(-1, 2, size=(14, 14)), -1)
    upper = np.eye(14, dtype=np.int64) + np.triu(rng.integers(-1, 2, size=(14, 14)), 1)
    basis = 3 * (lower @ upper)
    assert (basis * basis).sum(axis=1).min() > 9
    limits = []
    ball = zklat.shortvec._ball

    def recorded(*args, **kwargs):
        for v, q, limit in ball(*args, **kwargs):
            limits.append(float(limit[0]))
            yield v, q, limit

    monkeypatch.setattr(zklat.shortvec, "_ball", recorded)
    assert shortest_norm(basis) == 9
    drops = [i for i in range(1, len(limits)) if limits[i] < limits[i - 1]]
    assert drops and drops[0] < len(limits) - 1  # a block came after the first drop
    assert shortest_norm_unit_step(basis) == 9


def test_walk_ends_cleanly_when_the_limit_drops_mid_walk():
    # in Z^4 every nonzero suffix of the tree has partial norm >= 1, so a
    # limit of 0.5 lies below every node still pending after the first
    # block, which holds the zero row; each such node's child interval
    # shrinks to its integer centre, and pruning then empties it
    basis = np.eye(4, dtype=np.int64)
    for final in (0.5, 20.5):
        R, limit = _factor(basis, 200)
        blocks = []
        for xs in _fincke_pohst(R, limit, np.inf):
            blocks.append(xs @ basis)
            limit[:] = final
        assert all(len(b) for b in blocks) and (len(blocks) >= 2 or final < 1)
        late = np.concatenate(blocks[1:] or [np.zeros((0, 4), dtype=np.int64)])
        assert (np.einsum("ij,ij->i", late, late) <= final).all()
        got = {tuple(r) for b in blocks for r in b.tolist() if sum(x * x for x in r) <= final}
        got |= {tuple(-x for x in r) for r in got}
        want, _ = brute_ball(basis, int(final))
        assert got == {tuple(r) for r in want.tolist()}


@pytest.mark.parametrize("seed", range(4))
def test_collect_holds_one_vector_of_each_pair(seed):
    rng = np.random.default_rng(300 + seed)
    basis = random_basis(rng, int(rng.integers(2, 5)))
    bound = int(rng.integers(6, 20))
    vecs = ball_vectors(basis, bound)
    rows = {tuple(r) for r in vecs.tolist()}
    negs = {tuple(-x for x in r) for r in rows}
    zero = tuple([0] * basis.shape[1])
    want, q = brute_ball(basis, bound)
    assert len(rows) == len(vecs) and rows & negs == {zero}
    assert rows | negs == {tuple(r) for r in want.tolist()}
    assert enumerate_ball(basis, bound)[0].sum() == len(want)
    # the shell reader keeps the same one vector of each pair, at one norm
    for k in range(bound + 1):
        shell = {tuple(r) for r in enumerate_shell(basis, k).tolist()}
        assert shell <= rows and len(shell) == (q == k).sum() // (2 if k else 1)


def test_ball_of_many_chunks_matches_bruteforce():
    basis = np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], dtype=np.int64)
    assert len(ball_vectors(basis, 60)) > 8 * CHUNK
    _, q = brute_ball(basis, 60)
    assert np.array_equal(dense(enumerate_ball(basis, 60), 60), np.bincount(q, minlength=61))


def test_d20_ball_runs_in_bounded_memory():
    lat = catalog.build("D20")
    basis = lat.reduced_basis()
    tracemalloc.start()
    try:
        counts, _, _ = enumerate_ball(basis, 5 * lat.scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 602609
    # collecting the same ball holds 301,305 rows of 21 int64 (~50 MB)
    assert peak < 8 * 2**20


def test_budget_exceeded_carries_used_and_budget():
    with pytest.raises(BudgetExceeded) as info:
        enumerate_ball(np.eye(8, dtype=np.int64), 16, budget=10)
    assert info.value.budget == 10 and info.value.used > 10
    assert f"{info.value.used} used, budget 10" in str(info.value)


def test_near_singular_basis_trips_the_float_check():
    # rows (3, 1) and (3 * 10**e + 1, 10**e) span Z^2 but are nearly parallel
    for e in (6, 8):
        basis = np.array([[3, 1], [3 * 10**e + 1, 10**e]], dtype=np.int64)
        with pytest.raises(PreconditionViolation, match="not far below the slack"):
            enumerate_ball(basis, 4)
        with pytest.raises(PreconditionViolation):
            shortest_norm(basis)
        assert dense(enumerate_ball(block_reduce(basis), 4), 4).tolist() == [1, 4, 4, 0, 4]


def test_a_gram_that_is_not_positive_definite_in_floats_is_rejected():
    # [[F_i, F_(i-1)], [F_(i+1), F_i]] spans Z^2 (Cassini), its rows lie below
    # the 2^62 cap, and its float Gram has no Cholesky factor
    basis = np.array([[701408733, 433494437], [1134903170, 701408733]], dtype=np.int64)
    with pytest.raises(PreconditionViolation, match="not numerically positive definite"):
        enumerate_ball(basis, 4)
    with pytest.raises(PreconditionViolation, match="not numerically positive definite"):
        enumerate_shell(basis, 4)


def assert_lll_reduced(b, delta=Fraction(99, 100), eta=Fraction(51, 100)):
    """Exact Gram-Schmidt check: |mu_ij| <= eta and the Lovasz condition."""
    g = [[int(x) for x in row] for row in b @ b.T]
    n = len(g)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bsq = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (g[i][j] - sum(mu[j][t] * mu[i][t] * bsq[t] for t in range(j))) / bsq[j]
            assert abs(mu[i][j]) <= eta, (i, j, mu[i][j])
        bsq.append(g[i][i] - sum(mu[i][t] ** 2 * bsq[t] for t in range(i)))
        if i:
            assert bsq[i] >= (delta - mu[i][i - 1] ** 2) * bsq[i - 1], i


@pytest.mark.parametrize("seed", range(6))
def test_lll_core_output_is_lll_reduced_random(seed):
    rng = np.random.default_rng(400 + seed)
    basis = random_basis(rng, 5, spread=30)
    red = _lll_core(basis.copy())
    assert hnf(red.tolist()) == hnf(basis.tolist())
    assert_lll_reduced(red)


@pytest.mark.parametrize("lid", catalog.catalog_list("lattice"))
def test_lll_core_output_is_lll_reduced_catalog(lid):
    assert_lll_reduced(_lll_core(np.array(catalog.build(lid).basis)))


@pytest.mark.parametrize("lid", [
    # the dimension 44 and 48 rows take over 1 s each
    pytest.param(lid, marks=pytest.mark.slow) if lid in ("L44", "L48") else lid
    for lid in catalog.catalog_list("lattice")
])
def test_block_reduce_output_is_lll_reduced_catalog(lid):
    assert_lll_reduced(block_reduce(catalog.build(lid).basis))


def scrambled_basis(rng, n, top=2**20):
    """A random small basis pushed through row operations until an entry nears top."""
    b = random_basis(rng, n)
    while True:
        i, j = rng.choice(n, 2, replace=False)
        row = b[i] + int(rng.integers(1, 4)) * b[j]
        if np.abs(row).max() > top:
            return b
        b[i] = row


@pytest.mark.parametrize("n", [12, 20, 30])
def test_reduction_of_large_entry_bases_is_lll_reduced(n):
    # thousands of swaps and size reductions update one R, so drift shows here
    basis = scrambled_basis(np.random.default_rng(500 + n), n)
    assert 2**19 < np.abs(basis).max() <= 2**20
    want = hnf(basis.tolist())
    for red in (_lll_core(basis.copy()), block_reduce(basis)):
        assert hnf(red.tolist()) == want
        assert_lll_reduced(red)


def assert_hnf(h):
    """h is in row Hermite normal form, with no zero row."""
    pivots = [next(j for j, a in enumerate(row) if a) for row in h]
    assert pivots == sorted(set(pivots))
    for i, (p, row) in enumerate(zip(pivots, h)):
        assert row[p] > 0
        assert all(0 <= other[p] < row[p] for other in h[:i])


@pytest.mark.parametrize("case", ["L36 shadow Gram", "scrambled 30"])
def test_hnf_of_large_inputs(case):
    if case == "scrambled 30":
        rows = scrambled_basis(np.random.default_rng(530), 30).tolist()
    else:
        l0 = even_sublattice_and_shadow(catalog.build("L36")).l0_refined
        rows = l0.gram_true().tolist()
    h = hnf(rows)
    assert_hnf(h)
    assert len(h) == len(rows)
    # the input's rows lie in the span of h, and h is unique
    assert hnf(h + rows) == h


def patch_hypot(monkeypatch, hypot):
    """Give `zklat.shortvec` a math module whose hypot is `hypot`: `_lll_core`
    calls it once per swap, and nowhere else."""
    fake = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math) if not k.startswith("_")})
    fake.hypot = hypot
    monkeypatch.setattr(zklat.shortvec, "math", fake)


def test_a_cycling_lll_raises_at_its_step_bound(monkeypatch):
    # a reflection whose new diagonal entry is twice too long swaps forever
    patch_hypot(monkeypatch, lambda x, y: 2 * math.hypot(x, y))
    basis = random_basis(np.random.default_rng(1), 6, spread=30)
    with pytest.raises(PreconditionViolation, match="bound of .* swaps"):
        _lll_core(basis)


def test_a_huge_size_reduction_refactors_r(monkeypatch):
    # the last row reduces against e_0 .. e_3 with coefficients beyond 2^20
    basis = np.eye(5, dtype=np.int64)
    basis[4, :4] = [3 * 2**30 + 1, -(2**29) - 7, 2**21 + 5, 12]
    assert np.abs(basis).max() > RECOMPUTE_ABOVE
    calls = []
    gso = zklat.shortvec._gso

    def counted(rows):
        calls.append(1)
        return gso(rows)

    monkeypatch.setattr(zklat.shortvec, "_gso", counted)
    red = _lll_core(basis.copy())
    assert len(calls) == 2  # the one R per call, and its refactoring
    assert np.abs(red).sum() == 5  # five independent rows: +-unit vectors
    assert_lll_reduced(red)


def test_dependent_rows_are_rejected_before_reduction():
    # block_reduce takes a Lattice's basis: the constructor refuses dependent rows
    for basis in ([[1, 2], [2, 4]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]]):
        with pytest.raises(PreconditionViolation, match="linearly dependent"):
            Lattice(np.array(basis), 1)


def test_rank_check_is_exact():
    # singular mod the prime 2^31 - 1, but not over the integers
    for basis in ([[2**31 - 1, 0], [0, 1]], [[1, 1], [-(2**30) + 1, 2**30]]):
        assert Lattice(np.array(basis), 1).reduced_basis().shape == (2, 2)
    # a row of norm 2^62 + 1 is refused before any int64 product
    for make in (block_reduce, lambda b: Lattice(b, 1)):
        with pytest.raises(PreconditionViolation, match=r"norm >= 2\^62"):
            make(np.array([[1, 1], [1, 2**31]]))
    with pytest.raises(PreconditionViolation, match="linearly dependent"):
        Lattice(np.array([[2, 4], [3, 6]]), 1)
    # nonsingular however close to parallel: the float-check test's basis
    assert Lattice(np.array([[3, 1], [3 * 10**8 + 1, 10**8]]), 1).reduced_basis().shape == (2, 2)


@pytest.mark.parametrize("rows, bad", [
    ([[0.5, 1]], "0.5"),
    ([[Fraction(2), 1]], "Fraction(2, 1)"),
    (np.array([[1.0, 0.0]]), "1.0"),
    ([[float("nan"), 1]], "nan"),
    ([[float("-inf"), 1]], "-inf"),
    ([[2**70 + 0.5, 0]], "1.1805916207174113e+21"),
], ids=["half", "fraction", "float_array", "nan", "minus_inf", "huge_float"])
def test_int64_rows_refuses_every_entry_that_is_not_an_integer(rows, bad):
    want = f"^basis entry {re.escape(bad)} is not an integer$"
    with pytest.raises(PreconditionViolation, match=want):
        int64_rows(rows)
    with pytest.raises(PreconditionViolation, match="is not an integer"):
        block_reduce(rows)


def test_int64_rows_takes_integers_of_any_kind():
    rows = [[np.int32(3), True, 2**30], [np.uint64(2**30), 0, -1]]
    want = [[3, 1, 2**30], [2**30, 0, -1]]
    assert int64_rows(np.array(rows, dtype=object)).tolist() == want
    small = [[3, 1], [2**30, 0]]
    assert int64_rows(np.array(small, dtype=np.uint64)).tolist() == small


def test_the_public_walkers_reject_a_row_past_the_norm_cap():
    # row 0 has norm (2^32 + 1)^2: unchecked, its int64 square wraps to 2^33 + 1
    basis = [[2**32 + 1, 0], [0, 1]]
    for walk in (
        lambda: enumerate_ball(basis, 2**33 + 1),
        lambda: enumerate_shell(basis, 2**33 + 1),
        lambda: shortest_norm(basis),
    ):
        with pytest.raises(PreconditionViolation, match="norm >= 2\\^62"):
            walk()


@pytest.mark.parametrize("bound", [-1, 2**62, 2**70])
def test_bounds_outside_the_int64_range_are_rejected(bound):
    with pytest.raises(PreconditionViolation, match=r"outside \[0, 2\^62\)"):
        enumerate_ball(np.eye(2, dtype=np.int64), bound)
    with pytest.raises(PreconditionViolation, match=r"outside \[0, 2\^62\)"):
        _factor(np.eye(2, dtype=np.int64), bound)


def test_a_scaled_ball_needs_no_array_sized_by_its_bound():
    # Z^4 * 4099 up to norm 12 * 4099^2: 761 vectors, and a bound of 2 * 10^8
    s = 4099
    lat = Lattice(s * np.eye(4, dtype=np.int64), s * s)
    tracemalloc.start()
    try:
        frame = find_frame(lat, 12)
        counts, norms, _ = enumerate_ball(lat.reduced_basis(), 12 * s * s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 761 and norms.tolist() == [q * s * s for q in range(13)]
    assert frame is not None and frame.norm_k == 12
    assert peak < 2**20


def test_float_check_passes_on_every_catalog_lattice():
    for lid in catalog.catalog_list("lattice"):
        lat = catalog.build(lid)
        _factor(lat.basis, 5 * lat.scale)  # raises if the margin were thin


MINNORM_POOL_CODES = [
    "C_12_3_D6", "C_13_12", "C_23_12", "C_7_16", "C_16_4_P8", "Cp_4_20", "C_5_20", "C_13_20",
]
CATALOG_BASES = [
    # the dimension 44 and 48 rows take a few seconds each
    pytest.param("lattice", lid, marks=pytest.mark.slow) if lid in ("L44", "L48")
    else ("lattice", lid)
    for lid in catalog.catalog_list("lattice")
] + [("lift", cid) for cid in MINNORM_POOL_CODES]


def basis_of(kind, name):
    if kind == "lattice":
        return catalog.build(name).basis
    if kind == "lift":  # the lift's HNF, not the centred basis its lattice holds
        return np.array(hnf(catalog.build(name).lift().basis.tolist()), dtype=np.int64)
    return scrambled_basis(np.random.default_rng(500 + name), name)


def block_searches(b):
    """`_shortest` on each BKZ block of b in turn, as `block_reduce` searches it."""
    n = b.shape[0]
    for i in range(n - 1):
        j = min(i + BKZ_BLOCK, n)
        R = np.ascontiguousarray(_gso(b[:j])[i:j, i:j])
        yield _shortest(R, 0.9999 * R[0, 0] ** 2)


@pytest.mark.parametrize("kind, name", CATALOG_BASES + [("lift", "C_5_28")] + [
    ("scrambled", n) for n in (12, 20, 24, 30)
])
def test_block_reduce_matches_block_by_block_tours(kind, name):
    # the output is a fixed point of a block-by-block tour: past one block,
    # no block holds a vector shorter than its first row; up to one block
    # the output is the LLL basis
    basis = basis_of(kind, name)
    red = block_reduce(basis)
    if red.shape[0] <= BKZ_BLOCK:
        assert red.tobytes() == _lll_core(basis.copy()).tobytes()
    else:
        assert all(x is None for x in block_searches(red))


@pytest.mark.parametrize("kind, name", CATALOG_BASES)
def test_the_bases_the_walks_run_on_are_lll_reduced_block_reduce_fixed_points(kind, name):
    # the production path: a lattice's reduced_basis(), for a code's lift
    # lattice a reduction of the centred lift rather than the HNF
    obj = catalog.build(name)
    red = (obj if kind == "lattice" else obj.lift()).reduced_basis()
    assert hnf(red.tolist()) == hnf(basis_of(kind, name).tolist())
    assert_lll_reduced(red)
    assert block_reduce(red).tobytes() == red.tobytes()


@pytest.mark.parametrize("cid", ["C_13_20", "C_5_20"])
def test_lll_from_the_centred_lift_swaps_a_quarter_as_often(monkeypatch, cid):
    # the HNF (I | A ; 0 | kI) has A in [0, k): LLL bubbles each k e_j up
    # one swap at a time, while the centred lift is size-reduced already
    swaps = []
    patch_hypot(monkeypatch, lambda x, y: swaps.append(1) or math.hypot(x, y))
    code = catalog.build(cid)
    _lll_core(basis_of("lift", cid))
    raw = len(swaps)
    swaps.clear()
    ZkCode(code.k, code.generators).lift().reduced_basis()  # a fresh code: nothing cached
    assert raw and 4 * len(swaps) <= raw, (raw, len(swaps))


# C_19_40's lift needs 7 BKZ tours before every block is proved
@pytest.mark.parametrize("kind, name", CATALOG_BASES + [("lift", "C_19_40")])
def test_block_reduce_is_idempotent(kind, name):
    # ties mu = +-1/2 are common in root lattices, and only |mu| > ETA is
    # reduced; tours run until every block is proved
    red = block_reduce(basis_of(kind, name))
    assert block_reduce(red).tobytes() == red.tobytes()
    assert _lll_core(red.copy()).tobytes() == red.tobytes()


def assert_lll_core_contract(b, start):
    """_lll_core(b, start) reduces b in place, as int64, and keeps its lattice."""
    before = b.copy()
    out = _lll_core(b, start)
    assert out is b and b.dtype == np.int64
    assert hnf(b.tolist()) == hnf(before.tolist())
    assert_lll_reduced(b)


@pytest.mark.parametrize("seed", range(6))
def test_lll_core_contract_random(seed):
    rng = np.random.default_rng(700 + seed)
    assert_lll_core_contract(random_basis(rng, int(rng.integers(2, 13)), spread=30), 1)
    # a reduced head of `start` rows, then a tail whose projection away from
    # the head is 1000 times a lattice: every tail vector is longer than the
    # head's b*, so no swap reaches row start - 1 and the head stays as it is
    start, m = (int(x) for x in rng.integers(1, 7, size=2))
    b = np.zeros((start + m, start + m), dtype=np.int64)
    b[:start, :start] = _lll_core(random_basis(rng, start))
    b[start:, start:] = 1000 * random_basis(rng, m, spread=30)
    b[start:] += rng.integers(-9, 10, size=(m, start)) @ b[:start]
    head = b[:start].copy()
    assert_lll_core_contract(b, start)
    assert b[:start].tobytes() == head.tobytes()


def test_lll_core_contract_after_a_bkz_insertion():
    # R28_15: after LLL, block 3 of the first 20 rows holds a shorter vector
    b = _lll_core(catalog.build("R28_15").basis.copy())
    i, x = next((i, x) for i, x in enumerate(block_searches(b[:BKZ_BLOCK])) if x is not None)
    assert i >= 1
    b[i:BKZ_BLOCK] = _complete_unimodular(x) @ b[i:BKZ_BLOCK]
    assert_lll_core_contract(b, i)


@pytest.mark.parametrize("seed", range(12))
def test_first_shorter_block_is_the_first_block_shortest_finds(seed):
    # brute force over a box of coefficient rows, on every block of a
    # random LLL-reduced basis of 2 to 6 rows and of the same rows in
    # reverse order: `_shortest` finds a row exactly when the block holds
    # a nonzero row below the bound, and then one of least float norm, so
    # the first block it finds a row in is the first block holding a
    # shorter vector
    rng = np.random.default_rng(600 + seed)
    n = int(rng.integers(2, 7))
    red = _lll_core(random_basis(rng, n))
    for R, l in itertools.product((_gso(red), _gso(red[::-1])), range(n - 1)):
        Rl = np.ascontiguousarray(R[l:, l:])
        m = n - l
        for bound in (0.9999 * Rl[0, 0] ** 2, 2 * Rl[0, 0] ** 2):
            # |x_i| <= sqrt(bound * (G^-1)_ii) inside the ball
            box = int(np.sqrt(bound * (np.linalg.inv(Rl) ** 2).sum(axis=1)).max()) + 1
            xs = np.indices((2 * box + 1,) * m).reshape(m, -1).T - box
            q = _norms(xs @ Rl.T)[xs.any(axis=1)]
            x = _shortest(Rl, bound)
            if x is None:
                assert not (q < bound).any()
            else:
                assert x.any() and np.isclose(_norms(x[None] @ Rl.T)[0], q.min(), rtol=1e-12)


def count_walks(monkeypatch):
    """A list that gains one entry per `_fincke_pohst` call from now on."""
    calls = []
    walk = zklat.shortvec._fincke_pohst

    def counted(*args):
        calls.append(1)
        return walk(*args)

    monkeypatch.setattr(zklat.shortvec, "_fincke_pohst", counted)
    return calls


@pytest.mark.parametrize("kind, name", [("lattice", "D20"), ("lift", "C_13_20"), ("scrambled", 20)])
def test_a_one_block_basis_is_reduced_without_a_walk(monkeypatch, kind, name):
    # up to BKZ_BLOCK rows the first block is the whole basis: LLL alone
    basis = basis_of(kind, name)
    calls = count_walks(monkeypatch)
    red = block_reduce(basis)
    assert not calls
    assert red.tobytes() == _lll_core(basis.copy()).tobytes()
    assert hnf(red.tolist()) == hnf(basis.tolist())


def test_a_basis_longer_than_one_block_gets_bkz_walks(monkeypatch):
    basis = basis_of("scrambled", BKZ_BLOCK + 1)
    calls = count_walks(monkeypatch)
    red = block_reduce(basis)
    assert calls
    assert hnf(red.tolist()) == hnf(basis.tolist())


def test_each_block_search_is_one_walk(monkeypatch):
    # dimension 28: every block search walks its block once, and nothing else walks
    basis = catalog.build("R28_15").basis
    counts = {"walks": 0, "searches": 0}
    walk, search = zklat.shortvec._fincke_pohst, zklat.shortvec._shortest

    def counted_walk(*args):
        counts["walks"] += 1
        return walk(*args)

    def counted_search(*args):
        counts["searches"] += 1
        return search(*args)

    monkeypatch.setattr(zklat.shortvec, "_fincke_pohst", counted_walk)
    monkeypatch.setattr(zklat.shortvec, "_shortest", counted_search)
    block_reduce(basis)
    assert counts["walks"] == counts["searches"] > 1
