"""Reference codeword listing for the tests: the lift's pivot box.

The rows h_1..h_n of the lift's basis (`ZkCode.lift()`, the centred
HNF of C + k Z^n) are upper triangular with pivots h_ii dividing k, so
the words sum t_i h_i mod k with 0 <= t_i < k / h_ii are the codewords,
each exactly once, whatever generators the code was given: two such
words that agree mod k agree in t_1, then in t_2, and so on down the
pivots.  The oracle lists them and takes the least Euclidean weight
directly, with no pruning.  Self-duality is checked from the
generators alone: the code is their closure under addition mod k, and
it is self-dual when |C|^2 = k^n and every two codewords are orthogonal
mod k.
"""

import numpy as np

from zklat.codes import ZkCode

WORD_CAP = 10**6


def codewords(code: ZkCode) -> np.ndarray:
    """All codewords (cardinality x n), listed by the lift's pivot box."""
    assert code.cardinality <= WORD_CAP, "too many codewords for the oracle"
    h = code.lift().basis
    box = [np.arange(code.k // h[i, i]) for i in range(code.n)]
    grids = np.meshgrid(*box, indexing="ij")
    coeffs = np.stack([g.ravel() for g in grids], axis=1)
    return (coeffs @ h) % code.k


def min_euclidean_weight_naive(code: ZkCode) -> int:
    """The least Euclidean weight over all nonzero codewords."""
    words = codewords(code)
    r = np.arange(code.k)
    weights = (np.minimum(r, code.k - r) ** 2)[words].sum(axis=1)
    return int(weights[words.any(axis=1)].min())


def is_self_dual_naive(code: ZkCode) -> bool:
    """|C|^2 = k^n, counted from the generators' closure, and C orthogonal to itself mod k."""
    assert code.cardinality <= WORD_CAP, "too many codewords for the oracle"
    k, words, frontier = code.k, set(), {(0,) * code.n}
    while frontier:  # add every generator to each new word until no word is new
        words |= frontier
        frontier = {
            tuple((a + b) % k for a, b in zip(w, g)) for w in frontier for g in code.generators
        } - words
    c = np.array(sorted(words), dtype=object)
    return len(words) ** 2 == k**code.n and not np.any((c @ c.T) % k)


def random_selfdual_code(k, dsq, n_half, rnd) -> ZkCode:
    """(I | B) with B a random monomial matrix whose entries square to -1 mod k.

    `rnd` is a `random.Random`; `dsq` lists square roots of -1 mod k.
    """
    perm = list(range(n_half))
    rnd.shuffle(perm)
    b = np.zeros((n_half, n_half), dtype=np.int64)
    for i, j in enumerate(perm):
        b[i, j] = rnd.choice(dsq)
    return ZkCode(k, np.hstack([np.eye(n_half, dtype=np.int64), b]))
