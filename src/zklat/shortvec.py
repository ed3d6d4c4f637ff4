"""Exhaustive short-vector enumeration (Fincke-Pohst).

Every walk goes through one entry, `_walk`, which runs one of two
kernels that yield the same rows in the same order.  `_fincke_pohst`
expands the Fincke-Pohst tree one level at a time as numpy arrays and
walks it depth first over frontier chunks of at most `CHUNK` rows, the
scheme of parallel enumeration (Hermans et al., AFRICACRYPT 2010; Kuo
et al., CHES 2011), so memory stays bounded at every dimension while the
tree order stays that of Fincke-Pohst.  It prunes every level at one
limit and yields the leaves, the coefficient rows of the ball, in
blocks, in lexicographic (x_{n-1}..x_0) order.  Its step costs about
30 us per level however few rows it holds, so a small tree goes instead
to `_scalar_walk`, one depth-first walk on Python floats at about 1.5 us
per node, which yields the same rows as one block.  `_walk` reads the
tree's size off the Gaussian heuristic (`_tree_nodes`, a few float
operations per level): the minimum proofs of the catalog's small
lattices and codes, 62-275 nodes over 12-20 levels, walk in Python
floats, while balls, shells and the larger proofs walk in numpy.
Every walk is centred at 0 and holds the zero row and one row of each
+-pair; nothing walks a shifted ball.  A coset of a lattice L is a class
of the ball of the dual lattice L* (`characters`, `lattice.coset_theta`).
One reader, `_ball`, recomputes their norms in integer arithmetic, so
every reported count and norm is exact, and serves three consumers:
`enumerate_ball` tallies a ball by class and norm, `enumerate_shell`
keeps the vectors of one norm, and `shortest_norm` is the one exact
shortest-vector search, a single walk whose bound shrinks each time a
shorter vector turns up (Schnorr and Euchner, Math. Programming 66,
1994).  Its bound stays one norm step below the best norm found: the
norm of x * B is sum x_i^2 G_ii + 2 sum_{i<j} x_i x_j G_ij, so every
norm is a multiple of g = gcd(G_ii, 2 G_ij), and no norm lies strictly
between best - g and best.  On the lift of a self-dual code over Z_k,
g = k.

Pruning uses a float Cholesky factor R of the Gram matrix G and the
bound padded by a slack of 1e-4 (bound + 1).  `_factor` checks once per
call that the padding covers the float error: R is the exact factor of
G + E, it measures err = max|E|, and it bounds the coefficient sum
|x|_1 of every vector in the ball by c, from the dual basis norms.
Every partial norm of such a vector, taken with G + E, is at most its
full norm, bound + err c^2.  The check demands err c^2 <= slack / 1000
and raises PreconditionViolation otherwise.  The rounding of the walk's
own sums is far smaller still, and in any order of summation: the centre
sum_{j>i} x_j R_ij, which the numpy kernel takes as a BLAS product and
the scalar kernel left to right in Python floats, is off by at most
m u sum_j |x_j R_ij| for m terms and u = 2^-53, whatever the order.
Both kernels prune against the same limit with the same slack, so
neither ever prunes a vector of the ball; they can differ only on a
node within rounding of the limit, which `_ball` drops by its exact
norm.  The numpy walk reads its limit from a one-entry array that
`shortest_norm` lowers between blocks, keeping the slack of the
starting bound; the scalar walk yields one block, so its limit stays
fixed.  A smaller ball has a smaller coefficient bound c, so the check
made at the start still covers every lowered bound.

One cap, NORM_CAP = 2^62, keeps int64 exact: bounds lie below it
(`check_bound`), and `int64_rows`, the one way an integer matrix becomes
int64, checks exactly that every row's norm does.  By Cauchy-Schwarz no
inner product of such rows, nor a partial sum of one, then reaches 2^62.
It first refuses any entry that is not an integer (`integer_rows`,
`check_integer`): a float or a Fraction is an error, never truncated.
`Lattice`, `Frame`, `SkewSeed`, `block_reduce` and the public walkers
(so every basis a walk runs on, however it is passed) take their rows
through it.

`block_reduce` prepares the bases the walks run on: a `Lattice`'s basis,
whose rows its constructor has proved independent.  It runs float LLL
that keeps one Gram-Schmidt factor current in place (`_lll_core`, on
Python ints and floats: per step it does too little arithmetic to repay
a numpy call; a bound on its swaps read from the input turns drift that
would cycle into an error), then BKZ tours with one walk (`_shortest`,
through `_walk`) per block search, each over a projection of at most
BKZ_BLOCK dimensions.  It only changes the basis by unimodular steps,
so it never changes a verdict.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import BudgetExceeded, PreconditionViolation

CHUNK = 1024  # frontier rows created per numpy step
# walk a tree estimated below this many nodes per level on Python floats:
# the scalar walk costs about 1.5 us per node, a numpy step about 30 us per level
SCALAR_NODES_PER_LEVEL = 25
DEFAULT_NODE_BUDGET = 2_000_000_000
SLACK_MARGIN = 1e-3  # float error allowed, as a share of the pruning slack
NORM_CAP = 2**62  # every norm bound, and every row norm held in int64, lies in [0, NORM_CAP)

LLL_DELTA = 0.999
ETA = 0.505  # size-reduce only above this |mu|: ties +-1/2 stay, drift cannot flip them
RECOMPUTE_ABOVE = 2**20  # a larger size-reduction coefficient refactors R
BKZ_BLOCK = 20
BKZ_TOURS = 32  # a bound on run time: every catalog basis converges within 15 tours


def check_bound(bound: int) -> int:
    """The norm bound itself, once it is known to lie in [0, 2^62).

    Callers check it before any costly step, such as reducing the basis.
    """
    if not 0 <= bound < NORM_CAP:
        raise PreconditionViolation(f"norm bound {bound} is outside [0, 2^62)")
    return bound


def check_integer(x, what: str) -> int:
    """x as a Python int, once it is an int or a numpy integer.

    A float, Fraction, NaN or inf raises PreconditionViolation naming
    `what`: nothing is truncated.
    """
    if not isinstance(x, (int, np.integer)):
        raise PreconditionViolation(f"{what} {x!r} is not an integer")
    return int(x)


def integer_rows(rows, what: str) -> np.ndarray:
    """The rows as an integer matrix, each entry checked by `check_integer`.

    An integer array comes back as it is; anything else as an object
    array of Python ints.  Rows that are not an array but that numpy reads
    as floats are re-read entry by entry, since numpy promotes integers of
    mixed kinds, such as np.uint64(3) and -1, to float64.
    """
    arr = np.asarray(rows)  # object dtype for entries beyond int64
    if arr.ndim != 2:
        raise PreconditionViolation(f"{what} rows must form a matrix")
    if arr.dtype.kind in "iu":
        return arr
    if arr.dtype.kind == "f" and not isinstance(rows, np.ndarray):
        arr = np.array(rows, dtype=object)
    exact = [[check_integer(x, f"{what} entry") for x in row] for row in arr.tolist()]
    return np.array(exact, dtype=object).reshape(arr.shape)


def int64_rows(rows, what: str = "basis") -> np.ndarray:
    """A fresh read-only int64 copy of the rows (`integer_rows`), once each has norm below 2^62.

    Exact: an integer array passes at once if max|entry|^2 * ncols < 2^62
    in Python ints; otherwise (or for lists and object arrays) each row's
    norm is summed in Python ints before any conversion.
    """
    arr = integer_rows(rows, what)
    top = NORM_CAP  # an object array takes the row sums
    if arr.dtype != object:
        top = max(int(arr.max(initial=0)), -int(arr.min(initial=0)))
    if top * top * arr.shape[1] >= NORM_CAP:
        if any(sum(x * x for x in row) >= NORM_CAP for row in arr.tolist()):
            raise PreconditionViolation(f"{what} row of norm >= 2^62 would overflow int64 products")
    out = arr.astype(np.int64)
    out.flags.writeable = False
    return out


def _factor(basis: np.ndarray, bound: int):
    """Upper-triangular float R with R^T R = Gram, and the pruning limit.

    The limit, bound + slack, comes as a one-entry array: the walk reads
    it afresh at every step, so its consumer may lower it.  A bound in
    [0, 2^62) keeps every emitted vector's norm, and so every square and
    partial sum `_norms` forms, inside int64.
    """
    check_bound(bound)
    gram = (basis @ basis.T).astype(np.float64)
    try:
        R = np.ascontiguousarray(np.linalg.cholesky(gram).T)
    except np.linalg.LinAlgError:
        raise PreconditionViolation("Gram matrix is not numerically positive definite")
    slack = 1e-4 * (bound + 1)
    err = float(np.abs(R.T @ R - gram).max())
    # |x_i| <= sqrt(bound * (G^-1)_ii) for every vector in the ball
    coef = float(np.sqrt(bound * (np.linalg.inv(R) ** 2).sum(axis=1)).sum())
    if not err * coef**2 <= SLACK_MARGIN * slack:
        raise PreconditionViolation(
            f"float pruning error bound {err * coef**2:.3g} (Cholesky residual "
            f"{err:.3g}) is not far below the slack {slack:.3g}"
        )
    return R, np.array([bound + slack])


def _fincke_pohst(R, limit, budget):
    """The integer rows x with |x R^T|^2 <= limit[0], one of each +-pair, in blocks.

    A node at level i is a suffix x[i:] with float partial norm
    |(x R^T)[i:]|^2 <= limit[0]; the rows yielded are the nodes at
    level 0.  Each step takes the deepest pending block, expands its
    leading rows whose children number at most CHUNK (at least one row)
    to the next level and leaves the rest on the stack, so the walk is
    depth first and holds at most one block of about CHUNK rows per
    level.  The tree is symmetric under x -> -x, so only the zero row
    and, of each +-pair, the row whose last nonzero entry is positive
    are walked.  The consumer may lower the limit between blocks;
    pending nodes are then pruned against the lowered limit.  Raises
    BudgetExceeded once more than `budget` tree nodes were expanded.
    """
    n = R.shape[0]
    diag = R.diagonal()
    nodes = 0
    # (level, suffix rows x[level:], their partial norms)
    stack = [(n, np.zeros((1, 0), dtype=np.int64), np.zeros(1))]
    while stack:
        level, rows, parts = stack.pop()
        i = level - 1
        lim = limit[0]
        xs, part = rows[:CHUNK], parts[:CHUNK]
        c = xs @ R[i, level:]
        rad = np.sqrt(np.maximum(lim - part, 0.0))
        lo = np.ceil((-rad - c) / diag[i])
        hi = np.floor((rad - c) / diag[i])
        # only the zero row has partial norm exactly 0
        np.maximum(lo, 0.0, out=lo, where=part == 0.0)
        width = np.maximum(hi - lo + 1.0, 0.0).astype(np.int64)
        ends = np.cumsum(width)
        # expand the leading rows whose children fit in CHUNK (at least one)
        m = max(1, int(np.searchsorted(ends, CHUNK, side="right")))
        if m < rows.shape[0]:
            stack.append((level, rows[m:], parts[m:]))
        total = int(ends[m - 1])
        if total == 0:
            continue
        xs, part, c, width = xs[:m], part[:m], c[:m], width[:m]
        parent = np.repeat(np.arange(m), width)
        x = np.arange(total) + np.repeat(lo[:m].astype(np.int64) - (ends[:m] - width), width)
        y = diag[i] * x + c[parent]
        newpart = part[parent] + y * y
        keep = newpart <= lim
        x, parent, newpart = x[keep], parent[keep], newpart[keep]
        nodes += x.size
        if nodes > budget:
            raise BudgetExceeded("enumeration nodes", nodes, budget)
        if not x.size:  # a lowered limit pruned the whole block
            continue
        child = np.empty((x.size, n - i), dtype=np.int64)
        child[:, 0] = x
        child[:, 1:] = xs[parent]
        if i:
            stack.append((i, child, newpart))
        else:
            yield child


def _scalar_walk(R, lim, budget):
    """`_fincke_pohst`'s rows at the fixed limit lim, as one int64 block, or None past budget.

    One depth-first walk over a mutable coefficient list on Python floats
    (Schnorr and Euchner, Math. Programming 66, 1994), for trees too small
    to repay a numpy step per level.  Each level steps x_i up from lo to
    hi, so the rows come in the numpy walker's lexicographic
    (x_{n-1}..x_0) order; the interval, the pruning test and the zero-row
    and +-pair rule are the numpy walker's, term by term, and only the
    centre sum runs in another order.  The walk keeps its levels in lists,
    not on the call stack, so no dimension meets Python's recursion limit.
    Returns None once more than `budget` nodes were kept.
    """
    n = R.shape[0]
    rows = R.tolist()
    x, top, centre, part = [0] * n, [0] * n, [0.0] * n, [0.0] * (n + 1)
    out, nodes, i, p = [], 0, n, 0.0
    while True:
        # open level i - 1 under the node x[i:], whose partial norm is p
        i -= 1
        r = rows[i]
        c = sum(map(operator.mul, x[i + 1 :], r[i + 1 :]))
        t = lim - p
        rad = math.sqrt(t) if t > 0.0 else 0.0
        lo = math.ceil((-rad - c) / r[i])
        if p == 0.0 and lo < 0:  # only the zero row has partial norm exactly 0
            lo = 0
        x[i], top[i], centre[i], part[i + 1] = lo - 1, math.floor((rad - c) / r[i]), c, p
        # step to the next kept node, climbing out of each level that is done
        while True:
            xi = x[i] = x[i] + 1
            if xi > top[i]:
                i += 1
                if i == n:
                    return np.array(out, dtype=np.int64).reshape(-1, n)
                continue
            y = rows[i][i] * xi + centre[i]
            p = part[i + 1] + y * y
            if p > lim:
                continue
            nodes += 1
            if nodes > budget:
                return None
            if i:
                break
            out.append(x[:])


def _tree_nodes(diag, lim) -> float:
    """The Gaussian-heuristic node count of a walk's tree, +-pairs halved.

    Level n - k holds about t_k = V_k(sqrt lim) / prod_{j >= n-k} R_jj
    nodes, the volume of the ball over that of the projected lattice
    (Gama, Nguyen and Regev, EUROCRYPT 2010).  V_k(r) = V_{k-2}(r) 2 pi
    r^2 / k gives each t_k from t_{k-2} in a few float operations; a term
    past the float range reads inf, which is no small tree either.
    """
    n = len(diag)
    older, old = 1.0, 2 * math.sqrt(lim) / diag[n - 1]  # t_0, t_1
    total = old
    for k in range(2, n + 1):
        older, old = old, older * (2 * math.pi * lim / k) / (diag[n - k] * diag[n - k + 1])
        total += old
    return total / 2


def _walk(R, limit, budget):
    """The one walk entry: `_fincke_pohst`'s rows, in its order, from the cheaper kernel.

    A tree estimated (`_tree_nodes`) below SCALAR_NODES_PER_LEVEL nodes per
    level goes to `_scalar_walk`, which yields it as one block; any other,
    and any the scalar walk finds past the budget, goes to `_fincke_pohst`,
    so an overrun raises its exact BudgetExceeded.
    """
    lim = float(limit[0])
    if _tree_nodes(R.diagonal().tolist(), lim) < SCALAR_NODES_PER_LEVEL * R.shape[0]:
        rows = _scalar_walk(R, lim, budget)
        if rows is not None:  # never empty: the zero row lies in every ball
            yield rows
            return
    yield from _fincke_pohst(R, limit, budget)


def _norms(v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", v, v)


def _gso(rows):
    """Upper-triangular R with R^T R = rows rows^T and a positive diagonal.

    Householder QR of the float rows: R_jj = |b*_j| and R_jk / R_jj is the
    Gram-Schmidt coefficient mu_kj.  A QR factor, not a Cholesky factor of
    the Gram matrix, since forming the Gram squares the condition number.
    """
    R = np.linalg.qr(rows.T.astype(np.float64), mode="r")
    return R * np.where(R.diagonal() < 0, -1.0, 1.0)[:, None]


def _columns(b):
    """The columns R[:k+1, k] of R = _gso(b), as lists of Python floats."""
    R = _gso(b)
    return [R[: k + 1, k].tolist() for k in range(b.shape[0])]


def _lll_core(b, start=1):
    """In-place LLL on a full-rank int64 row basis whose rows b[:start] are reduced.

    One R from _gso(b) is kept current through the run (Schnorr and
    Euchner, Math. Programming 66, 1994), not refactored at each step.
    The run works on Python scalars: the rows as lists of ints, R as its
    columns R[:k+1, k], lists of floats, and b is written back at the end.
    A step touches a few dozen numbers, fewer than repay a numpy call.
    Size-reducing b_k by q b_j subtracts q times column j of R from
    column k, and leaves b*_k alone; it is done only when |mu| > ETA, so
    a tie mu = +-1/2 is left alone and a reduced basis stays as it is.
    Swapping b_{k-1} and b_k swaps columns k-1 and k of R; one 2x2
    reflection of rows k-1 and k then restores the triangle and its
    positive diagonal.  The reflection is elementwise IEEE arithmetic, not
    a BLAS product, so its rounding does not depend on the BLAS numpy
    links.  A coefficient q above RECOMPUTE_ABOVE cancels many leading
    bits of column k, so R is then refactored from b and row k
    size-reduced again.

    The Gram minors of an integer basis are integers >= 1, and a swap
    shrinks their product D by a factor below LLL_DELTA, so a run makes
    at most log D / log(1/LLL_DELTA) swaps, D read from the first R.  Past
    twice that plus n, R has drifted and may cycle: PreconditionViolation.
    """
    n = b.shape[0]
    rows = b.tolist()
    cols = _columns(b)
    log_d = sum(2 * (n - j) * math.log(cols[j][j]) for j in range(n))
    max_swaps = int(2 * log_d / -math.log(LLL_DELTA)) + n
    swaps = 0
    k = max(start, 1)
    while k < n:
        ck = cols[k]
        while True:
            big = False
            for j in range(k - 1, -1, -1):
                cj = cols[j]
                mu = ck[j] / cj[j]
                if abs(mu) > ETA:
                    q = round(mu)
                    rows[k] = [x - q * y for x, y in zip(rows[k], rows[j])]
                    ck[: j + 1] = [x - q * y for x, y in zip(ck, cj)]
                    big = big or abs(q) > RECOMPUTE_ABOVE
            if not big:
                break
            b[:] = rows
            cols = _columns(b)
            ck = cols[k]
        a, c = cols[k - 1][k - 1], ck[k]
        mu = ck[k - 1] / a
        if c * c >= (LLL_DELTA - mu * mu) * a * a:
            k += 1
            continue
        swaps += 1
        if swaps > max_swaps:
            raise PreconditionViolation(f"LLL passed its bound of {max_swaps} swaps: R has drifted")
        rows[k - 1], rows[k] = rows[k], rows[k - 1]
        # b_k's column moves to k-1 with the entry c below the diagonal;
        # the reflection (s, t; t, -s) of rows k-1 and k clears it
        d = cols[k - 1][k - 1]
        r = math.hypot(ck[k - 1], c)
        s, t = ck[k - 1] / r, c / r
        cols[k - 1], cols[k] = ck[: k - 1] + [r], cols[k - 1][: k - 1] + [s * d, t * d]
        for cj in cols[k + 1 :]:
            y, z = cj[k - 1], cj[k]
            cj[k - 1], cj[k] = s * y + t * z, t * y - s * z
        k = max(k - 1, 1)
    b[:] = rows
    return b


def _complete_unimodular(x):
    """Unimodular integer matrix whose first row is x (gcd(x) = 1)."""
    m = len(x)
    v = [int(t) for t in x]
    w = [[int(i == j) for j in range(m)] for i in range(m)]  # x == sum v_t w_t
    while True:
        nz = [t for t in range(m) if v[t] != 0]
        if len(nz) == 1:
            break
        nz.sort(key=lambda t: abs(v[t]))
        i, j = nz[0], nz[1]
        q = v[j] // v[i]
        v[j] -= q * v[i]
        w[i] = [a + q * c for a, c in zip(w[i], w[j])]
    s = nz[0]
    if v[s] == -1:
        v[s] = 1
        w[s] = [-a for a in w[s]]
    assert v[s] == 1, "first-row completion needs gcd 1"
    u = [w[s]] + [w[t] for t in range(m) if t != s]
    return np.array(u, dtype=np.int64)


def _shortest(R, bound):
    """The first row x of least float norm |x R^T|^2 below bound, else None.

    One walk of the block with factor R alone, pruned at bound; the zero
    row is skipped.
    """
    best, bestx = bound, None
    for xs in _walk(R, np.array([bound]), np.inf):
        q = _norms(xs @ R.T)
        q[~xs.any(axis=1)] = np.inf
        j = int(np.argmin(q))
        if q[j] < best:
            best, bestx = q[j], xs[j]
    return bestx


def block_reduce(basis: np.ndarray) -> np.ndarray:
    """Float LLL, then BKZ tours until no block holds a shorter vector.

    Takes a `lattice.Lattice`'s basis, reduced or not: its rows are
    independent, since the lattice's constructor refuses a zero
    determinant.  Input and output pass `int64_rows`.  Every
    transformation applied is unimodular, so the output spans the same
    lattice; quality only affects downstream enumeration speed, never
    correctness.

    A basis of at most BKZ_BLOCK rows gets LLL alone: its first block is
    the whole basis, so a BKZ search would be the exact walk its caller
    runs next.  A longer basis gets tours of blocks of BKZ_BLOCK rows,
    each a projection of the lattice searched by one walk (`_shortest`)
    for a vector shorter than its first row, which is then inserted.  A
    tour skips each block already shown to hold none while the rows it
    reads are unchanged.  Tours stop once every block is proved, so the
    output is a fixed point: reducing it again changes nothing.  At most
    BKZ_TOURS tours run, a bound on run time, since in floats nothing
    proves that the tours end.
    """
    b = int64_rows(basis).copy()
    n = b.shape[0]
    _lll_core(b)
    if n <= BKZ_BLOCK:
        return int64_rows(b)
    ends = np.minimum(np.arange(n - 1) + BKZ_BLOCK, n)
    # proved[i]: block i held no shorter vector, and b[:ends[i]] is unchanged since
    proved = np.zeros(n - 1, dtype=bool)
    for _ in range(BKZ_TOURS):
        for i in range(n - 1):
            if proved[i]:
                continue
            j = ends[i]
            R = np.ascontiguousarray(_gso(b[:j])[i:j, i:j])
            x = _shortest(R, 0.9999 * R[0, 0] ** 2)
            if x is None:
                proved[i] = True
                continue
            before = b.copy()
            b[i:j] = _complete_unimodular(x) @ b[i:j]
            _lll_core(b, max(i, 1))  # rows b[:i] are untouched and reduced
            moved = np.flatnonzero((b != before).any(axis=1))
            proved[ends > moved.min(initial=n)] = False
        if proved.all():
            break
    return int64_rows(b)


def _ball(basis: np.ndarray, bound: int, budget: int = DEFAULT_NODE_BUDGET):
    """Blocks (v, q, limit): the vectors v = x * basis of norm q <= bound.

    The one exact reader of the walk: q holds the exact integer norms, and
    limit is the walk's one-entry limit array, which the consumer may lower
    between blocks.  The walk holds 0 and one vector of each +-pair.  The
    basis is `int64_rows` output: each public walker checks the basis it
    is given once, before its walk.
    """
    R, limit = _factor(basis, bound)
    for xs in _walk(R, limit, budget):
        # int64 wraparound is exact mod 2^64, so v is exact: each of its
        # entries is below 2^32, since its norm is about bound or less
        v = xs @ basis
        q = _norms(v)
        inside = q <= bound  # the slack admits a few vectors just outside
        yield (v, q, limit) if inside.all() else (v[inside], q[inside], limit)


def characters(basis: np.ndarray, scale: int) -> np.ndarray:
    """The basis rows p whose pairings v -> v . p mod scale separate the classes.

    Two vectors v, w of the lattice M spanned by the rows at this scale
    lie in one class when v - w lies in the dual M*, that is when
    (v - w) . b = 0 (mod scale) for every row b.  For v = x * basis,
    v . b_i = x . G[:, i] with G the Gram matrix, so rows whose Gram
    columns agree mod scale give one character of M modulo its
    intersection with M*, and a zero column gives the trivial one: the
    first row of each distinct nonzero column is kept, in basis order.  An integral lattice keeps
    none: it is one class.
    """
    first: dict[tuple, int] = {}
    for i, col in enumerate((basis @ basis.T % scale).tolist()):  # G is symmetric
        if any(col):
            first.setdefault(tuple(col), i)
    return basis[list(first.values())]


def _group(rows: np.ndarray, weights: np.ndarray):
    """The distinct rows of an integer matrix, sorted, with their summed weights."""
    if not len(rows):
        return rows, weights
    order = np.lexsort(rows.T[::-1])
    rows, weights = rows[order], weights[order]
    start = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
    return rows[start], np.add.reduceat(weights, start)


def enumerate_ball(
    basis: np.ndarray, bound: int, scale: int = 1, budget: int = DEFAULT_NODE_BUDGET
):
    """The class tally (counts, norms, keys) of the vectors x * basis of norm <= bound.

    The class of v (`characters`) has the key v . p mod scale over the
    characters p, one entry each, and -v has the key -key mod scale.
    keys holds one row per class that occurs, in lexicographic order;
    norms lists the norms that occur, ascending; counts[c, i] is the
    number of vectors of class keys[c] and norm norms[i], so counts.sum()
    is the number of vectors.  An integral lattice (any basis at scale 1)
    is one class with an empty key and takes no pairing product.  The
    products are exact in int64: v and p both have norm below 2^62
    (Cauchy-Schwarz).  Each block of the walk is tallied by (class, norm)
    before the next is read, so memory grows with classes times norms,
    not with the ball or the bound.
    """
    basis = int64_rows(basis)
    chars = characters(basis, scale).T
    blocks = [(np.zeros((0, chars.shape[1] + 1), dtype=np.int64), np.zeros(0, dtype=np.int64))]
    for v, q, _ in _ball(basis, bound, budget):
        keys = v @ chars % scale if chars.size else v[:, :0]
        blocks.append(_group(np.column_stack([keys, q]), np.ones(q.size, dtype=np.int64)))
    rows, counts = (np.concatenate(a) for a in zip(*blocks))
    # the walk held 0 and one vector of each +-pair: add the negatives
    pair = rows[:, -1] > 0
    neg = rows[pair]
    neg[:, :-1] = -neg[:, :-1] % scale
    rows, counts = _group(np.concatenate([rows, neg]), np.concatenate([counts, counts[pair]]))
    keys = rows[:, :-1]
    new = np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]
    norms, at = np.unique(rows[:, -1], return_inverse=True)
    tally = np.zeros((int(new.sum()), norms.size), dtype=np.int64)
    tally[np.cumsum(new) - 1, at] = counts
    return tally, norms, keys[new]


def enumerate_shell(basis: np.ndarray, bound: int, budget: int = DEFAULT_NODE_BUDGET) -> np.ndarray:
    """The vectors x * basis of norm exactly bound, one of each +-pair, as rows."""
    basis = int64_rows(basis)
    rows = [v[q == bound] for v, q, _ in _ball(basis, bound, budget=budget)]
    return np.concatenate([np.zeros((0, basis.shape[1]), dtype=np.int64)] + rows)


def _norm_step(basis: np.ndarray) -> int:
    """The largest g dividing every norm of the lattice: gcd(G_ii, 2 G_ij).

    The norm of x * basis is sum_i x_i^2 G_ii + 2 sum_{i<j} x_i x_j G_ij,
    a multiple of g; no larger g divides the norms G_ii and
    G_ii + G_jj + 2 G_ij.  The Gram entries fit int64 (the rows pass
    `int64_rows`), and 2 G_ij is taken in Python ints, where it cannot wrap.
    """
    gram = basis @ basis.T
    diag = int(np.gcd.reduce(gram.diagonal()))
    off = int(np.gcd.reduce(gram[np.triu_indices(gram.shape[0], 1)], initial=0))
    return math.gcd(diag, 2 * off)


def shortest_norm(basis: np.ndarray, budget: int = DEFAULT_NODE_BUDGET, keep=None) -> int:
    """Exact minimum squared length of a lattice vector that `keep` accepts.

    `keep` maps an array of vectors (rows) to a boolean mask; it must be
    symmetric under v -> -v and accept some basis row.  By default it
    accepts the nonzero vectors.  Every norm of the lattice is a multiple
    of its norm step g (`_norm_step`; g = k on the lift of a self-dual
    code over Z_k), so a vector shorter than best has norm at most
    best - g.  One walk starts at the bound best - g, best the shortest
    kept basis row, and lowers its limit to best - g (plus the starting
    slack) whenever a shorter kept vector turns up; the walk's end is an
    exhaustive proof that none is shorter than best.
    """
    basis = int64_rows(basis)
    if keep is None:
        keep = lambda v: v.any(axis=1)
    best = int(_norms(basis)[keep(basis)].min())
    for v, q, limit in _ball(basis, best - _norm_step(basis), budget=budget):
        short = q < best  # keep runs only on the few rows that could improve
        low = int(q[short][keep(v[short])].min(initial=best))
        limit -= best - low  # the slack stays
        best = low
    return best
