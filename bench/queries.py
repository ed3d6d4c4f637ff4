"""The three workloads: their query pools, seeded order, execution and checks.

A query is one verdict a user would ask the library for.  Each one is
checked against a reference that does not come from the code path under
test: catalog annotations (minimum norms, d_E, published theta
coefficients), root-system counts implied by the lattice names, exact
identities (shadow additivity, min A(C) = min(k, d_E / k)), frame
membership re-checks, and `reference.json`, the verdicts and counts
recorded at the seed commit.  A failed check is returned as a problem
string; it never aborts the pass.

Library calls go through module attributes (`lattice.min_norm`, not a
name bound at import) so the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from zklat import catalog, codes, lattice

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# norm-2 counts fixed by the root system in each lattice's name:
# |D_n| = 2n(n-1), |A_n| = n(n+1), and a sum for a direct sum
ROOTS = {
    "D12_plus": 2 * 12 * 11,
    "D8_2": 2 * (2 * 8 * 7),
    "D4_5": 5 * (2 * 4 * 3),
    "A5_4": 4 * (5 * 6),
    "D20": 2 * 20 * 19,
}

_D12_KS = [k for k in range(2, 51) if k not in (7, 8, 16, 32)]

POOLS = {
    "theta": [
        ("theta", "D12_plus", 4),
        ("theta", "D12_plus", 6),
        ("theta", "D8_2", 3),
        ("theta", "A5_4", 2),
        ("theta", "D20", 3),
        ("shadow", "D12_plus", 3),
        ("shadow", "D8_2", 2),
    ],
    "minnorm": [
        ("min_norm", lid) for lid in ("D12_plus", "D8_2", "D4_5", "A5_4", "D20")
    ] + [
        ("code", cid) for cid in (
            "C_12_3_D6", "C_13_12", "C_23_12", "C_7_16", "C_16_4_P8",
            "Cp_4_20", "C_5_20", "C_13_20",
        )
    ],
    "frames": [("frame", "D12_plus", k) for k in _D12_KS]
    + [("frame", "D8_2", k) for k in (2, 4, 7)]
    + [("frame", "D4_5", 2), ("frame", "A5_4", 2), ("frame", "D20", 3)]
    + [("frame", lid, k) for lid in ("R28_32", "R28_15") for k in range(2, 9)],
}


def label(query) -> str:
    return ":".join(str(x) for x in query)


def query_objects(query) -> list[str]:
    """Catalog ids a query reads; built before it starts, outside its time."""
    kind, obj = query[0], query[1]
    if kind == "frame":
        info = catalog.lattice_info(obj)
        return [obj, *info.direct_codes.values()]
    return [obj]


def setup_objects(workload: str) -> list[str]:
    seen: dict[str, None] = {}
    for q in POOLS[workload]:
        seen.update(dict.fromkeys(query_objects(q)))
    return list(seen)


def order(workload: str, seed: int, pass_index: int) -> list[tuple]:
    """The pool in a seeded order; each pass of a run gets its own order."""
    pool = list(POOLS[workload])
    random.Random(f"{workload}/{seed}/{pass_index}").shuffle(pool)
    return pool


def reset_memos() -> list[str]:
    """Empty the library's in-process memo caches; names not found are returned.

    With `catalog.build`'s cache cleared, every lattice is built afresh, so
    the per-object `Lattice._reduced` cache starts empty as well.
    """
    missing = []
    fn = catalog.build
    while fn is not None and not hasattr(fn, "cache_clear"):
        fn = getattr(fn, "__wrapped__", None)
    if fn is None:
        missing.append("catalog.build.cache_clear")
    else:
        fn.cache_clear()
    for name in ("_base_cache", "_minnorm_cache"):
        cache = getattr(catalog, name, None)
        if cache is None:
            missing.append(f"catalog.{name}")
        else:
            cache.clear()
    return missing


def _counts(theta) -> dict[str, int]:
    return {str(q): int(c) for q, c in theta.as_pairs()}


def _upto(counts: dict[str, int], bound) -> dict[str, int]:
    return {q: c for q, c in counts.items() if Fraction(q) <= bound}


def _theta(lid: str, norm: int) -> tuple[str, list[str]]:
    th = lattice.theta_prefix(catalog.build(lid), norm)
    got = _counts(th)
    problems = []
    ref = _upto(REFERENCE["theta"][lid], norm)
    if got != ref:
        problems.append(f"theta {lid} to {norm}: {got} != reference {ref}")
    if got.get("0") != 1:
        problems.append(f"theta {lid}: coefficient 0 is {got.get('0')}")
    if norm >= 2 and got.get("2", 0) != ROOTS[lid]:
        problems.append(f"theta {lid}: {got.get('2', 0)} roots, root system has {ROOTS[lid]}")
    entry = catalog.catalog_get(lid)
    for q in range(1, min(entry.expected["min_norm"], norm + 1)):
        if got.get(str(q), 0):
            problems.append(f"theta {lid}: vectors of norm {q} below the minimum")
    for q, c in entry.expected.get("theta", {}).items():
        if q <= norm and got.get(str(q), 0) != c:
            problems.append(f"theta {lid}: norm {q} count {got.get(str(q), 0)} != catalog {c}")
    return "exact", problems


def _shadow(lid: str, bound: int) -> tuple[str, list[str]]:
    parts = lattice.even_sublattice_and_shadow(catalog.build(lid))
    whole = _counts(lattice.theta_prefix(parts.l0_dual, bound))
    l0 = _counts(lattice.theta_prefix(parts.l0_refined, bound))
    cosets = [
        _counts(lattice.coset_theta(parts.l0_refined, rep, bound))
        for rep in (parts.rep_l1, parts.rep_l2, parts.rep_l3)
    ]
    problems = []
    total: dict[str, int] = dict(l0)
    for c in cosets:
        for q, n in c.items():
            total[q] = total.get(q, 0) + n
    if total != whole:
        problems.append(f"shadow {lid}: theta(L0*) {whole} != theta(L0) + cosets {total}")
    in_l = dict(l0)
    for q, n in cosets[1].items():
        in_l[q] = in_l.get(q, 0) + n
    ref_l = _upto(REFERENCE["theta"][lid], bound)
    if in_l != ref_l:
        problems.append(f"shadow {lid}: theta(L0) + theta(L0 + l2) {in_l} != theta(L) {ref_l}")
    ref = REFERENCE["shadow"][lid][str(bound)]
    got = {"l0_dual": whole, "l0": l0, "cosets": cosets}
    if got != ref:
        problems.append(f"shadow {lid} to {bound}: {got} != reference {ref}")
    return "exact", problems


def _min_norm(lid: str) -> tuple[str, list[str]]:
    got = lattice.min_norm(catalog.build(lid))
    want = catalog.catalog_get(lid).expected["min_norm"]
    return "exact", [] if got == want else [f"min_norm {lid}: {got} != catalog {want}"]


def _code(cid: str) -> tuple[str, list[str]]:
    code = catalog.build(cid)
    got = lattice.min_norm(lattice.construction_a(code))
    problems = []
    d_e = catalog.catalog_get(cid).expected.get("d_E")
    if code.cardinality <= 2**31:
        weight = codes.min_euclidean_weight(code)
        if d_e is not None and weight != d_e:
            problems.append(f"d_E {cid}: {weight} != catalog {d_e}")
        d_e = weight
    if d_e is None:
        return "exact", [f"{cid}: no d_E to check min(A(C)) against"]
    want = min(Fraction(code.k), Fraction(d_e, code.k))
    if got != want:
        problems.append(f"min A({cid}) = {got} != min(k, d_E/k) = {want}")
    return "exact", problems


def _frame(lid: str, k: int) -> tuple[str, list[str]]:
    verdict = catalog.frame_report(lid, k)
    status = verdict.status
    problems = []
    ref = REFERENCE["frames"][lid][str(k)]
    if status not in ("yes", "no", "unknown"):
        problems.append(f"frame {lid} k={k}: status {status!r}")
    elif {status, ref} == {"yes", "no"}:
        problems.append(f"frame {lid} k={k}: {status}, reference says {ref}")
    if status != "unknown" and not verdict.chain:
        problems.append(f"frame {lid} k={k}: {status} without a certificate chain")
    if status == "yes" and k < catalog.catalog_get(lid).expected["min_norm"]:
        problems.append(f"frame {lid} k={k}: yes below the catalog minimum norm")
    frame = verdict.frame
    if frame is not None:
        if frame.norm_k != k or not lattice.contains_frame(catalog.build(lid), frame):
            problems.append(f"frame {lid} k={k}: returned frame fails the membership re-check")
    return status, problems


_RUNNERS = {
    "theta": _theta,
    "shadow": _shadow,
    "min_norm": _min_norm,
    "code": _code,
    "frame": _frame,
}


def run_query(query) -> tuple[str, list[str]]:
    """Issue one query and check its answer: (status, problems)."""
    return _RUNNERS[query[0]](*query[1:])
