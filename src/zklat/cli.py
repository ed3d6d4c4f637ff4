"""Command-line surface.

Exit codes: 0 = verified / found, 1 = refuted / not found, 2 = unknown
(budget exhausted or no certificate either way).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bounds, catalog, fileio
from .arith import REPRESENTATION_CASES, representation_search, scale_frame, star_condition_check
from .codes import DEFAULT_CODEWORD_BUDGET, ZkCode, is_self_dual, min_euclidean_weight
from .errors import BudgetExceeded, UnknownId, ZklatError
from .lattice import (
    DEFAULT_NODE_BUDGET,
    Lattice,
    construction_a,
    contains_frame,
    even_neighbors,
    even_sublattice_and_shadow,
    find_frame,
    min_norm,
    theta_prefix,
    two_neighbor_at_vector,
)
from .skew import FrameQuadruple, SkewSeed, build_frame

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2

NODE_BUDGET_HELP = (
    "enumeration node budget: the number of Fincke-Pohst tree nodes "
    "expanded, not loop iterations"
)


def _resolve(token: str):
    """A catalog id, or a path to one of the text formats."""
    try:
        return catalog.build(token)
    except UnknownId:
        pass
    path = Path(token)
    if not path.exists():
        raise UnknownId(f"{token!r} is neither a catalog id nor a file")
    text = path.read_text()
    tag = fileio._data_lines(text)[0].split()[0]
    loader = {
        "zkcode": fileio.load_code,
        "skewseed": fileio.load_seed,
        "lattice": fileio.load_lattice,
        "frame": fileio.load_frame,
    }.get(tag)
    if loader is None:
        raise UnknownId(f"unrecognized file header {tag!r}")
    return loader(text)


def _as_lattice(obj) -> Lattice:
    if isinstance(obj, Lattice):
        return obj
    if isinstance(obj, ZkCode):
        return construction_a(obj)
    if isinstance(obj, SkewSeed):
        from .skew import build_code_from_skew

        return construction_a(build_code_from_skew(obj))
    raise UnknownId("expected a lattice, code, or seed")


def _write_out(args, text: str) -> None:
    if getattr(args, "out", None):
        fileio.write_text(args.out, text)


def _ints(s: str) -> list[int]:
    return [int(x) for x in s.replace(",", " ").split()]


def cmd_verify(args) -> int:
    obj = catalog.build(args.id)
    entry = catalog.catalog_get(args.id)
    if isinstance(obj, ZkCode):
        ok = is_self_dual(obj)
        print(f"{args.id}: self-dual = {ok}  [{entry.provenance}]")
    elif isinstance(obj, SkewSeed):
        # construction already validated the skew identities
        print(f"{args.id}: skew seed valid (k={obj.k}, m={obj.m}, ell={obj.ell})")
        ok = True
    else:
        ok = obj.is_unimodular()
        print(f"{args.id}: unimodular = {ok}, dim {obj.dim}")
    return EXIT_OK if ok else EXIT_REFUTED


def cmd_dmin(args) -> int:
    code = _resolve(args.id)
    try:
        d = min_euclidean_weight(code, budget=args.budget)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}")
        return EXIT_UNKNOWN
    label = bounds.classify(code.n, code.k, d)
    print(f"d_E = {d}  ({label}, bound {bounds.d_E_upper_bound(code.n, code.k).value})")
    return EXIT_OK


def cmd_lattice(args) -> int:
    lat = _as_lattice(_resolve(args.id))
    print(f"dim {lat.dim}, scale {lat.scale}, unimodular = {lat.is_unimodular()}, "
          f"even = {lat.is_even()}")
    _write_out(args, fileio.dump_lattice(lat))
    return EXIT_OK if lat.is_unimodular() else EXIT_REFUTED


def cmd_minnorm(args) -> int:
    lat = _as_lattice(_resolve(args.id))
    try:
        print(f"min norm = {min_norm(lat, budget=args.budget)}")
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}")
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_theta(args) -> int:
    lat = _as_lattice(_resolve(args.id))
    try:
        th = theta_prefix(lat, args.max_norm, budget=args.budget)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}")
        return EXIT_UNKNOWN
    for q, c in th.as_pairs():
        print(q, c)
    _write_out(args, fileio.dump_theta(th))
    return EXIT_OK


def cmd_shadow(args) -> int:
    lat = _as_lattice(_resolve(args.id))
    parts = even_sublattice_and_shadow(lat)
    print(f"even sublattice: dim {parts.l0.dim}, refined scale {parts.scale}")
    for name, rep in (("l1", parts.rep_l1), ("l2", parts.rep_l2), ("l3", parts.rep_l3)):
        print(name, " ".join(str(int(x)) for x in rep))
    return EXIT_OK


def cmd_neighbors(args) -> int:
    lat = _as_lattice(_resolve(args.id))
    n1, n2 = even_neighbors(lat)
    ok = True
    for i, nb in enumerate((n1, n2), 1):
        good = nb.is_unimodular() and nb.is_even()
        ok &= good
        print(f"neighbor {i}: even unimodular = {good}")
        if getattr(args, "out", None):
            fileio.write_text(f"{args.out}.{i}", fileio.dump_lattice(nb))
    return EXIT_OK if ok else EXIT_REFUTED


def cmd_two_neighbor(args) -> int:
    lat = _as_lattice(_resolve(args.id))
    out = two_neighbor_at_vector(lat, _ints(args.x), _ints(args.y))
    print(f"odd unimodular neighbor: dim {out.dim}, scale {out.scale}")
    _write_out(args, fileio.dump_lattice(out))
    return EXIT_OK


def cmd_frame_build(args) -> int:
    seed = _resolve(args.seed)
    a, b, c, d = _ints(args.abcd)
    frame = build_frame(seed, FrameQuadruple(a, b, c, d))
    member = contains_frame(_as_lattice(seed), frame)
    print(f"{frame.norm_k}-frame, all rows in the lattice = {member}")
    _write_out(args, fileio.dump_frame(frame))
    return EXIT_OK if member else EXIT_REFUTED


def cmd_frame_find(args) -> int:
    lat = _as_lattice(_resolve(args.id))
    try:
        frame = find_frame(lat, args.k, budget=args.budget)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}")
        return EXIT_UNKNOWN
    if frame is None:
        print("none (exhaustive)")
        return EXIT_REFUTED
    print(f"found a {args.k}-frame")
    _write_out(args, fileio.dump_frame(frame))
    return EXIT_OK


def cmd_frame_scale(args) -> int:
    frame = _resolve(args.frame)
    out = scale_frame(frame, args.m)
    print(f"{out.norm_k}-frame (scaled by {args.m})")
    _write_out(args, fileio.dump_frame(out))
    return EXIT_OK


def cmd_rep_search(args) -> int:
    case = REPRESENTATION_CASES[args.case]
    q = representation_search(case, args.p)
    if q is None:
        print("none (exhaustive)")
        return EXIT_REFUTED
    print(f"(a,b,c,d) = ({q.a},{q.b},{q.c},{q.d}), "
          f"{args.p} = (a^2+{case.m}b^2+c^2+{case.m}d^2)/{case.k}")
    return EXIT_OK


def cmd_star(args) -> int:
    min_k = catalog.lattice_info(args.row).min_norm
    ok = star_condition_check(catalog.lattice_case(args.row), min_k, args.k)
    print(f"condition holds for k={args.k}: {ok}")
    return EXIT_OK if ok else EXIT_REFUTED


def cmd_report(args) -> int:
    verdict = catalog.frame_report(args.lattice, args.k)
    print(f"{args.lattice}, k={args.k}: {verdict.status}")
    for step in verdict.chain:
        print(" -", step)
    if getattr(args, "out", None) and verdict.frame is not None:
        fileio.write_text(args.out, fileio.dump_frame(verdict.frame))
    return {"yes": EXIT_OK, "no": EXIT_REFUTED}.get(verdict.status, EXIT_UNKNOWN)


def cmd_bound(args) -> int:
    prof = bounds.d_E_upper_bound(args.n, args.k, type_one=args.type1)
    print(f"{prof.value}  [{prof.rule}]")
    return EXIT_OK


_REPRODUCE_TABLES = {
    "table1": ("skew seeds validate", "seeds"),
    "table2": ("model lattice minimum norms", "minnorms"),
    "table3": ("length-20 codes", 20),
    "table4": ("length-28 codes", 28),
    "table5": ("length-32 codes", 32),
    "table6": ("length-36 codes", 36),
    "table7": ("length-40 codes", 40),
    "table8": ("length-44 codes", 44),
    "table9": ("length-48 codes", 48),
    "fig1": ("block code of length 20", ["Cp_4_20"]),
    "fig2": ("block codes of length 28", ["C_4_28", "Cp_4_28"]),
    "fig3": ("block code of length 36", ["C_4_36"]),
}


def cmd_reproduce(args) -> int:
    title, what = _REPRODUCE_TABLES[args.table]
    print(f"reproducing: {title}")
    failures = 0
    if what == "seeds":
        for sid in catalog.catalog_list("skew_seed"):
            catalog.build(sid)  # constructor enforces the skew identities
            print(f"  {sid}: ok")
    elif what == "minnorms":
        for lid in catalog.catalog_list("lattice"):
            info = catalog.lattice_info(lid)
            lat = catalog.build(lid)
            if lat.dim > 28 and not args.slow:
                print(f"  {lid}: skipped (dim {lat.dim}; use --slow)")
                continue
            mn = min_norm(lat, budget=args.budget)
            ok = mn == info.min_norm
            failures += not ok
            print(f"  {lid}: min norm {mn} (expected {info.min_norm}) {'ok' if ok else 'FAIL'}")
    elif isinstance(what, int):
        for cid in catalog.catalog_list("code"):
            code = catalog.build(cid)
            if code.n != what:
                continue
            ok = is_self_dual(code)
            failures += not ok
            line = f"  {cid}: self-dual {ok}"
            exp = catalog.catalog_get(cid).expected.get("d_E")
            if exp is not None and code.cardinality <= args.budget:
                d = min_euclidean_weight(code, budget=args.budget)
                ok2 = d == exp
                failures += not ok2
                line += f", d_E {d} (expected {exp}) {'ok' if ok2 else 'FAIL'}"
            print(line)
    else:
        for cid in what:
            code = catalog.build(cid)
            ok = is_self_dual(code)
            failures += not ok
            print(f"  {cid}: self-dual {ok}")
    return EXIT_OK if failures == 0 else EXIT_REFUTED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zklat",
        description="self-dual codes over Z_k, Construction A lattices, and k-frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        return p

    p = add("verify", cmd_verify); p.add_argument("id")
    p = add("dmin", cmd_dmin); p.add_argument("id")
    p.add_argument("--budget", type=int, default=DEFAULT_CODEWORD_BUDGET)
    p = add("lattice", cmd_lattice); p.add_argument("id"); p.add_argument("--out")
    p = add("minnorm", cmd_minnorm); p.add_argument("id")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help=NODE_BUDGET_HELP)
    p = add("theta", cmd_theta); p.add_argument("id")
    p.add_argument("--max-norm", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help=NODE_BUDGET_HELP)
    p.add_argument("--out")
    p = add("shadow", cmd_shadow); p.add_argument("id")
    p = add("neighbors", cmd_neighbors); p.add_argument("id"); p.add_argument("--out")
    p = add("two-neighbor", cmd_two_neighbor); p.add_argument("id")
    p.add_argument("--x", required=True); p.add_argument("--y", required=True)
    p.add_argument("--out")
    p = add("frame-build", cmd_frame_build); p.add_argument("seed")
    p.add_argument("--abcd", required=True); p.add_argument("--out")
    p = add("frame-find", cmd_frame_find); p.add_argument("id")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help=NODE_BUDGET_HELP)
    p.add_argument("--out")
    p = add("frame-scale", cmd_frame_scale); p.add_argument("frame")
    p.add_argument("--m", type=int, required=True); p.add_argument("--out")
    p = add("rep-search", cmd_rep_search)
    p.add_argument("--case", choices=sorted(REPRESENTATION_CASES), required=True)
    p.add_argument("--p", type=int, required=True)
    p = add("star", cmd_star); p.add_argument("--row", required=True)
    p.add_argument("--k", type=int, required=True)
    p = add("report", cmd_report); p.add_argument("lattice")
    p.add_argument("--k", type=int, required=True); p.add_argument("--out")
    p = add("bound", cmd_bound)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--type1", action="store_true")
    p = add("reproduce", cmd_reproduce)
    p.add_argument("table", choices=sorted(_REPRODUCE_TABLES))
    p.add_argument("--budget", type=int, default=DEFAULT_CODEWORD_BUDGET)
    p.add_argument("--slow", action="store_true")

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ZklatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNKNOWN if isinstance(e, BudgetExceeded) else EXIT_REFUTED


if __name__ == "__main__":
    sys.exit(main())
