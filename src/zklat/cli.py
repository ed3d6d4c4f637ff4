"""Command-line surface.

Exit codes: 0 = verified / found, 1 = refuted / not found, 2 = unknown
(budget exhausted or no certificate either way).  Malformed input,
including a malformed option, is an `error:` line with exit code 1.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from . import bounds, catalog, fileio
from .codes import ZkCode, is_self_dual, min_euclidean_weight
from .errors import BudgetExceeded, PreconditionViolation, UnknownId, ZklatError
from .lattice import (
    Frame,
    Lattice,
    construction_a,
    contains_frame,
    even_sublattice_and_shadow,
    find_frame,
    min_norm,
    theta_prefix,
)
from .shortvec import DEFAULT_NODE_BUDGET
from .skew import (
    REPRESENTATION_CASES,
    FrameQuadruple,
    SkewSeed,
    build_code_from_skew,
    build_frame,
    representation_search,
    scale_frame,
    star_condition_check,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2

NODE_BUDGET_HELP = (
    "enumeration node budget: the number of Fincke-Pohst tree nodes "
    "expanded, not loop iterations"
)


class _Parser(argparse.ArgumentParser):
    """argparse with the CLI's exit code for malformed input, not 2 (unknown)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_REFUTED, f"error: {message}\n")


def _budget(text: str) -> int:
    """A `--budget` value: a node count, so a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _resolve(token: str, *kinds: type):
    """The catalog object or file (in a text format) a token names, of one of `kinds`."""
    try:
        obj = catalog.build(token)
    except UnknownId:
        path = Path(token)
        if not path.exists():
            raise UnknownId(f"{token!r} is neither a catalog id nor a file") from None
        try:
            obj = fileio.load(path.read_text())
        except ValueError as e:  # a token that is not an integer
            raise PreconditionViolation(f"{token!r}: {e}") from None
    if not isinstance(obj, kinds):
        want = " or ".join(t.__name__ for t in kinds)
        raise PreconditionViolation(f"{token!r} is a {type(obj).__name__}, not a {want}")
    return obj


def _as_lattice(token: str) -> Lattice:
    """The lattice a token names, or the Construction A lattice of its code or seed."""
    obj = _resolve(token, Lattice, ZkCode, SkewSeed)
    if isinstance(obj, SkewSeed):
        obj = build_code_from_skew(obj)
    return construction_a(obj) if isinstance(obj, ZkCode) else obj


def _write_out(args, text: str) -> None:
    if getattr(args, "out", None):
        fileio.write_text(args.out, text)


def _ints(text: str, count: int, flag: str) -> list[int]:
    """The `count` comma- or space-separated integers of an option's value."""
    xs = text.replace(",", " ").split()
    if len(xs) != count or not all(x.removeprefix("-").isdecimal() for x in xs):
        raise PreconditionViolation(f"{flag} takes {count} integers, not {text!r}")
    return [int(x) for x in xs]


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
    code = _resolve(args.id, ZkCode)
    bound = bounds.d_E_upper_bound(code.n, code.k).value  # before paying for the walk
    d = min_euclidean_weight(code, budget=args.budget)
    print(f"d_E = {d}  ({bounds.classify(code.n, code.k, d)}, bound {bound})")
    return EXIT_OK


def cmd_lattice(args) -> int:
    lat = _as_lattice(args.id)
    print(f"dim {lat.dim}, scale {lat.scale}, unimodular = {lat.is_unimodular()}, "
          f"even = {lat.is_even()}")
    _write_out(args, fileio.dump_lattice(lat))
    return EXIT_OK if lat.is_unimodular() else EXIT_REFUTED


def cmd_minnorm(args) -> int:
    lat = _as_lattice(args.id)
    print(f"min norm = {min_norm(lat, budget=args.budget)}")
    return EXIT_OK


def cmd_theta(args) -> int:
    lat = _as_lattice(args.id)
    th = theta_prefix(lat, args.max_norm, budget=args.budget)
    for q, c in th.as_pairs():
        print(q, c)
    _write_out(args, fileio.dump_theta(th))
    return EXIT_OK


def cmd_shadow(args) -> int:
    lat = _as_lattice(args.id)
    parts = even_sublattice_and_shadow(lat)
    print(f"even sublattice: dim {parts.l0_refined.dim}, refined scale {parts.scale}")
    for name, rep in (("l1", parts.rep_l1), ("l2", parts.rep_l2), ("l3", parts.rep_l3)):
        print(name, " ".join(str(int(x)) for x in rep))
    return EXIT_OK


def cmd_frame_build(args) -> int:
    seed = _resolve(args.seed, SkewSeed)
    frame = build_frame(seed, FrameQuadruple(*_ints(args.abcd, 4, "--abcd")))
    member = contains_frame(construction_a(build_code_from_skew(seed)), frame)
    print(f"{frame.norm_k}-frame, all rows in the lattice = {member}")
    _write_out(args, fileio.dump_frame(frame))
    return EXIT_OK if member else EXIT_REFUTED


def cmd_frame_find(args) -> int:
    lat = _as_lattice(args.id)
    frame = find_frame(lat, args.k, budget=args.budget)
    if frame is None:
        print("none (exhaustive)")
        return EXIT_REFUTED
    print(f"found a {args.k}-frame")
    _write_out(args, fileio.dump_frame(frame))
    return EXIT_OK


def cmd_frame_scale(args) -> int:
    frame = _resolve(args.frame, Frame)
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
    if getattr(args, "out", None):
        if verdict.frame is None:
            print(f"no frame file written to {args.out}: the verdict carries no explicit frame")
        else:
            fileio.write_text(args.out, fileio.dump_frame(verdict.frame))
    return {"yes": EXIT_OK, "no": EXIT_REFUTED}.get(verdict.status, EXIT_UNKNOWN)


def cmd_bound(args) -> int:
    prof = bounds.d_E_upper_bound(args.n, args.k, type_one=args.type1)
    print(f"{prof.value}  [{prof.rule}]")
    return EXIT_OK


def _checked(what: str, compute, expected) -> tuple[str, int]:
    """The row text for `what`, compute() against `expected`, and the row's exit code;
    a budget overrun makes the row unknown, and the table goes on."""
    try:
        got = compute()
    except BudgetExceeded as e:
        return f"{what} unknown (budget exceeded: {e})", EXIT_UNKNOWN
    ok = got == expected
    return f"{what} {got} (expected {expected}) {'ok' if ok else 'FAIL'}", (
        EXIT_OK if ok else EXIT_REFUTED
    )


def _seed_rows(args) -> list[int]:
    for sid in catalog.catalog_list("skew_seed"):
        catalog.build(sid)  # constructor enforces the skew identities
        print(f"  {sid}: ok")
    return []


def _min_norm_rows(args) -> list[int]:
    """Each lattice's proven minimum against the catalog, then against the
    unimodular bound: extremal at it, near-extremal one below, else FAIL."""
    statuses = []
    for lid in catalog.catalog_list("lattice"):
        info = catalog.lattice_info(lid)
        lat = catalog.build(lid)
        if lat.dim > 28 and not args.slow:
            print(f"  {lid}: skipped (dim {lat.dim}; use --slow)")
            continue
        text, status = _checked(
            "min norm", lambda: min_norm(lat, budget=args.budget), info.min_norm
        )
        statuses.append(status)
        if status != EXIT_UNKNOWN:  # proved, so min_norm reads the kept proof
            gap = bounds.unimodular_min_norm_bound(lat.dim) - min_norm(lat)
            word = {0: "extremal", 1: "near-extremal"}.get(gap, f"{gap} below the bound FAIL")
            text += f", {word}"
            statuses.append(EXIT_OK if gap in (0, 1) else EXIT_REFUTED)
        print(f"  {lid}: {text}")
    return statuses


def _code_rows(ids, args) -> list[int]:
    """Self-duality and type of each code (a Type II code FAILs), then its d_E
    against the catalog when n <= 28 or --slow."""
    statuses = []
    for cid in ids:
        code = catalog.build(cid)
        ok = is_self_dual(code)
        line = f"  {cid}: self-dual {ok}"
        if ok:  # Type I exactly when the lift is odd
            ok = not code.lift().is_even()
            line += ", Type I" if ok else ", Type II FAIL"
        statuses.append(EXIT_OK if ok else EXIT_REFUTED)
        exp = catalog.catalog_get(cid).expected.get("d_E")
        if exp is not None and (code.n <= 28 or args.slow):
            text, status = _checked(
                "d_E", lambda: min_euclidean_weight(code, budget=args.budget), exp
            )
            statuses.append(status)
            line += f", {text}"
        print(line)
    return statuses


def _length_rows(n: int, args) -> list[int]:
    """`_code_rows` over the catalog codes of length n."""
    return _code_rows([c for c in catalog.catalog_list("code") if catalog.build(c).n == n], args)


# table -> (title, its rows: a function of the parsed args that prints them
# and returns their exit codes)
_REPRODUCE_TABLES = {
    "table1": ("skew seeds validate", _seed_rows),
    "table2": ("model lattice minimum norms", _min_norm_rows),
    **{
        f"table{i}": (f"length-{n} codes", partial(_length_rows, n))
        for i, n in enumerate((20, 28, 32, 36, 40, 44, 48), start=3)
    },
    "fig1": ("block code of length 20", partial(_code_rows, ["Cp_4_20"])),
    "fig2": ("block codes of length 28", partial(_code_rows, ["C_4_28", "Cp_4_28"])),
    "fig3": ("block code of length 36", partial(_code_rows, ["C_4_36"])),
}


def cmd_reproduce(args) -> int:
    title, rows = _REPRODUCE_TABLES[args.table]
    print(f"reproducing: {title}")
    statuses = rows(args)  # one exit code per checked row
    if EXIT_REFUTED in statuses:
        return EXIT_REFUTED
    return EXIT_UNKNOWN if EXIT_UNKNOWN in statuses else EXIT_OK


def main(argv=None) -> int:
    parser = _Parser(
        prog="zklat",
        description="self-dual codes over Z_k, Construction A lattices, and k-frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        return p

    def budget(p):
        p.add_argument("--budget", type=_budget, default=DEFAULT_NODE_BUDGET, help=NODE_BUDGET_HELP)

    p = add("verify", cmd_verify); p.add_argument("id")
    p = add("dmin", cmd_dmin); p.add_argument("id")
    budget(p)
    p = add("lattice", cmd_lattice); p.add_argument("id"); p.add_argument("--out")
    p = add("minnorm", cmd_minnorm); p.add_argument("id")
    budget(p)
    p = add("theta", cmd_theta); p.add_argument("id")
    p.add_argument("--max-norm", type=int, required=True)
    budget(p)
    p.add_argument("--out")
    p = add("shadow", cmd_shadow); p.add_argument("id")
    p = add("frame-build", cmd_frame_build); p.add_argument("seed")
    p.add_argument("--abcd", required=True); p.add_argument("--out")
    p = add("frame-find", cmd_frame_find); p.add_argument("id")
    p.add_argument("--k", type=int, required=True)
    budget(p)
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
    budget(p)
    p.add_argument("--slow", action="store_true")

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}")
        return EXIT_UNKNOWN
    except ZklatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_REFUTED


if __name__ == "__main__":
    sys.exit(main())
