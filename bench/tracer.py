"""Span tracing for the benchmark's traced run.

The wrappers live here, in the benchmark, not in the library: each hook
names a public zklat function, and `install` replaces every binding of
that function object in the loaded zklat modules.  `from .shortvec import
enumerate_ball` copies the binding into `zklat.lattice`, so patching the
defining module alone would record nothing; patching by identity finds
the copies wherever a calling module bound them.

Each call becomes one span: id, parent span, request (query) id, start,
end and a few counters.  Spans stay in memory and are folded into
per-layer totals when the pass ends.  A layer's self time is its span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time


def _vectors(args, kwargs, result):
    return {"vectors": int(result[0].sum())}


def _empty(args, kwargs, result):
    return {"empty": int(result is None)}


def _core_sizes(args, kwargs, result):
    vectors = args[0] if args else kwargs["vectors"]
    return {"in": int(len(vectors)), "out": int(len(result))}


def _found(args, kwargs, result):
    return {"found": int(result is not None)}


def _hits(args, kwargs, result):
    return {"hits": int(result is not None)}


def _codewords(args, kwargs, result):
    code = args[0] if args else kwargs["code"]
    return {"codewords": int(code.cardinality)}


# metric prefix -> (zklat module, attribute path, counter extractor)
HOOKS = {
    "intmat.hnf": ("intmat", "hnf", None),
    "intmat.lll_reduce": ("intmat", "lll_reduce", None),
    "intmat.solve_fraction": ("intmat", "solve_fraction", None),
    "shortvec.enumerate_ball": ("shortvec", "enumerate_ball", _vectors),
    "shortvec.first_nonzero_leq": ("shortvec", "first_nonzero_leq", _empty),
    "shortvec.block_reduce": ("shortvec", "block_reduce", None),
    "cliques.core_filter": ("cliques", "core_filter", _core_sizes),
    "cliques.find_orthogonal_set": ("cliques", "find_orthogonal_set", _found),
    "codes.min_euclidean_weight": ("codes", "min_euclidean_weight", _codewords),
    "lattice.reduced_basis": ("lattice", "Lattice.reduced_basis", None),
    "lattice.min_norm": ("lattice", "min_norm", None),
    "lattice.theta_prefix": ("lattice", "theta_prefix", None),
    "lattice.coset_theta": ("lattice", "coset_theta", None),
    "lattice.even_sublattice_and_shadow": ("lattice", "even_sublattice_and_shadow", None),
    "lattice.construction_a": ("lattice", "construction_a", None),
    "lattice.find_frame": ("lattice", "find_frame", None),
    "lattice.contains_frame": ("lattice", "contains_frame", None),
    "skew.search_quadruple": ("skew", "search_quadruple", _hits),
    "arith.scale_frame": ("arith", "scale_frame", None),
    "catalog.build": ("catalog", "build", None),
    "catalog.frame_report": ("catalog", "frame_report", None),
}

# (metric, unit, better, end-to-end metric and workload it should move)
PER_LAYER = [
    ("intmat.hnf.calls", "count", "lower", "setup_s, all workloads"),
    ("intmat.hnf.s", "s", "lower", "setup_s, all workloads"),
    ("intmat.lll_reduce.calls", "count", "lower", "verdicts_per_s, verdict_s.p50 on minnorm; frames (a cold report re-proves the model min norm); partly theta"),
    ("intmat.lll_reduce.s", "s", "lower", "verdicts_per_s, verdict_s.p50 on minnorm; frames (a cold report re-proves the model min norm); partly theta"),
    ("intmat.solve_fraction.calls", "count", "lower", "verdicts_per_s on theta (coset centres)"),
    ("intmat.solve_fraction.s", "s", "lower", "verdicts_per_s on theta (coset centres)"),
    ("shortvec.enumerate_ball.calls", "count", "lower", "verdicts_per_s, verdict_s.p90 on theta; frames via find_frame; none on minnorm"),
    ("shortvec.enumerate_ball.s", "s", "lower", "verdicts_per_s, verdict_s.p90 on theta; frames via find_frame; none on minnorm"),
    ("shortvec.enumerate_ball.vectors", "count", "lower", "work count for enumerate_ball.s; fixed by the queries"),
    ("shortvec.enumerate_ball.vectors_per_s", "1/s", "higher", "verdicts_per_s on theta and frames"),
    ("shortvec.first_nonzero_leq.calls", "count", "lower", "verdict_s.p90 on minnorm; frames through min_norm; none on theta"),
    ("shortvec.first_nonzero_leq.s", "s", "lower", "verdict_s.p90 on minnorm; frames through min_norm; none on theta"),
    ("shortvec.first_nonzero_leq.empty", "count", "lower", "emptiness proofs, one per min_norm verdict"),
    ("shortvec.block_reduce.calls", "count", "lower", "minnorm (0 at desk scale today)"),
    ("shortvec.block_reduce.s", "s", "lower", "minnorm (0 at desk scale today)"),
    ("cliques.core_filter.calls", "count", "lower", "frames only"),
    ("cliques.core_filter.s", "s", "lower", "verdicts_per_s, verdict_s.p90 on frames only"),
    ("cliques.core_filter.in", "count", "lower", "frames only"),
    ("cliques.core_filter.out", "count", "lower", "frames only"),
    ("cliques.core_filter.kept_ratio", "ratio", "lower", "frames only (1.0 today: the filter prunes nothing)"),
    ("cliques.find_orthogonal_set.calls", "count", "lower", "frames only"),
    ("cliques.find_orthogonal_set.self_s", "s", "lower", "verdict_s.p90 on frames only"),
    ("cliques.find_orthogonal_set.found", "count", "higher", "frames only"),
    ("codes.min_euclidean_weight.calls", "count", "lower", "minnorm only"),
    ("codes.min_euclidean_weight.s", "s", "lower", "verdicts_per_s on minnorm only"),
    ("codes.min_euclidean_weight.codewords_per_s", "1/s", "higher", "verdicts_per_s on minnorm only"),
    ("lattice.reduced_basis.calls", "count", "lower", "verdicts_per_s on minnorm and theta"),
    ("lattice.reduced_basis.self_s", "s", "lower", "verdicts_per_s on minnorm and theta"),
    ("lattice.min_norm.s", "s", "lower", "verdicts_per_s, verdict_s.p50 on minnorm; frames (model min norm and code fingerprints)"),
    ("lattice.theta_prefix.s", "s", "lower", "verdicts_per_s on theta; frames refutations"),
    ("lattice.coset_theta.s", "s", "lower", "verdicts_per_s on theta"),
    ("lattice.even_sublattice_and_shadow.s", "s", "lower", "verdicts_per_s on theta"),
    ("lattice.construction_a.calls", "count", "lower", "setup_s; minnorm and frames code certificates"),
    ("lattice.construction_a.s", "s", "lower", "setup_s; minnorm and frames code certificates"),
    ("lattice.find_frame.calls", "count", "lower", "verdicts_per_s, verdict_s.p90 on frames"),
    ("lattice.find_frame.s", "s", "lower", "verdicts_per_s, verdict_s.p90 on frames"),
    ("lattice.find_frame.self_s", "s", "lower", "verdict_s.p90 on frames"),
    ("lattice.contains_frame.calls", "count", "lower", "frames"),
    ("lattice.contains_frame.s", "s", "lower", "frames"),
    ("skew.search_quadruple.calls", "count", "lower", "verdict_s.p50 on frames"),
    ("skew.search_quadruple.s", "s", "lower", "verdict_s.p50 on frames"),
    ("skew.search_quadruple.hits", "count", "higher", "verdict_s.p50 on frames"),
    ("arith.scale_frame.calls", "count", "higher", "frames (0 today: scaling is argued, not built)"),
    ("catalog.build.s", "s", "lower", "setup_s, all workloads"),
    ("catalog.frame_report.calls", "count", "lower", "frames"),
    ("catalog.frame_report.s", "s", "lower", "verdicts_per_s on frames"),
    ("catalog.frame_report.self_s", "s", "lower", "verdicts_per_s on frames"),
    ("trace.query_s", "s", "lower", "traced query time per pass"),
    ("trace.untraced_query_s", "s", "lower", "untraced query time per pass, same run"),
    ("trace.overhead_ratio", "ratio", "lower", "traced / untraced query time - 1, both probe-scaled"),
    ("trace.self_s", "s", "lower", "sum of span self times inside queries, per pass"),
    ("trace.remainder_s", "s", "lower", "query time outside every span: benchmark code"),
    ("trace.missing_hooks", "count", "lower", "hooked names not found in zklat; must stay 0"),
]

_DERIVED = {
    "vectors_per_s": ("vectors", "s"),
    "kept_ratio": ("out", "in"),
    "codewords_per_s": ("codewords", "s"),
}


class Tracer:
    """In-memory span recorder; one per worker process."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, request, t0, t1, outer, counters]
        self.request = None
        self.active = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}

    def wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            depth = tracer._depth.get(name, 0)
            rec = [sid, parent, name, tracer.request, time.perf_counter(), None, depth == 0, None]
            tracer.spans.append(rec)
            tracer._stack.append(sid)
            tracer._depth[name] = depth + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                tracer._stack.pop()
                tracer._depth[name] = depth
            if count is not None:
                try:
                    rec[7] = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.missing.append(f"{name} (counter)")
            return result

        return traced

    def install(self) -> None:
        """Wrap every hooked function at every zklat binding of it."""
        modules = [m for k, m in list(sys.modules.items()) if k == "zklat" or k.startswith("zklat.")]
        for name, (modname, path, count) in HOOKS.items():
            owner = sys.modules.get(f"zklat.{modname}")
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, orig, count)
            if parents:  # a method: patch the class attribute
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def aggregate(self) -> dict:
        """Per-hook totals for this pass, plus the query-phase span sums."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, t0, t1, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        per: dict[str, dict] = {}
        self_in_queries = 0.0
        for sid, parent, name, request, t0, t1, outer, counters in self.spans:
            dur = t1 - t0
            own = dur - child[sid]
            row = per.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own
            if outer:
                row["s"] += dur
            for key, v in (counters or {}).items():
                row[key] = row.get(key, 0) + v
            if request is not None and request != "setup":
                self_in_queries += own
        return {"hooks": per, "self_s": self_in_queries, "missing": sorted(set(self.missing))}


def layer_values(passes: list[dict]) -> dict[str, float]:
    """Mean per-pass value of every hook metric in PER_LAYER."""
    out: dict[str, float] = {}
    n = max(len(passes), 1)
    for metric, _, _, _ in PER_LAYER:
        prefix, _, stat = metric.rpartition(".")
        if prefix not in HOOKS:
            continue
        rows = [p["hooks"].get(prefix, {}) for p in passes]
        if stat in _DERIVED:
            num, den = _DERIVED[stat]
            top = sum(r.get(num, 0) for r in rows)
            bottom = sum(r.get(den, 0) for r in rows)
            out[metric] = top / bottom if bottom else 0.0
        else:
            out[metric] = sum(r.get(stat, 0) for r in rows) / n
    return out
