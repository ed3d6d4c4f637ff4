"""zklat benchmark: time to a checked verdict, end to end and per layer.

Closed loop, one client: queries go one after another into the public
library API, each issued only when the previous verdict has been checked.
A run is a series of passes; each pass is a fresh interpreter (worker.py)
that sets up the workload and issues its whole query pool once, in an
order drawn from the seed.  Passes repeat while the next one should end
within 1.2 x --seconds, so every run measures whole pools.

    python3 bench/run.py --workload theta|minnorm|frames|all \
        --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones,
with the gap between the two kinds as trace overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER, layer_values  # noqa: E402

WORKLOADS = ("theta", "minnorm", "frames")
# (name, unit): the end-to-end metrics; fail_ratio is printed but is not a
# metric, since it is 0 on a healthy build (the JSON's `failed` carries it)
END_TO_END = [
    ("verdicts_per_s", "1/s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("decided_ratio", "ratio"),
]
MIN_SETUPS = 9        # set-up samples per run: median of at least this many
PASS_SLACK = 1.2      # passes may run this far past --seconds
RUN_LIMIT_S = 170.0   # a run is cut (and its unfinished queries fail) past this
# a speed-probe unit's typical time on the machine the baseline was recorded
# on (2 vCPUs, Python 3.11, numpy 2.4); times are reported at that speed
PROBE_REF_S = 0.001
MIN_SAMPLES = 3  # in-query probe samples that suffice to scale a query alone


class BenchError(Exception):
    """The benchmark could not run the program at all."""


def run_worker(workload, seed, pass_index, traced, setup_only, deadline):
    """Start one worker and collect its events; setup time is measured here."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--pass-index", str(pass_index), "--src", str(SRC),
    ]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    timer.start()
    try:
        out = {"setup_s": None, "pool_size": None, "queries": [], "probes": [], "done": None}
        for line in proc.stdout:
            ev = json.loads(line)
            if ev["event"] == "ready":
                out["setup_s"] = time.perf_counter() - t0
                out["pool_size"] = ev["pool_size"]
            elif ev["event"] == "probe":
                out["probes"].append(ev["units"])
            elif ev["event"] == "query":
                out["queries"].append(ev)
            elif ev["event"] == "done":
                out["done"] = ev
        err = proc.stderr.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    out["returncode"] = proc.returncode
    out["stderr"] = err.strip()
    scale_by_probe(out)
    return out


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def scale_by_probe(p):
    """Keep each time as `raw_s` and put the probe-scaled time in `s`.

    A query's machine speed is the mean probe unit sampled during it; a
    query too short for MIN_SAMPLES samples also counts the units timed
    just before and after it.
    """
    probes = p["probes"]
    for i, q in enumerate(p["queries"]):
        units = q["samples"]
        if len(units) < MIN_SAMPLES:
            units = units + [u for edge in probes[i : i + 2] for u in edge]
        q["raw_s"] = q["s"]
        if units:
            q["s"] = q["s"] * PROBE_REF_S / statistics.mean(units)


def timing_values(plain, ok, key):
    """Throughput and quantiles from the times stored under `key`."""
    total = sum(q[key] for p in plain for q in p["queries"])
    # each query's median over the run's passes, so the quantiles describe
    # the pool whatever the number of passes
    by_query: dict[str, list[float]] = {}
    for p in plain:
        for q in p["queries"]:
            by_query.setdefault(q["query"], []).append(q[key])
    per_query = sorted(statistics.median(v) for v in by_query.values())
    return {
        "verdicts_per_s": ok / total if total else 0.0,
        "verdict_s.p50": statistics.median(per_query) if per_query else 0.0,
        "verdict_s.p90": quantile(per_query, 0.9) if per_query else 0.0,
    }


def run_workload(workload, seed, seconds, trace, log):
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    passes = []
    setups = []
    while True:
        i = len(passes)
        traced = bool(trace) and i % 2 == 1
        res = run_worker(workload, seed, i, traced, False, deadline)
        if res["setup_s"] is None:
            raise BenchError(f"worker failed before setup finished:\n{res['stderr']}")
        res["traced"] = traced
        passes.append(res)
        if not traced:
            setups.append(res)
        if time.perf_counter() > deadline:
            break
        if trace and len(passes) < 2:
            continue
        # start another pass only if it should end within PASS_SLACK x
        # seconds, so a slow machine runs fewer passes, not longer runs
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds * PASS_SLACK:
            break
    while not trace and len(setups) < MIN_SETUPS and time.perf_counter() < deadline:
        res = run_worker(workload, seed, len(passes) + len(setups), False, True, deadline)
        if res["setup_s"] is None:
            raise BenchError(f"set-up worker failed:\n{res['stderr']}")
        setups.append(res)

    pool_size = passes[0]["pool_size"]
    attempted = failed = decided = 0
    problems = []
    for p in passes:
        attempted += pool_size
        failed += pool_size - len(p["queries"])  # cut or crashed pass
        if len(p["queries"]) < pool_size:
            problems.append(f"pass {passes.index(p)} ended after {len(p['queries'])} of "
                            f"{pool_size} queries (exit {p['returncode']}): {p['stderr'][-500:]}")
        for q in p["queries"]:
            if q["problems"]:
                failed += 1
                problems.extend(f"{q['query']}: {msg}" for msg in q["problems"])
            if q["status"] in ("yes", "no", "exact"):
                decided += 1

    plain = [p for p in passes if not p["traced"]]
    ok_plain = sum(1 for p in plain for q in p["queries"] if not q["problems"])
    env = next((p["done"]["env"] for p in passes if p["done"]), {})
    memo_missing = sorted({m for p in passes if p["done"] for m in p["done"]["memo_missing"]})
    # every probe unit timed between queries in the run's untraced workers
    probes = [u for p in setups for edge in p["probes"] for u in edge]
    env.update(
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        seed=seed,
        workload=workload,
        seconds=seconds,
        passes=len(passes),
        pool_size=pool_size,
        memo_caches_missing=memo_missing,
        speed_probe_median_s=statistics.median(probes) if probes else None,
        speed_probe_reference_s=PROBE_REF_S,
    )

    metrics = {}
    if not trace:
        n_times = sum(len(p["queries"]) for p in plain)
        counts = {
            "verdicts_per_s": n_times,
            "verdict_s.p50": n_times,
            "verdict_s.p90": n_times,
            "setup_s": len(setups),
            "peak_rss_mb": len(plain),
            "decided_ratio": attempted,
        }
        values = timing_values(plain, ok_plain, "s")
        raw = timing_values(plain, ok_plain, "raw_s")
        # set-up is scaled by the whole run's probe median, not per sample:
        # it tracks the machine's drift between runs without adding the
        # probe's jitter to every process start
        raw["setup_s"] = statistics.median(p["setup_s"] for p in setups)
        values.update({
            "setup_s": raw["setup_s"] * PROBE_REF_S / statistics.median(probes),
            "peak_rss_mb": max((p["done"]["rss_mb"] for p in plain if p["done"]), default=0.0),
            "decided_ratio": decided / attempted,
        })
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            log(f"{workload:8s} {name:22s} {values[name]:12.6g} {unit:6s} (n={counts[name]})")
            if name in raw:
                shown = f"{name} (raw)"
                log(f"{workload:8s} {shown:22s} {raw[name]:12.6g} {unit:6s} (n={counts[name]})")
        log(f"{workload:8s} quantiles are over {len(plain[0]['queries'])} queries, each the "
            f"median of its {len(plain)} pass(es)")
        log(f"{workload:8s} {'fail_ratio':22s} {failed / attempted:12.6g} {'ratio':6s} (n={attempted})")
    else:
        traced = [p for p in passes if p["traced"] and p["done"]]
        layers = [p["done"]["trace"] for p in traced]
        values = layer_values(layers)
        # unscaled, like the span times they are compared with
        tq = statistics.mean(sum(q["raw_s"] for q in p["queries"]) for p in traced) if traced else 0.0
        uq = statistics.mean(sum(q["raw_s"] for q in p["queries"]) for p in plain) if plain else 0.0
        self_s = statistics.mean(t["self_s"] for t in layers) if layers else 0.0
        # overhead from times scaled by each pass's between-query probe units
        # (traced passes are not sampled), so machine drift between the
        # two kinds of pass does not read as overhead
        tq_at_ref, uq_at_ref = (
            statistics.mean(
                sum(q["raw_s"] for q in p["queries"]) * PROBE_REF_S
                / statistics.mean(u for edge in p["probes"] for u in edge)
                for p in group
            ) if group else 0.0
            for group in ([p for p in g if p["probes"]] for g in (traced, plain))
        )
        missing = sorted({m for t in layers for m in t["missing"]})
        values.update({
            "trace.query_s": tq,
            "trace.untraced_query_s": uq,
            "trace.overhead_ratio": tq_at_ref / uq_at_ref - 1.0 if uq_at_ref else 0.0,
            "trace.self_s": self_s,
            "trace.remainder_s": tq - self_s,
            "trace.missing_hooks": len(missing),
        })
        env["trace_overhead_ratio"] = values["trace.overhead_ratio"]
        for name, unit, _, target in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            log(f"{workload:8s} {name:40s} {values[name]:12.6g} {unit:6s} -> {target}")
        log(f"{workload:8s} per-layer values are means over {len(traced)} traced pass(es)")
        log(f"{workload:8s} trace additivity: span self {self_s:.6f} s + remainder "
            f"{tq - self_s:.6f} s = traced query time {tq:.6f} s")
        if missing:
            log(f"{workload:8s} MISSING hooks (renamed or removed in zklat): {', '.join(missing)}")
    log(f"{workload:8s} env {json.dumps(env, sort_keys=True)}")
    for msg in problems:
        log(f"{workload:8s} FAILED {msg}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "zklat" / "__init__.py").is_file():
        print(f"error: no zklat sources under {SRC}", file=sys.stderr)
        return 2

    def log(msg):
        print(f"# {msg}", flush=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, log)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
