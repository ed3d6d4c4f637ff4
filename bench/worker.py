"""One pass of a workload in a fresh interpreter.

Started by run.py with the checkout's `src` on PYTHONPATH.  It imports
zklat, optionally installs the tracer, builds the workload's catalog
objects, prints a `ready` line (run.py times setup from process start to
that line), then issues every query of the pool once, in the seeded
order, one after another.  Before each query the library's memo caches
are emptied and the query's own objects rebuilt, outside its time, so
every verdict is measured from the state a fresh `zklat` call starts in.

Protocol on stdout, one JSON object per line: ready, then speed-probe
units before and after every query (and sampled during it), then done.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np


def emit(**fields) -> None:
    print(json.dumps(fields), flush=True)


SAMPLE_EVERY_S = 0.05  # a probe unit interrupts a running query this often
EDGE_UNITS = 10  # probe units timed between two queries


def _probe_unit() -> float:
    """Seconds for ~1 ms of fixed interpreter, numpy-scalar and Fraction work."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    x = np.zeros(8, dtype=np.int64)
    f = np.zeros(8)
    s = 0
    for i in range(1200):
        j = i & 7
        x[j] += i
        f[j] = f[j - 1] * 0.5 + 1.0
        s += i * i % 7
    q = Fraction(0)
    for i in range(1, 60):
        q += Fraction(1, i)
    dt = time.perf_counter() - t0
    if gc_was_enabled:
        gc.enable()
    return dt


class SpeedProbe:
    """Samples how fast this machine runs Python, during and between queries.

    The probe unit shares no code with zklat, so its time tracks the
    machine, not the library; run.py scales each query's time by the
    units timed during it (and beside it, when it is short).  During a
    query a timer signal runs one unit every SAMPLE_EVERY_S; the handler
    runs between bytecodes, never inside a numpy call, and its own time
    is taken off the query's time.  The garbage collector is held off in
    a unit so the heap the library leaves behind cannot slow it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def edge(self) -> list[float]:
        return [_probe_unit() for _ in range(EDGE_UNITS)]

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(_probe_unit())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def _malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):  # not glibc
        return None


_MALLOC_TRIM = _malloc_trim()


def release_memory() -> None:
    """Free what earlier queries left behind, so each query's peak is its own.

    Without this, the process high-water mark depends on which query ran
    first: glibc keeps freed large blocks on its heap.
    """
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "numba_imported": "numba" in sys.modules,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import zklat

    src = Path(args.src).resolve()
    if src not in Path(zklat.__file__).resolve().parents:
        print(f"zklat imported from {zklat.__file__}, not from {src}", file=sys.stderr)
        return 2

    import queries
    from tracer import Tracer

    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.active = True
        tracer.request = "setup"
    for obj in queries.setup_objects(args.workload):
        zklat.catalog.build(obj)
    emit(event="ready", pool_size=len(queries.POOLS[args.workload]))
    probe = SpeedProbe()
    emit(event="probe", units=probe.edge())
    if args.setup_only:
        return 0

    memo_missing: set[str] = set()
    for i, q in enumerate(queries.order(args.workload, args.seed, args.pass_index)):
        tracer.active = False
        memo_missing.update(queries.reset_memos())
        release_memory()
        for obj in queries.query_objects(q):
            zklat.catalog.build(obj)
        tracer.request = i
        tracer.active = args.trace
        # no sampling in a traced pass: its spans would time the handler too
        sampler = contextlib.nullcontext(SpeedProbe()) if args.trace else probe
        with sampler as sampling:
            t0 = time.perf_counter()
            try:
                status, problems = queries.run_query(q)
            except Exception as exc:  # a raised query (BudgetExceeded too) fails, not the pass
                status, problems = "error", [f"{type(exc).__name__}: {exc}"]
            dt = time.perf_counter() - t0 - sampling.spent
        emit(event="query", query=queries.label(q), s=dt, status=status, problems=problems,
             samples=sampling.samples)
        emit(event="probe", units=probe.edge())
    tracer.active = False

    emit(
        event="done",
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
        memo_missing=sorted(memo_missing),
        trace=tracer.aggregate() if args.trace else None,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
