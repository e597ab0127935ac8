"""Benchmark of the ght package: one closed-loop caller, seeded workloads.

    python3 bench/run.py --workload verify-mix --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; the package is imported from ./src. One
process runs one caller: each op starts when the previous one returns, as a
library or CLI user waits for the answer. Every op's output is checked by the
workload's oracle; a failed check is counted and never aborts the run.

With --trace 0 the run repeats whole rounds of the workload's op mix, at
least the workload's ROUNDS of them and on until --seconds have passed, and
prints the end-to-end metrics. With --trace 1 it runs the first round twice,
first plain and then with spans and counters installed, and prints the
per-layer metrics; the spans go to .bench_out/. The last line of stdout is the result
object; the line before it is the run record (machine, seed, op counts,
failures, and the unscaled wall-clock figures).

Times are scaled to a nominal machine speed (see SpeedClock): on a shared
machine the speed of one core drifts by tens of percent from second to
second, which would otherwise swamp the differences the benchmark is for.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import types
from collections import Counter
from fractions import Fraction
from time import perf_counter

# workload name -> module; imported after the BLAS thread cap is set
WORKLOADS = {
    "verify-mix": "verify_mix",
    "transform-stream": "transform_stream",
    "cli-jobs": "cli_jobs",
}
SETUP_REPEATS = 5
# the reference kernel's usual time on the 2-core Xeon the bounds were set on
REF_NOMINAL_S = 0.0055
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
PACKAGE_MODULES = ("ring", "matrix", "gbh", "jacket", "catalog", "transform", "fileio", "cli")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def percentile(values, q):
    """q-th percentile (0..100) with linear interpolation between order
    statistics, as statistics.quantiles(method="inclusive") places them."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _reference_kernel():
    # fixed pure-Python work of the kinds the package does: big ints,
    # Fractions, dicts; it never calls the package
    s, f, d = 0, Fraction(0), {}
    for i in range(2000):
        s += (i * 2654435761) % 1000003
        f += Fraction(i % 7 + 1, i % 5 + 1)
        d[i % 97] = d.get(i % 97, 0) + i
    return s, f, d


class SpeedClock:
    """Times intervals in wall seconds and in nominal seconds.

    The reference kernel is timed twice right before and twice right after
    each interval; the interval's nominal time is its wall time times
    REF_NOMINAL_S over the mean of the four kernel times. The kernels timed
    after one interval serve as those before the next. The mean, not the
    minimum, follows the slowdown that the interval itself saw.
    """

    def __init__(self):
        _reference_kernel()  # warm up before the first timing
        self._last = None
        self.references = []

    def _reference(self):
        times = []
        for _ in range(2):
            t0 = perf_counter()
            _reference_kernel()
            times.append(perf_counter() - t0)
        self.references += times
        return sum(times) / len(times)

    def measure(self, fn):
        """(fn's result or the exception it raised, wall s, nominal s)."""
        before = self._last if self._last is not None else self._reference()
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as ex:  # an op that raises is a failed op
            result = ex
        wall = perf_counter() - t0
        self._last = self._reference()
        return result, wall, wall * REF_NOMINAL_S * 2 / (before + self._last)


def load_package():
    """Import ght afresh from ./src, so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "ght" or n.startswith("ght.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ght")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "ght"):
        raise ImportError(f"ght imported from {pkg.__file__}, not from {SRC}")
    mods = {m: importlib.import_module(f"ght.{m}") for m in PACKAGE_MODULES}
    return types.SimpleNamespace(pkg=pkg, **mods)


class Run:
    """Latencies and oracle outcomes of the ops of one pass."""

    def __init__(self, known_defects, clock):
        self.known = known_defects
        self.clock = clock
        self.latencies = []  # nominal seconds
        self.wall = []  # wall seconds
        self.by_label = {}  # "kind:argument" -> nominal seconds
        self.attempted = 0
        self.failures = Counter()  # (op kind, reason) -> count

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def unexpected(self):
        return sum(n for (kind, _), n in self.failures.items() if kind not in self.known)

    def op(self, wl, state, desc, tracer=None):
        self.attempted += 1
        kind = desc[0]
        try:
            call, check = wl.prepare(state, desc)
        except Exception as ex:  # the package failed while inputs were built
            self.failures[(kind, f"prepare raised {type(ex).__name__}: {ex}")] += 1
            return
        if tracer is not None:
            tracer.op = self.attempted
            result, wall, nominal = self.clock.measure(lambda: tracer.run(call))
        else:
            result, wall, nominal = self.clock.measure(call)
        self.latencies.append(nominal)
        self.wall.append(wall)
        self.by_label.setdefault(f"{kind}:{desc[1]}", []).append(nominal)
        if isinstance(result, Exception):
            reason = f"raised {type(result).__name__}: {result}"
        else:
            try:
                reason = check(result)
            except Exception as ex:  # e.g. an output file was never written
                reason = f"check raised {type(ex).__name__}: {ex}"
        if reason is not None:
            self.failures[(kind, reason)] += 1


def run_rounds(wl, state, seed, run, rounds, seconds=0, tracer=None):
    """Whole rounds: at least `rounds`, and on until `seconds` have passed."""
    t0 = perf_counter()
    r = 0
    while r < rounds or perf_counter() - t0 < seconds:
        for desc in wl.round_plan(state, seed, r):
            run.op(wl, state, desc, tracer)
        r += 1
    return r


def _git_sha():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_config(np):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps[k] for k in ("blas", "lapack") if k in deps}
    except Exception:  # numpy before 1.26 has no dict mode
        return None


def machine_record():
    import numpy as np

    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ght", "*.py"))):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_config(np),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_sha": _git_sha(),
        "src_sha256": h.hexdigest(),
    }


def _cap_blas_threads():
    # one caller: BLAS may use the cores, never more threads than there are
    n = str(min(2, os.cpu_count() or 1))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, n)


def _timing(lat, setup):
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": 1000 * percentile(lat, 50),
        "op_ms_p90": 1000 * percentile(lat, 90),
        "setup_s": statistics.median(setup),
    }


def end_to_end(run, setup_nominal):
    t = _timing(run.latencies, setup_nominal)
    return {
        "ops_per_s": (t["ops_per_s"], "1/s"),
        "op_ms_p50": (t["op_ms_p50"], "ms"),
        "op_ms_p90": (t["op_ms_p90"], "ms"),
        "ok_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
        "setup_s": (t["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(wl, state, seed, workdir, clock):
    """Plain pass, then a traced pass over the same first round."""
    import tracer as tracing

    plain = Run(wl.KNOWN_DEFECTS, clock)
    run_rounds(wl, state, seed, plain, 1)
    tr = tracing.Tracer()
    g = load_package()
    tr.install(g)
    try:
        state = tr.run(lambda: wl.setup(g, seed, workdir))  # set-up is traced too
        run = Run(wl.KNOWN_DEFECTS, clock)
        run_rounds(wl, state, seed, run, 1, tracer=tr)
    finally:
        tr.uninstall()
    metrics = tr.metrics()
    metrics["trace.overhead_ratio"] = sum(plain.latencies) / sum(run.latencies)
    units = dict(tracing.per_layer_names())
    return run, {k: (v, units[k]) for k, v in metrics.items()}, tr.span_records()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ght", "__init__.py")):
        print(f"error: no ght package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, SRC)
    wl = importlib.import_module(WORKLOADS[args.workload])
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    clock = SpeedClock()
    try:
        setup_wall, setup_nominal = [], []
        for _ in range(SETUP_REPEATS):
            state, wall, nominal = clock.measure(
                lambda: wl.setup(load_package(), args.seed, workdir)
            )
            if isinstance(state, Exception):
                raise state
            setup_wall.append(wall)
            setup_nominal.append(nominal)
        t0 = perf_counter()
        if args.trace:
            run, metrics, spans = traced(wl, state, args.seed, workdir, clock)
            rounds = 1
        else:
            run = Run(wl.KNOWN_DEFECTS, clock)
            rounds = run_rounds(wl, state, args.seed, run, wl.ROUNDS, args.seconds)
            metrics = end_to_end(run, setup_nominal)
        record = {
            "workload": wl.NAME,
            "seed": args.seed,
            "trace": args.trace,
            "rounds": rounds,
            "ops": run.attempted,
            "latency_samples": len(run.latencies),
            "run_wall_s": perf_counter() - t0,
            "setup_s": setup_nominal,
            "unscaled": _timing(run.wall, setup_wall),
            "reference_ms_median": 1000 * statistics.median(clock.references),
            "op_ms_p50_by_label": {
                k: 1000 * statistics.median(v) for k, v in sorted(run.by_label.items())
            },
            "failures": [
                {"op": kind, "reason": reason, "count": n, "known_defect": wl.KNOWN_DEFECTS.get(kind)}
                for (kind, reason), n in sorted(run.failures.items())
            ],
            "machine": machine_record(),
        }
        if args.trace:
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"trace-{wl.NAME}-seed{args.seed}.json")
            with open(path, "w") as fh:
                json.dump({"record": record, "metrics": metrics, "spans": spans}, fh)
            record["spans_file"] = os.path.relpath(path, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                # failures of the listed known defects are counted, not hidden
                "correct": run.unexpected == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
