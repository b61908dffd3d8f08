"""Benchmark for falpha: one workload per process, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tabulate --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from the seed before timing starts.
Each operation is one call into a public entry point of falpha, imported
from the checkout's ``src``; its output is checked against the oracles in
``oracles.py`` outside the timed span.  With ``--trace 0`` every input
runs a fixed number of times and the run prints the end-to-end metrics of
the best latencies; with ``--trace 1`` it runs a fixed slice of the
workload alternately untraced and traced and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

PASS_SECONDS = 0.5       # about how long one pass over a workload takes
MIN_REPEATS = 5          # passes per run at the least
TAIL_PERCENTILE = 90.0   # op_tail_ms; every workload has 100+ inputs
SETUP_REPEATS = 15       # set-up is measured this often per run:
FIRST_SETUPS = 3         # ... this often before the first operation,
SETUP_SPREAD = 12        # ... and then at this many even steps of the run
# CPU time of this (single) thread: on a shared machine it leaves out the
# time the process waits for a core, which wall time would add as noise
CLOCK = time.thread_time
ENV_FLAGS = ("FALPHA_PURE_PYTHON", "FALPHA_NO_EXT", "FRACTAL_CALC_MAX_LEVEL")


def import_falpha():
    """Import falpha afresh from the checkout; returns (falpha, falpha.cli)."""
    for name in list(sys.modules):
        if name == "falpha" or name.startswith("falpha."):
            del sys.modules[name]
    fa = importlib.import_module("falpha")
    cli = importlib.import_module("falpha.cli")
    if Path(fa.__file__).resolve().parent != SRC / "falpha":
        raise SystemExit(f"falpha imported from {fa.__file__}, not {SRC}")
    return fa, cli


def set_up_once(built):
    """Import falpha afresh and build the workload's set specs; the
    operations then use this import.  Returns the CPU seconds taken."""
    t0 = CLOCK()
    fa, cli = import_falpha()
    built.make(fa, cli)
    dt = CLOCK() - t0
    gc.collect()  # the previous import's modules are cyclic garbage
    return dt


def commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(fa):
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "kernel_backend": fa.kernel_backend,
        "nproc": len(os.sched_getaffinity(0)),
        "flags": {k: os.environ[k] for k in ENV_FLAGS if k in os.environ},
    }


class Tally:
    """Latencies, failures and check errors of the operations run.

    Operations are keyed by their place in the workload, so that repeats
    of the same inputs can be told apart from new ones: the first output
    of each key is checked against the oracles, and a repeat must give
    the same output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0         # operations with a wrong result
        self.errors = []       # the first few wrong results
        self.failures = {}
        self.best = {}         # key -> lowest latency seen
        self.kind = {}         # key -> kind of operation
        self.first = {}        # key -> (first output, errors, fault)

    def run_op(self, key, op):
        self.attempted += 1
        t0 = CLOCK()
        try:
            out = op.call()
        except Exception as exc:  # any exception is a failed operation
            dt = CLOCK() - t0
            self._note(key, op, dt, [], type(exc).__name__)
            return dt
        dt = CLOCK() - t0
        # repr, not ==: after a fresh import the result classes are new
        # objects, and repr spells every float exactly
        seen = self.first.get(key)
        if seen is None:
            errors, fault = op.check(out)
            self.first[key] = (repr(out), errors, fault)
        elif seen[0] == repr(out):
            errors, fault = seen[1], seen[2]
        else:
            errors, fault = op.check(out)
            errors = errors + ["output differs from the first run"]
        self._note(key, op, dt, errors, fault)
        return dt

    def _note(self, key, op, dt, errors, fault):
        if dt < self.best.get(key, math.inf):
            self.best[key] = dt
        self.kind[key] = op.kind
        if fault:
            self.failed += 1
            name = f"{op.kind}: {fault}"
            self.failures[name] = self.failures.get(name, 0) + 1
        if errors:
            self.wrong += 1
            if len(self.errors) < 20:
                self.errors.extend(f"{op.kind}: {e}" for e in errors[:3])

    def run_round(self, index, ops):
        return sum(self.run_op((index, j), op) for j, op in enumerate(ops))

    def kinds(self):
        """Per kind of operation: inputs, median and total best ms."""
        by = {}
        for key, dt in self.best.items():
            by.setdefault(self.kind[key], []).append(dt)
        return {k: {"n": len(v), "p50_ms": statistics.median(v) * 1e3,
                    "total_ms": sum(v) * 1e3}
                for k, v in sorted(by.items())}


def percentile(sorted_vals, p):
    """Nearest-rank percentile of an ascending list."""
    k = math.ceil(p / 100.0 * len(sorted_vals)) - 1
    return sorted_vals[max(0, min(len(sorted_vals) - 1, k))]


def run_untraced(built, seconds, setup_times):
    """Run every input of the workload R times, in R passes over its
    rounds, and report each input's best latency.  R is fixed by
    ``seconds``, sized so that the passes take about that long: on a
    shared machine the speed of a core drifts by tens of percent from
    second to second, and the best of a fixed number of repeats spread
    over the run follows the program rather than the drift.  Set-up is
    measured again at even steps of the run."""
    rounds = built.rounds
    repeats = max(MIN_REPEATS, round(seconds / PASS_SECONDS))
    tally = Tally()
    spent = 0.0
    every = max(1, repeats // SETUP_SPREAD)
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for c in range(repeats):
            # each pass on the next allowed CPU in turn, so that a run
            # samples every core rather than the one it started on
            os.sched_setaffinity(0, {cpus[c % len(cpus)]})
            for i, r in enumerate(rounds):
                spent += tally.run_round(i, r)
            if (c + 1) % every == 0 and len(setup_times) < SETUP_REPEATS:
                setup_times.append(set_up_once(built))
    finally:
        os.sched_setaffinity(0, cpus)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(set_up_once(built))
    lat = sorted(tally.best.values())
    n = len(lat)
    if n * (100.0 - TAIL_PERCENTILE) / 100.0 < 10:
        raise SystemExit(f"{n} inputs leave fewer than ten beyond "
                         f"p{TAIL_PERCENTILE}")
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (percentile(lat, 50.0) * 1e3, "ms"),
        "op_tail_ms": (percentile(lat, TAIL_PERCENTILE) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    info = {"inputs": n, "repeats": repeats,
            "tail_percentile": TAIL_PERCENTILE,
            "op_seconds": spent, "setup_repeats": len(setup_times),
            "kinds": tally.kinds()}
    return tally, metrics, info


def run_traced(built, seconds):
    """Alternate untraced and traced passes over the fixed trace slice;
    per-layer counts come from one pass and must repeat exactly, self
    times are medians over the traced passes."""
    rounds = built.rounds[:built.trace_rounds]
    tally = Tally()
    tracer = Tracer()
    for i, r in enumerate(rounds):
        tally.run_round(i, r)  # warm-up
    plain, traced, snaps = [], [], []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        while len(snaps) < 2 or time.perf_counter() - start < seconds:
            # both passes of a pair on one CPU, the next pair on the next
            os.sched_setaffinity(0, {cpus[len(snaps) % len(cpus)]})
            plain.append(sum(tally.run_round(i, r)
                             for i, r in enumerate(rounds)))
            tracer.install()
            try:
                traced.append(sum(tally.run_round(i, r)
                                  for i, r in enumerate(rounds)))
            finally:
                tracer.remove()
            snaps.append(tracer.snapshot())
    finally:
        os.sched_setaffinity(0, cpus)
    counts = {k: v for k, v in snaps[0].items() if not k.endswith("_ms")}
    for snap in snaps[1:]:
        for k, v in counts.items():
            if snap[k] != v:
                tally.wrong += 1
                tally.errors.append(f"trace count {k} moved: {v} -> {snap[k]}")
    metrics = {}
    for k in snaps[0]:
        if k.endswith("_ms"):
            metrics[k] = (statistics.median(s[k] for s in snaps), "ms")
        elif k.endswith("_ratio"):
            metrics[k] = (counts[k], "ratio")
        else:
            metrics[k] = (counts[k], "count")
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    ops = sum(len(r) for r in rounds)
    info = {"passes": len(snaps), "ops_per_pass": ops,
            "untraced_ops_per_s": ops / statistics.median(plain),
            "traced_ops_per_s": ops / statistics.median(traced)}
    return tally, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "falpha" / "__init__.py").is_file():
        print(f"error: no falpha sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    built = workloads.build(args.workload, args.seed)
    setup_times = [set_up_once(built) for _ in range(FIRST_SETUPS)]
    env = environment(built.ctx.fa)
    if args.trace:
        tally, metrics, info = run_traced(built, args.seconds)
    else:
        tally, metrics, info = run_untraced(built, args.seconds, setup_times)
    attempted = tally.attempted
    correct = tally.wrong == 0
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env, "run": info, "failures": tally.failures,
        "wrong": tally.wrong, "errors": tally.errors,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    record["result"] = result
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("# environment " + json.dumps(env, sort_keys=True))
    print("# run " + json.dumps(info, sort_keys=True))
    if tally.failures:
        print("# failures " + json.dumps(tally.failures, sort_keys=True))
    for e in tally.errors:
        print("# check failed: " + e)
    if tally.wrong:
        print(f"# {tally.wrong} operations gave wrong results")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
