"""Closed-loop benchmark of frfstats, one workload per run.

    python3 bench/run.py --workload score --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

A run imports the package from ``src/`` of the checkout that holds this
file, sets the workload up several times, then runs operations one after
another and checks each output.  Workloads and checks are in
``workloads.py``.  The number of operations is fixed by ``--seconds`` and
the workload's nominal operation time (at least MIN_OPS), not by the
clock, so a seed always runs the same operations and the same ones fail;
on a host of the nominal speed a run takes about ``--seconds``.

``--trace 0`` prints the end-to-end metrics that BENCHMARK.json gates.
``op_p50_ref`` is the median over operations of the latency divided by
the time of a fixed reference computation run just before and after it.
``setup_s`` is the median over set-up repetitions, spread across the run,
of the package's import in a fresh interpreter plus the workload's set-up.
The import is scaled to the host where numpy's import, timed just before
it in the same interpreter, takes NOMINAL_NUMPY_IMPORT_S; the set-up is
scaled to the host where the reference takes NOMINAL_REFERENCE_S.
``peak_rss_mb`` is the peak resident memory.
Wall-clock figures (median and tail latency, operations per second,
failure fraction) are printed beside them but not gated, because the
speed of a shared host drifts.

``--trace 1`` first runs half as many operations with the layer wrappers
of ``tracing.py`` installed, then the same operations untraced, and
prints per-layer metrics per traced operation and the tracing overhead.
``--workload all`` runs every workload in a child process, one after
another.

Standard output ends with a table, one JSON report line (provenance,
sample counts, tail latency, failures and the results digest) and, last,
the result line ``{"correct", "attempted", "failed", "metrics"}``.
The exit status is 2 when the package cannot be imported from the
checkout and 1 when set-up fails; no result line is printed then.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("score", "compare", "cohort-cli")
SETUP_REPEATS = 3  # before the first operation; untraced runs add more later
SETUP_EVERY_S = 5.0
MIN_OPS = 3
# A run that is still going after this many seconds of operations stops
# early, so that a much slower program still ends in time.
MAX_LOOP_S = 120.0
# The digest covers a fixed number of leading operations, because how many
# operations a run makes depends on --seconds.
DIGEST_OPS = MIN_OPS
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
REF_EVERY_S = 1.0
# Set-up times are reported at the host speed where the reference work
# takes NOMINAL_REFERENCE_S and numpy's import NOMINAL_NUMPY_IMPORT_S.  The
# package's import time follows numpy's (correlation 0.74 over 100
# repetitions) and hardly the reference's (0.17); the workload's own
# set-up follows the reference's (0.6).  Scaled this way, the spread of
# single set-up times fell from 19% to 6% of their median on `score`.
NOMINAL_REFERENCE_S = 0.05
NOMINAL_NUMPY_IMPORT_S = 0.15

# THREADS selects the library's thread pool; clear it so an ambient
# setting cannot change what is measured.
AMBIENT_THREADS = os.environ.pop("THREADS", None)


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import frfstats from this checkout's src/ and nothing else."""
    src = ROOT / "src"
    if not (src / "frfstats" / "__init__.py").is_file():
        raise ProgramMissing(f"no frfstats package under {src}")
    sys.path.insert(0, str(src))
    import frfstats

    if Path(frfstats.__file__).resolve().parent != src / "frfstats":
        raise ProgramMissing(f"imported frfstats from {frfstats.__file__}, not {src}")
    return frfstats


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny bootstrap sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


class Op(NamedTuple):
    latency: float  # seconds inside the program
    fails: list  # names of the failed checks
    line: str  # digest line
    relative: float = math.nan  # latency in units of the reference work around it


def reference_s() -> float:
    """Wall time of a fixed piece of work that does not use frfstats.

    The CPU speed of a shared host drifts by more than half within a
    minute.  Timing this work between operations lets the benchmark state
    latency in units of it, which cancels most of that drift.  Its mix of
    stream construction, small and cache-sized gathers, reductions, sorts
    and number formatting resembles the workloads' own.
    """
    import numpy as np

    start = time.perf_counter()
    small = (np.arange(20 * 440, dtype=float).reshape(20, 440) % 17.0) / 7.0
    large = (np.arange(200 * 90, dtype=float).reshape(200, 90) % 13.0) / 3.0
    for i in range(20):
        gens = [np.random.default_rng(np.random.SeedSequence(7, spawn_key=(i, j)))
                for j in range(25)]
        idx = np.stack([g.integers(0, 20, size=20) for g in gens])
        sub = small[idx]
        np.sort(sub.std(axis=1, ddof=1) + sub.mean(axis=1), axis=1)
    for i in range(24):  # 1 MB gathers: keep the peak memory the program's own
        idx = np.random.default_rng(i).integers(0, 200, size=(8, 200))
        sub = large[idx]
        np.sort((sub - sub.mean(axis=1)[:, None, :]).sum(axis=2), axis=1)
    text = ",".join(f"{x:.9g}" for x in small.ravel()[:1000])
    sum(float(cell) for cell in text.split(","))
    return time.perf_counter() - start


def run_op(workload, k: int, tracer, frfstats):
    """Run operation k; return (latency, failed checks, digest line)."""
    inputs = workload.prepare(k)
    start = time.perf_counter()
    try:
        out = workload.run(k, inputs, tracer)
    except Exception as err:  # a failed operation is counted, not fatal
        latency = time.perf_counter() - start
        if not isinstance(err, frfstats.FrfStatsError):
            traceback.print_exc(file=sys.stderr)
        return latency, [workload.failure(err)], f"{k}|error={type(err).__name__}"
    latency = time.perf_counter() - start
    fails, fields = workload.check(k, inputs, out)
    line = "|".join([str(k), *(f"{name}={_fmt(v)}" for name, v in fields.items())])
    return latency, fails, line


def op_count(workload, seconds: float) -> int:
    """Operations in a run of `seconds` at the workload's nominal speed."""
    return max(MIN_OPS, round(seconds / workload.nominal_op_s))


def closed_loop(workload, frfstats, count, tracer=None, setup=None):
    """Operations 0, 1, ..., count - 1 back to back, fewer only when they
    take longer than MAX_LOOP_S.

    Returns the operations and the reference times taken between them, one
    reference run per REF_EVERY_S of operation time and one at each end.
    Each operation's `relative` latency divides it by the mean of the
    nearest reference runs before and after it: pairing in time cancels
    host speed changes that a ratio of run-wide medians would not.
    `setup`, when given, runs once per SETUP_EVERY_S of operation time, so
    set-up is sampled across the run as the operations are.
    """
    ops, before = [], []
    reference_s()  # first-use costs
    refs = [reference_s()]
    owed_refs = owed_setup = 0.0
    start = time.perf_counter()
    while len(ops) < count and time.perf_counter() - start < MAX_LOOP_S:
        before.append(len(refs) - 1)
        ops.append(Op(*run_op(workload, len(ops), tracer, frfstats)))
        owed_refs += ops[-1].latency / REF_EVERY_S
        owed_setup += ops[-1].latency / SETUP_EVERY_S
        while owed_refs >= 1.0:
            refs.append(reference_s())
            owed_refs -= 1.0
        if setup is not None and owed_setup >= 1.0:
            setup()
            owed_setup = 0.0
    refs.append(reference_s())
    ops = [op._replace(relative=2 * op.latency / (refs[i] + refs[i + 1]))
           for op, i in zip(ops, before)]
    return ops, refs


def child_import_s() -> tuple[float, float]:
    """Import times of numpy, then of the package, in a fresh interpreter.

    numpy's import loads shared libraries and moves with the host's file
    and memory load far more than with its CPU speed, which the reference
    work tracks; it is timed apart so that it can be reported ungated.
    """
    probe = ("import time; start = time.perf_counter(); import numpy; "
             "mid = time.perf_counter(); import frfstats, frfstats.cli; "
             "print(mid - start, time.perf_counter() - mid)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    numpy_s, import_s = map(float, done.stdout.split())
    return numpy_s, import_s


class SetUp(NamedTuple):
    numpy_import_s: float  # numpy import in a fresh interpreter
    import_s: float  # package import after numpy's, in the same interpreter
    setup_s: float  # the workload's own set-up in this process
    reference_s: float  # mean reference time just before and after


class SetUps:
    """Repeated set-up of one workload; `times` holds a SetUp for each.

    Each repetition imports the package in a fresh interpreter, then
    derives the grid, writes and reads the study in a fresh directory and
    runs a warm-up operation in this process.  The workload keeps the
    inputs of the last repetition; every repetition builds the same ones.
    """

    def __init__(self, workload, workdir: Path, tracer) -> None:
        self.workload, self.workdir, self.tracer = workload, workdir, tracer
        self.times: list[SetUp] = []

    def __call__(self) -> None:
        repdir = self.workdir / f"setup{len(self.times)}"
        repdir.mkdir(parents=True)
        before = reference_s()
        numpy_s, import_s = child_import_s()
        start = time.perf_counter()
        self.workload.setup(repdir, self.tracer)
        setup_s = time.perf_counter() - start
        self.times.append(SetUp(numpy_s, import_s, setup_s, (before + reference_s()) / 2))


def tail(latencies):
    """(percentile, latency) at the highest listed percentile with at
    least TAIL_BEYOND operations beyond it, or None."""
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return None


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines[:DIGEST_OPS]).encode()).hexdigest()[:16]


def blas_threads():
    """Thread count of the OpenBLAS that numpy bundles, or None."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, workload) -> dict:
    import numpy as np

    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = done.stdout.strip() or f"unknown: {done.stderr.strip()}"
        except (OSError, subprocess.SubprocessError) as err:
            sha = f"unknown: {err}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "THREADS": AMBIENT_THREADS,  # cleared for the run
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "params": workload.params,
    }


def _m(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_times: list[SetUp], ops: list[Op]):
    scaled = [t.import_s * NOMINAL_NUMPY_IMPORT_S / t.numpy_import_s
              + t.setup_s * NOMINAL_REFERENCE_S / t.reference_s for t in setup_times]
    return {
        "setup_s": _m(statistics.median(scaled), "s"),
        "op_p50_ref": _m(statistics.median(op.relative for op in ops), "ref"),
        "peak_rss_mb": _m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def wall_clock(ops: list[Op], refs: list[float]):
    """Wall-clock figures; reported, not gated, because host speed drifts."""
    latencies = [op.latency for op in ops]
    n = len(ops)
    tail_at = tail(latencies)
    figures = {
        "reference_p50_s": {**_m(statistics.median(refs), "s"), "samples": len(refs)},
        "op_p50_s": {**_m(statistics.median(latencies), "s"), "samples": n},
        "ops_per_s": {**_m(n / sum(latencies), "1/s"), "samples": n},
        "fail_frac": {**_m(sum(1 for op in ops if op.fails) / n, "fraction"), "samples": n},
    }
    if tail_at is not None:
        figures["op_tail_s"] = {**_m(tail_at[1], "s"), "percentile": tail_at[0], "samples": n}
    return figures


def per_layer(setup_layers, setup_reps, layers, traced, untraced):
    """Per-layer metrics per traced operation.

    `traced` and `untraced` are the same operations run with and without
    the layer wrappers.
    """
    self_s, counts = layers
    n = len(traced)
    traced_total = sum(op.latency for op in traced)
    traced_p50 = statistics.median(op.latency for op in traced)
    untraced_p50 = statistics.median(op.latency for op in untraced)
    relative = (statistics.median(op.relative for op in traced)
                / statistics.median(op.relative for op in untraced))
    draws = counts.get("resampling.draws", 0.0)
    replications = counts.get("density.replications", 0.0)

    def s(key):
        return self_s.get(key, 0.0) / n

    def c(key):
        return counts.get(key, 0.0) / n

    setup_self, _ = setup_layers
    metrics = {
        "resampling.streams": _m(c("resampling.streams"), "count"),
        "resampling.stream_s": _m(s("resampling.stream"), "s"),
        "resampling.stream_share": _m(self_s.get("resampling.stream", 0.0) / traced_total,
                                      "fraction"),
        "resampling.draws": _m(c("resampling.draws"), "count"),
        "resampling.draw_s": _m(s("resampling.draw"), "s"),
        "resampling.redraw_frac": _m(counts.get("resampling.redraws", 0.0) / draws
                                     if draws else 0.0, "fraction"),
        "resampling.ecdf_s": _m(s("resampling.ecdf"), "s"),
        "resampling.lookup_s": _m(s("resampling.lookup"), "s"),
        "bands.pool_builds": _m(c("bands.pool.calls"), "count"),
        "bands.self_s": _m(s("bands") + s("bands.pool"), "s"),
        "bands.gather_mb_computed": _m(c("bands.gather_bytes") / 1e6, "MB"),
        "density.self_s": _m(s("density"), "s"),
        "density.skipped_frac": _m(counts.get("density.skipped", 0.0) / replications
                                   if replications else 0.0, "fraction"),
        "compare.self_s": _m(s("compare"), "s"),
        "pir.matrix_calls": _m(c("pir.matrix.calls"), "count"),
        "pir.matrix_s": _m(s("pir.matrix"), "s"),
        "grid.derive_s": _m(s("grid.derive"), "s"),
        "dataio.load_s": _m(s("dataio.load"), "s"),
        "dataio.save_s": _m(s("dataio.save"), "s"),
        "cli.self_s": _m(s("cli"), "s"),
        "trace.op_p50_s": _m(traced_p50, "s"),
        "trace.overhead_s": _m(traced_p50 - untraced_p50, "s"),
        # The same, from latencies relative to the reference work.
        "trace.overhead_frac": _m(relative - 1.0, "fraction"),
    }
    setup_metrics = {"setup.grid.derive_s": "grid.derive", "setup.dataio.load_s": "dataio.load",
                     "setup.dataio.save_s": "dataio.save", "setup.cli.self_s": "cli"}
    for name, key in setup_metrics.items():
        metrics[name] = _m(setup_self.get(key, 0.0) / setup_reps, "s")
    return metrics


def run_workload(args) -> int:
    try:
        frfstats = import_program()
    except ProgramMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import tracing
    from workloads import KNOWN_DEFECT, WORKLOADS, SetupError, tolerated

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    report = {}
    try:
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.instrument(tracer) as missing:
                setups = SetUps(workload, workdir, tracer)
                for _ in range(SETUP_REPEATS):
                    setups()
                setup_layers = tracer.take()
                planned = op_count(workload, args.seconds / 2)
                traced, traced_refs = closed_loop(workload, frfstats, planned, tracer)
                layers = tracer.take()
            untraced, untraced_refs = closed_loop(workload, frfstats, len(traced))
            ops, refs = traced + untraced, traced_refs + untraced_refs
            metrics = per_layer(setup_layers, SETUP_REPEATS, layers, traced, untraced)
            consistent = [op.line for op in traced] == [op.line for op in untraced]
            report["missing_boundaries"] = missing
            report["traced_matches_untraced"] = consistent
        else:
            setups = SetUps(workload, workdir, None)
            for _ in range(SETUP_REPEATS):
                setups()
            planned = op_count(workload, args.seconds)
            ops, refs = closed_loop(workload, frfstats, planned, setup=setups)
            metrics = end_to_end(setups.times, ops)
            consistent = True
    except SetupError as err:
        print(f"error: set-up failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures: dict[str, int] = {}
    for op in ops:
        for name in op.fails:
            failures[name] = failures.get(name, 0) + 1
    failed = sum(1 for op in ops if op.fails)
    correct = consistent and all(tolerated(name) for name in failures)
    wall = wall_clock(ops, refs)
    report.update({
        "provenance": provenance(args, workload),
        # Fewer operations than planned ran only if they hit MAX_LOOP_S.
        "ops_planned": planned * (2 if args.trace else 1),
        "setup_repeats": [t._asdict() for t in setups.times],
        "wall_clock": wall,
        "op_latencies_s": [op.latency for op in ops],
        "failures": failures,
        "known_defect": {KNOWN_DEFECT: "ROADMAP item 1: minimal band misses its test "
                         "response by a few ulp; counted in failed"},
        "results_digest": {"ops": min(DIGEST_OPS, len(ops)),
                           "sha256_16": digest([op.line for op in ops])},
        "metrics": metrics,
    })
    print(f"{workload.name}: {len(ops)} operations, {failed} failed")
    for name, m in {**metrics, **wall}.items():
        notes = "".join(f" {key}={m[key]}" for key in ("percentile", "samples") if key in m)
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']:9s}{notes}")
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print each result."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), *(["--smoke"] if args.smoke else [])]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
