"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from the benchmark's side of each layer boundary.
`instrument` wraps the public functions of the frfstats modules wherever a
module (or the benchmark, through the package namespace) refers to them,
and swaps the RNG stream class the bootstraps build by default for a
subclass that times stream construction and index draws.  The library
itself is unchanged; the wrappers exist only while a traced phase runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Layer boundaries: defining module -> {public function: span key}.  The
# first part of a span key is the layer (the module) it charges.
BOUNDARIES = {
    "grid": {"derive_grid": "grid.derive"},
    "pir": {"pir_matrix": "pir.matrix"},
    "resampling": {
        "ecdf": "resampling.ecdf",
        "c_at": "resampling.lookup",
        "alpha_at": "resampling.lookup",
    },
    "bands": {
        "prediction_band": "bands",
        "minimal_prediction_band": "bands",
        "bootstrap_deviation_stats": "bands.pool",
    },
    "density": {"estimate_density": "density"},
    "compare": {"compare_unpaired": "compare"},
    "dataio": {
        "load_dataset": "dataio.load",
        "load_frf": "dataio.load",
        "save_dataset": "dataio.save",
    },
    "cli": {"main": "cli"},
}


class Tracer:
    """Self time per span key plus counters, aggregated as spans close.

    A span's self time is its duration minus the time its child spans
    cover.  Spans nest strictly because the program runs on one thread, so
    one stack of open spans is enough.  Only aggregates are kept: the hot
    stream and draw spans number about 200k per comparison.
    """

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._child_s: list[float] = []  # child time covered, per open span
        self.stream_class = None  # set by `instrument`

    def streams(self, seed: int):
        """A traced stream family for a library call's `streams=` parameter."""
        return self.stream_class(seed)

    @contextmanager
    def span(self, key: str):
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(key, time.perf_counter() - start, self._child_s.pop())

    def leaf(self, key: str, seconds: float) -> None:
        """Record a span with no children, timed by the caller."""
        self._close(key, seconds, 0.0)

    def _close(self, key: str, seconds: float, child_s: float) -> None:
        self.self_s[key] += seconds - child_s
        if self._child_s:
            self._child_s[-1] += seconds

    def take(self) -> tuple[dict[str, float], dict[str, float]]:
        """Return the aggregates collected so far and start afresh."""
        taken = dict(self.self_s), dict(self.counts)
        self.self_s.clear()
        self.counts.clear()
        return taken


class _TracedGenerator:
    """Generator proxy that times `integers` and counts repeat draws.

    Every draw after the first on one stream is a redraw: the bootstraps
    draw once per stream and draw again only to replace a degenerate
    resample.
    """

    __slots__ = ("_gen", "_tracer", "_drawn")

    def __init__(self, gen, tracer: Tracer) -> None:
        self._gen = gen
        self._tracer = tracer
        self._drawn = False

    def integers(self, *args, **kwargs):
        start = time.perf_counter()
        out = self._gen.integers(*args, **kwargs)
        tracer = self._tracer
        tracer.leaf("resampling.draw", time.perf_counter() - start)
        tracer.counts["resampling.draws"] += 1
        if self._drawn:
            tracer.counts["resampling.redraws"] += 1
        self._drawn = True
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _traced_stream_class(base, tracer: Tracer):
    class TracedIndexStreams(base):
        def stream(self, *key):
            start = time.perf_counter()
            gen = super().stream(*key)
            tracer.leaf("resampling.stream", time.perf_counter() - start)
            tracer.counts["resampling.streams"] += 1
            return _TracedGenerator(gen, tracer)

    return TracedIndexStreams


def _observe_pool(tracer: Tracer, args: dict, result) -> None:
    # Bytes the replicate gather pirs[idx] computes: B * N * T doubles.
    tracer.counts["bands.gather_bytes"] += (
        args["cfg"].replications * args["frf_set"].n * args["grid"].n_samples * 8
    )


def _observe_density(tracer: Tracer, args: dict, result) -> None:
    tracer.counts["density.skipped"] += result.skipped
    tracer.counts["density.replications"] += result.pdf_stats.size


OBSERVERS = {"bootstrap_deviation_stats": _observe_pool, "estimate_density": _observe_density}


def _wrap(tracer: Tracer, key: str, fn, observe=None):
    signature = inspect.signature(fn) if observe else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.counts[key + ".calls"] += 1
        with tracer.span(key):
            result = fn(*args, **kwargs)
        if observe:
            observe(tracer, signature.bind(*args, **kwargs).arguments, result)
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Install the layer wrappers for the duration of the block.

    Yields the boundaries that the program no longer has, so a run after a
    refactor reports them instead of failing.
    """
    modules = [m for name, m in list(sys.modules.items())
               if name == "frfstats" or name.startswith("frfstats.")]
    saved = []

    def replace(original, substitute) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    saved.append((module, attr, value))
                    setattr(module, attr, substitute)

    missing = []
    try:
        for module_name, functions in BOUNDARIES.items():
            module = importlib.import_module(f"frfstats.{module_name}")
            for fn_name, key in functions.items():
                fn = getattr(module, fn_name, None)
                if fn is None:
                    missing.append(f"{module_name}.{fn_name}")
                    continue
                replace(fn, _wrap(tracer, key, fn, OBSERVERS.get(fn_name)))
        base = importlib.import_module("frfstats.resampling").IndexStreams
        tracer.stream_class = _traced_stream_class(base, tracer)
        replace(base, tracer.stream_class)
        yield missing
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
        tracer.stream_class = None
