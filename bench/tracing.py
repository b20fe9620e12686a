"""Span tracing of cnsflow from outside the program.

``instrument`` wraps every public function (and every public method of a
class) defined in each cnsflow module, and rebinds each wrapper in every
module namespace where the original is looked up, so ``solver`` calling
``gradient`` imported by name is traced as well.  The transform entry
points of ``numpy.fft`` and ``scipy.fft`` are wrapped the same way and
recorded as spans of a pseudo-layer ``fft``.

A span is (id, parent id, layer, name, start, end, self time, self growth
of the process high-water mark).  Spans stay in memory; the caller writes
them out at the end.  Self time is the span's duration minus the time its
child spans cover; memory growth is attributed the same way.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import resource
import time
from collections import defaultdict

#: the layers, one per module of src/cnsflow
LAYERS = ("solver", "pressure", "grid_fields", "state", "diagnostics", "energy",
          "regularity", "hausdorff", "snapshot", "cli")
FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans and boundary counts of one traced process; ``enabled`` pauses
    recording (the benchmark's own checks run untraced)."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.enabled = True
        self._stack: list = []

    def wrap(self, fn, layer: str, name: str, hook=None, track_rss: bool = True):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer._call(fn, layer, name, hook, track_rss, args, kwargs)

        return traced

    def _call(self, fn, layer, name, hook, track_rss, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        frame = [sid, 0.0, 0]  # id, time covered by children, rss growth of children
        self._stack.append(frame)
        rss0 = _maxrss_kb() if track_rss else 0
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            growth = (_maxrss_kb() - rss0) if track_rss else 0
            self._stack.pop()
            self.spans[sid] = (sid, parent[0] if parent else -1, layer, name, t0, t1,
                               (t1 - t0) - frame[1], growth - frame[2] if track_rss else 0)
            if parent is not None:
                parent[1] += t1 - t0
                parent[2] += growth
        if hook is not None:
            for key, value in hook(args, kwargs, result).items():
                self.counts[key] += value
        return result

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(
                    ("id", "parent", "layer", "name", "start", "end", "self_s",
                     "self_rss_kb"), s))) + "\n")


# ---------------------------------------------------------------------------
# counts recorded at the boundaries
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _eval_points(args, kwargs, result):
    return {"pressure.eval_field_points": len(result)}


def _dimension_points(args, kwargs, result):
    return {"hausdorff.points": len(_arg(args, kwargs, 0, "points"))}


def _flag_sweep(args, kwargs, result):
    centres = _arg(args, kwargs, 1, "centers")
    radii = _arg(args, kwargs, 2, "radii")
    criterion = kwargs.get("criterion", args[5] if len(args) > 5 else "thm13")
    per_centre = len(radii) if criterion == "thm13" else 1
    return {"regularity.flag_evals": len(centres) * per_centre,
            "regularity.flagged": len(result)}


def _bytes_written(args, kwargs, result):
    return {"snapshot.bytes_written": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _bytes_read(args, kwargs, result):
    return {"snapshot.bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path"))}


HOOKS = {
    "pressure.eval_field_at": _eval_points,
    "hausdorff.dimension_estimate": _dimension_points,
    "regularity.flag_sweep": _flag_sweep,
    "snapshot.write_snapshot": _bytes_written,
    "snapshot.read_snapshot": _bytes_read,
}


def _fft_elements(args, kwargs, result):
    size_in = getattr(args[0], "size", 0) if args else 0
    return {"fft.elements": max(size_in, result.size)}


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every cnsflow module and the FFT entry
    points."""
    import numpy.fft

    package = importlib.import_module("cnsflow")
    modules = {layer: importlib.import_module(f"cnsflow.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                replaced[obj] = tracer.wrap(obj, layer, f"{layer}.{name}",
                                            HOOKS.get(f"{layer}.{name}"))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, fn in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, attr, tracer.wrap(fn, layer, f"{layer}.{name}.{attr}"))
    for mod in (package, *modules.values()):
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, name, replaced[obj])
    fft_modules = [numpy.fft]
    try:
        import scipy.fft

        fft_modules.append(scipy.fft)
    except ImportError:
        pass
    for mod in fft_modules:
        for name in FFT_NAMES:
            setattr(mod, name, tracer.wrap(getattr(mod, name), "fft", f"{mod.__name__}.{name}",
                                           _fft_elements, track_rss=False))


# ---------------------------------------------------------------------------
# per-layer figures
# ---------------------------------------------------------------------------


class SpanIndex:
    """Queries over finished spans: inclusive time of the outermost calls
    of a set of functions, and the functions a span ran under."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}

    def ancestors(self, span):
        pid = span[1]
        while pid != -1:
            parent = self.by_id[pid]
            yield parent
            pid = parent[1]

    def named(self, names):
        return [s for s in self.spans if s[3] in names]

    def outer_time(self, names) -> float:
        """Summed duration of calls to ``names`` not nested in another."""
        return sum(s[5] - s[4] for s in self.named(names)
                   if not any(a[3] in names for a in self.ancestors(s)))

    def count_under(self, layer: str, under: str) -> int:
        return sum(1 for s in self.spans
                   if s[2] == layer and any(a[3] == under for a in self.ancestors(s)))
