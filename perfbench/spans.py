"""Outside-in tracing of sslhop's public functions.

The program is not instrumented. Instead, each traced function is rebound,
for the duration of a run, at every name under which an ``sslhop`` module
holds it: modules import their collaborators with ``from ... import``, so
``sslhop.pipeline.extract_unions`` must be rebound as well as
``sslhop.neighborhood.extract_unions``. Spans nest, so a span's self time
is its duration minus the time of its direct children. Spans are kept as
``perf_counter`` readings; durations are taken once the run is over, through
a conversion the caller passes (reference seconds, in ``run.py``).
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable

# (module, function) pairs the trace wraps; metrics are named after the
# module that defines the function, whatever name its callers use.
TRACED = (
    ("evaluate", "cross_validate"),
    ("pipeline", "fit_pipeline"),
    ("pipeline", "predict_samples"),
    ("pipeline", "assemble_sample"),
    ("saab", "fit_saab_batches"),
    ("saab", "apply_saab"),
    ("neighborhood", "extract_unions"),
    ("neighborhood", "max_pool"),
    ("supervise", "channel_entropy"),
    ("supervise", "fit_lag"),
    ("supervise", "apply_lag"),
    ("classifier", "fit_svm"),
    ("dataio", "read_field"),
    ("model_io", "load_model"),
)

TRACED_NAMES = tuple(f"{m}.{f}" for m, f in TRACED)

# spans that only call other traced layers; excluded from the layer share
GLUE = ("evaluate.cross_validate", "pipeline.fit_pipeline",
        "pipeline.predict_samples")

# the functions deployment calls; its trace reports only these
DEPLOYED = ("pipeline.predict_samples", "pipeline.assemble_sample",
            "saab.apply_saab", "neighborhood.extract_unions",
            "neighborhood.max_pool", "supervise.apply_lag",
            "dataio.read_field", "model_io.load_model")

# per-function counters beyond calls/s/self_s, with their units
COUNTERS = {
    "neighborhood.extract_unions.bytes_computed": "bytes",
    "neighborhood.extract_unions.per_map_layer_fit": "calls/map-layer",
    "classifier.fit_svm.epochs": "count",
    "dataio.read_field.bytes": "bytes",
}


@contextmanager
def rebind(package: str, fn, replacement):
    """Point every ``package`` module attribute bound to ``fn`` at
    ``replacement`` until the block exits."""
    undo = []
    for name, module in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, replacement)
                undo.append((module, attr))
    try:
        yield
    finally:
        for module, attr in undo:
            setattr(module, attr, fn)


class Tracer:
    """Span recorder with per-function counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self._fit_extractions = 0
        self._fit_map_layers = 0
        self._ids = itertools.count()
        self._stack: list[tuple[int, str, float]] = []  # id, name, start

    @contextmanager
    def installed(self, package):
        """Wrap every traced function of ``package`` until the block exits."""
        with ExitStack() as stack:
            for module, function in TRACED:
                fn = getattr(getattr(package, module), function)
                stack.enter_context(rebind(package.__name__, fn,
                                           self._wrap(f"{module}.{function}", fn)))
            yield self

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            frame = (next(self._ids), name, time.perf_counter())
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                parent = self._stack[-1][0] if self._stack else -1
                self.spans.append((frame[0], parent, name, frame[2], end))
            self._count(name, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, args, result) -> None:
        if name == "neighborhood.extract_unions":
            self.counters["neighborhood.extract_unions.bytes_computed"] += \
                result.data.nbytes
            if any(f[1] == "pipeline.fit_pipeline" for f in self._stack):
                self._fit_extractions += 1
        elif name == "pipeline.fit_pipeline":
            samples, cfg = args[0], args[1]
            directions = samples[0].interlaced.shape[0]
            self._fit_map_layers += len(samples) * directions * len(cfg.layers)
        elif name == "classifier.fit_svm":
            self.counters["classifier.fit_svm.epochs"] += sum(
                len(h) for h in result.objective_history)
        elif name == "dataio.read_field":
            self.counters["dataio.read_field.bytes"] += os.path.getsize(args[0])

    def span_metrics(self, names, prefix: str, timed_s: float,
                     convert: Callable[[float, float], float],
                     ) -> dict[str, tuple[float, str]]:
        """Calls, seconds and self seconds of the named functions, as
        ``prefix + name + stat`` -> (value, unit), and the share of
        ``timed_s`` that non-glue layers spent in their own code.
        ``convert(start, end)`` turns a span's readings into seconds."""
        duration = {span_id: convert(start, end)
                    for span_id, _, _, start, end in self.spans}
        children: dict[int, float] = defaultdict(float)
        for span_id, parent, *_ in self.spans:
            children[parent] += duration[span_id]
        totals = {name: [0, 0.0, 0.0] for name in TRACED_NAMES}
        for span_id, _, name, _, _ in self.spans:
            total = totals[name]
            total[0] += 1
            total[1] += duration[span_id]
            total[2] += duration[span_id] - children[span_id]
        out: dict[str, tuple[float, str]] = {}
        for name in names:
            calls, seconds, self_s = totals[name]
            out[f"{prefix}{name}.calls"] = (calls, "count")
            out[f"{prefix}{name}.s"] = (seconds, "s")
            out[f"{prefix}{name}.self_s"] = (self_s, "s")
        layer_self = sum(t[2] for n, t in totals.items() if n not in GLUE)
        out[f"{prefix}trace.layer_share"] = (layer_self / timed_s, "fraction")
        return out

    def counter_metrics(self) -> dict[str, tuple[float, str]]:
        self.counters["neighborhood.extract_unions.per_map_layer_fit"] = (
            self._fit_extractions / self._fit_map_layers
            if self._fit_map_layers else 0.0)
        return {name: (self.counters[name], unit)
                for name, unit in COUNTERS.items()}

    def write_spans(self, path: Path) -> None:
        """One JSON line per span: id, parent id (-1 at top), name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")

