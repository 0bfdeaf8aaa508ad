"""In-memory span tracer that wraps kacwalk functions where callers look them up.

Every public kacwalk function is reached through a module attribute: either
its own module's (``kacwalk.walk.take_snapshot``, ``kacwalk.io.write_json``)
or a copy made by ``from ... import`` in another module
(``kacwalk.experiments.run_walk``, ``kacwalk.meanfield.sample_pair``).
``Tracer.instrument`` replaces each of those attributes with a timing
wrapper for the duration of a ``with`` block and puts the originals back
afterwards, so nothing inside ``src/`` knows it is being traced.

Coarse calls become spans (name, layer, start, end, parent). The per-step
functions in ``PER_STEP`` run about a million times a pass, so they are
kept as (calls, seconds) aggregates on the enclosing span instead. A
span's self time is its duration minus its child spans and the
aggregates recorded under it; summed over all spans and aggregates, self
times add up to the root spans' durations exactly.
"""

import inspect
import time
from contextlib import contextmanager

from kacwalk import (experiments, io, linalg, meanfield, solver, systems,
                     theory, walk)

LAYER_MODULES = (walk, linalg, solver, meanfield, theory, systems, io,
                 experiments)
LAYERS = tuple(mod.__name__.rpartition(".")[2] for mod in LAYER_MODULES)

# Functions called once per walk step: aggregated, never one span per call.
PER_STEP = frozenset({"sample_pair", "walk_step"})

# Spans whose arguments and result the metrics read after the run.
KEEP = frozenset({
    "run_walk", "run_circle_walk", "meanfield_integrate",
    "expected_gain_exact", "kaczmarz_solve",
    "write_snapshots_csv", "write_steps_csv", "write_trace_csv",
    "write_histogram_csv", "write_density_csv", "write_json",
})


class Span:
    """One traced call. ``aggs`` maps a per-step name to [calls, seconds]."""

    __slots__ = ("name", "layer", "parent", "start", "end", "children",
                 "aggs", "args", "result")

    def __init__(self, name, layer, parent, start):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = None
        self.children = []
        self.aggs = {}
        self.args = self.result = None  # filled for names in KEEP

    @property
    def duration(self):
        return self.end - self.start

    @property
    def child_s(self):
        """Time covered by child spans (aggregates not included)."""
        return sum(c.duration for c in self.children)

    @property
    def self_s(self):
        return (self.duration - self.child_s
                - sum(total for _, total in self.aggs.values()))


class Tracer:
    """Collects spans from instrumented calls; ``clock`` is injectable so
    the self-time arithmetic can be tested with a synthetic clock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.roots = []
        self.current = None

    @contextmanager
    def span(self, name, layer):
        """A span opened by the benchmark's own code (e.g. one pass)."""
        sp = self._open(name, layer)
        try:
            yield sp
        finally:
            self._close(sp)

    def _open(self, name, layer):
        sp = Span(name, layer, self.current, self.clock())
        if self.current is None:
            self.roots.append(sp)
        else:
            self.current.children.append(sp)
        self.current = sp
        return sp

    def _close(self, sp):
        sp.end = self.clock()
        self.current = sp.parent

    def wrap_span(self, fn, layer):
        qual = f"{layer}.{fn.__name__}"
        sig = inspect.signature(fn) if fn.__name__ in KEEP else None
        is_run_experiment = fn.__name__ == "run_experiment"

        def traced(*args, **kwargs):
            label = qual
            if is_run_experiment:
                label = f"experiments.{args[0].experiment}"
            sp = self._open(label, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                sp.args, sp.result = bound.arguments, result
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_aggregate(self, fn, layer):
        key = f"{layer}.{fn.__name__}"
        clock = self.clock

        def counted(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - t0
            cell = self.current.aggs.get(key)
            if cell is None:
                self.current.aggs[key] = [1, elapsed]
            else:
                cell[0] += 1
                cell[1] += elapsed
            return result

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def instrument(self):
        """Wrap every kacwalk function at every module attribute that
        holds it; restore the originals on exit."""
        saved = []
        for mod in LAYER_MODULES:
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("kacwalk."):
                    continue
                home = value.__module__.rpartition(".")[2]
                if value.__name__.startswith("_") or home not in LAYERS:
                    continue
                if value.__name__ in PER_STEP:
                    wrapped = self.wrap_aggregate(value, home)
                else:
                    wrapped = self.wrap_span(value, home)
                saved.append((mod, attr, value))
                setattr(mod, attr, wrapped)
        try:
            yield self
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)


def self_time_by_layer(root):
    """Self seconds per layer under ``root``, aggregates included. The
    ``experiments`` layer is split by pipeline: its spans count toward the
    enclosing ``experiments.<name>`` span (or their own name outside one).
    The values sum to ``root.duration``."""
    totals = {}
    stack = [(root, None)]
    while stack:
        sp, pipeline = stack.pop()
        if sp.layer == "experiments":
            pipeline = pipeline or sp.name
            key = pipeline
        else:
            key = sp.layer
        totals[key] = totals.get(key, 0.0) + sp.self_s
        for agg, (_, total) in sp.aggs.items():
            layer = agg.partition(".")[0]
            totals[layer] = totals.get(layer, 0.0) + total
        stack.extend((child, pipeline) for child in sp.children)
    return totals


def aggregate_totals(root):
    """{per-step name: [calls, seconds]} summed over the whole tree."""
    out = {}
    stack = [root]
    while stack:
        sp = stack.pop()
        for key, (calls, total) in sp.aggs.items():
            cell = out.setdefault(key, [0, 0.0])
            cell[0] += calls
            cell[1] += total
        stack.extend(sp.children)
    return out
