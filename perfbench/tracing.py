"""Per-layer tracing of one pesinlab CLI invocation, from outside the package.

The layers are the package's modules.  ``install`` replaces public
functions with wrappers in every ``pesinlab`` module namespace that binds
them, so calls made through a module attribute (``geometry.clip_to_rect``),
a module global, or a name imported with ``from .x import y`` all reach the
wrapper.  ``make_map`` is wrapped so that the callables of the ``TorusMap``
it returns are wrapped too.

Three kinds of wrapper keep the cost bounded:

* span: coarse calls (a few thousand per run at most).  Each call is timed
  and recorded as a span (id, name, start, end, parent id, run id) kept in
  memory and written out by ``dump``.
* hot: calls made hundreds of thousands of times.  Each call is timed and
  aggregated (calls, seconds, self seconds); no span is kept.
* counted: the innermost calls (millions per run).  Only counted; their
  time stays in the caller's self time.

Self time is a call's duration minus the time of the timed calls nested in
it, accumulated on a stack of open calls as they return.  The spans repeat
that information for the coarse calls, and the root span's duration equals
the sum of every self time, which ``dump`` records so the parent can check
that the accounting closes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

LAYERS = ("cli", "maps", "geometry", "partitions", "lyapunov", "gamow",
          "pipeline", "serialize")

# (module, function, kind); the CLI reaches all of these on some workload
TARGETS = (
    ("geometry", "clip_to_rect", "hot"),
    ("geometry", "clip_halfplane", "counted"),
    ("geometry", "polygon_area", "hot"),
    ("partitions", "refine_series", "span"),
    ("partitions", "entropy_nats", "span"),
    ("lyapunov", "lyapunov_spectrum", "span"),
    ("lyapunov", "positive_sum_field", "span"),
    ("gamow", "evolution_factors", "span"),
    ("gamow", "make_cell_operators", "span"),
    ("gamow", "decay_bounds", "span"),
    ("pipeline", "prescription_run", "span"),
    ("pipeline", "decay_detect", "span"),
    ("pipeline", "semiclassical_h_mu", "span"),
    ("serialize", "write_json", "span"),
    ("serialize", "write_csv", "span"),
    ("serialize", "write_plot_script", "span"),
    ("maps", "make_map", "span"),
)

# TorusMap fields wrapped on every map the CLI builds
MAP_FIELDS = (("step", "counted"), ("step_batch", "span"),
              ("forward_pieces", "hot"))

# exact counters, filled by the result hooks below
COUNTERS = ("geometry.clip.hits", "serialize.bytes", "partitions.words_final",
            "partitions.words_total", "partitions.exact.words",
            "partitions.mc.sample_steps", "lyapunov.steps",
            "maps.step_batch.points", "gamow.chain.words",
            "gamow.chain.depth", "gamow.chain.n_max")


class Tracer:
    """Call statistics and spans of one traced run."""

    def __init__(self) -> None:
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        self.stack: list[list] = []   # open calls: [child seconds, span id]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self s]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.words_per_depth: list[int] = []
        self._next_span = 0
        for module, func, _ in TARGETS:
            self._stat(f"{module}.{func}")
        for attr, _ in MAP_FIELDS:
            self._stat(f"maps.{attr}")

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn, kind: str, on_result=None):
        stat = self._stat(name)
        if kind == "counted":
            def counted(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)
            return counted

        stack = self.stack
        spans = self.spans if kind == "span" else None
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if spans is not None:
                self._next_span += 1
                span_id = self._next_span
                parent = stack[-1][1] if stack else 0
            else:
                span_id = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dt = end - start
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if spans is not None:
                    spans.append((span_id, name, start, end, parent))
            if on_result is not None:
                on_result(result, args, kwargs)
            return result
        return timed

    def dump(self, path: str) -> None:
        root = [s for s in self.spans if s[4] == 0]
        doc = {"run_id": self.run_id, "stats": self.stats,
               "counts": self.counts,
               "words_per_depth": self.words_per_depth,
               "root_s": sum(s[3] - s[2] for s in root),
               "spans": [{"id": i, "name": n, "start": a, "end": b,
                          "parent": p, "run": self.run_id}
                         for i, n, a, b, p in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _hooks(tracer: Tracer) -> dict:
    counts = tracer.counts

    def clip_hit(result, args, kwargs):
        if result is not None:
            counts["geometry.clip.hits"] += 1

    def wrote(result, args, kwargs):
        counts["serialize.bytes"] += os.path.getsize(result)

    def refined(records, args, kwargs):
        words = [r.nonempty_words for r in records]
        tracer.words_per_depth = words
        counts["partitions.words_final"] = words[-1]
        counts["partitions.words_total"] += sum(words)
        mode = _arg(args, kwargs, 3, "measure_mode", "exact")
        if mode == "exact":
            counts["partitions.exact.words"] += sum(words)
        else:
            counts["partitions.mc.sample_steps"] += \
                records[0].meta["n_samples"] * (len(words) - 1)

    def lyapunov_steps(result, args, kwargs):
        n = _arg(args, kwargs, 2, "n")
        counts["lyapunov.steps"] += n + min(100, n // 10)

    def prescribed(run, args, kwargs):
        if run.source_kind != "quantum":
            return
        counts["gamow.chain.words"] = int(run.words.shape[0])
        counts["gamow.chain.depth"] = int(run.n_max)
        counts["gamow.chain.n_max"] = int(run.source_desc["n_max"])

    return {"geometry.clip_to_rect": clip_hit,
            "serialize.write_json": wrote,
            "serialize.write_csv": wrote,
            "serialize.write_plot_script": wrote,
            "partitions.refine_series": refined,
            "lyapunov.lyapunov_spectrum": lyapunov_steps,
            "pipeline.prescription_run": prescribed}


def _wrap_map_fields(tracer: Tracer, make_map):
    """make_map whose returned TorusMap has its callables wrapped too."""
    counts = tracer.counts

    def batch_points(result, args, kwargs):
        counts["maps.step_batch.points"] += len(result)

    def traced_make_map(*args, **kwargs):
        tmap = make_map(*args, **kwargs)
        fields = {attr: tracer.wrap(f"maps.{attr}", getattr(tmap, attr), kind,
                                    batch_points if attr == "step_batch" else None)
                  for attr, kind in MAP_FIELDS if getattr(tmap, attr) is not None}
        return dataclasses.replace(tmap, **fields)
    return traced_make_map


def install(tracer: Tracer):
    """Wrap the targets in every loaded pesinlab module; return a traced main."""
    import pesinlab.cli

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "pesinlab" or name.startswith("pesinlab.")}
    hooks = _hooks(tracer)
    for module, func, kind in TARGETS:
        name = f"{module}.{func}"
        original = getattr(modules[f"pesinlab.{module}"], func)
        inner = _wrap_map_fields(tracer, original) if name == "maps.make_map" \
            else original
        wrapper = tracer.wrap(name, inner, kind, hooks.get(name))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    return tracer.wrap("cli.main", pesinlab.cli.main, "span")
