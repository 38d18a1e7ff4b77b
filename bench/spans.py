"""Span recording for the traced run.

The benchmark wraps each public lexitree function that the CLI calls in a
span: name, start, end, parent span, request id (the attempt) and step (the
command), plus any counts measured at that boundary. Spans stay in memory
and are written out once at the end. A layer is the module part of a span
name (`xmlio`, `model`, `transform`, `rules`, `cli`); its self time is the
time its spans cover minus the time covered by their child spans. Work done
only for tracing, such as measuring counts, runs in `trace.*` spans, so it
is charged to the `trace` layer and to no program layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from lexitree.model import FeatureClassRegistry


class CountingRegistry(FeatureClassRegistry):
    """A registry that counts its `classify` calls on a tracer; it classifies
    exactly as the registry it copies."""

    def __init__(self, registry: FeatureClassRegistry, tracer: "Tracer"):
        super().__init__(registry.classes, registry.rules, registry.default_class)
        object.__setattr__(self, "_tracer", tracer)

    def classify(self, feature):
        self._tracer.classify_calls += 1
        return super().classify(feature)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, request id, step, counts]
        self.spans: list = []
        self._open: list = []
        self.request = None
        self.step = None
        self.classify_calls = 0

    def span(self, name: str, fn, *args, counts=None):
        """Call fn(*args) inside a span. `counts(args, result)` may return a
        dict of counts; it runs afterwards in a `trace.counts` span beside
        this one."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, 0.0, 0.0, parent, self.request, self.step, None]
        self.spans.append(record)
        self._open.append(index)
        classify_before = self.classify_calls
        record[1] = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            record[2] = time.perf_counter()
            self._open.pop()
            record[6] = {"classify": self.classify_calls - classify_before}
        if counts:
            start = time.perf_counter()
            record[6].update(counts(args, result))
            self.spans.append(["trace.counts", start, time.perf_counter(), parent, self.request,
                               self.step, {}])
        return result

    def self_times_by_step(self, requests) -> dict:
        """Step -> layer -> self seconds, over the spans of the given requests."""
        child_time = defaultdict(float)
        for _, start, end, parent, _, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, request, step, _) in enumerate(self.spans):
            if request in requests:
                out[step][name.split(".", 1)[0]] += end - start - child_time[i]
        return out

    def self_times(self, requests) -> dict:
        """Layer -> self seconds over the spans of the given requests."""
        layers = defaultdict(float)
        for per_layer in self.self_times_by_step(requests).values():
            for layer, seconds in per_layer.items():
                layers[layer] += seconds
        return dict(layers)

    def totals(self, requests) -> dict:
        """Per span name: calls, seconds, and summed counts."""
        out: dict = {}
        for name, start, end, _, request, _, counts in self.spans:
            if request not in requests:
                continue
            entry = out.setdefault(name, defaultdict(float))
            entry["calls"] += 1
            entry["s"] += end - start
            for key, value in counts.items():
                entry[key] += value
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, request, step, counts in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                      "request": request, "step": step, **counts}) + "\n")
