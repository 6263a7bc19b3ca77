"""Spans around the calls into each layer, recorded from outside the package.

Each public function is replaced under the name its caller resolves at call
time (a module global or a module attribute), so the package itself is not
edited. geometry gets no span: its calls take a millisecond or less per ICP
iteration, so a span would mostly time the timer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict | None = None   # work done, when the layer reports it


class Tracer:
    """Keeps every span in memory; one thread, so a stack gives the parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn, count=None):
        """fn with a span per call; count(args, kwargs, result) gives its work
        as a dict of counts."""
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace the traced names; returns a function that restores them."""
        from degen_icp import cli, cloud_io, registration

        saved = []

        def put(module, attr, replacement):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)

        def span(module, attr, name, count=None):
            put(module, attr, self.wrap(name, getattr(module, attr), count))

        def accumulated(args, kwargs, bundle):
            return {"features_accumulated": bundle.size}

        span(cli, "icp", "registration.icp")
        span(cli, "mc_direction_stats", "simulation.mc",
             lambda a, k, r: {"mc_samples": len(a[0]) * (a[3] if len(a) > 3 else k["trials"])})
        span(cli, "direction_stats", "degeneracy.direction_stats")
        span(cli, "accumulate_arrays", "degeneracy.accumulate", accumulated)
        span(cloud_io, "load_cloud", "cloud_io.load", lambda a, k, r: {"points_read": r[0].shape[0]})
        for attr in [a for a in cloud_io.__all__ if a.startswith("write_")]:
            span(cloud_io, attr, "cloud_io.write")
        span(registration, "extract_features", "registration.extract_features",
             lambda a, k, r: {"candidates": r[1].candidates, "features_used": r[1].used,
                              "rejected_outlier": r[1].rejected_outlier})
        span(registration, "fit_planes", "normals.fit_planes",
             lambda a, k, r: {"planes_fitted": r.normals.shape[0]})
        span(registration, "accumulate_arrays", "degeneracy.accumulate", accumulated)
        span(registration, "solve_update", "registration.solve_update")
        put(registration, "cKDTree", self._tree_class(registration.cKDTree))

        def restore():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    def _tree_class(self, base):
        tracer = self

        class TracedTree(base):
            """Times kd-tree construction and queries."""

            def __init__(self, data, *args, **kwargs):
                tracer.wrap("registration.tree_build", super().__init__)(data, *args, **kwargs)

            def query(self, x, *args, **kwargs):
                return tracer.wrap("registration.knn", super().query)(x, *args, **kwargs)

        return TracedTree


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
