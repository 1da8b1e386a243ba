"""Outside-in per-layer trace: timing wrappers installed by attribute.

The package records nothing itself, so the tracer replaces each layer's
entry points, in every module namespace that calls them, with wrappers
that time the call and count its work.  Wrappers exist only between
``install`` and ``uninstall`` and only in the process that installs them.
An entry point that is missing (renamed or deleted) is reported as absent
instead of failing the run.

A span's ``.s`` total counts only the outermost call of that name (so a
recursive ``exactline_network`` is not counted twice); ``.self_s`` is the
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

import numpy as np

SEARCH = "attributions.search"


def _count_relu(t, args, out):
    post = args[0]
    t.add("kernels.relu_crossings.rows", post.shape[0])
    t.add("kernels.relu_crossings.crossings", len(out[0]))
    t.max("kernels.buffer_bytes_max", post.nbytes)


def _window_counter(span):
    def count(t, args, out):
        qwin, rwin = args[0], args[1]
        t.add(f"{span}.segment_windows", qwin.shape[0] * qwin.shape[1])
        t.add(f"{span}.crossings", len(out[0]))
        t.max("kernels.buffer_bytes_max", max(qwin.nbytes, rwin.nbytes))

    return count


def _count_apply(t, args, out):
    t.add("network.apply_layer.rows", args[1].shape[0])


def _count_gradient(t, args, out):
    points = np.shape(args[1])[0]
    t.add("network.batch_gradient.points", points)
    if t.depth[SEARCH]:
        t.add(f"{SEARCH}.gradient_points", points)


def _count_exactline(t, args, out):
    if t.depth["exactline.exactline_network"] == 0:  # outermost call only
        t.add("exactline.exactline_network.endpoints", out.n_endpoints)


def _count_canonicalize(t, args, out):
    t.add("exactline.canonicalize.endpoints_in", args[0].n_endpoints)
    t.add("exactline.canonicalize.endpoints", out.n_endpoints)


def _count_segments(t, args, out):
    t.add("analysis.decision_segments.segments", len(out))


def _count_search(t, args, out):
    t.add(f"{SEARCH}.cap_hits", int(out.m is None))


# (module, attribute, span name, counter); one span may be bound in several
# consumer namespaces, since `from .network import apply_layer` copies the
# reference into the importing module.
BINDINGS = (
    ("linrestrict._kernels", "relu_crossings", "kernels.relu_crossings", _count_relu),
    ("linrestrict._kernels", "maxpool_crossings", "kernels.maxpool_crossings",
     _window_counter("kernels.maxpool_crossings")),
    ("linrestrict._kernels", "relu_maxpool_crossings", "kernels.relu_maxpool_crossings",
     _window_counter("kernels.relu_maxpool_crossings")),
    ("linrestrict.exactline", "apply_layer", "network.apply_layer", _count_apply),
    ("linrestrict.network", "apply_layer", "network.apply_layer", _count_apply),
    ("linrestrict.network", "batch_gradient", "network.batch_gradient", _count_gradient),
    ("linrestrict.analysis", "batch_gradient", "network.batch_gradient", _count_gradient),
    ("linrestrict.attributions", "batch_gradient", "network.batch_gradient",
     _count_gradient),
    ("linrestrict.exactline", "exactline_network", "exactline.exactline_network",
     _count_exactline),
    ("linrestrict.analysis", "exactline_network", "exactline.exactline_network",
     _count_exactline),
    ("linrestrict.attributions", "exactline_network", "exactline.exactline_network",
     _count_exactline),
    ("linrestrict.analysis", "canonicalize", "exactline.canonicalize", _count_canonicalize),
    ("linrestrict.analysis", "decision_segments", "analysis.decision_segments",
     _count_segments),
    ("linrestrict.analysis", "partition_density", "analysis.partition_density", None),
    ("linrestrict.analysis", "gradient_deviation", "analysis.gradient_deviation", None),
    ("linrestrict.analysis", "fgsm_direction", "analysis.fgsm_direction", None),
    ("linrestrict.analysis", "random_direction", "analysis.random_direction", None),
    ("linrestrict.attributions", "exact_ig", "attributions.exact_ig", None),
    ("linrestrict.attributions", "riemann_ig", "attributions.riemann_ig", None),
    ("linrestrict.attributions", "samples_to_tolerance", SEARCH, _count_search),
    ("linrestrict.attributions", "find_m_tilde", SEARCH, _count_search),
    ("linrestrict.io_formats", "load_network", "io_formats.load_network", None),
)


class Tracer:
    """Aggregates spans and counts while its wrappers are installed."""

    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self.depth: Counter = Counter()  # open spans per name
        self._stack: list[list[float]] = []  # per open span: [seconds in children]
        self._restore: list[tuple] = []
        spans = {span for _, _, span, _ in BINDINGS}
        self.absent = sorted(spans - {span for _, span in self._resolve()})

    def add(self, key: str, value) -> None:
        self.stats[key] += value

    def max(self, key: str, value) -> None:
        self.stats[key] = max(self.stats[key], value)

    def reset(self) -> dict[str, float]:
        stats, self.stats = dict(self.stats), defaultdict(float)
        return stats

    @staticmethod
    def _resolve():
        for module_name, attr, span, counter in BINDINGS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if callable(getattr(module, attr, None)):
                yield (module, attr, counter), span

    def install(self) -> None:
        for (module, attr, counter), span in self._resolve():
            fn = getattr(module, attr)
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(span, fn, counter))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def _wrap(self, span, fn, counter):
        def traced(*args, **kwargs):
            outermost = self.depth[span] == 0
            frame = [0.0]
            self._stack.append(frame)
            self.depth[span] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.depth[span] -= 1
                self._stack.pop()
                self.stats[f"{span}.calls"] += 1
                self.stats[f"{span}.self_s"] += dt - frame[0]
                if outermost:
                    self.stats[f"{span}.s"] += dt
                if self._stack:
                    self._stack[-1][0] += dt
                else:
                    self.stats["trace.top.s"] += dt
            if counter is not None:
                counter(self, args, out)
            return out

        traced.__wrapped__ = fn
        return traced
