"""Closed-loop measurement, output verification and metric assembly.

Load model: one process, one client thread, closed loop.  Each query is
sent only after the previous one has returned, as `sweep`, `density` and
`ig-samples` use the library.  Only the query call is timed; checks run
after the loop, so they cost neither latency nor throughput and do not
raise the reported peak memory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import time
from pathlib import Path

import checks

# ---------------------------------------------------------------------------
# Running and verifying queries


def run_queries(wl, indices):
    """Run the queries at `indices` in order; return (index, seconds, output).

    A query that raises records the exception as its output.
    """
    results = []
    for i in indices:
        q = wl.queries[i]
        net = wl.nets[q.net]
        t0 = time.perf_counter()
        try:
            out = wl.run(net, q)
        except Exception as exc:  # a failing query is counted, not fatal
            out = exc
        results.append((i, time.perf_counter() - t0, out))
    return results


class Verifier:
    """Checks each distinct query fully once; repeats must match it bit for bit."""

    def __init__(self, wl):
        self.wl = wl
        self.digests: dict[int, str | None] = {}  # None: the first output failed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def verify(self, results) -> None:
        for i, _, out in results:
            self.attempted += 1
            problems = self._problems(i, out)
            if problems:
                self.failed += 1
                self.problems.append(f"query {i}: {'; '.join(problems)}")

    def _problems(self, i, out) -> list[str]:
        if isinstance(out, Exception):
            self.digests.setdefault(i, None)
            return [f"raised {type(out).__name__}: {out}"]
        digest = checks.fingerprint(out)
        if i in self.digests:
            if self.digests[i] is None:
                return ["failed its check on an earlier run"]
            return [] if digest == self.digests[i] else ["output differs from its first run"]
        q = self.wl.queries[i]
        try:
            problems = self.wl.check(self.wl.nets[q.net], q, out)
        except Exception as exc:  # a malformed output can break its check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.digests[i] = None if problems else digest
        return problems


def _percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


# ---------------------------------------------------------------------------
# End-to-end run (tracing off)


def end_to_end(wl, seconds: float):
    """Cycle through the query list until `seconds` of query time have run
    and every query has run at least once."""
    results = []
    timed = 0.0
    n = len(wl.queries)
    while len(results) < n or timed < seconds:
        (r,) = run_queries(wl, [len(results) % n])
        results.append(r)
        timed += r[1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verifier = Verifier(wl)
    verifier.verify(results)
    latencies = sorted(r[1] for r in results)
    completed = verifier.attempted - verifier.failed
    metrics = {
        "queries_per_s": (completed / timed, "1/s"),
        "query_s_p50": (statistics.median(latencies), "s"),
        "query_s_p90": (_percentile(latencies, 0.9), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    digests = json.dumps([verifier.digests[i] for i in range(n)])
    counts = {"outputs": hashlib.sha256(digests.encode()).hexdigest()}
    return metrics, verifier, counts, {"timed_s": timed, "queries": len(results)}


# ---------------------------------------------------------------------------
# Traced run


def _pass(wl, indices):
    results = run_queries(wl, indices)
    return sum(r[1] for r in results), results


def traced(wl, tracer, seconds: float, load_s: float):
    """Per-layer metrics of the trace prefix of the query list.

    Untraced and traced passes over the same queries alternate until
    `seconds` of query time have run; the ratio of each pair gives the
    tracing overhead.  Times are per pass; counts are per pass and must
    repeat exactly.
    """
    indices = range(min(wl.trace_queries, len(wl.queries)))
    plain, traced_passes = [], []
    timed = 0.0
    while not plain or timed < seconds:
        plain.append(_pass(wl, indices))
        tracer.reset()
        tracer.install()
        try:
            wall, results = _pass(wl, indices)
        finally:
            tracer.uninstall()
        traced_passes.append((wall, results, tracer.reset()))
        timed += plain[-1][0] + wall

    verifier = Verifier(wl)
    for (_, results), (_, traced_results, _) in zip(plain, traced_passes):
        verifier.verify(results)
        verifier.verify(traced_results)

    per_pass = [stats for _, _, stats in traced_passes]
    counts = {k: v for k, v in per_pass[0].items() if not _is_time(k)}
    unstable = sorted({
        k for stats in per_pass[1:] for k in set(counts) | set(stats)
        if not _is_time(k) and stats.get(k, 0) != counts.get(k, 0)
    })
    times = {k for stats in per_pass for k in stats if _is_time(k)}
    stats = {k: statistics.fmean(s.get(k, 0.0) for s in per_pass) for k in times}
    stats.update(counts)
    traced_walls = [w for w, _, _ in traced_passes]
    plain_walls = [w for w, _ in plain]
    derived = {
        "io_formats.load_network.s": load_s,
        "trace.pass_s": statistics.median(traced_walls),
        "trace.untraced_pass_s": statistics.median(plain_walls),
        "trace.overhead": statistics.median(
            t / p for t, p in zip(traced_walls, plain_walls)
        ) - 1.0,
        "trace.top_span_share": stats.get("trace.top.s", 0.0)
        / statistics.fmean(traced_walls),
        "trace.absent_entry_points": len(tracer.absent),
    }
    metrics = per_layer_metrics(stats, derived)
    info = {"passes": len(per_pass), "queries": len(indices), "absent": tracer.absent,
            "unstable_counts": unstable}
    return metrics, verifier, counts, info


def _is_time(key: str) -> bool:
    return key.endswith((".s", ".self_s"))


# name -> unit; every per-layer metric the traced run reports
PER_LAYER_UNITS = {
    **{
        f"kernels.{k}.{m}": u
        for k in ("relu_maxpool_crossings", "maxpool_crossings")
        for m, u in (("s", "s"), ("calls", "count"), ("segment_windows", "count"),
                     ("crossings", "count"))
    },
    "kernels.window_hit_ratio": "ratio",
    "kernels.relu_crossings.s": "s",
    "kernels.relu_crossings.calls": "count",
    "kernels.relu_crossings.rows": "count",
    "kernels.relu_crossings.crossings": "count",
    "kernels.buffer_bytes_max": "B",
    "network.apply_layer.s": "s",
    "network.apply_layer.calls": "count",
    "network.apply_layer.rows": "count",
    "exactline.exactline_network.s": "s",
    "exactline.exactline_network.self_s": "s",
    "exactline.exactline_network.calls": "count",
    "exactline.exactline_network.endpoints": "count",
    "exactline.canonicalize.s": "s",
    "exactline.canonicalize.calls": "count",
    "exactline.canonicalize.endpoints": "count",
    "exactline.canonical_keep_ratio": "ratio",
    "analysis.decision_segments.self_s": "s",
    "analysis.decision_segments.segments": "count",
    "analysis.gradient_deviation.self_s": "s",
    "analysis.partition_density.self_s": "s",
    "network.batch_gradient.s": "s",
    "network.batch_gradient.calls": "count",
    "network.batch_gradient.points": "count",
    "attributions.exact_ig.self_s": "s",
    "attributions.riemann_ig.s": "s",
    "attributions.riemann_ig.calls": "count",
    "attributions.search.s": "s",
    "attributions.search.gradient_points": "count",
    "attributions.search.cap_hits": "count",
    "io_formats.load_network.s": "s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead": "ratio",
    "trace.top_span_share": "ratio",
    "trace.absent_entry_points": "count",
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(stats, derived):
    windows = sum(
        stats.get(f"kernels.{k}.segment_windows", 0)
        for k in ("relu_maxpool_crossings", "maxpool_crossings")
    )
    window_crossings = sum(
        stats.get(f"kernels.{k}.crossings", 0)
        for k in ("relu_maxpool_crossings", "maxpool_crossings")
    )
    values = dict(stats)
    values["kernels.window_hit_ratio"] = _ratio(window_crossings, windows)
    values["exactline.canonical_keep_ratio"] = _ratio(
        stats.get("exactline.canonicalize.endpoints", 0),
        stats.get("exactline.canonicalize.endpoints_in", 0),
    )
    values.update(derived)
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        v = values.get(name, 0)
        out[name] = (int(v) if unit in ("count", "B") else float(v), unit)
    return out


# ---------------------------------------------------------------------------
# Count ledger: the same code and seed must give the same counts


def code_digest(root: Path) -> str:
    h = hashlib.sha256()
    for base in ("src/linrestrict", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ledger_compare(path: Path, key: str, counts: dict) -> list[str]:
    """Record `counts` under `key`; return the names of counts that differ
    from an earlier run recorded under the same key."""
    try:
        ledger = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        ledger = {}
    before = ledger.setdefault(key, counts)
    changed = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(ledger, sort_keys=True))
    os.replace(tmp, path)
    return changed
