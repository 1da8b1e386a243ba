"""Integrated-gradient attributions, exact and sampled.

Everything here starts from the raw ExactLine partition of the
baseline->x segment.  Inside each piece every ReLU and max-pool choice is
fixed, so the gradient is constant there, and one gradient per piece,
taken at the piece's ratio midpoint, describes the whole path.  The rule
holds for every network the engine partitions, max-pool nets included.
Exact IG weights those gradients by each piece's input-space extent.
Riemann approximations sample the path uniformly.

The search helpers find how many samples a scheme needs before its error
settles below a tolerance.  A search costs one partition plus one
gradient per piece, whatever its cap: every Riemann sum it tries reads
its sample gradients from that per-piece table.  The one exception is a
sample within ``MERGE_TOL`` of a piece endpoint.  There the "zero counts
as inactive" rule can give a gradient that matches neither neighbouring
piece, so such a sample is evaluated directly, once per ratio and search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import CountError, DegenerateError, UndefinedError
from .exactline import LineQuery, PartitionedLine, exactline_network
from .network import Network, batch_gradient, forward


@dataclass(eq=False)
class AttributionReport:
    method: str  # exact | left | right | trapezoid
    values: np.ndarray  # one attribution per input dimension (flattened)
    completeness_gap_abs: float
    completeness_gap_rel: float  # nan when the output difference is zero
    samples: int | None = None  # sampling methods only
    partitions_used: int | None = None  # exact method only


@dataclass(eq=False)
class SampleSearchResult:
    m: int | None  # smallest adequate sample count, None if the cap was hit
    tolerance: float
    stability_window: int
    cap: int


def _line_gradients(
    net: Network, query: LineQuery, ratios: np.ndarray, k: int
) -> np.ndarray:
    """Gradient of output k at each ratio along the line, one flat row per point."""
    grads = batch_gradient(net, query.points(ratios), k)
    return grads.reshape(grads.shape[0], -1)


def _output_delta(net: Network, start: np.ndarray, end: np.ndarray, k: int) -> float:
    """F(end)[k] - F(start)[k]."""
    return float(forward(net, end).reshape(-1)[k] - forward(net, start).reshape(-1)[k])


def _report(
    method: str, values: np.ndarray, delta: float, **extra
) -> AttributionReport:
    gap = abs(float(values.sum()) - delta)
    rel = gap / abs(delta) if delta != 0.0 else float("nan")
    return AttributionReport(method, values, gap, rel, **extra)


def _piece_gradients(net: Network, part: PartitionedLine, k: int) -> np.ndarray:
    """Gradient of output k on each piece of `part`, one flat row per piece.

    Each row is taken at the piece's ratio midpoint, away from every
    activation and pooling boundary, so it holds inside the whole piece.
    """
    a = part.alphas
    return _line_gradients(net, part.query, (a[:-1] + a[1:]) / 2.0, k)


def _exact_values(part: PartitionedLine, grads: np.ndarray) -> np.ndarray:
    """Each piece's gradient times its input-space extent, summed over pieces."""
    query = part.query
    extents = np.diff(part.alphas)[:, None] * (query.end - query.start).reshape(-1)
    return (grads * extents).sum(axis=0)


def exact_ig(
    net: Network, baseline: np.ndarray, x: np.ndarray, output_index: int
) -> AttributionReport:
    """Exact integrated gradients from `baseline` to `x`.

    Sums, over the partitions of the baseline->x segment, the gradient at
    each partition's midpoint times the partition's extent per input
    dimension.  The attributions satisfy completeness: they sum to
    F(x) - F(baseline) up to floating-point error.
    """
    query = LineQuery(np.asarray(baseline), np.asarray(x))
    part = exactline_network(net, query)
    values = _exact_values(part, _piece_gradients(net, part, output_index))
    delta = _output_delta(net, query.start, query.end, output_index)
    return _report("exact", values, delta, partitions_used=part.n_partitions)


def _sample_ratios_weights(m: int, scheme: str):
    if scheme == "left":
        return np.arange(m) / m, np.full(m, 1.0 / m)
    if scheme == "right":
        return np.arange(1, m + 1) / m, np.full(m, 1.0 / m)
    if scheme == "trapezoid":
        w = np.full(m + 1, 1.0 / m)
        w[0] = w[-1] = 1.0 / (2.0 * m)
        return np.arange(m + 1) / m, w
    raise ValueError(f"unknown scheme {scheme!r}")


def riemann_ig(
    net: Network,
    baseline: np.ndarray,
    x: np.ndarray,
    output_index: int,
    m: int,
    scheme: str = "left",
) -> AttributionReport:
    """Riemann-sum approximation of integrated gradients with m samples.

    Left sums sample ratios k/m for k < m, right sums k/m for k >= 1,
    and the trapezoid rule uses all k/m with halved end weights.
    """
    if m < 1:
        raise CountError(f"sample count must be >= 1, got {m}")
    query = LineQuery(np.asarray(baseline), np.asarray(x))
    # first, so an output that overflows raises before the sums overflow
    delta = _output_delta(net, query.start, query.end, output_index)
    ratios, weights = _sample_ratios_weights(m, scheme)
    grads = _line_gradients(net, query, ratios, output_index)
    span = (query.end - query.start).reshape(-1)
    values = span * (weights[:, None] * grads).sum(axis=0)
    return _report(scheme, values, delta, samples=m)


def relative_error(approx: AttributionReport, exact: AttributionReport) -> float:
    """Normalized L1 distance between attribution vectors."""
    if approx.values.shape != exact.values.shape:
        raise UndefinedError("attribution vectors have different lengths")
    denom = float(np.abs(exact.values).sum())
    if denom == 0.0:
        raise UndefinedError("exact attribution vector is zero")
    return float(np.abs(approx.values - exact.values).sum()) / denom


def _check_search_args(cap: int, stability: int, scheme: str, tol: float) -> None:
    if not (np.isfinite(tol) and tol >= 0):
        raise CountError(f"tolerance must be finite and >= 0, got {tol}")
    if cap < 1:
        raise CountError(f"sample cap must be >= 1, got {cap}")
    if stability < 0:
        raise CountError(f"stability window must be >= 0, got {stability}")
    _sample_ratios_weights(1, scheme)  # ValueError for an unknown scheme


def _riemann_values(
    net: Network, part: PartitionedLine, grads: np.ndarray, k: int, scheme: str
):
    """values(m): the attributions riemann_ig returns for m samples.

    A sample inside a piece takes that piece's row of `grads`.  A sample
    within MERGE_TOL of a piece endpoint is evaluated with batch_gradient
    instead; its row is kept for every later m that samples the same
    ratio.  The rows are then summed as riemann_ig sums them.
    """
    a = part.alphas
    span = (part.query.end - part.query.start).reshape(-1)
    at_endpoint: dict[float, np.ndarray] = {}

    def values(m: int) -> np.ndarray:
        ratios, weights = _sample_ratios_weights(m, scheme)
        piece = np.minimum(np.searchsorted(a, ratios, side="right") - 1, a.size - 2)
        rows = grads[piece]
        dist = np.minimum(ratios - a[piece], a[piece + 1] - ratios)
        near = dist <= _kernels.MERGE_TOL
        if near.any():
            keys = ratios[near].tolist()
            new = [r for r in dict.fromkeys(keys) if r not in at_endpoint]
            if new:
                direct = _line_gradients(net, part.query, np.array(new), k)
                at_endpoint.update(zip(new, direct))
            rows[near] = np.stack([at_endpoint[r] for r in keys])
        return span * (weights[:, None] * rows).sum(axis=0)

    return values


def find_m_tilde(
    net: Network,
    baseline: np.ndarray,
    x: np.ndarray,
    output_index: int,
    tol: float = 0.05,
    cap: int = 1000,
) -> SampleSearchResult:
    """Smallest left-sum sample count whose attributions are nearly complete.

    Completeness gap is measured against |F(x) - F(baseline)|, which must
    be nonzero.  Returns m=None if no count up to `cap` suffices.  The
    search costs one partition and one gradient per piece whatever the
    cap; a sample at a piece endpoint is evaluated directly (see the
    module docstring).
    """
    _check_search_args(cap, 0, "left", tol)
    query = LineQuery(np.asarray(baseline), np.asarray(x))
    delta = _output_delta(net, query.start, query.end, output_index)
    if delta == 0.0:
        raise DegenerateError("output difference between endpoints is zero")
    part = exactline_network(net, query)
    grads = _piece_gradients(net, part, output_index)
    left_sum = _riemann_values(net, part, grads, output_index, "left")
    for m in range(1, cap + 1):
        rep = _report("left", left_sum(m), delta)
        if rep.completeness_gap_abs <= tol * abs(delta):
            return SampleSearchResult(m=m, tolerance=tol, stability_window=0, cap=cap)
    return SampleSearchResult(m=None, tolerance=tol, stability_window=0, cap=cap)


def samples_to_tolerance(
    net: Network,
    baseline: np.ndarray,
    x: np.ndarray,
    output_index: int,
    scheme: str = "left",
    tol: float = 0.05,
    stability: int = 5,
    cap: int = 1000,
) -> SampleSearchResult:
    """Smallest m whose error stays within `tol` of exact IG for m..m+stability.

    The stability window guards against lucky sample counts that happen
    to align with the integrand.  Returns m=None if no m <= cap qualifies.
    The search costs one partition and one gradient per piece whatever
    the cap, and takes the exact attributions from the same partition; a
    sample at a piece endpoint is evaluated directly (see the module
    docstring).
    """
    _check_search_args(cap, stability, scheme, tol)
    query = LineQuery(np.asarray(baseline), np.asarray(x))
    part = exactline_network(net, query)
    grads = _piece_gradients(net, part, output_index)
    delta = _output_delta(net, query.start, query.end, output_index)
    exact = _report("exact", _exact_values(part, grads), delta)
    riemann_sum = _riemann_values(net, part, grads, output_index, scheme)
    errs: dict[int, float] = {}

    def err(m: int) -> float:
        if m not in errs:
            errs[m] = relative_error(_report(scheme, riemann_sum(m), delta), exact)
        return errs[m]

    for m in range(1, cap + 1):
        if all(err(mp) <= tol for mp in range(m, m + stability + 1)):
            return SampleSearchResult(
                m=m, tolerance=tol, stability_window=stability, cap=cap
            )
    return SampleSearchResult(m=None, tolerance=tol, stability_window=stability, cap=cap)
