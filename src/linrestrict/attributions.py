"""Integrated-gradient attributions, exact and sampled.

Everything here starts from the raw ExactLine partition of the
baseline->x segment.  Inside each piece every ReLU and max-pool choice is
fixed, so the gradient is constant there.  The engine records those
choices for each piece while it finds the crossings, and one backward
pass through them gives one gradient per piece, with the conventions of
``batch_gradient``: a unit at exactly zero counts as inactive, and a
pooling tie goes to the lowest index.  The rule holds for every network
the engine partitions, max-pool nets included.  Exact IG weights those
gradients by each piece's input-space extent.  Riemann approximations
sample the path uniformly.

The search helpers find how many samples a scheme needs before its error
settles below a tolerance.  A search costs one partition plus one
gradient per piece, whatever its cap: every Riemann sum it tries reads
its sample gradients from that per-piece table.  The one exception is a
sample within ``MERGE_TOL`` of a piece endpoint.  There the "zero counts
as inactive" rule can give a gradient that matches neither neighbouring
piece, so such a sample is evaluated directly, once per ratio and search.

A search goes through the sample counts a block at a time: it builds a
block's samples, looks up their pieces and tests its errors with whole
array operations, and computes the next block only when it reads a count
not yet computed.  Every count's rows are still summed in a call of their
own, so each sum, error and returned count is bit for bit the one that
per-count evaluation gives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import CountError, DegenerateError, UndefinedError
from .exactline import LineQuery, PartitionedLine, exactline_network
from .network import Network, _backward, batch_gradient, forward

#: Most sample-row elements (sample rows x input dimension) that one block
#: of a sample-count search holds.
_SEARCH_BLOCK_ELEMS = 2**20
#: Sample counts in the first block of a search: a block has a fixed cost
#: of a dozen numpy calls, and most searches with a cap of a few dozen then
#: take one or two blocks.
_SEARCH_FIRST_BLOCK = 16


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


def _partition_gradients(net: Network, query: LineQuery, k: int) -> tuple:
    """The raw partition of `query` and the gradient of output k on each of
    its pieces, one flat row per piece.

    Each piece lies inside one piece of every crossing step and takes the
    state the engine recorded there; one backward pass gives the rows.
    """
    states = []
    part = exactline_network(net, query, _states=states)
    a = part.alphas
    mids = (a[:-1] + a[1:]) / 2.0
    frozen = [None] * len(net.layers)
    for layer_idx, step_alphas, state in states:
        frozen[layer_idx] = state[np.searchsorted(step_alphas, mids) - 1]
    grads = _backward(net, frozen, mids.size, k)
    return part, grads.reshape(mids.size, -1)


def _exact_values(part: PartitionedLine, grads: np.ndarray) -> np.ndarray:
    """Each piece's gradient times its input-space extent, summed over pieces."""
    query = part.query
    extents = np.diff(part.alphas)[:, None] * (query.end - query.start).reshape(-1)
    return (grads * extents).sum(axis=0)


def exact_ig(
    net: Network, baseline: np.ndarray, x: np.ndarray, output_index: int
) -> AttributionReport:
    """Exact integrated gradients from `baseline` to `x`.

    Sums, over the partitions of the baseline->x segment, the gradient
    inside each partition times the partition's extent per input
    dimension.  The attributions satisfy completeness: they sum to
    F(x) - F(baseline) up to floating-point error.
    """
    query = LineQuery(np.asarray(baseline), np.asarray(x))
    part, grads = _partition_gradients(net, query, output_index)
    values = _exact_values(part, grads)
    delta = _output_delta(net, query.start, query.end, output_index)
    return _report("exact", values, delta, partitions_used=part.n_partitions)


def _sample_ratios_weights(ms: np.ndarray, scheme: str):
    """Sample ratios and weights for each sample count in `ms`: one run of
    rows per count, in order, and the end of each run.

    Left sums sample ratios k/m for k < m, right sums k/m for k >= 1, and
    the trapezoid rule all k/m with halved end weights.
    """
    if scheme not in ("left", "right", "trapezoid"):
        raise ValueError(f"unknown scheme {scheme!r}")
    counts = ms + int(scheme == "trapezoid")
    ends = np.cumsum(counts)
    starts = ends - counts
    m_row = np.repeat(ms, counts)
    k = np.arange(ends[-1]) - np.repeat(starts, counts) + int(scheme == "right")
    weights = 1.0 / m_row
    if scheme == "trapezoid":
        weights[starts] = weights[ends - 1] = 1.0 / (2.0 * ms)
    return k / m_row, weights, ends


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
    ratios, weights, _ = _sample_ratios_weights(np.array([m]), scheme)
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
    _sample_ratios_weights(np.array([1]), scheme)  # ValueError for an unknown scheme


def _sample_blocks(limit: int, scheme: str, d: int):
    """Consecutive ranges lo <= m < hi of sample counts, covering 1..limit.

    After the first, a range is at most as long as all the ranges before
    it, so a search computes at most about twice the counts it reads.  Its
    sample rows hold at most _SEARCH_BLOCK_ELEMS elements of `d` values,
    or one count's rows if those alone hold more.
    """
    extra = int(scheme == "trapezoid")
    budget = _SEARCH_BLOCK_ELEMS
    lo = 1
    while lo <= limit:
        n = min(max(lo - 1, _SEARCH_FIRST_BLOCK), limit + 1 - lo)
        # counts lo..lo+n-1 have (lo + extra) + ... + (lo + n - 1 + extra) rows
        while n > 1 and (n * (2 * lo + n - 1) // 2 + extra * n) * d > budget:
            n //= 2
        yield lo, lo + n
        lo += n


def _riemann_values(
    net: Network, part: PartitionedLine, grads: np.ndarray, k: int, scheme: str
):
    """values(lo, hi): the attributions riemann_ig returns for each sample
    count lo <= m < hi, one row per m.

    A sample inside a piece takes that piece's row of `grads`.  A sample
    within MERGE_TOL of a piece endpoint is evaluated with batch_gradient
    instead, in one batch with the other new endpoint samples of the
    first m that samples it, and its row is kept for every later m.  The
    rows of each m are then summed on their own, as riemann_ig sums them:
    the order in which numpy sums depends on the rows it is given.
    """
    a = part.alphas
    span = (part.query.end - part.query.start).reshape(-1)
    at_endpoint: dict[float, np.ndarray] = {}

    def values(lo: int, hi: int) -> np.ndarray:
        ratios, weights, ends = _sample_ratios_weights(np.arange(lo, hi), scheme)
        piece = np.minimum(np.searchsorted(a, ratios, side="right") - 1, a.size - 2)
        rows = grads[piece]
        dist = np.minimum(ratios - a[piece], a[piece + 1] - ratios)
        near = np.flatnonzero(dist <= _kernels.MERGE_TOL)
        if near.size:
            keys = ratios[near].tolist()
            first_m: dict[float, int] = {}  # new ratio -> first m that samples it
            for r, i in zip(keys, np.searchsorted(ends, near, side="right").tolist()):
                if r not in at_endpoint:
                    first_m.setdefault(r, i)
            for _, batch in itertools.groupby(first_m, key=first_m.get):
                new = list(batch)
                direct = _line_gradients(net, part.query, np.array(new), k)
                at_endpoint.update(zip(new, direct))
            rows[near] = np.stack([at_endpoint[r] for r in keys])
        rows *= weights[:, None]
        return span * np.array([run.sum(axis=0) for run in np.split(rows, ends[:-1])])

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
    part, grads = _partition_gradients(net, query, output_index)
    left_sum = _riemann_values(net, part, grads, output_index, "left")
    for lo, hi in _sample_blocks(cap, "left", grads.shape[1]):
        # the completeness gap of _report, for each m of the block
        gaps = np.abs(left_sum(lo, hi).sum(axis=1) - delta)
        passed = np.flatnonzero(gaps <= tol * abs(delta))
        if passed.size:
            m = lo + int(passed[0])
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
    part, grads = _partition_gradients(net, query, output_index)
    exact = _exact_values(part, grads)
    denom = float(np.abs(exact).sum())
    if denom == 0.0:
        raise UndefinedError("exact attribution vector is zero")
    riemann_sum = _riemann_values(net, part, grads, output_index, scheme)
    start = 1  # first m of the run of passing counts that reaches lo
    for lo, hi in _sample_blocks(cap + stability, scheme, grads.shape[1]):
        # relative_error for each m of the block
        errs = np.abs(riemann_sum(lo, hi) - exact).sum(axis=1) / denom
        failed = lo + np.flatnonzero(~(errs <= tol))
        # runs of passing counts: from each start up to the next failed m
        starts = np.append(start, failed + 1)
        stops = np.append(failed, hi)
        held = np.flatnonzero(stops - starts > stability)
        start = int(starts[held[0]] if held.size else starts[-1])
        if start > cap:
            break
        if held.size:
            return SampleSearchResult(
                m=start, tolerance=tol, stability_window=stability, cap=cap
            )
    return SampleSearchResult(m=None, tolerance=tol, stability_window=stability, cap=cap)
