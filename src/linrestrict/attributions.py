"""Integrated-gradient attributions, exact and sampled.

The exact path uses the partitioned line: on ReLU/affine networks the
gradient is constant inside each partition, so the path integral of the
gradient collapses to one gradient evaluation per partition (taken at
the ratio midpoint) weighted by the partition's input-space extent.
Riemann approximations sample the same path uniformly; the search
helpers find how many samples a scheme needs before its error settles
below a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CountError, DegenerateError, UndefinedError, UnsupportedLayerError
from .exactline import LineQuery, exactline_network
from .network import (
    AFFINE_LAYERS,
    Network,
    ReLU,
    batch_gradient,
    forward,
    validate_network,
)


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


def _require_relu_affine(net: Network) -> None:
    for k, layer in enumerate(net.layers):
        if not isinstance(layer, AFFINE_LAYERS + (ReLU,)):
            raise UnsupportedLayerError(
                f"layer {k} ({type(layer).__name__}): the gradient is constant "
                "on each piece only in a ReLU/affine network"
            )


def _line_gradients(
    net: Network, query: LineQuery, ratios: np.ndarray, k: int
) -> np.ndarray:
    """Gradient of output k at each ratio along the line, one flat row per point."""
    grads = batch_gradient(net, query.points(ratios), k)
    return grads.reshape(grads.shape[0], -1)


def _output_delta(net: Network, start: np.ndarray, end: np.ndarray, k: int) -> float:
    """F(end)[k] - F(start)[k]."""
    return float(forward(net, end).reshape(-1)[k] - forward(net, start).reshape(-1)[k])


def _gap(values_sum: float, delta: float) -> tuple[float, float]:
    gap = abs(values_sum - delta)
    rel = gap / abs(delta) if delta != 0.0 else float("nan")
    return gap, rel


def exact_ig(
    net: Network, baseline: np.ndarray, x: np.ndarray, output_index: int
) -> AttributionReport:
    """Exact integrated gradients from `baseline` to `x`.

    Sums, over the partitions of the baseline->x segment, the gradient at
    each partition's midpoint times the partition's extent per input
    dimension.  The attributions satisfy completeness: they sum to
    F(x) - F(baseline) up to floating-point error.
    """
    validate_network(net)
    _require_relu_affine(net)
    query = LineQuery(np.asarray(baseline), np.asarray(x))
    part = exactline_network(net, query)
    a = part.alphas
    grads = _line_gradients(net, query, (a[:-1] + a[1:]) / 2.0, output_index)
    extents = np.diff(a)[:, None] * (query.end - query.start).reshape(-1)
    values = (grads * extents).sum(axis=0)
    delta = _output_delta(net, query.start, query.end, output_index)
    gap, rel = _gap(float(values.sum()), delta)
    return AttributionReport(
        method="exact",
        values=values,
        completeness_gap_abs=gap,
        completeness_gap_rel=rel,
        partitions_used=part.n_partitions,
    )


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
    validate_network(net)
    query = LineQuery(np.asarray(baseline), np.asarray(x))
    ratios, weights = _sample_ratios_weights(m, scheme)
    grads = _line_gradients(net, query, ratios, output_index)
    span = (query.end - query.start).reshape(-1)
    values = span * (weights[:, None] * grads).sum(axis=0)
    delta = _output_delta(net, query.start, query.end, output_index)
    gap, rel = _gap(float(values.sum()), delta)
    return AttributionReport(
        method=scheme,
        values=values,
        completeness_gap_abs=gap,
        completeness_gap_rel=rel,
        samples=m,
    )


def relative_error(approx: AttributionReport, exact: AttributionReport) -> float:
    """Normalized L1 distance between attribution vectors."""
    if approx.values.shape != exact.values.shape:
        raise UndefinedError("attribution vectors have different lengths")
    denom = float(np.abs(exact.values).sum())
    if denom == 0.0:
        raise UndefinedError("exact attribution vector is zero")
    return float(np.abs(approx.values - exact.values).sum()) / denom


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
    be nonzero.  Returns m=None if no count up to `cap` suffices.
    """
    delta = _output_delta(net, np.asarray(baseline), np.asarray(x), output_index)
    if delta == 0.0:
        raise DegenerateError("output difference between endpoints is zero")
    for m in range(1, cap + 1):
        rep = riemann_ig(net, baseline, x, output_index, m, "left")
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
    """
    exact = exact_ig(net, baseline, x, output_index)
    errs: dict[int, float] = {}

    def err(m: int) -> float:
        if m not in errs:
            errs[m] = relative_error(
                riemann_ig(net, baseline, x, output_index, m, scheme), exact
            )
        return errs[m]

    for m in range(1, cap + 1):
        if all(err(mp) <= tol for mp in range(m, m + stability + 1)):
            return SampleSearchResult(
                m=m, tolerance=tol, stability_window=stability, cap=cap
            )
    return SampleSearchResult(m=None, tolerance=tol, stability_window=stability, cap=cap)
