"""Line-based analyses: decision boundaries, partition density, gradient drift.

Decision segmentation finds the exact class along every point of a query
line: within each linear partition the output vector is affine in the
ratio, so argmax changes are located by the max-pool window kernel,
applied to the output-space segment as one window.  Density and
gradient-deviation summarize how nonlinear the network is along a line;
the perturbation helpers build the comparison directions.

Decision segments and gradient deviation read the raw ExactLine
partition.  Only `partition_density` counts the pieces of the canonical
one (as the CLI's ``exactline --canonical`` exports it): canonicalizing
compares with an absolute tolerance, which can move a real boundary at
small scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .attributions import _piece_gradients
from .errors import DimensionError, QueryError, UndefinedError
from .exactline import LineQuery, canonicalize, exactline_network
from .network import _QUIET, Network, _finite, gradient


@dataclass(frozen=True)
class ClassSegment:
    alpha_lo: float
    alpha_hi: float
    class_index: int


@dataclass(eq=False)
class DensityReport:
    partition_count: int
    length: float  # Euclidean distance between the query endpoints
    density: float  # partitions per unit input distance
    gradient_deviation: float | None = None


def decision_segments(net: Network, query: LineQuery) -> list[ClassSegment]:
    """Maximal constant-argmax intervals of the network output along the line.

    The returned segments tile [0, 1] with no gaps; adjacent segments
    carry different classes.  A ratio exactly on a boundary is classified
    with the segment to its right.  The raw partition is read, not the
    canonical one: the window kernel finds every argmax change inside a
    piece, and runs of one class are merged afterwards, so the extra
    endpoints of the raw partition add no boundary.
    """
    if net.output_size < 2:
        raise DimensionError("decision segments need at least two outputs")
    part = exactline_network(net, query)
    flat = part.postimages.reshape(part.n_endpoints, -1)
    qwin = flat[:-1][:, None, :]
    rwin = flat[1:][:, None, :]
    _, cross = _kernels.maxpool_crossings(qwin, rwin, part.alphas)
    # partition endpoints stay in the tiling: a class flip can sit exactly
    # on one, where the window kernel, which looks inside partitions, sees
    # nothing
    bounds = np.sort(np.concatenate([part.alphas, cross]))
    # classify each interval at its midpoint, interpolated as in
    # interpolate_output; argmax ties take the lowest index
    mids = (bounds[:-1] + bounds[1:]) / 2.0
    i = np.searchsorted(part.alphas, mids) - 1
    t = ((mids - part.alphas[i]) / (part.alphas[i + 1] - part.alphas[i]))[:, None]
    cls = ((1.0 - t) * flat[i] + t * flat[i + 1]).argmax(axis=1)
    edges = np.concatenate([[0], np.flatnonzero(cls[1:] != cls[:-1]) + 1, [cls.size]])
    return [
        ClassSegment(float(bounds[lo]), float(bounds[hi]), int(cls[lo]))
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


def partition_density(net: Network, query: LineQuery) -> DensityReport:
    """Canonical partition count per unit Euclidean length of the query."""
    part = canonicalize(exactline_network(net, query))
    length = query.length()
    return DensityReport(
        partition_count=part.n_partitions,
        length=length,
        density=part.n_partitions / length,
    )


def gradient_deviation(net: Network, query: LineQuery, output_index: int) -> float:
    """Length-weighted mean relative L1 drift of per-partition gradients.

    Compares the gradient inside every piece of the raw ExactLine partition
    against the gradient at the query start; weights are piece
    ratio-lengths (summing to 1).  The raw partition is used because
    canonicalizing can merge pieces whose outputs are collinear while
    their input gradients differ.  Raises UndefinedError when the gradient
    at the query start is zero.
    """
    g0 = gradient(net, query.start, output_index).reshape(-1)
    norm0 = float(np.abs(g0).sum())
    if norm0 == 0.0:
        raise UndefinedError("gradient at the query start is zero")
    part = exactline_network(net, query)
    grads = _piece_gradients(net, part, output_index)
    weights = np.diff(part.alphas)
    drift = np.abs(grads - g0).sum(axis=1) / norm0
    return float((weights * drift).sum())


@_QUIET
def fgsm_direction(
    net: Network, x: np.ndarray, epsilon: float, label: int
) -> np.ndarray:
    """One signed-gradient step of size epsilon decreasing the labeled score.

    Components with exactly zero gradient are left unchanged, so a zero
    gradient returns x itself.  Raises NumericError if the step overflows.
    """
    if not np.isfinite(epsilon):
        raise QueryError(f"epsilon {epsilon} must be finite")
    x = np.asarray(x, dtype=np.float64)
    g = gradient(net, x, label)
    return _finite(x - epsilon * np.sign(g), "perturbed point")


@_QUIET
def random_direction(x: np.ndarray, epsilon: float, seed: int) -> np.ndarray:
    """x displaced by a seeded uniformly random +-epsilon sign vector.

    The max-norm of the displacement is exactly epsilon, matching the
    signed-gradient step's magnitude for fair density comparisons.  Raises
    NumericError if the step overflows.
    """
    if not np.isfinite(epsilon):
        raise QueryError(f"epsilon {epsilon} must be finite")
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=x.shape) * 2 - 1
    return _finite(x + epsilon * signs, "perturbed point")
