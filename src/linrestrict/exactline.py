"""Exact linear restrictions of networks along input line segments.

The central object is the partitioned line: endpoints at ratios
``0 = a_1 < ... < a_n = 1`` along a query segment such that the network
(restricted to the layers applied so far) is affine between adjacent
endpoints.  Affine layers never split a partition; ReLU splits where a
component of the image crosses zero; max pooling splits where a window's
argmax changes.  Ratios found inside a partition are mapped back to the
query line linearly, which is exact because affine maps preserve ratios
along lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import QueryError, RangeError, ShapeError
from .network import (
    _QUIET,
    MaxPool,
    Network,
    ReLU,
    _backward,
    _finite,
    _layer_state,
    apply_layer,
    pool_window_indices,
)

#: origin_layers value for the two input endpoints
INPUT_ORIGIN = -1

#: tolerance used for collinear-endpoint removal in canonicalize
CANONICAL_TOL = 1e-9

#: segments per block when chunking kernel calls (bounds transient memory)
_BLOCK_ELEMS = 16 * 1024 * 1024

#: new-row elements interpolated per block when inserting crossings: a
#: block's two row buffers stay in cache, and no buffer grows with the line
_INSERT_BLOCK_ELEMS = 2**15


@dataclass(frozen=True, eq=False)
class LineQuery:
    """Ordered pair of distinct input points defining the restriction domain."""

    start: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.start, dtype=np.float64)
        r = np.asarray(self.end, dtype=np.float64)
        if q.shape != r.shape:
            raise QueryError(f"endpoint shapes differ: {q.shape} vs {r.shape}")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(r))):
            raise QueryError("query endpoints must be finite")
        if np.array_equal(q, r):
            raise QueryError("query endpoints are identical")
        with np.errstate(over="ignore"):
            if not np.isfinite(r - q).all():
                raise QueryError("query direction end - start overflows float64")
        object.__setattr__(self, "start", q)
        object.__setattr__(self, "end", r)

    def point_at(self, alpha: float) -> np.ndarray:
        return self.start + alpha * (self.end - self.start)

    def points(self, ratios: np.ndarray) -> np.ndarray:
        """Points at each of `ratios` along the line, shape (n, *start.shape)."""
        q = self.start.reshape(-1)
        r = self.end.reshape(-1)
        pts = q + np.asarray(ratios)[:, None] * (r - q)
        return pts.reshape((-1,) + self.start.shape)

    def length(self) -> float:
        """Euclidean distance between the endpoints, at any scale: the
        difference is scaled by a power of two (exact) so that its squares
        neither underflow nor overflow, and the norm is scaled back."""
        d = (self.end - self.start).ravel()
        e = math.frexp(float(np.abs(d).max()))[1]
        return math.ldexp(float(np.linalg.norm(np.ldexp(d, -e))), e)


@dataclass(eq=False)
class PartitionedLine:
    """Sorted endpoints of a linear partitioning of a restricted network.

    ``alphas[i]`` is the ratio of endpoint i along start->end,
    ``postimages[i]`` its image under the layers applied so far, and
    ``origin_layers[i]`` the index of the layer that introduced it
    (INPUT_ORIGIN for the two query endpoints).  Preimages are derived
    on demand from the ratios rather than stored.
    """

    query: LineQuery
    alphas: np.ndarray  # (n,), strictly increasing, alphas[0]=0, alphas[-1]=1
    postimages: np.ndarray  # (n, *output_shape)
    origin_layers: np.ndarray  # (n,), int

    @property
    def n_endpoints(self) -> int:
        return self.alphas.shape[0]

    @property
    def n_partitions(self) -> int:
        return self.alphas.shape[0] - 1

    @property
    def preimages(self) -> np.ndarray:
        return self.query.points(self.alphas)


def check_partitioned_line(p: PartitionedLine) -> None:
    """Raise AssertionError if a structural invariant is violated.

    Ratios must be strictly increasing, with no minimum gap: the crossing
    kernels merge only coincident ratios, so a piece may be one ulp wide.
    The tests and the benchmark's output checks call it on every partition
    they check.
    """
    a = p.alphas
    o = p.origin_layers
    if a.shape[0] < 2 or p.postimages.shape[0] != a.shape[0]:
        raise AssertionError("endpoint arrays inconsistent or too short")
    if not isinstance(o, np.ndarray) or o.dtype.kind != "i" or o.shape != a.shape:
        raise AssertionError("origin_layers must be one integer per endpoint")
    if o[0] != INPUT_ORIGIN or o[-1] != INPUT_ORIGIN or np.any(o[1:-1] < 0):
        raise AssertionError("origin_layers must mark only the two ends as input")
    if a[0] != 0.0 or a[-1] != 1.0:
        raise AssertionError("partition must span [0, 1]")
    if not np.all(np.diff(a) > 0.0):
        raise AssertionError("ratios must be strictly increasing")
    if not np.all(np.isfinite(p.postimages)):
        raise AssertionError("postimages must be finite")


# ---------------------------------------------------------------------------
# Single-layer restrictions


def exactline_maxpool(q_post, r_post, pool: MaxPool, in_shape) -> np.ndarray:
    """Argmax-change ratios of one image segment under max pooling.

    For each window whose argmax differs at the two endpoints, the
    crossings of its component pairs are kept where the argmax on either
    side of them differs; the union over windows is sorted and
    deduplicated.
    """
    return _pair_crossings(q_post, r_post, pool, in_shape, fused=False)


def exactline_relu_maxpool(q_post, r_post, pool: MaxPool, in_shape) -> np.ndarray:
    """Crossing ratios for max pooling fused with an adjacent ReLU.

    Argmax changes are suppressed while the window maximum stays
    non-positive on both sides; ratios where the maximum crosses zero
    are emitted instead.
    """
    return _pair_crossings(q_post, r_post, pool, in_shape, fused=True)


def exactline_pwl_hyperplanes(normals, offsets, q_post, r_post) -> np.ndarray:
    """Ratios where the segment strictly crosses any of the hyperplanes.

    Hyperplanes are given as normal.x = offset.  The ratios are those of
    the ReLU kernel on the residuals normal.x - offset at the two
    endpoints: only strict sign changes count, so a crossing is found at
    any scale of the residuals, and ratios merge only where they coincide.
    Works for any piecewise-linear layer whose pieces are convex polytopes
    with these faces.
    """
    normals = np.asarray(normals, dtype=np.float64)
    ends = [np.asarray(p, dtype=np.float64).reshape(-1) for p in (q_post, r_post)]
    rows = np.stack([normals @ p for p in ends]) - np.asarray(offsets, dtype=np.float64)
    return _kernels.relu_crossings(rows, np.array([0.0, 1.0]))[1]


# ---------------------------------------------------------------------------
# Whole-network propagation


def _insert_crossings(alphas, flat_pre, origin, seg, new_alphas, layer_idx):
    """Interleave crossing points (sorted by segment then ratio) into the line.

    New preimages under the current layer stack are linear interpolations
    of the bracketing endpoints' values.
    """
    t = (new_alphas - alphas[seg]) / (alphas[seg + 1] - alphas[seg])
    # the j-th crossing follows the seg + 1 endpoints up to its segment's
    # start and the j crossings before it
    new_pos = seg + 1 + np.arange(seg.size)
    kept = np.ones(alphas.size + seg.size, dtype=bool)
    kept[new_pos] = False
    placed = []
    for old, new in ((alphas, new_alphas), (origin, layer_idx)):
        out = np.empty(kept.shape, dtype=old.dtype)
        out[kept] = old
        out[new_pos] = new
        placed.append(out)
    rows = np.empty((kept.size, flat_pre.shape[1]), dtype=flat_pre.dtype)
    rows[kept] = flat_pre
    # new rows a block at a time, each interpolated in place in its
    # gathered copy of the upper endpoints
    step = max(1, _INSERT_BLOCK_ELEMS // max(flat_pre.shape[1], 1))
    for s in range(0, seg.size, step):
        b = slice(s, s + step)
        lo = flat_pre[seg[b]]
        new_pre = flat_pre[seg[b] + 1]
        new_pre -= lo
        new_pre *= t[b, None]
        new_pre += lo
        rows[new_pos[b]] = new_pre
    return placed[0], rows, placed[1]


def _line_crossings(flat, alphas, win, fused):
    """Crossings of one step on every segment of the line, found in blocks
    of segments so the kernel's transient buffers stay bounded.

    `win` is None for a lone ReLU; otherwise the flat indices of each
    pooling window, with `fused` set when a ReLU is fused with the pool.
    """
    n, d = flat.shape
    block = max(1, _BLOCK_ELEMS // max(d if win is None else win.size, 1))
    fn = _kernels.relu_maxpool_crossings if fused else _kernels.maxpool_crossings
    segs, als = [], []
    for s in range(0, n - 1, block):
        e = min(n - 1, s + block)
        if win is None:
            bs, ba = _kernels.relu_crossings(flat[s : e + 1], alphas[s : e + 1])
        else:
            bs, ba = fn(flat[s:e][:, win], flat[s + 1 : e + 1][:, win], alphas[s : e + 1])
        segs.append(bs + s)
        als.append(ba)
    return np.concatenate(segs), np.concatenate(als)


def _pair_crossings(q_post, r_post, pool, in_shape, fused):
    flat = np.array([np.ravel(q_post), np.ravel(r_post)], dtype=np.float64)
    win = pool_window_indices(in_shape, pool.window, pool.stride)
    return _line_crossings(flat, np.array([0.0, 1.0]), win, fused)[1]


@_QUIET
def exactline_network(
    net: Network, query: LineQuery, *, fuse_relu_maxpool: bool = True, _states=None
) -> PartitionedLine:
    """Linear partitioning of the whole network over the query segment.

    Layers are applied in order; each nonlinearity splits the existing
    partitions at its crossing ratios, composed back to ratios along the
    original segment.  A partition whose endpoint images coincide is kept
    as-is and never subdivided.

    With `fuse_relu_maxpool` (the default), a ReLU and a MaxPool that are
    adjacent in either order form one step, taken left to right, whose
    crossings are those of the window maximum clamped at zero.  This is
    exact because max(., 0) and the window maximum commute: both orders
    compute max(0, x_1, ..., x_m) per window.  Endpoints the step adds
    carry the index of its first layer in `origin_layers`.

    A `_states` list receives a ``(layer, step_alphas, state)`` tuple per
    layer of each crossing step: the ratios after the step and the ReLU
    signs or pool argmaxes on its pieces, read by `_partition_gradients`.

    Raises NumericError when the input of a crossing step or a returned
    postimage is not finite.
    """
    if query.start.shape != net.input_shape:
        raise ShapeError(
            f"query shape {query.start.shape} != network input {net.input_shape}"
        )
    shapes = net.shapes
    alphas = np.array([0.0, 1.0])
    post = np.stack([query.start, query.end]).astype(np.float64)
    origin = np.array([INPUT_ORIGIN, INPUT_ORIGIN], dtype=np.int64)

    k = 0
    while k < len(net.layers):
        step = net.layers[k : k + 2]
        if not (fuse_relu_maxpool and {type(l) for l in step} == {ReLU, MaxPool}):
            step = step[:1]
        in_shape = shapes[k]  # a ReLU keeps its shape, so this is also the pool's
        pool = next((l for l in step if isinstance(l, MaxPool)), None)
        relu = any(isinstance(l, ReLU) for l in step)
        if pool is None and not relu:
            post = apply_layer(step[0], post, in_shape)
        else:
            win = None
            if pool is not None:
                win = pool_window_indices(in_shape, pool.window, pool.stride)
            # a crossing kernel drops the NaN ratio of an infinite value
            flat = _finite(post, f"layer {k} input").reshape(alphas.shape[0], -1)
            seg, new_alphas = _line_crossings(flat, alphas, win, fused=relu)
            alphas, flat, origin = _insert_crossings(
                alphas, flat, origin, seg, new_alphas, k
            )
            if _states is not None:
                # (layer, step alphas, state) per layer, each sign and argmax
                # read at twice the refined piece's midpoint input
                v = (flat[:-1] + flat[1:]).reshape((-1,) + in_shape)
                for j, layer in enumerate(step):
                    if j:
                        v = apply_layer(step[0], v, in_shape)
                    state = _layer_state(layer, v, shapes[k + j])
                    _states.append((k + j, alphas, state))
            if pool is not None:
                post = apply_layer(pool, flat.reshape((-1,) + in_shape), in_shape)
                flat = post.reshape(alphas.shape[0], -1)
            if relu:
                np.maximum(flat, 0.0, out=flat)  # the step's buffer is engine-owned
            post = flat.reshape((-1,) + shapes[k + len(step)])
        k += len(step)

    return PartitionedLine(query, alphas, _finite(post, "partition postimages"), origin)


def _partition_gradients(net: Network, query: LineQuery, k: int) -> tuple:
    """The raw partition of `query` and the gradient of output k on each of
    its pieces, one flat row per piece.

    Each piece lies inside one piece of every crossing step and takes the
    state the engine recorded there; one backward pass gives the rows.
    A step's endpoints are a subset of the final ones, so the step piece
    is the one that starts at or before the piece's left endpoint, for
    pieces of any width (a midpoint can round onto an endpoint).
    """
    states = []
    part = exactline_network(net, query, _states=states)
    lefts = part.alphas[:-1]
    frozen = [None] * len(net.layers)
    for layer_idx, step_alphas, state in states:
        frozen[layer_idx] = state[np.searchsorted(step_alphas, lefts, side="right") - 1]
    grads = _backward(net, frozen, lefts.size, k)
    return part, grads.reshape(lefts.size, -1)


# ---------------------------------------------------------------------------
# Canonical form and interpolation


def _collinear_mask(alphas, flat):
    """Boolean mask over interior endpoints lying on the chord of their
    neighbours, within CANONICAL_TOL relative to component magnitude."""
    t = (alphas[1:-1] - alphas[:-2]) / (alphas[2:] - alphas[:-2])
    lerp = flat[:-2] + t[:, None] * (flat[2:] - flat[:-2])
    dev = np.abs(flat[1:-1] - lerp).max(axis=1)
    scale = np.maximum(
        np.abs(flat[:-2]), np.maximum(np.abs(flat[1:-1]), np.abs(flat[2:]))
    ).max(axis=1)
    return dev <= CANONICAL_TOL * (1.0 + scale)


def canonicalize(p: PartitionedLine) -> PartitionedLine:
    """Minimal equivalent partitioning: drop endpoints collinear with
    their neighbours.  Idempotent."""
    alphas = p.alphas
    flat = p.postimages.reshape(p.n_endpoints, -1)
    origin = p.origin_layers
    if alphas.shape[0] > 2 and np.any(_collinear_mask(alphas, flat)):
        # one greedy pass: drop the last kept endpoint but one while it lies
        # on the chord of its kept neighbours
        keep = [0]
        for i in range(1, alphas.shape[0]):
            keep.append(i)
            while len(keep) >= 3:
                abc = keep[-3:]
                if not _collinear_mask(alphas[abc], flat[abc])[0]:
                    break
                del keep[-2]
        alphas, flat, origin = alphas[keep], flat[keep], origin[keep]
    post = flat.reshape((-1,) + p.postimages.shape[1:])
    return PartitionedLine(p.query, alphas, post, origin)


def interpolate_output(p: PartitionedLine, alpha: float) -> np.ndarray:
    """Network output at ratio `alpha`, reconstructed from the partition.

    Exact endpoint ratios return the stored postimage; interior ratios
    interpolate linearly within the bracketing partition.
    """
    if not 0.0 <= alpha <= 1.0:
        raise RangeError(f"ratio {alpha} outside [0, 1]")
    i = int(np.searchsorted(p.alphas, alpha))
    if i < p.alphas.shape[0] and p.alphas[i] == alpha:
        return p.postimages[i].copy()
    i -= 1
    t = (alpha - p.alphas[i]) / (p.alphas[i + 1] - p.alphas[i])
    return (1.0 - t) * p.postimages[i] + t * p.postimages[i + 1]
