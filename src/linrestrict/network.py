"""Piecewise-linear feedforward networks and their evaluation.

Networks are immutable sequences of layers over a declared input shape.
Supported layers: dense, 2-D convolution (channels-first, zero padding),
per-channel normalization, flatten, ReLU, and 2-D max pooling.  All
arithmetic is 64-bit floating point.

The ``Network`` constructor walks the layer shapes once, raises
``ShapeError`` naming the first layer that does not fit, and stores the
shape each layer produces in ``Network.shapes``, so every ``Network``
value is valid and no evaluation or analysis walks the shapes again.
The conv and pool output-size formulas live only in
``layer_output_shape``; pool windows are strided sliding windows over the
input's flat indices, as the conv forward pass reads its taps.

Evaluation is batched: every helper operates on arrays of shape
``(n, *shape)`` so callers can push many points through the network with
a single sequence of matrix operations.  ``batch_forward`` and
``batch_gradient`` share one walk through the layers, which checks the
batch's shape once; ``forward`` and ``gradient`` are one-row batches of
that walk.  Both batch evaluators raise ``NumericError`` instead of
returning a non-finite array.  All four are pure functions; networks can
be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import NumericError, ShapeError


def _as_f64(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ShapeError("tensor contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class Dense:
    weights: np.ndarray  # (out, in), row-major
    bias: np.ndarray  # (out,)

    def __post_init__(self):
        object.__setattr__(self, "weights", _as_f64(self.weights))
        object.__setattr__(self, "bias", _as_f64(self.bias))
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("dense expects a 2-D weight matrix and 1-D bias")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ShapeError(
                f"dense weight rows ({self.weights.shape[0]}) != bias length "
                f"({self.bias.shape[0]})"
            )


@dataclass(frozen=True, eq=False)
class Conv2D:
    kernel: np.ndarray  # (out_ch, in_ch, kh, kw)
    bias: np.ndarray  # (out_ch,)
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)

    def __post_init__(self):
        object.__setattr__(self, "kernel", _as_f64(self.kernel))
        object.__setattr__(self, "bias", _as_f64(self.bias))
        object.__setattr__(self, "stride", (int(self.stride[0]), int(self.stride[1])))
        object.__setattr__(self, "padding", (int(self.padding[0]), int(self.padding[1])))
        if self.kernel.ndim != 4:
            raise ShapeError("conv2d kernel must have 4 axes (out, in, kh, kw)")
        if self.bias.shape != (self.kernel.shape[0],):
            raise ShapeError("conv2d bias length must equal output channels")
        if min(self.stride) < 1 or min(self.padding) < 0:
            raise ShapeError("conv2d stride must be positive and padding non-negative")


@dataclass(frozen=True, eq=False)
class Normalize:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _as_f64(self.mean))
        object.__setattr__(self, "std", _as_f64(self.std))
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ShapeError("normalize mean/std must be 1-D and equally long")
        if np.any(self.std <= 0):
            raise ShapeError("normalize std must be strictly positive")


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True, eq=False)
class MaxPool:
    window: tuple[int, int]
    stride: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "window", (int(self.window[0]), int(self.window[1])))
        object.__setattr__(self, "stride", (int(self.stride[0]), int(self.stride[1])))
        if min(self.window) < 1 or min(self.stride) < 1:
            raise ShapeError("maxpool window and stride must be strictly positive")


Layer = Union[Dense, Conv2D, Normalize, Flatten, ReLU, MaxPool]


@dataclass(frozen=True, eq=False)
class Network:
    input_shape: tuple[int, ...]
    layers: tuple[Layer, ...]
    #: input shape followed by the output shape of every layer
    shapes: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "shapes", _checked_shapes(self.input_shape, self.layers))

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.shapes[-1]

    @property
    def output_size(self) -> int:
        return int(np.prod(self.output_shape))


def layer_output_shape(layer: Layer, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Shape produced by `layer` on an input of shape `in_shape`."""
    if isinstance(layer, Dense):
        if len(in_shape) != 1 or in_shape[0] != layer.weights.shape[1]:
            raise ShapeError(
                f"dense expects 1-D input of size {layer.weights.shape[1]}, "
                f"got {in_shape}"
            )
        return (layer.weights.shape[0],)
    if isinstance(layer, Conv2D):
        out_ch, in_ch, kh, kw = layer.kernel.shape
        if len(in_shape) != 3 or in_shape[0] != in_ch:
            raise ShapeError(
                f"conv2d expects input (channels={in_ch}, h, w), got {in_shape}"
            )
        _, h, w = in_shape
        sh, sw = layer.stride
        ph, pw = layer.padding
        ho = (h + 2 * ph - kh) // sh + 1
        wo = (w + 2 * pw - kw) // sw + 1
        if h + 2 * ph < kh or w + 2 * pw < kw:
            raise ShapeError(f"conv2d kernel {kh}x{kw} exceeds padded input {in_shape}")
        return (out_ch, ho, wo)
    if isinstance(layer, Normalize):
        channels = in_shape[0]
        if layer.mean.shape[0] != channels:
            raise ShapeError(
                f"normalize expects {layer.mean.shape[0]} channels, input has {channels}"
            )
        return in_shape
    if isinstance(layer, Flatten):
        return (int(np.prod(in_shape)),)
    if isinstance(layer, ReLU):
        return in_shape
    if isinstance(layer, MaxPool):
        wh, ww = layer.window
        sh, sw = layer.stride
        if len(in_shape) != 3:
            raise ShapeError(f"maxpool expects input (channels, h, w), got {in_shape}")
        c, h, w = in_shape
        if h < wh or w < ww:
            raise ShapeError(f"maxpool window {wh}x{ww} exceeds input {in_shape}")
        return (c, (h - wh) // sh + 1, (w - ww) // sw + 1)
    raise ShapeError(f"unknown layer type {type(layer).__name__}")


def _checked_shapes(input_shape, layers) -> tuple[tuple[int, ...], ...]:
    """Input shape followed by the output shape of every layer; raise
    ShapeError naming the first offending layer."""
    if any(d <= 0 for d in input_shape) or not input_shape:
        raise ShapeError(f"input shape {input_shape} must be positive")
    if not layers:
        raise ShapeError("network has no layers")
    shapes = [input_shape]
    for k, layer in enumerate(layers):
        try:
            shapes.append(layer_output_shape(layer, shapes[-1]))
        except ShapeError as exc:
            raise ShapeError(f"layer {k}: {exc}") from None
    return tuple(shapes)


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    """`arr`, after checking that every entry is finite."""
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite {what} (float64 overflow or NaN)")
    return arr


# ---------------------------------------------------------------------------
# Convolution / pooling geometry


def pool_window_indices(in_shape, window, stride) -> np.ndarray:
    """Flat indices of each pooling window, shape (n_windows, window_size).

    Windows are enumerated channel-major then row-major over output
    positions; entries within a window are in ascending flat-index order,
    which fixes the argmax tie-break.
    """
    index = np.arange(math.prod(in_shape)).reshape(in_shape)
    view = np.lib.stride_tricks.sliding_window_view(index, window, axis=(1, 2))
    return view[:, :: stride[0], :: stride[1]].reshape(-1, window[0] * window[1])


# Cap on the transient im2col buffer built per conv chunk.  A chunk this
# size stays in cache while its GEMMs read it.
_CONV_CHUNK_BYTES = 2 * 1024 * 1024


def _conv_chunk_rows(ckk: int, l: int) -> int:
    return max(1, _CONV_CHUNK_BYTES // (ckk * l * 8))


# ---------------------------------------------------------------------------
# Batched layer application


def apply_layer(layer: Layer, v: np.ndarray, in_shape: tuple[int, ...]) -> np.ndarray:
    """Apply one layer to a batch `v` of shape (n, *in_shape)."""
    n = v.shape[0]
    if isinstance(layer, Dense):
        return v @ layer.weights.T + layer.bias
    if isinstance(layer, Conv2D):
        return _conv_forward(layer, v, in_shape)
    if isinstance(layer, Normalize):
        extra = (1,) * (len(in_shape) - 1)
        mean = layer.mean.reshape((-1,) + extra)
        std = layer.std.reshape((-1,) + extra)
        return (v - mean) / std
    if isinstance(layer, Flatten):
        return v.reshape(n, -1)
    if isinstance(layer, ReLU):
        return np.maximum(v, 0.0)
    if isinstance(layer, MaxPool):
        win = pool_window_indices(in_shape, layer.window, layer.stride)
        out = v.reshape(n, -1)[:, win].max(axis=2)
        return out.reshape((n,) + layer_output_shape(layer, in_shape))
    raise ShapeError(f"unknown layer type {type(layer).__name__}")


def _conv_forward(layer: Conv2D, v: np.ndarray, in_shape) -> np.ndarray:
    n = v.shape[0]
    out_ch, _, kh, kw = layer.kernel.shape
    c, h, w = in_shape
    ph, pw = layer.padding
    sh, sw = layer.stride
    _, ho, wo = layer_output_shape(layer, in_shape)
    l = ho * wo
    k2d = layer.kernel.reshape(out_ch, -1)
    out = np.empty((n, out_ch, l))
    step = _conv_chunk_rows(k2d.shape[1], l)
    for s in range(0, n, step):
        e = min(n, s + step)
        b = e - s
        padded = np.zeros((b, c, h + 2 * ph, w + 2 * pw))
        padded[:, :, ph : ph + h, pw : pw + w] = v[s:e]
        # channel-major columns (batch, taps, position): each copied run is
        # a whole output row of the padded input.  Every point then runs the
        # same (position x taps) @ (taps x out_ch) GEMM on its transposed
        # view, so its outputs do not depend on the batch or chunk it is in.
        view = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
        view = view[:, :, ::sh, ::sw]
        cols = view.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, l)
        out[s:e] = np.matmul(cols.transpose(0, 2, 1), k2d.T).transpose(0, 2, 1)
    out += layer.bias[:, None]
    return out.reshape(n, out_ch, ho, wo)


# Each public evaluation raises NumericError on a non-finite result, so
# numpy's overflow warnings on the way there are switched off.
_QUIET = np.errstate(over="ignore", invalid="ignore")


def _walk(net: Network, x, states: list | None = None) -> np.ndarray:
    """Push the batch `x`, shape (n, *input_shape), through every layer;
    if `states` is a list, first append each layer's `_layer_state` at
    that layer's input."""
    v = np.asarray(x, dtype=np.float64)
    if tuple(v.shape[1:]) != net.input_shape:
        raise ShapeError(
            f"input batch shape {tuple(v.shape[1:])} != network input "
            f"{net.input_shape}"
        )
    for layer, in_shape in zip(net.layers, net.shapes):
        if states is not None:
            states.append(_layer_state(layer, v, in_shape))
        v = apply_layer(layer, v, in_shape)
    return v


@_QUIET
def batch_forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a batch of inputs, shape (n, *input_shape)."""
    return _finite(_walk(net, x), "network output")


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Evaluate the network at a single input point."""
    return batch_forward(net, np.asarray(x)[None])[0]


# ---------------------------------------------------------------------------
# Gradients

# A ReLU unit sitting exactly at zero counts as inactive, and a pooling
# window tie routes to the lowest flat index; both make gradients
# deterministic on activation boundaries.


def _layer_state(layer: Layer, v: np.ndarray, in_shape) -> np.ndarray | None:
    """The state of `layer` at each point of `v`: the ReLU mask, or each
    pool window's flat argmax position; None for an affine layer."""
    if isinstance(layer, ReLU):
        return v > 0
    if isinstance(layer, MaxPool):
        win = pool_window_indices(in_shape, layer.window, layer.stride)
        gathered = v.reshape(v.shape[0], -1)[:, win]
        return win[np.arange(win.shape[0]), gathered.argmax(axis=2)]
    return None


def _is_int(value) -> bool:
    """Whether `value` is a Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_output_index(net: Network, output_index: int) -> None:
    """Raise IndexError unless `output_index` is an integer selecting an output."""
    if not _is_int(output_index):
        raise IndexError(f"output index {output_index!r} is not an integer")
    if not 0 <= output_index < net.output_size:
        raise IndexError(
            f"output index {output_index} out of range [0, {net.output_size})"
        )


@_QUIET
def batch_gradient(net: Network, x: np.ndarray, output_index: int) -> np.ndarray:
    """Gradient of the selected scalar output at each point of the batch.

    The activation pattern is frozen at each input point, so on boundary
    points this returns the one-sided gradient fixed by the conventions
    above.  Output shape is (n, *input_shape).
    """
    _check_output_index(net, output_index)
    states = []
    n = _walk(net, x, states).shape[0]
    return _backward(net, states, n, output_index)


@_QUIET
def _backward(net: Network, states, n: int, output_index: int) -> np.ndarray:
    """Gradient of the selected output for n points whose activation states
    are `states`, one entry per layer as `_layer_state` gives them.  The
    caller checks `output_index` first, with `_check_output_index`."""
    shapes = net.shapes
    g = np.zeros((n, net.output_size))
    g[:, output_index] = 1.0
    g = g.reshape((n,) + shapes[-1])
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        in_shape = shapes[k]
        if isinstance(layer, Dense):
            g = g @ layer.weights
        elif isinstance(layer, Conv2D):
            g = _conv_backward(layer, g, in_shape)
        elif isinstance(layer, Normalize):
            extra = (1,) * (len(in_shape) - 1)
            g = g / layer.std.reshape((-1,) + extra)
        elif isinstance(layer, Flatten):
            g = g.reshape((n,) + in_shape)
        elif isinstance(layer, ReLU):
            g = g * states[k]
        elif isinstance(layer, MaxPool):
            pos = states[k]  # (n, n_windows) flat argmax positions
            size = int(np.prod(in_shape))
            # bincount adds the windows' terms in the order np.add.at would
            flat = np.bincount(
                (np.arange(n)[:, None] * size + pos).ravel(),
                weights=g.reshape(n, -1).ravel(),
                minlength=n * size,
            )
            g = flat.reshape((n,) + in_shape)
    return _finite(g, "gradient")


def _conv_backward(layer: Conv2D, g: np.ndarray, in_shape) -> np.ndarray:
    n, out_ch, ho, wo = g.shape
    _, _, kh, kw = layer.kernel.shape
    c, h, w = in_shape
    ph, pw = layer.padding
    sh, sw = layer.stride
    k2d = layer.kernel.reshape(out_ch, -1)
    g_cols = np.matmul(k2d.T, g.reshape(n, out_ch, ho * wo)).reshape(n, c, kh, kw, ho, wo)
    g_pad = np.zeros((n, c, h + 2 * ph, w + 2 * pw))
    # each tap adds back into the strided slice the forward pass read it
    # from; in (i, j) order, every input element sums its terms in tap order
    for i in range(kh):
        for j in range(kw):
            g_pad[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw] += g_cols[:, :, i, j]
    return g_pad[:, :, ph : ph + h, pw : pw + w]


def gradient(net: Network, x: np.ndarray, output_index: int) -> np.ndarray:
    """Gradient of output component `output_index` with respect to `x`."""
    return batch_gradient(net, np.asarray(x)[None], output_index)[0]
