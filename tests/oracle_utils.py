"""Independent oracles and generators shared by the test modules.

Everything here deliberately avoids the engine's crossing logic: scans
sample the line densely and look at raw activation data, the conv
materializer builds its matrix by nested index arithmetic, and gradients
are checked against central finite differences.
"""

import numpy as np

from linrestrict import (
    Conv2D,
    Dense,
    Flatten,
    LineQuery,
    MaxPool,
    Network,
    ReLU,
    batch_forward,
    forward,
)
from linrestrict.network import apply_layer, pool_window_indices


def loan_network() -> Network:
    return Network(
        (2,),
        (Dense(np.array([[-1.7, 1.0], [2.0, -1.3]]), np.array([3.0, 3.0])), ReLU()),
    )


def loan_query() -> LineQuery:
    return LineQuery(np.array([20.0, 30.0]), np.array([30.0, 50.0]))


def random_dense_relu_network(
    rng, din=None, n_dense=None, widths=None, out_dim=None, bias_scale=0.5
) -> Network:
    """Dense stack with ReLU between layers (none after the last)."""
    if din is None:
        din = int(rng.integers(8, 33))
    if n_dense is None:
        n_dense = int(rng.integers(2, 5))
    if widths is None:
        widths = [int(rng.integers(8, 33)) for _ in range(n_dense - 1)]
    if out_dim is None:
        out_dim = int(rng.integers(8, 33))
    sizes = [din] + list(widths) + [out_dim]
    layers = []
    for i in range(len(sizes) - 1):
        w = rng.normal(0.0, 1.0, (sizes[i + 1], sizes[i])) / np.sqrt(sizes[i])
        b = rng.normal(0.0, bias_scale, sizes[i + 1])
        layers.append(Dense(w, b))
        if i < len(sizes) - 2:
            layers.append(ReLU())
    return Network((din,), tuple(layers))


def random_conv_pool_network(rng) -> Network:
    """Conv 3x3 (3 channels) -> ReLU -> 2x2 max pool -> dense, on 1x6x6 inputs."""
    return Network(
        (1, 6, 6),
        (
            Conv2D(rng.normal(0, 0.5, (3, 1, 3, 3)), rng.normal(0, 0.2, 3), (1, 1), (1, 1)),
            ReLU(),
            MaxPool((2, 2), (2, 2)),
            Flatten(),
            Dense(rng.normal(0, 0.5, (4, 27)), rng.normal(0, 0.2, 4)),
        ),
    )


def random_query(rng, net, scale=2.0) -> LineQuery:
    q = rng.normal(0.0, scale, net.input_shape)
    r = rng.normal(0.0, scale, net.input_shape)
    return LineQuery(q, r)


# ---------------------------------------------------------------------------
# Dense-scan oracles


def activation_patterns(net: Network, points: np.ndarray) -> np.ndarray:
    """Boolean/encoded activation state at each point, concatenated layerwise.

    ReLU layers contribute the strict positivity of each pre-activation;
    max pooling layers contribute each window's argmax index.
    """
    shapes = net.shapes
    v = points
    parts = []
    for layer, in_shape in zip(net.layers, shapes):
        if isinstance(layer, ReLU):
            parts.append((v.reshape(v.shape[0], -1) > 0).astype(np.int16))
        elif isinstance(layer, MaxPool):
            win = pool_window_indices(in_shape, layer.window, layer.stride)
            parts.append(
                v.reshape(v.shape[0], -1)[:, win].argmax(axis=2).astype(np.int16)
            )
        v = apply_layer(layer, v, in_shape)
    if not parts:
        return np.zeros((points.shape[0], 1), dtype=np.int16)
    return np.concatenate(parts, axis=1)


def scan_pattern_changes(net, query, n=10**6, chunk=250_000) -> np.ndarray:
    """Ratios (interval midpoints) where the activation pattern changes
    between adjacent samples of an n-point uniform scan."""
    alphas = np.linspace(0.0, 1.0, n)
    q = query.start.reshape(-1)
    r = query.end.reshape(-1)
    change = np.zeros(n - 1, dtype=bool)
    prev = None
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        pts = (q + alphas[s:e, None] * (r - q)).reshape((-1,) + query.start.shape)
        pat = activation_patterns(net, pts)
        if prev is not None:
            change[s - 1] = np.any(pat[0] != prev)
        change[s : e - 1] = np.any(pat[1:] != pat[:-1], axis=1)
        prev = pat[-1]
    idx = np.nonzero(change)[0]
    return (alphas[idx] + alphas[idx + 1]) / 2.0


def scan_argmax_changes(net, query, n=10**6, chunk=250_000) -> np.ndarray:
    """Ratios where the output argmax changes between adjacent scan samples."""
    alphas = np.linspace(0.0, 1.0, n)
    q = query.start.reshape(-1)
    r = query.end.reshape(-1)
    change = np.zeros(n - 1, dtype=bool)
    prev = None
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        pts = (q + alphas[s:e, None] * (r - q)).reshape((-1,) + query.start.shape)
        cls = batch_forward(net, pts).reshape(e - s, -1).argmax(axis=1)
        if prev is not None:
            change[s - 1] = cls[0] != prev
        change[s : e - 1] = cls[1:] != cls[:-1]
        prev = cls[-1]
    idx = np.nonzero(change)[0]
    return (alphas[idx] + alphas[idx + 1]) / 2.0


def scan_window_state_changes(q, r, n=10**6, clamp=False) -> np.ndarray:
    """Ratios where one window's argmax (or clamped-max state) changes.

    With clamp=True the tracked state is the argmax while the maximum is
    positive and a single "flat" state otherwise, matching max(.., 0).
    """
    ts = np.linspace(0.0, 1.0, n)
    vals = q[None, :] + ts[:, None] * (r - q)[None, :]
    state = vals.argmax(axis=1)
    if clamp:
        state = np.where(vals.max(axis=1) > 0, state, -1)
    idx = np.nonzero(state[1:] != state[:-1])[0]
    return (ts[idx] + ts[idx + 1]) / 2.0


def scan_window_union_changes(qwin, rwin, n=10**6, clamp=False, chunk=200_000):
    """Union over windows of state-change ratios, scanned in one pass.

    qwin/rwin have shape (n_windows, window_size); the state per window is
    as in scan_window_state_changes.
    """
    ts = np.linspace(0.0, 1.0, n)
    delta = rwin - qwin
    change = np.zeros(n - 1, dtype=bool)
    prev = None
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        vals = qwin[None] + ts[s:e, None, None] * delta[None]  # (b, n_win, ws)
        state = vals.argmax(axis=2)
        if clamp:
            state = np.where(vals.max(axis=2) > 0, state, -1)
        if prev is not None:
            change[s - 1] = np.any(state[0] != prev)
        change[s : e - 1] = np.any(state[1:] != state[:-1], axis=1)
        prev = state[-1]
    idx = np.nonzero(change)[0]
    return (ts[idx] + ts[idx + 1]) / 2.0


def match_within(found: np.ndarray, expected: np.ndarray, tol: float) -> bool:
    """True iff every value in `found` is within `tol` of some `expected`."""
    if found.size == 0:
        return True
    if expected.size == 0:
        return False
    j = np.searchsorted(expected, found)
    lo = np.abs(found - expected[np.clip(j - 1, 0, expected.size - 1)])
    hi = np.abs(found - expected[np.clip(j, 0, expected.size - 1)])
    return bool(np.all(np.minimum(lo, hi) <= tol))


# ---------------------------------------------------------------------------
# Gradient and convolution oracles


def finite_difference_gradient(net, x, output_index, h=1e-5) -> np.ndarray:
    flat = x.reshape(-1)
    g = np.zeros_like(flat)
    for i in range(flat.size):
        hi = flat.copy()
        lo = flat.copy()
        hi[i] += h
        lo[i] -= h
        fhi = forward(net, hi.reshape(x.shape)).reshape(-1)[output_index]
        flo = forward(net, lo.reshape(x.shape)).reshape(-1)[output_index]
        g[i] = (fhi - flo) / (2 * h)
    return g.reshape(x.shape)


def off_boundary_point(net, rng, scale=2.0, margin=1e-3):
    """Random input whose pre-activations are all safely away from zero
    and whose pooling windows have a clear argmax."""
    shapes = net.shapes
    for _ in range(200):
        x = rng.normal(0.0, scale, net.input_shape)
        v = x[None]
        ok = True
        for layer, in_shape in zip(net.layers, shapes):
            if isinstance(layer, ReLU):
                if np.abs(v).min() < margin:
                    ok = False
                    break
            elif isinstance(layer, MaxPool):
                win = pool_window_indices(in_shape, layer.window, layer.stride)
                g = v.reshape(1, -1)[:, win][0]
                if g.shape[1] > 1:
                    top2 = np.sort(g, axis=1)[:, -2:]
                    if np.min(top2[:, 1] - top2[:, 0]) < margin:
                        ok = False
                        break
            v = apply_layer(layer, v, in_shape)
        if ok:
            return x
    raise RuntimeError("could not find an off-boundary point")


def conv_as_matrix(layer: Conv2D, in_shape) -> tuple[np.ndarray, np.ndarray]:
    """Explicit dense materialization of a convolution, by index arithmetic."""
    c, h, w = in_shape
    out_ch, in_ch, kh, kw = layer.kernel.shape
    sh, sw = layer.stride
    ph, pw = layer.padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    mat = np.zeros((out_ch * ho * wo, c * h * w))
    bias = np.zeros(out_ch * ho * wo)
    for o in range(out_ch):
        for oi in range(ho):
            for oj in range(wo):
                row = (o * ho + oi) * wo + oj
                bias[row] = layer.bias[o]
                for ci in range(in_ch):
                    for ki in range(kh):
                        for kj in range(kw):
                            ii = oi * sh + ki - ph
                            jj = oj * sw + kj - pw
                            if 0 <= ii < h and 0 <= jj < w:
                                col = (ci * h + ii) * w + jj
                                mat[row, col] = layer.kernel[o, ci, ki, kj]
    return mat, bias


def small_int_array(rng, shape, lo=-3, hi=4) -> np.ndarray:
    """Integer-valued float array; keeps float ops exact for equality tests."""
    return rng.integers(lo, hi, size=shape).astype(np.float64)
