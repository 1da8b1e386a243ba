"""Crossing-detection kernels for partition propagation.

These inner loops dominate runtime on wide networks; they are plain numpy.

All kernels take a batch of adjacent postimage pairs (segment i is
rows/slots i and i+1) plus the global ratio of every existing endpoint,
and return newly found crossings as ``(segment_index, global_ratio)``
arrays, sorted per segment, with ratios within MERGE_TOL of a neighbour
or of the segment bounds dropped.
"""

from __future__ import annotations

import numpy as np

#: minimum gap between retained ratios along the query line
MERGE_TOL = 1e-12


def _merge_sorted(seg, alpha, bounds, tol):
    """Drop ratios within `tol` of segment bounds or of the previous survivor.

    `seg`/`alpha` must already be sorted by (segment, ratio).
    """
    if seg.size == 0:
        return seg.astype(np.int64), alpha
    keep = (alpha - bounds[seg] > tol) & (bounds[seg + 1] - alpha > tol)
    seg, alpha = seg[keep], alpha[keep]
    if seg.size > 1 and np.any((seg[1:] == seg[:-1]) & (np.diff(alpha) <= tol)):
        kept = np.ones(seg.size, dtype=bool)
        last_seg, last_alpha = seg[0], alpha[0]
        for i in range(1, seg.size):
            if seg[i] == last_seg and alpha[i] - last_alpha <= tol:
                kept[i] = False
            else:
                last_seg, last_alpha = seg[i], alpha[i]
        seg, alpha = seg[kept], alpha[kept]
    return seg.astype(np.int64), alpha


def strict_sign_change(a, b):
    """Mask where a and b are nonzero with opposite signs."""
    return ((a < 0.0) & (b > 0.0)) | ((a > 0.0) & (b < 0.0))


def relu_crossings(post, alphas):
    """Global ratios where any component of adjacent postimage pairs crosses 0.

    Only strict sign changes count, so the crossing is found at any scale
    of the activations; a component that merely touches zero at a segment
    end does not split it.
    """
    q, r = post[:-1], post[1:]
    seg, col = np.nonzero(strict_sign_change(q, r))
    qc = q[seg, col]
    beta = -qc / (r[seg, col] - qc)
    valid = (beta > 0.0) & (beta < 1.0)
    return _global_ratios(seg[valid], beta[valid], alphas)


def _global_ratios(seg, beta, alphas):
    """Sort local ratios `beta` by (segment, ratio), map them onto the
    query line through the segment bounds in `alphas`, and merge."""
    order = np.lexsort((beta, seg))
    seg, beta = seg[order], beta[order]
    alpha = alphas[seg] + beta * (alphas[seg + 1] - alphas[seg])
    return _merge_sorted(seg, alpha, alphas, MERGE_TOL)


def _state(vals, fused):
    """Argmax over the last axis, ties to the lowest index; for the fused
    op, -1 wherever the maximum is <= 0."""
    state = vals.argmax(axis=-1)
    if fused:
        state = np.where(vals.max(axis=-1) > 0.0, state, -1)
    return state


def _window_ratios(q, r, fused):
    """Ratios in (0, 1) where the state of one window's q + t*(r-q) changes.

    A window whose state agrees at both ends has none: the max of lines
    is convex, so it is affine on the whole segment.  Otherwise the
    candidates are the strict sign-change crossings of every pair of lines
    (and of every line with zero, when fused), each pair oriented so that
    line m leads at t=0 and line o overtakes it.  A candidate is kept where
    the states at the midpoints to its sorted neighbours differ.
    """
    if _state(q, fused) == _state(r, fused):
        return []
    m, o = np.nonzero((q[:, None] > q[None, :]) & (r[:, None] < r[None, :]))
    cand = (q[o] - q[m]) / ((r[m] - q[m]) + q[o] - r[o])
    if fused:
        z = np.flatnonzero(strict_sign_change(q, r))
        cand = np.concatenate([cand, -q[z] / (r[z] - q[z])])
    cand = np.sort(cand[(cand > 0.0) & (cand < 1.0)])
    pts = np.concatenate([[0.0], cand, [1.0]])
    mids = (pts[:-1] + pts[1:]) / 2.0
    state = _state(q + mids[:, None] * (r - q), fused)
    return cand[state[:-1] != state[1:]].tolist()


def _window_crossings(qwin, rwin, alphas, fused):
    seg, beta = [], []
    for s in range(qwin.shape[0]):
        for w in range(qwin.shape[1]):
            b = _window_ratios(qwin[s, w], rwin[s, w], fused)
            seg.extend([s] * len(b))
            beta.extend(b)
    seg = np.asarray(seg, dtype=np.int64)
    return _global_ratios(seg, np.asarray(beta, dtype=np.float64), alphas)


def maxpool_crossings(qwin, rwin, alphas):
    """Global ratios where any window's argmax changes, per segment."""
    return _window_crossings(qwin, rwin, alphas, fused=False)


def relu_maxpool_crossings(qwin, rwin, alphas):
    """Like maxpool_crossings but for max clamped at zero (fused ReLU)."""
    return _window_crossings(qwin, rwin, alphas, fused=True)
