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

#: window lines whose slopes differ by no more than this never cross
#: in the argmax follower
DENOM_GUARD = 1e-12
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


def relu_crossings(post, alphas):
    """Global ratios where any component of adjacent postimage pairs crosses 0.

    Only strict sign changes count, so the crossing is found at any scale
    of the activations; a component that merely touches zero at a segment
    end does not split it.
    """
    q, r = post[:-1], post[1:]
    seg, col = np.nonzero(((q < 0.0) & (r > 0.0)) | ((q > 0.0) & (r < 0.0)))
    qc = q[seg, col]
    beta = -qc / (r[seg, col] - qc)
    valid = (beta > 0.0) & (beta < 1.0)
    seg, beta = seg[valid], beta[valid]
    order = np.lexsort((beta, seg))
    seg, beta = seg[order], beta[order]
    alpha = alphas[seg] + beta * (alphas[seg + 1] - alphas[seg])
    return _merge_sorted(seg, alpha, alphas, MERGE_TOL)


def _follow_argmax(q, r):
    """Ratios in (0,1) where the running argmax of q + t*(r-q) changes.

    Also returns the visited argmax chain (entry j is active on the span
    between emission j and j+1) and a coverage flag.  Ties take the
    lowest index.  The index jumped from is excluded from the next
    candidate set: two lines cross only once, but the reverse crossing
    recomputed in the opposite operand order can land an ulp later and
    would bounce the walk onto a non-maximal line.  If the walk still
    ends on a line that is not maximal at t=1, coverage is False and the
    caller must fall back to the pairwise-face method.
    """
    ws = q.shape[0]
    idx = np.arange(ws)
    m = int(np.argmax(q))
    m_end = int(np.argmax(r))
    prev = -1
    cur = 0.0
    betas = []
    chain = [m]
    # each accepted jump consumes one pairwise line crossing, so ws*ws
    # bounds the iterations
    for _ in range(ws * ws + 1):
        if m == m_end:
            break
        den = (r[m] - q[m]) + q - r
        ok = (np.abs(den) > DENOM_GUARD) & (idx != m) & (idx != prev)
        cand = np.where(ok, (q - q[m]) / np.where(ok, den, 1.0), np.inf)
        cand = np.where((cand > cur) & (cand < 1.0), cand, np.inf)
        i = int(np.argmin(cand))
        if not np.isfinite(cand[i]):
            break
        cur = float(cand[i])
        prev = m
        m = i
        betas.append(cur)
        chain.append(m)
    covered = m == m_end or r[m] == r[m_end]
    return betas, chain, covered


def _pairwise_ratios(q, r, with_zero):
    """Sound superset of argmax-change ratios: strict sign-change crossings
    of every component pair (and of each component with zero, for the
    clamped variant)."""
    out = []
    ws = q.shape[0]
    for i in range(ws):
        for j in range(i + 1, ws):
            a = q[i] - q[j]
            b = r[i] - r[j]
            if (a > 0.0 and b < 0.0) or (a < 0.0 and b > 0.0):
                out.append(a / (a - b))
        if with_zero and ((q[i] > 0.0 and r[i] < 0.0) or (q[i] < 0.0 and r[i] > 0.0)):
            out.append(-q[i] / (r[i] - q[i]))
    return out


def _relu_max_emissions(q, r, betas, chain):
    """Crossings of max(.., 0) applied on top of the followed maximum.

    Argmax changes are kept only where they kink the clamped maximum;
    ratios where the maximum value crosses zero are added.
    """
    bounds = [0.0] + betas + [1.0]
    out = []
    for j, b in enumerate(betas):
        ml, mr = chain[j], chain[j + 1]
        sl = r[ml] - q[ml]
        sr = r[mr] - q[mr]
        val = q[ml] + b * sl
        if val > 0.0:
            dl, dr = sl, sr
        elif val < 0.0:
            dl, dr = 0.0, 0.0
        else:
            dl = sl if sl < 0.0 else 0.0
            dr = sr if sr > 0.0 else 0.0
        if dl != dr:
            out.append(b)
    for j, m in enumerate(chain):
        s = r[m] - q[m]
        v0 = q[m] + bounds[j] * s
        v1 = q[m] + bounds[j + 1] * s
        if (v0 > 0.0 and v1 < 0.0) or (v0 < 0.0 and v1 > 0.0):
            out.append(-q[m] / s)
    return out


def _window_crossings(qwin, rwin, alphas, fused):
    n_seg = qwin.shape[0]
    seg_out = []
    alpha_out = []
    for s in range(n_seg):
        lo, hi = alphas[s], alphas[s + 1]
        betas_all = []
        for w in range(qwin.shape[1]):
            betas, chain, covered = _follow_argmax(qwin[s, w], rwin[s, w])
            if not covered:
                betas = _pairwise_ratios(qwin[s, w], rwin[s, w], fused)
            elif fused:
                betas = _relu_max_emissions(qwin[s, w], rwin[s, w], betas, chain)
            betas_all.extend(betas)
        for b in sorted(betas_all):
            seg_out.append(s)
            alpha_out.append(lo + b * (hi - lo))
    seg = np.asarray(seg_out, dtype=np.int64)
    alpha = np.asarray(alpha_out, dtype=np.float64)
    return _merge_sorted(seg, alpha, alphas, MERGE_TOL)


def maxpool_crossings(qwin, rwin, alphas):
    """Global ratios where any window's argmax changes, per segment."""
    return _window_crossings(qwin, rwin, alphas, fused=False)


def relu_maxpool_crossings(qwin, rwin, alphas):
    """Like maxpool_crossings but for max clamped at zero (fused ReLU)."""
    return _window_crossings(qwin, rwin, alphas, fused=True)
