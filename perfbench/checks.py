"""Output checks for one query, made outside the timed region.

Each check returns a list of problems; an empty list means the output is
correct.  The reference is always direct evaluation of the network with
``batch_forward`` (or ``forward``, where a search defines its output gap
that way), never the partition being checked.  Tolerances are relative to
the magnitude of the values they compare.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from linrestrict import attributions, exactline
from linrestrict.network import batch_forward, forward

#: interpolated vs forward outputs, relative to the largest output magnitude
OUTPUT_RTOL = 1e-9
#: exact-IG completeness gap, relative to |F(x) - F(baseline)|
IG_GAP_RTOL = 1e-9


def _close(got, want, rtol) -> float | None:
    """Worst error if it exceeds rtol times the largest |want|, else None."""
    err = float(np.abs(got - want).max(initial=0.0))
    return err if err > rtol * float(np.abs(want).max(initial=0.0)) else None


def check_partition(net, part) -> list[str]:
    """Structure and piece-midpoint interpolation against the forward output.

    A wrong endpoint image or a missed kink moves the interpolated value at
    the midpoint of a piece next to it.
    """
    try:
        exactline.check_partitioned_line(part)
    except AssertionError as exc:
        return [f"partition invariant: {exc}"]
    pre = part.preimages
    post = part.postimages
    mid_out = batch_forward(net, (pre[:-1] + pre[1:]) / 2.0)
    err = _close((post[:-1] + post[1:]) / 2.0, mid_out, OUTPUT_RTOL)
    if err is not None:
        return [f"midpoint interpolation off the forward output by {err:.3g}"]
    return []


def check_segments(net, line, segments) -> list[str]:
    """Decision segments tile [0, 1] and carry the forward argmax class."""
    if not segments or segments[0].alpha_lo != 0.0 or segments[-1].alpha_hi != 1.0:
        return ["decision segments do not span [0, 1]"]
    for a, b in zip(segments[:-1], segments[1:]):
        if a.alpha_hi != b.alpha_lo or a.class_index == b.class_index:
            return [f"decision segments not maximal and contiguous at {a.alpha_hi}"]
    mids = np.stack([line.point_at((s.alpha_lo + s.alpha_hi) / 2.0) for s in segments])
    y = batch_forward(net, mids).reshape(len(segments), -1)
    for s, row in zip(segments, y):
        # a midpoint can sit within rounding of a tie; accept any class
        # that is maximal up to the tolerance
        slack = OUTPUT_RTOL * float(np.abs(row).max())
        if row[s.class_index] < row.max() - slack:
            return [f"segment class {s.class_index} is not the forward argmax "
                    f"{int(row.argmax())} at ratio {(s.alpha_lo + s.alpha_hi) / 2.0}"]
    return []


def check_ig(net, baseline, x, k, report) -> list[str]:
    """Exact IG attributions sum to F(x) - F(baseline)."""
    y = batch_forward(net, np.stack([baseline, x])).reshape(2, -1)
    delta = float(y[1, k] - y[0, k])
    gap = abs(float(report.values.sum()) - delta)
    if gap > IG_GAP_RTOL * abs(delta):
        return [f"exact IG completeness gap {gap:.3g} against |dF| {abs(delta):.3g}"]
    return []


def check_search(net, baseline, x, k, scheme, tol, stability, cap, exact, result):
    """The returned m passes its stability window and m - 1 does not.

    A search that hit its cap must have a failing window at the cap.
    """

    def ok(m):
        approx = attributions.riemann_ig(net, baseline, x, k, m, scheme)
        return attributions.relative_error(approx, exact) <= tol

    def window_ok(m):
        return all(ok(mp) for mp in range(m, m + stability + 1))

    m = result.m
    if m is None:
        return [] if not window_ok(cap) else [f"{scheme} search hit its cap, m={cap} passes"]
    if not window_ok(m):
        return [f"{scheme} search returned m={m} whose window fails"]
    if m > 1 and ok(m - 1):
        return [f"{scheme} search returned m={m} but m-1 passes"]
    return []


def check_m_tilde(net, baseline, x, k, tol, cap, result) -> list[str]:
    """The left-sum completeness gap is within tol at m and not at m - 1."""
    delta = float(forward(net, x).reshape(-1)[k] - forward(net, baseline).reshape(-1)[k])

    def ok(m):
        rep = attributions.riemann_ig(net, baseline, x, k, m, "left")
        return rep.completeness_gap_abs <= tol * abs(delta)

    m = result.m
    if m is None:
        return [] if not ok(cap) else [f"m~ search hit its cap, m={cap} passes"]
    if not ok(m):
        return [f"m~ search returned m={m} that fails"]
    if m > 1 and ok(m - 1):
        return [f"m~ search returned m={m} but m-1 passes"]
    return []


def check_density(report, start, end, expected_partitions=None) -> list[str]:
    length = float(np.linalg.norm((end - start).ravel()))
    if report.length != length or report.density != report.partition_count / length:
        return ["density report inconsistent with its line"]
    if expected_partitions is not None and report.partition_count != expected_partitions:
        return [f"density counts {report.partition_count} partitions, the checked "
                f"canonical partition has {expected_partitions}"]
    return []


# ---------------------------------------------------------------------------
# Repeated queries


def fingerprint(obj) -> str:
    """Digest of an output's exact bits, so repeats of a checked query can be
    compared against its first, fully checked, output."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(key.encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _feed(h, item)
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        _feed(h, vars(obj))
    else:
        h.update(repr(obj).encode())
