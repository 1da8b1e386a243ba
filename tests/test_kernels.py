import numpy as np
import pytest

from linrestrict import Dense, LineQuery, MaxPool, Network, ReLU, _kernels
from linrestrict import exactline_network, forward, interpolate_output
from oracle_utils import match_within, scan_window_union_changes


def _random_case(rng, n, d):
    post = rng.normal(0.0, 1.0, (n, d))
    # sprinkle exact zeros and constant components to hit the guards
    post[rng.random((n, d)) < 0.05] = 0.0
    post[:, 0] = 1.5
    alphas = np.sort(rng.uniform(0.0, 1.0, n))
    alphas[0], alphas[-1] = 0.0, 1.0
    return post, alphas


def _window_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    qwin = rng.normal(0.0, 1.0, (n - 1, 5, 7))
    rwin = rng.normal(0.0, 1.0, (n - 1, 5, 7))
    # force a tie at the start and a flat window
    qwin[0, 0, :2] = qwin[0, 0, 0]
    rwin[0, 1] = qwin[0, 1]
    alphas = np.sort(rng.uniform(0.0, 1.0, n))
    alphas[0], alphas[-1] = 0.0, 1.0
    return qwin, rwin, alphas


def _assert_sorted_and_merged(seg, alpha, alphas):
    """Sorted by segment, strictly inside each segment, and strictly
    increasing within it: no ratio repeats, none sits on a bound."""
    assert np.all(np.diff(seg) >= 0)
    same = seg[1:] == seg[:-1]
    assert np.all(np.diff(alpha)[same] > 0.0)
    assert np.all(alpha > alphas[seg])
    assert np.all(alphas[seg + 1] > alpha)


def test_merge_keeps_distinct_ratios_and_drops_coincident_ones():
    bounds = np.array([0.0, 0.5, 1.0])
    up = np.nextafter(0.25, 1.0)
    seg = np.array([0, 0, 0, 0, 0, 1, 1, 1])
    alpha = np.array([0.0, 0.25, 0.25, up, 0.5, 0.5, 0.75, 1.0])
    seg, alpha = _kernels._merge_sorted(seg, alpha, bounds)
    assert seg.tolist() == [0, 0, 1]
    assert alpha.tolist() == [0.25, up, 0.75]


def test_outputs_sorted_and_merged():
    rng = np.random.default_rng(9)
    post, alphas = _random_case(rng, 40, 25)
    seg, alpha = _kernels.relu_crossings(post, alphas)
    _assert_sorted_and_merged(seg, alpha, alphas)

    for seed in range(100, 105):
        qwin, rwin, alphas = _window_case(seed)
        for fn, clamp in (("maxpool_crossings", False), ("relu_maxpool_crossings", True)):
            seg, alpha = getattr(_kernels, fn)(qwin, rwin, alphas)
            _assert_sorted_and_merged(seg, alpha, alphas)
            # every found ratio is a state change of the scanned windows, and
            # every scanned change is found
            for s in range(qwin.shape[0]):
                lo, hi = alphas[s], alphas[s + 1]
                found = (alpha[seg == s] - lo) / (hi - lo)
                expected = scan_window_union_changes(qwin[s], rwin[s], n=10**5, clamp=clamp)
                assert match_within(found, expected, 2e-5), (seed, fn, s)
                assert match_within(expected, found, 2e-5), (seed, fn, s)


@pytest.mark.parametrize("scale", [1e-13, 1e-200])
def test_relu_kink_found_at_small_scale(scale):
    net = Network((1,), (Dense([[1.0]], [0.0]), ReLU(), Dense([[1.0]], [0.0])))
    query = LineQuery(np.array([-scale]), np.array([scale]))
    part = exactline_network(net, query)
    assert np.array_equal(part.alphas, [0.0, 0.5, 1.0])
    for t in (0.25, 0.5, 0.75):
        want = forward(net, query.point_at(t))
        np.testing.assert_allclose(interpolate_output(part, t), want, rtol=1e-12, atol=0.0)


_MEETING_LINES = [
    # two lines tie at t = 0 and the steeper one leads after it
    ([1.0, 1.0, 0.0], [0.0, 2.0, 3.0]),
    # three lines meet at t = 0.5
    ([1.0, 0.75, 0.0], [0.0, 0.25, 1.0]),
]


@pytest.mark.parametrize("q, r", _MEETING_LINES)
def test_window_crossing_with_meeting_lines(q, r):
    for fn in (_kernels.maxpool_crossings, _kernels.relu_maxpool_crossings):
        seg, alpha = fn(np.array([[q]]), np.array([[r]]), np.array([0.0, 1.0]))
        assert np.array_equal(seg, [0]) and np.array_equal(alpha, [0.5])
    net = Network((1, 1, 3), (MaxPool((1, 3), (1, 1)),))
    query = LineQuery(np.reshape(q, (1, 1, 3)), np.reshape(r, (1, 1, 3)))
    part = exactline_network(net, query)
    for t in (0.25, 0.5, 0.75):
        want = forward(net, query.point_at(t))
        np.testing.assert_allclose(interpolate_output(part, t), want, rtol=1e-12, atol=0.0)


def _zero_slot_cases():
    """The meeting-lines cases, then 400 seeded calls over window sizes
    1-8 and 1-4 windows; every odd call holds half-integers, so its windows
    tie exactly, and every call holds some -0.0 entries."""
    for q, r in _MEETING_LINES:
        yield np.array([[q]]), np.array([[r]]), np.array([0.0, 1.0])
    for seed in range(400):
        rng = np.random.default_rng(seed)
        size, n_windows = 1 + (seed // 2) % 8, 1 + (seed // 16) % 4
        shape = (2 * int(rng.integers(1, 6)), n_windows, size)
        if seed % 2:
            vals = rng.integers(-4, 5, shape) / 2.0
        else:
            vals = rng.normal(0.0, 1.0, shape)
        vals[rng.random(shape) < 0.1] = -0.0
        alphas = np.sort(rng.uniform(0.0, 1.0, shape[0] // 2 + 1))
        alphas[0], alphas[-1] = 0.0, 1.0
        yield vals[::2], vals[1::2], alphas


def test_fused_window_rule_is_maxpool_with_a_zero_slot():
    # max(0, max(w)) is the max over w with one more slot that holds 0;
    # ties go to the lowest index, so the zero slot stands for "clamped"
    def pad(w):
        return np.pad(w, [(0, 0), (0, 0), (1, 0)])

    n = 0
    for q, r, alphas in _zero_slot_cases():
        seg, alpha = _kernels.relu_maxpool_crossings(q, r, alphas)
        pseg, palpha = _kernels.maxpool_crossings(pad(q), pad(r), alphas)
        assert np.array_equal(seg, pseg), n
        assert alpha.tobytes() == palpha.tobytes(), n
        n += 1
    assert n == 402
