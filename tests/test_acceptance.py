"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria with runtime
budgets time the operation after a warm-up query, so first-call costs
(page faults, lazy imports) are not charged to the algorithm.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from linrestrict import (
    Conv2D,
    Dense,
    Flatten,
    LineQuery,
    MaxPool,
    Network,
    ReLU,
    batch_forward,
    canonicalize,
    decision_segments,
    exact_ig,
    exactline_maxpool,
    exactline_network,
    exactline_pwl_hyperplanes,
    exactline_relu_maxpool,
    forward,
    gradient,
    partition_density,
    gradient_deviation,
    relative_error,
    riemann_ig,
    samples_to_tolerance,
)
from linrestrict.exactline import PartitionedLine
from linrestrict.network import apply_layer, pool_window_indices
from oracle_utils import (
    activation_patterns,
    loan_network,
    loan_query,
    match_within,
    random_dense_relu_network,
    scan_argmax_changes,
    scan_pattern_changes,
    scan_window_union_changes,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {num:2d}: FAIL — {label}", flush=True)
        raise
    print(f"\nCRITERION {num:2d}: PASS — {label}", flush=True)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # fault in working memory before anything is timed
    rng = np.random.default_rng(1)
    warm = Network(
        (2, 12, 12),
        (
            Conv2D(rng.normal(0, 0.4, (8, 2, 3, 3)), rng.normal(0, 0.2, 8), (1, 1), (1, 1)),
            ReLU(),
            Conv2D(rng.normal(0, 0.3, (8, 8, 3, 3)), rng.normal(0, 0.2, 8), (1, 1), (1, 1)),
            ReLU(),
            MaxPool((2, 2), (2, 2)),
            Flatten(),
            Dense(rng.normal(0, 0.1, (4, 288)), rng.normal(0, 0.1, 4)),
        ),
    )
    q = LineQuery(rng.normal(0, 1, (2, 12, 12)), rng.normal(0, 1, (2, 12, 12)))
    exactline_network(warm, q)
    exactline_network(warm, q, fuse_relu_maxpool=False)


@pytest.fixture(scope="module")
def networks_8_32():
    """The criterion-2 population: 200 ReLU/affine nets with line queries."""
    rng = np.random.default_rng(20240101)
    out = []
    for _ in range(200):
        net = random_dense_relu_network(rng)
        q = rng.normal(0.0, 2.0, net.input_shape)
        r = rng.normal(0.0, 2.0, net.input_shape)
        out.append((net, LineQuery(q, r), int(rng.integers(0, net.output_size))))
    return out


def test_criterion_1_worked_example():
    with criterion(1, "worked example reproduced exactly, < 10 ms"):
        net = loan_network()
        query = loan_query()
        exactline_network(net, query)  # warm
        t0 = time.perf_counter()
        part = exactline_network(net, query)
        elapsed = time.perf_counter() - t0

        assert part.n_endpoints == 4
        assert np.all(np.abs(part.alphas - [0.0, 1 / 3, 2 / 3, 1.0]) <= 1e-9)
        want_points = np.array(
            [[20.0, 30.0], [70 / 3, 110 / 3], [80 / 3, 130 / 3], [30.0, 50.0]]
        )
        assert np.all(np.abs(part.preimages - want_points) <= 1e-9)

        # per-partition jacobians of the three closed-form pieces
        jacobians = [
            [[0.0, 0.0], [2.0, -1.3]],
            [[-1.7, 1.0], [2.0, -1.3]],
            [[-1.7, 1.0], [0.0, 0.0]],
        ]
        for i, want in enumerate(jacobians):
            mid = query.point_at((part.alphas[i] + part.alphas[i + 1]) / 2.0)
            got = np.stack([gradient(net, mid, k) for k in (0, 1)])
            assert np.all(np.abs(got - want) <= 1e-9)

        assert elapsed < 0.010, f"took {elapsed * 1e3:.2f} ms"


def _pattern_flips_at(net, query, alpha, eps=5e-7):
    pts = np.stack([query.point_at(max(alpha - eps, 0.0)),
                    query.point_at(min(alpha + eps, 1.0))])
    pat = activation_patterns(net, pts)
    return bool(np.any(pat[0] != pat[1]))


def test_criterion_2_oracle_equivalence(networks_8_32):
    with criterion(2, "scan agreement + interpolation on 200 random nets, < 5 min"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        for net, query, _ in networks_8_32:
            part = exactline_network(net, query)
            detected = scan_pattern_changes(net, query)
            # every detected change sits next to a computed endpoint
            assert match_within(detected, part.alphas, 1e-6)
            # every computed interior endpoint is a real pattern change at
            # scan resolution; pairs closer than the 1e-6 grid are checked
            # by a pinpoint two-sample probe around the endpoint
            interior = part.alphas[1:-1]
            if interior.size:
                j = np.searchsorted(detected, interior)
                lo = np.abs(interior - detected[np.clip(j - 1, 0, max(detected.size - 1, 0))]) if detected.size else np.full(interior.size, np.inf)
                hi = np.abs(interior - detected[np.clip(j, 0, max(detected.size - 1, 0))]) if detected.size else np.full(interior.size, np.inf)
                unmatched = interior[np.minimum(lo, hi) > 1e-6]
                for a in unmatched:
                    assert _pattern_flips_at(net, query, a), f"endpoint {a} not a pattern change"

            # interpolation error within every partition
            flat = part.postimages.reshape(part.n_endpoints, -1)
            ts = rng.uniform(0.0, 1.0, (part.n_partitions, 32))
            alphas = part.alphas[:-1, None] + ts * np.diff(part.alphas)[:, None]
            pts = query.start[None] + alphas.reshape(-1, 1) * (query.end - query.start)[None]
            outs = batch_forward(net, pts).reshape(part.n_partitions, 32, -1)
            lerp = flat[:-1, None, :] + ts[:, :, None] * (flat[1:] - flat[:-1])[:, None, :]
            err = np.abs(outs - lerp).max(axis=2)
            bound = 1e-6 * (1.0 + np.abs(outs).max(axis=2))
            assert np.all(err <= bound)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"took {elapsed:.1f} s"


def _canonical_ratios(ratios, images_at):
    alphas = np.concatenate([[0.0], ratios, [1.0]])
    post = np.stack([images_at(a) for a in alphas])
    fake = LineQuery(np.zeros(1), np.ones(1))
    p = PartitionedLine(fake, alphas, post, np.zeros(alphas.size, dtype=np.int64))
    return canonicalize(p).alphas


def test_criterion_3_maxpool_routes():
    with criterion(3, "pooling vs hyperplane routes and argmax scans, < 1 min"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(31)
        geoms = [
            ((1, 1, 2), (1, 2), (1, 1)),
            ((1, 1, 5), (1, 5), (1, 1)),
            ((1, 2, 2), (2, 2), (1, 1)),
            ((1, 3, 3), (2, 2), (1, 1)),
            ((2, 4, 4), (2, 2), (2, 2)),
            ((3, 4, 4), (2, 3), (1, 2)),
            ((1, 6, 6), (3, 3), (3, 3)),
        ]
        for case in range(100):
            in_shape, window, stride = geoms[case % len(geoms)]
            pool = MaxPool(window, stride)
            d = int(np.prod(in_shape))
            q = rng.normal(0.0, 1.0, d)
            r = rng.normal(0.0, 1.0, d)
            win = pool_window_indices(in_shape, window, stride)

            normals, offsets = [], []
            znormals, zoffsets = [], []
            for row in win:
                for a in range(row.size):
                    for b in range(a + 1, row.size):
                        n = np.zeros(d)
                        n[row[a]], n[row[b]] = 1.0, -1.0
                        normals.append(n)
                        offsets.append(0.0)
                    n = np.zeros(d)
                    n[row[a]] = 1.0
                    znormals.append(n)
                    zoffsets.append(0.0)

            def pool_out(a, fused=False):
                v = (q + a * (r - q)).reshape((1,) + in_shape)
                out = apply_layer(pool, v, in_shape)[0].reshape(-1)
                return np.maximum(out, 0.0) if fused else out

            # plain pooling: window kernel vs pairwise-face hyperplanes
            follow = exactline_maxpool(q, r, pool, in_shape)
            planes = exactline_pwl_hyperplanes(np.array(normals), np.array(offsets), q, r)
            ca = _canonical_ratios(follow, pool_out)
            cb = _canonical_ratios(planes, pool_out)
            assert ca.shape == cb.shape and np.all(np.abs(ca - cb) <= 1e-9)

            # fused variant: add the zero faces on the hyperplane side
            fused = exactline_relu_maxpool(q, r, pool, in_shape)
            fplanes = exactline_pwl_hyperplanes(
                np.array(normals + znormals), np.array(offsets + zoffsets), q, r
            )
            fa = _canonical_ratios(fused, lambda a: pool_out(a, fused=True))
            fb = _canonical_ratios(fplanes, lambda a: pool_out(a, fused=True))
            assert fa.shape == fb.shape and np.all(np.abs(fa - fb) <= 1e-9)

            # dense argmax scans over all windows at once; matching
            # tolerance follows the scan grid spacing
            n_scan, scan_tol = 250_000, 5e-6
            plain_truth = scan_window_union_changes(q[win], r[win], n=n_scan)
            fused_truth = scan_window_union_changes(q[win], r[win], n=n_scan, clamp=True)
            assert match_within(plain_truth, np.concatenate([[0.0], follow, [1.0]]), scan_tol)
            assert match_within(fused_truth, np.concatenate([[0.0], fused, [1.0]]), scan_tol)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_4_ig_completeness():
    with criterion(4, "exact attribution completeness on 100 random nets"):
        net1d = Network((1,), (ReLU(),))
        rep = exact_ig(net1d, np.array([-1.0]), np.array([1.0]), 0)
        assert rep.values.tolist() == [1.0]

        rng = np.random.default_rng(41)
        for _ in range(100):
            net = random_dense_relu_network(rng)
            bl = rng.normal(0.0, 2.0, net.input_shape)
            x = rng.normal(0.0, 2.0, net.input_shape)
            k = int(rng.integers(0, net.output_size))
            rep = exact_ig(net, bl, x, k)
            delta = forward(net, x).reshape(-1)[k] - forward(net, bl).reshape(-1)[k]
            if delta != 0.0:
                assert rep.completeness_gap_rel <= 1e-6
            else:
                assert rep.completeness_gap_abs <= 1e-9


def test_criterion_5_riemann_convergence(networks_8_32):
    with criterion(5, "sampled-attribution error bounded by partitions/samples"):
        m = 100_000
        skipped = 0
        for net, query, k in networks_8_32:
            ex = exact_ig(net, query.start, query.end, k)
            if np.abs(ex.values).sum() < 1e-9:
                skipped += 1
                continue
            bound = 10.0 * ex.partitions_used / m
            for scheme in ("left", "right", "trapezoid"):
                rep = riemann_ig(net, query.start, query.end, k, m, scheme)
                assert relative_error(rep, ex) <= bound, scheme
        assert skipped <= 5


def test_criterion_6_trapezoid_beats_left():
    with criterion(6, "trapezoid needs >= 10% fewer samples on average, < 10 min"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(61)
        lefts, traps = [], []
        n_nets = 0
        while n_nets < 50:
            din = int(rng.integers(8, 33))
            n_hidden = int(rng.integers(2, 4))  # 3 or 4 dense layers in total
            widths = [int(rng.integers(32, 65)) for _ in range(n_hidden)]
            out_dim = int(rng.integers(2, 11))
            net = random_dense_relu_network(
                rng, din=din, n_dense=n_hidden + 1, widths=widths, out_dim=out_dim
            )
            bl = rng.normal(0.0, 1.0, din)
            x = rng.normal(0.0, 1.0, din)
            k = int(rng.integers(0, out_dim))
            ex = exact_ig(net, bl, x, k)
            if np.abs(ex.values).sum() < 1e-9:
                continue
            n_nets += 1
            ml = samples_to_tolerance(net, bl, x, k, "left").m
            mt = samples_to_tolerance(net, bl, x, k, "trapezoid").m
            if ml is not None and mt is not None:
                lefts.append(ml)
                traps.append(mt)
        assert len(lefts) >= 40  # outliers beyond the cap are dropped
        mean_left, mean_trap = np.mean(lefts), np.mean(traps)
        assert mean_trap < mean_left
        reduction = 1.0 - mean_trap / mean_left
        assert reduction >= 0.10, f"reduction {reduction:.1%}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"took {elapsed:.1f} s"


def test_criterion_7_closed_form_sample_counts():
    with criterion(7, "1-D example sample counts equal 40 (left) and 20 (trapezoid)"):
        net = Network((1,), (ReLU(),))
        bl, x = np.array([-1.0]), np.array([1.0])
        left = samples_to_tolerance(net, bl, x, 0, "left", tol=0.05, stability=5).m
        trap = samples_to_tolerance(net, bl, x, 0, "trapezoid", tol=0.05, stability=5).m
        # Stated expectation; see the decisions ledger: under the smallest-m
        # definition these values are unreachable because the window one
        # step earlier also passes (odd-m errors are strictly smaller).
        assert left == 40, f"left-sum search returned {left}"
        assert trap == 20, f"trapezoid search returned {trap}"


def test_criterion_8_decision_segments():
    with criterion(8, "class boundaries exact on the worked example and 50 nets"):
        segs = decision_segments(loan_network(), loan_query())
        assert len(segs) == 2
        assert abs(segs[0].alpha_hi - 5.0 / 9.0) <= 1e-9
        assert [s.class_index for s in segs] == [1, 0]

        rng = np.random.default_rng(81)
        for _ in range(50):
            net = random_dense_relu_network(rng, out_dim=int(rng.integers(3, 6)))
            query = LineQuery(
                rng.normal(0.0, 2.0, net.input_shape),
                rng.normal(0.0, 2.0, net.input_shape),
            )
            segs = decision_segments(net, query)
            assert segs[0].alpha_lo == 0.0 and segs[-1].alpha_hi == 1.0
            for a, b in zip(segs, segs[1:]):
                assert a.alpha_hi == b.alpha_lo and a.class_index != b.class_index
            boundaries = np.array([s.alpha_hi for s in segs[:-1]])
            detected = scan_argmax_changes(net, query)
            assert match_within(detected, boundaries, 1e-6)
            if boundaries.size:
                j = np.searchsorted(detected, boundaries) if detected.size else None
                for a in boundaries:
                    near = detected.size and np.min(np.abs(detected - a)) <= 1e-6
                    if not near:
                        # boundary pair closer than the scan grid: probe it
                        lo = batch_forward(net, query.point_at(max(a - 5e-7, 0.0))[None])
                        hi = batch_forward(net, query.point_at(min(a + 5e-7, 1.0))[None])
                        assert lo.reshape(-1).argmax() != hi.reshape(-1).argmax()


def test_criterion_9_conv_performance():
    with criterion(9, "conv net with >= 10,000 rectifier units, one query < 10 s"):
        rng = np.random.default_rng(91)
        c1 = Conv2D(
            rng.normal(0.0, 0.35, (16, 2, 3, 3)), rng.normal(0.0, 0.2, 16), (1, 1), (1, 1)
        )
        c2 = Conv2D(
            rng.normal(0.0, 0.25, (12, 16, 3, 3)), rng.normal(0.0, 0.2, 12), (1, 1), (1, 1)
        )
        net = Network(
            (2, 20, 20),
            (
                c1,
                ReLU(),
                c2,
                ReLU(),
                Flatten(),
                Dense(rng.normal(0.0, 0.1, (5, 4800)), rng.normal(0.0, 0.1, 5)),
            ),
        )
        relu_units = 16 * 20 * 20 + 12 * 20 * 20
        assert relu_units >= 10_000
        query = LineQuery(
            rng.normal(0.0, 1.0, net.input_shape), rng.normal(0.0, 1.0, net.input_shape)
        )
        t0 = time.perf_counter()
        part = exactline_network(net, query)
        elapsed = time.perf_counter() - t0
        assert part.n_endpoints >= 100  # genuinely nonlinear query
        print(f"\n  [criterion 9] {part.n_endpoints} endpoints in {elapsed:.2f} s")
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_10_density_metrics():
    with criterion(10, "density and gradient-deviation metrics"):
        rep = partition_density(loan_network(), loan_query())
        assert abs(rep.density - 3.0 / np.sqrt(500.0)) <= 1e-12
        dev = gradient_deviation(loan_network(), loan_query(), 1)
        assert abs(dev - 1.0 / 3.0) <= 1e-12

        rng = np.random.default_rng(101)
        for _ in range(50):
            net = random_dense_relu_network(rng)
            q = LineQuery(
                rng.normal(0.0, 2.0, net.input_shape),
                rng.normal(0.0, 2.0, net.input_shape),
            )
            fwd = partition_density(net, q)
            rev = partition_density(net, LineQuery(q.end, q.start))
            assert fwd.partition_count == rev.partition_count
            assert abs(fwd.density - rev.density) <= 1e-9 * fwd.density
