import warnings

import numpy as np
import pytest

from linrestrict import (
    Dense,
    Flatten,
    LineQuery,
    MaxPool,
    Network,
    QueryError,
    RangeError,
    ReLU,
    ShapeError,
    canonicalize,
    check_partitioned_line,
    exactline_maxpool,
    exactline_network,
    exactline_pwl_hyperplanes,
    exactline_relu_maxpool,
    forward,
    gradient,
    interpolate_output,
)
from linrestrict._kernels import relu_crossings
from linrestrict.exactline import PartitionedLine, _insert_crossings
from oracle_utils import (
    loan_network,
    loan_query,
    match_within,
    random_dense_relu_network,
    random_query,
    scan_pattern_changes,
    scan_window_state_changes,
)

POOL_1x2 = MaxPool((1, 2), (1, 1))
SHAPE_1x2 = (1, 1, 2)
POOL_2x2 = MaxPool((2, 2), (1, 1))

#: layer orders that fused and unfused propagation split into different steps
STEP_ORDERS = {
    "relu-pool": (ReLU(), POOL_2x2),
    "pool-relu": (POOL_2x2, ReLU()),
    "relu-pool-relu": (ReLU(), POOL_2x2, ReLU()),
}


def relu_line(q, r) -> PartitionedLine:
    """ExactLine of one componentwise ReLU on the segment q -> r.

    Its interior alphas are the zero-crossing ratios of the segment.
    """
    q = np.asarray(q, dtype=np.float64)
    return exactline_network(Network(q.shape, (ReLU(),)), LineQuery(q, r))


class TestAffine:
    def test_loan_dense_layer(self):
        net = Network((2,), (loan_network().layers[0],))
        p = exactline_network(net, loan_query())
        assert np.array_equal(p.alphas, [0.0, 1.0])
        # hand evaluation of the dense map at both endpoints
        assert np.allclose(p.postimages, [[-1.0, 4.0], [2.0, -2.0]])
        assert np.allclose(p.postimages[0], forward(net, loan_query().start))

    def test_identity_map(self):
        net = Network((2,), (Dense(np.eye(2), np.zeros(2)),))
        q = LineQuery(np.array([1.0, 2.0]), np.array([-3.0, 4.0]))
        p = exactline_network(net, q)
        assert np.array_equal(p.postimages[0], q.start)
        assert np.array_equal(p.postimages[1], q.end)

    @pytest.mark.parametrize("seed", range(4))
    def test_any_affine_two_endpoints(self, seed):
        rng = np.random.default_rng(seed)
        net = Network(
            (5,),
            (
                Dense(rng.normal(0, 1, (7, 5)), rng.normal(0, 1, 7)),
                Dense(rng.normal(0, 1, (3, 7)), rng.normal(0, 1, 3)),
            ),
        )
        p = exactline_network(net, random_query(rng, net))
        assert p.n_endpoints == 2


class TestReluOp:
    def test_loan_crossings(self):
        p = relu_line([-1.0, 4.0], [2.0, -2.0])
        assert np.allclose(p.alphas[1:-1], [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        assert np.allclose(p.postimages[0], [0.0, 4.0])
        assert np.allclose(p.postimages[-1], [2.0, 0.0])
        assert np.all(p.postimages >= 0.0)

    def test_all_positive_no_crossings(self):
        assert np.array_equal(relu_line([1.0, 2.0], [3.0, 4.0]).alphas, [0.0, 1.0])

    def test_boundary_and_constant_dims(self):
        assert np.array_equal(relu_line([0.0, 1.0], [1.0, 1.0]).alphas, [0.0, 1.0])


class TestMaxPoolOp:
    def test_single_switch(self):
        # oracle: the argmax of (t*2, 1-t) switches from 1 to 0 at t=1/3
        q, r = np.array([0.0, 1.0]), np.array([2.0, 0.0])
        oracle = scan_window_state_changes(q, r)
        ratios = exactline_maxpool(q, r, POOL_1x2, SHAPE_1x2)
        assert ratios.shape == (1,)
        assert abs(ratios[0] - 1.0 / 3.0) < 1e-12
        assert match_within(ratios, oracle, 1e-6)

    def test_constant_argmax(self):
        ratios = exactline_maxpool(
            np.array([5.0, 0.0]), np.array([6.0, 1.0]), POOL_1x2, SHAPE_1x2
        )
        assert ratios.size == 0

    def test_tie_at_start_follows_lowest_index(self):
        # index 0 is maximal on all of (0, 1]; dense scan agrees there is
        # no argmax change
        q, r = np.array([1.0, 1.0]), np.array([2.0, 0.0])
        assert scan_window_state_changes(q, r).size == 0
        ratios = exactline_maxpool(q, r, POOL_1x2, SHAPE_1x2)
        assert ratios.size == 0

    def test_multiwindow_union(self):
        pool = MaxPool((1, 2), (1, 2))
        shape = (1, 1, 4)
        q = np.array([0.0, 1.0, 5.0, 0.0])
        r = np.array([2.0, 0.0, 0.0, 4.0])
        ratios = exactline_maxpool(q, r, pool, shape)
        # window 1 switches at 1/3, window 2 at 5/9
        assert np.allclose(ratios, [1.0 / 3.0, 5.0 / 9.0], atol=1e-12)


class TestFusedOp:
    def test_negative_throughout_suppressed(self):
        q, r = np.array([-3.0, -1.0]), np.array([-1.0, -2.0])
        assert scan_window_state_changes(q, r, clamp=True).size == 0
        ratios = exactline_relu_maxpool(q, r, POOL_1x2, SHAPE_1x2)
        assert ratios.size == 0

    def test_max_crosses_zero(self):
        q, r = np.array([-1.0, -2.0]), np.array([1.0, -2.0])
        oracle = scan_window_state_changes(q, r, clamp=True)
        ratios = exactline_relu_maxpool(q, r, POOL_1x2, SHAPE_1x2)
        assert np.allclose(ratios, [0.5], atol=1e-12)
        assert match_within(ratios, oracle, 1e-6)

    def test_all_positive_equals_plain_maxpool(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            q = rng.uniform(0.5, 3.0, 6)
            r = rng.uniform(0.5, 3.0, 6)
            pool = MaxPool((2, 3), (1, 1))
            shape = (1, 2, 3)
            fused = exactline_relu_maxpool(q, r, pool, shape)
            plain = exactline_maxpool(q, r, pool, shape)
            assert np.array_equal(fused, plain)


class TestHyperplanesOp:
    def test_orthant_faces_match_relu(self):
        ratios = exactline_pwl_hyperplanes(
            np.eye(2), np.zeros(2), np.array([-1.0, 4.0]), np.array([2.0, -2.0])
        )
        relu_ratios = relu_line([-1.0, 4.0], [2.0, -2.0]).alphas[1:-1]
        assert np.allclose(ratios, relu_ratios, atol=1e-12)

    def test_uncrossed_plane_empty(self):
        ratios = exactline_pwl_hyperplanes(
            np.array([[1.0, 0.0]]), np.array([5.0]), np.array([1.0, 0.0]), np.array([2.0, 3.0])
        )
        assert ratios.size == 0

    @pytest.mark.parametrize("scale", [1.0, 1e-13, 1e-200])
    def test_symmetric_crossing(self, scale):
        ratios = exactline_pwl_hyperplanes(np.eye(1), np.zeros(1), [-scale], [scale])
        assert np.array_equal(ratios, [0.5])


class TestNetworkPropagation:
    def test_loan_full(self):
        q = loan_query()
        p = exactline_network(loan_network(), q)
        assert np.allclose(p.alphas, [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], atol=1e-12)
        want_pre = [[20.0, 30.0], [70.0 / 3, 110.0 / 3], [80.0 / 3, 130.0 / 3], [30.0, 50.0]]
        assert np.allclose(p.preimages, want_pre, atol=1e-9)
        pts = q.points(p.alphas)
        assert np.array_equal(p.preimages, pts)
        for i, a in enumerate(p.alphas):
            assert np.array_equal(pts[i], q.point_at(a))
        assert np.allclose(
            p.postimages, [[0.0, 4.0], [0.0, 2.0], [1.0, 0.0], [2.0, 0.0]], atol=1e-9
        )
        assert np.array_equal(p.origin_layers, [-1, 1, 1, -1])
        check_partitioned_line(p)

    def test_affine_only(self):
        rng = np.random.default_rng(2)
        net = Network((3,), (Dense(rng.normal(0, 1, (4, 3)), rng.normal(0, 1, 4)),))
        p = exactline_network(net, random_query(rng, net))
        assert np.array_equal(p.alphas, [0.0, 1.0])

    def test_query_shape_mismatch(self):
        with pytest.raises(ShapeError):
            exactline_network(
                loan_network(), LineQuery(np.zeros(3), np.ones(3))
            )

    def test_identical_endpoints_rejected(self):
        with pytest.raises(QueryError):
            LineQuery(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "start, end", [([-1e308], [1e308]), ([0.0, 1.7e308], [1.0, -1.7e308])]
    )
    def test_overflowing_direction_rejected(self, start, end):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QueryError, match="overflows"):
                LineQuery(np.array(start), np.array(end))

    def test_random_net_matches_pattern_scan(self):
        # d=16, three dense layers with ReLU in between
        rng = np.random.default_rng(123)
        net = random_dense_relu_network(rng, din=16, widths=[16, 16], out_dim=16)
        q = random_query(rng, net)
        p = canonicalize(exactline_network(net, q))
        detected = scan_pattern_changes(net, q)
        interior = p.alphas[1:-1]
        assert match_within(detected, interior, 1e-6)
        assert match_within(interior, detected, 1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_partition_correctness_dense(self, seed):
        rng = np.random.default_rng(300 + seed)
        net = random_dense_relu_network(rng)
        q = random_query(rng, net)
        p = exactline_network(net, q)
        check_partitioned_line(p)
        _assert_interpolation_exact(net, q, p, rng)

    @pytest.mark.parametrize("seed", range(4))
    def test_partition_correctness_conv_pool(self, seed):
        rng = np.random.default_rng(400 + seed)
        from linrestrict import Conv2D

        net = Network(
            (2, 6, 6),
            (
                Conv2D(rng.normal(0, 0.6, (3, 2, 3, 3)), rng.normal(0, 0.3, 3), (1, 1), (1, 1)),
                ReLU(),
                MaxPool((2, 2), (2, 2)),
                Flatten(),
                Dense(rng.normal(0, 0.6, (5, 27)), rng.normal(0, 0.3, 5)),
                ReLU(),
                Dense(rng.normal(0, 0.6, (4, 5)), rng.normal(0, 0.3, 4)),
            ),
        )
        q = random_query(rng, net, scale=1.0)
        for fuse in (True, False):
            p = exactline_network(net, q, fuse_relu_maxpool=fuse)
            check_partitioned_line(p)
            _assert_interpolation_exact(net, q, p, rng)

    def test_fused_and_unfused_agree_after_canonicalization(self):
        rng = np.random.default_rng(77)
        from linrestrict import Conv2D

        net = Network(
            (1, 4, 4),
            (
                Conv2D(rng.normal(0, 1, (2, 1, 3, 3)), rng.normal(0, 0.2, 2), (1, 1), (1, 1)),
                ReLU(),
                MaxPool((2, 2), (1, 1)),
                Flatten(),
                Dense(rng.normal(0, 1, (3, 18)), rng.normal(0, 0.2, 3)),
            ),
        )
        q = random_query(rng, net, scale=1.5)
        a = canonicalize(exactline_network(net, q, fuse_relu_maxpool=True))
        b = canonicalize(exactline_network(net, q, fuse_relu_maxpool=False))
        assert a.n_endpoints == b.n_endpoints
        assert np.allclose(a.alphas, b.alphas, atol=1e-9)

    def test_partition_does_not_depend_on_conv_chunk(self, monkeypatch):
        rng = np.random.default_rng(78)
        from linrestrict import Conv2D, network

        net = Network(
            (2, 6, 6),
            (
                Conv2D(rng.normal(0, 0.5, (4, 2, 3, 3)), rng.normal(0, 0.2, 4), (1, 1), (1, 1)),
                ReLU(),
                Conv2D(rng.normal(0, 0.5, (3, 4, 3, 3)), rng.normal(0, 0.2, 3), (1, 1), (1, 1)),
                ReLU(),
                Flatten(),
                Dense(rng.normal(0, 0.3, (5, 108)), rng.normal(0, 0.2, 5)),
            ),
        )
        q = random_query(rng, net, scale=1.0)
        a = exactline_network(net, q)
        monkeypatch.setattr(network, "_CONV_CHUNK_BYTES", 1)
        b = exactline_network(net, q)
        assert a.n_endpoints > 10
        assert np.array_equal(a.alphas, b.alphas)
        assert np.array_equal(a.postimages, b.postimages)

    @pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
    @pytest.mark.parametrize("order", sorted(STEP_ORDERS))
    def test_pool_relu_orders_do_not_depend_on_block(self, monkeypatch, order, fuse):
        rng = np.random.default_rng(79)
        from linrestrict import Conv2D, batch_forward
        from linrestrict import exactline as engine

        net = Network(
            (2, 6, 6),
            (Conv2D(rng.normal(0, 0.6, (3, 2, 3, 3)), rng.normal(0, 0.3, 3), (1, 1), (1, 1)),)
            + STEP_ORDERS[order]
            + (
                Flatten(),
                Dense(rng.normal(0, 0.4, (5, 75)), rng.normal(0, 0.3, 5)),
                ReLU(),
                Dense(rng.normal(0, 0.5, (3, 5)), rng.normal(0, 0.3, 3)),
            ),
        )
        q = random_query(rng, net, scale=1.0)
        a = exactline_network(net, q, fuse_relu_maxpool=fuse)
        monkeypatch.setattr(engine, "_BLOCK_ELEMS", 1)  # one segment per kernel call
        b = exactline_network(net, q, fuse_relu_maxpool=fuse)
        assert np.count_nonzero(np.isin(a.origin_layers, [1, 2, 3])) > 10
        assert np.array_equal(a.alphas, b.alphas)
        assert np.array_equal(a.postimages, b.postimages)
        assert np.array_equal(a.origin_layers, b.origin_layers)
        check_partitioned_line(a)
        pre = a.preimages
        mid = batch_forward(net, (pre[:-1] + pre[1:]) / 2.0)
        lerp = (a.postimages[:-1] + a.postimages[1:]) / 2.0
        assert np.abs(lerp - mid).max() <= 1e-9 * (1.0 + np.abs(mid).max())

    def test_relu_layer_endpoint_bound(self):
        # one rectifier over width d adds at most d interior endpoints
        rng = np.random.default_rng(5)
        for d in (4, 16, 64):
            net = Network((d,), (ReLU(),))
            q = LineQuery(rng.normal(0, 1, d), rng.normal(0, 1, d))
            p = exactline_network(net, q)
            assert p.n_endpoints - 2 <= d

    @pytest.mark.parametrize("seed", range(5))
    def test_constant_gradient_within_partition(self, seed):
        rng = np.random.default_rng(500 + seed)
        net = random_dense_relu_network(rng, din=10, widths=[12, 12], out_dim=6)
        q = random_query(rng, net)
        p = exactline_network(net, q)
        k = int(rng.integers(0, 6))
        for i in rng.choice(p.n_partitions, size=min(10, p.n_partitions), replace=False):
            lo, hi = p.alphas[i], p.alphas[i + 1]
            t1, t2 = rng.uniform(0.15, 0.45), rng.uniform(0.55, 0.85)
            g1 = gradient(net, q.point_at(lo + t1 * (hi - lo)), k)
            g2 = gradient(net, q.point_at(lo + t2 * (hi - lo)), k)
            assert np.all(np.abs(g1 - g2) <= 1e-9)

    def test_invariants_hold_after_every_layer(self):
        # run the engine over every prefix of the layer stack, which is
        # the state after each propagation step
        rng = np.random.default_rng(6)
        net = random_dense_relu_network(rng, din=12, widths=[14, 10], out_dim=8)
        q = random_query(rng, net)
        for k in range(1, len(net.layers) + 1):
            prefix = Network(net.input_shape, net.layers[:k])
            check_partitioned_line(exactline_network(prefix, q))

    def test_truncated_origin_layers_rejected(self):
        p = exactline_network(loan_network(), loan_query())
        check_partitioned_line(p)
        bad = PartitionedLine(p.query, p.alphas, p.postimages, p.origin_layers[:-1])
        with pytest.raises(AssertionError, match="origin_layers"):
            check_partitioned_line(bad)
        for origin in ([-1, 1, 1, -1], np.array([-1, 1, -1, -1]), np.array([0, 1, 1, -1])):
            bad = PartitionedLine(p.query, p.alphas, p.postimages, origin)
            with pytest.raises(AssertionError, match="origin_layers"):
                check_partitioned_line(bad)

    def test_degenerate_partition_kept_without_subdivision(self):
        # the first layer clamps everything to zero, so later layers see
        # segments with identical images at both ends
        net = Network(
            (2,),
            (
                Dense(np.eye(2), np.array([-100.0, -100.0])),
                ReLU(),
                Dense(np.array([[1.0, 1.0], [2.0, -1.0]]), np.array([1.0, 2.0])),
                ReLU(),
            ),
        )
        q = LineQuery(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        p = exactline_network(net, q)
        assert p.n_endpoints == 2
        check_partitioned_line(p)



def _assert_interpolation_exact(net, q, p, rng, samples=32):
    flat = p.postimages.reshape(p.n_endpoints, -1)
    for i in range(p.n_partitions):
        lo, hi = p.alphas[i], p.alphas[i + 1]
        ts = rng.uniform(0.0, 1.0, samples)
        outs = np.stack(
            [forward(net, q.point_at(lo + t * (hi - lo))).reshape(-1) for t in ts]
        )
        lerp = flat[i] + ts[:, None] * (flat[i + 1] - flat[i])
        err = np.abs(outs - lerp).max(axis=1)
        bound = 1e-6 * (1.0 + np.abs(outs).max(axis=1))
        assert np.all(err <= bound)


#: residual pairs on identity planes where the kernels' merge rule decides:
#: a ratio of 1e-14 lies within MERGE_TOL of 0, and of three ratios 0.7e-12
#: apart the third is 1.4e-12 from the first kept one
MERGE_CASES = [
    pytest.param([-1e-14], [1.0], 0, id="near-zero"),
    pytest.param(-(0.5 + 0.7e-12 * np.arange(3)), 0.5 - 0.7e-12 * np.arange(3), 2, id="chain"),
]


class TestEquivalenceWithHyperplanes:
    @pytest.mark.parametrize("qv,rv,count", MERGE_CASES)
    def test_merge_rule_matches_relu_crossings(self, qv, rv, count):
        d = len(qv)
        via_planes = exactline_pwl_hyperplanes(np.eye(d), np.zeros(d), qv, rv)
        _, via_relu = relu_crossings(np.array([qv, rv]), np.array([0.0, 1.0]))
        assert via_planes.size == count
        assert np.array_equal(via_planes, via_relu)

    @pytest.mark.parametrize("seed", range(10))
    def test_relu_routes_agree(self, seed):
        rng = np.random.default_rng(700 + seed)
        d = int(rng.integers(2, 20))
        qv, rv = rng.normal(0, 1, d), rng.normal(0, 1, d)
        via_relu = relu_line(qv, rv).alphas[1:-1]
        via_planes = exactline_pwl_hyperplanes(np.eye(d), np.zeros(d), qv, rv)
        assert via_relu.shape == via_planes.shape
        assert np.allclose(via_relu, via_planes, atol=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_maxpool_routes_agree_after_canonicalization(self, seed):
        rng = np.random.default_rng(800 + seed)
        ws = int(rng.integers(2, 8))
        qv, rv = rng.normal(0, 1, ws), rng.normal(0, 1, ws)
        pool = MaxPool((1, ws), (1, 1))
        shape = (1, 1, ws)
        via_follow = exactline_maxpool(qv, rv, pool, shape)
        normals = []
        for i in range(ws):
            for j in range(i + 1, ws):
                n = np.zeros(ws)
                n[i], n[j] = 1.0, -1.0
                normals.append(n)
        via_planes = exactline_pwl_hyperplanes(np.array(normals), np.zeros(len(normals)), qv, rv)

        def window_max(t):
            v = qv + t * (rv - qv)
            return np.array([v.max()])

        a = _canonical_alphas_from_ratios(via_follow, window_max)
        b = _canonical_alphas_from_ratios(via_planes, window_max)
        assert a.shape == b.shape
        assert np.allclose(a, b, atol=1e-9)


def _canonical_alphas_from_ratios(ratios, fn):
    """Build a partition from crossing ratios by applying the true map,
    then reduce it to canonical form and return its ratios."""
    alphas = np.concatenate([[0.0], ratios, [1.0]])
    post = np.stack([fn(a) for a in alphas])
    fake_query = LineQuery(np.zeros(1), np.ones(1))
    p = PartitionedLine(fake_query, alphas, post, np.zeros(len(alphas), dtype=np.int64))
    return canonicalize(p).alphas


class TestCanonicalize:
    def test_removes_collinear_midpoint(self):
        q = LineQuery(np.zeros(2), np.ones(2))
        alphas = np.array([0.0, 0.5, 1.0])
        post = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        p = PartitionedLine(q, alphas, post, np.array([-1, 0, -1]))
        c = canonicalize(p)
        assert np.array_equal(c.alphas, [0.0, 1.0])

    def test_loan_already_minimal(self):
        p = exactline_network(loan_network(), loan_query())
        c = canonicalize(p)
        assert c.n_endpoints == p.n_endpoints
        assert np.array_equal(c.alphas, p.alphas)

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(900 + seed)
        net = random_dense_relu_network(rng, din=8, widths=[10], out_dim=6)
        p = canonicalize(exactline_network(net, random_query(rng, net)))
        again = canonicalize(p)
        assert np.array_equal(again.alphas, p.alphas)
        assert np.array_equal(again.postimages, p.postimages)


class TestInterpolate:
    def test_alpha_zero_is_forward_at_start(self):
        # batched and single-point matmuls may differ in the last ulp,
        # so the comparison is tight but not bitwise
        net = loan_network()
        p = exactline_network(net, loan_query())
        got = interpolate_output(p, 0.0)
        want = forward(net, loan_query().start)
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    def test_loan_midpoint(self):
        net = loan_network()
        p = exactline_network(net, loan_query())
        got = interpolate_output(p, 0.5)
        assert np.allclose(got, [0.5, 1.0], atol=1e-12)
        assert np.allclose(got, forward(net, loan_query().point_at(0.5)), atol=1e-9)

    def test_stored_endpoint_returned_exactly(self):
        p = exactline_network(loan_network(), loan_query())
        a = p.alphas[1]
        assert np.array_equal(interpolate_output(p, a), p.postimages[1])

    def test_range_error(self):
        p = exactline_network(loan_network(), loan_query())
        with pytest.raises(RangeError):
            interpolate_output(p, 1.5)


def _insert_by_segment(alphas, flat, origin, seg, new_alphas, layer_idx):
    """Reference: each old endpoint followed by the crossings of the segment
    that starts at it, each interpolated between that segment's ends."""
    out_a, out_p, out_o = [], [], []
    for i in range(alphas.size):
        out_a.append(alphas[i])
        out_p.append(flat[i])
        out_o.append(origin[i])
        for a in new_alphas[seg == i]:
            t = (a - alphas[i]) / (alphas[i + 1] - alphas[i])
            out_a.append(a)
            out_p.append(flat[i] + t * (flat[i + 1] - flat[i]))
            out_o.append(layer_idx)
    return np.array(out_a), np.array(out_p), np.array(out_o, dtype=np.int64)


class TestInsertCrossings:
    ALPHAS = np.array([0.0, 0.2, 0.45, 0.7, 1.0])
    FLAT = np.array(
        [[1.5, -2.0, 0.3], [-0.7, 4.1, 2.2], [3.3, 0.1, -1.9], [0.25, -5.5, 7.0], [2.0, 1.0, -0.6]]
    )
    ORIGIN = np.array([-1, 0, 2, 0, -1], dtype=np.int64)

    @pytest.mark.parametrize(
        "seg, new_alphas",
        [
            ([], []),
            ([2, 2, 2], [0.5, 0.55, 0.6999]),
            ([0, 0, 3, 3], [0.01, 0.15, 0.71, 0.9]),
            ([0, 1, 1, 3], [0.1, 0.3, 0.4, 0.8]),
        ],
        ids=["none", "several-in-one", "first-and-last", "mixed"],
    )
    def test_matches_segment_by_segment_reference(self, seg, new_alphas):
        seg = np.array(seg, dtype=np.int64)
        new_alphas = np.array(new_alphas, dtype=np.float64)
        args = (self.ALPHAS, self.FLAT, self.ORIGIN, seg, new_alphas, 3)
        got = _insert_crossings(*args)
        for g, w in zip(got, _insert_by_segment(*args)):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        # the engine clamps the returned rows in place, so they are a new buffer
        assert not np.shares_memory(got[1], self.FLAT)

    # 1 and 3 elements: one new row (3 values) per block; 7: two rows
    @pytest.mark.parametrize("block_elems", [1, 3, 7])
    def test_blocks_of_new_rows_match_reference(self, monkeypatch, block_elems):
        from linrestrict import exactline as engine

        monkeypatch.setattr(engine, "_INSERT_BLOCK_ELEMS", block_elems)
        seg = np.array([0, 0, 1, 1, 3], dtype=np.int64)
        new_alphas = np.array([0.05, 0.15, 0.3, 0.4, 0.8])
        args = (self.ALPHAS, self.FLAT, self.ORIGIN, seg, new_alphas, 3)
        for g, w in zip(_insert_crossings(*args), _insert_by_segment(*args)):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
