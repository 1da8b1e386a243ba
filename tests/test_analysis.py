from dataclasses import replace

import numpy as np
import pytest

from linrestrict import (
    Dense,
    DimensionError,
    LineQuery,
    Network,
    NumericError,
    QueryError,
    ReLU,
    UndefinedError,
    batch_gradient,
    decision_segments,
    exactline_network,
    fgsm_direction,
    gradient_deviation,
    partition_density,
    random_direction,
)
from oracle_utils import (
    loan_network,
    loan_query,
    match_within,
    random_conv_pool_network,
    random_dense_relu_network,
    random_query,
    scan_argmax_changes,
)


def sampled_drifts(net, query, k, n):
    """Relative L1 drift from the start gradient of n direct gradient
    samples, taken at the midpoints of n equal steps along the line."""
    g0 = batch_gradient(net, query.points(np.zeros(1)), k).reshape(-1)
    grads = batch_gradient(net, query.points((np.arange(n) + 0.5) / n), k)
    return np.abs(grads.reshape(n, -1) - g0).sum(axis=1) / np.abs(g0).sum()


def zero_bias(net):
    """`net` with every bias set to zero, so it is positively homogeneous."""
    layers = [
        replace(layer, bias=np.zeros_like(layer.bias)) if hasattr(layer, "bias") else layer
        for layer in net.layers
    ]
    return Network(net.input_shape, tuple(layers))


def segment_tuples(net, query):
    return [(s.alpha_lo, s.alpha_hi, s.class_index) for s in decision_segments(net, query)]


class TestDecisionSegments:
    def test_two_output_affine_crossover(self):
        # outputs (1-a, a): the argmax flips exactly at one half
        net = Network((1,), (Dense(np.array([[-1.0], [1.0]]), np.array([1.0, 0.0])),))
        q = LineQuery(np.array([0.0]), np.array([1.0]))
        segs = decision_segments(net, q)
        assert [(s.alpha_lo, s.alpha_hi, s.class_index) for s in segs] == [
            (0.0, 0.5, 0),
            (0.5, 1.0, 1),
        ]

    def test_loan_boundary(self):
        segs = decision_segments(loan_network(), loan_query())
        assert len(segs) == 2
        assert segs[0].class_index == 1
        assert segs[1].class_index == 0
        assert abs(segs[0].alpha_hi - 5.0 / 9.0) <= 1e-9
        oracle = scan_argmax_changes(loan_network(), loan_query())
        assert oracle.shape == (1,)
        assert abs(oracle[0] - 5.0 / 9.0) <= 1e-6

    def test_constant_output_single_segment(self):
        net = Network((2,), (Dense(np.zeros((3, 2)), np.array([0.0, 1.0, 0.5])),))
        segs = decision_segments(net, LineQuery(np.zeros(2), np.ones(2)))
        assert [(s.alpha_lo, s.alpha_hi, s.class_index) for s in segs] == [(0.0, 1.0, 1)]

    def test_single_output_rejected(self):
        net = Network((2,), (Dense(np.ones((1, 2)), np.zeros(1)),))
        with pytest.raises(DimensionError):
            decision_segments(net, LineQuery(np.zeros(2), np.ones(2)))

    @pytest.mark.parametrize("seed", range(6))
    def test_tiling_and_scan_agreement(self, seed):
        rng = np.random.default_rng(3000 + seed)
        net = random_dense_relu_network(rng, out_dim=int(rng.integers(3, 6)))
        q = random_query(rng, net)
        segs = decision_segments(net, q)
        assert segs[0].alpha_lo == 0.0
        assert segs[-1].alpha_hi == 1.0
        for a, b in zip(segs, segs[1:]):
            assert a.alpha_hi == b.alpha_lo
            assert a.class_index != b.class_index
        detected = scan_argmax_changes(net, q, n=10**6)
        boundaries = np.array([s.alpha_hi for s in segs[:-1]])
        assert match_within(detected, boundaries, 1e-6)
        assert match_within(boundaries, detected, 1e-6)

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_boundary_does_not_move_with_scale(self, k):
        # outputs (relu(x), s/2) on x in [-s, s]: the class flips where
        # x = s/2, at ratio 0.75, whatever the scale
        s = 2.0**k
        net = Network(
            (1,),
            (
                Dense(np.array([[1.0]]), np.zeros(1)),
                ReLU(),
                Dense(np.array([[1.0], [0.0]]), np.array([0.0, s / 2])),
            ),
        )
        q = LineQuery(np.array([-s]), np.array([s]))
        assert segment_tuples(net, q) == [(0.0, 0.75, 1), (0.75, 1.0, 0)]

    @pytest.mark.parametrize("d", [2.2e-16, 1e-15, 1e-13])
    def test_class_band_narrower_than_1e_12_is_kept(self, d):
        # outputs (0.5 - x, 0, x - 0.5 - d): class 0, then class 1 on
        # (0.5, 0.5 + d), then class 2; the two flips are distinct ratios
        net = Network(
            (1,),
            (Dense(np.array([[-1.0], [0.0], [1.0]]), np.array([0.5, 0.0, -(0.5 + d)])),),
        )
        segs = decision_segments(net, LineQuery(np.array([0.0]), np.array([1.0])))
        assert [s.class_index for s in segs] == [0, 1, 2]

    @pytest.mark.parametrize("seed", range(40))
    def test_zero_bias_segments_invariant_under_line_scaling(self, seed):
        # a zero-bias ReLU / max-pool net is positively homogeneous, and a
        # power-of-two scale is exact, so the segments must be identical
        rng = np.random.default_rng(7100 + seed)
        if seed % 2:
            net = zero_bias(random_conv_pool_network(rng))
        else:
            net = zero_bias(random_dense_relu_network(rng, out_dim=int(rng.integers(3, 6))))
        q = random_query(rng, net)
        expected = segment_tuples(net, q)
        for k in range(-60, 61):
            c = 2.0**k
            assert segment_tuples(net, LineQuery(c * q.start, c * q.end)) == expected, k


class TestDensity:
    def test_loan_values(self):
        rep = partition_density(loan_network(), loan_query())
        assert rep.partition_count == 3
        assert abs(rep.length - np.sqrt(500.0)) <= 1e-12
        assert abs(rep.density - 3.0 / np.sqrt(500.0)) <= 1e-12

    def test_affine_density_is_inverse_length(self):
        rng = np.random.default_rng(5)
        net = Network((3,), (Dense(rng.normal(0, 1, (2, 3)), rng.normal(0, 1, 2)),))
        q = random_query(rng, net)
        rep = partition_density(net, q)
        assert rep.partition_count == 1
        assert abs(rep.density - 1.0 / q.length()) <= 1e-15

    @pytest.mark.parametrize("to", [1e-200, 1e160])
    def test_length_and_density_at_extreme_scales(self, to):
        net = Network((1,), (Dense([[1.0]], [0.0]),))
        rep = partition_density(net, LineQuery([0.0], [to]))
        assert rep.partition_count == 1
        assert rep.length == to and rep.density == 1.0 / to
        wide = LineQuery(np.zeros(2), np.array([3.0 * to, 4.0 * to]))
        assert wide.length() == pytest.approx(5.0 * to, rel=1e-15)

    def test_overflowing_density_is_numeric_error(self):
        # the length 5e-324 is exact, but 1 / 5e-324 overflows
        net = Network((1,), (Dense([[1.0]], [0.0]),))
        with pytest.raises(NumericError, match="density"):
            partition_density(net, LineQuery([0.0], [5e-324]))

    def test_identical_endpoints_rejected(self):
        with pytest.raises(QueryError):
            LineQuery(np.ones(2), np.ones(2))

    @pytest.mark.parametrize("seed", range(8))
    def test_symmetric_under_reversal(self, seed):
        rng = np.random.default_rng(3100 + seed)
        net = random_dense_relu_network(rng)
        q = random_query(rng, net)
        fwd = partition_density(net, q)
        rev = partition_density(net, LineQuery(q.end, q.start))
        assert fwd.partition_count == rev.partition_count
        assert abs(fwd.density - rev.density) <= 1e-9 * fwd.density


class TestGradientDeviation:
    def test_affine_zero(self):
        rng = np.random.default_rng(6)
        net = Network((3,), (Dense(rng.normal(0, 1, (2, 3)), rng.normal(0, 1, 2)),))
        assert gradient_deviation(net, random_query(rng, net), 0) == 0.0

    def test_loan_output_one(self):
        # first two partitions share the base gradient (2, -1.3); the last
        # has gradient zero, contributing its full relative drift of 1
        dev = gradient_deviation(loan_network(), loan_query(), 1)
        assert abs(dev - 1.0 / 3.0) <= 1e-12

    def test_loan_output_zero_undefined(self):
        with pytest.raises(UndefinedError):
            gradient_deviation(loan_network(), loan_query(), 0)

    def test_collinear_output_pieces_keep_their_gradients(self):
        # the output is 5 on the whole line, so canonicalizing leaves one
        # piece; the input gradient is (0, 1) for x < 0 and (0, 0) after
        net = Network(
            (2,),
            (
                Dense(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), np.array([0.0, 0.0, 5.0])),
                ReLU(),
                Dense(np.array([[1.0, -1.0, 1.0]]), np.zeros(1)),
            ),
        )
        q = LineQuery(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
        assert gradient_deviation(net, q, 0) == 0.5
        assert sampled_drifts(net, q, 0, 10_000).mean() == 0.5

    @pytest.mark.parametrize("seed", range(3))
    def test_maxpool_network_matches_sampled_gradients(self, seed):
        rng = np.random.default_rng(3300 + seed)
        net = random_conv_pool_network(rng)
        q = random_query(rng, net, scale=1.0)
        n = 20_000
        dev = gradient_deviation(net, q, 0)
        drifts = sampled_drifts(net, q, 0, n)
        pieces = exactline_network(net, q).n_partitions
        assert dev > 0.0
        # only a sample interval holding a kink can be off, by at most
        # the larger of the two drifts over n
        assert abs(dev - drifts.mean()) <= pieces * drifts.max() / n

    @pytest.mark.parametrize("seed", range(4))
    def test_invariant_under_output_rescaling(self, seed):
        rng = np.random.default_rng(3200 + seed)
        net = random_dense_relu_network(rng, din=8, widths=[10], out_dim=5)
        q = random_query(rng, net)
        last = net.layers[-1]
        scaled = Network(
            net.input_shape,
            net.layers[:-1] + (Dense(7.5 * last.weights, 7.5 * last.bias),),
        )
        k = int(rng.integers(0, 5))
        a = gradient_deviation(net, q, k)
        b = gradient_deviation(scaled, q, k)
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


class TestPerturbations:
    def test_loan_fgsm_step(self):
        got = fgsm_direction(loan_network(), np.array([20.0, 30.0]), 0.1, 1)
        assert np.allclose(got, [19.9, 30.1], atol=1e-12)

    def test_zero_epsilon_identity(self):
        x = np.array([20.0, 30.0])
        assert np.array_equal(fgsm_direction(loan_network(), x, 0.0, 1), x)

    def test_zero_gradient_identity(self):
        # output 0 is clamped in the first region, so its gradient vanishes
        x = np.array([20.0, 30.0])
        assert np.array_equal(fgsm_direction(loan_network(), x, 0.1, 0), x)

    def test_random_direction_deterministic(self):
        x = np.zeros(16)
        a = random_direction(x, 0.1, seed=99)
        b = random_direction(x, 0.1, seed=99)
        assert np.array_equal(a, b)

    def test_random_direction_zero_epsilon(self):
        x = np.arange(4.0)
        assert np.array_equal(random_direction(x, 0.0, seed=1), x)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
    def test_nonfinite_epsilon_rejected(self, epsilon):
        x = np.array([20.0, 30.0])
        with pytest.raises(QueryError, match="epsilon"):
            fgsm_direction(loan_network(), x, epsilon, 1)
        with pytest.raises(QueryError, match="epsilon"):
            random_direction(x, epsilon, seed=1)

    # the error replaces numpy's overflow warning, which would fail this test
    @pytest.mark.filterwarnings("error")
    def test_overflowing_step_is_numeric_error(self):
        net = Network((1,), (Dense(np.array([[1e200]]), np.zeros(1)),))
        with pytest.raises(NumericError, match="perturbed point"):
            fgsm_direction(net, np.array([-1.7e308]), 1e308, 0)
        with pytest.raises(NumericError, match="perturbed point"):
            random_direction(np.full(8, -1.7e308), 1e308, seed=1)

    def test_random_direction_exact_magnitude(self):
        x = np.zeros(64)
        for seed in (0, 1, 2):
            d = random_direction(x, 0.1, seed=seed) - x
            assert np.all(np.abs(d) == 0.1)
