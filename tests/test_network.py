import numpy as np
import pytest

from linrestrict import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool,
    Network,
    Normalize,
    ReLU,
    ShapeError,
    batch_forward,
    fold_affine_layers,
    forward,
    gradient,
    validate_network,
)
from oracle_utils import (
    conv_as_matrix,
    finite_difference_gradient,
    loan_network,
    off_boundary_point,
    random_dense_relu_network,
    small_int_array,
)


class TestValidate:
    def test_loan_network_ok(self):
        validate_network(loan_network())

    def test_dense_chain_mismatch_names_layer(self):
        net = Network(
            (2,),
            (
                Dense(np.zeros((2, 2)), np.zeros(2)),
                Dense(np.zeros((1, 3)), np.zeros(1)),
            ),
        )
        with pytest.raises(ShapeError, match="layer 1"):
            validate_network(net)

    def test_empty_layer_list(self):
        with pytest.raises(ShapeError):
            validate_network(Network((2,), ()))

    def test_dense_bias_length_mismatch(self):
        with pytest.raises(ShapeError):
            Dense(np.zeros((2, 2)), np.zeros(3))

    def test_normalize_wrong_channel_count(self):
        net = Network((3,), (Normalize(np.zeros(2), np.ones(2)),))
        with pytest.raises(ShapeError, match="layer 0"):
            validate_network(net)

    def test_normalize_nonpositive_std(self):
        with pytest.raises(ShapeError):
            Normalize(np.zeros(2), np.array([1.0, 0.0]))

    def test_maxpool_nonpositive_window(self):
        with pytest.raises(ShapeError):
            MaxPool((0, 2), (1, 1))

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ShapeError):
            Dense(np.array([[np.nan]]), np.zeros(1))


class TestForward:
    def test_loan_example(self):
        net = loan_network()
        assert np.allclose(forward(net, np.array([20.0, 30.0])), [0.0, 4.0])
        assert np.allclose(forward(net, np.array([30.0, 50.0])), [2.0, -0.0])

    def test_identity_dense(self):
        net = Network((2,), (Dense(np.eye(2), np.zeros(2)),))
        x = np.array([5.0, -7.0])
        assert np.array_equal(forward(net, x), x)

    def test_relu_clamp(self):
        net = Network((1,), (ReLU(),))
        assert forward(net, np.array([-5.0]))[0] == 0.0

    def test_input_shape_error(self):
        with pytest.raises(ShapeError):
            forward(loan_network(), np.array([1.0, 2.0, 3.0]))

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(11)
        net = random_dense_relu_network(rng)
        x = rng.normal(0, 1, net.input_shape)
        assert np.array_equal(forward(net, x), forward(net, x))

    def test_maxpool_forward(self):
        net = Network((1, 2, 2), (MaxPool((2, 2), (1, 1)),))
        x = np.array([[[1.0, 3.0], [2.0, -1.0]]])
        assert forward(net, x).reshape(-1)[0] == 3.0

    def test_normalize_forward_channels(self):
        net = Network(
            (2, 1, 1), (Normalize(np.array([1.0, 2.0]), np.array([2.0, 4.0])),)
        )
        out = forward(net, np.array([[[3.0]], [[10.0]]]))
        assert np.allclose(out.reshape(-1), [1.0, 2.0])


class TestGradient:
    def test_loan_gradients_first_region(self):
        # inside the first partition of the worked example both outputs
        # are affine with known rows
        net = loan_network()
        x = np.array([20.5, 31.0])
        assert np.allclose(gradient(net, x, 1), [2.0, -1.3])
        assert np.allclose(gradient(net, x, 0), [0.0, 0.0])

    def test_affine_gradient_is_weight_row(self):
        rng = np.random.default_rng(3)
        w = rng.normal(0, 1, (3, 4))
        net = Network((4,), (Dense(w, rng.normal(0, 1, 3)),))
        for x in (rng.normal(0, 5, 4), rng.normal(0, 5, 4)):
            for k in range(3):
                assert np.allclose(gradient(net, x, k), w[k], atol=1e-12)

    def test_output_index_error(self):
        with pytest.raises(IndexError):
            gradient(loan_network(), np.array([1.0, 1.0]), 2)

    def test_relu_zero_is_inactive(self):
        net = Network((1,), (ReLU(),))
        assert gradient(net, np.array([0.0]), 0)[0] == 0.0
        assert gradient(net, np.array([1e-12]), 0)[0] == 1.0

    def test_maxpool_tie_routes_to_lowest_flat_index(self):
        net = Network((1, 1, 2), (MaxPool((1, 2), (1, 1)),))
        g = gradient(net, np.array([[[2.0, 2.0]]]), 0)
        assert np.array_equal(g.reshape(-1), [1.0, 0.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences_dense(self, seed):
        rng = np.random.default_rng(100 + seed)
        net = random_dense_relu_network(rng, din=7, widths=[9, 8], out_dim=5)
        x = off_boundary_point(net, rng)
        k = int(rng.integers(0, 5))
        g = gradient(net, x, k)
        fd = finite_difference_gradient(net, x, k)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.all(np.abs(g - fd) / denom < 1e-4)

    def test_matches_finite_differences_conv_pool(self):
        rng = np.random.default_rng(42)
        net = Network(
            (2, 5, 5),
            (
                Conv2D(rng.normal(0, 0.5, (3, 2, 3, 3)), rng.normal(0, 0.5, 3), (1, 1), (1, 1)),
                ReLU(),
                MaxPool((2, 2), (2, 2)),
                Flatten(),
                Dense(rng.normal(0, 0.5, (4, 12)), rng.normal(0, 0.5, 4)),
            ),
        )
        x = off_boundary_point(net, rng, scale=1.0)
        g = gradient(net, x, 2)
        fd = finite_difference_gradient(net, x, 2)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.all(np.abs(g - fd) / denom < 1e-4)


CONV_GEOMETRIES = pytest.mark.parametrize(
    "in_shape,kshape,stride,padding",
    [
        ((1, 4, 4), (2, 1, 2, 2), (1, 1), (0, 0)),
        ((2, 5, 5), (3, 2, 3, 3), (1, 1), (1, 1)),
        ((3, 8, 8), (4, 3, 3, 3), (2, 2), (1, 1)),
        ((2, 6, 7), (2, 2, 2, 3), (2, 1), (0, 1)),
    ],
)


class TestConv:
    @CONV_GEOMETRIES
    def test_forward_equals_dense_materialization_exactly(
        self, in_shape, kshape, stride, padding
    ):
        # integer-valued weights and inputs keep every float op exact,
        # so the two computation orders must agree bit for bit
        rng = np.random.default_rng(hash((in_shape, kshape)) % 2**32)
        layer = Conv2D(
            small_int_array(rng, kshape), small_int_array(rng, kshape[0]), stride, padding
        )
        net = Network(in_shape, (layer,))
        mat, bias = conv_as_matrix(layer, in_shape)
        for _ in range(3):
            x = small_int_array(rng, in_shape)
            got = forward(net, x).reshape(-1)
            want = mat @ x.reshape(-1) + bias
            assert np.array_equal(got, want)

    @CONV_GEOMETRIES
    def test_conv_gradient_matches_matrix_row(self, in_shape, kshape, stride, padding):
        # integer-valued weights make every gradient entry exact
        rng = np.random.default_rng(8)
        layer = Conv2D(
            small_int_array(rng, kshape), small_int_array(rng, kshape[0]), stride, padding
        )
        net = Network(in_shape, (layer,))
        mat, _ = conv_as_matrix(layer, in_shape)
        x = small_int_array(rng, in_shape)
        for k in range(mat.shape[0]):
            g = gradient(net, x, k).reshape(-1)
            assert np.array_equal(g, mat[k])


class TestFold:
    def test_normalize_becomes_diagonal_dense(self):
        mean = np.array([1.0, -2.0])
        std = np.array([2.0, 4.0])
        net = Network((2,), (Normalize(mean, std),))
        folded = fold_affine_layers(net)
        assert len(folded.layers) == 1
        layer = folded.layers[0]
        assert isinstance(layer, Dense)
        assert np.array_equal(layer.weights, np.diag(1.0 / std))
        assert np.array_equal(layer.bias, -mean / std)

    def test_dense_pair_composes(self):
        rng = np.random.default_rng(0)
        w1, b1 = rng.normal(0, 1, (3, 2)), rng.normal(0, 1, 3)
        w2, b2 = rng.normal(0, 1, (4, 3)), rng.normal(0, 1, 4)
        net = Network((2,), (Dense(w1, b1), Dense(w2, b2)))
        folded = fold_affine_layers(net)
        assert len(folded.layers) == 1
        assert np.allclose(folded.layers[0].weights, w2 @ w1)
        assert np.allclose(folded.layers[0].bias, w2 @ b1 + b2)

    def test_relu_is_a_barrier(self):
        rng = np.random.default_rng(1)
        net = Network(
            (2,),
            (
                Dense(rng.normal(0, 1, (3, 2)), rng.normal(0, 1, 3)),
                ReLU(),
                Dense(rng.normal(0, 1, (2, 3)), rng.normal(0, 1, 2)),
            ),
        )
        folded = fold_affine_layers(net)
        assert len(folded.layers) == len(net.layers)

    def test_forward_preserved_on_random_inputs(self):
        rng = np.random.default_rng(2)
        net = Network(
            (3,),
            (
                Normalize(rng.normal(0, 1, 3), rng.uniform(0.5, 2.0, 3)),
                Dense(rng.normal(0, 1, (5, 3)), rng.normal(0, 1, 5)),
                Dense(rng.normal(0, 1, (4, 5)), rng.normal(0, 1, 4)),
                ReLU(),
                Dense(rng.normal(0, 1, (3, 4)), rng.normal(0, 1, 3)),
                Normalize(rng.normal(0, 1, 3), rng.uniform(0.5, 2.0, 3)),
            ),
        )
        folded = fold_affine_layers(net)
        assert len(folded.layers) == 3  # dense, relu, dense
        xs = rng.normal(0, 3, (100,) + net.input_shape)
        a = batch_forward(net, xs)
        b = batch_forward(folded, xs)
        assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(a)))

    def test_flatten_dense_run_folds(self):
        rng = np.random.default_rng(4)
        net = Network(
            (2, 3, 3),
            (Flatten(), Dense(rng.normal(0, 1, (4, 18)), rng.normal(0, 1, 4))),
        )
        folded = fold_affine_layers(net)
        assert len(folded.layers) == 2
        assert isinstance(folded.layers[0], Flatten)
        x = rng.normal(0, 1, net.input_shape)
        assert np.allclose(forward(net, x), forward(folded, x), atol=1e-12)

    def test_conv_left_untouched(self):
        rng = np.random.default_rng(5)
        net = Network(
            (1, 4, 4),
            (
                Normalize(np.array([0.5]), np.array([2.0])),
                Conv2D(rng.normal(0, 1, (2, 1, 3, 3)), rng.normal(0, 1, 2), (1, 1), (1, 1)),
                Flatten(),
                Dense(rng.normal(0, 1, (3, 32)), rng.normal(0, 1, 3)),
            ),
        )
        folded = fold_affine_layers(net)
        assert any(isinstance(l, Conv2D) for l in folded.layers)
        assert any(isinstance(l, Normalize) for l in folded.layers)
        x = rng.normal(0, 1, net.input_shape)
        assert np.allclose(forward(net, x), forward(folded, x), atol=1e-12)
