import dataclasses
import re
import tracemalloc

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
    batch_gradient,
    forward,
    gradient,
    network,
    validate_network,
)
from linrestrict.network import _conv_forward, layer_output_shape, pool_window_indices
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
        with pytest.raises(ShapeError, match="layer 1"):
            net = Network(
                (2,),
                (
                    Dense(np.zeros((2, 2)), np.zeros(2)),
                    Dense(np.zeros((1, 3)), np.zeros(1)),
                ),
            )
            validate_network(net)

    def test_empty_layer_list(self):
        with pytest.raises(ShapeError):
            validate_network(Network((2,), ()))

    def test_dense_bias_length_mismatch(self):
        with pytest.raises(ShapeError):
            Dense(np.zeros((2, 2)), np.zeros(3))

    def test_normalize_wrong_channel_count(self):
        with pytest.raises(ShapeError, match="layer 0"):
            net = Network((3,), (Normalize(np.zeros(2), np.ones(2)),))
            validate_network(net)

    @pytest.mark.parametrize(
        "input_shape, layers, message",
        [
            ((2,), (), "network has no layers"),
            ((0,), (ReLU(),), "input shape (0,) must be positive"),
            (
                (2,),
                (Dense(np.zeros((2, 2)), np.zeros(2)), Dense(np.zeros((1, 3)), np.zeros(1))),
                "layer 1: dense expects 1-D input of size 3, got (2,)",
            ),
            (
                (3,),
                (Normalize(np.zeros(2), np.ones(2)),),
                "layer 0: normalize expects 2 channels, input has 3",
            ),
            (
                (2,),
                (Dense(np.eye(2), np.zeros(2)), type("Scaled", (), {})()),
                "layer 1: unknown layer type Scaled",
            ),
        ],
        ids=["no-layers", "zero-input", "dense-chain", "normalize-channels", "unknown-layer"],
    )
    def test_constructor_rejects_invalid_stack(self, input_shape, layers, message):
        with pytest.raises(ShapeError, match=re.escape(message)):
            Network(input_shape, layers)
        with pytest.raises(ShapeError, match=re.escape(message)):
            dataclasses.replace(loan_network(), input_shape=input_shape, layers=layers)

    def test_constructor_stores_layer_shapes(self):
        net = loan_network()
        assert net.shapes == tuple(network.layer_shapes(net)) == ((2,), (2,), (2,))
        assert net.output_shape == (2,)

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

    @pytest.mark.parametrize("in_shape", [(4,), (3, 2, 2)])
    def test_normalize_scales_gradient_per_channel(self, in_shape):
        rng = np.random.default_rng(7)
        c = in_shape[0]
        mean, std = rng.normal(0, 1, c), rng.uniform(0.5, 2.0, c)
        per_channel = (c,) + (1,) * (len(in_shape) - 1)
        m, s = mean.reshape(per_channel), std.reshape(per_channel)
        x = rng.normal(0, 3, in_shape)
        norm = Normalize(mean, std)
        assert np.array_equal(forward(Network(in_shape, (norm,)), x), (x - m) / s)
        w = rng.normal(0, 1, (3, int(np.prod(in_shape))))
        net = Network(in_shape, (norm, Flatten(), Dense(w, rng.normal(0, 1, 3))))
        for k in range(3):
            assert np.array_equal(gradient(net, x, k), w[k].reshape(in_shape) / s)

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


CONV_CASES = [
    ((1, 4, 4), (2, 1, 2, 2), (1, 1), (0, 0)),
    ((2, 5, 5), (3, 2, 3, 3), (1, 1), (1, 1)),
    ((3, 8, 8), (4, 3, 3, 3), (2, 2), (1, 1)),
    ((2, 6, 7), (2, 2, 2, 3), (2, 1), (0, 1)),
]
CONV_GEOMETRIES = pytest.mark.parametrize("in_shape,kshape,stride,padding", CONV_CASES)


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

    @pytest.mark.parametrize(
        "in_shape,kshape,stride,padding",
        CONV_CASES + [((8, 9, 9), (8, 8, 3, 3), (2, 2), (1, 1))],
    )
    def test_rows_do_not_depend_on_batch_or_chunk(
        self, in_shape, kshape, stride, padding, monkeypatch
    ):
        # non-integer weights round, so a GEMM whose shape followed the
        # batch or chunk size would change the last bits of some rows
        rng = np.random.default_rng(sum(kshape))
        layer = Conv2D(rng.normal(0, 1, kshape), rng.normal(0, 1, kshape[0]), stride, padding)
        net = Network(in_shape, (layer,))
        x = rng.normal(0, 1, (40,) + in_shape)
        ks = rng.choice(net.output_size, size=3, replace=False)
        want_y = [forward(net, xi) for xi in x]
        want_g = {k: [gradient(net, xi, k) for xi in x] for k in ks}
        for chunk_bytes in (1, network._CONV_CHUNK_BYTES, 64 * 1024 * 1024):
            monkeypatch.setattr(network, "_CONV_CHUNK_BYTES", chunk_bytes)
            y = batch_forward(net, x)
            assert all(np.array_equal(y[i], want_y[i]) for i in range(len(x)))
            for k in ks:
                g = batch_gradient(net, x, k)
                assert all(np.array_equal(g[i], want_g[k][i]) for i in range(len(x)))

    def test_forward_transient_memory_within_chunk_bound(self):
        rng = np.random.default_rng(12)
        in_shape = (16, 10, 10)
        layer = Conv2D(rng.normal(0, 0.1, (12, 16, 3, 3)), np.zeros(12), (1, 1), (1, 1))
        v = rng.normal(0, 1, (1500,) + in_shape)
        tracemalloc.start()
        try:
            out = _conv_forward(layer, v, in_shape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 4 * network._CONV_CHUNK_BYTES


class TestMaxPoolBackward:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_add_at_scatter(self, seed):
        # overlapping windows route several terms to one input, and
        # half-integer inputs make argmax ties common; the ReLU after the
        # pool sends signed zeros into the scatter
        rng = np.random.default_rng(900 + seed)
        for _ in range(50):
            c, h, w = (int(d) for d in rng.integers((1, 3, 3), (4, 8, 8)))
            window = tuple(int(d) for d in rng.integers(2, 4, 2))
            stride = tuple(int(d) for d in rng.integers(1, 3, 2))
            pool = MaxPool(window, stride)
            _, ho, wo = layer_output_shape(pool, (c, h, w))
            dense = Dense(rng.normal(0, 1, (3, c * ho * wo)), rng.normal(0, 1, 3))
            net = Network((c, h, w), (pool, ReLU(), Flatten(), dense))
            x = rng.integers(-3, 4, (20, c, h, w)) * 0.5
            k = int(rng.integers(0, 3))

            n = len(x)
            win = pool_window_indices((c, h, w), window, stride)
            gathered = x.reshape(n, -1)[:, win]
            pos = win[np.arange(len(win)), gathered.argmax(axis=2)]
            g = np.zeros((n, 3))
            g[:, k] = 1.0
            g = (g @ dense.weights) * (gathered.max(axis=2) > 0)
            want = np.zeros((n, c * h * w))
            np.add.at(want, (np.arange(n)[:, None], pos), g)

            got = batch_gradient(net, x, k).reshape(n, -1)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
