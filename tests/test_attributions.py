import tracemalloc

import numpy as np
import pytest

from linrestrict import (
    Conv2D,
    CountError,
    DegenerateError,
    Dense,
    Flatten,
    MaxPool,
    Network,
    QueryError,
    ReLU,
    UndefinedError,
    exact_ig,
    find_m_tilde,
    forward,
    gradient,
    relative_error,
    riemann_ig,
    samples_to_tolerance,
)
from linrestrict import attributions
from linrestrict.attributions import ENDPOINT_TOL
from linrestrict.exactline import LineQuery, exactline_network
from linrestrict.network import batch_gradient
from oracle_utils import loan_network, random_conv_pool_network, random_dense_relu_network

RELU_1D = Network((1,), (ReLU(),))
BL_1D = np.array([-1.0])
X_1D = np.array([1.0])


def _narrow_ramp():
    # all the output change happens in a width-1e-4 ramp just before the
    # input; every uniform left sample up to the default cap misses it
    delta = 1e-4
    return Network(
        (1,), (Dense(np.array([[1.0 / delta]]), np.array([-(1 - delta) / delta])), ReLU())
    )


def _direct_left_sum(net, bl, x, k, m):
    """Independent left-Riemann evaluation by plain python summation."""
    total = np.zeros(bl.size)
    for i in range(m):
        total += gradient(net, bl + (i / m) * (x - bl), k).reshape(-1)
    return (x - bl).reshape(-1) * total / m


class TestExactIG:
    def test_1d_relu_completeness_is_exact(self):
        rep = exact_ig(RELU_1D, BL_1D, X_1D, 0)
        assert rep.values.tolist() == [1.0]
        assert rep.completeness_gap_abs == 0.0
        assert rep.partitions_used == 2

    def test_loan_sums_to_output_difference(self):
        net = loan_network()
        bl = np.array([20.0, 30.0])
        x = np.array([30.0, 50.0])
        rep = exact_ig(net, bl, x, 1)
        delta = forward(net, x)[1] - forward(net, bl)[1]
        assert abs(delta - (-4.0)) < 1e-12
        assert abs(rep.values.sum() - delta) <= 1e-9

    def test_affine_single_partition_closed_form(self):
        rng = np.random.default_rng(1)
        w = rng.normal(0, 1, (3, 4))
        net = Network((4,), (Dense(w, rng.normal(0, 1, 3)),))
        bl, x = rng.normal(0, 1, 4), rng.normal(0, 1, 4)
        rep = exact_ig(net, bl, x, 2)
        assert rep.partitions_used == 1
        assert np.allclose(rep.values, (x - bl) * w[2], atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_maxpool_network_completeness(self, seed):
        # every pooling argmax is fixed inside a piece, so the per-piece
        # gradient rule is exact on max-pool nets too
        rng = np.random.default_rng(2300 + seed)
        net = random_conv_pool_network(rng)
        bl, x = rng.normal(0, 1, (1, 6, 6)), rng.normal(0, 1, (1, 6, 6))
        rep = exact_ig(net, bl, x, 1)
        delta = forward(net, x).reshape(-1)[1] - forward(net, bl).reshape(-1)[1]
        assert rep.partitions_used > 1
        assert rep.completeness_gap_abs <= 1e-12 * max(abs(delta), 1.0)

    def test_maxpool_network_matches_trapezoid(self):
        rng = np.random.default_rng(2310)
        net = random_conv_pool_network(rng)
        bl, x = rng.normal(0, 1, (1, 6, 6)), rng.normal(0, 1, (1, 6, 6))
        ex = exact_ig(net, bl, x, 2)
        m = 20_000
        err = relative_error(riemann_ig(net, bl, x, 2, m, "trapezoid"), ex)
        # the sum errs only in sample intervals holding a kink, so its
        # error scales with pieces / m
        assert err <= 0.1 * ex.partitions_used / m

    def test_identical_endpoints_rejected(self):
        with pytest.raises(QueryError):
            exact_ig(RELU_1D, X_1D, X_1D, 0)

    @pytest.mark.parametrize("seed", range(30))
    def test_completeness_on_random_networks(self, seed):
        rng = np.random.default_rng(2000 + seed)
        net = random_dense_relu_network(rng)
        bl = rng.normal(0, 2, net.input_shape)
        x = rng.normal(0, 2, net.input_shape)
        k = int(rng.integers(0, net.output_size))
        rep = exact_ig(net, bl, x, k)
        delta = forward(net, x).reshape(-1)[k] - forward(net, bl).reshape(-1)[k]
        assert rep.completeness_gap_abs <= 1e-6 * max(abs(delta), 1e-12)

    def test_swap_negates_1d_exactly(self):
        a = exact_ig(RELU_1D, BL_1D, X_1D, 0)
        b = exact_ig(RELU_1D, X_1D, BL_1D, 0)
        assert np.array_equal(a.values, -b.values)

    @pytest.mark.parametrize("seed", range(5))
    def test_swap_negates_random(self, seed):
        # partition ratios reverse and midpoints coincide, so the two runs
        # differ only by last-ulp rounding of the lerp arithmetic
        rng = np.random.default_rng(2100 + seed)
        net = random_dense_relu_network(rng, din=10, widths=[12], out_dim=6)
        bl, x = rng.normal(0, 2, 10), rng.normal(0, 2, 10)
        k = int(rng.integers(0, 6))
        a = exact_ig(net, bl, x, k)
        b = exact_ig(net, x, bl, k)
        scale = np.abs(a.values).max() + 1e-12
        assert np.all(np.abs(a.values + b.values) <= 1e-12 * (1.0 + scale))


class TestRiemannIG:
    def test_1d_left_two_samples(self):
        # gradients at -1 and 0 are both zero under the inactive-at-zero rule
        rep = riemann_ig(RELU_1D, BL_1D, X_1D, 0, 2, "left")
        assert rep.values.tolist() == [0.0]

    def test_1d_right_two_samples(self):
        rep = riemann_ig(RELU_1D, BL_1D, X_1D, 0, 2, "right")
        assert rep.values.tolist() == [1.0]

    def test_1d_trapezoid_two_samples(self):
        rep = riemann_ig(RELU_1D, BL_1D, X_1D, 0, 2, "trapezoid")
        assert rep.values.tolist() == [0.5]

    def test_zero_samples_rejected(self):
        with pytest.raises(CountError):
            riemann_ig(RELU_1D, BL_1D, X_1D, 0, 0, "left")

    @pytest.mark.parametrize("m", [1, 3, 7, 20])
    def test_left_matches_direct_summation(self, m):
        rng = np.random.default_rng(m)
        net = random_dense_relu_network(rng, din=6, widths=[8], out_dim=4)
        bl, x = rng.normal(0, 2, 6), rng.normal(0, 2, 6)
        rep = riemann_ig(net, bl, x, 1, m, "left")
        want = _direct_left_sum(net, bl, x, 1, m)
        assert np.allclose(rep.values, want, atol=1e-12)


class TestRelativeError:
    def _rep(self, values):
        from linrestrict.attributions import AttributionReport

        return AttributionReport("exact", np.asarray(values, dtype=float), 0.0, 0.0)

    def test_identical_reports(self):
        assert relative_error(self._rep([1.0, -2.0]), self._rep([1.0, -2.0])) == 0.0

    def test_double_is_error_one(self):
        assert relative_error(self._rep([2.0, -4.0]), self._rep([1.0, -2.0])) == 1.0

    def test_zero_exact_undefined(self):
        with pytest.raises(UndefinedError):
            relative_error(self._rep([1.0]), self._rep([0.0]))


class TestFindMTilde:
    def test_affine_needs_one_sample(self):
        rng = np.random.default_rng(3)
        net = Network((3,), (Dense(rng.normal(0, 1, (2, 3)), rng.normal(0, 1, 2)),))
        bl, x = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
        res = find_m_tilde(net, bl, x, 0)
        assert res.m == 1

    def test_1d_relu_smallest_count(self):
        # left-sum completeness gap is 2/m for even m but only 1/m for odd
        # m (no sample lands exactly on the kink), so the first count
        # within 5% is 21; direct summation confirms
        res = find_m_tilde(RELU_1D, BL_1D, X_1D, 0)
        assert res.m == 21
        for m in (19, 20):
            assert abs(_direct_left_sum(RELU_1D, BL_1D, X_1D, 0, m).sum() - 1.0) > 0.05
        assert abs(_direct_left_sum(RELU_1D, BL_1D, X_1D, 0, 21).sum() - 1.0) <= 0.05

    def test_narrow_ramp_exceeds_cap(self):
        res = find_m_tilde(_narrow_ramp(), np.array([0.0]), np.array([1.0]), 0)
        assert res.m is None

    def test_equal_outputs_degenerate(self):
        with pytest.raises(DegenerateError):
            find_m_tilde(RELU_1D, np.array([-2.0]), np.array([-1.0]), 0)

    def test_identical_endpoints_are_a_query_error(self):
        # as in exact_ig and samples_to_tolerance, not a DegenerateError
        with pytest.raises(QueryError):
            find_m_tilde(RELU_1D, X_1D, X_1D.copy(), 0)


class TestSamplesToTolerance:
    def test_affine_every_scheme_one_sample(self):
        rng = np.random.default_rng(4)
        net = Network((3,), (Dense(rng.normal(0, 1, (2, 3)), rng.normal(0, 1, 2)),))
        bl, x = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
        for scheme in ("left", "right", "trapezoid"):
            assert samples_to_tolerance(net, bl, x, 0, scheme).m == 1

    def test_1d_relu_left(self):
        # even-m error 2/m, odd-m error 1/m; the stability window must
        # clear the even counts, whose error at m=40 sits within one ulp
        # of the 5% threshold — this build's summation lands just below,
        # making 39 the smallest window start
        res = samples_to_tolerance(RELU_1D, BL_1D, X_1D, 0, "left")
        assert res.m == 39

    def test_1d_relu_right(self):
        # even-m right sums are exact here; odd-m error 1/m clears 5%
        # from m=21 on, so the window can start at 20
        res = samples_to_tolerance(RELU_1D, BL_1D, X_1D, 0, "right")
        assert res.m == 20

    def test_1d_relu_trapezoid(self):
        # odd-m trapezoid sums are exact (the kink falls mid-interval);
        # even-m error 1/m sits one ulp above 5% at m=20 in this build,
        # pushing the first valid window start to 21
        res = samples_to_tolerance(RELU_1D, BL_1D, X_1D, 0, "trapezoid")
        assert res.m == 21

    def test_window_minimality_against_oracle(self):
        # windows starting below the returned counts must contain an even
        # count failing by a clear margin (not an ulp artifact)
        for scheme, got in (("left", 39), ("trapezoid", 21)):
            res = samples_to_tolerance(RELU_1D, BL_1D, X_1D, 0, scheme)
            assert res.m == got
            for m in range(1, got - 1):
                window = range(m, m + 6)
                worst = max(_oracle_error(scheme, mp) for mp in window)
                assert worst > 0.05 - 1e-12

    def test_cap_returns_none(self):
        res = samples_to_tolerance(_narrow_ramp(), np.array([0.0]), np.array([1.0]), 0, "left")
        assert res.m is None


class TestSearchArguments:
    @pytest.fixture
    def no_partition(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the partition was built before the arguments were checked")

        monkeypatch.setattr(attributions, "exactline_network", fail)

    def test_negative_stability_rejected(self, no_partition):
        # an empty window would otherwise pass at once and return m = 1
        with pytest.raises(CountError):
            samples_to_tolerance(RELU_1D, BL_1D, X_1D, 0, "left", stability=-3)

    def test_zero_stability_allowed(self):
        assert samples_to_tolerance(RELU_1D, BL_1D, X_1D, 0, "right", stability=0).m == 2

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, no_partition, cap):
        with pytest.raises(CountError):
            samples_to_tolerance(RELU_1D, BL_1D, X_1D, 0, "left", cap=cap)
        with pytest.raises(CountError):
            find_m_tilde(RELU_1D, BL_1D, X_1D, 0, cap=cap)

    def test_unknown_scheme_rejected(self, no_partition):
        with pytest.raises(ValueError, match="unknown scheme"):
            samples_to_tolerance(RELU_1D, BL_1D, X_1D, 0, "midpoint")

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -0.5])
    def test_bad_tolerance_rejected(self, no_partition, tol):
        with pytest.raises(CountError, match="tolerance"):
            samples_to_tolerance(RELU_1D, BL_1D, X_1D, 0, "left", tol=tol)
        with pytest.raises(CountError, match="tolerance"):
            find_m_tilde(RELU_1D, BL_1D, X_1D, 0, tol=tol)

    def test_zero_tolerance_allowed(self):
        # the left-sum error on the 1-D clamp never reaches zero
        assert samples_to_tolerance(RELU_1D, BL_1D, X_1D, 0, "left", tol=0.0, cap=5).m is None


def _reference_search(net, bl, x, k, scheme, tol, stability, cap):
    """The search by definition: one riemann_ig call per sample count."""
    exact = exact_ig(net, bl, x, k)
    errs = {}

    def err(m):
        if m not in errs:
            errs[m] = relative_error(riemann_ig(net, bl, x, k, m, scheme), exact)
        return errs[m]

    for m in range(1, cap + 1):
        if all(err(mp) <= tol for mp in range(m, m + stability + 1)):
            return m
    return None


def _reference_m_tilde(net, bl, x, k, tol, cap):
    delta = forward(net, x).reshape(-1)[k] - forward(net, bl).reshape(-1)[k]
    for m in range(1, cap + 1):
        if riemann_ig(net, bl, x, k, m, "left").completeness_gap_abs <= tol * abs(delta):
            return m
    return None


def _assert_searches_match(net, bl, x, k, tol, stability, cap, m_tilde_tol):
    """Both searches against the reference loops; returns the m values."""
    found = []
    for scheme in ("left", "right", "trapezoid"):
        got = samples_to_tolerance(net, bl, x, k, scheme, tol, stability, cap).m
        assert got == _reference_search(net, bl, x, k, scheme, tol, stability, cap), scheme
        found.append(got)
    got = find_m_tilde(net, bl, x, k, m_tilde_tol, cap).m
    assert got == _reference_m_tilde(net, bl, x, k, m_tilde_tol, cap)
    return found + [got]


class TestSearchEquivalence:
    """The searches read gradients from one partition; they must return
    the m that per-m riemann_ig calls define."""

    def test_dense_relu_nets(self):
        found = []
        for seed in range(8):
            rng = np.random.default_rng(5000 + seed)
            net = random_dense_relu_network(rng, din=8, widths=[16, 16], out_dim=4)
            bl, x = rng.normal(0, 2, 8), rng.normal(0, 2, 8)
            k = int(rng.integers(0, 4))
            found += _assert_searches_match(net, bl, x, k, 0.02, 3, 40, 0.005)
        # the caps are hit often enough to check the None path too
        assert None in found and sum(m is not None for m in found) >= 10

    def test_conv_strided_net(self):
        rng = np.random.default_rng(5100)
        net = Network(
            (1, 6, 6),
            (
                Conv2D(rng.normal(0, 0.5, (3, 1, 3, 3)), rng.normal(0, 0.2, 3), (1, 1), (1, 1)),
                ReLU(),
                Conv2D(rng.normal(0, 0.5, (4, 3, 3, 3)), rng.normal(0, 0.2, 4), (2, 2), (1, 1)),
                ReLU(),
                Flatten(),
                Dense(rng.normal(0, 0.5, (5, 36)), rng.normal(0, 0.2, 5)),
            ),
        )
        found = []
        for _ in range(3):
            bl, x = rng.normal(0, 1, (1, 6, 6)), rng.normal(0, 1, (1, 6, 6))
            found += _assert_searches_match(net, bl, x, 2, 0.02, 3, 40, 0.005)
        assert any(m is not None for m in found)

    def test_kinks_on_sample_ratios(self):
        # kinks at ratios 1/4 and 1/2; at 1/2 two opposed units both sit at
        # zero, so the gradient there (0) matches neither neighbour (-1, +1)
        net = Network(
            (1,),
            (
                Dense(np.array([[1.0], [1.0], [-1.0]]), np.array([-0.25, -0.5, 0.5])),
                ReLU(),
                Dense(np.array([[0.5, 1.0, 1.0]]), np.zeros(1)),
            ),
        )
        bl, x = np.array([0.0]), np.array([1.0])
        assert exact_ig(net, bl, x, 0).partitions_used == 3
        assert gradient(net, np.array([0.5]), 0).tolist() == [0.5]
        found = _assert_searches_match(net, bl, x, 0, 0.05, 5, 200, 0.05)
        assert all(m is not None for m in found)

    @pytest.mark.parametrize(
        "scheme, tol, stability, m",
        [
            # window 0: the first passing count is the first of a block
            ("left", 0.06, 0, 17),
            ("left", 0.031, 0, 33),
            # the windows 16..19 and 32..35 straddle a cut
            ("right", 0.06, 3, 16),
            ("right", 0.031, 3, 32),
        ],
    )
    def test_block_edges(self, scheme, tol, stability, m):
        # _sample_blocks cuts at 16|17, 32|33 and 64|65; on the 1-D clamp
        # the odd-m left and right errors are 1/m and even-m right sums are
        # exact, so these tolerances, found by scanning the reference
        # loops, put the reference m beside a cut
        cap = 40
        want = _reference_search(RELU_1D, BL_1D, X_1D, 0, scheme, tol, stability, cap)
        assert want == m
        assert samples_to_tolerance(RELU_1D, BL_1D, X_1D, 0, scheme, tol, stability, cap).m == m
        if stability == 0:
            assert _reference_m_tilde(RELU_1D, BL_1D, X_1D, 0, tol, cap) == m
            assert find_m_tilde(RELU_1D, BL_1D, X_1D, 0, tol, cap).m == m

    def test_maxpool_net_m_tilde(self):
        rng = np.random.default_rng(5200)
        net = random_conv_pool_network(rng)
        found = []
        for _ in range(3):
            bl, x = rng.normal(0, 1, (1, 6, 6)), rng.normal(0, 1, (1, 6, 6))
            found += _assert_searches_match(net, bl, x, 1, 0.02, 3, 40, 0.005)
        assert any(m is not None for m in found)


class TestSearchCost:
    @pytest.fixture
    def points(self, monkeypatch):
        """Every gradient row a search computes: the points of each
        batch_gradient call and the piece rows of each backward-only table."""
        counted = []
        inner = attributions.batch_gradient
        backward = attributions._backward

        def counting(net, x, k):
            counted.append(len(x))
            return inner(net, x, k)

        def counting_backward(net, states, n, k):
            counted.append(n)
            return backward(net, states, n, k)

        monkeypatch.setattr(attributions, "batch_gradient", counting)
        monkeypatch.setattr(attributions, "_backward", counting_backward)
        return counted

    def test_capped_searches_evaluate_few_points(self, points):
        # one sum per m through riemann_ig would evaluate 500,500 points
        # for m = 1..1000
        bl, x = np.array([0.0]), np.array([1.0])
        assert samples_to_tolerance(_narrow_ramp(), bl, x, 0, "left", cap=1000).m is None
        assert 0 < sum(points) <= 10
        points.clear()
        assert find_m_tilde(_narrow_ramp(), bl, x, 0, cap=1000).m is None
        assert 0 < sum(points) <= 10


def _per_m_ratios_weights(m, scheme):
    if scheme == "left":
        return np.arange(m) / m, np.full(m, 1.0 / m)
    if scheme == "right":
        return np.arange(1, m + 1) / m, np.full(m, 1.0 / m)
    w = np.full(m + 1, 1.0 / m)
    w[0] = w[-1] = 1.0 / (2.0 * m)
    return np.arange(m + 1) / m, w


def _per_m_values(net, part, grads, k, scheme):
    """Reference for the search blocks: values(m) for one sample count at a
    time, each endpoint sample evaluated in one batch with the other new
    endpoint samples of its m, and the m rows summed in one call."""
    a = part.alphas
    span = (part.query.end - part.query.start).reshape(-1)
    at_endpoint = {}

    def values(m):
        ratios, weights = _per_m_ratios_weights(m, scheme)
        piece = np.minimum(np.searchsorted(a, ratios, side="right") - 1, a.size - 2)
        rows = grads[piece]
        dist = np.minimum(ratios - a[piece], a[piece + 1] - ratios)
        near = dist <= ENDPOINT_TOL
        if near.any():
            keys = ratios[near].tolist()
            new = [r for r in dict.fromkeys(keys) if r not in at_endpoint]
            if new:
                direct = attributions._line_gradients(net, part.query, np.array(new), k)
                at_endpoint.update(zip(new, direct))
            rows[near] = np.stack([at_endpoint[r] for r in keys])
        return span * (weights[:, None] * rows).sum(axis=0)

    return values


def _block_cases():
    """The lines of TestSearchEquivalence, the 1-D clamp and the kinks net."""
    for seed in range(8):
        rng = np.random.default_rng(5000 + seed)
        net = random_dense_relu_network(rng, din=8, widths=[16, 16], out_dim=4)
        bl, x = rng.normal(0, 2, 8), rng.normal(0, 2, 8)
        yield net, bl, x, int(rng.integers(0, 4))
    rng = np.random.default_rng(5100)
    net = Network(
        (1, 6, 6),
        (
            Conv2D(rng.normal(0, 0.5, (3, 1, 3, 3)), rng.normal(0, 0.2, 3), (1, 1), (1, 1)),
            ReLU(),
            Conv2D(rng.normal(0, 0.5, (4, 3, 3, 3)), rng.normal(0, 0.2, 4), (2, 2), (1, 1)),
            ReLU(),
            Flatten(),
            Dense(rng.normal(0, 0.5, (5, 36)), rng.normal(0, 0.2, 5)),
        ),
    )
    for _ in range(3):
        yield net, rng.normal(0, 1, (1, 6, 6)), rng.normal(0, 1, (1, 6, 6)), 2
    rng = np.random.default_rng(5200)
    net = random_conv_pool_network(rng)
    for _ in range(3):
        yield net, rng.normal(0, 1, (1, 6, 6)), rng.normal(0, 1, (1, 6, 6)), 1
    yield RELU_1D, BL_1D, X_1D, 0
    kinks = Network(
        (1,),
        (
            Dense(np.array([[1.0], [1.0], [-1.0]]), np.array([-0.25, -0.5, 0.5])),
            ReLU(),
            Dense(np.array([[0.5, 1.0, 1.0]]), np.zeros(1)),
        ),
    )
    yield kinks, np.array([0.0]), np.array([1.0]), 0


class TestSearchBlocks:
    """The searches compute a block of sample counts at a time; every value,
    error, completeness gap and gradient batch must be the per-m one."""

    M = 60

    @pytest.fixture
    def batches(self, monkeypatch):
        seen = []
        inner = attributions.batch_gradient

        def recording(net, x, k):
            seen.append(np.array(x).tobytes())
            return inner(net, x, k)

        monkeypatch.setattr(attributions, "batch_gradient", recording)
        return seen

    @pytest.mark.parametrize("scheme", ["left", "right", "trapezoid"])
    def test_blocks_match_per_m_values(self, batches, scheme):
        for net, bl, x, k in _block_cases():
            part, grads = attributions._partition_gradients(net, LineQuery(bl, x), k)
            exact = attributions._exact_values(part, grads)
            delta = attributions._output_delta(net, part.query.start, part.query.end, k)
            exact_rep = attributions._report("exact", exact, delta)

            batches.clear()
            per_m = _per_m_values(net, part, grads, k, scheme)
            want = [per_m(m) for m in range(1, self.M + 1)]
            want_batches = list(batches)

            batches.clear()
            blocks = attributions._sample_blocks(self.M, scheme, grads.shape[1])
            values = attributions._riemann_values(net, part, grads, k, scheme)
            got = np.concatenate([values(lo, hi) for lo, hi in blocks])
            assert batches == want_batches

            # the per-block errors and gaps, as the searches compute them
            errs = np.abs(got - exact).sum(axis=1) / np.abs(exact).sum()
            gaps = np.abs(got.sum(axis=1) - delta)
            for m, w in enumerate(want, start=1):
                assert got[m - 1].tobytes() == w.tobytes(), m
                rep = attributions._report(scheme, w, delta)
                assert errs[m - 1] == relative_error(rep, exact_rep), m
                assert gaps[m - 1] == rep.completeness_gap_abs, m

    def test_huge_stability_window_reads_one_block(self):
        bl, x = np.array([0.0]), np.array([1.0])
        tracemalloc.start()
        try:
            res = samples_to_tolerance(_narrow_ramp(), bl, x, 0, "left", stability=10**9, cap=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.m is None
        assert peak < attributions._SEARCH_BLOCK_ELEMS * 8

    def test_large_cap_holds_one_block_beyond_the_partition(self):
        rng = np.random.default_rng(0)
        net = random_dense_relu_network(rng, din=784, widths=[64], out_dim=10)
        bl, x = rng.normal(0, 1, 784), rng.normal(0, 1, 784)
        tracemalloc.start()
        try:
            exact_ig(net, bl, x, 3)
            partition_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            # the tolerance is never met, so the search computes every count to the cap
            assert samples_to_tolerance(net, bl, x, 3, "left", 1e-6, 5, 1000).m is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < partition_peak + attributions._SEARCH_BLOCK_ELEMS * 8


def _state_cases():
    """_block_cases, plus a dead unit and pool windows with exact ties."""
    yield from _block_cases()
    # unit 1 has a zero weight row and a zero bias: exactly 0 on the whole line
    dead = Network(
        (2,),
        (
            Dense(np.array([[1.0, -1.0], [0.0, 0.0], [-1.0, 2.0]]), np.array([0.1, 0.0, -0.2])),
            ReLU(),
            Dense(np.array([[1.0, 2.0, -1.0], [0.5, 1.0, 1.0]]), np.zeros(2)),
        ),
    )
    yield dead, np.zeros(2), np.array([1.5, -0.5]), 1
    yield dead, np.zeros(2), np.array([-1.0, 1.0]), 0
    rng = np.random.default_rng(5300)
    dense = Dense(rng.normal(0, 0.5, (3, 9)), rng.normal(0, 0.2, 3))
    tie_nets = [
        Network((1, 4, 4), (ReLU(), MaxPool((2, 2), (1, 1)), Flatten(), dense)),
        Network((1, 4, 4), (MaxPool((2, 2), (1, 1)), ReLU(), Flatten(), dense)),
    ]
    for net in tie_nets:
        for _ in range(3):
            # half-integers with equal column pairs: every window holds
            # elements equal along the whole line, many of them below zero
            bl, x = (np.repeat(rng.integers(-4, 3, (1, 4, 2)) / 2, 2, axis=2) for _ in "qr")
            yield net, bl, x, int(rng.integers(0, 3))


class TestPartitionGradients:
    """The piece gradients come from the states the engine recorded; they
    must equal batch_gradient at the piece midpoints, byte for byte, and
    the partition must be the engine's plain one."""

    @pytest.mark.parametrize("fuse", [True, False])
    def test_rows_equal_batch_gradient_at_midpoints(self, monkeypatch, fuse):
        monkeypatch.setattr(
            attributions,
            "exactline_network",
            lambda net, query, **kw: exactline_network(
                net, query, fuse_relu_maxpool=fuse, **kw
            ),
        )
        for net, bl, x, k in _state_cases():
            query = LineQuery(bl, x)
            part, grads = attributions._partition_gradients(net, query, k)
            plain = exactline_network(net, query, fuse_relu_maxpool=fuse)
            assert part.alphas.tobytes() == plain.alphas.tobytes()
            assert part.postimages.tobytes() == plain.postimages.tobytes()
            assert part.origin_layers.tobytes() == plain.origin_layers.tobytes()
            a = part.alphas
            want = batch_gradient(net, query.points((a[:-1] + a[1:]) / 2.0), k)
            assert grads.tobytes() == want.reshape(a.size - 1, -1).tobytes()

    @pytest.mark.parametrize("fuse", [True, False])
    def test_collector_holds_one_state_per_nonlinear_layer(self, fuse):
        for net, bl, x, _ in _state_cases():
            states = []
            part = exactline_network(
                net, LineQuery(bl, x), fuse_relu_maxpool=fuse, _states=states
            )
            nonlinear = [
                k for k, l in enumerate(net.layers) if isinstance(l, (ReLU, MaxPool))
            ]
            assert [k for k, _, _ in states] == nonlinear
            for _, step_alphas, state in states:
                assert state.shape[0] == step_alphas.size - 1
                assert np.isin(step_alphas, part.alphas).all()


def _oracle_error(scheme, m):
    """Closed-form relative error of the 1-D example by direct summation."""
    grads = lambda t: 1.0 if -1.0 + 2.0 * t > 0 else 0.0
    if scheme == "left":
        val = 2.0 * sum(grads(k / m) for k in range(m)) / m
    elif scheme == "right":
        val = 2.0 * sum(grads(k / m) for k in range(1, m + 1)) / m
    else:
        val = (
            2.0
            * (0.5 * grads(0.0) + 0.5 * grads(1.0) + sum(grads(k / m) for k in range(1, m)))
            / m
        )
    return abs(val - 1.0)


class TestConvergence:
    @pytest.mark.parametrize("seed", range(4))
    def test_error_scales_with_partitions_over_samples(self, seed):
        rng = np.random.default_rng(2200 + seed)
        net = random_dense_relu_network(rng, din=12, widths=[16, 16], out_dim=8)
        bl, x = rng.normal(0, 2, 12), rng.normal(0, 2, 12)
        k = int(rng.integers(0, 8))
        ex = exact_ig(net, bl, x, k)
        if np.abs(ex.values).sum() < 1e-9:
            pytest.skip("degenerate attribution vector")
        m = 10_000
        bound = 10.0 * ex.partitions_used / m
        for scheme in ("left", "right", "trapezoid"):
            err = relative_error(riemann_ig(net, bl, x, k, m, scheme), ex)
            assert err <= bound
