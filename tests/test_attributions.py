import numpy as np
import pytest

from linrestrict import (
    Conv2D,
    CountError,
    DegenerateError,
    Dense,
    Flatten,
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
        counted = []
        inner = attributions.batch_gradient

        def counting(net, x, k):
            counted.append(len(x))
            return inner(net, x, k)

        monkeypatch.setattr(attributions, "batch_gradient", counting)
        return counted

    def test_capped_searches_evaluate_few_points(self, points):
        # one sum per m through riemann_ig would evaluate 500,500 points
        # for m = 1..1000
        bl, x = np.array([0.0]), np.array([1.0])
        assert samples_to_tolerance(_narrow_ramp(), bl, x, 0, "left", cap=1000).m is None
        assert sum(points) <= 10
        points.clear()
        assert find_m_tilde(_narrow_ramp(), bl, x, 0, cap=1000).m is None
        assert sum(points) <= 10


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
