import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcast.tensor as T


def t64(data, requires_grad=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestElementwise:
    def test_tanh_zero(self):
        assert T.tanh(t64([0.0])).data.item() == 0.0

    def test_sigmoid_zero(self):
        assert T.sigmoid(t64([0.0])).data.item() == 0.5

    def test_relu_negative(self):
        assert T.relu(t64([-3.0])).data.item() == 0.0

    def test_sigmoid_saturates_without_overflow(self):
        out = T.sigmoid(t64([-500.0, 500.0]))
        assert np.allclose(out.data, [0.0, 1.0])

    def test_binary_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError) as exc:
            T.mul(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))))
        assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)

    def test_float32_stays_float32(self):
        a = T.Tensor(np.ones((2, 2), dtype=np.float32))
        out = T.add(T.mul(a, a), a)
        assert out.dtype == np.float32

    def test_scalar_reduction_keeps_dtype(self):
        a = T.Tensor(np.ones((3,), dtype=np.float64))
        assert T.mul(T.sum_over_axis(a), T.sum_over_axis(a)).dtype == np.float64


def conv(x, kernel, bias, stride):
    """The encoder's 1x3 node-wise convolution, kernel [c_out, c_in, 1, 3]."""
    return T.channel_linear(T.time_columns(x, stride), kernel, bias)


class TestConvLengths:
    @pytest.mark.parametrize("t,stride,expected", [(12, 1, 12), (12, 2, 6), (3, 2, 2)])
    def test_length_formula(self, t, stride, expected):
        assert T.conv_time_length(t, stride) == expected

    def test_conv_output_shape(self):
        rng = np.random.default_rng(0)
        x = T.Tensor(rng.normal(size=(2, 3, 4, 12)).astype(np.float32))
        k = T.Tensor(rng.normal(size=(5, 3, 1, 3)).astype(np.float32))
        b = T.Tensor(np.zeros(5, dtype=np.float32))
        assert conv(x, k, b, stride=2).shape == (2, 5, 4, 6)

    def test_conv_rejects_bad_kernel(self):
        x = T.Tensor(np.zeros((1, 2, 3, 12), dtype=np.float32))
        k = T.Tensor(np.zeros((4, 2, 1, 5), dtype=np.float32))
        b = T.Tensor(np.zeros(4, dtype=np.float32))
        with pytest.raises(T.ShapeError):
            conv(x, k, b, stride=1)

    def test_conv_node_independence_is_bitwise(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 5, 12)).astype(np.float32)
        k = T.Tensor(rng.normal(size=(4, 3, 1, 3)).astype(np.float32))
        b = T.Tensor(rng.normal(size=4).astype(np.float32))
        base = conv(T.Tensor(x), k, b, stride=1).data
        bumped = x.copy()
        bumped[:, :, 2, :] += 7.5
        out = conv(T.Tensor(bumped), k, b, stride=1).data
        others = [j for j in range(5) if j != 2]
        assert np.array_equal(base[:, :, others, :], out[:, :, others, :])
        assert not np.array_equal(base[:, :, 2, :], out[:, :, 2, :])

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_matches_zero_padded_reference(self, stride):
        # a wrong column order (tap-major, or taps reversed) fails this
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 4, 9))
        k = rng.normal(size=(5, 3, 1, 3))
        b = rng.normal(size=5)
        xp = np.pad(x, ((0, 0), (0, 0), (0, 0), (1, 1)))
        t_out = T.conv_time_length(9, stride)
        want = np.empty((2, 5, 4, t_out))
        for u in range(t_out):
            window = xp[..., stride * u:stride * u + 3]          # [b, c_in, n, 3]
            want[..., u] = np.einsum("oik,bink->bon", k[:, :, 0], window) + b[:, None]
        got = conv(T.Tensor(x.astype(np.float32)), T.Tensor(k.astype(np.float32)),
                   T.Tensor(b.astype(np.float32)), stride).data
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


class TestLayerNorm:
    def test_constant_channels_normalize_to_zero(self):
        x = T.Tensor(np.full((1, 4, 2, 3), 7.0, dtype=np.float64))
        out = T.layer_norm(x, t64(np.ones(4)), t64(np.zeros(4)))
        assert np.allclose(out.data, 0.0)

    def test_unit_variance_preserved(self):
        x = T.Tensor(np.array([1.0, -1.0], dtype=np.float64).reshape(1, 2, 1, 1))
        out = T.layer_norm(x, t64(np.ones(2)), t64(np.zeros(2)))
        assert np.allclose(out.data.ravel(), [1.0, -1.0], atol=1e-4)

    def test_zero_gamma_yields_beta(self):
        rng = np.random.default_rng(2)
        x = T.Tensor(rng.normal(size=(2, 3, 2, 2)))
        out = T.layer_norm(x, t64(np.zeros(3)), t64(np.full(3, 5.0)))
        assert np.allclose(out.data, 5.0)


def cosine(a, b) -> float:
    """cosine_correlate of one representative against one feature vector."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return T.cosine_correlate(t64(a.reshape(1, -1, 1)), t64(b.reshape(1, -1, 1, 1))).data.item()


class TestCosine:
    def test_identical_vectors(self):
        a = [1.0, 2.0, 3.0]
        assert cosine(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert cosine([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_opposite_vectors(self):
        assert cosine([1.0, -2.0], [-1.0, 2.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_norm_guard(self):
        assert cosine([0.0, 0.0], [1.0, 1.0]) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_scale_invariance(self, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=6) + 0.1
        b = rng.normal(size=6) + 0.1
        c1 = cosine(a, b)
        c2 = cosine(k * a, b)
        assert c1 == pytest.approx(c2, abs=1e-6)


class TestLinAlg:
    def test_channel_linear_is_batch_invariant_bitwise(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(64, 64, 10, 12)).astype(np.float32)
        w = rng.normal(size=(64, 64)).astype(np.float32)
        batched = T.channel_linear(T.Tensor(x), T.Tensor(w)).data[0]
        alone = T.channel_linear(T.Tensor(x[:1]), T.Tensor(w)).data[0]
        assert np.array_equal(batched, alone)
        assert np.array_equal(batched, (w @ x[0].reshape(64, -1)).reshape(64, 10, 12))

    def test_max_over_channel_single_channel(self):
        # edge_max is the channel max of R; with one channel and unit
        # correlations every target sees the source's own feature
        x = np.arange(8, dtype=np.float64).reshape(2, 1, 4)
        out = T.edge_max(t64(np.ones((2, 4, 4, 1))), t64(x[..., None]))
        assert np.array_equal(out.data, np.broadcast_to(x[:, 0, None, :], (2, 4, 4)))

    def test_max_tie_routes_to_lowest_index(self):
        x = t64(np.array([[[[2.0]], [[2.0]], [[1.0]]]]), requires_grad=True)  # [1, 3, 1, 1]
        out = T.sum_over_axis(T.edge_max(t64(np.ones((1, 1, 1, 1))), x))
        out.backward()
        assert np.array_equal(x.grad.ravel(), [1.0, 0.0, 0.0])

    def test_edge_max_nograd_value_is_bitwise_the_recorded_one(self):
        rng = np.random.default_rng(3)
        s = T.Tensor(rng.uniform(-1, 1, size=(2, 6, 6, 2)).astype(np.float32), requires_grad=True)
        f = T.Tensor(rng.normal(size=(2, 5, 6, 2)).astype(np.float32), requires_grad=True)
        with T.no_grad():
            plain = T.edge_max(s, f)
        assert np.array_equal(plain.data, T.edge_max(s, f).data)

    def test_edge_mix_is_the_relation_aggregated_through_adj(self):
        rng = np.random.default_rng(4)
        s, f, a = rng.normal(size=(2, 5, 4, 3)), rng.normal(size=(2, 6, 4, 3)), rng.normal(size=(2, 5, 4))
        rel = np.einsum("bkit,bcit->bcik", s, f)
        out = T.edge_mix(t64(s), t64(f), t64(a))
        assert np.allclose(out.data, np.einsum("bcik,bki->bck", rel, a), rtol=1e-12)

    def test_edge_ops_reject_mismatched_extents(self):
        s, f = t64(np.zeros((1, 3, 3, 2))), t64(np.zeros((1, 4, 3, 3)))
        with pytest.raises(T.ShapeError):
            T.edge_max(s, f)
        with pytest.raises(T.ShapeError):
            T.edge_mix(t64(np.zeros((1, 3, 3, 3))), f, t64(np.zeros((1, 3, 2))))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t64(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        T.sum_over_axis(x).backward()
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_square_sum_gradient(self):
        x = t64([1.0, 2.0], requires_grad=True)
        T.sum_over_axis(T.mul(x, x)).backward()
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_backward_requires_scalar(self):
        x = t64(np.ones(3), requires_grad=True)
        with pytest.raises(T.ShapeError):
            T.mul(x, x).backward()

    def test_backward_on_detached_raises(self):
        x = t64([1.0])
        with pytest.raises(T.DetachedTensorError):
            T.tanh(x).backward()

    def test_double_backward_raises(self):
        x = t64([2.0], requires_grad=True)
        loss = T.sum_over_axis(T.mul(x, x))
        loss.backward()
        with pytest.raises(T.DetachedTensorError):
            loss.backward()

    def test_no_grad_blocks_taping(self):
        x = t64([1.0], requires_grad=True)
        with T.no_grad():
            out = T.tanh(x)
        assert not out.requires_grad

    def test_intermediates_released_as_backward_passes(self):
        x = t64([1.5, -0.5], requires_grad=True)
        mid = T.tanh(x)
        prod = T.mul(mid, mid)
        loss = T.sum_over_axis(prod)
        seen = []
        fn = mid._backward_fn

        def spy(g):
            # prod's closure ran before this one; it must already be released
            seen.append((prod.grad, prod._backward_fn, prod._parents))
            fn(g)

        mid._backward_fn = spy
        loss.backward()
        assert seen == [(None, None, ())]
        assert mid.grad is None and mid._backward_fn is None and mid._parents == ()
        assert np.allclose(x.grad, 2 * np.tanh(x.data) * (1 - np.tanh(x.data) ** 2))

    def test_grad_accumulates_across_uses(self):
        x = t64([3.0], requires_grad=True)
        T.sum_over_axis(T.add(T.mul(x, x), x)).backward()
        assert np.allclose(x.grad, [7.0])  # 2x + 1


class TestDebugMode:
    def test_debug_flags_nonfinite(self):
        T.set_debug(True)
        try:
            big = T.Tensor(np.array([1e30], dtype=np.float32))
            with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
                T.mul(big, big)
        finally:
            T.set_debug(False)


class TestDeterminism:
    def test_identical_seeds_bitwise_identical_outputs(self):
        def run():
            rng = np.random.default_rng(42)
            x = T.Tensor(rng.normal(size=(2, 3, 4, 12)).astype(np.float32))
            k = T.Tensor(rng.normal(size=(5, 3, 1, 3)).astype(np.float32))
            b = T.Tensor(rng.normal(size=5).astype(np.float32))
            return T.layer_norm(T.tanh(conv(x, k, b, stride=2)),
                                T.Tensor(np.ones(5, dtype=np.float32)),
                                T.Tensor(np.zeros(5, dtype=np.float32))).data

        assert np.array_equal(run(), run())
