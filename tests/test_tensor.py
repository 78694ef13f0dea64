import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcast.tensor as T


def t64(data, requires_grad=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def block_reference(x, embed_w, embed_b, gate_w, gate_b, gamma, beta, stride, eps=1e-5):
    """The gated block in float64 numpy: zero-padded 1x3 taps, tanh * sigmoid,
    then the channel layer norm."""
    x, embed_w, embed_b, gate_w, gate_b, gamma, beta = (
        np.asarray(a, dtype=np.float64)
        for a in (x, embed_w, embed_b, gate_w, gate_b, gamma, beta))
    xp = np.pad(x, ((0, 0), (0, 0), (0, 0), (1, 1)))
    t_out = (x.shape[-1] - 1) // stride + 1
    windows = np.stack([xp[..., stride * u:stride * u + 3] for u in range(t_out)], axis=3)

    def conv(k, bias):
        return np.einsum("oik,binuk->bonu", k[:, :, 0], windows) + bias[:, None, None]

    p = np.tanh(conv(embed_w, embed_b)) / (1.0 + np.exp(-conv(gate_w, gate_b)))
    xhat = (p - p.mean(axis=1, keepdims=True)) / np.sqrt(p.var(axis=1, keepdims=True) + eps)
    return gamma[:, None, None] * xhat + beta[:, None, None]


def block_params(rng, c_in, c_out, dtype=np.float32):
    """embed_w, embed_b, gate_w, gate_b, gamma, beta drawn from rng."""
    def draw(*shape):
        return rng.normal(size=shape).astype(dtype)

    return (draw(c_out, c_in, 1, 3), draw(c_out), draw(c_out, c_in, 1, 3), draw(c_out),
            1.0 + 0.1 * draw(c_out), draw(c_out))


def block(x, *params, stride=1):
    """gated_block on raw arrays; params in gated_block's order."""
    return T.gated_block(T.Tensor(x), *(T.Tensor(p) for p in params), stride)


def gate_only(c_in, c_out, embed_w, gate_b, dtype=np.float64):
    """Block params with the given embedding kernel and gate bias, a zero gate
    kernel and embedding bias, unit gamma and zero beta."""
    zeros = np.zeros(c_out, dtype=dtype)
    return (np.asarray(embed_w, dtype=dtype), zeros, np.zeros((c_out, c_in, 1, 3), dtype=dtype),
            np.full(c_out, gate_b, dtype=dtype), np.ones(c_out, dtype=dtype), zeros)


class TestElementwise:
    def test_tanh_zero(self):
        assert T.tanh(t64([0.0])).data.item() == 0.0

    def test_sigmoid_zero(self):
        # a zero gate pre-activation opens the gate to exactly 0.5; with an
        # embedding small enough that eps matters, the norm shows the factor
        a = 2e-3
        embed_w = np.array([a, -a]).reshape(2, 1, 1, 1) * [0.0, 1.0, 0.0]
        out = block(np.ones((1, 1, 1, 1)), *gate_only(1, 2, embed_w, 0.0)).data.ravel()
        p = 0.5 * np.tanh(a)
        assert np.allclose(out, [p / np.sqrt(p * p + 1e-5), -p / np.sqrt(p * p + 1e-5)],
                           rtol=1e-12, atol=0)

    def test_relu_negative(self):
        assert T.relu(t64([-3.0])).data.item() == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_keeps_nan_and_gives_positive_zeros(self, dtype):
        x = np.array([np.nan, -1.0, -0.0, 0.0, 2.0, np.inf, -np.inf], dtype=dtype)
        y = T.relu(T.Tensor(x)).data
        assert y.dtype == dtype
        assert np.array_equal(y, [np.nan, 0, 0, 0, 2, np.inf, 0], equal_nan=True)
        assert not np.signbit(y[y == 0]).any()

    def test_sigmoid_saturates_without_overflow(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 2, 3, 4))
        embed_w = rng.normal(size=(3, 2, 1, 3))
        with np.errstate(over="raise", invalid="raise"):
            shut = block(x, *gate_only(2, 3, embed_w, -500.0)).data
            wide = block(x, *gate_only(2, 3, embed_w, 500.0)).data
        assert np.array_equal(shut, np.zeros_like(shut))       # gate 0: only beta is left
        want = block_reference(x, *gate_only(2, 3, embed_w, 500.0), stride=1)
        assert np.allclose(wide, want, rtol=0, atol=1e-12)

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


class TestConvLengths:
    @pytest.mark.parametrize("t,stride,expected", [(12, 1, 12), (12, 2, 6), (3, 2, 2)])
    def test_length_formula(self, t, stride, expected):
        assert T.conv_time_length(t, stride) == expected

    def test_conv_output_shape(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 4, 12)).astype(np.float32)
        out = block(x, *block_params(rng, 3, 5), stride=2)
        assert out.shape == (2, 5, 4, 6) and out.dtype == np.float32

    def test_conv_rejects_bad_kernel(self):
        x = np.zeros((1, 2, 3, 12), dtype=np.float32)
        k = np.zeros((4, 2, 1, 5), dtype=np.float32)
        b = np.zeros(4, dtype=np.float32)
        with pytest.raises(T.ShapeError):
            block(x, k, b, k, b, b + 1, b, stride=1)

    def test_conv_node_independence_is_bitwise(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 5, 12)).astype(np.float32)
        k = rng.normal(size=(4, 3, 1, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        params = (k, b, k[::-1].copy(), -b, np.ones(4, np.float32), np.zeros(4, np.float32))
        base = block(x, *params).data
        bumped = x.copy()
        bumped[:, :, 2, :] += 7.5
        out = block(bumped, *params).data
        others = [j for j in range(5) if j != 2]
        assert np.array_equal(base[:, :, others, :], out[:, :, others, :])
        assert not np.array_equal(base[:, :, 2, :], out[:, :, 2, :])

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_matches_zero_padded_reference(self, stride):
        # a wrong column order (tap-major, or taps reversed) fails this
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 4, 9))
        params = block_params(rng, 3, 5, dtype=np.float64)
        want = block_reference(x, *params, stride=stride)
        got = block(x.astype(np.float32), *(p.astype(np.float32) for p in params), stride=stride)
        assert got.shape == want.shape
        assert np.abs(got.data - want).max() <= 1e-6 * np.abs(want).max()


class TestGatedBlock:
    @pytest.mark.parametrize("t", [12, 9, 3, 2, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_float64_reference(self, stride, t):
        # odd t under stride 2 reads the trailing pad; every t has boundary
        # tap columns that the flat shifts must zero
        rng = np.random.default_rng(10 * t + stride)
        x = rng.normal(size=(3, 4, 5, t))
        params = block_params(rng, 4, 6, dtype=np.float64)
        got = block(x, *params, stride=stride).data
        want = block_reference(x, *params, stride=stride)
        assert got.shape == want.shape == (3, 6, 5, T.conv_time_length(t, stride))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("index,shape", [(0, (5, 3, 1, 2)), (2, (5, 3, 1, 3, 1)),
                                             (0, (5, 2, 1, 3)), (1, (4,)), (3, (5, 1)),
                                             (4, (6,)), (5, ())])
    def test_rejects_bad_parameter_shape(self, index, shape):
        rng = np.random.default_rng(0)
        params = list(block_params(rng, 3, 5))
        params[index] = np.zeros(shape, dtype=np.float32)
        with pytest.raises(T.ShapeError):
            block(np.zeros((2, 3, 4, 6), dtype=np.float32), *params)

    @pytest.mark.parametrize("stride", [0, 3])
    def test_rejects_stride_other_than_1_or_2(self, stride):
        params = block_params(np.random.default_rng(0), 3, 5)
        with pytest.raises(ValueError):
            block(np.zeros((2, 3, 4, 6), dtype=np.float32), *params, stride=stride)

    def test_rejects_non_4_axis_input(self):
        params = block_params(np.random.default_rng(0), 3, 5)
        with pytest.raises(T.ShapeError):
            block(np.zeros((3, 4, 6), dtype=np.float32), *params)

    @pytest.mark.parametrize("stride,t", [(1, 6), (2, 7)])
    def test_sample_of_a_multi_chunk_batch_is_bitwise_the_sample_alone(self, monkeypatch,
                                                                        stride, t):
        # two samples per chunk: b=5 runs as chunks of 2, 2 and 1, and sample 3
        # is the second of its chunk
        rng = np.random.default_rng(3 * t)
        b, c, n, d = 5, 3, 4, 6
        monkeypatch.setattr(T, "CACHE_BLOCK", 2 * d * n * T.conv_time_length(t, stride))
        x = rng.normal(size=(b, c, n, t)).astype(np.float32)
        params = block_params(rng, c, d)
        with T.no_grad():
            batch = block(x, *params, stride=stride).data
            alone = block(x[3:4], *params, stride=stride).data
        assert np.array_equal(batch[3], alone[0])
        # a recorded forward keeps z and 1/sigma per sample and computes the
        # same bits; its backward rebuilds the columns and x-hat chunk by chunk
        xs = T.Tensor(x, requires_grad=True)
        recorded = T.gated_block(xs, *(T.Tensor(p) for p in params), stride)
        assert np.array_equal(recorded.data, batch)
        g = rng.normal(size=recorded.shape).astype(np.float32)
        recorded._backward_fn(g)
        x3 = T.Tensor(x[3:4], requires_grad=True)
        T.gated_block(x3, *(T.Tensor(p) for p in params), stride)._backward_fn(g[3:4])
        assert xs.grad.shape == x.shape and xs.grad[3].tobytes() == x3.grad[0].tobytes()

    @pytest.mark.parametrize("stride,t", [(1, 6), (2, 7), (2, 6)])
    @pytest.mark.parametrize("block_first", [True, False])
    def test_input_gradient_adds_to_another_use_in_either_order(self, stride, t, block_first):
        # the block's input gradient either starts x.grad, handed over without
        # a copy where it has x's shape, or adds into mul's
        rng = np.random.default_rng(t)
        x = rng.normal(size=(2, 3, 4, t))
        params = [t64(p) for p in block_params(rng, 3, 5, dtype=np.float64)]
        g = rng.normal(size=(2, 5, 4, T.conv_time_length(t, stride)))
        v = rng.normal(size=x.shape)

        def grads(*uses):
            xs = t64(x, requires_grad=True)
            losses = {"block": lambda: T.sum_over_axis(T.mul(T.gated_block(xs, *params, stride),
                                                             t64(g))),
                      "mul": lambda: T.sum_over_axis(T.mul(xs, t64(v)))}
            loss = losses[uses[0]]()
            for use in uses[1:]:
                loss = T.add(loss, losses[use]())
            loss.backward()
            return xs.grad

        both = grads(*(("block", "mul") if block_first else ("mul", "block")))
        assert np.array_equal(both, grads("block") + v)
        assert both.flags.c_contiguous and both.shape == x.shape

    @pytest.mark.parametrize("stride,t", [(1, 12), (2, 13)])
    def test_recorded_forward_keeps_the_activations_and_inv_std_only(self, stride, t):
        # beyond its output a recorded block keeps z [b, 2d, m] and 1/sigma
        # [b, 1, m]; the columns [b, 3c + 1, m] and x-hat [b, d, m] are
        # rebuilt in backward, so neither may be held at batch size
        rng = np.random.default_rng(12)
        b, c, n, d = 64, 16, 40, 64
        x = T.Tensor(rng.normal(size=(b, c, n, t)).astype(np.float32), requires_grad=True)
        params = [T.Tensor(p) for p in block_params(rng, c, d)]
        m = n * T.conv_time_length(t, stride)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = T.gated_block(x, *params, stride)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = ((2 * d + 1) * m * b + 6 * T.CACHE_BLOCK) * x.data.itemsize
        assert peak - base - out.data.nbytes < kept
        assert held - base - out.data.nbytes < ((2 * d + 1) * m * b + T.CACHE_BLOCK) * x.data.itemsize

    @pytest.mark.parametrize("stride,t", [(1, 12), (2, 13)])
    def test_nograd_forward_holds_a_few_chunks_not_a_batch(self, stride, t):
        # a chunk holds 4 (stride 1) or 7 (stride 2) of the 64 samples; the
        # stride-2 case also pads x
        rng = np.random.default_rng(11)
        b, c, n, d = 64, 16, 40, 64
        x = rng.normal(size=(b, c, n, t)).astype(np.float32)
        params = [T.Tensor(p) for p in block_params(rng, c, d)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with T.no_grad():
                out = T.gated_block(T.Tensor(x), *params, stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base - out.data.nbytes < 6 * T.CACHE_BLOCK * x.itemsize


class TestLayerNorm:
    """The channel layer norm at the end of gated_block."""

    def test_constant_channels_normalize_to_zero(self):
        # identical kernel rows give a product that is constant over channels
        x = np.full((1, 2, 2, 3), 7.0)
        k = np.full((4, 2, 1, 3), 0.1)
        params = (k, np.zeros(4), k, np.zeros(4), np.ones(4), np.zeros(4))
        assert np.allclose(block(x, *params).data, 0.0)

    def test_unit_variance_preserved(self):
        # a product of (p, -p) over two channels normalizes to (1, -1)
        embed_w = np.array([1.0, -1.0]).reshape(2, 1, 1, 1) * [0.0, 1.0, 0.0]
        out = block(np.ones((1, 1, 1, 1)), *gate_only(1, 2, embed_w, 30.0))
        assert np.allclose(out.data.ravel(), [1.0, -1.0], atol=1e-4)

    def test_zero_gamma_yields_beta(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 2, 2))
        params = block_params(rng, 3, 3, dtype=np.float64)[:4] + (np.zeros(3), np.full(3, 5.0))
        assert np.allclose(block(x, *params).data, 5.0)


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

    @staticmethod
    def degenerate_inputs(dtype=np.float64):
        """rep [2, 5, 4] and feat [2, 5, 3, 2] with representative 0 of sample 0
        and feature (1, 0) of sample 1 at norm 0, and representative 2 of
        sample 1 at a norm just above eps."""
        rng = np.random.default_rng(12)
        rep = rng.normal(size=(2, 5, 4))
        feat = rng.normal(size=(2, 5, 3, 2))
        rep[0, :, 0] = 0.0
        feat[1, :, 1, 0] = 0.0
        rep[1, :, 2] *= 1.5e-8 / np.linalg.norm(rep[1, :, 2])
        return rep.astype(dtype), feat.astype(dtype)

    @staticmethod
    def gradients(rep, feat, g):
        """S and the gradients of sum(S * g) with respect to rep and feat."""
        r = T.Tensor(rep, requires_grad=True)
        f = T.Tensor(feat, requires_grad=True)
        s = T.cosine_correlate(r, f)
        T.sum_over_axis(T.mul(s, T.Tensor(g))).backward()
        return s.data, r.grad, f.grad

    def test_matches_the_masked_quotient_in_float64(self):
        # S = dots / (|rep| |feat|) where both norms exceed eps and 0 elsewhere,
        # differentiated as a quotient
        rep, feat = self.degenerate_inputs()
        g = np.random.default_rng(13).normal(size=(2, 4, 3, 2))
        eps = 1e-8
        rn = np.sqrt((rep ** 2).sum(axis=1))[:, :, None, None]
        fn = np.sqrt((feat ** 2).sum(axis=1))[:, None]
        valid = (rn > eps) & (fn > eps)
        denom = np.where(valid, rn * fn, 1.0)
        dots = np.einsum("bci,bcjt->bijt", rep, feat)
        want_s = np.where(valid, dots / denom, 0.0)
        gv = np.where(valid, g / denom, 0.0)
        gs = g * want_s
        want_drep = (np.einsum("bcjt,bijt->bci", feat, gv)
                     - rep * (gs.sum(axis=(2, 3)) / np.where(rn[..., 0, 0] > eps, rn[..., 0, 0] ** 2, 1.0))[:, None])
        want_dfeat = (np.einsum("bci,bijt->bcjt", rep, gv)
                      - feat * (gs.sum(axis=1) / np.where(fn[:, 0] > eps, fn[:, 0] ** 2, 1.0))[:, None])
        s, drep, dfeat = self.gradients(rep, feat, g)
        assert valid.sum() == 2 * 4 * 6 - 6 - 4 and np.abs(want_drep[1, :, 2]).max() > 1e6
        np.testing.assert_allclose(s, want_s, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(drep, want_drep, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(dfeat, want_dfeat, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_norm_vectors_get_zero_gradient(self, dtype):
        rep, feat = self.degenerate_inputs(dtype)
        s, drep, dfeat = self.gradients(rep, feat, np.ones((2, 4, 3, 2), dtype=dtype))
        assert np.all(s[0, 0] == 0.0) and np.all(s[1, :, 1, 0] == 0.0)
        assert np.all(drep[0, :, 0] == 0.0) and np.all(dfeat[1, :, 1, 0] == 0.0)
        assert np.all(np.isfinite(drep)) and np.all(np.isfinite(dfeat))
        assert np.abs(s).max() <= 1.0

    def test_holds_no_temporaries_the_size_of_s(self):
        # |S| is 5.8 MiB here, a PEMS04-sized training batch
        rng = np.random.default_rng(14)
        b, c, n, l = 8, 16, 307, 2
        rep = T.Tensor(rng.normal(size=(b, c, n)).astype(np.float32), requires_grad=True)
        feat = T.Tensor(rng.normal(size=(b, c, n, l)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            s = T.cosine_correlate(rep, feat)
            forward = tracemalloc.get_traced_memory()[1] - base - s.data.nbytes
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            s._backward_fn(np.ones_like(s.data))
            backward = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert forward < 0.5 * s.data.nbytes
        assert backward < 3 * s.data.nbytes


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

    def test_recorded_kinks_are_the_relu_mask_and_the_edge_max_argmax(self):
        rng = np.random.default_rng(5)
        s, f = rng.uniform(-1, 1, size=(2, 4, 4, 3)), rng.normal(size=(2, 5, 4, 3))
        rel = np.einsum("bkit,bcit->bkic", s, f)
        out = T.edge_max(t64(s, requires_grad=True), t64(f))
        assert np.array_equal(out.kinks, rel.argmax(axis=-1))
        x = rng.normal(size=(2, 3))
        assert np.array_equal(T.relu(t64(x, requires_grad=True)).kinks, x > 0)
        # nothing is kept when no graph is recorded
        assert T.relu(t64(x)).kinks is None
        with T.no_grad():
            assert T.edge_max(t64(s, requires_grad=True), t64(f)).kinks is None

    def test_edge_max_keeps_its_argmax_in_the_narrowest_type(self):
        rng = np.random.default_rng(6)
        s, f = rng.uniform(-1, 1, size=(2, 4, 4, 2)), rng.normal(size=(2, 64, 4, 2))
        out = T.edge_max(t64(s, requires_grad=True), t64(f))
        assert out.kinks.dtype == np.uint8
        assert np.array_equal(out.kinks, np.einsum("bkit,bcit->bkic", s, f).argmax(axis=-1))

    def test_edge_mix_is_the_relation_aggregated_through_adj(self):
        rng = np.random.default_rng(4)
        s, f, a = rng.normal(size=(2, 5, 4, 3)), rng.normal(size=(2, 6, 4, 3)), rng.normal(size=(2, 5, 4))
        rel = np.einsum("bkit,bcit->bcik", s, f)
        out = T.edge_mix(t64(s), t64(f), t64(a))
        assert np.allclose(out.data, np.einsum("bcik,bki->bck", rel, a), rtol=1e-12)

    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_mix_equals_the_broadcast_formula_byte_for_byte(self, l, dtype):
        rng = np.random.default_rng(l)
        b, c, k, n = 3, 6, 5, 7
        corr, feat, adj = (T.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                           for shape in ((b, k, n, l), (b, c, n, l), (b, k, n)))
        adj.data[0, 0] = 0.0                   # zero weights, some of them -0.0
        g = rng.normal(size=(b, c, k)).astype(dtype)
        out = T.edge_mix(corr, feat, adj)
        out._backward_fn(g)
        want = broadcast_edge_mix(corr.data, feat.data, adj.data, g)
        got = (out.data, feat.grad, adj.grad, corr.grad)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_edge_ops_reject_mismatched_extents(self):
        s, f = t64(np.zeros((1, 3, 3, 2))), t64(np.zeros((1, 4, 3, 3)))
        with pytest.raises(T.ShapeError):
            T.edge_max(s, f)
        with pytest.raises(T.ShapeError):
            T.edge_mix(t64(np.zeros((1, 3, 3, 3))), f, t64(np.zeros((1, 3, 2))))


def broadcast_edge_mix(corr, feat, adj, g):
    """edge_mix forward and backward as they were written before the per-time
    plane loops, broadcasting adj over the trailing axis: (y, d feat, d adj,
    d corr) for the upstream gradient g."""
    b, c, n, l = feat.shape
    k = corr.shape[1]
    w = (corr * adj[..., None]).reshape(b, k, n * l)
    feat2 = feat.reshape(b, c, n * l)
    y = np.matmul(feat2, w.transpose(0, 2, 1))
    dfeat = np.matmul(g, w).reshape(b, c, n, l)
    dw = np.matmul(g.transpose(0, 2, 1), feat2).reshape(b, k, n, l)
    dadj = np.einsum("bkit,bkit->bki", dw, corr)
    dw *= adj[..., None]
    return y, dfeat, dadj, dw


def edge_max_reference(corr, feat, channels_first=False):
    """edge_max's forward as the per-sample [n, k, c] argmax it replaced:
    (y, argmax channel), both [b, k, n]. channels_first forms each source's
    GEMM as [c, l] @ [l, k], edge_max's orientation, instead of [k, l] @ [l, c]."""
    b, c, n, _ = feat.shape
    y = np.empty((b, corr.shape[1], n), dtype=feat.dtype)
    idx = np.empty(y.shape, dtype=np.intp)
    for s in range(b):
        if channels_first:
            rel = np.matmul(feat[s].transpose(1, 0, 2), corr[s].transpose(1, 2, 0)).transpose(0, 2, 1)
        else:
            rel = np.matmul(corr[s].transpose(1, 0, 2), feat[s].transpose(1, 2, 0))
        best = rel.argmax(axis=2)                                     # [i, k]
        y[s] = np.take_along_axis(rel, best[..., None], axis=2)[..., 0].T
        idx[s] = best.T
    return y, idx


def edge_max_both(corr, feat):
    """(y recorded, argmax recorded, y under no_grad) of edge_max on raw arrays."""
    out = T.edge_max(T.Tensor(corr, requires_grad=True), T.Tensor(feat))
    with T.no_grad():
        plain = T.edge_max(T.Tensor(corr, requires_grad=True), T.Tensor(feat))
    assert plain.kinks is None
    return out.data, out.kinks, plain.data


def loop_edge_max_grads(corr, feat, idx, g):
    """The per-sample gather and scatter that edge_max's backward replaced:
    the reference its batch-wide pass must equal bit for bit."""
    b, c, n, l = feat.shape
    dcorr = np.empty_like(corr)
    dfeat = np.empty_like(feat)
    src = np.arange(n)
    for s in range(b):
        best = idx[s].astype(np.intp)                     # [k, i]; idx may be uint8
        dcorr[s] = g[s][..., None] * feat[s][best, src]
        slot = (best * n + src).ravel()
        for t in range(l):
            dfeat[s, ..., t] = np.bincount(slot, weights=(g[s] * corr[s, ..., t]).ravel(),
                                           minlength=c * n).reshape(c, n)
    return dcorr, dfeat


class TestEdgeMaxBlocks:
    # 1000 elements per block: at c=4, n=10 a block holds 2 samples (ragged
    # at b=3 and 7); at c=4, n=37 it holds 6 of one sample's sources, the last
    # block 1; at c=64 or 300 with n >= 10 a block is one source. The default
    # holds 20 samples at c=64, n=10 and a whole sample at n=37.
    @pytest.mark.parametrize("block", [1000, T.CACHE_BLOCK])
    @pytest.mark.parametrize("c", [4, 64, 300])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_per_sample_argmax_exactly(self, monkeypatch, block, c, dtype):
        monkeypatch.setattr(T, "CACHE_BLOCK", block)
        rng = np.random.default_rng(c)
        for n in (1, 2, 10, 37):
            for b in (1, 3, 7):
                for l in (1, 2, 3):
                    corr = rng.uniform(-1, 1, size=(b, n, n, l)).astype(dtype)
                    feat = rng.normal(size=(b, c, n, l)).astype(dtype)
                    y, idx, plain = edge_max_both(corr, feat)
                    assert np.array_equal(plain, y)
                    want_y, want_idx = edge_max_reference(corr, feat, channels_first=True)
                    assert np.array_equal(y, want_y) and np.array_equal(idx, want_idx)
                    want_y, want_idx = edge_max_reference(corr, feat)
                    if dtype == np.float64 and c == 300:
                        # OpenBLAS's dgemm rounds some dot products of a
                        # 300-row panel differently in the two orientations
                        np.testing.assert_array_max_ulp(y, want_y, maxulp=1)
                    else:
                        assert np.array_equal(y, want_y)
                    assert np.array_equal(idx, want_idx)

    @pytest.mark.parametrize("block", [1000, T.CACHE_BLOCK])
    @pytest.mark.parametrize("c", [1, 4, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_equals_the_per_sample_loop_bit_for_bit(self, monkeypatch, block, c, dtype):
        monkeypatch.setattr(T, "CACHE_BLOCK", block)
        rng = np.random.default_rng(c + 1)
        for n in (1, 2, 10, 37):
            for b in (1, 3, 7):
                for l in (1, 2, 3):
                    corr = T.Tensor(rng.uniform(-1, 1, size=(b, n, n, l)).astype(dtype),
                                    requires_grad=True)
                    feat = T.Tensor(rng.normal(size=(b, c, n, l)).astype(dtype),
                                    requires_grad=True)
                    feat.data[:, c // 2] *= 10.0   # many targets share a source's max
                    out = T.edge_max(corr, feat)
                    g = rng.normal(size=out.shape).astype(dtype)
                    out._backward_fn(g)
                    dcorr, dfeat = loop_edge_max_grads(corr.data, feat.data, out.kinks, g)
                    assert corr.grad.dtype == dtype and feat.grad.dtype == dtype
                    assert corr.grad.tobytes() == dcorr.tobytes()
                    assert feat.grad.tobytes() == dfeat.tobytes()

    @pytest.mark.parametrize("c", [64, 300])
    def test_ties_go_to_the_lowest_channel(self, monkeypatch, c):
        monkeypatch.setattr(T, "CACHE_BLOCK", 1000)
        rng = np.random.default_rng(8)
        b, n, l = 3, 10, 2
        corr = rng.uniform(-1, 1, size=(b, n, n, l)).astype(np.float32)
        feat = rng.normal(size=(b, c, n, l)).astype(np.float32)
        corr[1, 4] = 0.0                      # target 4 of sample 1: R is 0 on every channel
        feat[:, 2] *= 10.0                    # the max on about half of the edges
        feat[:, c - 1] = feat[:, 2]           # channel c-1 duplicates channel 2
        y, idx, _ = edge_max_both(corr, feat)
        assert np.array_equal(idx[1, 4], np.zeros(n)) and np.array_equal(y[1, 4], np.zeros(n))
        assert (idx == 2).any() and not (idx == c - 1).any()
        want_y, want_idx = edge_max_reference(corr, feat, channels_first=True)
        assert np.array_equal(y, want_y) and np.array_equal(idx, want_idx)

    def test_nan_feature_gives_nan_max_and_an_in_range_channel(self):
        rng = np.random.default_rng(9)
        b, c, n, l = 2, 64, 10, 2
        corr = rng.uniform(-1, 1, size=(b, n, n, l)).astype(np.float32)
        feat = rng.normal(size=(b, c, n, l)).astype(np.float32)
        feat[0, 5, 3, 1] = np.nan             # one channel of source 3
        feat[1, :, 7] = np.nan                # every channel of source 7
        y, idx, plain = edge_max_both(corr, feat)
        assert np.isnan(y[0, :, 3]).all() and np.isnan(y[1, :, 7]).all()
        assert np.isnan(y).sum() == 2 * n and np.array_equal(np.isnan(plain), np.isnan(y))
        assert idx.min() >= 0 and idx.max() < c
        finite = ~np.isnan(y)
        want_y, want_idx = edge_max_reference(corr, feat)
        assert np.array_equal(y[finite], want_y[finite])
        assert np.array_equal(idx[finite], want_idx[finite])

    @pytest.mark.parametrize("record", [True, False])
    def test_forward_holds_a_few_blocks_not_a_sample(self, record):
        # one sample's [n, n, c] relation is 10 MiB here; the bound is 2 MiB
        rng = np.random.default_rng(10)
        b, c, n = 2, 64, 200
        corr = T.Tensor(rng.uniform(-1, 1, size=(b, n, n, 2)).astype(np.float32),
                        requires_grad=record)
        feat = T.Tensor(rng.normal(size=(b, c, n, 2)).astype(np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            if record:
                out = T.edge_max(corr, feat)
            else:
                with T.no_grad():
                    out = T.edge_max(corr, feat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = out.data.nbytes + (out.kinks.nbytes if record else 0)
        assert peak - base - outputs < 4 * T.CACHE_BLOCK * feat.data.itemsize


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

    def test_first_gradient_of_the_tensors_form_is_taken_over(self):
        x = T.Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        g = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        T._accumulate(x, g)
        assert np.shares_memory(x.grad, g)
        T._accumulate(x, g)
        assert np.array_equal(x.grad, [2.0, 4.0, 6.0])

    @pytest.mark.parametrize("g", [
        np.array([1.0, 2.0, 3.0]),
        np.arange(1.0, 7.0, dtype=np.float32)[::2],
        np.broadcast_to(np.float32(2.0), (3,)),
    ], ids=["float64", "strided", "read-only"])
    def test_first_gradient_of_another_form_is_copied_into_it(self, g):
        x = T.Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        before = g.copy()
        T._accumulate(x, g)
        assert not np.shares_memory(x.grad, g) and np.array_equal(x.grad, before)
        assert x.grad.dtype == np.float32 and x.grad.flags.c_contiguous and x.grad.flags.writeable
        T._accumulate(x, g)
        assert np.array_equal(g, before) and np.array_equal(x.grad, 2 * before)

    def test_sum_of_a_0d_tensor_gives_it_a_writable_gradient(self):
        # sum's backward hands over a read-only 0-d broadcast of the loss's seed
        x = t64(2.0, requires_grad=True)
        T.sum_over_axis(x).backward()
        assert x.grad.shape == () and x.grad.flags.writeable and x.grad == 1.0

    @pytest.mark.parametrize("same", [True, False], ids=["add(x, x)", "add(a, b)"])
    def test_add_gives_each_operand_a_gradient_of_its_own(self, same):
        rng = np.random.default_rng(4)
        a = t64(rng.normal(size=(2, 3)), requires_grad=True)
        b = a if same else t64(rng.normal(size=(2, 3)), requires_grad=True)
        w = rng.normal(size=(2, 3))
        T.sum_over_axis(T.mul(T.add(a, b), t64(w))).backward()
        if same:
            assert np.array_equal(a.grad, w + w)
            return
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        assert np.array_equal(b.grad, w)

    @pytest.mark.parametrize("take_first", [True, False])
    def test_take_time_gradient_is_its_one_hot_slice_in_either_order(self, take_first):
        # add's first operand runs its backward first: take_time's gradient
        # either starts x.grad or adds into mul's
        rng = np.random.default_rng(12)
        x = t64(rng.normal(size=(2, 3, 5)), requires_grad=True)
        w, v = rng.normal(size=(2, 3)), rng.normal(size=(2, 3, 5))
        picked = T.sum_over_axis(T.mul(T.take_time(x, 2), t64(w)))
        whole = T.sum_over_axis(T.mul(x, t64(v)))
        T.add(*((picked, whole) if take_first else (whole, picked))).backward()
        one_hot = np.zeros_like(x.data)
        one_hot[..., 2] = w
        assert np.array_equal(x.grad, one_hot + v)

    def test_grad_accumulates_across_uses(self):
        x = t64([3.0], requires_grad=True)
        T.sum_over_axis(T.add(T.mul(x, x), x)).backward()
        assert np.allclose(x.grad, [7.0])  # 2x + 1


class TestDeterminism:
    def test_identical_seeds_bitwise_identical_outputs(self):
        def run():
            rng = np.random.default_rng(42)
            x = rng.normal(size=(2, 3, 4, 12)).astype(np.float32)
            return block(x, *block_params(rng, 3, 5), stride=2).data

        assert np.array_equal(run(), run())
