from collections import Counter

import numpy as np
import pytest

import flowcast.tensor as T
from flowcast.config import ModelConfig
from flowcast.losses import node_contrastive_loss, total_loss
from flowcast.model import Forecaster


def model_and_input(cfg=None, seed=0, b=2, n=5):
    cfg = cfg or ModelConfig(channels=(8, 8, 8, 8), head_hidden=8)
    model = Forecaster(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    x = T.Tensor(rng.normal(size=(b, 1, n, cfg.t_in)).astype(np.float32))
    return model, x


class TestFusion:
    def test_zero_stage_maps_identity_es_passes_graph_features(self):
        model, x = model_and_input()
        for i in (1, 2, 3):
            model.params[f"head.fuse{i}.weight"].data[:] = 0
            model.params[f"head.fuse{i}.bias"].data[:] = 0
        model.params["head.fuse_es.weight"].data = np.eye(8, dtype=np.float32)
        model.params["head.fuse_es.bias"].data[:] = 0
        stage_outputs = model.encoder.forward(x)
        edges = model.edge_graph.forward(stage_outputs[3])
        fused = model.fuse(stage_outputs, edges.f_g)
        assert np.allclose(fused.data, edges.f_g.data, atol=1e-6)

    def test_all_zero_terms_leave_summed_biases(self):
        model, x = model_and_input()
        for name, p in model.params.items():
            if name.startswith("head.fuse") and name.endswith("weight"):
                p.data[:] = 0
        for i, bias in enumerate((1.0, 2.0, 4.0), start=1):
            model.params[f"head.fuse{i}.bias"].data[:] = bias
        model.params["head.fuse_es.bias"].data[:] = 8.0
        stage_outputs = model.encoder.forward(x)
        edges = model.edge_graph.forward(stage_outputs[3])
        fused = model.fuse(stage_outputs, edges.f_g)
        assert np.allclose(fused.data, 15.0, atol=1e-5)

    def test_no_es_variant_uses_stage4_slice(self):
        cfg = ModelConfig(channels=(8, 8, 8, 8), head_hidden=8, use_es=False)
        model, x = model_and_input(cfg)
        assert model.edge_graph is None
        assert "head.fuse_f4.weight" in model.params
        assert "es.gcn.weight" not in model.params
        yhat, state = model.forward(x)
        assert yhat.shape == (2, 12, 5)
        assert state.edges is None


class TestPredictionHead:
    def test_constant_bias_forecast(self):
        model, x = model_and_input()
        model.params["head.hidden.weight"].data[:] = 0
        model.params["head.hidden.bias"].data[:] = 0
        model.params["head.out.weight"].data[:] = 0
        model.params["head.out.bias"].data[:] = 3.25
        yhat, _ = model.forward(x)
        assert np.allclose(yhat.data, 3.25)

    def test_forecast_shape_is_horizon_by_nodes(self):
        model, x = model_and_input()
        yhat, _ = model.forward(x)
        assert yhat.shape == (2, 12, 5)

    def test_dead_relu_leaves_output_bias(self):
        model, x = model_and_input()
        model.params["head.hidden.bias"].data[:] = -1e4  # kill every hidden unit
        model.params["head.out.bias"].data[:] = np.arange(12, dtype=np.float32)
        yhat, _ = model.forward(x)
        expected = np.arange(12, dtype=np.float32).reshape(1, 12, 1)
        assert np.allclose(yhat.data, np.broadcast_to(expected, yhat.shape))

    def test_input_shape_validated(self):
        model, _ = model_and_input()
        with pytest.raises(T.ShapeError):
            model.forward(T.Tensor(np.zeros((2, 1, 5, 13), dtype=np.float32)))


class TestLosses:
    def test_huber_zero_residual(self):
        y = T.Tensor(np.array([1.0, 2.0], dtype=np.float64))
        assert float(T.huber(y, y).data) == 0.0

    def test_huber_quadratic_branch(self):
        pred = T.Tensor(np.array([0.5], dtype=np.float64))
        target = T.Tensor(np.array([0.0], dtype=np.float64))
        assert float(T.huber(pred, target, delta=1.0).data) == pytest.approx(0.125, abs=1e-12)

    def test_huber_linear_branch(self):
        pred = T.Tensor(np.array([2.0], dtype=np.float64))
        target = T.Tensor(np.array([0.0], dtype=np.float64))
        assert float(T.huber(pred, target, delta=1.0).data) == pytest.approx(1.5, abs=1e-12)

    def test_huber_seam_slope_continuity(self):
        def h(r):
            return float(T.huber(T.Tensor(np.array([r])), T.Tensor(np.array([0.0]))).data)

        eps = 1e-5
        left_slope = (h(1.0) - h(1.0 - eps)) / eps
        right_slope = (h(1.0 + eps) - h(1.0)) / eps
        assert left_slope == pytest.approx(right_slope, abs=1e-4)

    def test_contrastive_zero_branch(self):
        f_g = T.Tensor(np.ones((1, 3, 4), dtype=np.float64))
        f_gr = T.Tensor(np.zeros((1, 3, 4), dtype=np.float64))
        assert float(node_contrastive_loss(f_g, f_gr).data) == 0.0

    def test_contrastive_scalar_case(self):
        f_g = T.Tensor(np.full((1, 1, 1), 2.0, dtype=np.float64))
        f_gr = T.Tensor(np.full((1, 1, 1), 3.0, dtype=np.float64))
        assert float(node_contrastive_loss(f_g, f_gr).data) == pytest.approx(6.0)

    def test_contrastive_unit_norm_columns(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(1, 4, 6))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        f_g = T.Tensor(f)
        assert float(node_contrastive_loss(f_g, f_g).data) == pytest.approx(1.0, abs=1e-12)

    def test_total_weighted_combination(self):
        pred = T.Tensor(np.array([[[1.5]]], dtype=np.float64))   # huber -> 1.0
        target = T.Tensor(np.array([[[0.0]]], dtype=np.float64))
        f_g = T.Tensor(np.full((1, 1, 1), 1.0, dtype=np.float64))
        f_gr = T.Tensor(np.full((1, 1, 1), 2.0, dtype=np.float64))  # contrast -> 2.0
        loss, l_h, l_n = total_loss(pred, target, f_g, f_gr, contrast_weight=0.1)
        assert l_h == pytest.approx(1.0)
        assert l_n == pytest.approx(2.0)
        assert float(loss.data) == pytest.approx(1.2)

    def test_zero_weight_keeps_huber_only(self):
        pred = T.Tensor(np.array([[[1.5]]], dtype=np.float64))
        target = T.Tensor(np.array([[[0.0]]], dtype=np.float64))
        f_g = T.Tensor(np.full((1, 1, 1), 5.0, dtype=np.float64))
        loss, l_h, _ = total_loss(pred, target, f_g, f_g, contrast_weight=0.0)
        assert float(loss.data) == l_h


class TestReversedBranchIsolation:
    def test_lambda_zero_gradients_match_pure_huber(self):
        cfg = ModelConfig(channels=(8, 8, 8, 8), head_hidden=8, contrast_weight=0.0)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 1, 4, 12)).astype(np.float32)
        y = rng.normal(size=(2, 12, 4)).astype(np.float32)

        def grads(use_total):
            model = Forecaster(cfg, seed=9)
            yhat, state = model.forward(T.Tensor(x))
            if use_total:
                loss, _, _ = total_loss(yhat, T.Tensor(y), state.f_g, state.f_gr,
                                        contrast_weight=0.0)
            else:
                loss = T.huber(yhat, T.Tensor(y))
            loss.backward()
            return {k: p.grad.copy() for k, p in model.params.items() if p.grad is not None}

        with_branch = grads(True)
        without = grads(False)
        assert with_branch.keys() == without.keys()
        for key in with_branch:
            assert np.array_equal(with_branch[key], without[key]), key

    def test_reversed_branch_gets_gradient_only_through_contrast(self):
        model, x = model_and_input()
        y = T.Tensor(np.zeros((2, 12, 5), dtype=np.float32))
        released = {}
        for weight in (0.0, 0.1):
            yhat, state = model.forward(x)
            loss, _, _ = total_loss(yhat, y, state.f_g, state.f_gr, contrast_weight=weight)
            loss.backward()
            # backward releases the closure of every node it walks
            released[weight] = state.f_gr._backward_fn is None
        assert released == {0.0: False, 0.1: True}

class TestNoGradForward:
    def test_forecast_bitwise_equal_to_recorded_forward(self):
        model, x = model_and_input(n=6)
        recorded, state = model.forward(x)
        assert state.f_gr is not None
        with T.no_grad():
            plain, plain_state = model.forward(x)
        assert np.array_equal(plain.data, recorded.data)
        # the reversed aggregation only feeds the loss; its adjacency stays
        assert plain_state.f_gr is None and plain_state.edges.f_gr is None
        assert np.array_equal(plain_state.adjacency(0).adj_reversed,
                              state.adjacency(0).adj_reversed)

    def test_forecast_is_batch_invariant_bitwise(self):
        # every contraction is one GEMM per sample, so a sample's forecast
        # does not depend on the batch it rides in
        model, x = model_and_input(cfg=ModelConfig(), b=4, n=10)
        with T.no_grad():
            batched, _ = model.forward(x)
            alone, _ = model.forward(T.Tensor(x.data[:1]))
        assert np.array_equal(batched.data[0], alone.data[0])


class TestEquivariance:
    def test_full_model_node_permutation(self):
        model, _ = model_and_input(n=6)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 1, 6, 12)).astype(np.float32)
        for _ in range(5):
            perm = rng.permutation(6)
            base, _ = model.forward(T.Tensor(x))
            permuted, _ = model.forward(T.Tensor(x[:, :, perm, :]))
            assert np.allclose(base.data[:, :, perm], permuted.data, atol=1e-5)


class TestTrainingGraph:
    def test_default_graph_op_multiset_is_pinned(self):
        # 7 gated blocks, the edge block, a head that maps only the slices it
        # reads, and Huber + lambda * contrastive
        model, x = model_and_input(cfg=ModelConfig())
        yhat, state = model.forward(x)
        loss, _, _ = total_loss(yhat, T.Tensor(np.zeros((2, 12, 5), dtype=np.float32)),
                                state.f_g, state.f_gr)
        ops = Counter(node.op for node in T._topo_order(loss) if node.op != "leaf")
        assert ops == {"gated_block": 7, "channel_linear": 9, "tanh": 1, "mul": 3,
                       "take_time": 4, "cosine_correlate": 1, "edge_max": 1, "neg": 1,
                       "relu": 3, "edge_mix": 2, "add": 4, "sum": 1, "huber": 1}
        assert sum(ops.values()) == 38
