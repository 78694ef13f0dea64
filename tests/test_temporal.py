import numpy as np

import flowcast.tensor as T
from flowcast.config import ModelConfig
from flowcast.model import Forecaster
from flowcast.temporal import TemporalEncoder, WBlock, receptive_fields, stage_time_lengths


def encoder(cfg, seed=0):
    store = {}
    enc = TemporalEncoder(cfg, np.random.default_rng(seed), store)
    return enc, store


class TestStageGeometry:
    def test_default_time_extents(self):
        assert stage_time_lengths(ModelConfig()) == [12, 6, 3, 2]

    def test_receptive_fields_reported(self):
        assert receptive_fields(ModelConfig()) == [3, 9, 21, 45]

    def test_forward_shapes(self, tiny_model_cfg):
        enc, _ = encoder(tiny_model_cfg)
        x = T.Tensor(np.random.default_rng(0).normal(size=(2, 1, 5, 12)).astype(np.float32))
        outs = enc.forward(x)
        assert [o.shape for o in outs] == [(2, 8, 5, 12), (2, 8, 5, 6), (2, 8, 5, 3), (2, 8, 5, 2)]


class TestGatedBlock:
    def test_zero_convs_give_beta(self):
        store = {}
        block = WBlock("b", 1, 4, 1, np.random.default_rng(0), store)
        block.embed_w.data[:] = 0
        block.gate_w.data[:] = 0
        block.beta.data[:] = 2.5
        x = T.Tensor(np.zeros((1, 1, 3, 12), dtype=np.float32))
        out = block.forward(x)
        assert np.allclose(out.data, 2.5)

    def test_large_negative_gate_bias_closes_gate(self):
        store = {}
        block = WBlock("b", 1, 4, 1, np.random.default_rng(0), store)
        block.gate_b.data[:] = -30.0
        x = T.Tensor(np.random.default_rng(1).normal(size=(1, 1, 3, 12)).astype(np.float32))
        out = block.forward(x)
        # gated product collapses to ~0; layer norm then leaves only beta (= 0)
        assert np.allclose(out.data, block.beta.data.reshape(1, 4, 1, 1), atol=1e-4)

    def test_single_node_matches_restriction(self, tiny_model_cfg):
        enc, _ = encoder(tiny_model_cfg)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 1, 5, 12)).astype(np.float32)
        full = enc.forward(T.Tensor(x))
        solo = enc.forward(T.Tensor(x[:, :, 2:3, :]))
        for f, s in zip(full, solo):
            assert np.array_equal(f.data[:, :, 2:3, :], s.data)


class TestNodeIndependence:
    def test_node_permutation_commutes(self, tiny_model_cfg):
        enc, _ = encoder(tiny_model_cfg)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 1, 6, 12)).astype(np.float32)
        perm = rng.permutation(6)
        outs = enc.forward(T.Tensor(x))
        outs_p = enc.forward(T.Tensor(x[:, :, perm, :]))
        for f, fp in zip(outs, outs_p):
            assert np.array_equal(f.data[:, :, perm, :], fp.data)

    def test_identical_samples_identical_outputs(self, tiny_model_cfg):
        enc, _ = encoder(tiny_model_cfg)
        one = np.random.default_rng(4).normal(size=(1, 1, 5, 12)).astype(np.float32)
        batch = np.repeat(one, 3, axis=0)
        outs = enc.forward(T.Tensor(batch))
        for f in outs:
            assert np.array_equal(f.data[0], f.data[1])
            assert np.array_equal(f.data[0], f.data[2])


class TestParameterBudget:
    def test_default_model_within_bracket(self):
        count = Forecaster(ModelConfig(), seed=0).parameter_count()
        assert 100_000 <= count <= 400_000

    def test_count_is_logged_at_build(self, caplog):
        with caplog.at_level("INFO", logger="flowcast.model"):
            Forecaster(ModelConfig(), seed=0)
        assert any("parameters" in rec.message for rec in caplog.records)
