import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcast.config import ModelConfig, TrainConfig
from flowcast.data import prepare
from flowcast.metrics import compute_metrics
from flowcast.model import Forecaster
from flowcast.synthetic import sinusoid_dataset
from flowcast.training import evaluate, persistence_metrics, train


def tiny_setup(seed=0, contrast_weight=0.1):
    cfg = ModelConfig(channels=(8, 8, 8, 8), head_hidden=8, contrast_weight=contrast_weight)
    model = Forecaster(cfg, seed=seed)
    return model


class TestMetrics:
    def test_perfect_predictions(self):
        y = np.array([1.0, 2.0, 3.0])
        report = compute_metrics(y, y)
        assert (report.rmse, report.mae, report.mape) == (0.0, 0.0, 0.0)

    def test_hand_computed_values(self):
        report = compute_metrics(np.array([2.0, 2.0]), np.array([1.0, 2.0]))
        assert report.mae == pytest.approx(0.5)
        assert report.rmse == pytest.approx(np.sqrt(0.5), abs=1e-9)
        assert report.mape == pytest.approx(50.0)

    def test_zero_truth_excluded_from_mape(self):
        report = compute_metrics(np.array([1.0, 5.0]), np.array([0.0, 4.0]))
        assert report.mape == pytest.approx(25.0)

    def test_empty_rejected(self):
        from flowcast.metrics import MetricAccumulator
        with pytest.raises(ValueError):
            MetricAccumulator().report()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_rmse_dominates_mae(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.normal(size=40)
        true = rng.normal(size=40)
        report = compute_metrics(pred, true)
        assert report.rmse >= report.mae - 1e-12


class TestPersistenceBaseline:
    def test_matches_manual_computation(self, tiny_prep):
        report = persistence_metrics(tiny_prep, "val")
        starts = tiny_prep.splits["val"]
        errs = []
        for s in starts:
            last = tiny_prep.raw[s + 11]
            target = tiny_prep.raw[s + 12:s + 24]
            errs.append(np.abs(target - last[None, :]))
        assert report.mae == pytest.approx(float(np.mean(errs)), rel=1e-6)


class TestTrainingLoop:
    def test_loss_decreases_on_tiny_problem(self, tiny_prep):
        model = tiny_setup()
        mae0 = evaluate(model, tiny_prep, "train", 16).mae
        train(model, tiny_prep, TrainConfig(epochs=40, batch_size=16, seed=0), max_steps=150)
        mae1 = evaluate(model, tiny_prep, "train", 16).mae
        assert mae1 < 0.7 * mae0

    def test_same_seed_bitwise_identical_losses(self, tiny_prep):
        def run():
            model = tiny_setup(seed=4)
            res = train(model, tiny_prep, TrainConfig(epochs=3, batch_size=16, seed=4),
                        max_steps=10)
            return res.step_losses

        a, b = run(), run()
        assert len(a) == 10
        assert a == b  # exact float equality, not approximate

    def test_lambda_does_not_change_first_huber(self, tiny_prep):
        runs = {}
        for lam in (0.0, 0.1):
            cfg = ModelConfig(channels=(8, 8, 8, 8), head_hidden=8, contrast_weight=lam)
            model = Forecaster(cfg, seed=4)
            res = train(model, tiny_prep, TrainConfig(epochs=1, batch_size=16, seed=4),
                        max_steps=1)
            runs[lam] = res.step_losses[0][0]
        assert runs[0.0] == runs[0.1]

    def test_best_checkpoint_dominates_epoch_log(self, tiny_prep):
        model = tiny_setup(seed=2)
        res = train(model, tiny_prep, TrainConfig(epochs=4, batch_size=16, seed=2))
        assert res.best_val_mae <= min(e.val_mae for e in res.epochs)
        assert any(e.val_mae == res.best_val_mae for e in res.epochs)

    def test_divergence_keeps_last_good_state(self, tiny_prep, caplog):
        model = tiny_setup(seed=3)
        model.params["head.out.bias"].data[:] = np.inf
        before = model.state_arrays()
        res = train(model, tiny_prep, TrainConfig(epochs=2, batch_size=16, seed=3))
        assert res.diverged
        assert not res.step_losses
        assert (res.best_epoch, res.best_val_mae) == (-1, None)
        for key, arr in res.best_state.items():
            assert np.array_equal(arr, before[key], equal_nan=True)
        assert "first non-finite value in parameter 'head.out.bias'" in caplog.text

    @pytest.mark.parametrize("name,value,cause", [
        # a finite gamma this large overflows the block's float32 output
        ("stage1.block1.norm.gamma", 3e38, "first non-finite value from op 'gated_block'"),
        # the loss stays finite (about 2e23), but a gradient overflows
        ("es.gcn.weight", 1e30,
         "forward finite; non-finite gradient in parameter 'stage1.block1.embed.weight'"),
    ])
    def test_divergence_log_names_epoch_step_and_cause(self, tiny_prep, caplog, name, value,
                                                       cause):
        model = tiny_setup(seed=3)
        model.params[name].data[:] = value
        with np.errstate(over="ignore", invalid="ignore"):
            res = train(model, tiny_prep, TrainConfig(epochs=2, batch_size=16, seed=3))
        assert res.diverged and not res.step_losses
        assert f"diverged at epoch 0 step 0: {cause}" in caplog.text

    def test_a_step_leaves_every_parameter_a_gradient_of_its_own(self, tiny_prep):
        model = Forecaster(ModelConfig(), seed=7)
        train(model, tiny_prep, TrainConfig(epochs=1, batch_size=8), max_steps=1)
        grads = [p.grad for p in model.params.values()]
        assert all(g is not None for g in grads)
        for i, g in enumerate(grads):
            assert not any(np.shares_memory(g, h) for h in grads[i + 1:])
        before = [g.copy() for g in grads]
        for i, g in enumerate(grads):
            g += 1.0
            assert all(np.array_equal(h, k) for j, (h, k) in enumerate(zip(grads, before))
                       if j != i)
            g[...] = before[i]

    def test_log_carries_both_loss_terms(self, tiny_prep):
        model = tiny_setup(seed=5)
        res = train(model, tiny_prep, TrainConfig(epochs=2, batch_size=16, seed=5))
        assert len(res.epochs) == 2
        for entry in res.epochs:
            assert np.isfinite(entry.train_huber)
            assert np.isfinite(entry.train_contrast)
            assert entry.lr == pytest.approx(0.0003)


class TestEvaluate:
    def test_predictions_are_denormalized_against_raw_targets(self, tiny_prep):
        # force the model to forecast a constant in normalized units; the
        # reported MAE must then be against the denormalized constant
        model = tiny_setup(seed=8)
        model.params["head.hidden.weight"].data[:] = 0
        model.params["head.hidden.bias"].data[:] = 0
        model.params["head.out.weight"].data[:] = 0
        model.params["head.out.bias"].data[:] = 0.75
        report = evaluate(model, tiny_prep, "test", 16)
        pred_raw = tiny_prep.stats.invert(np.float32(0.75))
        starts = tiny_prep.splits["test"]
        out_idx = starts[:, None] + 12 + np.arange(12)[None, :]
        expected = float(np.abs(pred_raw - tiny_prep.raw[out_idx]).mean())
        assert report.mae == pytest.approx(expected, rel=1e-6)

    def test_eval_deterministic_and_batch_size_independent(self, tiny_prep):
        model = tiny_setup(seed=6)
        a = evaluate(model, tiny_prep, "test", 16)
        b = evaluate(model, tiny_prep, "test", 7)
        assert a.mae == pytest.approx(b.mae, rel=1e-6)
        assert a.rmse == pytest.approx(b.rmse, rel=1e-6)

    def test_peak_memory_does_not_grow_with_the_batch_count(self, tiny_prep):
        # a batch's stage outputs, correlations and adjacencies are gone
        # before the next batch's forward
        model = Forecaster(ModelConfig(), seed=1)
        b = 16
        starts = tiny_prep.splits["train"]

        def peak(batches):
            prep = dataclasses.replace(tiny_prep, splits={"train": starts[:batches * b]})
            tracemalloc.start()
            try:
                evaluate(model, prep, "train", b)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert len(starts) >= 3 * b
        one = peak(1)
        assert peak(3) <= 1.05 * one

    def test_too_short_series_raises_before_eval(self):
        from flowcast.data import DataError
        ds = sinusoid_dataset(nodes=3, steps=24, seed=0)
        with pytest.raises(DataError):
            prepare(ds)
