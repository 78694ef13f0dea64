import numpy as np
import pytest

from flowcast.config import TrainConfig
from flowcast.optim import Adam, NumericalError, lr_at_epoch
from flowcast.tensor import Tensor


def make_param(values):
    return Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)


def default_lr(epoch):
    cfg = TrainConfig()
    return lr_at_epoch(epoch, cfg.lr0, cfg.lr_decay, cfg.lr_decay_every)


class TestSchedule:
    @pytest.mark.parametrize("epoch,expected", [
        (0, 0.0003), (4, 0.0003), (5, 0.00021), (9, 0.00021), (10, 0.000147),
    ])
    def test_step_decay(self, epoch, expected):
        assert default_lr(epoch) == pytest.approx(expected, abs=1e-9)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            default_lr(-1)


class TestAdam:
    def test_first_step_unit_gradient_moves_by_lr(self):
        p = make_param([1.0, -2.0, 0.5])
        opt = Adam({"p": p}, lr=0.01)
        p.grad = np.ones(3, dtype=np.float32)
        before = p.data.copy()
        opt.step()
        assert np.allclose(before - p.data, 0.01, rtol=1e-6)

    def test_zero_gradient_is_fixed_point(self):
        p = make_param([1.0, 2.0])
        opt = Adam({"p": p}, lr=0.01, weight_decay=0.0)
        before = p.data.copy()
        for _ in range(5):
            p.grad = np.zeros(2, dtype=np.float32)
            opt.step()
        assert np.array_equal(p.data, before)

    def test_weight_decay_equals_explicit_gradient(self):
        wd = 0.01
        p1 = make_param([1.0, -3.0])
        p2 = make_param([1.0, -3.0])
        decayed = Adam({"p": p1}, lr=0.001, weight_decay=wd)
        explicit = Adam({"p": p2}, lr=0.001, weight_decay=0.0)
        for _ in range(3):
            p1.grad = np.zeros(2, dtype=np.float32)
            decayed.step()
            p2.grad = wd * p2.data
            explicit.step()
        assert np.array_equal(p1.data, p2.data)

    def test_nan_gradient_names_parameter(self):
        p = make_param([1.0])
        opt = Adam({"stage1.embed.weight": p})
        p.grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(NumericalError, match="stage1.embed.weight"):
            opt.step()

    def test_step_that_overflows_a_parameter_names_it_and_assigns_none(self):
        # a finite gradient and a finite lr: -1e38 - 3e38 overflows float32
        first, second = make_param([0.0]), make_param([-1e38])
        opt = Adam({"stage1.embed.weight": first, "es.gcn.bias": second}, lr=3e38)
        first.grad = second.grad = np.ones(1, dtype=np.float32)
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="es.gcn.bias"):
            opt.step()
        assert first.data[0] == 0.0 and second.data[0] == np.float32(-1e38)

    def test_missing_gradient_treated_as_zero(self):
        p = make_param([2.0])
        opt = Adam({"p": p}, lr=0.01, weight_decay=0.0)
        before = p.data.copy()
        opt.step()
        assert np.array_equal(p.data, before)

    def test_deterministic_updates(self):
        def run():
            p = make_param([[0.3, -0.7], [1.1, 0.0]])
            opt = Adam({"p": p}, lr=0.005, weight_decay=1e-4)
            rng = np.random.default_rng(0)
            for _ in range(10):
                p.grad = rng.normal(size=(2, 2)).astype(np.float32)
                opt.step()
            return p.data

        assert np.array_equal(run(), run())

    def test_global_norm_clip(self):
        p = make_param([0.0, 0.0])
        clipped = Adam({"p": p}, lr=1.0, clip=1.0)
        p.grad = np.array([30.0, 40.0], dtype=np.float32)  # norm 50 -> scaled by 1/50
        grads = clipped._gradients()
        assert np.allclose(np.sqrt((grads["p"] ** 2).sum()), 1.0, rtol=1e-5)
