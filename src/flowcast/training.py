"""Optimization loop, validation-based checkpoint selection and evaluation."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .data import PreparedData, WindowBatch, iter_batches
from .losses import total_loss
from .metrics import MetricAccumulator, MetricsReport
from .model import Forecaster
from .optim import Adam, NumericalError, lr_at_epoch

logger = logging.getLogger(__name__)


@dataclass
class EpochLog:
    epoch: int
    lr: float
    train_huber: float
    train_contrast: float
    val_rmse: float
    val_mae: float
    val_mape: float


@dataclass
class TrainResult:
    best_state: dict[str, np.ndarray]
    best_epoch: int
    best_val_mae: float | None       # None when no epoch validated
    epochs: list[EpochLog] = field(default_factory=list)
    step_losses: list[tuple[float, float]] = field(default_factory=list)
    diverged: bool = False
    parameter_count: int = 0


def evaluate(model: Forecaster, prep: PreparedData, split: str,
             batch_size: int = 64) -> MetricsReport:
    """Denormalized metrics over one split, chronological order."""
    acc = MetricAccumulator()
    with T.no_grad():
        for batch in iter_batches(prep, split, batch_size):
            yhat = model.forward(T.Tensor(batch.inputs))[0]
            acc.add(prep.stats.invert(yhat.data), batch.targets_raw)
    return acc.report()


def persistence_metrics(prep: PreparedData, split: str) -> MetricsReport:
    """Last-value baseline: every future step repeats the final input value."""
    acc = MetricAccumulator()
    starts = prep.splits[split]
    last = prep.raw[starts + prep.t_in - 1]           # [w, n]
    pred = np.repeat(last[:, None, :], prep.t_out, axis=1)
    out_idx = starts[:, None] + prep.t_in + np.arange(prep.t_out)[None, :]
    acc.add(pred, prep.raw[out_idx])
    return acc.report()


def _batch_loss(model: Forecaster, batch: WindowBatch) -> tuple[T.Tensor, float, float]:
    yhat, state = model.forward(T.Tensor(batch.inputs))
    return total_loss(yhat, T.Tensor(batch.targets_norm), state.f_g, state.f_gr,
                      contrast_weight=model.cfg.contrast_weight)


def _divergence_cause(model: Forecaster, batch: WindowBatch, exc: NumericalError) -> str:
    """Name the first non-finite node of a re-run of the failed step's forward."""
    node = T._first_nonfinite(_batch_loss(model, batch)[0])
    if node is None:
        return f"forward finite; {exc}"
    return next((f"first non-finite value in parameter '{k}'"
                 for k, p in model.params.items() if p is node),
                f"first non-finite value from op '{node.op}'")


def train(model: Forecaster, prep: PreparedData, cfg: TrainConfig,
          max_steps: int | None = None) -> TrainResult:
    """Run the full schedule; keep the epoch with the lowest validation MAE.

    A non-finite loss or gradient aborts the loop with parameters as they
    were before the offending step and logs the epoch, the step and the
    cause; ``max_steps`` caps optimizer steps for desk-scale experiments.
    """
    opt = Adam(model.params, lr=cfg.lr0, weight_decay=cfg.weight_decay, clip=cfg.clip)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])

    result = TrainResult(best_state=model.state_arrays(), best_epoch=-1,
                         best_val_mae=float("inf"),
                         parameter_count=model.parameter_count())
    steps = 0
    for epoch in range(cfg.epochs):
        opt.lr = lr_at_epoch(epoch, cfg.lr0, cfg.lr_decay, cfg.lr_decay_every)
        huber_sum = contrast_sum = 0.0
        batches = 0
        for batch in iter_batches(prep, "train", cfg.batch_size, rng=shuffle_rng):
            try:
                loss, l_h, l_n = _batch_loss(model, batch)
                if not np.isfinite(loss.data):
                    raise NumericalError("non-finite loss")
                opt.zero_grad()
                loss.backward()
                opt.step()
            except NumericalError as exc:
                logger.error("diverged at epoch %d step %d: %s",
                             epoch, steps, _divergence_cause(model, batch, exc))
                result.diverged = True
                break
            result.step_losses.append((l_h, l_n))
            huber_sum += l_h
            contrast_sum += l_n
            batches += 1
            steps += 1
            if max_steps is not None and steps >= max_steps:
                break
        if result.diverged:
            break

        val = evaluate(model, prep, "val", cfg.batch_size)
        entry = EpochLog(epoch, opt.lr,
                         huber_sum / max(batches, 1), contrast_sum / max(batches, 1),
                         val.rmse, val.mae, val.mape)
        result.epochs.append(entry)
        logger.info("epoch %d lr %.6g huber %.5f contrast %.5f val mae %.4f",
                    epoch, entry.lr, entry.train_huber, entry.train_contrast, val.mae)
        if val.mae < result.best_val_mae:
            result.best_val_mae = val.mae
            result.best_epoch = epoch
            result.best_state = model.state_arrays()
        if max_steps is not None and steps >= max_steps:
            break

    if result.best_epoch < 0:
        # never reached a validation pass; current parameters are the last good ones
        result.best_state = model.state_arrays()
        result.best_val_mae = None
    return result
