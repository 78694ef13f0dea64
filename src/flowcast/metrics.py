"""Forecast-quality metrics on denormalized predictions.

MAPE only averages over cells whose true value clears a small magnitude
threshold, since zero flows make the percentage undefined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAPE_MASK_EPS = 1e-3  # vehicles; |y| below this is excluded from MAPE


@dataclass
class MetricsReport:
    rmse: float
    mae: float
    mape: float  # percent

    def as_dict(self) -> dict:
        return {"rmse": self.rmse, "mae": self.mae, "mape": self.mape}


class MetricAccumulator:
    """Streaming accumulator for the three metrics over prediction batches."""

    def __init__(self):
        self.sq_sum = 0.0
        self.abs_sum = 0.0
        self.count = 0
        self.pct_sum = 0.0
        self.pct_count = 0

    def add(self, pred: np.ndarray, true: np.ndarray) -> None:
        if pred.shape != true.shape:
            raise ValueError(f"metric shapes differ: {pred.shape} vs {true.shape}")
        err = np.asarray(pred, dtype=np.float64) - np.asarray(true, dtype=np.float64)
        self.sq_sum += float((err * err).sum())
        self.abs_sum += float(np.abs(err).sum())
        self.count += err.size
        mask = np.abs(true) >= MAPE_MASK_EPS
        if mask.any():
            self.pct_sum += float((np.abs(err[mask]) / np.abs(true[mask])).sum())
            self.pct_count += int(mask.sum())

    def report(self) -> MetricsReport:
        if self.count == 0:
            raise ValueError("no predictions accumulated")
        rmse = float(np.sqrt(self.sq_sum / self.count))
        mae = self.abs_sum / self.count
        mape = 100.0 * self.pct_sum / self.pct_count if self.pct_count else 0.0
        return MetricsReport(rmse, mae, mape)


def compute_metrics(pred: np.ndarray, true: np.ndarray) -> MetricsReport:
    acc = MetricAccumulator()
    acc.add(pred, true)
    return acc.report()
