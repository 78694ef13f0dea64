"""Synthetic flow series for desk-scale experiments and acceptance runs."""

from __future__ import annotations

import numpy as np

from .data import SeriesDataset


def sinusoid_dataset(nodes: int = 10, steps: int = 500, seed: int = 0,
                     noise_frac: float = 0.01, missing_frac: float = 0.0,
                     period_range: tuple[float, float] = (24.0, 96.0)) -> SeriesDataset:
    """Per-node sinusoids with individual period, phase, amplitude and offset,
    plus Gaussian noise at ``noise_frac`` of each node's amplitude."""
    rng = np.random.default_rng(seed)
    t = np.arange(steps)[:, None]
    period = rng.uniform(period_range[0], period_range[1], size=nodes)
    phase = rng.uniform(0.0, 2 * np.pi, size=nodes)
    amplitude = rng.uniform(50.0, 150.0, size=nodes)
    offset = rng.uniform(150.0, 350.0, size=nodes)
    values = offset + amplitude * np.sin(2 * np.pi * t / period + phase)
    values += rng.normal(0.0, noise_frac * amplitude, size=(steps, nodes))
    mask = np.zeros((steps, nodes), dtype=bool)
    if missing_frac > 0:
        mask = rng.uniform(size=(steps, nodes)) < missing_frac
        # interpolation needs at least one observation per node
        mask[0] = False
    values = np.where(mask, 0.0, values)
    return SeriesDataset(values.astype(np.float32), mask)
