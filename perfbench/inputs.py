"""Seeded PEMS-like flow series, written as the files the program reads.

The benchmark generates its own inputs so that the program under test
receives only files. A series has a daily cycle of 288 five-minute steps
with morning and evening peaks, quieter weekends, per-node level, amplitude
and phase, Gaussian noise, and missing cells: isolated dropouts plus
sensor outages that blank a node for up to a day.
"""

from __future__ import annotations

import json
import struct

import numpy as np

STEPS_PER_DAY = 288
BIN_MAGIC = b"ESGCNDS1"


def flow_series(seed, steps: int, nodes: int, missing_frac: float) -> np.ndarray:
    """[steps, nodes] float64 vehicle counts with NaN at missing cells."""
    rng = np.random.default_rng(seed)
    t = np.arange(steps)[:, None]
    day = 2 * np.pi * (t % STEPS_PER_DAY) / STEPS_PER_DAY
    weekend = ((t // STEPS_PER_DAY) % 7 >= 5)
    level = rng.uniform(80.0, 400.0, nodes)
    amp = level * rng.uniform(0.4, 0.9, nodes)
    shift = rng.uniform(-0.3, 0.3, nodes)
    profile = (0.6 * np.exp(-8 * (1 - np.cos(day - 2.0 + shift)))
               + 0.5 * np.exp(-8 * (1 - np.cos(day - 4.5 + shift)))
               + 0.3 * (1 - np.cos(day + shift)) / 2)
    values = level * 0.3 + amp * profile * np.where(weekend, 0.7, 1.0)
    values += rng.normal(0.0, 1.0, (steps, nodes)) * 0.04 * level
    values = np.maximum(values, 1.0)

    missing = rng.uniform(size=(steps, nodes)) < missing_frac / 2
    outage_cells = int(missing_frac / 2 * steps * nodes)
    while outage_cells > 0:
        node = rng.integers(nodes)
        length = int(rng.integers(12, STEPS_PER_DAY + 1))
        start = int(rng.integers(0, steps - length))
        missing[start:start + length, node] = True
        outage_cells -= length
    missing[0] = False  # every node keeps an observation to interpolate from
    return np.where(missing, np.nan, values)


def write_csv(path: str, values: np.ndarray) -> None:
    """Headerless CSV; missing cells are the literal ``nan``."""
    np.savetxt(path, values, delimiter=",", fmt="%.1f")


def write_bin(path: str, values: np.ndarray) -> None:
    """The packed format: magic, JSON header, float32 values, missing mask."""
    steps, nodes = values.shape
    mask = np.isnan(values)
    header = json.dumps({"T": steps, "N": nodes, "interval_minutes": 5,
                         "has_mask": True}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(BIN_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(np.where(mask, 0.0, values).astype("<f4").tobytes())
        fh.write(mask.astype(np.uint8).tobytes())
