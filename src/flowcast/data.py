"""Flow-series ingestion, repair, normalization, windowing and splits.

Sources are T x N matrices of vehicle counts per 5-minute interval, either
as headerless CSV (literal ``nan`` marks a missing cell; so does any other
non-finite value, ``inf`` included, and any value beyond float32 range,
such as ``1e39``) or as the packed
binary format described in the README (magic ``ESGCNDS1``, JSON header,
float32 payload, optional missing-value mask).

The supervised protocol: linear interpolation of missing runs, global
mean/std normalization fitted on the first 60% of time steps, sliding
12-in / 12-out windows with stride 1, and a chronological 6:2:2 split of
the window list.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .checkpoint import read_frame, write_atomic, write_frame
from .config import _is_int

BIN_MAGIC = b"ESGCNDS1"
TRAIN_FRACTION = 0.6   # of time steps for the normalizer, and of windows
VAL_FRACTION = 0.2     # of windows; the rest are test windows


class DataError(ValueError):
    """Malformed or insufficient input data."""


@dataclass
class SeriesDataset:
    values: np.ndarray                 # [T, N] float32
    missing_mask: np.ndarray           # [T, N] bool, True = missing
    interval_minutes: int = 5

    @property
    def num_steps(self) -> int:
        return self.values.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.values.shape[1]


@dataclass
class NormStats:
    mean: float
    std: float

    def apply(self, x):
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    def invert(self, z):
        return np.asarray(z, dtype=np.float64) * self.std + self.mean


# -- loading --------------------------------------------------------------------


def mark_missing(values: np.ndarray, marked: np.ndarray | bool, zeros_as_missing: bool):
    """(values with every missing cell set to 0, mask). A cell is missing where
    marked, where it is not finite and, with zeros_as_missing, where it is 0."""
    mask = ~np.isfinite(values) | marked
    if zeros_as_missing:
        mask |= values == 0.0
    return np.where(mask, np.float32(0.0), values), mask


def load_csv(path: str, zeros_as_missing: bool = False) -> SeriesDataset:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty file is our error below
            # parsed as float64 and rounded, so beyond float32 range -> inf, masked
            values = np.loadtxt(path, delimiter=",", dtype=np.float32, ndmin=2)
    except FileNotFoundError:
        raise DataError(f"data file not found: {path}") from None
    except ValueError as exc:
        raise DataError(f"malformed csv {path}: {exc}") from None
    if values.size == 0:
        raise DataError(f"empty data file: {path}")
    return SeriesDataset(*mark_missing(values, False, zeros_as_missing))


def load_bin(path: str, zeros_as_missing: bool = False) -> SeriesDataset:
    header, blob, offset = read_frame(path, BIN_MAGIC, DataError, "bin file")
    if not isinstance(header, dict):
        raise DataError(f"malformed bin header in {path}: not an object")
    t, n = header.get("T"), header.get("N")
    interval = header.get("interval_minutes", 5)
    has_mask = header.get("has_mask")
    if not (all(_is_int(v) and v >= 1 for v in (t, n, interval)) and isinstance(has_mask, bool)):
        raise DataError(f"malformed bin header in {path}: T, N and interval_minutes must be "
                        f"ints >= 1, has_mask true or false")

    need = offset + 4 * t * n + (t * n if has_mask else 0)
    if len(blob) != need:
        raise DataError(f"bin payload of {path} is {len(blob)} bytes, expected {need}")
    values = np.frombuffer(blob, dtype="<f4", count=t * n, offset=offset).reshape(t, n)
    marked = has_mask and np.frombuffer(blob, dtype=np.uint8, count=t * n,
                                        offset=offset + 4 * t * n).reshape(t, n) != 0
    return SeriesDataset(*mark_missing(values, marked, zeros_as_missing),
                         interval_minutes=interval)


def save_bin(ds: SeriesDataset, path: str) -> None:
    with write_atomic(path) as fh:
        write_frame(fh, BIN_MAGIC, {"T": ds.num_steps, "N": ds.num_nodes,
                                    "interval_minutes": ds.interval_minutes, "has_mask": True})
        fh.write(ds.values.astype("<f4").tobytes())
        fh.write(ds.missing_mask.astype(np.uint8).tobytes())


def load_dataset(path: str, format: str, zeros_as_missing: bool = False) -> SeriesDataset:
    if format == "csv":
        return load_csv(path, zeros_as_missing)
    if format == "bin":
        return load_bin(path, zeros_as_missing)
    raise DataError(f"unknown data format {format!r}")


# -- repair and normalization -----------------------------------------------------


def interpolate(ds: SeriesDataset) -> SeriesDataset:
    """Fill missing runs linearly between observed neighbors; runs touching
    either end take the nearest observed value. Idempotent.

    All runs of all nodes are filled in one pass over the missing cells only,
    with np.interp's float64 formula, so each filled cell equals a per-node
    np.interp bit for bit; observed cells are kept as they are."""
    t = ds.num_steps
    out = ds.values.astype(np.float32)
    cells = np.flatnonzero(ds.missing_mask.T)          # node-major: node * t + step
    if cells.size:
        node, step = np.divmod(cells, t)
        begins = np.ones(cells.size, dtype=bool)
        begins[1:] = np.diff(cells) != 1
        begins |= step == 0                            # a run never crosses nodes
        first = np.flatnonzero(begins)
        last = np.append(first[1:], cells.size) - 1
        run_node = node[first]
        lo, hi = step[first] - 1, step[last] + 1       # observed neighbours, if any
        no_lo, no_hi = lo < 0, hi >= t
        if (no_lo & no_hi).any():
            raise DataError(f"node {run_node[no_lo & no_hi][0]} has no observed values")
        lo = np.where(no_lo, hi, lo)                   # an end run has one neighbour
        hi = np.where(no_hi, lo, hi)
        v_lo = ds.values[lo, run_node].astype(np.float64)
        slope = (ds.values[hi, run_node] - v_lo) / np.maximum(hi - lo, 1)
        run = np.cumsum(begins) - 1                    # run index of each missing cell
        fill = slope[run] * (step - lo[run]) + v_lo[run]
        # an end run takes its neighbour's value itself, as np.interp does
        out[step, node] = np.where((no_lo | no_hi)[run], v_lo[run], fill)
    return SeriesDataset(out, np.zeros_like(ds.missing_mask), interval_minutes=ds.interval_minutes)


def fit_normalizer(values: np.ndarray) -> NormStats:
    """Global mean/std over all cells in the first ``TRAIN_FRACTION`` of steps."""
    t = values.shape[0]
    span = int(np.floor(t * TRAIN_FRACTION))
    if span < 1:
        raise DataError(f"too few time steps ({t}) to fit normalization")
    train = np.asarray(values[:span], dtype=np.float64)
    mean = float(train.mean())
    std = float(train.std())
    if not std > 0:
        raise DataError("zero std in the normalization span (constant series)")
    return NormStats(mean, std)


# -- windowing ---------------------------------------------------------------------


def window_starts(num_steps: int, t_in: int = 12, t_out: int = 12) -> np.ndarray:
    count = num_steps - (t_in + t_out) + 1
    if count < 1:
        raise DataError(f"series of {num_steps} steps too short for {t_in}+{t_out} windows")
    return np.arange(count)


def split_windows(starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    w = len(starts)
    n_train = int(np.floor(w * TRAIN_FRACTION))
    n_val = int(np.floor(w * VAL_FRACTION))
    n_test = w - n_train - n_val
    if n_train < 1 or n_val < 1 or n_test < 1:
        raise DataError(f"insufficient windows: {w} split to {n_train}/{n_val}/{n_test}")
    return starts[:n_train], starts[n_train:n_train + n_val], starts[n_train + n_val:]


@dataclass
class WindowBatch:
    inputs: np.ndarray        # [b, 1, n, t_in] float32, normalized
    targets_norm: np.ndarray  # [b, t_out, n] float32
    targets_raw: np.ndarray   # [b, t_out, n] float32
    starts: np.ndarray


@dataclass
class PreparedData:
    raw: np.ndarray           # [T, N] float32 after interpolation
    norm: np.ndarray          # [T, N] float32 normalized
    stats: NormStats
    t_in: int
    t_out: int
    splits: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return self.raw.shape[1]


def prepare(ds: SeriesDataset, t_in: int = 12, t_out: int = 12) -> PreparedData:
    repaired = interpolate(ds)
    stats = fit_normalizer(repaired.values)
    norm = stats.apply(repaired.values).astype(np.float32)
    starts = window_starts(repaired.num_steps, t_in, t_out)
    train, val, test = split_windows(starts)
    return PreparedData(repaired.values, norm, stats, t_in, t_out,
                        splits={"train": train, "val": val, "test": test})


def make_batch(prep: PreparedData, starts: np.ndarray) -> WindowBatch:
    in_idx = starts[:, None] + np.arange(prep.t_in)[None, :]
    out_idx = starts[:, None] + prep.t_in + np.arange(prep.t_out)[None, :]
    inputs = prep.norm[in_idx]                       # [b, t_in, n]
    inputs = inputs.transpose(0, 2, 1)[:, None, :, :]  # [b, 1, n, t_in]
    return WindowBatch(np.ascontiguousarray(inputs),
                       np.ascontiguousarray(prep.norm[out_idx]),
                       np.ascontiguousarray(prep.raw[out_idx]),
                       starts)


def iter_batches(prep: PreparedData, split: str, batch_size: int,
                 rng: np.random.Generator | None = None) -> Iterator[WindowBatch]:
    """Mini-batches over one split; the last short batch is kept.

    Given a generator, the windows are shuffled by it, so epoch order is a
    pure function of the caller's seed; without one, order is chronological.
    """
    starts = prep.splits[split]
    if rng is not None:
        starts = rng.permutation(starts)
    for lo in range(0, len(starts), batch_size):
        yield make_batch(prep, starts[lo:lo + batch_size])
