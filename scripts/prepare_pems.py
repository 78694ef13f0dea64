#!/usr/bin/env python3
"""Convert a PEMS-style .npz archive into the pipeline's csv or bin format.

The public PEMS03/04/07/08 archives carry an array under the key ``data``
shaped [T, N, features] with traffic flow in feature 0 at 5-minute
intervals. Non-finite cells are marked missing, as the loaders mark them.
Zeros in these exports usually encode missing samples; pass
--zeros-as-missing to mark them for interpolation instead of treating them
as real counts. Input that is not such an archive, and an output path that
cannot be written, exit 2 with one ``error:`` line and write no file.

Example:
    python scripts/prepare_pems.py PEMS04.npz pems04.bin --zeros-as-missing
"""

import argparse
import sys
from zipfile import BadZipFile

import numpy as np

from flowcast.checkpoint import write_atomic
from flowcast.cli import EXIT_INPUT
from flowcast.data import DataError, SeriesDataset, mark_missing, save_bin


def read_flow(path: str, key: str) -> np.ndarray:
    """The [T, N] flow under key in an npz archive: a numeric [T, N] array, or
    feature 0 of a [T, N, F] one. Anything else raises DataError."""
    try:
        archive = np.load(path)
    except (OSError, ValueError, BadZipFile) as exc:
        raise DataError(f"cannot read {path} as an npz archive: {exc}") from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise DataError(f"{path} is not an npz archive")
    with archive:
        if key not in archive.files:
            raise DataError(f"{path} has no array {key!r}; it holds {archive.files}")
        try:
            arr = archive[key]
        except ValueError as exc:   # an object array, which would need pickle
            raise DataError(f"cannot read {key!r} from {path}: {exc}") from None
    if arr.ndim == 3 and arr.shape[2] >= 1:
        arr = arr[:, :, 0]
    if arr.ndim != 2 or 0 in arr.shape or arr.dtype.kind not in "iuf":
        raise DataError(f"{key!r} in {path} is a {arr.dtype} array of shape {list(arr.shape)}; "
                        "want a numeric [T, N] or [T, N, F] array, each extent >= 1")
    return arr


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("npz_path")
    ap.add_argument("out_path", help=".csv or .bin destination")
    ap.add_argument("--key", default="data")
    ap.add_argument("--zeros-as-missing", action="store_true")
    args = ap.parse_args()

    try:
        flow, mask = mark_missing(read_flow(args.npz_path, args.key).astype(np.float32),
                                  False, args.zeros_as_missing)
        print(f"{args.npz_path}: T={flow.shape[0]} N={flow.shape[1]} "
              f"missing {100.0 * mask.mean():.3f}%")
        if args.out_path.endswith(".bin"):
            save_bin(SeriesDataset(flow, mask), args.out_path)
        else:
            out = flow.astype(np.float64)
            out[mask] = np.nan
            with write_atomic(args.out_path, "w") as fh:
                np.savetxt(fh, out, delimiter=",", fmt="%.4f")
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT) from None
    print(f"wrote {args.out_path}")


if __name__ == "__main__":
    main()
