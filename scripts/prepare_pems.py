#!/usr/bin/env python3
"""Convert a PEMS-style .npz archive into the pipeline's csv or bin format.

The public PEMS03/04/07/08 archives carry an array under the key ``data``
shaped [T, N, features] with traffic flow in feature 0 at 5-minute
intervals. Non-finite cells are marked missing, as the loaders mark them.
Zeros in these exports usually encode missing samples; pass
--zeros-as-missing to mark them for interpolation instead of treating them
as real counts.

Example:
    python scripts/prepare_pems.py PEMS04.npz pems04.bin --zeros-as-missing
"""

import argparse

import numpy as np

from flowcast.checkpoint import write_atomic
from flowcast.data import SeriesDataset, mark_missing, save_bin


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("npz_path")
    ap.add_argument("out_path", help=".csv or .bin destination")
    ap.add_argument("--key", default="data")
    ap.add_argument("--zeros-as-missing", action="store_true")
    args = ap.parse_args()

    arr = np.load(args.npz_path)[args.key]
    if arr.ndim == 3:
        arr = arr[:, :, 0]
    flow, mask = mark_missing(arr.astype(np.float32), False, args.zeros_as_missing)
    print(f"{args.npz_path}: T={flow.shape[0]} N={flow.shape[1]} "
          f"missing {100.0 * mask.mean():.3f}%")

    if args.out_path.endswith(".bin"):
        save_bin(SeriesDataset(flow, mask), args.out_path)
    else:
        out = flow.astype(np.float64)
        out[mask] = np.nan
        with write_atomic(args.out_path, "w") as fh:
            np.savetxt(fh, out, delimiter=",", fmt="%.4f")
    print(f"wrote {args.out_path}")


if __name__ == "__main__":
    main()
