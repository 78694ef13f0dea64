"""Checkpoint file format.

Layout: 8-byte magic ``ESGCNCP1``; little-endian uint32 length + UTF-8 JSON
header (config echo, epoch, validation MAE, parameter shapes); then one
blob per parameter in sorted name order, each as uint32 name length, the
UTF-8 name, uint32 float count, and the values as little-endian float32.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager

import numpy as np

MAGIC = b"ESGCNCP1"
HEADER_KEYS = {"config", "epoch", "val_mae", "param_shapes"}


class CheckpointError(RuntimeError):
    """Corrupt or unreadable checkpoint artifact."""


@contextmanager
def write_atomic(path: str, mode: str = "wb", **open_kwargs):
    """Open a temp file beside path; it replaces path only if the block completes.

    Missing parent directories are created. A write that fails midway leaves
    any earlier file at path untouched and removes the temp file.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save(path: str, params: dict[str, np.ndarray], config: dict,
         epoch: int, val_mae: float | None) -> None:
    header = {
        "config": config,
        "epoch": epoch,
        "val_mae": val_mae,
        "param_shapes": {name: list(arr.shape) for name, arr in sorted(params.items())},
    }
    payload = json.dumps(header, allow_nan=False).encode("utf-8")
    with write_atomic(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name], dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.size))
            fh.write(arr.tobytes())


def load(path: str) -> tuple[dict[str, np.ndarray], dict]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    if len(blob) < len(MAGIC) + 4 or blob[:8] != MAGIC:
        raise CheckpointError(f"corrupt checkpoint {path}: bad magic {blob[:8]!r}")
    (hlen,) = struct.unpack_from("<I", blob, 8)
    offset = 12 + hlen
    try:
        header = json.loads(blob[12:offset].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: bad header ({exc})") from None
    if not (isinstance(header, dict) and HEADER_KEYS <= header.keys()
            and isinstance(header["param_shapes"], dict)):
        raise CheckpointError(f"corrupt checkpoint {path}: header must be an object with "
                              f"{', '.join(sorted(HEADER_KEYS))}, param_shapes an object")
    shapes = header["param_shapes"]

    params: dict[str, np.ndarray] = {}
    try:
        while offset < len(blob):
            (nlen,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            name = blob[offset:offset + nlen].decode("utf-8")
            offset += nlen
            (count,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
            offset += 4 * count
            params[name] = arr.reshape(shapes[name]).astype(np.float32)
    # TypeError: a shape in the header that is not an int or a list of ints
    except (struct.error, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: bad parameter blob ({exc})") from None
    if set(params) != set(shapes):
        raise CheckpointError(f"corrupt checkpoint {path}: parameter list does not match header")
    return params, header
