"""Framed files (checkpoints, ``.bin`` series) and atomic writes.

A framed file is an 8-byte magic, a little-endian uint32 length, a UTF-8 JSON
header and a payload. A checkpoint (magic ``ESGCNCP1``) has the config echo,
epoch, validation MAE and parameter shapes in its header; its payload holds per
parameter, in sorted name order, uint32 name length, the UTF-8 name, uint32
float count and the values as little-endian float32.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager

import numpy as np

from .config import _is_int, _is_number

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


def write_frame(fh, magic: bytes, header: dict) -> None:
    """Magic, header length and JSON header; NaN and infinity raise ValueError."""
    text = json.dumps(header, allow_nan=False).encode("utf-8")
    fh.write(magic)
    fh.write(len(text).to_bytes(4, "little"))
    fh.write(text)


def read_frame(path: str, magic: bytes, error: type[Exception], what: str):
    """(JSON header, file bytes, payload offset) of a framed file; a missing file,
    a wrong magic, a short file or a header that is not UTF-8 JSON raises error."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    if blob[:8] != magic:
        raise error(f"corrupt {what} {path}: bad magic {blob[:8]!r}")
    offset = 12 + int.from_bytes(blob[8:12], "little")
    if offset > len(blob):   # also a file that ends inside the length
        raise error(f"corrupt {what} {path}: truncated header")
    try:
        header = json.loads(blob[12:offset].decode("utf-8"))
    except ValueError as exc:   # UnicodeDecodeError is one
        raise error(f"corrupt {what} {path}: bad header ({exc})") from None
    return header, blob, offset


def save(path: str, params: dict[str, np.ndarray], config: dict,
         epoch: int, val_mae: float | None) -> None:
    header = {
        "config": config,
        "epoch": epoch,
        "val_mae": val_mae,
        "param_shapes": {name: list(arr.shape) for name, arr in sorted(params.items())},
    }
    with write_atomic(path) as fh:
        write_frame(fh, MAGIC, header)
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name], dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.size))
            fh.write(arr.tobytes())


def load(path: str) -> tuple[dict[str, np.ndarray], dict]:
    header, blob, offset = read_frame(path, MAGIC, CheckpointError, "checkpoint")
    if not (isinstance(header, dict) and HEADER_KEYS <= header.keys()
            and isinstance(header["param_shapes"], dict)
            and all(isinstance(shape, list) and all(_is_int(d) and d >= 0 for d in shape)
                    for shape in header["param_shapes"].values())
            and _is_int(header["epoch"]) and header["epoch"] >= -1
            and (header["val_mae"] is None or _is_number(header["val_mae"]))):
        raise CheckpointError(f"corrupt checkpoint {path}: header must be an object with "
                              f"{', '.join(sorted(HEADER_KEYS))}; param_shapes an object of "
                              f"lists of ints >= 0, epoch an int >= -1, val_mae a finite "
                              f"number or null")
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
    except (struct.error, KeyError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: bad parameter blob ({exc})") from None
    if set(params) != set(shapes):
        raise CheckpointError(f"corrupt checkpoint {path}: parameter list does not match header")
    return params, header
