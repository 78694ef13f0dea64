"""Malformed inputs shared by the reader and CLI tests."""

import json
import struct

from hypothesis import strategies as st

# any JSON value, small enough to keep each example cheap
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=8)



def framed(magic: bytes, header, payload: bytes = b"") -> bytes:
    """A file in the bin / checkpoint layout: magic, uint32 length, JSON header, payload."""
    text = json.dumps(header).encode("utf-8")
    return magic + struct.pack("<I", len(text)) + text + payload


def payload_of(blob: bytes) -> bytes:
    """Everything after the JSON header of a bin or checkpoint file."""
    (hlen,) = struct.unpack_from("<I", blob, 8)
    return blob[12 + hlen:]


# config documents whose only fault is one value its field's type cannot hold
BAD_TYPE_CONFIGS = [
    {"model": {"horizon": 2.5}},
    {"train": {"batch_size": 1.5}},
    {"train": {"seed": "0"}},
    {"model": {"channels": [8.0, 8, 8, 8]}},
    {"train": {"epochs": "ten"}},
    {"model": {"channels": 5}},
    {"model": {"lambda": "x"}},
    {"model": {"use_es": "no"}},
    {"train": {"lr0": 10**400}},   # a JSON integer too large for a float
]

# bin headers whose only fault is a value of the wrong type or range; read with
# int() and bool(), each declares 8 cells with a mask, so BAD_BIN_PAYLOAD fits
BAD_BIN_HEADERS = [
    {"T": "4", "N": 2, "has_mask": True},
    {"T": 4.9, "N": 2, "has_mask": True},
    {"T": True, "N": 8, "has_mask": True},
    {"T": 4, "N": 2.0, "has_mask": True},
    {"T": 4, "N": 2, "has_mask": "false"},
    {"T": 4, "N": 2, "has_mask": 1},
    {"T": 4, "N": 2, "has_mask": True, "interval_minutes": -7},
    {"T": 4, "N": 2, "has_mask": True, "interval_minutes": 0},
    {"T": 4, "N": 2, "has_mask": True, "interval_minutes": "5"},
]
BAD_BIN_PAYLOAD = bytes(8 * 4 + 8)
