"""Binary parameter snapshots.

Layout (all integers little-endian uint32, floats little-endian float64):

    header_len | header utf-8 ("key=value\\n" lines describing the model)
    n_entries
    per entry: name_len | name utf-8 | rank | dims... | raw float64 values

Entries are written in sorted name order so identical parameter sets
always produce identical bytes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

_U32 = struct.Struct("<I")


def header_value(header, key, convert):
    """``convert(header[key])``; a value it rejects raises a ValueError
    that names the key and the value."""
    try:
        return convert(header[key])
    except ValueError:
        raise ValueError(f"header key {key}: cannot read {header[key]!r} "
                         f"as {convert.__name__}") from None


def save_checkpoint(path, config, params):
    """Write a config header plus named float64 arrays to ``path``."""
    header = "".join(f"{k}={v}\n" for k, v in config.items()).encode("utf-8")
    chunks = [_U32.pack(len(header)), header, _U32.pack(len(params))]
    for name in sorted(params):
        arr = params[name]
        arr = np.ascontiguousarray(getattr(arr, "data", arr), dtype="<f8")
        encoded = name.encode("utf-8")
        chunks.append(_U32.pack(len(encoded)))
        chunks.append(encoded)
        chunks.append(_U32.pack(arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path):
    """Read back (config: dict of strings, params: dict of float64 arrays)."""
    blob = Path(path).read_bytes()
    view = memoryview(blob)
    offset = 0

    def take(n):
        nonlocal offset
        if offset + n > len(view):
            raise ValueError(f"{path}: truncated checkpoint at byte {offset}")
        piece = view[offset:offset + n]
        offset += n
        return piece

    def take_u32():
        return _U32.unpack(take(4))[0]

    header = bytes(take(take_u32())).decode("utf-8")
    config = {}
    for line in header.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}: malformed header line {line!r}")
        config[key] = value

    params = {}
    for _ in range(take_u32()):
        name = bytes(take(take_u32())).decode("utf-8")
        rank = take_u32()
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        data = np.frombuffer(take(8 * count), dtype="<f8").reshape(shape)
        params[name] = data.astype(np.float64)
    if offset != len(view):
        raise ValueError(f"{path}: {len(view) - offset} trailing bytes after last entry")
    return config, params
