"""Binary parameter snapshots, and the key=value text format of their headers.

Layout (all integers little-endian uint32, floats little-endian float64):

    header_len | header utf-8 ("key=value\\n" lines describing the model)
    n_entries
    per entry: name_len | name utf-8 | rank | dims... | raw float64 values

Entries are written in sorted name order so identical parameter sets
always produce identical bytes.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

_U32 = struct.Struct("<I")


def format(values):
    """``key=value`` text, one line per entry in insertion order."""
    return "".join(f"{k}={v}\n" for k, v in values.items())


def parse(text, where="line ", read=None):
    """Inverse of ``format``: lines split at the first '=', key and value
    stripped, blank and '#' lines skipped.  ``read(key, value, lineno)``
    converts each value.  A line without '=' or a key set twice raises a
    ValueError starting "<where><lineno>: "."""
    values, first = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise ValueError(f"{where}{lineno}: expected key=value, got {line!r}")
        value = value if read is None else read(key, value, lineno)
        if key in first:
            raise ValueError(f"{where}{lineno}: key {key!r} already set on line {first[key]}")
        values[key], first[key] = value, lineno
    return values


def read_value(where, key, text, convert, error=ValueError):
    """``convert(text)``; a rejected value raises ``error`` "<where>key <key>:
    <problem>", the problem being the converter's message, or "cannot parse
    <text>" for a plain ValueError (int's, say)."""
    try:
        return convert(text)
    except ValueError as err:
        problem = f"cannot parse {text!r}" if type(err) is ValueError else err
        raise error(f"{where}key {key}: {problem}") from None


def save_checkpoint(path, config, params):
    """Write a config header plus named float64 arrays to ``path``.

    The header and the entries go to the file one at a time, each array
    from its own buffer, so saving holds no copy of the parameters.  A
    failed save can leave a partial file; write to a temporary name and
    move it into place where that matters.
    """
    header = format(config).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_U32.pack(len(header)) + header + _U32.pack(len(params)))
        for name in sorted(params):
            arr = params[name]
            arr = np.require(getattr(arr, "data", arr), dtype="<f8", requirements="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(encoded)}sI{arr.ndim}I",
                                 len(encoded), encoded, arr.ndim, *arr.shape))
            fh.write(arr)


def load_checkpoint(path):
    """Read back (config: dict of strings, params: dict of float64 arrays).

    Each entry is read straight into its own array.  Every declared size is
    checked against the bytes left in the file before anything is read or
    allocated, and an entry holding a non-finite value is rejected, as is an
    entry name that appears twice; the header is read by ``parse``.  Every
    defect raises a ValueError that names the file.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        offset = 0

        def truncated():
            return ValueError(f"{path}: truncated checkpoint at byte {offset}")

        def need(n):
            if n > size - offset:
                raise truncated()

        def take(n):
            nonlocal offset
            need(n)
            piece = fh.read(n)
            if len(piece) != n:  # the file shrank while being read
                raise truncated()
            offset += n
            return piece

        def take_u32():
            return _U32.unpack(take(4))[0]

        def take_text(what):
            start = offset + 4
            try:
                return take(take_u32()).decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: {what} at byte {start} is not utf-8") from None

        config = parse(take_text("header"), f"{path}: header line ")

        params = {}
        for _ in range(take_u32()):
            name = take_text("entry name")
            if name in params:
                raise ValueError(f"{path}: entry {name!r} appears twice")
            rank = take_u32()
            shape = struct.unpack(f"<{rank}I", take(4 * rank))
            count = math.prod(shape)
            need(8 * count)
            data = np.empty(count, dtype="<f8")
            if fh.readinto(data) != 8 * count:
                raise truncated()
            offset += 8 * count
            # min and max carry any nan or inf out without a temporary array
            if count and not (np.isfinite(data.min()) and np.isfinite(data.max())):
                index = int(np.argmin(np.isfinite(data)))
                raise ValueError(f"{path}: entry {name!r} holds non-finite value "
                                 f"{float(data[index])!r} at flat index {index}")
            try:
                params[name] = data.reshape(shape)
            except ValueError as err:  # a zero-size shape whose other dims overflow
                raise ValueError(f"{path}: entry {name!r} has shape {shape}: {err}") from None
        if offset != size:
            raise ValueError(f"{path}: {size - offset} trailing bytes after last entry")
    return config, params
