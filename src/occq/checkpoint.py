"""Deterministic binary checkpoints.

Named float64/int64 arrays plus string metadata, written in a fixed layout
with no timestamps, so identical training runs produce byte-identical
files.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError, VersionError
from .fileio import replacing

_MAGIC = b"OCCQCKPT"
_VERSION = 1
_DTYPES = {0: np.float64, 1: np.int64}
_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.int64): 1}


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict[str, str]):
    """Write arrays and metadata; keys are sorted for a canonical layout.
    The file appears under ``path`` only once it is complete."""
    with replacing(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(meta)))
        for key in sorted(meta):
            _write_str(fh, key)
            _write_str(fh, meta[key])
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.asarray(arrays[name])
            if arr.dtype not in _DTYPE_CODES:
                arr = arr.astype(np.float64)
            _write_str(fh, name)
            fh.write(struct.pack("<B", _DTYPE_CODES[arr.dtype]))
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes(order="C"))


def load_checkpoint(path):
    """Read back (arrays, meta).  A file that is not exactly one checkpoint of
    this version, with no repeated key or name, raises ``FormatError`` or
    ``VersionError`` naming ``path``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse(blob)
    except (FormatError, VersionError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _parse(blob: bytes):
    view = memoryview(blob)
    if blob[:8] != _MAGIC:
        raise FormatError("not a checkpoint file")
    try:
        (version,) = struct.unpack_from("<I", view, 8)
        if version != _VERSION:
            raise VersionError(f"unsupported checkpoint version {version}")
        pos = 12
        (n_meta,) = struct.unpack_from("<I", view, pos)
        pos += 4
        meta = {}
        for _ in range(n_meta):
            key, pos = _read_str(view, pos)
            if key in meta:
                raise FormatError(f"metadata key {key!r} repeated")
            meta[key], pos = _read_str(view, pos)
        (n_arrays,) = struct.unpack_from("<I", view, pos)
        pos += 4
        arrays = {}
        for _ in range(n_arrays):
            name, pos = _read_str(view, pos)
            if name in arrays:
                raise FormatError(f"array {name!r} repeated")
            (code, ndim) = struct.unpack_from("<BB", view, pos)
            pos += 2
            if code not in _DTYPES:
                raise FormatError(f"unknown dtype code {code}")
            shape = struct.unpack_from(f"<{ndim}Q", view, pos)
            pos += 8 * ndim
            count = math.prod(shape)
            nbytes = count * 8
            if pos + nbytes > len(blob):
                raise FormatError("truncated checkpoint")
            try:
                arr = np.frombuffer(blob, dtype=_DTYPES[code], count=count, offset=pos).reshape(shape)
            except ValueError:  # numpy refuses a shape whose byte size overflows, even with no elements
                raise FormatError(f"array {name!r} has an impossible shape {shape}") from None
            arrays[name] = arr.copy()
            pos += nbytes
    except struct.error:
        raise FormatError("truncated checkpoint") from None
    if pos != len(blob):
        raise FormatError(f"{len(blob) - pos} bytes after the last array")
    return arrays, meta


def _write_str(fh, s: str):
    data = s.encode("utf-8")
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)


def _read_str(view, pos):
    (n,) = struct.unpack_from("<I", view, pos)  # past the end: struct.error, which the caller reports
    pos += 4
    if pos + n > len(view):
        raise FormatError("truncated checkpoint")
    try:
        return bytes(view[pos : pos + n]).decode("utf-8"), pos + n
    except UnicodeDecodeError:
        raise FormatError("checkpoint string is not valid UTF-8") from None
