"""Crash-safe file writes and strict text reads."""

from __future__ import annotations

import os
from contextlib import contextmanager

from .errors import FormatError


@contextmanager
def replacing(path):
    """Binary file handle for new contents of ``path``.

    The data goes to a temporary file in the same directory, which
    ``os.replace`` moves to ``path`` only once the block has finished, so an
    interrupted write leaves the old file (or none) under the final name,
    never a torn one.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_text(path) -> str:
    """The UTF-8 text of ``path``; bytes that do not decode raise ``FormatError`` naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _read_count(token: str, line: int | None, bound: int = 2**63) -> int:
    """``token`` as ASCII decimal digits, an integer in [0, ``bound``), an int64 by default;
    anything else, such as ``+11``, ``0_0`` or non-ASCII digits, raises ``FormatError`` at
    ``line``.  The text formats store no negative integer."""
    try:
        value = int(token) if token.isascii() and token.isdigit() else -1
    except ValueError:  # more digits than ``int`` converts
        value = -1
    if not 0 <= value < bound:
        raise FormatError(f"expected an integer in [0, {bound}), got {token!r}", line=line)
    return value


def _read_hex(token: str) -> float:
    """``token`` as ``float.hex`` writes it: ``0x`` or ``-0x`` form, ``nan``, ``inf`` or ``-inf``.
    Anything else raises ``ValueError``: ``float.fromhex`` alone would read ``-0.1`` as -0x0.1,
    that is -0.0625, and ``+0x1p+0`` as 1.0.  A value beyond the float range raises
    ``OverflowError``."""
    if not token.startswith(("0x", "-0x")) and token not in ("nan", "inf", "-inf"):
        raise ValueError(f"not a hex float: {token!r}")
    return float.fromhex(token)
