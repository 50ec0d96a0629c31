"""Minimal netpbm image I/O: P2 and P5 grayscale, P6 color.

The reader accepts any legal header (arbitrary whitespace, ``#`` comments).
A P2 raster is unsigned decimal samples separated by any ASCII whitespace,
with comments anywhere; signed, underscored, fractional or hex tokens are
errors.  The writer always emits the canonical form
``{magic}\\n{w} {h}\\n{maxval}\\n`` followed by the raster, so writing what
was just read canonicalizes a file, and a second write is byte-identical.
Pixel values are floats or ints on the way in; they are rounded half up and
clamped to ``[0, maxval]`` only at write time.  Non-finite pixels and empty
images are refused.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

__all__ = ["NetpbmError", "read_netpbm", "write_netpbm"]

MAGICS = ("P2", "P5", "P6")

_ASCII_DIGITS_AND_WHITESPACE = b"0123456789 \t\n\r\x0b\x0c"


class NetpbmError(OSError):
    """A netpbm file that cannot be parsed or written."""


def _header_ints(data: bytes, start: int, count: int) -> tuple[list[int], int]:
    """Read ``count`` unsigned decimal tokens, honoring comments, from ``start``.

    Returns the tokens and the offset just past the last one.
    """
    tokens: list[int] = []
    i = start
    while len(tokens) < count:
        if i >= len(data):
            raise NetpbmError("truncated header")
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            token = data[i:j]
            if not token.isdigit():
                raise NetpbmError(f"bad header token {token!r}")
            tokens.append(int(token))
            i = j
    return tokens, i


def read_netpbm(path) -> tuple[np.ndarray, int, str]:
    """Read a P2/P5/P6 file as ``(pixels, maxval, magic)``.

    Grayscale pixels come back as an ``(h, w)`` int array, color as
    ``(h, w, 3)``.
    """
    data = Path(path).read_bytes()
    magic = data[:2].decode("ascii", errors="replace")
    if magic not in MAGICS:
        raise NetpbmError(f"{path}: unsupported magic {magic!r}")
    if not (data[2:3].isspace() or data[2:3] == b"#"):
        raise NetpbmError(f"{path}: magic {magic} must be followed by whitespace or a comment")
    (w, h, maxval), end = _header_ints(data, 2, 3)
    _check_dims(path, w, h, maxval)
    channels = 3 if magic == "P6" else 1
    count = w * h * channels
    if magic == "P2":
        raster = re.sub(rb"#[^\n\r]*", b" ", data[end:])
        if raster.translate(None, _ASCII_DIGITS_AND_WHITESPACE):
            raise NetpbmError(f"{path}: P2 samples must be unsigned decimal integers")
        # np.fromstring reads a raster of whitespace alone as one 0
        pixels = np.empty(0, int) if raster.isspace() else np.fromstring(raster, dtype=np.int64, sep=" ")
        if pixels.size != count:
            raise NetpbmError(f"{path}: expected {count} samples, found {pixels.size}")
    else:
        if end >= len(data) or not data[end : end + 1].isspace():
            raise NetpbmError(f"{path}: header must end with a whitespace byte")
        dtype = np.dtype(">u2" if maxval > 255 else "u1")
        raster = data[end + 1 : end + 1 + count * dtype.itemsize]
        if len(raster) < count * dtype.itemsize:
            raise NetpbmError(f"{path}: truncated raster")
        pixels = np.frombuffer(raster, dtype=dtype).astype(int)
    pixels = pixels.reshape((h, w) if channels == 1 else (h, w, 3))
    if pixels.max(initial=0) > maxval:
        raise NetpbmError(f"{path}: sample exceeds maxval {maxval}")
    return pixels, maxval, magic


def _check_dims(path, w: int, h: int, maxval: int) -> None:
    if w < 1 or h < 1:
        raise NetpbmError(f"{path}: bad image size {w}x{h}")
    if not 1 <= maxval <= 65535:
        raise NetpbmError(f"{path}: maxval {maxval} outside [1, 65535]")


def _quantize(values, maxval: int) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise NetpbmError("pixels must be finite")
    return np.clip(np.floor(v + 0.5), 0, maxval).astype(np.int64)


def write_netpbm(path, pixels, maxval: int = 255, magic: str | None = None) -> None:
    """Write ``pixels`` in canonical form; see the module docstring.

    The magic defaults to P5 for ``(h, w)`` arrays and P6 for ``(h, w, 3)``.
    """
    pixels = np.asarray(pixels)
    if magic is None:
        magic = "P6" if pixels.ndim == 3 else "P5"
    if magic not in MAGICS:
        raise NetpbmError(f"unsupported magic {magic!r}")
    if not 1 <= int(maxval) <= 65535:
        raise NetpbmError(f"maxval {maxval} outside [1, 65535]")
    if magic == "P6":
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise NetpbmError(f"P6 needs (h, w, 3) pixels, got {pixels.shape}")
    elif pixels.ndim != 2:
        raise NetpbmError(f"{magic} needs (h, w) pixels, got {pixels.shape}")
    if pixels.size == 0:
        raise NetpbmError(f"cannot write an empty image of shape {pixels.shape}")
    q = _quantize(pixels, int(maxval))
    h, w = q.shape[:2]
    header = f"{magic}\n{w} {h}\n{int(maxval)}\n".encode("ascii")
    if magic == "P2":
        digits = [b"%d" % v for v in range(int(q.max()) + 1)]  # formatted once per value
        body = b"".join(b" ".join([digits[v] for v in row]) + b"\n" for row in q.tolist())
        Path(path).write_bytes(header + body)
    else:
        dtype = ">u2" if int(maxval) > 255 else "u1"
        Path(path).write_bytes(header + q.astype(dtype).tobytes())
