"""Test references: the per-token P2 reader and formatter.

``read_p2`` splits the text on whitespace and calls ``int()`` on every
token; ``write_p2`` calls ``str()`` on every sample.  They are the plainest
reading of the format, and ``fpool.netpbm`` must agree with them on every
file it accepts and on every byte it writes.  The reader is looser than
``fpool.netpbm``: ``int()`` also takes signed and underscored tokens, and it
reads a digit glued to the magic as the width.  A sample beyond int64
escapes it as ``OverflowError``.
"""

import re

import numpy as np

from fpool.netpbm import NetpbmError


def read_p2(data: bytes) -> tuple[np.ndarray, int, str]:
    """Parse the bytes of a P2 file as ``(pixels, maxval, "P2")``."""
    if data[:2] != b"P2":
        raise NetpbmError(f"not a P2 file: {data[:2]!r}")
    text = re.sub(rb"#[^\n\r]*", b" ", data[2:])
    fields = text.split()
    if len(fields) < 3:
        raise NetpbmError("truncated header")
    try:
        values = [int(f) for f in fields]
    except ValueError as e:
        raise NetpbmError(f"non-integer sample: {e}") from None
    w, h, maxval = values[:3]
    if w < 1 or h < 1:
        raise NetpbmError(f"bad image size {w}x{h}")
    if not 1 <= maxval <= 65535:
        raise NetpbmError(f"maxval {maxval} outside [1, 65535]")
    samples = values[3:]
    if len(samples) != w * h:
        raise NetpbmError(f"expected {w * h} samples, found {len(samples)}")
    pixels = np.asarray(samples, dtype=int).reshape(h, w)
    if pixels.max(initial=0) > maxval:
        raise NetpbmError(f"sample exceeds maxval {maxval}")
    return pixels, maxval, "P2"


def write_p2(pixels, maxval: int) -> bytes:
    """Canonical P2 bytes of ``(h, w)`` pixels, rounded half up and clamped."""
    q = np.clip(np.floor(np.asarray(pixels, dtype=float) + 0.5), 0, maxval).astype(np.int64)
    h, w = q.shape
    body = "".join(" ".join(str(v) for v in row) + "\n" for row in q)
    return f"P2\n{w} {h}\n{maxval}\n".encode("ascii") + body.encode("ascii")
