"""Classical pooling baselines, all with circular boundary handling.

Every baseline pools the trailing axis by an integer stride that must divide
the length.  None of them is shift-equivalent under coupled upsampling
(the tests exhibit witnesses); they exist to be compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BASELINE_KINDS",
    "PoolingKind",
    "pool_avg",
    "pool_baseline",
    "pool_baseline_2d",
    "pool_blur_stride",
    "pool_max",
    "pool_stride",
    "replace_rule",
]

BASELINE_KINDS = ("max", "avg", "stride", "blur")
ALL_KINDS = ("fpool",) + BASELINE_KINDS


@dataclass(frozen=True)
class PoolingKind:
    """Pooling selector: ``kind`` in {fpool, max, avg, stride, blur}.

    ``window`` is the max/avg window (default: the stride) and doubles as
    the box width for blur fragments produced by :func:`replace_rule`.
    """

    kind: str
    stride: int
    window: int | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown pooling kind {self.kind!r}, expected one of {ALL_KINDS}")
        if int(self.stride) < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.window is not None and int(self.window) < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    @property
    def effective_window(self) -> int:
        return self.stride if self.window is None else self.window


def _checked(x, stride: int):
    x = np.asarray(x, dtype=float)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ValueError(f"signal must have a nonempty trailing axis, got shape {x.shape}")
    n = x.shape[-1]
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if n % stride:
        raise ValueError(f"stride {stride} must divide the length {n}")
    return x, n


def _window_index(n: int, stride: int, window: int) -> np.ndarray:
    starts = np.arange(0, n, stride)
    return (starts[:, None] + np.arange(window)[None, :]) % n


def pool_max(x, window: int, stride: int) -> np.ndarray:
    """Max over circular windows of the given width, one per stride step."""
    x, n = _checked(x, stride)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return x[..., _window_index(n, stride, window)].max(axis=-1)


def pool_avg(x, window: int, stride: int) -> np.ndarray:
    """Mean over circular windows of the given width, one per stride step."""
    x, n = _checked(x, stride)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return x[..., _window_index(n, stride, window)].mean(axis=-1)


def pool_stride(x, stride: int) -> np.ndarray:
    """Keep every stride-th sample, starting at index 0."""
    x, _ = _checked(x, stride)
    return x[..., ::stride].copy()


def pool_blur_stride(x, stride: int, box: int | None = None) -> np.ndarray:
    """Circular box filter (width = stride unless given) followed by subsampling.

    With the default box this coincides with average pooling at window =
    stride, which the tests pin down to 1e-12.
    """
    x, n = _checked(x, stride)
    box = stride if box is None else int(box)
    if box < 1:
        raise ValueError(f"box width must be >= 1, got {box}")
    idx = (np.arange(n)[:, None] + np.arange(box)[None, :]) % n
    blurred = x[..., idx].mean(axis=-1)
    return blurred[..., ::stride].copy()


def pool_baseline(kind: PoolingKind, x) -> np.ndarray:
    """Dispatch a classical baseline over the trailing axis."""
    if kind.kind == "max":
        return pool_max(x, kind.effective_window, kind.stride)
    if kind.kind == "avg":
        return pool_avg(x, kind.effective_window, kind.stride)
    if kind.kind == "stride":
        return pool_stride(x, kind.stride)
    if kind.kind == "blur":
        return pool_blur_stride(x, kind.stride, kind.window)
    raise ValueError(f"{kind.kind!r} is not a classical baseline; build a pooling plan instead")


def pool_baseline_2d(kind: PoolingKind, image) -> np.ndarray:
    """Separable 2-D baseline over images ``(..., h, w)``: pool the width
    axis, then the height axis; leading axes are a batch."""
    img = np.asarray(image, dtype=float)
    if img.ndim < 2:
        raise ValueError(f"image must be (..., h, w), got shape {img.shape}")
    out = pool_baseline(kind, img)
    out = np.swapaxes(pool_baseline(kind, np.swapaxes(out, -1, -2)), -1, -2)
    return out


def replace_rule(kind: PoolingKind) -> tuple[PoolingKind, ...]:
    """Rewrite a pooling step into a resolution-preserving part plus
    frequency pooling at the same stride.

    * max(k, s)    -> (max(k, 1), fpool(s))
    * avg(k, s)    -> (fpool(s),)
    * stride(s)    -> (stride(1), fpool(s))   [stride(1) stands for the
      resolution-preserving half of a strided convolution]
    * blur(s)      -> (blur box kept at width s with stride 1, fpool(s))
    * stride == 1  -> unchanged
    """
    if kind.stride == 1 or kind.kind == "fpool":
        return (kind,)
    s = kind.stride
    if kind.kind == "max":
        return (PoolingKind("max", 1, kind.effective_window), PoolingKind("fpool", s))
    if kind.kind == "avg":
        return (PoolingKind("fpool", s),)
    if kind.kind == "stride":
        return (PoolingKind("stride", 1), PoolingKind("fpool", s))
    if kind.kind == "blur":
        return (PoolingKind("blur", 1, kind.effective_window), PoolingKind("fpool", s))
    raise ValueError(f"no replacement rule for kind {kind.kind!r}")
