"""Classical pooling baselines, all with circular boundary handling.

Every baseline pools the trailing axis by an integer stride that must divide
the length.  None of them is shift-equivalent under coupled upsampling
(the tests exhibit witnesses); they exist to be compared against.

The kind ``"blur"`` is a circular box filter (width: the stride, or
``window``) followed by subsampling.  That is average pooling, bit for bit;
it is not BlurPool's binomial filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pooling import _check_budget
from .spectral import _positive_integer

__all__ = [
    "BASELINE_KINDS",
    "PoolingKind",
    "pool_avg",
    "pool_baseline",
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
    the box width for blur fragments produced by :func:`replace_rule`.  A
    stride or window that is not an integer (a float, a bool) or is below 1
    is a ``ValueError``.
    """

    kind: str
    stride: int
    window: int | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown pooling kind {self.kind!r}, expected one of {ALL_KINDS}")
        _positive_integer(self.stride, "stride")
        if self.window is not None:
            _positive_integer(self.window, "window")

    @property
    def effective_window(self) -> int:
        return self.stride if self.window is None else self.window

    def pooled(self, n: int) -> int:
        """The length ``n`` pools to, ``n // stride``; every kind pools by the
        stride, so a stride that does not divide ``n`` is a ``ValueError``."""
        if n % self.stride:
            raise ValueError(f"stride {self.stride} must divide the length {n}")
        return n // self.stride


def _checked(x, kind: PoolingKind):
    x = np.asarray(x, dtype=float)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ValueError(f"signal must have a nonempty trailing axis, got shape {x.shape}")
    kind.pooled(x.shape[-1])
    return x


def _gather_windows(x: np.ndarray, stride: int, window: int) -> np.ndarray:
    """The circular windows ``(..., n/stride, window)`` of ``x``'s trailing
    axis, one per stride step; refused before the gather when the windows and
    their index exceed the build budget."""
    n = x.shape[-1]
    rows, lead = n // stride, x.size // n
    what = f"windows of {window} at stride {stride} over {lead}x{n} samples"
    _check_budget(8 * (lead + 1) * rows * window, what + " need about {mib} MiB with their index")
    starts = np.arange(0, n, stride)
    return x[..., (starts[:, None] + np.arange(window)[None, :]) % n]


def pool_max(x, window: int | None, stride: int) -> np.ndarray:
    """Max over circular windows of the given width (None: the stride), one
    per stride step."""
    kind = PoolingKind("max", stride, window)
    x = _checked(x, kind)
    return _gather_windows(x, stride, kind.effective_window).max(axis=-1)


def pool_avg(x, window: int | None, stride: int) -> np.ndarray:
    """Mean over circular windows of the given width (None: the stride), one
    per stride step."""
    kind = PoolingKind("avg", stride, window)
    x = _checked(x, kind)
    return _gather_windows(x, stride, kind.effective_window).mean(axis=-1)


def pool_stride(x, stride: int) -> np.ndarray:
    """Keep every stride-th sample, starting at index 0."""
    x = _checked(x, PoolingKind("stride", stride))
    return x[..., ::stride].copy()


def pool_blur_stride(x, stride: int, window: int | None = None) -> np.ndarray:
    """Circular box filter (width ``window``, default the stride) followed by
    subsampling.

    It equals ``pool_avg(x, window or stride, stride)`` bit for bit, which
    the tests pin down, but filters all ``n`` samples before it keeps every
    stride-th.
    """
    kind = PoolingKind("blur", stride, window)
    x = _checked(x, kind)
    blurred = _gather_windows(x, 1, kind.effective_window).mean(axis=-1)
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
