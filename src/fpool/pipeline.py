"""Small composable pipelines and the shift-equivalence harness.

Feature layout is channel-first: 1-D features are ``(channels, n)``, images
are ``(channels, h, w)``.  The convolution, ReLU and pooling layers also take
a leading sample axis, ``(S, channels, ...)``, and act on every sample in one
call.  Convolutions always have stride 1 (a strided convolution is
represented as conv followed by a pooling layer, which is the whole point of
the replacement rules).  The harness measures how far a pipeline is from
commuting with cyclic shifts once its output is carried back to input
resolution by an upsampler.  It evaluates a set of shifts as one batch:
the unshifted reference is processed once, one index gather builds the
shifted inputs, and one forward and one upsampling run per chunk of shifts,
with at most 4,096 doubles in any stage array of a chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .baselines import PoolingKind, pool_baseline, pool_baseline_2d
from .pooling import FPoolPlan, make_plan, pool1d, pool2d, unpool1d, unpool2d

__all__ = [
    "Conv1d",
    "Conv2d",
    "GlobalAvg",
    "Linear",
    "Pipeline",
    "Pool1d",
    "Pool2d",
    "ReLU",
    "Softmax",
    "equivalence_error",
    "random_conv1d",
    "random_conv2d",
    "random_linear",
    "toy_classifier_consistency",
    "toy_classifier_predictions",
]

# np.pad mode of each convolution padding: taps read slices of the padded input
_PAD_MODES = {"circular": "wrap", "zero": "constant"}

# Each stage array of one chunk of a batched sweep, gather indices included,
# holds at most this many doubles (32 KB), so a sweep's memory peak does not
# grow with its number of shifts.
_SWEEP_CHUNK_DOUBLES = 4096


def _check_padding(padding: str) -> None:
    if padding not in _PAD_MODES:
        raise ValueError(f"padding must be one of {tuple(_PAD_MODES)}, got {padding!r}")


@dataclass(eq=False)
class Conv1d:
    """Stride-1 convolution over ``(..., c_in, n)`` features, centered taps;
    only the trailing axis is padded, so leading axes are a batch."""

    weights: np.ndarray  # (c_out, c_in, k)
    padding: str = "circular"
    seed: int | None = None  # recorded when the weights came from a seeded init

    def __post_init__(self):
        _check_padding(self.padding)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 3:
            raise ValueError(f"conv1d weights must be (c_out, c_in, k), got {self.weights.shape}")

    def out_shape(self, shape):
        c_out, c_in, _ = self.weights.shape
        if len(shape) != 2 or shape[0] != c_in:
            raise ValueError(f"conv1d expects (c_in={c_in}, n) features, got {shape}")
        return (c_out, shape[1])

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        c_out, _, k = self.weights.shape
        off = k // 2
        n = x.shape[-1]
        widths = ((0, 0),) * (x.ndim - 1) + ((off, k - 1 - off),)
        xp = np.pad(x, widths, mode=_PAD_MODES[self.padding])
        out = np.zeros(x.shape[:-2] + (c_out, n))
        for j in range(k):
            out += np.einsum("oi,...in->...on", self.weights[:, :, j], xp[..., j : j + n])
        return out


@dataclass(eq=False)
class Conv2d:
    """Stride-1 convolution over ``(..., c_in, h, w)`` features, centered
    taps; only the two trailing axes are padded, so leading axes are a batch."""

    weights: np.ndarray  # (c_out, c_in, kh, kw)
    padding: str = "circular"
    seed: int | None = None

    def __post_init__(self):
        _check_padding(self.padding)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 4:
            raise ValueError(
                f"conv2d weights must be (c_out, c_in, kh, kw), got {self.weights.shape}"
            )

    def out_shape(self, shape):
        c_out, c_in, _, _ = self.weights.shape
        if len(shape) != 3 or shape[0] != c_in:
            raise ValueError(f"conv2d expects (c_in={c_in}, h, w) features, got {shape}")
        return (c_out, shape[1], shape[2])

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        c_out, _, kh, kw = self.weights.shape
        oh, ow = kh // 2, kw // 2
        h, w = x.shape[-2:]
        widths = ((0, 0),) * (x.ndim - 2) + ((oh, kh - 1 - oh), (ow, kw - 1 - ow))
        xp = np.pad(x, widths, mode=_PAD_MODES[self.padding])
        out = np.zeros(x.shape[:-3] + (c_out, h, w))
        for a in range(kh):
            for b in range(kw):
                tap = xp[..., a : a + h, b : b + w]
                out += np.einsum("oi,...ihw->...ohw", self.weights[:, :, a, b], tap)
        return out


@dataclass(frozen=True)
class ReLU:
    def out_shape(self, shape):
        return tuple(shape)

    def apply(self, x):
        return np.maximum(x, 0.0)


@dataclass(eq=False)
class Pool1d:
    """Pooling along the trailing axis of ``(c, n)`` features; the channels
    are :func:`pool1d`'s leading batch axis, so a forward is one call."""

    kind: PoolingKind
    plan: FPoolPlan | None = None

    def __post_init__(self):
        if self.kind.kind == "fpool" and self.plan is None:
            raise ValueError("frequency pooling needs a plan")

    def out_shape(self, shape):
        if len(shape) != 2:
            raise ValueError(f"pool1d expects (c, n) features, got {shape}")
        c, n = shape
        if self.plan is not None:
            if n != self.plan.n:
                raise ValueError(f"plan pools length {self.plan.n}, features have {n}")
            return (c, self.plan.m)
        if n % self.kind.stride:
            raise ValueError(f"stride {self.kind.stride} must divide the length {n}")
        return (c, n // self.kind.stride)

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind.kind == "fpool":
            return pool1d(self.plan, x)
        return pool_baseline(self.kind, x)


@dataclass(eq=False)
class Pool2d:
    """Separable pooling of ``(c, h, w)`` features over the two trailing
    axes, so leading axes (channels, samples) are one batch."""

    kind: PoolingKind
    plan_rows: FPoolPlan | None = None
    plan_cols: FPoolPlan | None = None

    def __post_init__(self):
        if self.kind.kind == "fpool" and (self.plan_rows is None or self.plan_cols is None):
            raise ValueError("frequency pooling needs a plan per axis")

    def out_shape(self, shape):
        if len(shape) != 3:
            raise ValueError(f"pool2d expects (c, h, w) features, got {shape}")
        c, h, w = shape
        if self.kind.kind == "fpool":
            if (h, w) != (self.plan_rows.n, self.plan_cols.n):
                raise ValueError(
                    f"plans pool ({self.plan_rows.n}, {self.plan_cols.n}), features have {(h, w)}"
                )
            return (c, self.plan_rows.m, self.plan_cols.m)
        s = self.kind.stride
        if h % s or w % s:
            raise ValueError(f"stride {s} must divide the image size {(h, w)}")
        return (c, h // s, w // s)

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind.kind == "fpool":
            return pool2d(self.plan_rows, self.plan_cols, x)
        return pool_baseline_2d(self.kind, x)


@dataclass(frozen=True)
class GlobalAvg:
    """Mean over all spatial axes, ``(c, ...) -> (c,)``."""

    def out_shape(self, shape):
        if len(shape) < 2:
            raise ValueError(f"global average expects spatial features, got {shape}")
        return (shape[0],)

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        return x.reshape(x.shape[0], -1).mean(axis=1)


@dataclass(eq=False)
class Linear:
    weights: np.ndarray  # (c_out, c_in)
    bias: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2:
            raise ValueError(f"linear weights must be (c_out, c_in), got {self.weights.shape}")

    def out_shape(self, shape):
        if len(shape) != 1 or shape[0] != self.weights.shape[1]:
            raise ValueError(f"linear expects ({self.weights.shape[1]},) features, got {shape}")
        return (self.weights.shape[0],)

    def apply(self, x):
        out = self.weights @ np.asarray(x, dtype=float)
        return out if self.bias is None else out + self.bias


@dataclass(frozen=True)
class Softmax:
    def out_shape(self, shape):
        if len(shape) != 1:
            raise ValueError(f"softmax expects a flat vector, got {shape}")
        return tuple(shape)

    def apply(self, x):
        z = np.asarray(x, dtype=float)
        e = np.exp(z - z.max())
        return e / e.sum()


@dataclass(eq=False)
class Pipeline:
    """A layer sequence with its input shape and per-stage shapes resolved."""

    layers: tuple
    input_shape: tuple[int, ...]
    stage_shapes: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.layers = tuple(self.layers)
        self.input_shape = tuple(int(s) for s in self.input_shape)
        shapes = [self.input_shape]
        for layer in self.layers:
            shapes.append(tuple(layer.out_shape(shapes[-1])))
        self.stage_shapes = tuple(shapes)

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.stage_shapes[-1]

    def forward(self, x) -> list[np.ndarray]:
        """Run the pipeline, returning the input and every stage output.

        ``x`` is one input of ``input_shape`` or a batch ``(S,) +
        input_shape`` of samples, which every layer takes in one call.  A
        batch needs spatial features at every stage: the head layers
        (GlobalAvg, Linear, Softmax) take one sample.
        """
        x = np.asarray(x, dtype=float)
        batched = x.shape[1:] == self.input_shape
        if x.shape != self.input_shape and not batched:
            raise ValueError(f"input shape {x.shape} does not match {self.input_shape}")
        if batched and any(len(s) < 2 for s in self.stage_shapes):
            raise ValueError("a batch of samples needs spatial features at every stage")
        outs = [x]
        for layer in self.layers:
            outs.append(layer.apply(outs[-1]))
        return outs


def random_conv1d(seed: int, c_in: int, c_out: int, kernel: int, padding: str = "circular") -> Conv1d:
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((c_out, c_in, kernel)) / np.sqrt(c_in * kernel)
    return Conv1d(w, padding=padding, seed=seed)


def random_conv2d(seed: int, c_in: int, c_out: int, kernel: int, padding: str = "circular") -> Conv2d:
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((c_out, c_in, kernel, kernel)) / np.sqrt(c_in * kernel * kernel)
    return Conv2d(w, padding=padding, seed=seed)


def random_linear(seed: int, c_in: int, c_out: int) -> Linear:
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((c_out, c_in)) / np.sqrt(c_in)
    return Linear(w, bias=0.1 * rng.standard_normal(c_out), seed=seed)


def _spatial_ndim(shape) -> int:
    return len(shape) - 1


def _shift_vector(delta, spatial: int) -> tuple[int, ...]:
    """Per-axis shift: a scalar for 1-D features; for images a scalar (the
    diagonal shift, the default sweep) or ``(dy, dx)``."""
    if spatial == 1:
        if np.ndim(delta) != 0:
            raise ValueError("1-D features take a scalar shift")
        return (int(delta),)
    if spatial == 2:
        if np.ndim(delta) == 0:
            return (int(delta), int(delta))
        dy, dx = (int(d) for d in delta)
        return (dy, dx)
    raise ValueError(f"features must have 1 or 2 spatial axes, got {spatial}")


def _shift_windows(features) -> np.ndarray:
    """A view ``w`` of ``features`` tiled twice along each spatial axis, in
    which ``w[i]`` (``w[i, j]`` for images) is ``features`` rolled by ``-i``
    (by ``(-i, -j)``): indexing it with per-axis start arrays gathers a
    batch of shifted copies, with ``np.roll``'s values, in one copy."""
    axes = tuple(range(1, features.ndim))
    tiled = np.tile(features, (1,) + (2,) * len(axes))
    windows = sliding_window_view(tiled, features.shape[1:], axis=axes)
    return np.moveaxis(windows, 0, len(axes))


def _as_upsampler(upsampler, in_shape, out_shape):
    """Normalize the upsampler argument to a callable over ``(S, c) + spatial``
    batches of pipeline outputs.

    ``None`` builds the direct plan (pair) of the composite factor, once per
    sweep.
    """
    if _spatial_ndim(out_shape) != _spatial_ndim(in_shape):
        raise ValueError(
            f"pipeline output {out_shape} carries no resolution to compare at {in_shape}"
        )
    spatial = _spatial_ndim(in_shape)
    if upsampler is None:
        if spatial == 1:
            upsampler = make_plan(in_shape[1], out_shape[1])
        else:
            rows = make_plan(in_shape[1], out_shape[1])
            same = (in_shape[2], out_shape[2]) == (in_shape[1], out_shape[1])
            upsampler = (rows, rows if same else make_plan(in_shape[2], out_shape[2]))
    if isinstance(upsampler, FPoolPlan):
        if spatial != 1:
            raise ValueError("a single plan upsamples 1-D features; pass a plan pair for images")
        plan = upsampler
        return lambda y: unpool1d(plan, y)
    if isinstance(upsampler, tuple) and all(isinstance(p, FPoolPlan) for p in upsampler):
        pr, pc = upsampler
        return lambda y: unpool2d(pr, pc, y)
    if callable(upsampler):
        return upsampler
    raise ValueError(f"cannot interpret upsampler {upsampler!r}")


def _sweep_errors(pipeline: Pipeline, upsampler, deltas, x) -> np.ndarray:
    """Equivalence error of ``x`` at each row of the ``(S, spatial)`` integer
    shifts ``deltas``.

    The reference, process-then-upsample of ``x``, is computed once and
    shifted by gathering; the shifted inputs run through the pipeline and the
    upsampler as batches of samples, a chunk at a time, so that no stage
    array of a chunk holds more than ``_SWEEP_CHUNK_DOUBLES`` doubles (a
    chunk is one sample when a sample alone holds more).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != pipeline.input_shape:
        raise ValueError(f"input shape {x.shape} does not match {pipeline.input_shape}")
    up = _as_upsampler(upsampler, pipeline.input_shape, pipeline.output_shape)
    reference = np.asarray(up(pipeline.forward(x[np.newaxis])[-1]))
    if reference.shape[:1] + reference.shape[2:] != (1,) + x.shape[1:]:
        raise ValueError("upsampler does not restore input resolution")
    reference = reference[0]
    largest = max(math.prod(shape) for shape in pipeline.stage_shapes + (reference.shape,))
    chunk = max(1, _SWEEP_CHUNK_DOUBLES // largest)
    starts = (-deltas % np.array(x.shape[1:])).T  # rolling by d starts a window at -d
    inputs, references = _shift_windows(x), _shift_windows(reference)
    errors = np.empty(len(deltas))
    for start in range(0, len(deltas), chunk):
        index = tuple(starts[:, start : start + chunk])
        size = len(index[0])
        out = up(pipeline.forward(inputs[index])[-1])
        if np.shape(out) != (size,) + reference.shape:
            raise ValueError(f"upsampler returned {np.shape(out)} for {size} samples")
        gap = np.abs(references[index] - out)
        errors[start : start + size] = gap.reshape(size, -1).max(axis=1)
    return errors


def equivalence_error(pipeline: Pipeline, upsampler, delta_t, x) -> float:
    """Worst-case mismatch between shift-then-process and process-then-shift.

    The pipeline output is carried back to input resolution by ``upsampler``
    (a plan, a plan pair, None for the direct plan of the composite factor,
    or a callable), then the two evaluation orders are compared at the
    given shift: a scalar for 1-D features, a scalar (diagonal) or
    ``(dy, dx)`` for images.  Zero means the pipeline, seen through that
    upsampler, is exactly shift-equivalent at this shift.  This is the
    one-shift case of :func:`fpool.metrics.shift_sweep`, so a callable
    upsampler receives pipeline outputs with a leading sample axis,
    ``(S, c) + spatial``, and must return ``(S, c') + input spatial``.
    """
    deltas = np.array([_shift_vector(delta_t, _spatial_ndim(pipeline.input_shape))])
    return float(_sweep_errors(pipeline, upsampler, deltas, x)[0])


def _toy_pipeline(seed, size, channels, classes, kernel, stride, pooling, conv_padding, odd_padding, window):
    conv = random_conv2d(seed, 1, channels, kernel, padding=conv_padding)
    if pooling == "fpool":
        plan = make_plan(size, size // stride, odd_padding)
        pool = Pool2d(PoolingKind("fpool", stride), plan, plan)
    else:
        pool = Pool2d(PoolingKind(pooling, stride, window))
    head = random_linear(seed + 1, channels, classes)
    return Pipeline((conv, ReLU(), pool, GlobalAvg(), head, Softmax()), (1, size, size))


def toy_classifier_predictions(
    seed: int,
    shifts,
    pooling: str = "fpool",
    size: int = 32,
    channels: int = 4,
    classes: int = 3,
    kernel: int = 3,
    stride: int = 4,
    conv_padding: str = "circular",
    odd_padding: bool = False,
    window: int | None = None,
):
    """Class probabilities of a fixed random-weight classifier under diagonal shifts.

    Returns ``(labels, probs, designated)``: the argmax label per shift (ties
    go to the lowest class index, numpy's argmax convention), the per-shift
    probability rows, and the class predicted at zero shift (the designated
    class whose probability spread the consistency study reports).
    """
    shifts = [int(d) for d in shifts]
    if not shifts:
        raise ValueError("at least one shift is required")
    net = _toy_pipeline(
        seed, size, channels, classes, kernel, stride, pooling, conv_padding, odd_padding, window
    )
    rng = np.random.default_rng(seed + 2)
    x = rng.standard_normal((1, size, size))
    probs = np.stack([net.forward(np.roll(x, (d, d), axis=(1, 2)))[-1] for d in shifts])
    labels = [int(np.argmax(p)) for p in probs]
    designated = labels[shifts.index(0)] if 0 in shifts else labels[0]
    return labels, probs, designated


def toy_classifier_consistency(seed: int, shifts, **kwargs) -> tuple[float, float]:
    """Consistency and designated-class probability spread over shifts.

    Consistency is the fraction of unordered shift pairs that agree on the
    argmax; the spread is the standard deviation of the designated class's
    probability.  A shift-equivalent pooling gives exactly (1.0, ~0).
    """
    from .metrics import consistency_from_predictions  # local import, avoids a module cycle

    labels, probs, designated = toy_classifier_predictions(seed, shifts, **kwargs)
    return consistency_from_predictions(labels), float(np.std(probs[:, designated]))
