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
with at most 4,096 doubles in any stage array of a chunk.  Shifts are
cyclic, so ``d`` and ``d - n`` share one start and each distinct start is
evaluated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

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


@dataclass(eq=False)
class _Conv:
    """Stride-1 convolution over ``(..., c_in) + spatial`` features with
    centered taps; only the ``spatial`` trailing axes are padded, so leading
    axes are a batch.  Subclasses fix the number of spatial axes."""

    weights: np.ndarray  # (c_out, c_in) + one kernel size per spatial axis
    padding: str = "circular"
    seed: int | None = None  # recorded when the weights came from a seeded init
    spatial = 0

    def __post_init__(self):
        if self.padding not in _PAD_MODES:
            raise ValueError(f"padding must be one of {tuple(_PAD_MODES)}, got {self.padding!r}")
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2 + self.spatial:
            raise ValueError(
                f"conv{self.spatial}d weights must be (c_out, c_in) plus {self.spatial} "
                f"kernel axes, got {self.weights.shape}"
            )

    def out_shape(self, shape):
        c_out, c_in = self.weights.shape[:2]
        if len(shape) != 1 + self.spatial or shape[0] != c_in:
            raise ValueError(f"conv{self.spatial}d expects (c_in={c_in}, *spatial), got {shape}")
        return (c_out,) + tuple(shape[1:])

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        kernel = self.weights.shape[2:]
        size = x.shape[x.ndim - self.spatial :]
        pads = tuple((k // 2, k - 1 - k // 2) for k in kernel)
        xp = np.pad(x, ((0, 0),) * (x.ndim - self.spatial) + pads, mode=_PAD_MODES[self.padding])
        axes = "xyz"[: self.spatial]
        spec = f"oi,...i{axes}->...o{axes}"
        out = np.zeros(x.shape[: x.ndim - self.spatial - 1] + (self.weights.shape[0],) + size)
        for tap in np.ndindex(*kernel):
            window = tuple(slice(t, t + s) for t, s in zip(tap, size))
            out += np.einsum(spec, self.weights[(..., *tap)], xp[(..., *window)])
        return out


class Conv1d(_Conv):
    """Conv over ``(..., c_in, n)`` features, weights ``(c_out, c_in, k)``."""

    spatial = 1


class Conv2d(_Conv):
    """Conv over ``(..., c_in, h, w)`` features, weights ``(c_out, c_in, kh, kw)``."""

    spatial = 2


@dataclass(frozen=True)
class ReLU:
    def out_shape(self, shape):
        return tuple(shape)

    def apply(self, x):
        return np.maximum(x, 0.0)


@dataclass(eq=False)
class _Pool:
    """Pooling of ``(c,) + spatial`` features over the spatial trailing axes,
    so leading axes (channels, samples) are one batch and a forward is one
    call.  Frequency pooling takes one plan per spatial axis; a baseline kind
    ignores any plan it is given.  Subclasses name the plan fields, one per
    spatial axis, in axis order."""

    kind: PoolingKind

    @property
    def plans(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self)[1:])

    def __post_init__(self):
        if self.kind.kind == "fpool" and None in self.plans:
            raise ValueError("frequency pooling needs a plan per axis")

    def out_shape(self, shape):
        plans = self.plans
        if len(shape) != 1 + len(plans):
            raise ValueError(f"pool{len(plans)}d expects (c,) + {len(plans)}-D features, got {shape}")
        size = tuple(shape[1:])
        if self.kind.kind == "fpool":
            if size != tuple(plan.n for plan in plans):
                raise ValueError(f"plans pool {tuple(plan.n for plan in plans)}, features have {size}")
            return (shape[0],) + tuple(plan.m for plan in plans)
        s = self.kind.stride
        if any(k % s for k in size):
            raise ValueError(f"stride {s} must divide the feature size {size}")
        return (shape[0],) + tuple(k // s for k in size)

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        plans = self.plans
        if self.kind.kind == "fpool":
            return (pool1d if len(plans) == 1 else pool2d)(*plans, x)
        return (pool_baseline if len(plans) == 1 else pool_baseline_2d)(self.kind, x)


@dataclass(eq=False)
class Pool1d(_Pool):
    """Pooling along the trailing axis of ``(c, n)`` features."""

    plan: FPoolPlan | None = None


@dataclass(eq=False)
class Pool2d(_Pool):
    """Separable pooling of ``(c, h, w)`` features, rows through ``plan_rows``
    and columns through ``plan_cols``."""

    plan_rows: FPoolPlan | None = None
    plan_cols: FPoolPlan | None = None


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
    return _random_conv(Conv1d, seed, c_in, c_out, kernel, padding)


def random_conv2d(seed: int, c_in: int, c_out: int, kernel: int, padding: str = "circular") -> Conv2d:
    return _random_conv(Conv2d, seed, c_in, c_out, kernel, padding)


def _random_conv(cls, seed, c_in, c_out, kernel, padding):
    """Seeded weights ``(c_out, c_in) + (kernel,) * spatial``, scaled by the fan-in."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((c_out, c_in) + (kernel,) * cls.spatial) / np.sqrt(c_in * kernel**cls.spatial)
    return cls(w, padding=padding, seed=seed)


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

    A plan or a plan pair is read as one plan per spatial axis.  ``None``
    takes the direct plan of the composite factor on each axis from
    :func:`make_plan`, asked once per distinct axis; it returns the shared
    plan after the first build.
    """
    spatial = _spatial_ndim(in_shape)
    if _spatial_ndim(out_shape) != spatial:
        raise ValueError(
            f"pipeline output {out_shape} carries no resolution to compare at {in_shape}"
        )
    if upsampler is None:
        axes = tuple(zip(in_shape[1:], out_shape[1:]))
        built = {axis: make_plan(*axis) for axis in dict.fromkeys(axes)}
        upsampler = tuple(built[axis] for axis in axes)
    elif isinstance(upsampler, FPoolPlan):
        upsampler = (upsampler,)
    if isinstance(upsampler, tuple) and all(isinstance(p, FPoolPlan) for p in upsampler):
        if len(upsampler) != spatial:
            raise ValueError(
                f"{len(upsampler)} plan(s) given for features with {spatial} spatial axes; "
                "pass one plan per axis"
            )
        return lambda y: (unpool1d if spatial == 1 else unpool2d)(*upsampler, y)
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
    chunk is one sample when a sample alone holds more).  Each distinct
    cyclic start runs once, since ``d`` and ``d - n`` gather the same rows;
    the errors come back in the order and number of ``deltas``.
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
    # rolling by d starts a window at -d mod n, so d and d - n share one start
    period = x.shape[1:]
    flat = np.ravel_multi_index(tuple((-deltas % period).T), period)
    distinct, inverse = np.unique(flat, return_inverse=True)
    starts = np.unravel_index(distinct, period)
    inputs, references = _shift_windows(x), _shift_windows(reference)
    errors = np.empty(len(distinct))
    for start in range(0, len(distinct), chunk):
        index = tuple(axis[start : start + chunk] for axis in starts)
        size = len(index[0])
        out = up(pipeline.forward(inputs[index])[-1])
        if np.shape(out) != (size,) + reference.shape:
            raise ValueError(f"upsampler returned {np.shape(out)} for {size} samples")
        gap = np.abs(references[index] - out)
        errors[start : start + size] = gap.reshape(size, -1).max(axis=1)
    return errors[inverse]


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
    ``(S, c) + spatial``, and must return ``(S, c') + input spatial``: one
    sample for the reference and one for the shift.
    """
    deltas = np.array([_shift_vector(delta_t, _spatial_ndim(pipeline.input_shape))])
    return float(_sweep_errors(pipeline, upsampler, deltas, x)[0])


def _toy_pipeline(seed, size, channels, classes, kernel, stride, pooling, conv_padding, odd_padding, window):
    conv = random_conv2d(seed, 1, channels, kernel, padding=conv_padding)
    plan = make_plan(size, size // stride, odd_padding) if pooling == "fpool" else None
    pool = Pool2d(PoolingKind(pooling, stride, window), plan, plan)
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
