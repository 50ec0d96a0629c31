"""Small composable pipelines and the shift-equivalence harness.

Feature layout is channel-first: 1-D features are ``(channels, n)``, images
are ``(channels, h, w)``.  The convolution, ReLU and pooling layers also take
a leading sample axis, ``(S, channels, ...)``, and act on every sample in one
call.  Convolutions always have stride 1 (a strided convolution is
represented as conv followed by a pooling layer, which is the whole point of
the replacement rules).  The harness measures how far a pipeline is from
commuting with cyclic shifts once its output is carried back to input
resolution by an upsampler.  One engine runs a pipeline on shifted copies
of an input, for the harness and the toy classifier alike: one index
gather (one roll per sample for a large input) builds the shifted inputs,
and one forward runs per chunk of shifts, with at most 4,096 doubles in
any stage array of a chunk.  Shifts are cyclic, so ``d`` and ``d - n``
share one start and each distinct start is evaluated once.  The harness
processes the unshifted reference once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .baselines import PoolingKind, pool_baseline
from .pooling import (
    FPoolPlan,
    _check_budget,
    make_plan,
    pool1d,
    pool2d,
    unpool1d,
    unpool2d,
)
from .spectral import _positive_integer, _require_integer, _seed

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
    axes are a batch.  Subclasses fix the number of spatial axes.

    The output is computed one channel at a time on the flattened padded
    grid: with the output laid out at the padded row length, every tap reads
    one contiguous run of each padded input channel.  The arithmetic is the
    tap-by-tap einsum's, in its order: a tap's products are summed over the
    input channels in sequence, and the taps are summed in ``np.ndindex``
    order onto a zero, so the result is the einsum's bit for bit.  The one
    exception is a padded grid of a single entry (a 1-tap kernel on a
    one-entry input), where einsum sums three or more channels in its vector
    lanes; here they are summed in sequence all the same."""

    weights: np.ndarray  # (c_out, c_in) + one kernel size per spatial axis
    padding: str = "circular"
    spatial = 0

    def __post_init__(self):
        if self.padding not in _PAD_MODES:
            raise ValueError(f"padding must be one of {tuple(_PAD_MODES)}, got {self.padding!r}")
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2 + self.spatial or 0 in self.weights.shape[1:]:
            raise ValueError(
                f"conv{self.spatial}d weights must be (c_out, c_in) plus {self.spatial} "
                f"kernel axes, none of the last empty, got {self.weights.shape}"
            )

    def _mismatch(self, shape) -> ValueError:
        c_in = self.weights.shape[1]
        return ValueError(f"conv{self.spatial}d expects (c_in={c_in}, *spatial), got {shape}")

    def out_shape(self, shape):
        if len(shape) != 1 + self.spatial or shape[0] != self.weights.shape[1]:
            raise self._mismatch(shape)
        return (self.weights.shape[0],) + tuple(shape[1:])

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        c_out, c_in = self.weights.shape[:2]
        if x.ndim < 1 + self.spatial or x.shape[-1 - self.spatial] != c_in:
            raise self._mismatch(x.shape)
        split = x.ndim - self.spatial
        lead, size, kernel = x.shape[: split - 1], x.shape[split:], self.weights.shape[2:]
        pads = tuple((k // 2, k - 1 - k // 2) for k in kernel)
        xp = np.pad(x, ((0, 0),) * split + pads, mode=_PAD_MODES[self.padding])
        padded = xp.shape[split:]
        # output entry y sits at sum(y_a * step_a) of the flattened padded grid,
        # and tap t reads the run of that length starting sum(t_a * step_a) on
        steps = [math.prod(padded[a + 1 :]) for a in range(self.spatial)]
        run = 1 + sum((s - 1) * step for s, step in zip(size, steps))
        starts = [sum(t * step for t, step in zip(tap, steps)) for tap in np.ndindex(*kernel)]
        taps = self.weights.reshape(c_out, c_in, len(starts)).tolist()  # taps in np.ndindex order
        flat = xp.reshape(lead + (c_in, math.prod(padded)))
        buffers = np.empty((3,) + lead + (size[0] * steps[0],))
        acc, term, product = buffers[..., :run]
        valid = buffers[0].reshape(lead + (size[0],) + padded[1:])[(..., *map(slice, size))]
        out = np.empty(lead + (c_out,) + size)
        for o in range(c_out):
            acc[...] = 0.0
            for start, w in zip(starts, zip(*taps[o])):
                window = flat[..., start : start + run]
                np.multiply(window[..., 0, :], w[0], out=term)
                for i in range(1, c_in):
                    np.multiply(window[..., i, :], w[i], out=product)
                    np.add(term, product, out=term)
                np.add(acc, term, out=acc)
            out[(..., o) + (slice(None),) * self.spatial] = valid
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
    ignores any plan it is given and pools one spatial axis at a time, the
    width first.  Subclasses name the plan fields, one per spatial axis, in
    axis order, in ``_plan_fields``."""

    kind: PoolingKind
    _plan_fields = ()

    @property
    def plans(self) -> tuple:
        return tuple([getattr(self, name) for name in self._plan_fields])

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
        return (shape[0],) + tuple(map(self.kind.pooled, size))

    def apply(self, x):
        plans = self.plans
        if self.kind.kind == "fpool":
            return (pool1d if len(plans) == 1 else pool2d)(*plans, x)
        x = np.asarray(x, dtype=float)
        for axis in range(-1, -1 - len(plans), -1):
            x = pool_baseline(self.kind, x.swapaxes(axis, -1)).swapaxes(axis, -1)
        return x


@dataclass(eq=False)
class Pool1d(_Pool):
    """Pooling along the trailing axis of ``(c, n)`` features."""

    plan: FPoolPlan | None = None
    _plan_fields = ("plan",)


@dataclass(eq=False)
class Pool2d(_Pool):
    """Separable pooling of ``(c, h, w)`` features, rows through ``plan_rows``
    and columns through ``plan_cols``."""

    plan_rows: FPoolPlan | None = None
    plan_cols: FPoolPlan | None = None
    _plan_fields = ("plan_rows", "plan_cols")


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
    rng = np.random.default_rng(_seed(seed))
    w = rng.standard_normal((c_out, c_in) + (kernel,) * cls.spatial) / np.sqrt(c_in * kernel**cls.spatial)
    return cls(w, padding=padding)


def random_linear(seed: int, c_in: int, c_out: int) -> Linear:
    rng = np.random.default_rng(_seed(seed))
    w = rng.standard_normal((c_out, c_in)) / np.sqrt(c_in)
    return Linear(w, bias=0.1 * rng.standard_normal(c_out))


def _spatial_ndim(shape) -> int:
    return len(shape) - 1


def _shift_vector(delta, spatial: int) -> tuple[int, ...]:
    """Per-axis shift: a scalar for 1-D features; for images a scalar (the
    diagonal shift, the default sweep) or ``(dy, dx)``."""
    if spatial == 1:
        if np.ndim(delta) != 0:
            raise ValueError("1-D features take a scalar shift")
        return (_require_integer(delta, "shift"),)
    if spatial == 2:
        if np.ndim(delta) == 0:
            return (_require_integer(delta, "shift"),) * 2
        dy, dx = (_require_integer(d, "shift") for d in delta)
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


def _shifted_runs(pipeline: Pipeline, x, deltas, reduce, reduce_doubles: int = 0) -> np.ndarray:
    """``reduce(index, outputs)`` of ``pipeline`` run on ``x`` shifted by each
    row of the ``(S, spatial)`` integer shifts ``deltas``, one row per shift
    in the order and number of ``deltas``.

    Rolling by ``d`` starts a window at ``-d mod n``, so ``d`` and ``d - n``
    share one start.  Each distinct start is made once and run once, a chunk
    of samples at a time, so that no stage array of a chunk, nor the
    ``reduce_doubles`` per sample of ``reduce``, holds more than
    ``_SWEEP_CHUNK_DOUBLES`` doubles (a chunk is one sample when a sample
    alone holds more).  The starts are gathered from ``_shift_windows``,
    whose tile is held through every forward, when that tile fits the same
    bound; a larger input is rolled one sample at a time.  ``reduce`` takes
    the chunk's per-axis start arrays and its pipeline outputs.
    """
    largest = max(reduce_doubles, *(math.prod(shape) for shape in pipeline.stage_shapes))
    chunk = max(1, _SWEEP_CHUNK_DOUBLES // largest)
    period = x.shape[1:]
    flat = np.ravel_multi_index(tuple((-deltas % period).T), period)
    distinct, inverse = np.unique(flat, return_inverse=True)
    starts = np.unravel_index(distinct, period)
    axes = tuple(range(1, x.ndim))
    inputs = _shift_windows(x) if x.size * 2 ** len(axes) <= _SWEEP_CHUNK_DOUBLES else None
    rows = []
    for start in range(0, len(distinct), chunk):
        index = tuple(axis[start : start + chunk] for axis in starts)
        if inputs is None:
            batch = np.stack([np.roll(x, [-s for s in row], axes) for row in zip(*index)])
        else:
            batch = inputs[index]
        rows.append(reduce(index, pipeline.forward(batch)[-1]))
    return np.concatenate(rows)[inverse]


def _sweep_errors(pipeline: Pipeline, upsampler, deltas, x) -> np.ndarray:
    """Equivalence error of ``x`` at each row of the ``(S, spatial)`` integer
    shifts ``deltas``.

    The reference, process-then-upsample of ``x``, is computed once and
    shifted by gathering; the shifted inputs run through the pipeline and the
    upsampler on :func:`_shifted_runs`, whose chunks also bound the upsampled
    outputs.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != pipeline.input_shape:
        raise ValueError(f"input shape {x.shape} does not match {pipeline.input_shape}")
    up = _as_upsampler(upsampler, pipeline.input_shape, pipeline.output_shape)
    reference = np.asarray(up(pipeline.forward(x[np.newaxis])[-1]))
    if reference.shape[:1] + reference.shape[2:] != (1,) + x.shape[1:]:
        raise ValueError("upsampler does not restore input resolution")
    reference = reference[0]
    references = _shift_windows(reference)

    def errors(index, outputs):
        size = len(index[0])
        out = up(outputs)
        if np.shape(out) != (size,) + reference.shape:
            raise ValueError(f"upsampler returned {np.shape(out)} for {size} samples")
        gap = np.abs(references[index] - out)
        return gap.reshape(size, -1).max(axis=1)

    return _shifted_runs(pipeline, x, deltas, errors, reference.size)


def equivalence_error(pipeline: Pipeline, upsampler, delta_t, x) -> float:
    """Worst-case mismatch between shift-then-process and process-then-shift.

    The pipeline output is carried back to input resolution by ``upsampler``
    (a plan, a plan pair, None for the direct plan of the composite factor,
    or a callable), then the two evaluation orders are compared at the
    given integer shift: a scalar for 1-D features, a scalar (diagonal) or
    ``(dy, dx)`` for images.  Zero means the pipeline, seen through that
    upsampler, is exactly shift-equivalent at this shift.  This is the
    one-shift case of :func:`fpool.metrics.shift_sweep`, so a callable
    upsampler receives pipeline outputs with a leading sample axis,
    ``(S, c) + spatial``, and must return ``(S, c') + input spatial``: one
    sample for the reference and one for the shift.
    """
    deltas = np.array([_shift_vector(delta_t, _spatial_ndim(pipeline.input_shape))])
    return float(_sweep_errors(pipeline, upsampler, deltas, x)[0])


def toy_classifier_predictions(
    seed: int,
    shifts,
    pooling: str = "fpool",
    size: int = 32,
    channels: int = 4,
    stride: int = 4,
    conv_padding: str = "circular",
    odd_padding: bool = False,
    window: int | None = None,
):
    """Class probabilities of a fixed random-weight classifier under diagonal shifts.

    Returns ``(labels, probs, designated)``: the argmax label per shift (ties
    go to the lowest class index, numpy's argmax convention), the per-shift
    probability rows, and the class predicted at zero shift (the designated
    class whose probability spread the consistency study reports).  The
    network is a 3x3 convolution to ``channels`` feature maps, ReLU, the
    pooling layer, a global average and a linear head over 3 classes; each
    distinct cyclic start runs once, so ``d`` and ``d - size`` cost one.
    """
    seed = _seed(seed)
    size = _positive_integer(size, "classifier size")
    channels = _positive_integer(channels, "channels")
    kind = PoolingKind(pooling, stride, window)
    pooled = kind.pooled(size)  # for every kind, as a baseline pooling layer requires
    plan = make_plan(size, pooled, odd_padding) if pooling == "fpool" else None
    need = 8 * channels * size**2  # one stage of conv features
    _check_budget(need, f"classifier features {channels}x{size}x{size} need about {{mib}} MiB")
    # listed after the budget check, which bounds a sweep of one period
    shifts = [_require_integer(d, "shift") for d in shifts]
    if not shifts:
        raise ValueError("at least one shift is required")
    # the network splits where the spatial axes end: the body runs on the
    # shift engine, the head takes one sample at a time
    conv = random_conv2d(seed, 1, channels, 3, padding=conv_padding)
    body = Pipeline((conv, ReLU(), Pool2d(kind, plan, plan)), (1, size, size))
    head = Pipeline((GlobalAvg(), random_linear(seed + 1, channels, 3), Softmax()), body.output_shape)
    x = np.random.default_rng(seed + 2).standard_normal((1, size, size))
    deltas = np.outer([d % size for d in shifts], (1, 1))  # diagonal shifts, one period
    probs = _shifted_runs(body, x, deltas, lambda _, ys: np.stack([head.forward(y)[-1] for y in ys]))
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
