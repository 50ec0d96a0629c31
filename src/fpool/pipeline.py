"""Small composable pipelines and the shift-equivalence harness.

Feature layout is channel-first: 1-D features are ``(channels, n)``, images
are ``(channels, h, w)``.  Convolutions always have stride 1 (a strided
convolution is represented as conv followed by a pooling layer, which is
the whole point of the replacement rules).  The harness measures how far a
pipeline is from commuting with cyclic shifts once its output is carried
back to input resolution by an upsampler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baselines import PoolingKind, pool_baseline, pool_baseline_2d
from .pooling import EXACTNESS_TOL, FPoolPlan, make_plan, pool1d, pool2d, unpool1d, unpool2d

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
    "TransitivityRow",
    "equivalence_error",
    "random_conv1d",
    "random_conv2d",
    "random_linear",
    "toy_classifier_consistency",
    "toy_classifier_predictions",
    "transitivity_report",
]

# np.pad mode of each convolution padding: taps read slices of the padded input
_PAD_MODES = {"circular": "wrap", "zero": "constant"}


def _check_padding(padding: str) -> None:
    if padding not in _PAD_MODES:
        raise ValueError(f"padding must be one of {tuple(_PAD_MODES)}, got {padding!r}")


@dataclass(eq=False)
class Conv1d:
    """Stride-1 convolution over ``(c_in, n)`` features, centered taps."""

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
        xp = np.pad(x, ((0, 0), (off, k - 1 - off)), mode=_PAD_MODES[self.padding])
        out = np.zeros((c_out, n))
        for j in range(k):
            out += np.einsum("oi,in->on", self.weights[:, :, j], xp[:, j : j + n])
        return out


@dataclass(eq=False)
class Conv2d:
    """Stride-1 convolution over ``(c_in, h, w)`` features, centered taps."""

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
        widths = ((0, 0), (oh, kh - 1 - oh), (ow, kw - 1 - ow))
        xp = np.pad(x, widths, mode=_PAD_MODES[self.padding])
        out = np.zeros((c_out, h, w))
        for a in range(kh):
            for b in range(kw):
                out += np.einsum("oi,ihw->ohw", self.weights[:, :, a, b], xp[:, a : a + h, b : b + w])
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
    """Separable pooling of ``(c, h, w)`` features."""

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
        """Run the pipeline, returning the input and every stage output."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.input_shape:
            raise ValueError(f"input shape {x.shape} does not match {self.input_shape}")
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


def _shift_features(x, delta) -> np.ndarray:
    spatial = _spatial_ndim(x.shape)
    if spatial == 1:
        if np.ndim(delta) != 0:
            raise ValueError("1-D features take a scalar shift")
        return np.roll(x, int(delta), axis=-1)
    if spatial == 2:
        if np.ndim(delta) == 0:
            delta = (int(delta), int(delta))  # diagonal shift, the default sweep
        dy, dx = (int(d) for d in delta)
        return np.roll(x, (dy, dx), axis=(-2, -1))
    raise ValueError(f"features must have 1 or 2 spatial axes, got shape {x.shape}")


def _as_upsampler(upsampler, in_shape, out_shape):
    """Normalize the upsampler argument to a per-feature callable.

    ``None`` builds the direct plan (pair) of the composite factor; sweeps
    call this once and hand the callable to every shift.
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


def equivalence_error(pipeline: Pipeline, upsampler, delta_t, x) -> float:
    """Worst-case mismatch between shift-then-process and process-then-shift.

    The pipeline output is carried back to input resolution by ``upsampler``
    (a plan, a plan pair, a callable, or None for the direct plan of the
    composite factor), then the two evaluation orders are compared at the
    given shift.  Zero means the pipeline, seen through that upsampler, is
    exactly shift-equivalent at this shift.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != pipeline.input_shape:
        raise ValueError(f"input shape {x.shape} does not match {pipeline.input_shape}")
    up = _as_upsampler(upsampler, pipeline.input_shape, pipeline.output_shape)
    reference = up(pipeline.forward(x)[-1])
    if np.asarray(reference).shape[1:] != x.shape[1:]:
        raise ValueError("upsampler does not restore input resolution")
    shifted_out = up(pipeline.forward(_shift_features(x, delta_t))[-1])
    return float(np.max(np.abs(_shift_features(reference, delta_t) - shifted_out)))


@dataclass(frozen=True)
class TransitivityRow:
    """One measured segment of the stacked-pooling study."""

    segment: str
    shifts: tuple[int, ...]
    errors: tuple[float, ...]
    input_norm: float

    @property
    def max_error(self) -> float:
        return max(self.errors)

    @property
    def equivalent(self) -> bool:
        return self.max_error <= EXACTNESS_TOL * max(1.0, self.input_norm)


def _sweep_row(segment, pipeline, upsampler, x, shifts) -> TransitivityRow:
    up = _as_upsampler(upsampler, pipeline.input_shape, pipeline.output_shape)
    errors = tuple(equivalence_error(pipeline, up, d, x) for d in shifts)
    return TransitivityRow(
        segment=segment,
        shifts=tuple(int(d) for d in shifts),
        errors=errors,
        input_norm=float(np.linalg.norm(x)),
    )


def transitivity_report(
    seed: int, sizes: tuple[int, int, int] = (32, 16, 8), odd_padding: bool = True
) -> list[TransitivityRow]:
    """Measure shift equivalence across a two-stage pooling cascade.

    Each single-pooling segment, judged with its own coupled inverse, is
    exactly equivalent.  The full cascade with a nonlinearity between the
    two poolings, judged with the direct input-to-final inverse, is not:
    the first pooling turns integer shifts into fractional ones, which the
    pointwise nonlinearity does not commute with.  The purely linear
    cascade is equivalent under the direct inverse (the two bin selections
    compose into one); the report measures it rather than assuming it.
    """
    n, m1, m2 = sizes
    if not n >= m1 >= m2 >= 1:
        raise ValueError(f"sizes must satisfy n >= m1 >= m2 >= 1, got {sizes}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, n))
    plan1 = make_plan(n, m1, odd_padding)
    plan2 = make_plan(m1, m2, odd_padding)
    direct = make_plan(n, m2, odd_padding)
    fp = PoolingKind("fpool", max(1, n // m1))
    stage1 = Pipeline((Pool1d(fp, plan1),), (1, n))
    z = stage1.forward(x)[-1]
    stage2 = Pipeline((ReLU(), Pool1d(fp, plan2)), (1, m1))
    nonlinear = Pipeline((Pool1d(fp, plan1), ReLU(), Pool1d(fp, plan2)), (1, n))
    linear = Pipeline((Pool1d(fp, plan1), Pool1d(fp, plan2)), (1, n))
    full = range(-n, n + 1)
    return [
        _sweep_row("stage1_pool/coupled_inverse", stage1, plan1, x, full),
        _sweep_row("stage2_relu_pool/coupled_inverse", stage2, plan2, z, range(-m1, m1 + 1)),
        _sweep_row("cascade_pool_relu_pool/direct_inverse", nonlinear, direct, x, full),
        _sweep_row("cascade_pool_pool/direct_inverse", linear, direct, x, full),
    ]


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
    probs = np.stack([net.forward(_shift_features(x, d))[-1] for d in shifts])
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
