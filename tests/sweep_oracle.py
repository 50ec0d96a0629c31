"""Per-shift loops: the references for the batched shift engine.

For each shift the input is rolled with ``np.roll`` and run through the
whole network alone; nothing is batched over shifts.  In the equivalence
loop the output is carried back by the upsampler alone and compared with
the rolled reference, which is recomputed at every shift;
``fpool.metrics.shift_sweep`` must return these errors bit for bit.  The
classifier loop runs the toy classifier's whole network, head included,
once per shift; ``fpool.pipeline.toy_classifier_predictions`` must return
these probabilities bit for bit.
"""

import numpy as np

from fpool.baselines import PoolingKind
from fpool.pipeline import GlobalAvg, Pipeline, Pool2d, ReLU, Softmax, random_conv2d, random_linear
from fpool.pooling import FPoolPlan, make_plan, unpool1d, unpool2d


def _upsampler(upsampler, in_shape, out_shape):
    if upsampler is None:
        plans = tuple(make_plan(n, m) for n, m in zip(in_shape[1:], out_shape[1:]))
        upsampler = plans[0] if len(plans) == 1 else plans
    if isinstance(upsampler, FPoolPlan):
        return lambda y: unpool1d(upsampler, y)
    if isinstance(upsampler, tuple):
        return lambda y: unpool2d(*upsampler, y)
    return upsampler


def per_shift_errors(pipeline, upsampler, shifts, x):
    """Equivalence error at each shift, one shift at a time.  An image shift
    is a scalar (the diagonal) or ``(dy, dx)``."""
    up = _upsampler(upsampler, pipeline.input_shape, pipeline.output_shape)
    axes = tuple(range(1, x.ndim))
    errors = []
    for d in shifts:
        delta = tuple(int(v) for v in np.broadcast_to(d, len(axes)))
        reference = up(pipeline.forward(x)[-1])
        shifted = up(pipeline.forward(np.roll(x, delta, axis=axes))[-1])
        errors.append(float(np.max(np.abs(np.roll(reference, delta, axis=axes) - shifted))))
    return tuple(errors)


def per_shift_probabilities(
    seed,
    shifts,
    pooling="fpool",
    size=32,
    channels=4,
    stride=4,
    conv_padding="circular",
    odd_padding=False,
    window=None,
):
    """The toy classifier's probability rows, one rolled input and one
    whole-network forward per diagonal shift."""
    kind = PoolingKind(pooling, stride, window)
    plan = make_plan(size, kind.pooled(size), odd_padding) if pooling == "fpool" else None
    conv = random_conv2d(seed, 1, channels, 3, padding=conv_padding)
    head = random_linear(seed + 1, channels, 3)
    net = Pipeline((conv, ReLU(), Pool2d(kind, plan, plan), GlobalAvg(), head, Softmax()), (1, size, size))
    x = np.random.default_rng(seed + 2).standard_normal((1, size, size))
    return np.stack([net.forward(np.roll(x, (d, d), axis=(1, 2)))[-1] for d in shifts])
