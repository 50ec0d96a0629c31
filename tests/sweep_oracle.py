"""The per-shift equivalence loop: the reference for batched sweeps.

For each shift the input is rolled with ``np.roll``, run through the
pipeline alone, carried back by the upsampler alone, and compared with the
rolled reference, which is recomputed at every shift; nothing is batched
over shifts.  ``fpool.metrics.shift_sweep`` must return these errors bit for
bit.
"""

import numpy as np

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
