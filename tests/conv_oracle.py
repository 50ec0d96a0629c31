"""The tap-by-tap einsum convolution: the reference for ``_Conv.apply``.

For each kernel tap, in ``np.ndindex`` order, one einsum forms the whole
``(..., c_out) + spatial`` contribution of that tap, summed over the input
channels, and adds it into an output that starts at zero.
``fpool.pipeline.Conv1d`` and ``Conv2d`` must return these values bit for
bit, signed zeros included.
"""

import numpy as np

from fpool.pipeline import _PAD_MODES


def einsum_conv(weights, x, padding, spatial):
    """Stride-1 convolution of ``(..., c_in) + spatial`` features with
    centered taps, ``weights`` of shape ``(c_out, c_in) + kernel``."""
    x = np.asarray(x, dtype=float)
    kernel = weights.shape[2:]
    size = x.shape[x.ndim - spatial :]
    pads = tuple((k // 2, k - 1 - k // 2) for k in kernel)
    xp = np.pad(x, ((0, 0),) * (x.ndim - spatial) + pads, mode=_PAD_MODES[padding])
    axes = "xyz"[:spatial]
    spec = f"oi,...i{axes}->...o{axes}"
    out = np.zeros(x.shape[: x.ndim - spatial - 1] + (weights.shape[0],) + size)
    for tap in np.ndindex(*kernel):
        window = tuple(slice(t, t + s) for t, s in zip(tap, size))
        out += np.einsum(spec, weights[(..., *tap)], xp[(..., *window)])
    return out
