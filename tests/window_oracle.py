"""Gathered circular windows: the reference for the baseline kernels.

Every window ``x[..., (start + arange(window)) % n]``, one per stride step,
is gathered through one index and reduced along its own axis by numpy.
``fpool.baselines.pool_baseline`` folds strided slices instead for max and
average pooling when the window is the stride; it must return these bits,
signed zeros included.
"""

import numpy as np


def gathered_pool(x, window, stride, reduce):
    """``reduce`` (``np.max`` or ``np.mean``) over the gathered windows of
    ``x``'s trailing axis."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    starts = np.arange(0, n, stride)
    return reduce(x[..., (starts[:, None] + np.arange(window)[None, :]) % n], axis=-1)
