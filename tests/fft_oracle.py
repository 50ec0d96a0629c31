"""Test references: the dense transform, np.fft pooling maps and band split.

``dft`` and ``idft`` are the literal matrix products of the package's
transform convention (``fpool.spectral.dft_matrix``).  ``fft_pool`` and
``fft_unpool`` compute the pooling maps with np.fft, and ``kept_bins`` and
``low_band_component`` the kept band as a bin mask, independent of any plan
matrix.  Pooling ``n -> m`` keeps the signed frequencies
``-floor(m/2) .. ceil(m/2)-1``, without the unmatched edge ``-m/2`` under
odd padding (even ``m < n``).  Frequency ``f`` sits in source bin ``f % n``
and pooled bin ``f % m``.  Both maps act on the trailing axis, so any
leading axes are a batch, and return the complex result: the real-valued
API returns its real part.
"""

import numpy as np

from fpool.spectral import dft_matrix


def _as_vector(x, name):
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError(f"{name} must be a nonempty 1-D array, got shape {x.shape}")
    return x


def dft(x):
    """Unscaled forward transform ``F @ x`` (matrix path)."""
    x = _as_vector(x, "x")
    return dft_matrix(x.shape[0]) @ x


def idft(spectrum):
    """Unscaled inverse ``conj(F) @ spectrum``; note ``idft(dft(x)) == n*x``."""
    s = _as_vector(spectrum, "spectrum")
    return np.conj(dft_matrix(s.shape[0])) @ s


def _kept_frequencies(n, m, odd_padding):
    freqs = np.r_[np.arange((m + 1) // 2), np.arange(-(m // 2), 0)]
    if odd_padding and m % 2 == 0 and m < n:
        freqs = freqs[freqs != -(m // 2)]
    return freqs


def kept_bins(n, m, odd_padding=False):
    """Boolean mask over the ``n`` source bins that pooling to ``m`` keeps."""
    keep = np.zeros(n, dtype=bool)
    keep[_kept_frequencies(n, m, odd_padding) % n] = True
    return keep


def low_band_component(x, m, odd_padding=False):
    """Complex band component of ``x``: its spectrum masked to the kept bins,
    inverted.  Pooling then coupled upsampling, both in complex arithmetic,
    reproduce exactly this, for every parity and padding choice."""
    x = np.asarray(x, dtype=float)
    return np.fft.ifft(np.fft.fft(x) * kept_bins(x.shape[-1], m, odd_padding))


def fft_pool(x, m, odd_padding=False):
    """Keep the band's bins of ``fft(x)``, invert at length ``m``, scale ``m/n``."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    freqs = _kept_frequencies(n, m, odd_padding)
    pooled = np.zeros(x.shape[:-1] + (m,), dtype=complex)
    pooled[..., freqs % m] = np.fft.fft(x)[..., freqs % n]
    return np.fft.ifft(pooled) * (m / n)


def fft_unpool(y, n, odd_padding=False):
    """Zero-pad the band's bins of ``fft(y)`` to ``n`` bins, invert, scale ``n/m``."""
    y = np.asarray(y, dtype=float)
    m = y.shape[-1]
    freqs = _kept_frequencies(n, m, odd_padding)
    full = np.zeros(y.shape[:-1] + (n,), dtype=complex)
    full[..., freqs % n] = np.fft.fft(y)[..., freqs % m]
    return np.fft.ifft(full) * (n / m)
