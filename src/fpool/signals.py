"""Synthetic test signals and single-column CSV signal files.

Signal specs keep the experiments free of dataset files:

- ``impulse``: 1 at sample 0, else 0
- ``tone:F``: cos(2 pi F t / n) for integer frequency F
- ``rand:S``: standard normal draws from seed S
- ``smooth:S``: seeded noise with a 1/(1+k)^1.5 spectral rolloff, scaled to
  unit peak; it stands in for a natural image row
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .spectral import _positive_integer

__all__ = ["SIGNAL_SPECS", "is_signal_spec", "load_signal_column", "make_signal"]

SIGNAL_SPECS = ("impulse", "tone:F", "rand:S", "smooth:S")

_SPEC = re.compile(r"^(impulse|tone:\d+|rand:\d+|smooth:\d+)$")


def is_signal_spec(text: str) -> bool:
    return bool(_SPEC.match(text))


def make_signal(spec: str, n: int) -> np.ndarray:
    """Build the length-``n`` signal described by ``spec``; ``n`` is an integer >= 1."""
    n = _positive_integer(n, "signal length")
    if not is_signal_spec(spec):
        raise ValueError(f"unknown signal spec {spec!r}, expected one of {SIGNAL_SPECS}")
    if spec == "impulse":
        x = np.zeros(n)
        x[0] = 1.0
        return x
    kind, _, arg = spec.partition(":")
    if kind == "tone":
        t = np.arange(n)
        return np.cos(2 * np.pi * int(arg) * t / n)
    if kind == "rand":
        return np.random.default_rng(int(arg)).standard_normal(n)
    rng = np.random.default_rng(int(arg))
    spectrum = np.fft.rfft(rng.standard_normal(n))
    spectrum /= (1.0 + np.arange(spectrum.size)) ** 1.5
    x = np.fft.irfft(spectrum, n)
    peak = np.max(np.abs(x))
    return x / peak if peak > 0 else x


def load_signal_column(path) -> np.ndarray:
    """Read a single-column CSV signal: one float per line, ``#`` comments ok."""
    values = []
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as e:
        raise OSError(f"{path}: not a text file: {e}") from None
    for lineno, line in enumerate(lines, start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        try:
            values.append(float(body))
        except ValueError:
            raise OSError(f"{path}:{lineno}: expected one float per line, got {body!r}") from None
    if not values:
        raise OSError(f"{path}: no samples found")
    return np.asarray(values)
