"""Acceptance gate: every advertised guarantee, measured end to end.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them on success).  The corpus is 200 seeded random signals: 40 per
length n in {12, 16, 17, 64, 512}, pooled to quarter and half lengths plus
an odd/even variant of each.

The full-corpus shift sweeps run through the plans' real matrices with
batched matmuls; a spot check ties that batched path to the public
pool/unpool functions before it is trusted.
"""

import subprocess
import sys

import numpy as np
import pytest
from fft_oracle import fft_pool, fft_unpool

from fpool.baselines import BASELINE_KINDS, PoolingKind, pool_baseline
from fpool.metrics import transitivity_report
from fpool.netpbm import write_netpbm
from fpool.pipeline import (
    Conv1d,
    Conv2d,
    Pipeline,
    Pool1d,
    Pool2d,
    ReLU,
    equivalence_error,
    random_conv1d,
    random_conv2d,
    toy_classifier_consistency,
)
from fpool.pooling import (
    make_plan,
    pool1d,
    pool2d,
    reconstruction_decomposition,
    unpool1d,
)

CORPUS_SEED = 20250819
SIZES = {12: (3, 6), 16: (4, 5, 8), 17: (4, 8, 9), 64: (16, 17, 32), 512: (128, 129, 256)}
SIGNALS_PER_N = 40

_signals_cache = {}


def corpus_signals(n):
    if n not in _signals_cache:
        rng = np.random.default_rng(CORPUS_SEED + n)
        _signals_cache[n] = rng.standard_normal((n, SIGNALS_PER_N))
    return _signals_cache[n]


def equivariant_plan(n, m):
    """The plan variant with a conjugate-symmetric band: odd m, or padded."""
    return make_plan(n, m, odd_padding=m % 2 == 0)


def _report(num, ok, detail):
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _roll_index(n, shifts):
    # roll(x, d)[i] = x[(i - d) % n], one index row per shift
    return (np.arange(n)[np.newaxis, :] - np.asarray(shifts)[:, np.newaxis]) % n


def _worst_equivalence_ratio(p, X):
    """max over signals and all shifts in [-n, n] of error / ||x||."""
    n = p.n
    composite = p.inverse_matrix.real @ p.matrix.real
    U0 = composite @ X
    norms = np.maximum(np.linalg.norm(X, axis=0), 1e-300)
    worst = 0.0
    shifts = np.arange(-n, n + 1)
    for block in np.array_split(shifts, max(1, len(shifts) // 128)):
        idx = _roll_index(n, block)
        processed = composite @ X[idx]  # pool+unpool of every shifted signal
        diff = np.max(np.abs(processed - U0[idx]), axis=1)
        worst = max(worst, float(np.max(diff / norms)))
    return worst


def test_criterion_1_shift_equivalence_exactness():
    total = 0
    worst = 0.0
    for n, ms in SIZES.items():
        X = corpus_signals(n)
        total += X.shape[1]
        for m in ms:
            p = equivariant_plan(n, m)
            # tie the batched matrices to the public API before trusting them
            composite = p.inverse_matrix.real @ p.matrix.real
            for s in range(3):
                direct = unpool1d(p, pool1d(p, X[:, s]))
                assert np.max(np.abs(composite @ X[:, s] - direct)) <= 1e-10
            worst = max(worst, _worst_equivalence_ratio(p, X))
    ok = worst <= 1e-9
    _report(1, ok, f"{total} signals, every shift in [-n, n], worst error {worst:.3e} * ||x||")


def _low_band_oracle(X, m, padded):
    """Kept-band component straight from the transform, no library helpers."""
    n = X.shape[0]
    spectrum = np.fft.fft(X, axis=0)
    head, tail = (m + 1) // 2, m // 2
    keep = np.zeros(n, dtype=bool)
    keep[:head] = True
    if tail:
        keep[n - tail :] = True
    if padded and m % 2 == 0 and m < n:
        keep[n - m // 2] = False
    return np.real(np.fft.ifft(np.where(keep[:, np.newaxis], spectrum, 0), axis=0))


def test_criterion_2_round_trip_is_the_low_band():
    worst = 0.0
    for n, ms in SIZES.items():
        X = corpus_signals(n)
        norms = np.maximum(np.linalg.norm(X, axis=0), 1e-300)
        for m in ms:
            p = equivariant_plan(n, m)
            round_trip = (p.inverse_matrix.real @ p.matrix.real) @ X
            oracle = _low_band_oracle(X, m, padded=p.odd_padding)
            worst = max(worst, float(np.max(np.linalg.norm(round_trip - oracle, axis=0) / norms)))
    ok = worst <= 1e-9
    _report(2, ok, f"unpool(pool(x)) vs spectral-mask oracle, worst {worst:.3e} * ||x||")


def test_criterion_3_decomposition_and_dominance():
    worst_identity = 0.0
    dominance_checked = 0
    worst_gap_rel = 0.0
    for n, ms in SIZES.items():
        X = corpus_signals(n)
        for m in ms:
            p = make_plan(n, m)  # the decomposition holds for the unpadded map too
            stride = n // m
            kinds = BASELINE_KINDS if m * stride == n else ()
            for s in range(X.shape[1]):
                x = X[:, s]
                scale = max(1.0, float(x @ x))
                err_f, err_low_f, energy_high = reconstruction_decomposition(x, p)
                worst_identity = max(
                    worst_identity, abs(err_f - (err_low_f + energy_high)) / scale
                )
                assert err_low_f <= 1e-18 * scale  # coupled inverse restores the band
                pooled = p.matrix @ x
                for kind in kinds:
                    y_b = pool_baseline(PoolingKind(kind, stride), x)
                    err_b, _, _ = reconstruction_decomposition(x, p, downsampled=y_b)
                    gap = float(np.sum(np.abs(y_b - pooled) ** 2)) * (n / m)
                    if gap > 1e-12 * scale and energy_high > 1e-12 * scale:
                        assert err_b > err_f  # strict dominance
                    worst_gap_rel = max(worst_gap_rel, abs(err_b - err_f - gap) / scale)
                    dominance_checked += 1
    ok = worst_identity <= 1e-8 and worst_gap_rel <= 1e-8
    _report(
        3,
        ok,
        f"energy identity within {worst_identity:.3e}, dominance gap equals "
        f"(n/m)*||y_b - Px||^2 within {worst_gap_rel:.3e} over {dominance_checked} baselines",
    )


def test_criterion_4_anti_aliasing_of_outside_tones():
    n, m = 16, 8
    t = np.arange(n)
    p = make_plan(n, m)
    tones = {f: np.cos(2 * np.pi * f * t / n + 0.3) for f in (5, 6, 7)}
    fpool_leak = max(float(np.sum(pool1d(p, x) ** 2)) for x in tones.values())
    aliased = {}
    for kind in BASELINE_KINDS:
        ratios = []
        for f, x in tones.items():
            out = pool_baseline(PoolingKind(kind, n // m), x)
            ratios.append(float(np.sum(out**2) / np.sum(x**2)))
        aliased[kind] = max(ratios)
    ok = fpool_leak <= 1e-9 and all(r > 0.1 for r in aliased.values())
    detail = ", ".join(f"{k} {v:.2f}" for k, v in aliased.items())
    _report(4, ok, f"outside tones: pooled energy {fpool_leak:.1e}; baseline retention {detail}")


def test_criterion_5_pipelines_and_the_cascade_counterexample():
    worst_1d = worst_2d = 0.0
    counterexample_ok = True
    verdicts_ok = True
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        p1 = make_plan(32, 8, odd_padding=True)
        net1 = Pipeline(
            (random_conv1d(seed, 1, 3, 3), ReLU(), Pool1d(PoolingKind("fpool", 4), p1)), (1, 32)
        )
        x1 = rng.standard_normal((1, 32))
        scale1 = max(1.0, float(np.linalg.norm(x1)))
        for d in range(-32, 33):
            worst_1d = max(worst_1d, equivalence_error(net1, p1, d, x1) / scale1)
        p2 = make_plan(16, 8, odd_padding=True)
        net2 = Pipeline(
            (random_conv2d(seed, 1, 2, 3), ReLU(), Pool2d(PoolingKind("fpool", 2), p2, p2)),
            (1, 16, 16),
        )
        x2 = rng.standard_normal((1, 16, 16))
        scale2 = max(1.0, float(np.linalg.norm(x2)))
        for d in range(-16, 17):
            worst_2d = max(worst_2d, equivalence_error(net2, (p2, p2), d, x2) / scale2)
        worst_2d = max(
            worst_2d, equivalence_error(net2, (p2, p2), (3, -7), x2) / scale2
        )  # independent axis shifts too
        report = transitivity_report(seed)
        verdicts = [sweep.all_exact for _, sweep in report]
        verdicts_ok &= verdicts == [True, True, False, True]
        _, bad = report[2]
        counterexample_ok &= bad.max_error > 1e-6 * bad.input_norm
    ok = worst_1d <= 1e-9 and worst_2d <= 1e-9 and counterexample_ok and verdicts_ok
    _report(
        5,
        ok,
        f"conv-relu-pool exact to {max(worst_1d, worst_2d):.3e} * ||x|| over 10 seeds; "
        f"cascade counterexample and segment verdicts hold on all seeds",
    )


def test_criterion_6_unpadded_error_sits_below_every_baseline():
    n, m = 16, 8
    p = make_plan(n, m)  # unpadded, even m: not exactly equivalent
    rng = np.random.default_rng(42)
    shifts = range(-n, n + 1)
    cushion = 1e-9
    generic_ok = True
    bounded_ok = True
    collapse_worst = 0.0

    def sweep(signal, pool_fn):
        errors = []
        base = unpool1d(p, pool_fn(signal))
        for d in shifts:
            shifted = unpool1d(p, pool_fn(np.roll(signal, d)))
            errors.append(float(np.max(np.abs(np.roll(base, d) - shifted))))
        return np.asarray(errors)

    for _ in range(10):
        x = rng.standard_normal(n)
        scale = max(1.0, float(np.linalg.norm(x)))
        err_f = sweep(x, lambda s: pool1d(p, s))
        generic_ok &= err_f.max() > 1e-6  # visibly not equivalent without padding
        for kind in BASELINE_KINDS:
            err_b = sweep(x, lambda s: pool_baseline(PoolingKind(kind, n // m), s))
            bounded_ok &= bool(np.all(err_f <= err_b + cushion))
        spectrum = np.fft.fft(x)
        spectrum[m // 2] = spectrum[n - m // 2] = 0.0
        x_edge_free = np.real(np.fft.ifft(spectrum))
        collapse_worst = max(collapse_worst, sweep(x_edge_free, lambda s: pool1d(p, s)).max() / scale)
    ok = generic_ok and bounded_ok and collapse_worst <= 1e-9
    _report(
        6,
        ok,
        f"unpadded error positive, below every baseline pointwise, and {collapse_worst:.3e} "
        "after zeroing the edge bins",
    )


def test_criterion_7_toy_classifier_consistency():
    exact = 0
    twin_separated = 0
    for seed in range(10):
        c_f, s_f = toy_classifier_consistency(seed, range(-7, 8), pooling="fpool")
        if c_f == 1.0 and s_f <= 1e-9:
            exact += 1
        c_m, s_m = toy_classifier_consistency(seed, range(-7, 8), pooling="max")
        if c_m < 1.0 or s_m > 1e-4:
            twin_separated += 1
    ok = exact == 10 and twin_separated >= 8
    _report(
        7,
        ok,
        f"frequency pooling exact on {exact}/10 seeds; max twin separated on {twin_separated}/10",
    )


def test_criterion_8_fast_path_and_2d_commutation():
    # the np.fft route, which forms no plan matrix, against the real kernels
    worst_fast = 0.0
    for n, ms in SIZES.items():
        X = corpus_signals(n)
        for m in ms:
            for padded in (False, True) if m % 2 == 0 and m < n else (False,):
                p = make_plan(n, m, padded)
                for s in range(X.shape[1]):
                    x = X[:, s]
                    scale = max(1.0, float(np.linalg.norm(x)))
                    pooled = pool1d(p, x)
                    worst_fast = max(
                        worst_fast, float(np.max(np.abs(fft_pool(x, m, padded).real - pooled))) / scale
                    )
                    worst_fast = max(
                        worst_fast,
                        float(np.max(np.abs(fft_unpool(pooled, n, padded).real - unpool1d(p, pooled))))
                        / scale,
                    )
    worst_comm = 0.0
    rng = np.random.default_rng(7)
    for (h, mh), (w, mw), padded in [
        ((12, 6), (16, 8), True),
        ((16, 8), (17, 9), False),
        ((17, 4), (12, 3), False),
    ]:
        pr, pc = make_plan(h, mh, padded), make_plan(w, mw, padded)
        img = rng.standard_normal((3, h, w))
        rows_then_cols = pool2d(pr, pc, img)
        cols_then_rows = pool2d(pc, pr, img.swapaxes(1, 2)).swapaxes(1, 2)
        worst_comm = max(
            worst_comm,
            float(np.max(np.abs(rows_then_cols - cols_then_rows))) / max(1.0, np.linalg.norm(img)),
        )
    ok = worst_fast <= 1e-9 and worst_comm <= 1e-10
    _report(
        8, ok, f"np.fft within {worst_fast:.3e} of pool1d/unpool1d; 2D orders agree to {worst_comm:.3e}"
    )


def test_criterion_9_cli_determinism(tmp_path):
    src = tmp_path / "img.pgm"
    write_netpbm(src, np.random.default_rng(5).integers(0, 256, size=(16, 16)))
    pooled = tmp_path / "out.pgm"
    commands = [
        ["demo1d", "--n", "64"],
        ["oddpad", "--n", "16", "--stride", "2"],
        ["transitivity"],
        ["pool", "--input", str(src), "--output", str(pooled), "--stride", "4"],
        ["consistency", "--seed", "2"],
        ["bench"],
    ]
    mismatched = []
    for args in commands:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "fpool", *args], capture_output=True, text=False
            )
            assert proc.returncode == 0, proc.stderr.decode()
            payload = proc.stdout
            if args[0] == "pool":
                payload = pooled.read_bytes()
            outputs.append(payload)
        if outputs[0] != outputs[1]:
            mismatched.append(args[0])
    ok = not mismatched
    _report(9, ok, f"six commands run twice: {'all byte-identical' if ok else mismatched}")
