"""Seeded input streams for the benchmark (numpy only).

The same seed always gives the same ``(X, y)``; the program under test
receives nothing else.  Both streams are non-stationary: they cycle
through a fixed list of regimes, switching at fixed intervals.  The seed
draws the sample times and the noise only, so every seed poses work of the
same mix and difficulty and the benchmark's figures compare across seeds.
A seeded regime order made the accuracy of fast mode, which keeps the
hyperparameters fitted on the set-up window, depend on the seed more than
on the program.
"""

import numpy as np

NOISE_SD = 0.2
SAMPLES_PER_UNIT = 100      # synth_toy density: 500 samples on [0, 5]

# (amplitude, angular frequency): the ends of synth_toy's ranges and two
# points between them.
SINE_REGIMES = ((2.0, 8.0), (0.5, 4.0), (1.0, 6.0), (1.5, 5.0))

# (period 1, period 2, amplitude 1, amplitude 2) in samples.
LAG_REGIMES = ((40.0, 9.0, 1.0, 0.3), (25.0, 6.0, 0.7, 0.5),
               (60.0, 13.0, 1.4, 0.2), (33.0, 11.0, 1.1, 0.4))


def piecewise_sinusoid(n: int, seed: int, seg_len: int = 250):
    """D=1 stream in the ``synth_toy`` family, extended to any length.

    Time advances at ``SAMPLES_PER_UNIT`` samples per unit with sorted
    uniform sample times in each segment.  Every ``seg_len`` samples the
    target ``a * sin(phase)`` switches to another (amplitude, frequency)
    regime; the phase runs on continuously.  Additive Gaussian noise has
    standard deviation 0.2, as in ``synth_toy``.
    """
    rng = np.random.default_rng([int(seed), 1])
    n_seg = -(-n // seg_len)
    span = seg_len / SAMPLES_PER_UNIT
    times, signal = [], []
    phase = 0.0
    for s in range(n_seg):
        amp, freq = SINE_REGIMES[s % len(SINE_REGIMES)]
        offset = np.sort(rng.uniform(0.0, span, seg_len))
        times.append(s * span + offset)
        signal.append(amp * np.sin(phase + freq * offset))
        phase += freq * span
    times = np.concatenate(times)[:n]
    y = np.concatenate(signal)[:n] + rng.normal(0.0, NOISE_SD, n)
    return times[:, None], y


def lagged_series(n: int, seed: int, lags: int = 8, seg_len: int = 400):
    """D=``lags`` stream: a lag embedding of a non-stationary scalar series.

    The series is a sum of two sinusoids whose periods and amplitudes switch
    regime every ``seg_len`` samples, plus a slow level swing and Gaussian
    noise of standard deviation 0.2.  Row ``i`` of ``X`` holds ``lags``
    consecutive values and ``y[i]`` is the value one step after them.
    """
    rng = np.random.default_rng([int(seed), 8])
    total = n + lags
    n_seg = -(-total // seg_len)
    parts = []
    ph1 = ph2 = 0.0
    i = np.arange(seg_len, dtype=float)
    for s in range(n_seg):
        p1, p2, a1, a2 = LAG_REGIMES[s % len(LAG_REGIMES)]
        parts.append(a1 * np.sin(ph1 + 2.0 * np.pi * i / p1)
                     + a2 * np.sin(ph2 + 2.0 * np.pi * i / p2))
        ph1 += 2.0 * np.pi * seg_len / p1
        ph2 += 2.0 * np.pi * seg_len / p2
    level = 0.5 * np.sin(2.0 * np.pi * np.arange(total) / 1500.0)
    series = (np.concatenate(parts)[:total] + level
              + rng.normal(0.0, NOISE_SD, total))
    X = np.lib.stride_tricks.sliding_window_view(series[:-1], lags).copy()
    return X, series[lags:].copy()
