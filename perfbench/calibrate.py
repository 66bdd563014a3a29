"""Reference kernel that rescales the benchmark's gated times to one machine speed.

On a small shared machine the speed a process gets moves by up to 1.7x,
in states that last from seconds to minutes, and a run of 25 s often sits
in one state. The reference kernel is a fixed piece of single-threaded
work of the same kinds the library does: FFTs, a float32 matrix product
through OpenBLAS, and an interpreter loop. It uses NumPy only, so no change
to cyclevc can move it. Run on the same thread right before and after an
op, it slows with the machine as the op does:

    gated seconds = wall seconds x REFERENCE_S / (kernel time around them)

that is, seconds on a machine where the kernel takes REFERENCE_S. Over
25-s windows of one 2-vCPU machine that moved between speed states, the
spread (IQR over median) of the median op rate fell from 0.07 to 0.02 on
extract, from 0.22 to 0.06 on convert and from 0.30 to 0.01 on train.
"""

import time

import numpy as np

REFERENCE_S = 0.003  # kernel time that defines the reference speed
REPEATS = 3  # a reading is the median of this many kernel runs

_rng = np.random.default_rng(0)
_SIGNAL = _rng.standard_normal(4096)
_A = _rng.standard_normal((128, 256)).astype(np.float32)
_B = _rng.standard_normal((256, 128)).astype(np.float32)


def _kernel():
    for _ in range(10):
        np.fft.irfft(np.fft.rfft(_SIGNAL))
    for _ in range(6):
        _A @ _B
    total = 0
    for i in range(25000):
        total += i * i
    return total


def kernel_s():
    """Wall seconds the reference kernel takes now: the median of REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[REPEATS // 2]
