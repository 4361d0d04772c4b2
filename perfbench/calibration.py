"""Fixed calibration kernel: the machine's momentary speed.

On a shared virtual machine the same code runs up to twice as slow at
some times as at others (measured on a 2-vCPU KVM guest: a fixed set of
``xiscan`` rounds took 143 to 294 ms within 90 s).  The benchmark
therefore runs this kernel after every timed block and divides the
block's rate by the kernel's speed relative to ``REFERENCE_UNITS_PER_S``.

The kernel is the array-call pattern the workloads share: a splitmix64
hash chain and ``log1p`` on a 40k-word vector, then ``ndimage.label`` on
a 120 x 120 grid.  Of the candidates tried (this, an interpreter-bound
lattice BFS over dicts and sets, and hashing a 250k-word vector), it
left the least spread in the scaled rate on three workloads and tied on
``heights-cone``.  It depends on nothing in ``firelab``,
so a change to the program cannot move it.  Editing this file, or the
constant, redefines the scaled metrics.
"""

import time

import numpy as np
from scipy import ndimage

# Units per second on the reference machine state; only scales the output.
REFERENCE_UNITS_PER_S = 800.0

# Seconds a fresh interpreter takes, on the reference machine state, to
# import the third-party modules firelab uses (numpy, scipy.ndimage,
# scipy.stats).  A set-up probe times those imports as its own speed
# reference and scales its whole set-up time by this over what it measured.
REFERENCE_LIBS_S = 1.3

_STRUCTURE = np.array([[0, 1, 1], [1, 1, 1], [1, 1, 0]], dtype=np.uint8)
_GRID = np.random.default_rng(12345).random((120, 120)) < 0.5
_WORDS = np.arange(40_000, dtype=np.uint64)


def _mix(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def unit() -> float:
    """One unit of calibration work (about 1.2 ms)."""
    with np.errstate(over="ignore"):
        h = _mix(_mix(_WORDS ^ np.uint64(7)) + np.uint64(11))
    u = -np.log1p(-((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)
    ndimage.label(_GRID, structure=_STRUCTURE)
    return float(u[0])


def speed(units: int = 24) -> float:
    """Machine speed now, as a multiple of the reference speed.  One untimed
    unit first brings the kernel's data back into cache after the workload."""
    unit()
    t0 = time.perf_counter_ns()
    for _ in range(units):
        unit()
    return units * 1e9 / (time.perf_counter_ns() - t0) / REFERENCE_UNITS_PER_S
