"""Deterministic rate-1 Poisson clocks from counter-based random streams.

Every site owns an independent clock.  The j-th uniform of site ``(k, l)``
under a run seed is a pure hash of ``(seed, k, l, j)`` (splitmix64 output
function over a mixed per-site state), so any site's clock is available in
O(1) without storing the field.  ``site_state`` and ``gap_from_state`` split
that chain, on one site or on arrays of sites: a caller that draws many gaps
of one site mixes its state once.  Inter-arrival gaps are Exponential(1) via
inversion; jump lists are cumulative gap sums, generated lazily and
consistent under horizon extension.
"""

import math

import numpy as np

from .lattice import Site, Window

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_A = 0xBF58476D1CE4E5B9
MIX_B = 0x94D049BB133111EB

T_C = math.log(2.0)


def mix64(x: int) -> int:
    """splitmix64 output function (finalizer) on a 64-bit state."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * MIX_A) & MASK64
    x = ((x ^ (x >> 27)) * MIX_B) & MASK64
    return x ^ (x >> 31)


def _mix64_np(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * np.uint64(MIX_A)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(MIX_B)
    return x ^ (x >> np.uint64(31))


def site_state(seed: int, site):
    """Base state of a site's stream; sequential mixing keeps streams
    uncorrelated.  ``site`` is one ``(k, l)`` pair, or a pair of int arrays
    (then the states are a uint64 array of their shape)."""
    h = mix64((seed & MASK64) ^ GOLDEN)
    k, l = site
    if isinstance(k, np.ndarray):
        with np.errstate(over="ignore"):
            h = _mix64_np(np.uint64(h) ^ k.astype(np.uint64))
            return _mix64_np(h ^ l.astype(np.uint64))
    return mix64(mix64(h ^ (k & MASK64)) ^ (l & MASK64))


def _uniform_from_state(h, j: int):
    # Strictly inside (0, 1): arrivals stay positive and finite.
    if isinstance(h, np.ndarray):
        with np.errstate(over="ignore"):
            h = _mix64_np(h + np.uint64(((j + 1) * GOLDEN) & MASK64))
        return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return ((mix64((h + (j + 1) * GOLDEN) & MASK64) >> 11) + 0.5) * 2.0 ** -53


def gap_from_state(h, j: int):
    """The j-th inter-arrival gap of the stream with base state ``h`` (a
    float for an int state, an array for a uint64 array of states)."""
    # np.log1p (not math.log1p): the scalar and array paths must produce
    # bit-identical gaps, and numpy's scalar kernel matches its array kernel
    # while libm differs by 1 ulp on ~0.7% of inputs.
    g = -np.log1p(-_uniform_from_state(h, j))
    return g if isinstance(h, np.ndarray) else float(g)


def uniform(seed: int, site: Site, j: int) -> float:
    """The j-th uniform of a site's stream."""
    return _uniform_from_state(site_state(seed, site), j)


def derive_seed(base_seed: int, index: int) -> int:
    """Independent child seed for sample ``index`` of an experiment."""
    return mix64(((base_seed & MASK64) * GOLDEN + 2 * index + 1) & MASK64)


def gap(seed: int, site: Site, j: int) -> float:
    """The j-th inter-arrival gap of a site's clock; jump j is the sum of
    gaps 0..j, added in that order."""
    # Through ``uniform`` (bit-identical to ``gap_from_state``, see
    # tests/test_clocks.py), so that perfbench's tracer, which wraps
    # ``uniform``, still counts every scalar draw.
    return -float(np.log1p(-uniform(seed, site, j)))


def first_arrival_value(seed: int, site: Site) -> float:
    """First jump time with no horizon cut (always finite, positive)."""
    return gap(seed, site, 0)


def jumps_in(seed: int, site: Site, t_from: float, t_to: float) -> list[float]:
    """All clock jumps in ``(t_from, t_to]``, strictly increasing.

    Jumps are always accumulated from the start of the stream, so the
    result is a window onto one fixed sequence: extending ``t_to`` never
    changes earlier jumps.
    """
    if not 0.0 <= t_from < t_to:
        raise ValueError("need 0 <= t_from < t_to")
    out: list[float] = []
    t = 0.0
    j = 0
    while True:
        t += gap(seed, site, j)
        if t > t_to:
            return out
        if t > t_from:
            out.append(t)
        j += 1


def uniform_grid(seed: int, window: Window, j: int = 0) -> np.ndarray:
    """Vectorized ``uniform(seed, site, j)`` over all window sites.

    Bit-identical to the scalar path: same mixing chain on uint64.
    """
    return _uniform_from_state(site_state(seed, window.axial_grids()), j)


def first_arrival_grid(seed: int, window: Window) -> np.ndarray:
    """First jump times for all window sites, shape (n_rows, n_cols)."""
    return gap_from_state(site_state(seed, window.axial_grids()), 0)
