"""Deterministic rate-1 Poisson clocks from counter-based random streams.

Every site owns an independent clock.  The j-th uniform of site ``(k, l)``
under a run seed is a pure hash of ``(seed, k, l, j)`` (splitmix64 output
function over a mixed per-site state), so any site's clock is available in
O(1) without storing the field.  Inter-arrival gaps are Exponential(1) via
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


def site_state(seed: int, site: Site) -> int:
    """Per-site base state; sequential mixing keeps streams uncorrelated."""
    h = mix64((seed & MASK64) ^ GOLDEN)
    h = mix64(h ^ (site[0] & MASK64))
    return mix64(h ^ (site[1] & MASK64))


def _to_unit(h: int) -> float:
    # Strictly inside (0, 1): arrivals stay positive and finite.
    return ((h >> 11) + 0.5) * 2.0 ** -53


def uniform(seed: int, site: Site, j: int) -> float:
    """The j-th uniform of a site's stream."""
    h = site_state(seed, site)
    return _to_unit(mix64((h + (j + 1) * GOLDEN) & MASK64))


def derive_seed(base_seed: int, index: int) -> int:
    """Independent child seed for sample ``index`` of an experiment."""
    return mix64(((base_seed & MASK64) * GOLDEN + 2 * index + 1) & MASK64)


def gap(seed: int, site: Site, j: int) -> float:
    """The j-th inter-arrival gap of a site's clock; jump j is the sum of
    gaps 0..j, added in that order."""
    # np.log1p (not math.log1p): the scalar and grid paths must produce
    # bit-identical gaps, and numpy's scalar kernel matches its array kernel
    # while libm differs by 1 ulp on ~0.7% of inputs.
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


def _mix64_np(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * np.uint64(MIX_A)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(MIX_B)
    return x ^ (x >> np.uint64(31))


def uniform_grid(seed: int, window: Window, j: int = 0) -> np.ndarray:
    """Vectorized ``uniform(seed, site, j)`` over all window sites.

    Bit-identical to the scalar path: same mixing chain on uint64.
    """
    K, L = window.axial_grids()
    with np.errstate(over="ignore"):
        h0 = np.uint64(mix64((seed & MASK64) ^ GOLDEN))
        h = _mix64_np(h0 ^ K.astype(np.uint64))
        h = _mix64_np(h ^ L.astype(np.uint64))
        h = _mix64_np(h + np.uint64(((j + 1) * GOLDEN) & MASK64))
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def gap_grid(seed: int, window: Window, j: int) -> np.ndarray:
    """Vectorized ``gap(seed, site, j)`` over all window sites."""
    return -np.log1p(-uniform_grid(seed, window, j))


def first_arrival_grid(seed: int, window: Window) -> np.ndarray:
    """First jump times for all window sites, shape (n_rows, n_cols)."""
    return gap_grid(seed, window, 0)
