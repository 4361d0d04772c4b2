"""Deterministic rate-1 Poisson clocks from counter-based random streams.

Every site owns an independent clock.  The j-th uniform of site ``(k, l)``
under a run seed is a pure hash of ``(seed, k, l, j)`` (splitmix64 output
function over a mixed per-site state), so any site's clock is available in
O(1) without storing the field.  ``site_state`` and ``gap_from_state`` split
that chain, on one site or on arrays of sites: a caller that draws many gaps
of one site mixes its state once.  Inter-arrival gaps are Exponential(1) via
inversion; jump lists are cumulative gap sums, generated lazily and
consistent under horizon extension.

A window's states (``window_states``) are the broadcast of a per-column mix
of ``k`` and a per-row ``^ l``: the seed's mix is shared by all sites and the
``k`` mix by a column, so only the last two mixes run per site.  An array of
seeds adds a leading seed axis, one window per seed, with the same bits.  The array
mixes work in place on a fresh array with one scratch buffer and leave the
states they read unchanged; every array result equals the scalar chain bit
for bit.
"""

import math

import numpy as np

from .lattice import Site, Window

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_A = 0xBF58476D1CE4E5B9
MIX_B = 0x94D049BB133111EB

T_C = math.log(2.0)

# The array path's constants, as uint64 scalars so that no call converts them.
_MIX_A, _MIX_B = np.uint64(MIX_A), np.uint64(MIX_B)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def mix64(x: int) -> int:
    """splitmix64 output function (finalizer) on a 64-bit state."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * MIX_A) & MASK64
    x = ((x ^ (x >> 27)) * MIX_B) & MASK64
    return x ^ (x >> 31)


def _mix64_np(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``mix64`` on a uint64 array, in place; ``tmp`` is scratch of its shape."""
    np.right_shift(x, _S30, out=tmp)
    x ^= tmp
    x *= _MIX_A
    np.right_shift(x, _S27, out=tmp)
    x ^= tmp
    x *= _MIX_B
    np.right_shift(x, _S31, out=tmp)
    x ^= tmp
    return x


# The scalar chain: pure Python ints, no type dispatch, so that ``uniform``,
# the scalar draw of jump queries and of the lazy one-arm walk, costs only
# its four mixes.
def _scalar_state(seed: int, k: int, l: int) -> int:
    return mix64(mix64(mix64((seed & MASK64) ^ GOLDEN) ^ (k & MASK64)) ^ (l & MASK64))


def _scalar_uniform(h: int, j: int) -> float:
    # Strictly inside (0, 1): arrivals stay positive and finite.
    return ((mix64((h + (j + 1) * GOLDEN) & MASK64) >> 11) + 0.5) * 2.0 ** -53


def site_state(seed, site):
    """Base state of a site's stream; sequential mixing keeps streams
    uncorrelated.  ``site`` is one ``(k, l)`` pair, or a pair of int arrays
    that broadcast together (then the states are a uint64 array of the
    broadcast shape, and ``k`` is mixed at its own shape: a row of columns
    is mixed once, not once per row).  With arrays, ``seed`` may be a
    sequence of seeds; the states then gain a leading seed axis."""
    k, l = site
    if not isinstance(k, np.ndarray):
        return _scalar_state(seed, k, l)
    if isinstance(seed, (list, tuple, np.ndarray)):
        seed_mix = np.array([mix64((s & MASK64) ^ GOLDEN) for s in seed], dtype=np.uint64)
        seed_mix = seed_mix.reshape((-1,) + (1,) * max(k.ndim, l.ndim))
    else:
        seed_mix = np.uint64(mix64((seed & MASK64) ^ GOLDEN))
    h = k.astype(np.uint64) ^ seed_mix
    h = _mix64_np(h, np.empty_like(h)) ^ l.astype(np.uint64)
    return _mix64_np(h, np.empty_like(h))


def window_states(seed, window: Window) -> np.ndarray:
    """``site_state`` of every window site, shape (n_rows, n_cols): the
    broadcast of a per-column mix of k and a per-row ``^ l``.  For a
    sequence of seeds the shape is (len(seed), n_rows, n_cols), and plane i
    equals ``window_states(seed[i], window)``."""
    ks = np.arange(window.k_min, window.k_max + 1, dtype=np.int64)
    ls = np.arange(window.l_min, window.l_max + 1, dtype=np.int64)
    return site_state(seed, (ks, ls[:, None]))


def _uniform_from_state(h: np.ndarray, j: int) -> np.ndarray:
    """``_scalar_uniform`` over a uint64 array of states."""
    x = h + np.uint64(((j + 1) * GOLDEN) & MASK64)  # a fresh array: h is kept
    tmp = np.empty_like(x)
    _mix64_np(x, tmp)
    x >>= _S11
    u = tmp.view(np.float64)  # x's scratch, free again, holds the result
    np.add(x, 0.5, out=u)
    u *= 2.0 ** -53
    return u


def gap_from_state(h, j: int):
    """The j-th inter-arrival gap of the stream with base state ``h`` (a
    float for an int state, an array for a uint64 array of states; the
    states are left unchanged)."""
    # np.log1p (not math.log1p): the scalar and array paths must produce
    # bit-identical gaps, and numpy's scalar kernel matches its array kernel
    # while libm differs by 1 ulp on ~0.7% of inputs.
    if not isinstance(h, np.ndarray):
        return -float(np.log1p(-_scalar_uniform(h, j)))
    g = _uniform_from_state(h, j)
    np.negative(g, out=g)
    np.log1p(g, out=g)
    np.negative(g, out=g)
    return g


def uniform(seed: int, site: Site, j: int) -> float:
    """The j-th uniform of a site's stream."""
    return _scalar_uniform(_scalar_state(seed, site[0], site[1]), j)


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


def first_arrival_grid(seed, window: Window) -> np.ndarray:
    """First jump times for all window sites, shape (n_rows, n_cols), or
    (len(seed), n_rows, n_cols) for a sequence of seeds (``window_states``)."""
    return gap_from_state(window_states(seed, window), 0)
