"""Deterministic rate-1 Poisson clocks from counter-based random streams.

Every site owns an independent clock.  The j-th uniform of site ``(k, l)``
under a run seed is a pure hash of ``(seed, k, l, j)`` (splitmix64 output
function over a mixed per-site state), so any site's clock is available in
O(1) without storing the field.  ``window_states`` and ``gap_from_state``
split that chain on a window's sites: a caller that draws many gaps of one
site mixes its state once.  Inter-arrival gaps are Exponential(1) via
inversion; jump lists are cumulative gap sums, generated lazily and
consistent under horizon extension.

A window's states (``window_states``) are the broadcast of a per-column mix
of ``k`` and a per-row ``^ l``: the seed's mix is shared by all sites and the
``k`` mix by a column, so only the last two mixes run per site.  An array of
seeds adds a leading seed axis, one window per seed, with the same bits.  The array
mixes work in place on a fresh array with one scratch buffer and leave the
states they read unchanged; every array result equals the scalar chain bit
for bit.

The window ladder asks occupancy as integers: ``first_arrival_bits`` hashes
a window's 53-bit first-draw integers in cache-sized blocks, and a site's
first arrival is <= t exactly when its integer is <= ``arrival_bound(t)``.
"""

import math
from functools import lru_cache

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
    # In (0, 1]: every gap is positive.  The top value m >> 11 = 2**53 - 1
    # rounds to u = 1.0, whose gap is +inf (one value in 2**53).
    return ((mix64((h + (j + 1) * GOLDEN) & MASK64) >> 11) + 0.5) * 2.0 ** -53


def _seed_mixes(seeds) -> np.ndarray:
    """The first mix of each seed's chain, shared by all its sites."""
    # int(s): ``s & MASK64`` overflows on a numpy integer seed.
    return np.array([mix64((int(s) & MASK64) ^ GOLDEN) for s in seeds], dtype=np.uint64)


@lru_cache(maxsize=256)
def _window_axes(window: Window) -> tuple[np.ndarray, np.ndarray]:
    """A window's k and l ranges as read-only uint64 arrays (cached: a
    ladder query hashes the same few windows over and over)."""
    ks = np.arange(window.k_min, window.k_max + 1, dtype=np.int64).view(np.uint64)
    ls = np.arange(window.l_min, window.l_max + 1, dtype=np.int64).view(np.uint64)
    ks.flags.writeable = ls.flags.writeable = False
    return ks, ls


def _mixed_columns(seed, window: Window):
    """The step ``window_states`` and ``first_arrival_bits`` share: each
    seed's mix xor a window column's k, mixed once per column.  Returns
    whether ``seed`` is a sequence, the (n_seeds, n_cols) column mixes and
    the window's l range."""
    stack = isinstance(seed, (list, tuple, np.ndarray))
    ks, ls = _window_axes(window)
    cols = ks ^ _seed_mixes(seed if stack else [seed])[:, None]
    _mix64_np(cols, np.empty_like(cols))
    return stack, cols, ls


def window_states(seed, window: Window) -> np.ndarray:
    """Base states of every window site's stream (``_scalar_state``),
    shape (n_rows, n_cols): the broadcast of a per-column mix of k and a
    per-row ``^ l``.  For a sequence of seeds the shape is (len(seed),
    n_rows, n_cols), and plane i equals ``window_states(seed[i], window)``."""
    stack, cols, ls = _mixed_columns(seed, window)
    h = cols[:, None, :] ^ ls[:, None]
    _mix64_np(h, np.empty_like(h))
    return h if stack else h[0]


def _bits_from_state(h: np.ndarray, j: int) -> np.ndarray:
    """``mix64(h + (j + 1) * GOLDEN) >> 11`` over a uint64 array of states:
    the 53-bit integers behind the j-th uniforms (``h`` is kept)."""
    x = h + np.uint64(((j + 1) * GOLDEN) & MASK64)  # a fresh array
    _mix64_np(x, np.empty_like(x))
    x >>= _S11
    return x


def _gaps_of_bits(bits: np.ndarray) -> np.ndarray:
    """``_gap_of_bits`` over a uint64 array of 53-bit integers: the array
    path of ``gap_from_state`` and of the fire's live-site floats."""
    g = bits + 0.5  # a fresh float64 array
    g *= -2.0 ** -53  # -u, exactly: the negation commutes with the scaling
    np.log1p(g, out=g)
    np.negative(g, out=g)
    return g


def gap_from_state(h, j: int):
    """The j-th inter-arrival gap of the stream with base state ``h`` (a
    float for an int state, an array for a uint64 array of states; the
    states are left unchanged)."""
    # np.log1p (not math.log1p): the scalar and array paths must produce
    # bit-identical gaps, and numpy's scalar kernel matches its array kernel
    # while libm differs by 1 ulp on ~0.7% of inputs.
    if not isinstance(h, np.ndarray):
        return -float(np.log1p(-_scalar_uniform(h, j)))
    return _gaps_of_bits(_bits_from_state(h, j))


def uniform(seed: int, site: Site, j: int) -> float:
    """The j-th uniform of a site's stream."""
    # int(seed): ``_scalar_state``'s ``seed & MASK64`` overflows on a numpy
    # integer seed; the conversion stays out of the scalar chain itself.
    return _scalar_uniform(_scalar_state(int(seed), site[0], site[1]), j)


def derive_seed(base_seed: int, index: int) -> int:
    """Independent child seed for sample ``index`` of an experiment."""
    return mix64(((int(base_seed) & MASK64) * GOLDEN + 2 * int(index) + 1) & MASK64)


def gap(seed: int, site: Site, j: int) -> float:
    """The j-th inter-arrival gap of a site's clock; jump j is the sum of
    gaps 0..j, added in that order."""
    # Through ``uniform`` (bit-identical to ``gap_from_state``, see
    # tests/test_clocks.py), so that perfbench's tracer, which wraps
    # ``uniform``, still counts every scalar draw.
    return -float(np.log1p(-uniform(seed, site, j)))


def first_arrival_value(seed: int, site: Site) -> float:
    """First jump time with no horizon cut (positive; +inf only at the top
    hash value, see ``_scalar_uniform``)."""
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


# Sites hashed per block by ``first_arrival_bits``: a block and its scratch,
# 256 KiB each, stay in L2 through every pass of both per-site mixes.  On a
# 2-core Xeon with 2 MiB of L2 per core, n = 256's full window hashed and
# thresholded in 1.05 ms at 2**13, 0.87 ms at 2**15 and 0.88 ms at 2**16.
_BLOCK_SITES = 1 << 15
_GOLDEN = np.uint64(GOLDEN)
_TOP_BITS = (1 << 53) - 1


def first_arrival_bits(seed, window: Window) -> np.ndarray:
    """The 53-bit integers behind ``first_arrival_grid``: ``mix64(state +
    GOLDEN) >> 11`` of every window site, in ``first_arrival_grid``'s shape
    and equal to ``_bits_from_state(window_states(seed, window), 0)``.  A
    site's first arrival is <= t exactly when its integer is <=
    ``arrival_bound(t)``.

    Each seed's per-column mix runs once; the per-site mixes run in place
    on blocks of the result of about _BLOCK_SITES sites (whole planes of a
    stack of small windows, or rows of one large one) with one reused
    scratch buffer, so that no pass streams the whole stack through
    memory."""
    stack, cols, ls = _mixed_columns(seed, window)
    n_seeds, n_rows, n_cols = len(cols), window.n_rows, window.n_cols
    out = np.empty((n_seeds, n_rows, n_cols), dtype=np.uint64)
    rows = max(1, _BLOCK_SITES // n_cols)
    planes = max(1, min(rows // n_rows, n_seeds))
    rows = min(rows, n_rows)
    tmp = np.empty(planes * rows * n_cols, dtype=np.uint64)
    for s0 in range(0, n_seeds, planes):
        s1 = min(s0 + planes, n_seeds)
        for r0 in range(0, n_rows, rows):
            r1 = min(r0 + rows, n_rows)
            x = out[s0:s1, r0:r1]  # contiguous: whole planes, or rows of one
            scratch = tmp[:x.size].reshape(x.shape)
            np.bitwise_xor(cols[s0:s1, None, :], ls[None, r0:r1, None], out=x)
            _mix64_np(x, scratch)
            x += _GOLDEN  # the first draw, j = 0
            _mix64_np(x, scratch)
            x >>= _S11
    return out if stack else out[0]


def _gap_of_bits(b: int) -> float:
    """``gap_from_state``'s float operations on the 53-bit integer b."""
    if b == _TOP_BITS:  # u rounds to 1.0: log1p(-1), without numpy's warning
        return math.inf
    return -float(np.log1p(-((b + 0.5) * 2.0 ** -53)))


@lru_cache(maxsize=256)
def arrival_bound(t: float) -> int:
    """The largest b in [-1, 2**53) whose gap ``_gap_of_bits(b) <= t``, so
    that ``first_arrival_bits(...) <= arrival_bound(t)`` is
    ``first_arrival_grid(...) <= t`` at every site (-1: no site).  The gap
    is monotone in b; a guess from ``1 - exp(-t)`` is stepped to the exact
    float test, in a few steps (cached per t)."""
    if not t > 0.0:  # every gap is positive; NaN too holds no site
        return -1
    b = min(max(math.floor(-math.expm1(-t) * 2.0 ** 53 - 0.5), -1), _TOP_BITS)
    while b < _TOP_BITS and _gap_of_bits(b + 1) <= t:
        b += 1
    while b >= 0 and _gap_of_bits(b) > t:
        b -= 1
    return b
