import math

import numpy as np
import pytest
from scipy import stats

from firelab import clocks
from firelab.clocks import T_C
from firelab.estimators import EventParams
from firelab.lattice import Window


def uniform_grid(seed, window, j=0):
    """``uniform(seed, site, j)`` over all window sites, from the array
    state chain; the tests hold it bit-identical to the scalar path."""
    bits = clocks._bits_from_state(clocks.window_states(seed, window), j)
    return (bits + 0.5) * 2.0 ** -53


def axial_grids(window):
    """Integer ``(K, L)`` meshgrids of a window, shape (n_rows, n_cols)."""
    ls = np.arange(window.l_min, window.l_max + 1, dtype=np.int64)
    ks = np.arange(window.k_min, window.k_max + 1, dtype=np.int64)
    L, K = np.meshgrid(ls, ks, indexing="ij")
    return K, L


def test_determinism():
    key = (1234, (5, -3))
    assert clocks.first_arrival_value(*key) == clocks.first_arrival_value(*key)
    assert clocks.jumps_in(1234, (5, -3), 0.0, 2.0) == clocks.jumps_in(1234, (5, -3), 0.0, 2.0)


def test_distinct_sites_distinct_streams():
    us = {clocks.uniform(9, (k, l), 0) for k in range(-10, 10) for l in range(-10, 10)}
    assert len(us) == 400


def test_scalar_matches_grid():
    window = Window(-37, 41, -5, 23)
    for j in (0, 1, 3):
        grid = uniform_grid(2718, window, j)
        for site in [(-37, -5), (41, 23), (0, 0), (13, 7), (-2, 11)]:
            assert clocks.uniform(2718, site, j) == grid[window.index(site)]
    arr = clocks.first_arrival_grid(2718, window)
    for site in [(-37, -5), (0, 0), (40, 22)]:
        assert clocks.first_arrival_value(2718, site) == arr[window.index(site)]


def _reference_gap(seed, site, j):
    """The stream's definition written out: splitmix64 over seed, k, l, j."""
    mix, mask, golden = clocks.mix64, clocks.MASK64, clocks.GOLDEN
    h = mix((seed & mask) ^ golden)
    h = mix(mix(h ^ (site[0] & mask)) ^ (site[1] & mask))
    u = ((mix((h + (j + 1) * golden) & mask) >> 11) + 0.5) * 2.0 ** -53
    return -float(np.log1p(-u))


def test_gap_from_state_matches_gap_bit_for_bit():
    # The fire loop's cursor adds scalar gaps from a cached state and its
    # ring schedule adds array gaps; both must be clocks.gap's floats.
    rng = np.random.default_rng(71)
    checked = 0
    for seed in rng.integers(0, 2**63, size=20).tolist() + [0, 2**64 - 1, -3]:
        ks = np.concatenate((rng.integers(-10**6, 10**6, size=18), [-1, 2**31]))
        ls = np.concatenate((rng.integers(-10**6, 10**6, size=18), [2**31, -1]))
        states = np.array([clocks._scalar_state(seed, k, l)
                           for k, l in zip(ks.tolist(), ls.tolist())], dtype=np.uint64)
        for j in range(13):
            grid = clocks.gap_from_state(states, j)
            for k, l, h, g in zip(ks.tolist(), ls.tolist(), states.tolist(),
                                  grid.tolist()):
                want = _reference_gap(seed, (k, l), j)
                assert clocks.gap(seed, (k, l), j) == want
                assert clocks.gap_from_state(h, j) == want
                assert g == want
                checked += 1
    assert checked >= 5000


def _meshgrid_states(seed, window):
    """The state chain over the full (K, L) meshgrids, mixed out of place."""
    def mix(x):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(clocks.MIX_A)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(clocks.MIX_B)
        return x ^ (x >> np.uint64(31))
    K, L = axial_grids(window)
    h = np.uint64(clocks.mix64((seed & clocks.MASK64) ^ clocks.GOLDEN))
    return mix(mix(h ^ K.astype(np.uint64)) ^ L.astype(np.uint64))


FACTOR_WINDOWS = [
    Window(-7, 5, -4, 3),                         # negative k and l
    Window(3, 11, 5, 9),                          # l_min != 0
    Window(-6, 6, 4, 4),                          # a single row
    Window(2, 2, -3, 6),                          # a single column
    Window(2**31 - 3, 2**31 + 2, 2**31 - 1, 2**31),
    Window(-2**31, -2**31 + 4, -2**31 - 1, -2**31 + 1),
]


@pytest.mark.parametrize("window", FACTOR_WINDOWS)
def test_factored_states_match_reference_chain(window):
    # The window's states mix k once per column and broadcast ^ l per row;
    # they must equal the chain over the full meshgrid and, through every
    # grid function, the written-out splitmix64 reference at each site.
    K, L = axial_grids(window)
    sites = list(zip(K.ravel().tolist(), L.ravel().tolist()))
    for seed in (0, 2**64 - 1, -3, 2718):
        states = clocks.window_states(seed, window)
        assert states.dtype == np.uint64 and states.shape == K.shape
        assert np.array_equal(states, _meshgrid_states(seed, window))
        assert states.ravel().tolist() == [clocks._scalar_state(seed, *s) for s in sites]
        for j in (0, 1, 6):
            want = [_reference_gap(seed, s, j) for s in sites]
            assert clocks.gap_from_state(states, j).ravel().tolist() == want
            us = uniform_grid(seed, window, j).ravel().tolist()
            assert [-float(np.log1p(-u)) for u in us] == want
        assert clocks.first_arrival_grid(seed, window).ravel().tolist() == \
            [_reference_gap(seed, s, 0) for s in sites]


@pytest.mark.parametrize("window", FACTOR_WINDOWS)
def test_seed_axis_stacks_per_seed_grids(window):
    # A sequence of seeds adds a leading axis; each plane is that seed's
    # own grid, bit for bit, for the states and the first arrivals.
    seeds = [0, 2**64 - 1, -3, 2718, clocks.derive_seed(5, 1)]
    states = clocks.window_states(seeds, window)
    arrivals = clocks.first_arrival_grid(seeds, window)
    assert states.shape == arrivals.shape == (len(seeds), window.n_rows, window.n_cols)
    for i, seed in enumerate(seeds):
        assert np.array_equal(states[i], clocks.window_states(seed, window))
        assert np.array_equal(arrivals[i], clocks.first_arrival_grid(seed, window))
    assert clocks.first_arrival_grid([], window).shape == (0, window.n_rows, window.n_cols)


def test_numpy_seeds_match_python_ints():
    # A numpy stack or scalar of seeds gives the arrays of the same seeds
    # as a list or an int; ``s & MASK64`` on a numpy integer overflowed.
    window = Window(-3, 4, 0, 3)
    cases = [(np.array([5, -3, 2**63 - 1], dtype=np.int64), [5, -3, 2**63 - 1]),
             (np.array([5, 2**64 - 1], dtype=np.uint64), [5, 2**64 - 1]),
             (np.int64(-3), -3), (np.uint64(2**64 - 1), 2**64 - 1)]
    for given, want in cases:
        for fn in (clocks.window_states, clocks.first_arrival_grid,
                   clocks.first_arrival_bits):
            assert np.array_equal(fn(given, window), fn(want, window))


def test_numpy_scalar_seeds_match_python_ints_on_the_scalar_path():
    # ``seed & MASK64`` overflowed on a numpy integer seed in the scalar
    # chain, and so did ``base_seed & MASK64`` in derive_seed.
    site = (1, 1)
    for given, want in ((np.int64(5), 5), (np.int64(-3), -3),
                        (np.uint64(2**64 - 1), 2**64 - 1)):
        assert clocks.uniform(given, site, 0) == clocks.uniform(want, site, 0)
        assert clocks.first_arrival_value(given, site) == \
            clocks.first_arrival_value(want, site)
        assert clocks.gap(given, site, 3) == clocks.gap(want, site, 3)
        assert clocks.jumps_in(given, site, 0.0, 3.0) == clocks.jumps_in(want, site, 0.0, 3.0)
        assert clocks.derive_seed(given, 1) == clocks.derive_seed(want, 1)
        assert clocks.derive_seed(7, np.int64(1)) == clocks.derive_seed(7, 1)
        assert type(clocks.derive_seed(given, 1)) is int


def test_array_draws_leave_states_unchanged():
    # The fire loop draws several gaps from one state grid and from its
    # rows, so no draw may mix the states it reads in place.
    states = clocks.window_states(99, Window(-20, 20, 0, 9))
    kept = states.copy()
    for h in (states, states[0], states[:, 1::3]):
        for j in (0, 1, 7):
            clocks.gap_from_state(h, j)
            clocks._bits_from_state(h, j)
            assert np.array_equal(states, kept)


def _bits_windows():
    """Windows that cut ``first_arrival_bits``'s blocks every way: wider
    than one block, a row count that is no multiple of a block's rows, rows
    below l = 0, and small windows whose stacks share a block."""
    block = clocks._BLOCK_SITES
    rows = block // 97
    return [
        Window(-block // 2 - 3, block // 2 + 3, -1, 1),   # wider than a block
        Window(-48, 48, -rows - 5, 2 * rows),             # 3 blocks and a rest
        Window(-37, 41, -5, 23),
        Window(-(block // 6), 0, 0, 1),                   # 3 planes a block
    ] + FACTOR_WINDOWS


# Thresholds the ladder asks: t_c and just below it, the slice times of
# n = 16 ... 256, the xi-scan times and 0.
LADDER_TIMES = [T_C, math.nextafter(T_C, -math.inf), 0.0]
LADDER_TIMES += [EventParams(n).slice_time for n in (16, 32, 64, 128, 256)]
LADDER_TIMES += [T_C - g for g in (0.30, 0.22, 0.15, 0.10)]
LADDER_TIMES += [math.nextafter(t, -math.inf) for t in LADDER_TIMES[3:]]


@pytest.mark.parametrize("block", [None, 64])
def test_first_arrival_bits_match_state_chain(block, monkeypatch):
    # The blocked hash equals the whole-array chain bit for bit, for one
    # seed and for stacks, the empty one included; a block of 64 sites cuts
    # every window into many blocks.
    if block:
        monkeypatch.setattr(clocks, "_BLOCK_SITES", block)
    for window in _bits_windows():
        for seed in (2718, [0, 2**64 - 1, -3], [clocks.derive_seed(9, i) for i in range(7)], []):
            bits = clocks.first_arrival_bits(seed, window)
            want = clocks._bits_from_state(clocks.window_states(seed, window), 0)
            assert bits.dtype == np.uint64 and bits.shape == want.shape
            assert np.array_equal(bits, want)


def test_bits_threshold_matches_first_arrival_grid():
    # bits <= arrival_bound(t) is the float snapshot at every site, at the
    # ladder's thresholds and at random t.
    rng = np.random.default_rng(18)
    times = LADDER_TIMES + rng.uniform(0.0, 3.0, size=8).tolist()
    for window in _bits_windows()[:4]:
        for seed in (31, [5, 6, 7], []):
            bits = clocks.first_arrival_bits(seed, window)
            arrivals = clocks.first_arrival_grid(seed, window)
            for t in times:
                assert np.array_equal(bits <= clocks.arrival_bound(t), arrivals <= t), t


def _gaps_of_bits(bits):
    """``gap_from_state``'s array operations on 53-bit integers."""
    u = np.add(np.asarray(bits, dtype=np.uint64), 0.5) * 2.0 ** -53
    with np.errstate(divide="ignore"):
        return -np.log1p(-u)


def _unmix64(x):
    """The inverse of ``clocks.mix64``: each xorshift undone by repeating
    it, each product by the constant's inverse mod 2**64."""
    mask = clocks.MASK64
    for shift, mult in ((31, clocks.MIX_B), (27, clocks.MIX_A), (30, None)):
        y = x
        for _ in range(64 // shift):
            y = x ^ (y >> shift)
        x = y if mult is None else (y * pow(mult, -1, 1 << 64)) & mask
    return x


def test_gaps_of_bits_is_the_gap_of_every_path():
    # The array path from 53-bit integers to gaps equals gap_from_state on
    # states whose j-th draw has those integers, and the scalar
    # _gap_of_bits, bit for bit; the top integer's gap is +inf.
    rng = np.random.default_rng(53)
    bits = [0, 2**53 - 1] + rng.integers(0, 2**53, size=2000).tolist()
    low = rng.integers(0, 2**11, size=len(bits)).tolist()
    want = [clocks._gap_of_bits(b) for b in bits]
    assert want[1] == math.inf
    with np.errstate(divide="ignore"):
        got = clocks._gaps_of_bits(np.array(bits, dtype=np.uint64))
        assert got.tolist() == want
        for j in (0, 1, 5):
            states = [(_unmix64((b << 11) | r) - (j + 1) * clocks.GOLDEN) & clocks.MASK64
                      for b, r in zip(bits, low)]
            h = np.array(states, dtype=np.uint64)
            assert clocks._bits_from_state(h, j).tolist() == bits
            assert clocks.gap_from_state(h, j).tolist() == want
            assert [clocks.gap_from_state(x, j) for x in states[:200]] == want[:200]


def test_arrival_bound_band():
    # q = arrival_bound(t) is the last integer whose gap is <= t: the float
    # test holds on q and the 100 integers below it, and fails on the 100
    # above it.  Past that band the gap is farther from t than log1p's error.
    rng = np.random.default_rng(99)
    for t in LADDER_TIMES + rng.uniform(0.0, 3.0, size=20).tolist() + [1e-12, 40.0]:
        q = clocks.arrival_bound(t)
        assert -1 <= q < 2**53
        band = np.arange(max(q - 100, 0), min(q + 101, 2**53), dtype=np.uint64)
        assert np.array_equal(_gaps_of_bits(band) <= t, band <= q) if q >= 0 else \
            not (_gaps_of_bits(band) <= t).any()
    assert clocks.arrival_bound(0.0) == -1 and clocks.arrival_bound(-1.0) == -1


def test_top_hash_value_has_infinite_gap():
    # At m >> 11 = 2**53 - 1 the uniform rounds to 1.0 and the gap is +inf,
    # so no finite t occupies that site.
    top = 2**53 - 1
    assert (top + 0.5) * 2.0 ** -53 == 1.0
    assert _gaps_of_bits([top])[0] == math.inf
    assert clocks.arrival_bound(1e300) == top - 1
    assert clocks.arrival_bound(math.inf) == top


def test_occupation_probability_at_tc():
    # A site has a jump by t_c with probability exactly 1/2.
    window = Window(0, 999, 0, 999)
    arr = clocks.first_arrival_grid(31415, window)
    frac = float((arr <= T_C).mean())
    assert abs(frac - 0.5) < 0.002


def test_occupation_probability_short_horizon():
    window = Window(0, 999, 0, 999)
    arr = clocks.first_arrival_grid(91, window)
    frac = float((arr <= 0.1).mean())
    assert abs(frac - (-math.expm1(-0.1))) < 0.001


def test_first_arrival_horizon_and_realization():
    site = (4, 9)
    # The first arrival is the first jump, and a horizon below it holds none.
    t = clocks.first_arrival_value(777, site)
    assert clocks.jumps_in(777, site, 0.0, t + 1e-9)[0] == t
    assert clocks.jumps_in(777, site, 0.0, t / 2) == []


def test_jumps_strictly_increasing_and_positive():
    for i in range(200):
        js = clocks.jumps_in(55, (i, 2 * i + 1), 0.0, 5.0)
        assert all(t > 0.0 for t in js)
        assert all(a < b for a, b in zip(js, js[1:]))


def test_prefix_consistency():
    for i in range(300):
        site = (i % 17 - 8, i % 13)
        seed = 1000 + i
        a = clocks.jumps_in(seed, site, 0.0, 1.0)
        b = clocks.jumps_in(seed, site, 1.0, 2.0)
        c = clocks.jumps_in(seed, site, 0.0, 2.0)
        assert a + b == c


def test_zero_jump_probability_at_tc():
    # No jump in (0, t_c] happens with probability e^{-t_c} = 1/2; counts are
    # zero exactly when the first arrival misses the horizon.
    window = Window(0, 999, 0, 999)
    arr = clocks.first_arrival_grid(1618, window)
    frac = float((arr > T_C).mean())
    assert abs(frac - 0.5) < 0.002


def test_mean_jump_count():
    total = 0
    n = 100_000
    for i in range(n):
        total += len(clocks.jumps_in(40, (i % 1000, i // 1000), 0.0, 2.0))
    mean = total / n
    assert abs(mean - 2.0) < 0.02


def test_adjacent_site_count_correlation():
    # Jump counts over (0, t_c] for horizontally adjacent sites; eight gaps
    # bound the count: P[Poisson(log 2) > 8] < 1e-9.
    window = Window(0, 199_999, 0, 1)
    gaps = np.stack([-np.log1p(-uniform_grid(8888, window, j))
                     for j in range(8)])
    cum = np.cumsum(gaps, axis=0)
    counts = (cum <= T_C).sum(axis=0)
    a, b = counts[0].astype(np.float64), counts[1].astype(np.float64)
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.01


def test_interarrival_gaps_exponential_ks():
    window = Window(0, 99_999, 0, 0)
    gaps = -np.log1p(-uniform_grid(4242, window, 0)).ravel()
    stat, pvalue = stats.kstest(gaps, "expon")
    assert pvalue > 1e-3


def test_derive_seed_spreads():
    seeds = {clocks.derive_seed(1, i) for i in range(10_000)}
    assert len(seeds) == 10_000
    assert clocks.derive_seed(1, 5) != clocks.derive_seed(2, 5)


def test_jumps_in_validates_interval():
    with pytest.raises(ValueError):
        clocks.jumps_in(1, (0, 0), 1.0, 1.0)
    with pytest.raises(ValueError):
        clocks.jumps_in(1, (0, 0), -0.5, 1.0)


def test_streams_unbiased_at_extreme_keys():
    for seed, win in [(0, Window(-10**6, -10**6 + 999, 0, 999)),
                      (2**63, Window(10**7, 10**7 + 999, 0, 999)),
                      (-5, Window(-500, 499, -500, 499))]:
        arr = clocks.first_arrival_grid(seed, win)
        assert abs(float((arr <= T_C).mean()) - 0.5) < 0.003
    w = Window(-10**6, -10**6 + 10, 0, 10)
    g = uniform_grid(0, w, 0)
    assert clocks.uniform(0, (-10**6, 0), 0) == g[0, 0]
