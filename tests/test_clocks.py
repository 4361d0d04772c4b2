import math

import numpy as np
import pytest
from scipy import stats

from firelab import clocks
from firelab.clocks import T_C
from firelab.lattice import Window


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
        grid = clocks.uniform_grid(2718, window, j)
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
        states = clocks.site_state(seed, (ks, ls))
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
    gaps = np.stack([-np.log1p(-clocks.uniform_grid(8888, window, j))
                     for j in range(8)])
    cum = np.cumsum(gaps, axis=0)
    counts = (cum <= T_C).sum(axis=0)
    a, b = counts[0].astype(np.float64), counts[1].astype(np.float64)
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.01


def test_interarrival_gaps_exponential_ks():
    window = Window(0, 99_999, 0, 0)
    gaps = -np.log1p(-clocks.uniform_grid(4242, window, 0)).ravel()
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
    g = clocks.uniform_grid(0, w, 0)
    assert clocks.uniform(0, (-10**6, 0), 0) == g[0, 0]
