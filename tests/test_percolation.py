import itertools
import math
import random

import numpy as np
import pytest

from firelab import clocks, invariants, percolation
from firelab.clocks import T_C
from firelab.estimators import EventParams
from firelab.lattice import RhombusSurface, Window, neighbors
from firelab.percolation import (
    WindowTooSmallError,
    check_window,
    first_connection_time,
    is_connected,
    one_arm_indicator,
    sample_configuration,
    window_for_rhombus,
)

PHI = math.pi / 3


def hand_config(window, occupied_sites):
    occ = np.zeros((window.n_rows, window.n_cols), dtype=bool)
    for s in occupied_sites:
        occ[window.index(s)] = True
    return occ


def test_configuration_t_zero_all_vacant():
    occ = sample_configuration(Window(-20, 20, 0, 20), 0.0, 404)
    assert occ.mean() == 0.0


def test_configuration_density_at_tc():
    occ = sample_configuration(Window(-200, 199, 0, 249), T_C, 11)
    assert abs(occ.mean() - 0.5) < 0.005


def test_configuration_density_log4():
    occ = sample_configuration(Window(-200, 199, 0, 249), math.log(4.0), 12)
    assert abs(occ.mean() - 0.75) < 0.005


def test_monotone_coupling_in_time():
    window = Window(-30, 30, 0, 30)
    occ1 = sample_configuration(window, 0.3, 99)
    occ2 = sample_configuration(window, 0.6, 99)
    assert not (occ1 & ~occ2).any()


def test_half_plane_window_above_row_zero():
    # sample_configuration accepts every half-plane window check_window
    # accepts: those with no row below l = 0.
    center = (0, 20)
    surface = RhombusSurface(center, 4, PHI)
    window = window_for_rhombus(center, 4, PHI, True)
    assert window == Window(-13, 19, 12, 28)
    t = first_connection_time(center, surface, window, seed=5)
    assert t == 0.2864108264024276
    assert is_connected(center, surface, window, sample_configuration(window, t, 5))
    below = sample_configuration(window, math.nextafter(t, 0.0), 5)
    assert not is_connected(center, surface, window, below)
    with pytest.raises(ValueError):
        sample_configuration(Window(-13, 19, -1, 28), t, 5)


def test_is_connected_all_vacant():
    window = window_for_rhombus((0, 0), 3, PHI, True)
    occ = hand_config(window, [])
    assert not is_connected((0, 0), RhombusSurface((0, 0), 3, PHI), window, occ)


def test_is_connected_all_occupied():
    window = window_for_rhombus((0, 0), 3, PHI, True)
    occ = hand_config(window, list(window.sites()))
    assert is_connected((0, 0), RhombusSurface((0, 0), 3, PHI), window, occ)


def test_is_connected_ignores_own_state():
    window = window_for_rhombus((0, 0), 2, PHI, True)
    # Straight occupied ray to the surface, origin itself vacant.
    path = [(k, 1) for k in range(0, 4)]
    occ = hand_config(window, path)
    assert is_connected((0, 0), RhombusSurface((0, 0), 2, PHI), window, occ)


def test_window_too_small_raises():
    surface = RhombusSurface((0, 0), 5, PHI)
    small = Window(-4, 4, 0, 3)
    occ = hand_config(small, [])
    with pytest.raises(WindowTooSmallError):
        is_connected((0, 0), surface, small, occ)
    with pytest.raises(WindowTooSmallError):
        first_connection_time((0, 0), surface, small, seed=1)


def test_window_check_rejects_cut_rows():
    # A full-plane query needs the rows below l = 0 that its target band
    # reaches; a half-plane query must not run paths through any of them.
    surface = RhombusSurface((0, 0), 4, PHI)
    for half_plane in (True, False):
        check_window(window_for_rhombus((0, 0), 4, PHI, half_plane), surface, half_plane)
    cut = Window(-13, 13, 0, 8)
    with pytest.raises(WindowTooSmallError):
        is_connected((0, 0), surface, cut, hand_config(cut, cut.sites()), half_plane=False)
    below = Window(-17, 15, -6, 8)
    with pytest.raises(WindowTooSmallError):
        first_connection_time((0, 0), surface, below, seed=clocks.derive_seed(9, 0))


def _brute_force_connected(w, target, window, occ, half_plane=True):
    """Exhaustive DFS over all simple 1-paths from neighbors of w."""
    from firelab.percolation import target_mask
    tmask = target_mask(window, target, half_plane)
    starts = [y for y in neighbors(w)
              if window.contains(y) and occ[window.index(y)]
              and (not half_plane or y[1] >= 0)]

    def dfs(site, visited):
        if tmask[window.index(site)]:
            return True
        for v in neighbors(site):
            if v in visited or not window.contains(v):
                continue
            if half_plane and v[1] < 0:
                continue
            if not occ[window.index(v)]:
                continue
            if dfs(v, visited | {v}):
                return True
        return False

    return any(dfs(y, {y}) for y in starts)


def test_is_connected_matches_brute_force():
    window = window_for_rhombus((0, 0), 2, PHI, True)
    rng = random.Random(5)
    surface = RhombusSurface((0, 0), 2, PHI)
    for _ in range(60):
        sites = [s for s in window.sites() if rng.random() < 0.45]
        occ = hand_config(window, sites)
        assert is_connected((0, 0), surface, window, occ) == \
            _brute_force_connected((0, 0), surface, window, occ)


def _brute_force_bottleneck(w, target, window, seed, t_max):
    """Minimax over all simple paths, by exhaustive DFS on arrival values."""
    from firelab.percolation import target_mask
    arrivals = clocks.first_arrival_grid(seed, window)
    tmask = target_mask(window, target, True)
    best = [math.inf]

    def dfs(site, visited, cur_max):
        if cur_max >= best[0]:
            return
        if tmask[window.index(site)]:
            best[0] = cur_max
            return
        for v in neighbors(site):
            if v in visited or not window.contains(v) or v[1] < 0:
                continue
            a = arrivals[window.index(v)]
            if a > t_max:
                continue
            dfs(v, visited | {v}, max(cur_max, a))

    for y in neighbors(w):
        if window.contains(y) and y[1] >= 0:
            a = arrivals[window.index(y)]
            if a <= t_max:
                dfs(y, {y}, a)
    return None if best[0] is math.inf else best[0]


def test_first_connection_time_matches_path_enumeration():
    surface = RhombusSurface((0, 0), 2, PHI)
    window = window_for_rhombus((0, 0), 2, PHI, True)
    for i in range(40):
        seed = clocks.derive_seed(23, i)
        got = first_connection_time((0, 0), surface, window, seed)
        want = _brute_force_bottleneck((0, 0), surface, window, seed, T_C)
        assert got == want


def test_first_connection_time_matches_definitional_recompute():
    # Recompute by full relabeling at every candidate arrival time.
    cases = [(clocks.derive_seed(29, i), 3) for i in range(1000)]
    assert invariants.connection_failures(cases, PHI) == []


def test_first_connection_single_site_path():
    # Make the target band reach a neighbor of w: n = 1 puts the surface
    # within distance 1 of the origin's neighbors.
    surface = RhombusSurface((0, 0), 1, PHI)
    window = window_for_rhombus((0, 0), 1, PHI, True)
    for i in range(50):
        seed = clocks.derive_seed(31, i)
        got = first_connection_time((0, 0), surface, window, seed)
        arrivals = {y: clocks.first_arrival_value(seed, y)
                    for y in neighbors((0, 0)) if y[1] >= 0}
        from firelab.percolation import target_mask
        tmask = target_mask(window, surface, True)
        eligible = [a for y, a in arrivals.items()
                    if a <= T_C and tmask[window.index(y)]]
        if eligible:
            assert got == min(eligible)


def test_first_connection_minimality():
    surface = RhombusSurface((0, 0), 3, PHI)
    window = window_for_rhombus((0, 0), 3, PHI, True)
    checked = 0
    for i in range(200):
        seed = clocks.derive_seed(37, i)
        t = first_connection_time((0, 0), surface, window, seed)
        if t is None:
            continue
        arrivals = clocks.first_arrival_grid(seed, window)
        assert is_connected((0, 0), surface, window, arrivals <= t)
        for frac in (0.25, 0.5, 0.9, 0.999):
            tp = t * frac
            assert not is_connected((0, 0), surface, window, arrivals <= tp)
        checked += 1
        if checked >= 30:
            break
    assert checked >= 10


def test_one_arm_t_zero_false():
    assert not one_arm_indicator(4, 0.0, PHI, seed=3)


def test_one_arm_tiny_rhombus_large_time():
    # At t = 20 each neighbor is vacant with probability e^{-20}.
    for i in range(200):
        assert one_arm_indicator(1, 20.0, PHI, seed=clocks.derive_seed(83, i))


def test_one_arm_engines_agree():
    rng = random.Random(1)
    cases = []
    for i in range(250):
        n = rng.randint(2, 8)
        t = rng.uniform(0.2, T_C)
        half = rng.random() < 0.7
        cases.append((clocks.derive_seed(63, i), n, t, half))
    assert invariants.engine_failures(cases, PHI) == []


def test_one_arm_ladder_matches_full_window(monkeypatch):
    # The grid engine decides on nested sub-windows; its indicator must be
    # is_connected on the full window's snapshot.  Every window it hashes
    # is recorded, so that samples decided on a sub-rung and samples that
    # reach the full window both provably occur.
    hashed = []
    first_arrival_grid = clocks.first_arrival_grid

    def recording(seed, window):
        hashed[-1].append(window)
        return first_arrival_grid(seed, window)

    monkeypatch.setattr(clocks, "first_arrival_grid", recording)
    seen = set()
    # At phi = pi/3 the target band lies outside every sub-rung, so only
    # the flat rhombi of phi = 0.25 can decide True below the full window.
    for phi, n, half in itertools.product((PHI, 0.25), (16, 32, 64, 128), (True, False)):
        surface = RhombusSurface((0, 0), n, phi)
        window = window_for_rhombus((0, 0), n, phi, half)
        for t in (T_C - 0.3, T_C - 0.1, T_C):
            for i in range(8):
                seed = clocks.derive_seed(97, 1000 * n + i)
                hashed.append([])
                got = one_arm_indicator(n, t, phi, seed, half, engine="grid")
                occ = first_arrival_grid(seed, window) <= t
                assert got == is_connected((0, 0), surface, window, occ, half)
                for sub in hashed[-1]:
                    assert (window.k_min <= sub.k_min and sub.k_max <= window.k_max
                            and window.l_min <= sub.l_min and sub.l_max <= window.l_max)
                seen.add((got, hashed[-1][-1] == window))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}, seen


def _start_cluster_times(center, surface, window, arrivals, half):
    """Arrival times of the sites in the t_c clusters of the centre's
    occupied neighbours: the times at which a connection can appear."""
    starts, _ = percolation._query(center, surface, window, half)
    labels, is_start = percolation._start_clusters(arrivals <= T_C, starts)
    return np.unique(arrivals[is_start[labels]])


@pytest.mark.parametrize("where", ["origin", "w"])
def test_ladder_query_thresholds_match_full_snapshot(where, monkeypatch):
    # One query of one seed answers many thresholds, asked in a shuffled
    # order; each answer is is_connected on the full snapshot at that time,
    # and each window of the ladder is hashed at most once per query.
    hashed = []
    first_arrival_grid = clocks.first_arrival_grid

    def recording(seed, window):
        hashed.append(window)
        return first_arrival_grid(seed, window)

    rng = random.Random(5)
    flips = 0
    for n, phi, half in itertools.product((8, 16, 32), (PHI, 0.25), (True, False)):
        if where == "w" and not half:
            continue
        center = (0, 0) if where == "origin" else EventParams(n).w_site
        surface = RhombusSurface(center, n, phi)
        window = window_for_rhombus(center, n, phi, half)
        slice_time = EventParams(n).slice_time
        for i in range(10):
            seed = clocks.derive_seed(4141, 1000 * n + i)
            arrivals = first_arrival_grid(seed, window)
            times = _start_cluster_times(center, surface, window, arrivals, half)
            picks = [float(times[j]) for j in
                     np.linspace(0, times.size - 1, min(times.size, 8)).astype(int)]
            t_first = first_connection_time(center, surface, window, seed, half)
            if t_first is not None:
                picks.append(t_first)
            picks += [slice_time, T_C]
            thresholds = picks + [math.nextafter(t, -math.inf) for t in picks]
            rng.shuffle(thresholds)
            want = [is_connected(center, surface, window, arrivals <= t, half)
                    for t in thresholds]
            hashed.clear()
            with monkeypatch.context() as m:
                m.setattr(clocks, "first_arrival_grid", recording)
                query = percolation._ladder_query(surface, window, [seed], half)
                assert [bool(query(t)[0]) for t in thresholds] == want
            assert len(hashed) == len(set(hashed))
            flips += any(want) and not all(want)
    assert flips >= 10


def test_half_plane_implies_full_plane_samplewise():
    # Same seed: a half-plane connection path also exists in the full plane.
    for i in range(300):
        seed = clocks.derive_seed(71, i)
        if one_arm_indicator(4, T_C, PHI, seed, half_plane=True):
            assert one_arm_indicator(4, T_C, PHI, seed, half_plane=False)
