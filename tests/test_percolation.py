import itertools
import math
import random

import numpy as np
import pytest

from firelab import clocks, invariants, percolation
from firelab.clocks import T_C
from firelab.estimators import EventParams
from firelab.lattice import (
    ConeRegion,
    RhombusSurface,
    TubeRegion,
    Window,
    embed,
    neighbors,
    seg_dist_sq_grid,
)
from firelab.percolation import (
    PAD,
    WindowTooSmallError,
    check_window,
    first_connection_time,
    is_connected,
    one_arm_indicators,
    window_for_cone,
    window_for_rhombus,
    window_for_tube,
)

PHI = math.pi / 3


def hand_config(window, occupied_sites):
    occ = np.zeros((window.n_rows, window.n_cols), dtype=bool)
    for s in occupied_sites:
        occ[window.index(s)] = True
    return occ


def test_configuration_t_zero_all_vacant():
    occ = clocks.first_arrival_grid(404, Window(-20, 20, 0, 20)) <= 0.0
    assert occ.mean() == 0.0


def test_configuration_density_at_tc():
    occ = clocks.first_arrival_grid(11, Window(-200, 199, 0, 249)) <= T_C
    assert abs(occ.mean() - 0.5) < 0.005


def test_configuration_density_log4():
    occ = clocks.first_arrival_grid(12, Window(-200, 199, 0, 249)) <= math.log(4.0)
    assert abs(occ.mean() - 0.75) < 0.005


def test_monotone_coupling_in_time():
    window = Window(-30, 30, 0, 30)
    occ1 = clocks.first_arrival_grid(99, window) <= 0.3
    occ2 = clocks.first_arrival_grid(99, window) <= 0.6
    assert not (occ1 & ~occ2).any()


def test_half_plane_window_above_row_zero():
    center = (0, 20)
    surface = RhombusSurface(center, 4, PHI)
    window = window_for_rhombus(center, 4, PHI, True)
    assert window == Window(-8, 8, 12, 28)
    t = first_connection_time(center, surface, window, seed=5)
    assert t == 0.2864108264024276
    arrivals = clocks.first_arrival_grid(5, window)
    assert is_connected(center, surface, window, arrivals <= t)
    assert not is_connected(center, surface, window,
                            arrivals <= math.nextafter(t, 0.0))


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


def _short_windows(window):
    """The window one column short on the left, one short on the right, and
    starting one row higher."""
    k0, k1, l0, l1 = window.k_min, window.k_max, window.l_min, window.l_max
    return [Window(k0 + 1, k1, l0, l1), Window(k0, k1 - 1, l0, l1),
            Window(k0, k1, l0 + 1, l1)]


@pytest.mark.parametrize("phi", [PHI, 0.25, 1.2])
def test_window_check_takes_the_targets_own_window(phi):
    # A query window must contain the target's own window: a rhombus's
    # window_for_rhombus, a cone's window_for_cone up to the query's top
    # row.  Each is accepted as it is and refused one column short on
    # either side or starting a row above its own.
    for n, half_plane in itertools.product((1, 4, 13), (True, False)):
        surface = RhombusSurface((2, 3), n, phi)
        window = window_for_rhombus((2, 3), n, phi, half_plane)
        check_window(window, surface, half_plane)
        for short in _short_windows(window):
            with pytest.raises(WindowTooSmallError):
                check_window(short, surface, half_plane)
    for x, l_top in itertools.product((0.0, 2.5, -3.2), (1, 8, 17, 64)):
        cone = ConeRegion(x, phi)
        window = window_for_cone(cone, l_top)
        assert (window.l_min, window.l_max) == (0, l_top)
        for half_plane in (True, False):
            check_window(window, cone, half_plane)
            for short in _short_windows(window):
                with pytest.raises(WindowTooSmallError):
                    check_window(short, cone, half_plane)


@pytest.mark.parametrize("phi", [0.2, PHI, 1.2, 2.5])
def test_tube_window_holds_the_tube_band(phi):
    # window_for_tube holds every site of rows 0..l_top within 0.5 + 1 +
    # PAD of the tube's centreline; check_window accepts it as it is and
    # refuses it one column short on either side or a row above its own.
    for x, l_top in itertools.product((0.0, 2.5, -3.2), (1, 8, 17, 64)):
        tube = TubeRegion(x, phi)
        window = window_for_tube(tube, l_top)
        assert (window.l_min, window.l_max) == (0, l_top)
        big = Window(window.k_min - 40, window.k_max + 40, 0, l_top)
        # Distance of every site of ``big`` to the centreline half-line.
        X, Y = big.coord_grids()
        ux, uy = math.cos(phi), math.sin(phi)
        t = np.maximum((X - x) * ux + Y * uy, 0.0)
        rows, cols = np.nonzero(np.hypot(X - x - t * ux, Y - t * uy) <= 0.5 + 1.0 + PAD)
        assert rows.size and all(window.contains(big.site(r, c))
                                 for r, c in zip(rows.tolist(), cols.tolist()))
        check_window(window, tube, True)
        for short in _short_windows(window):
            with pytest.raises(WindowTooSmallError):
                check_window(short, tube, True)


def _enlarged(window, half_plane, by=4):
    """The window with ``by`` more sites on every side, l_min clamped at 0
    on the half plane."""
    l_min = window.l_min - by
    return Window(window.k_min - by, window.k_max + by,
                  max(l_min, 0) if half_plane else l_min, window.l_max + by)


def _dist_to_clipped_rhombus(surface, window, half_plane):
    """Euclidean distance from each window site to the rhombus region,
    clipped to y >= 0 on the half plane: 0 inside, else the distance to
    the polygon through the clipped surface's segment ends."""
    X, Y = window.coord_grids()
    cx, cy = embed(surface.center)
    v = (Y - cy) / math.sin(surface.phi)
    u = (X - cx) - v * math.cos(surface.phi)
    inside = (np.abs(u) <= surface.n) & (np.abs(v) <= surface.n)
    if half_plane:
        inside &= Y >= 0.0
    ends = [p for ax, ay, bx, by in surface.segments(half_plane)
            for p in ((ax, ay), (bx, by))]
    d2 = np.full(X.shape, np.inf)
    for (ax, ay), (bx, by) in zip(ends, ends[1:] + ends[:1]):
        d2 = np.minimum(d2, seg_dist_sq_grid(X, Y, ax, ay, bx, by))
    return np.where(inside, 0.0, np.sqrt(d2))


@pytest.mark.parametrize("phi", [0.25, PHI, 1.2])
def test_rhombus_window_is_exact(phi):
    # window_for_rhombus is the axial box of the clipped rhombus widened
    # by 1 + PAD: it holds every site within 1 + PAD of the rhombus, and
    # every query on it answers as on a window 4 sites larger all round.
    answers = set()
    for n, half, where in itertools.product((2, 5, 16), (True, False),
                                            ("origin", "(2, 3)", "w")):
        center = {"origin": (0, 0), "(2, 3)": (2, 3),
                  "w": EventParams(n).w_site}[where]
        surface = RhombusSurface(center, n, phi)
        window = window_for_rhombus(center, n, phi, half)
        big = _enlarged(window, half)
        near = _dist_to_clipped_rhombus(surface, big, half) <= 1.0 + PAD
        rows, cols = np.nonzero(near)
        assert all(window.contains(big.site(r, c)) for r, c in zip(rows, cols))
        for i in range(6):
            seed = clocks.derive_seed(5150, 100 * n + i)
            small_arrivals = clocks.first_arrival_grid(seed, window)
            big_arrivals = clocks.first_arrival_grid(seed, big)
            for t in (T_C - 0.2, T_C):
                want = is_connected(center, surface, big, big_arrivals <= t, half)
                assert is_connected(center, surface, window,
                                    small_arrivals <= t, half) == want
                if center == (0, 0):
                    assert one_arm_indicators(n, t, phi, [seed], half)[0] == want
                else:
                    query = percolation._ladder_query(surface, [seed], half)
                    assert bool(query(t)[0]) == want
                answers.add(want)
            assert first_connection_time(center, surface, window, seed, half) == \
                first_connection_time(center, surface, big, seed, half)
    assert answers == {True, False}


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


@pytest.mark.parametrize("wrong", ["negated", "one step late"])
def test_connection_check_catches_a_wrong_ladder_answer(monkeypatch, wrong):
    # verify's first-connection check asks the event sampler's threshold
    # queries too: a ladder that answers "T <= t" wrongly, everywhere or
    # only at T itself, fails the check.
    ladder_query = percolation._ladder_query

    def broken(surface, seeds, half_plane):
        query = ladder_query(surface, seeds, half_plane)
        if wrong == "negated":
            return lambda t: ~query(t)
        return lambda t: query([math.nextafter(s, -math.inf) for s in t])

    cases = [(clocks.derive_seed(6, 70_000 + i), 3 + i % 3) for i in range(40)]
    assert invariants.connection_failures(cases, PHI) == []
    monkeypatch.setattr(percolation, "_ladder_query", broken)
    failures = invariants.connection_failures(cases, PHI)
    assert failures and all("ladder query" in f for f in failures)


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
    assert not one_arm_indicators(4, 0.0, PHI, [3])[0]
    # A NaN time is no time in [0, inf): both engines reject it.
    for engine in ("grid", "walk"):
        with pytest.raises(ValueError):
            one_arm_indicators(4, math.nan, 1.0, [1, 2, 3], engine=engine)


def test_one_arm_tiny_rhombus_large_time():
    # At t = 20 each neighbor is vacant with probability e^{-20}.
    for i in range(200):
        assert one_arm_indicators(1, 20.0, PHI, [clocks.derive_seed(83, i)])[0]


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
    first_arrival_bits = clocks.first_arrival_bits

    def recording(seed, window):
        hashed[-1].append(window)
        return first_arrival_bits(seed, window)

    monkeypatch.setattr(clocks, "first_arrival_bits", recording)
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
                got = one_arm_indicators(n, t, phi, [seed], half, engine="grid")[0]
                occ = clocks.first_arrival_grid(seed, window) <= t
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
    first_arrival_bits = clocks.first_arrival_bits

    def recording(seed, window):
        hashed.append(window)
        return first_arrival_bits(seed, window)

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
            arrivals = clocks.first_arrival_grid(seed, window)
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
                m.setattr(clocks, "first_arrival_bits", recording)
                query = percolation._ladder_query(surface, [seed], half)
                assert [bool(query(t)[0]) for t in thresholds] == want
            assert len(hashed) == len(set(hashed))
            flips += any(want) and not all(want)
    assert flips >= 10


def test_ladder_query_per_seed_thresholds(monkeypatch):
    # One threshold per seed, mixing t_c-, t_slice- and j_last- with NaN,
    # zero and negative entries, answers as a one-seed query per seed at a
    # single time; the entries that hold no site hash nothing, and across
    # a query's calls these seeds are hashed again on a rung only when the
    # stack they were first hashed in was too large to keep.
    hashed = []
    first_arrival_bits = clocks.first_arrival_bits

    def recording(seed, window):
        bits = first_arrival_bits(seed, window)
        hashed.extend((s, window, bits.size) for s in
                      (seed if isinstance(seed, list) else [seed]))
        return bits

    def before(t):
        return math.nextafter(t, -math.inf)

    rng = random.Random(9)
    for n in (8, 16, 32):
        params = EventParams(n)
        surface = params.surface()
        seeds = [clocks.derive_seed(6161, 1000 * n + i) for i in range(60)]
        j_lasts = [(clocks.jumps_in(s, params.w_site, 0.0, T_C) or [math.nan])[-1]
                   for s in seeds]
        rounds = [[before(T_C)] * len(seeds),
                  [before(params.slice_time)] * len(seeds),
                  [before(j) for j in j_lasts]]
        rounds.append([rng.choice((before(T_C), before(params.slice_time), before(j),
                                   math.nan, 0.0, -1.0))
                       for j in j_lasts])
        wants = [[bool(percolation._ladder_query(surface, [s], True)(t)[0])
                  for s, t in zip(seeds, ts)] for ts in rounds]
        assert {True, False} <= set(itertools.chain(*wants)), n
        with monkeypatch.context() as m:
            m.setattr(clocks, "first_arrival_bits", recording)
            hashed.clear()
            query = percolation._ladder_query(surface, seeds, True)
            for ts, want in zip(rounds[:3], wants):
                assert query(ts).tolist() == want, n
            first = {}  # the size of the stack a seed was first hashed in
            for s, window, size in hashed:
                if (s, window) in first:
                    assert first[s, window] > percolation.KEEP_SITES, n
                first.setdefault((s, window), size)
            if n == 8:  # one rung, one stack of 60 x 325 sites, kept
                assert len(hashed) == len(seeds)
            hashed.clear()
            query = percolation._ladder_query(surface, seeds, True)
            assert query(rounds[3]).tolist() == wants[3], n
            skipped = {s for s, t in zip(seeds, rounds[3]) if not t > 0}
            assert skipped and not skipped & {s for s, _, _ in hashed}, n
            hashed.clear()
            query = percolation._ladder_query(surface, seeds, True)
            assert not query([math.nan, 0.0, -1.0] * 20).any()
            assert hashed == []


def test_cached_geometry_arrays_are_read_only():
    # target_mask and _ladder are cached per query geometry, so a write into
    # one of their arrays would change every later query of that geometry.
    from firelab.estimators import event_a_window
    params = EventParams(16)
    win = event_a_window(params)
    rhombus = RhombusSurface((0, 0), 64, PHI)
    arrays = [percolation.target_mask(window_for_rhombus((0, 0), 64, PHI, True),
                                      rhombus, True),
              percolation.target_mask(win, params.cone(), True)]
    for rungs in (percolation._ladder(rhombus, True),
                  percolation._ladder(params.surface(), True, params.cone(),
                                      Window(win.k_min, win.k_max, 1, win.l_max))):
        assert len(rungs) > 1
        for _, starts, watched, _ in rungs:
            arrays += [starts, watched]
    for array in arrays:
        assert array.size
        with pytest.raises(ValueError):
            array.flat[0] = array.flat[0]


def _hex_boards(L, seeds):
    """L x L Hex boards at t_c, one plane per seed: every site occupied
    with probability exactly 1/2 (up to 1e-16)."""
    return (clocks.first_arrival_bits(list(seeds), Window(0, L - 1, 0, L - 1))
            <= clocks.arrival_bound(T_C))


def _hex_sides(L):
    """The left column and the bottom row as start index arrays, and the
    right column and the top row as band masks, of an L x L board."""
    idx, zero = np.arange(L), np.zeros(L, dtype=np.intp)
    right, top = np.zeros((L, L), dtype=bool), np.zeros((L, L), dtype=bool)
    right[:, -1] = top[-1] = True
    return np.stack((idx, zero)), right, np.stack((zero, idx)), top


def test_hex_boards_have_exactly_one_crossing():
    # The Hex theorem (Gale 1979): on an axial L x L board with the six
    # neighbours of the triangular lattice, exactly one of an occupied
    # left-right crossing and a vacant bottom-top crossing exists.  This
    # checks the neighbour structure and the labelling at every size.
    seen = set()
    for L, count in ((8, 150), (16, 100), (64, 60), (256, 12)):
        left, right, bottom, top = _hex_sides(L)
        seeds = [clocks.derive_seed(7, 1000 * L + i) for i in range(count)]
        for i, occ in enumerate(_hex_boards(L, seeds)):
            across = percolation._connects(occ, left, right)
            up = percolation._connects(~occ, bottom, top)
            assert across != up, (L, i)
            seen.add(across)
    assert seen == {True, False}


def test_hex_left_right_crossing_has_probability_one_half():
    # At p = 1/2 the board is symmetric under k <-> l with occupied <->
    # vacant, so P(left-right) is exactly 1/2 at every L.  4,000 boards at
    # L = 64 give SE 0.0079; the band is 3.5 SE.
    L, samples = 64, 4000
    left, right, _, _ = _hex_sides(L)
    seeds = [clocks.derive_seed(31337, i) for i in range(samples)]
    hits = 0
    for g in range(0, samples, 64):
        labels, is_start = percolation._start_clusters(_hex_boards(L, seeds[g:g + 64]), left)
        hits += int(is_start[labels[:, :, -1]].any(axis=1).sum())
    assert abs(hits / samples - 0.5) < 3.5 * math.sqrt(0.25 / samples), hits


def test_half_plane_implies_full_plane_samplewise():
    # Same seed: a half-plane connection path also exists in the full plane.
    for i in range(300):
        seed = clocks.derive_seed(71, i)
        if one_arm_indicators(4, T_C, PHI, [seed], half_plane=True)[0]:
            assert one_arm_indicators(4, T_C, PHI, [seed], half_plane=False)[0]
