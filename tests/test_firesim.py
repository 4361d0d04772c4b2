import dataclasses
import math
from collections import defaultdict

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from firelab import clocks, firesim, invariants
from firelab.clocks import T_C
from firelab.firesim import (
    DestructionRecord,
    FireCell,
    UncertifiedCellError,
    decompose_cells,
    height_bracket,
    height_of_destruction,
    reconstruct_occupancy,
    run,
    run_cell,
)
from firelab.lattice import ConeRegion, Window, outer_boundary

PHI = math.pi / 3
SQ3 = math.sqrt(3.0)


def destruction_free_probability(t_end: float) -> float:
    """Master equation for one site growing at rate 1, killed at rate 2;
    destruction is absorbing for accounting purposes."""

    def rhs(_t, q):
        q0, q1 = q
        return [-q0, q0 - 2.0 * q1]

    sol = solve_ivp(rhs, (0.0, t_end), [1.0, 0.0], rtol=1e-10, atol=1e-12)
    q0, q1 = sol.y[:, -1]
    return 1.0 - (q0 + q1)


def test_two_state_oracle_closed_form():
    # The ODE solution matches (1 - e^{-t})^2.
    for t in (0.2, 0.5, T_C):
        assert destruction_free_probability(t) == pytest.approx(
            (1.0 - math.exp(-t)) ** 2, abs=1e-8)


def test_single_interior_site_destruction_probability():
    seeds = (clocks.derive_seed(606, i) for i in range(20_000))
    _, failures = invariants.two_state_check(
        seeds, destruction_free_probability(T_C), 3.0)
    assert failures == []


def test_no_boundary_ring_means_pure_growth():
    window = Window(-4, 4, 0, 4)
    t_end = 0.05
    checked = 0
    for i in range(400):
        seed = clocks.derive_seed(52, i)
        ring = any(clocks.jumps_in(seed, (k, 0), 0.0, t_end)
                   for k in range(-4, 5))
        if ring:
            continue
        state, records = run(window, seed, t_end)
        assert records == []
        arrivals = clocks.first_arrival_grid(seed, window)
        sigma = arrivals <= t_end
        sigma[0, :] = False  # boundary row is held vacant in the fire process
        assert (state.occ.astype(bool) == sigma).all()
        checked += 1
    assert checked > 50


def test_run_rejects_bad_horizon():
    with pytest.raises(ValueError):
        run(Window(-2, 2, 0, 2), 1, t_end=T_C + 0.01)
    with pytest.raises(ValueError):
        run(Window(-2, 2, 0, 2), 1, t_end=0.0)
    with pytest.raises(ValueError):
        run(Window(-2, 2, 1, 3), 1)  # not a half-plane window


def test_run_deterministic():
    window = Window(-6, 6, 0, 5)
    s1, r1 = run(window, 2024, T_C)
    s2, r2 = run(window, 2024, T_C)
    assert (s1.occ == s2.occ).all()
    assert len(r1) == len(r2)
    for a, b in zip(r1, r2):
        assert a.time == b.time and a.ignition == b.ignition
        assert (a.sites == b.sites).all()


def test_invariant_suite():
    """Domination, boundary vacancy, growth and destruction provenance."""
    window = Window(-8, 8, 0, 7)
    for i in range(120):
        seed = clocks.derive_seed(2001, i)
        for t_end in (T_C, 0.5):
            probes = [t_end * frac for frac in (0.2, 0.5, 0.8)]
            assert invariants.fire_run_failures(window, seed, t_end, probes) == []


def test_fire_log_checker_reports_corrupted_logs():
    window = Window(-8, 8, 0, 7)
    seed = clocks.derive_seed(2002, 0)
    state, records = run(window, seed, T_C, collect_events=True)
    assert records
    assert invariants.fire_log_failures(state, records, seed) == []

    # A grow event moved off its clock jump.
    events = list(state.events)
    g = next(i for i, ev in enumerate(events) if ev.kind == "grow")
    moved = dataclasses.replace(events[g], time=events[g].time * (1.0 - 1e-9))
    events[g] = moved
    got = invariants.fire_log_failures(
        dataclasses.replace(state, events=events), records, seed)
    assert got == [f"growth without a clock jump at {moved.site}"]

    # A destroyed site left vacant just before its record: drop its last
    # grow event before the record.
    rec = records[0]
    site = (int(rec.sites[0, 0]), int(rec.sites[0, 1]))
    g = max(i for i, ev in enumerate(state.events)
            if ev.kind == "grow" and ev.site == site and ev.time < rec.time)
    events = state.events[:g] + state.events[g + 1:]
    got = invariants.fire_log_failures(
        dataclasses.replace(state, events=events), records, seed)
    assert got == [f"destroyed site {site} was vacant at t={rec.time:.6f}"]

    # A ring dropped from the log.
    r = next(i for i, ev in enumerate(state.events) if ev.kind == "ring")
    ring = state.events[r]
    events = state.events[:r] + state.events[r + 1:]
    got = invariants.fire_log_failures(
        dataclasses.replace(state, events=events), records, seed)
    assert got == [f"ring at {ring.site} t={ring.time:.6f} logged 0 times "
                   f"for 1 clock jumps"]

    # A regrowth moved to the next jump of its clock, with no fire in
    # between that would find the site vacant.  Such a regrowth is rare on
    # this window, so search the seeds for one.
    def movable_regrowth(seed, state, records):
        def burns(site, t0, t1):
            return any(t0 < rec.time < t1
                       and site in set(map(tuple, rec.sites.tolist()))
                       for rec in records)

        for g, ev in enumerate(state.events):
            later = clocks.jumps_in(seed, ev.site, ev.time, T_C)
            if ev.kind == "grow" and later and burns(ev.site, 0.0, ev.time) \
                    and not burns(ev.site, ev.time, later[0]):
                return g, later[0]
        return None

    for i in range(100):
        seed = clocks.derive_seed(2002, i)
        state, records = run(window, seed, T_C, collect_events=True)
        found = movable_regrowth(seed, state, records)
        if found is not None:
            break
    assert found is not None
    g, nxt = found
    ev = state.events[g]
    events = list(state.events)
    events[g] = dataclasses.replace(ev, time=nxt)
    assert invariants.fire_log_failures(state, records, seed) == []
    got = invariants.fire_log_failures(
        dataclasses.replace(state, events=events), records, seed)
    assert got == [f"destroyed site {ev.site} did not regrow at t={ev.time:.6f}"]


def test_destroyed_sites_regrow():
    window = Window(-6, 6, 0, 5)
    seen_regrowth = False
    for i in range(100):
        seed = clocks.derive_seed(41, i)
        state, records = run(window, seed, T_C)
        for rec in records:
            for k, l in rec.sites:
                site = (int(k), int(l))
                if clocks.jumps_in(seed, site, rec.time, T_C) and \
                        state.occupied(site):
                    seen_regrowth = True
        if seen_regrowth:
            break
    assert seen_regrowth


def test_height_of_destruction_empty_log():
    assert height_of_destruction([], ConeRegion(0.0, PHI)) == 0.0


def test_height_of_destruction_single_record():
    rec = DestructionRecord(0.5, (2, 0), np.array([[2, 3]], dtype=np.int64))
    cone = ConeRegion(0.0, PHI)
    # (2,3) embeds to x=3.5, y=3*sqrt(3)/2; inside a wide cone around x=3.5.
    wide = ConeRegion(3.5, 0.2)
    assert height_of_destruction([rec], wide, t=0.6) == pytest.approx(3 * SQ3 / 2)
    assert height_of_destruction([rec], wide, t=0.4) == 0.0
    assert height_of_destruction([rec], cone, t=0.6) == 0.0  # outside


def test_height_monotone_in_time_and_region():
    window = Window(-10, 10, 0, 8)
    cone_narrow = ConeRegion(0.0, 1.3)
    cone_wide = ConeRegion(0.0, 0.4)
    for i in range(40):
        _, records = run(window, clocks.derive_seed(808, i), T_C)
        hs = [height_of_destruction(records, cone_narrow, t)
              for t in (0.2, 0.4, 0.6, T_C)]
        assert hs == sorted(hs)
        assert height_of_destruction(records, cone_narrow, T_C) <= \
            height_of_destruction(records, cone_wide, T_C)


def _find_seed(window, predicate, start=0, tries=40_000):
    for i in range(start, start + tries):
        seed = clocks.derive_seed(13131, i)
        if predicate(seed):
            return seed
    raise AssertionError("no seed with the requested property found")


def test_decompose_no_clusters():
    window = Window(0, 1, 0, 1)

    def all_vacant(seed):
        return (clocks.first_arrival_grid(seed, window) > T_C).all()

    seed = _find_seed(window, all_vacant)
    assert decompose_cells(window, seed) == []


def test_decompose_singleton_closure():
    from firelab.lattice import neighbors
    window = Window(-3, 3, 0, 4)

    def isolated_site(seed):
        occ = clocks.first_arrival_grid(seed, window) <= T_C
        return bool(occ[window.index((0, 1))]) and \
            not any(occ[window.index(v)] for v in neighbors((0, 1)))

    seed = _find_seed(window, isolated_site)
    cells = decompose_cells(window, seed)
    cell = next(c for c in cells
                if c.size == 1 and tuple(c.core[0]) == (0, 1))
    assert cell.certified
    assert cell.closure.shape[0] == 7  # site plus its six neighbors
    want = {(0, 1)} | set(neighbors((0, 1)))
    assert {(int(k), int(l)) for k, l in cell.closure} == want


def test_decompose_partition_and_closures():
    window = Window(-15, 14, 0, 29)
    flags = set()
    for i in range(20):
        seed = clocks.derive_seed(5005, i)
        occ = clocks.first_arrival_grid(seed, window) <= T_C
        cells = decompose_cells(window, seed)
        seen = set()
        n_occupied = int(occ.sum())
        total = 0
        for cell in cells:
            core = {(int(k), int(l)) for k, l in cell.core}
            assert not (core & seen)
            seen |= core
            total += len(core)
            closure = {(int(k), int(l)) for k, l in cell.closure}
            assert closure == {s for s in core | outer_boundary(core, half_plane=True)
                               if window.contains(s)}
            # Certified exactly when the closure avoids the left, right and
            # top window edges.
            inside = all(window.k_min < k < window.k_max and l < window.l_max
                         for k, l in closure)
            assert cell.certified == inside
            flags.add(cell.certified)
        assert total == n_occupied
    assert flags == {True, False}


def test_run_cell_without_igniter_is_quiet():
    # A floating cell whose closure misses the boundary row cannot burn.
    core = np.array([[0, 3]], dtype=np.int64)
    closure = np.array([[0, 3], [1, 3], [-1, 3], [0, 4], [0, 2],
                        [1, 2], [-1, 4]], dtype=np.int64)
    cell = FireCell(1, core, closure, certified=True)
    for i in range(50):
        assert run_cell(cell, clocks.derive_seed(90, i)) == []


def test_run_cell_requires_certification():
    cell = FireCell(1, np.array([[0, 1]]), np.array([[0, 1]]), certified=False)
    with pytest.raises(UncertifiedCellError):
        run_cell(cell, 1)


def test_run_cell_matches_full_run():
    window = Window(-8, 8, 0, 6)
    for i in range(1000):
        seed = clocks.derive_seed(77, i)
        _, full = run(window, seed, T_C)
        cells = decompose_cells(window, seed)
        lab_of = {}
        for c in cells:
            for k, l in c.core:
                lab_of[(int(k), int(l))] = c.label
        full_by_cell = defaultdict(list)
        for rec in full:
            site = (int(rec.sites[0, 0]), int(rec.sites[0, 1]))
            full_by_cell[lab_of[site]].append(rec)
        for cell in cells:
            if not cell.certified:
                continue
            got = run_cell(cell, seed)
            want = full_by_cell.get(cell.label, [])
            assert len(got) == len(want)
            key = lambda r: (r.time, r.ignition)
            for a, b in zip(sorted(got, key=key), sorted(want, key=key)):
                assert a.time == b.time and a.ignition == b.ignition
                assert set(map(tuple, a.sites.tolist())) == \
                    set(map(tuple, b.sites.tolist()))


def test_run_cell_singleton_two_state_statistics():
    # Hand-built singleton cell: the middle site's marginal is the two-state
    # chain regardless of the other closure sites.
    core = np.array([[0, 1]], dtype=np.int64)
    closure = np.array(
        [[0, 1], [1, 1], [-1, 1], [0, 2], [-1, 2], [0, 0], [1, 0]],
        dtype=np.int64)
    cell = FireCell(1, core, closure, certified=True)
    n = 20_000
    hits = 0
    for i in range(n):
        records = run_cell(cell, clocks.derive_seed(3333, i))
        if any((rec.sites == np.array([0, 1])).all(axis=1).any() for rec in records):
            hits += 1
    p_true = destruction_free_probability(T_C)
    se = math.sqrt(p_true * (1 - p_true) / n)
    assert abs(hits / n - p_true) <= 3 * se


def test_certified_height_quiet_region():
    window = Window(-10, 10, 0, 8)
    cone = ConeRegion(0.0, PHI)
    for i in range(200):
        seed = clocks.derive_seed(230, i)
        b = height_bracket(window, seed, cone)
        _, records = run(window, seed, T_C)
        if not records:
            assert b.height == 0.0 and b.certified
            return
    pytest.skip("no quiet seed found")


def test_certified_height_strict_edge_cluster():
    # Strict certification fails as soon as an edge-touching cluster
    # intersects the region, destruction or not.
    window = Window(-6, 6, 0, 5)
    cone = ConeRegion(0.0, PHI)

    def edge_cluster_in_cone(seed):
        cells = decompose_cells(window, seed)
        from firelab.firesim import region_select
        for cell in cells:
            if cell.certified:
                continue
            ks = cell.core[:, 0].astype(float)
            ls = cell.core[:, 1].astype(float)
            if region_select(ks + 0.5 * ls, ls * SQ3 / 2, cone).any():
                return True
        return False

    seed = _find_seed(window, edge_cluster_in_cone)
    assert not height_bracket(window, seed, cone, strict=True).certified


def test_certified_height_strict_monotone_under_window_growth():
    # With the region capped at the smaller window's top, a strictly
    # certified small window stays certified in the doubled window.
    small = Window(-12, 12, 0, 8)
    big = Window(-24, 24, 0, 16)
    cone = ConeRegion(0.0, PHI)
    # Cap low enough that full certification of the stub is reachable.
    y_cap = 2 * SQ3 / 2
    from firelab.firesim import _decompose, region_select

    def strict_ok(window, seed):
        labels, certified = _decompose(window, clocks.first_arrival_grid(seed, window))
        rr, cc = np.nonzero(~certified[labels] & (labels > 0))
        ks, ls = cc + window.k_min, rr + window.l_min
        xs, ys = ks + 0.5 * ls, ls * SQ3 / 2
        return not (region_select(xs, ys, cone) & (ys <= y_cap)).any()

    flips = 0
    hits = 0
    for i in range(100):
        seed = clocks.derive_seed(321, i)
        if strict_ok(small, seed):
            hits += 1
            if not strict_ok(big, seed):
                flips += 1
    assert flips == 0
    assert hits > 0


def test_record_time_rule_exact_records_survive_window_doubling():
    # Every record the record-time rule marks exact reappears, with the
    # same time and the same sites, in the run on the doubled window.
    from firelab.firesim import _decompose, _exact_at_record_time
    small = Window(-24, 24, 0, 12)
    big = Window(-48, 48, 0, 24)

    def key(rec):
        return rec.time, frozenset(map(tuple, rec.sites.tolist()))

    exact = beyond_cell = 0
    for i in range(30):
        seed = clocks.derive_seed(616, i)
        _, records = run(small, seed, T_C)
        _, big_records = run(big, seed, T_C)
        big_keys = {key(rec) for rec in big_records}
        arrivals = clocks.first_arrival_grid(seed, small)
        labels, certified = _decompose(small, arrivals)
        for rec in records:
            if not _exact_at_record_time(arrivals, rec, small):
                continue
            exact += 1
            assert key(rec) in big_keys
            k0, l0 = rec.sites[0]
            if not certified[labels[l0 - small.l_min, k0 - small.k_min]]:
                beyond_cell += 1
    assert exact > 0
    # The rule certifies records that the t_c cell rule leaves out.
    assert beyond_cell > 0


def test_replay_matches_final_state():
    window = Window(-7, 7, 0, 6)
    for i in range(50):
        seed = clocks.derive_seed(999, i)
        state, records = run(window, seed, T_C, collect_events=True)
        occ = reconstruct_occupancy(window, state.events, records, T_C)
        assert (occ == state.occ).all()


def _naive_run(window, seed, t_end):
    """Definition-direct reference: apply every clock jump of every site in
    (time, l, k) order; a boundary jump clears the occupied clusters of its
    adjacent interior sites.  No lazy queues, no event merging."""
    events = []
    for l in range(window.l_min, window.l_max + 1):
        for k in range(window.k_min, window.k_max + 1):
            for t in clocks.jumps_in(seed, (k, l), 0.0, t_end):
                events.append((t, l, k))
    events.sort()
    occ = {}
    records = []
    offs = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    for t, l, k in events:
        if l >= 1:
            occ[(k, l)] = True
            continue
        for v in ((k, 1), (k - 1, 1)):
            if not window.contains(v) or not occ.get(v):
                continue
            stack = [v]
            cluster = {v}
            occ[v] = False
            while stack:
                ck, cl = stack.pop()
                for dk, dl in offs:
                    w2 = (ck + dk, cl + dl)
                    if window.contains(w2) and occ.get(w2):
                        occ[w2] = False
                        cluster.add(w2)
                        stack.append(w2)
            records.append((t, (k, 0), frozenset(cluster)))
    return occ, records


def test_runner_matches_naive_reference():
    for i in range(300):
        seed = clocks.derive_seed(123456, i)
        window = Window(-5 - (i % 4), 5 + (i % 3), 0, 4 + (i % 4))
        for t_end in (T_C, 0.5):
            state, recs = run(window, seed, t_end)
            occ_naive, recs_naive = _naive_run(window, seed, t_end)
            for site in window.sites():
                assert bool(state.occupied(site)) == bool(occ_naive.get(site, False))
            got = [(r.time, r.ignition, frozenset(map(tuple, r.sites.tolist())))
                   for r in recs]
            assert got == recs_naive


def test_masked_run_above_the_boundary_row_only_grows():
    # A cell closure may start above row 0: no boundary clock, no fire, and
    # each masked site is occupied exactly when it has arrived.
    window = Window(-4, 5, 2, 6)
    for i in range(100):
        seed = clocks.derive_seed(4040, i)
        mask = np.random.default_rng(i).random((window.n_rows, window.n_cols)) < 0.7
        arrivals = clocks.first_arrival_grid(seed, window)
        for t_end in (T_C, 0.5):
            state, records = run(window, seed, t_end, mask=mask)
            assert records == []
            assert (state.occ.astype(bool) == (mask & (arrivals <= t_end))).all()


def test_destruction_log_rows_and_summary():
    window = Window(-10, 10, 0, 8)
    state, records = run(window, 1001, T_C)
    rows = firesim.destruction_log_rows(records, ConeRegion(0.0, PHI))
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert row[0] == rec.time and row[1] == rec.ignition[0]
        assert row[2] == rec.size
    summary = firesim.run_summary(state, records)
    assert summary["n_fires"] == len(records)
    assert summary["final_occupied"] == int(state.occ.sum())
