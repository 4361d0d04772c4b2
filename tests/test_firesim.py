import dataclasses
import math
from collections import defaultdict

import numpy as np
import pytest
from scipy import ndimage
from scipy.integrate import solve_ivp

from firelab import clocks, firesim, invariants
from firelab.clocks import T_C
from firelab.firesim import (
    DestructionRecord,
    height_bracket,
    height_of_destruction,
    run,
)
from firelab.estimators import height_window
from firelab.lattice import (
    TRI_STRUCTURE,
    ConeRegion,
    TubeRegion,
    Window,
    neighbors,
    region_select,
)

PHI = math.pi / 3
SQ3 = math.sqrt(3.0)


# Fire cells with explicit closures: the oracle for the cell factorization
# that firesim._decompose certifies.

class UncertifiedCellError(ValueError):
    """Cell dynamics are only exact when the closure avoids the window edge."""


@dataclasses.dataclass
class FireCell:
    """One cluster of the t_c growth snapshot plus its outer boundary."""

    label: int
    core: np.ndarray     # (m, 2) site array, columns (k, l)
    closure: np.ndarray  # (m', 2) site array
    certified: bool

    @property
    def size(self) -> int:
        return int(self.core.shape[0])


def decompose_cells(window: Window, seed: int) -> list[FireCell]:
    """Fire cells of the window under a seed: cores are exactly the
    clusters of the growth snapshot at t_c, flags from ``_decompose``."""
    labels, certified = firesim._decompose(window, clocks.first_arrival_grid(seed, window))
    cells = []
    for lab, slc in enumerate(ndimage.find_objects(labels), start=1):
        r0 = max(slc[0].start - 1, 0)
        r1 = min(slc[0].stop + 1, window.n_rows)
        c0 = max(slc[1].start - 1, 0)
        c1 = min(slc[1].stop + 1, window.n_cols)
        local = labels[r0:r1, c0:c1] == lab
        # Dilation clipped at the array edge loses out-of-window sites; such
        # a cell has a site in the edge band and is uncertified.
        dil = ndimage.binary_dilation(local, structure=TRI_STRUCTURE)
        rr, cc = np.nonzero(local)
        core = np.column_stack((cc + c0 + window.k_min, rr + r0 + window.l_min))
        rr2, cc2 = np.nonzero(dil)
        closure = np.column_stack((cc2 + c0 + window.k_min, rr2 + r0 + window.l_min))
        cells.append(FireCell(lab, core, closure, bool(certified[lab])))
    return cells


def run_cell(cell: FireCell, seed: int, t_end: float = T_C):
    """Forest-fire dynamics restricted to one certified cell's closure, on
    the naive reference runner."""
    if not cell.certified:
        raise UncertifiedCellError(f"cell {cell.label} touches the window edge")
    closure = {(int(k), int(l)) for k, l in cell.closure}
    _, records = invariants.naive_run(closure, seed, t_end)
    return [DestructionRecord(t, ignition, np.array(sorted(sites), dtype=np.int64))
            for t, ignition, sites in records]


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
        run(Window(-5, 5, 0, 5), 3, t_end=float("nan"))
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
    """On one fixed window, records and final occupancy equal the
    definition-direct reference's at both horizons."""
    window = Window(-8, 8, 0, 7)
    for i in range(120):
        seed = clocks.derive_seed(2001, i)
        for t_end in (T_C, 0.5):
            _, failures = invariants.fire_run_failures(window, seed, t_end)
            assert failures == [], (seed, t_end)


def test_runner_matches_naive_reference(monkeypatch):
    """Records in order (time, ignition, site set) and final occupancy equal
    the definition-direct reference's, over windows of varied shape."""
    cases = [(Window(-5 - (i % 4), 5 + (i % 3), 0, 4 + (i % 4)),
              clocks.derive_seed(123456, i)) for i in range(300)]
    # How often each site burns in one reference run: a site's third burn
    # takes the run's scalar gaps (j >= 3), its first two the hashed ones.
    most_burns = 0
    naive_run = invariants.naive_run

    def counting_naive_run(sites, seed, t_end):
        nonlocal most_burns
        occupied, records = naive_run(sites, seed, t_end)
        burns = defaultdict(int)
        for _, _, burnt in records:
            for site in burnt:
                burns[site] += 1
        most_burns = max(most_burns, *burns.values(), 0)
        return occupied, records

    monkeypatch.setattr(invariants, "naive_run", counting_naive_run)
    for window, seed in cases:
        for t_end in (T_C, 0.5):
            _, failures = invariants.fire_run_failures(window, seed, t_end)
            assert failures == [], (window, seed, t_end)
    assert most_burns >= 3


def test_fire_run_failures_reports_corruptions(monkeypatch):
    window = Window(-8, 8, 0, 7)
    seed = clocks.derive_seed(2002, 0)
    state, records = run(window, seed, T_C)
    n = len(records)
    assert n >= 2 and records[1].time != records[0].time
    assert invariants.fire_run_failures(window, seed)[1] == []

    # clock_seed: the reference runs on other clocks, with as many records
    # on this seed.
    occupied, ref = invariants.naive_run(window.sites(), seed + 1, T_C)
    assert len(ref) == n
    differ = sorted({s for s in window.sites() if state.occ[window.index(s)]} ^ occupied,
                    key=lambda s: (s[1], s[0]))
    assert invariants.fire_run_failures(window, seed, T_C, seed + 1)[1] == [
        f"record 0: t={records[0].time!r} at {records[0].ignition}, "
        f"reference t={ref[0][0]!r} at {ref[0][1]}",
        f"final occupancy differs at {len(differ)} sites, first {differ[0]}"]

    def failures(state, records):
        monkeypatch.setattr(firesim, "run", lambda *args: (state, records))
        return invariants.fire_run_failures(window, seed)[1]

    # One site dropped from a record.
    j = next(j for j, rec in enumerate(records) if rec.size >= 2)
    rec = records[j]
    site = tuple(rec.sites[-1].tolist())
    cut = records[:j] + [dataclasses.replace(rec, sites=rec.sites[:-1])] + records[j + 1:]
    assert failures(state, cut) == [
        f"record {j} at t={rec.time!r}: extra sites [], missing sites [{site}]"]

    # One record's time shifted.
    late = math.nextafter(records[0].time, math.inf)
    shifted = [dataclasses.replace(records[0], time=late)] + records[1:]
    assert failures(state, shifted) == [
        f"record 0: t={late!r} at {records[0].ignition}, "
        f"reference t={records[0].time!r} at {records[0].ignition}"]

    # One record dropped.
    assert failures(state, records[1:]) == [
        f"record 0: t={records[1].time!r} at {records[1].ignition}, "
        f"reference t={records[0].time!r} at {records[0].ignition}",
        f"{n - 1} records, reference {n}"]

    # One final-occupancy bit flipped.
    occ = state.occ.copy()
    occ[window.index((0, 3))] ^= 1
    assert failures(dataclasses.replace(state, occ=occ), records) == [
        "final occupancy differs at 1 sites, first (0, 3)"]


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
                        state.occ[window.index(site)]:
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
    assert height_of_destruction([rec], wide) == pytest.approx(3 * SQ3 / 2)
    assert height_of_destruction([rec], cone) == 0.0  # outside


def test_height_monotone_in_time_and_region():
    window = Window(-10, 10, 0, 8)
    cone_narrow = ConeRegion(0.0, 1.3)
    cone_wide = ConeRegion(0.0, 0.4)
    for i in range(40):
        seed = clocks.derive_seed(808, i)
        # One seed's runs to later stop times destroy at least as high.
        hs = [height_of_destruction(run(window, seed, t)[1], cone_narrow)
              for t in (0.2, 0.4, 0.6, T_C)]
        assert hs == sorted(hs)
        _, records = run(window, seed, T_C)
        assert height_of_destruction(records, cone_narrow) <= \
            height_of_destruction(records, cone_wide)


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
            assert closure == {v for s in core for v in [s, *neighbors(s)]
                               if window.contains(v)}
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
    from firelab.firesim import _decompose

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


def _region_heights(rec, region):
    """Embedded heights of a record's destroyed sites inside ``region``."""
    ls = rec.sites[:, 1].astype(np.float64)
    ys = SQ3 / 2 * ls
    return ys[region_select(rec.sites[:, 0] + 0.5 * ls, ys, region)]


def _per_record_bracket(window, seed, region, strict, cells_seen):
    """``height_bracket`` as a loop over the records, each record's region
    heights from ``_region_heights``; adds the certified flag of every
    region record's t_c cell to ``cells_seen``."""
    _, records = run(window, seed, T_C)
    arrivals = clocks.first_arrival_grid(seed, window)
    labels, cell_certified = firesim._decompose(window, arrivals)
    height = lower = 0.0
    record_ok = all_exact = True
    for rec in records:
        hs = _region_heights(rec, region)
        if hs.size == 0:
            continue
        top = float(hs.max())
        k0, l0 = int(rec.sites[0, 0]), int(rec.sites[0, 1])
        lab = int(labels[l0 - window.l_min, k0 - window.k_min])
        cells_seen.add(bool(cell_certified[lab]))
        if cell_certified[lab]:
            height = max(height, top)
            lower = max(lower, top)
            continue
        record_ok = False
        if firesim._exact_at_record_time(arrivals, rec, window):
            lower = max(lower, top)
        else:
            all_exact = False
    upper = lower if all_exact else SQ3 / 2 * window.l_max
    certified = record_ok
    if strict and certified:
        rr, cc = np.nonzero(~cell_certified[labels] & (labels > 0))
        ks, ls = cc + window.k_min, rr + window.l_min
        certified = not region_select(ks + 0.5 * ls, SQ3 / 2 * ls, region).any()
    return firesim.HeightBracket(height, certified, lower, upper)


@pytest.mark.parametrize("height", [16, 24])
def test_height_bracket_matches_per_record_loop(height):
    window = height_window(height)
    regions = (ConeRegion(0.0, PHI), ConeRegion(2.5, 0.8), TubeRegion(1.0, 1.2))
    cells_seen = set()
    for i in range(200):
        seed = clocks.derive_seed(808, 500_000 + i)
        for region in regions:
            for strict in (False, True):
                want = _per_record_bracket(window, seed, region, strict, cells_seen)
                assert height_bracket(window, seed, region, strict) == want, \
                    (seed, region, strict)
    # Region records in certified and in uncertified t_c cells both occur.
    assert cells_seen == {True, False}


@pytest.mark.parametrize("height", [16, 24, 48])
def test_region_cell_fire_matches_full_run(height, monkeypatch):
    # height_bracket runs the fire only in the t_c cells that hold a region
    # site.  Its records must be the full run's records in those cells, in
    # the same order, with the same time, ignition and site set.
    window = height_window(height)
    regions = (ConeRegion(0.0, PHI), ConeRegion(2.5, 0.8), TubeRegion(1.0, 1.2))
    ls, ks = np.indices((window.n_rows, window.n_cols))
    ls = ls + window.l_min
    xs, ys = ks + window.k_min + 0.5 * ls, SQ3 / 2 * ls
    fires, fire = [], firesim._fire

    def recording_fire(*args):
        out = fire(*args)
        fires.append(out[1])
        return out

    monkeypatch.setattr(firesim, "_fire", recording_fire)
    kept = dropped = 0
    for i in range(50):
        seed = clocks.derive_seed(808, 500_000 + i)
        _, full = run(window, seed, T_C)
        labels, _ = ndimage.label(clocks.first_arrival_grid(seed, window) <= T_C,
                                  structure=TRI_STRUCTURE)
        for region in regions:
            fires.clear()
            height_bracket(window, seed, region)
            (got,) = fires
            meets = set(labels[region_select(xs, ys, region)].tolist()) - {0}
            want = [rec for rec in full
                    if labels[rec.sites[0, 1] - window.l_min,
                              rec.sites[0, 0] - window.k_min] in meets]
            assert [(r.time, r.ignition) for r in got] == \
                [(r.time, r.ignition) for r in want], (seed, region)
            for a, b in zip(got, want):
                assert set(map(tuple, a.sites.tolist())) == \
                    set(map(tuple, b.sites.tolist())), (seed, region)
            kept += len(want)
            dropped += len(full) - len(want)
    # The restriction keeps records and leaves others out.
    assert kept > 0 and dropped > 0


def test_two_state_check_matches_naive_run_on_the_igniters():
    # Seed by seed, the two-state indicator equals a fire in the naive run
    # restricted to the interior site (0, 1) and its igniters (0, 0) and
    # (1, 0).
    sites = {(0, 0), (1, 0), (0, 1)}
    hits = 0
    for i in range(2000):
        seed = clocks.derive_seed(606, i)
        p_hat, _ = invariants.two_state_check([seed], invariants.TWO_STATE_P, 3.0)
        _, records = invariants.naive_run(sites, seed, T_C)
        assert p_hat == float(bool(records)), i
        hits += bool(records)
    assert 0 < hits < 2000


def test_destruction_log_rows_and_summary():
    window = Window(-10, 10, 0, 8)
    state, records = run(window, 1001, T_C)
    cone = ConeRegion(0.0, PHI)
    rows = firesim.destruction_log_rows(records, cone)
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert row[0] == rec.time and row[1] == rec.ignition[0]
        assert row[2] == rec.size
        assert row[3] == float(rec.sites[:, 1].max()) * SQ3 / 2
        assert row[4] == int(_region_heights(rec, cone).size > 0)
    assert {row[4] for row in rows} == {0, 1}
    summary = firesim.run_summary(state, records)
    assert summary["n_fires"] == len(records)
    assert summary["final_occupied"] == int(state.occ.sum())
