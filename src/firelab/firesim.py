"""Event-driven forest-fire process on finite half-plane windows.

Dynamics on the window: every interior site (row l >= 1) becomes occupied
at the jumps of its own clock; every jump of a boundary-row clock (l == 0)
instantaneously destroys the occupied clusters of the four sites adjacent
to it.  The boundary row itself is held vacant at all times.

Between two rings the fire only adds trees, so a run processes only the
rings.  Every site in rows l >= 1 keeps a clock cursor: its first arrival,
then after each burn its first jump past the fire.  At a ring at time t a
site is occupied exactly when its cursor is below t, which keeps the
(t, l, k) order in which a ring comes before a growth at the same t.  The
rings of row 0 are hashed for the whole row at once and sorted by (t, k);
each fire is a breadth-first search from the ring's two row-1 neighbours
that moves every burnt site's cursor past t.  The cursors live in a padded
float array that the search indexes flat through a memoryview.  The loop
runs on a set of live sites, the others holding +inf cursors: ``run``'s
are the sites whose first arrival is by t_end, since no other site is
ever occupied.  Gaps 1 and 2 are hashed only for the live sites, and only
a site's third and later burn steps hash a scalar gap from its stream
state.  A fire keeps the flat indices it burnt, and all records' (k, l)
sites are built in one pass after the last ring; the final occupancy is
one comparison of the cursors with t_end.  The reference for this loop
is ``invariants.naive_run``, which applies every clock jump of every site
in (t, l, k) order; ``invariants.fire_run_failures`` compares the two.

The process factorizes over fire cells: the clusters of the growth
snapshot at t_c together with their outer boundaries.  A fire up to t_c
burns a connected set of sites grown by t_c, so it lies inside one t_c
cell, and a cell's records depend only on its own clocks and on the rings
of row 0.  ``height_bracket`` therefore runs the fire only on the cells
that hold a region site.  A cell whose closure stays clear of the left,
right and top window edges evolves exactly as in the infinite volume,
which is what certification means here.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import ndimage

from . import clocks
from .clocks import T_C
from .lattice import (
    GRID_OFFSETS,
    SQRT3_2,
    TRI_STRUCTURE,
    ConeRegion,
    Site,
    TubeRegion,
    Window,
    region_select,
)


@dataclass
class DestructionRecord:
    """One fire: when, which boundary clock rang, what burned."""

    time: float
    ignition: Site
    sites: np.ndarray  # shape (m, 2), columns (k, l)

    @property
    def size(self) -> int:
        return int(self.sites.shape[0])


@dataclass
class FireState:
    window: Window
    occ: np.ndarray
    t_end: float


def run(window: Window, seed: int, t_end: float = T_C):
    """Run the forest-fire process; returns (FireState, destruction log)."""
    if not 0.0 < t_end <= T_C + 1e-12:
        raise ValueError(f"t_end must lie in (0, t_c], t_c = log 2 ~ {T_C:.6f}")
    if window.l_min != 0:
        raise ValueError("forest-fire windows live on the half-plane, l_min = 0")
    states = clocks.window_states(seed, window)
    arrivals = clocks.gap_from_state(states, 0)
    # A site whose first arrival comes after t_end is never occupied.
    cursors, records = _fire(window, states, arrivals, arrivals <= t_end, t_end)
    occ = (cursors <= t_end).astype(np.uint8)
    return FireState(window, occ, t_end), records


def _fire(window: Window, states: np.ndarray, arrivals: np.ndarray,
          live: np.ndarray, t_end: float):
    """The ring loop to ``t_end`` on the sites of ``live`` in rows l >= 1.

    Every other site's cursor is +inf, so it never burns; ``live`` must hold
    every site that the records to be kept can reach.  Returns the window's
    final cursors and the records, in the order of ``run``.
    """
    ring_t, ring_k = _ring_schedule(window, t_end, states, arrivals)

    # Clock cursors (module docstring), each live site's jump 1 (its arrival
    # plus gap 1, the float sum of a cursor's first step) and its gap 2, in
    # arrays padded by one site on each side.  Row 0, where trees never
    # grow, the padding and the sites outside ``live`` hold +inf.  A
    # memoryview reads as fast as a list, writes into its array and builds
    # no Python float for the sites that no fire reaches.
    n_cols, stride = window.n_cols, window.n_cols + 2
    idx = np.flatnonzero(live[1:]) + n_cols  # flat window index, row >= 1
    at = idx + 2 * (idx // n_cols) + stride + 1  # its flat padded index
    h, a = states.reshape(-1)[idx], arrivals.reshape(-1)[idx]

    def padded(values: np.ndarray) -> np.ndarray:
        flat = np.full((window.n_rows + 2) * stride, np.inf)
        flat[at] = values
        return flat

    cur_a = padded(a)
    cur = memoryview(cur_a)
    jump1 = memoryview(padded(a + clocks.gap_from_state(h, 1)))
    gap2 = memoryview(padded(clocks.gap_from_state(h, 2)))
    state = memoryview(states.reshape(-1))  # a site's stream state, as an int
    jumps = {}  # burnt site's flat index -> index j of its cursor's jump
    k0, l0 = window.k_min - 1, window.l_min - 1

    def burn(i: int, t: float) -> None:
        """Move site i's cursor to its first clock jump after t."""
        s, j = cur[i], jumps.get(i, 0)
        while s <= t:
            j += 1
            if j == 1:
                s = jump1[i]
            elif j == 2:
                s += gap2[i]
            else:
                r, c = divmod(i, stride)
                s += clocks.gap_from_state(state[(r - 1) * n_cols + c - 1], j)
        cur[i] = s
        jumps[i] = j

    offsets = [dl * stride + dk for dl, dk in GRID_OFFSETS]
    row1 = (1 - l0) * stride - k0  # row1 + k is the flat index of (k, 1)
    fires = []  # (t, k, flat indices of the burnt sites in burning order)
    for t, k in zip(ring_t, ring_k):
        for start in (row1 + k, row1 + k - 1):
            if cur[start] >= t:
                continue
            # BFS over the occupied cluster; a site leaves it as it burns.
            burn(start, t)
            burned = [start]
            for i in burned:
                for d in offsets:
                    if cur[i + d] < t:
                        burn(i + d, t)
                        burned.append(i + d)
            fires.append((t, k, burned))

    # Every fire's flat indices become (k, l) sites in one pass; each
    # record's sites are a slice of the result.
    flat = np.fromiter((i for _, _, burned in fires for i in burned), dtype=np.int64)
    sites = np.column_stack((flat % stride + k0, flat // stride + l0))
    ends = np.cumsum([len(burned) for _, _, burned in fires]).tolist()
    records = [DestructionRecord(t, (k, 0), sites[end - len(burned):end])
               for (t, k, burned), end in zip(fires, ends)]
    return cur_a.reshape(window.n_rows + 2, stride)[1:-1, 1:-1], records


def _ring_schedule(window: Window, t_end: float, states: np.ndarray,
                   arrivals: np.ndarray):
    """Every jump by ``t_end`` of the window's row-0 clocks, as lists of
    times and ks in (t, k) order."""
    ks = np.arange(window.k_min, window.k_max + 1)
    h, t = states[0], arrivals[0]
    all_t, all_k = [t[:0]], [ks[:0]]
    j = 0
    while (due := t <= t_end).any():
        t, ks, h = t[due], ks[due], h[due]
        all_t.append(t)
        all_k.append(ks)
        j += 1
        # Jump j is jump j - 1 plus gap j, as in clocks.jumps_in.
        t = t + clocks.gap_from_state(h, j)
    ts, ks = np.concatenate(all_t), np.concatenate(all_k)
    order = np.lexsort((ks, ts))
    return ts[order].tolist(), ks[order].tolist()


def _record_tops(records: list[DestructionRecord], region) -> np.ndarray:
    """Each record's largest embedded height inside ``region`` (everywhere
    for None), -inf for a record with no site there: one pass over every
    record's sites."""
    if not records:
        return np.empty(0)
    sites = np.concatenate([rec.sites for rec in records])
    starts = np.cumsum([0] + [rec.size for rec in records][:-1])
    ls = sites[:, 1].astype(np.float64)
    ys = SQRT3_2 * ls
    if region is not None:
        ys[~region_select(sites[:, 0] + 0.5 * ls, ys, region)] = -np.inf
    return np.maximum.reduceat(ys, starts)


def height_of_destruction(records: list[DestructionRecord], region) -> float:
    """Sup of the heights that ``records`` destroyed in ``region``
    (everywhere for None), joined with 0."""
    return float(_record_tops(records, region).max(initial=0.0))


def _edge_band(grid: np.ndarray) -> np.ndarray:
    """Entries of a window grid on the sites whose closure meets the left,
    right or top window edge.

    These are the one-step ``TRI_STRUCTURE`` dilation of those edges: the
    two outermost columns on either side and the two top rows.
    """
    return np.concatenate((grid[:, :2].ravel(), grid[:, -2:].ravel(),
                           grid[-2:, :].ravel()))


def _decompose(window: Window, arrivals: np.ndarray):
    """Label the t_c snapshot of the window's first-arrival grid.

    Returns the label grid and ``certified``, a boolean array indexed by
    label.  A cell is certified when its closure avoids the left, right and
    top window edges, that is when none of its sites lies in
    :func:`_edge_band`.  Label 0 marks vacant sites and is not a cell.
    """
    if window.l_min != 0:
        raise ValueError("cell decomposition lives on half-plane windows")
    labels, n_lab = ndimage.label(arrivals <= T_C, structure=TRI_STRUCTURE)
    certified = np.ones(n_lab + 1, dtype=bool)
    certified[_edge_band(labels)] = False
    certified[0] = False
    return labels, certified


@dataclass(frozen=True)
class HeightBracket:
    """One sample's destruction height in a region.

    ``lower`` and ``upper`` bracket the destruction height inside the
    window: ``lower`` is the largest region height over the records that
    are exact at their own time, and ``upper`` equals it when every region
    record is exact, else the window's top height.  This bracket is the
    height that firelab reports.

    ``height`` and ``certified`` follow the t_c cell rule: ``height`` is
    the destruction height in the region over the records in certified
    t_c cells only, and ``certified`` states that no region record lies in
    an uncertified cell (with ``strict``, also that no uncertified cell
    holds a region site).  The bracket dominates this rule:
    ``lower >= height``, and a certified sample has
    ``lower == upper == height``.  The certified cells are the bracket's
    fast path; ``height`` and ``certified`` stay only because the
    benchmark's ``heights-cone`` reference and oracles read them.
    """

    height: float
    certified: bool
    lower: float
    upper: float


def _exact_at_record_time(arrivals: np.ndarray, record: DestructionRecord,
                          window: Window) -> bool:
    """Record-time rule: the record is exact when the growth cluster at its
    time s that contains it, taken with row 0 vacant and with its outer
    boundary, stays clear of the left, right and top window edges.

    This is the cell factorisation of the module docstring with t_c
    replaced by s: up to time s that cluster's sites and its row-0
    neighbours evolve as in the infinite volume.  The cluster lies inside
    the record's t_c cell, so the rule never certifies less than the cell.
    """
    grown = arrivals <= record.time
    grown[0, :] = False
    labels, _ = ndimage.label(grown, structure=TRI_STRUCTURE)
    k0, l0 = int(record.sites[0, 0]), int(record.sites[0, 1])
    lab = labels[l0 - window.l_min, k0 - window.k_min]
    return not (_edge_band(labels) == lab).any()


@lru_cache(maxsize=16)
def _region_sites(window: Window, region: ConeRegion | TubeRegion) -> np.ndarray:
    """Flat indices of the window's sites in ``region``, by the test of
    ``_record_tops`` (cached per window and region)."""
    ls = np.arange(window.l_min, window.l_max + 1, dtype=np.float64)[:, None]
    ks = np.arange(window.k_min, window.k_max + 1)
    idx = np.flatnonzero(region_select(ks + 0.5 * ls, SQRT3_2 * ls, region))
    idx.flags.writeable = False
    return idx


def height_bracket(window: Window, seed: int, region: ConeRegion | TubeRegion,
                   strict: bool = False) -> HeightBracket:
    """Destruction height in ``region`` from one run, as a
    :class:`HeightBracket`.

    The fire runs only on the t_c cells that hold a region site (module
    docstring): every region record lies in one of them, and their records
    are the full run's.  The record-time rule runs only on region records
    whose t_c cell is uncertified; a record in a certified cell is exact
    under it too.  The bracket covers the records that the window's own run
    produces and does not depend on ``strict``, which only the t_c cell
    rule's ``certified`` reads.
    """
    # Looked up before the window's grids exist: a first call's temporaries
    # then do not add to theirs.
    in_region = _region_sites(window, region)
    states = clocks.window_states(seed, window)
    arrivals = clocks.gap_from_state(states, 0)
    labels, cell_certified = _decompose(window, arrivals)
    meets = np.zeros(cell_certified.size, dtype=bool)
    meets[labels.reshape(-1)[in_region]] = True
    meets[0] = False
    _, records = _fire(window, states, arrivals, meets[labels], T_C)

    height = lower = 0.0
    record_ok = all_exact = True
    tops = _record_tops(records, region)
    for r in np.flatnonzero(tops > -np.inf).tolist():
        top = float(tops[r])
        k0, l0 = records[r].sites[0].tolist()  # its t_c cell is the record's
        if cell_certified[labels[l0 - window.l_min, k0 - window.k_min]]:
            height = max(height, top)
            lower = max(lower, top)
            continue
        record_ok = False
        if _exact_at_record_time(arrivals, records[r], window):
            lower = max(lower, top)
        else:
            all_exact = False
    upper = lower if all_exact else SQRT3_2 * window.l_max
    # ``meets`` marks the cells that hold a region site; strict asks that
    # none of them is uncertified.
    certified = record_ok and not (strict and (meets & ~cell_certified).any())
    return HeightBracket(height, certified, lower, upper)


def destruction_log_rows(records: list[DestructionRecord],
                         region: ConeRegion) -> list[tuple]:
    """CSV-ready rows (time, ignition_k, cluster_size, max_im, in_region):
    max_im is a record's top height, in_region whether it meets the region."""
    tops = _record_tops(records, None).tolist()
    inside = (_record_tops(records, region) > -np.inf).tolist()
    return [(rec.time, rec.ignition[0], rec.size, top, int(hit))
            for rec, top, hit in zip(records, tops, inside)]


def run_summary(state: FireState, records: list[DestructionRecord]) -> dict:
    return {
        "t_end": state.t_end,
        "window": [state.window.k_min, state.window.k_max,
                   state.window.l_min, state.window.l_max],
        "n_fires": len(records),
        "sites_destroyed": int(sum(r.size for r in records)),
        "final_occupied": int(state.occ.sum()),
        "max_destruction_height": height_of_destruction(records, None),
    }
