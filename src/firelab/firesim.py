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
that moves every burnt site's cursor past t.  The event log, when asked
for, is derived afterwards: a grow event at each first arrival and each
post-burn cursor value up to t_end, merged with the rings in (t, l, k)
order.

The process factorizes over fire cells: the clusters of the growth
snapshot at t_c together with their outer boundaries.  A cell whose
closure stays clear of the left, right and top window edges evolves
exactly as in the infinite volume, which is what certification means here.
"""

import math
from dataclasses import dataclass, field

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
)


class UncertifiedCellError(ValueError):
    """Cell dynamics are only exact when the closure avoids the window edge."""


def region_select(xs: np.ndarray, ys: np.ndarray, region) -> np.ndarray:
    """Boolean membership of embedded points in a cone or tube region."""
    if isinstance(region, ConeRegion):
        return (ys >= 0.0) & (np.abs(xs - region.apex_x) <= ys * region.cot_phi)
    if isinstance(region, TubeRegion):
        ux, uy = math.cos(region.phi), math.sin(region.phi)
        dx, dy = xs - region.x, ys
        tt = np.maximum(dx * ux + dy * uy, 0.0)
        return (ys >= 0.0) & ((dx - tt * ux) ** 2 + (dy - tt * uy) ** 2 <= 0.25)
    raise TypeError(f"unsupported region {region!r}")


@dataclass
class DestructionRecord:
    """One fire: when, which boundary clock rang, what burned."""

    time: float
    ignition: Site
    sites: np.ndarray  # shape (m, 2), columns (k, l)

    @property
    def size(self) -> int:
        return int(self.sites.shape[0])

    @property
    def max_im(self) -> float:
        return float(self.sites[:, 1].max()) * SQRT3_2

    def heights_in(self, region) -> np.ndarray:
        """Embedded heights of the destroyed sites inside ``region``."""
        ks = self.sites[:, 0].astype(np.float64)
        ls = self.sites[:, 1].astype(np.float64)
        xs = ks + 0.5 * ls
        ys = SQRT3_2 * ls
        if region is None:
            return ys
        return ys[region_select(xs, ys, region)]


@dataclass
class FireState:
    window: Window
    occ: np.ndarray
    t_end: float
    mask: np.ndarray | None = field(default=None, repr=False)
    events: list | None = field(default=None, repr=False)
    # First clock arrivals on the window, hashed once per run.
    arrivals: np.ndarray | None = field(default=None, repr=False)

    def occupied(self, site: Site) -> bool:
        return bool(self.occ[self.window.index(site)])


@dataclass
class FireEvent:
    time: float
    site: Site
    kind: str  # "grow" | "ring"


def run(window: Window, seed: int, t_end: float = T_C,
        mask: np.ndarray | None = None, collect_events: bool = False):
    """Run the forest-fire process; returns (FireState, destruction log).

    ``mask`` restricts the dynamics to a site subset (used for fire cells);
    ``collect_events`` keeps the grow and ring events in ``FireState.events``.
    """
    if t_end > T_C + 1e-12:
        raise ValueError(f"t_end is capped at t_c = log 2 ~ {T_C:.6f}")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if mask is None and window.l_min != 0:
        raise ValueError("forest-fire windows live on the half-plane, l_min = 0")
    K, L = window.axial_grids()
    states = clocks.site_state(seed, (K, L))
    arrivals = clocks.gap_from_state(states, 0)
    live = L >= 1 if mask is None else (L >= 1) & mask
    ring_t, ring_k = _ring_schedule(window, t_end, mask, states, arrivals)

    # Clock cursors (module docstring) in a flat list padded by one site on
    # each side.  Dead and padding sites hold +inf and are never occupied.
    stride = window.n_cols + 2
    cur = np.full((window.n_rows + 2, stride), np.inf)
    cur[1:-1, 1:-1][live] = arrivals[live]
    cur = cur.ravel().tolist()
    jumps = {}  # burnt site's flat index -> index j of its cursor's jump
    regrown = [] if collect_events else None
    k0, l0 = window.k_min - 1, window.l_min - 1

    def burn(i: int, t: float) -> None:
        """Move site i's cursor to its first clock jump after t."""
        r, c = divmod(i, stride)
        h = int(states[r - 1, c - 1])
        s, j = cur[i], jumps.get(i, 0)
        while s <= t:
            j += 1
            s += clocks.gap_from_state(h, j)
        cur[i] = s
        jumps[i] = j
        if regrown is not None and s <= t_end:
            regrown.append((s, c + k0, r + l0))

    offsets = [dl * stride + dk for dl, dk in GRID_OFFSETS]
    row1 = (1 - l0) * stride - k0  # row1 + k is the flat index of (k, 1)
    records = []
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
            sites = np.array([(i % stride + k0, i // stride + l0) for i in burned],
                             dtype=np.int64)
            records.append(DestructionRecord(t, (k, 0), sites))

    grown = live & (arrivals <= t_end)
    occ = grown.astype(np.uint8)
    for i in jumps:
        occ[i // stride - 1, i % stride - 1] = cur[i] <= t_end
    events = None
    if collect_events:
        events = _event_log(window, arrivals, grown, ring_t, ring_k, regrown)
    return FireState(window, occ, t_end, mask, events, arrivals), records


def _ring_schedule(window: Window, t_end: float, mask: np.ndarray | None,
                   states: np.ndarray, arrivals: np.ndarray):
    """Every jump by ``t_end`` of the row-0 clocks in the run, as lists of
    times and ks in (t, k) order."""
    if not window.l_min <= 0 <= window.l_max:
        return [], []
    r = -window.l_min
    ks = np.arange(window.k_min, window.k_max + 1)
    h, t = states[r], arrivals[r]
    if mask is not None:
        ks, h, t = ks[mask[r]], h[mask[r]], t[mask[r]]
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


def _event_log(window: Window, arrivals: np.ndarray, first: np.ndarray,
               ring_t: list, ring_k: list, regrown: list):
    """A run's grow and ring events in (t, l, k) order.

    A site grows at its first arrival (where ``first``) and at every cursor
    value up to t_end that a burn sets (``regrown``); nothing else grows.
    """
    K, L = window.axial_grids()
    timeline = [(t, 0, k, "ring") for t, k in zip(ring_t, ring_k)]
    timeline += [(t, l, k, "grow") for t, l, k in
                 zip(arrivals[first].tolist(), L[first].tolist(), K[first].tolist())]
    timeline += [(t, l, k, "grow") for t, k, l in regrown]
    timeline.sort()
    return [FireEvent(t, (k, l), kind) for t, l, k, kind in timeline]


def reconstruct_occupancy(window: Window, events: list[FireEvent],
                          records: list[DestructionRecord], t: float,
                          strict: bool = False) -> np.ndarray:
    """Replay the logged growth/destruction timeline up to time t.

    Independent of the live run loop: applies grow events and destruction
    records in (time, l, k) order.  ``strict`` stops just before t.
    """
    timeline = []
    for ev in events:
        if ev.kind == "grow":
            timeline.append((ev.time, ev.site[1], ev.site[0], "g", ev.site))
    for rec in records:
        timeline.append((rec.time, 0, rec.ignition[0], "d", rec))
    timeline.sort(key=lambda item: (item[0], item[1], item[2]))
    occ = np.zeros((window.n_rows, window.n_cols), dtype=np.uint8)
    for time, _, _, kind, payload in timeline:
        if time > t or (strict and time >= t):
            break
        if kind == "g":
            occ[window.index(payload)] = 1
        else:
            occ[payload.sites[:, 1] - window.l_min,
                payload.sites[:, 0] - window.k_min] = 0
    return occ


def height_of_destruction(records: list[DestructionRecord], region,
                          t: float = T_C) -> float:
    """Sup of destroyed heights in ``region`` up to time t, joined with 0."""
    best = 0.0
    for rec in records:
        if rec.time > t:
            continue
        hs = rec.heights_in(region)
        if hs.size and float(hs.max()) > best:
            best = float(hs.max())
    return best


@dataclass
class FireCell:
    """One cluster of the t_c growth snapshot plus its outer boundary."""

    label: int
    core: np.ndarray     # (m, 2) site array, columns (k, l)
    closure: np.ndarray  # (m', 2) site array
    certified: bool

    @property
    def size(self) -> int:
        return int(self.core.shape[0])

    def closure_window(self) -> Window:
        ks = self.closure[:, 0]
        ls = self.closure[:, 1]
        return Window(int(ks.min()), int(ks.max()), int(ls.min()), int(ls.max()))

    def closure_mask(self, window: Window) -> np.ndarray:
        m = np.zeros((window.n_rows, window.n_cols), dtype=bool)
        m[self.closure[:, 1] - window.l_min, self.closure[:, 0] - window.k_min] = True
        return m


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


def decompose_cells(window: Window, seed: int) -> list[FireCell]:
    """Fire cells of the window under a seed: cores are exactly the
    clusters of the growth snapshot at t_c."""
    labels, certified = _decompose(window, clocks.first_arrival_grid(seed, window))
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
    """Forest-fire dynamics restricted to one certified cell's closure."""
    if not cell.certified:
        raise UncertifiedCellError(f"cell {cell.label} touches the window edge")
    w = cell.closure_window()
    mask = cell.closure_mask(w)
    _, records = run(w, seed, t_end, mask=mask)
    return records


@dataclass(frozen=True)
class HeightBracket:
    """One sample's destruction height in a region, under two rules.

    ``height`` and ``certified`` follow the t_c cell rule: ``height`` is
    the destruction height in the region over certified cells only.
    Records that lie in uncertified t_c cells are dropped, so on an
    uncertified sample ``height`` is a lower bound (0.0 when no other
    record remains).  ``certified`` states that ``height`` is exact, and
    only for the window's rows of the region.  With ``strict`` it requires
    every cell whose core intersects the region to be certified (the full
    certification contract, rarely satisfied at criticality); otherwise it
    only requires that no destruction record intersecting the region lies
    in an uncertified cell, so it covers only the records that the
    window's own run produces.

    ``lower`` and ``upper`` bracket the destruction height inside the
    window: ``lower`` is the largest region height over the records that
    are exact at their own time, and ``upper`` equals it when every region
    record is exact, else the window's top height.
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
    cluster = labels == labels[l0 - window.l_min, k0 - window.k_min]
    return not _edge_band(cluster).any()


def height_bracket(window: Window, seed: int, region: ConeRegion | TubeRegion,
                   strict: bool = False) -> HeightBracket:
    """Destruction height in ``region`` from one run, with its bracket.

    ``height`` and ``certified`` follow the t_c cell rule of
    :class:`HeightBracket` under ``strict``.  The bracket does not depend
    on ``strict``.
    The record-time rule runs only on region records whose t_c cell is
    uncertified; a record in a certified cell is exact under it too.  Like
    the non-strict flag, the bracket covers the records that the window's
    own run produces.
    """
    state, records = run(window, seed, T_C)
    labels, cell_certified = _decompose(window, state.arrivals)

    height = lower = 0.0
    record_ok = all_exact = True
    for rec in records:
        hs = rec.heights_in(region)
        if hs.size == 0:
            continue
        top = float(hs.max())
        k0, l0 = int(rec.sites[0, 0]), int(rec.sites[0, 1])
        lab = int(labels[l0 - window.l_min, k0 - window.k_min])
        if cell_certified[lab]:
            height = max(height, top)
            lower = max(lower, top)
            continue
        record_ok = False
        if _exact_at_record_time(state.arrivals, rec, window):
            lower = max(lower, top)
        else:
            all_exact = False
    upper = lower if all_exact else SQRT3_2 * window.l_max

    certified = record_ok
    if strict and certified:
        rr, cc = np.nonzero(~cell_certified[labels] & (labels > 0))
        ks, ls = cc + window.k_min, rr + window.l_min
        certified = not region_select(ks + 0.5 * ls, SQRT3_2 * ls, region).any()
    return HeightBracket(height, certified, lower, upper)


def destruction_log_rows(records: list[DestructionRecord],
                         region: ConeRegion | None = None) -> list[tuple]:
    """CSV-ready rows (time, ignition_k, cluster_size, max_im, in_region)."""
    rows = []
    for rec in records:
        in_region = bool(rec.heights_in(region).size) if region is not None else False
        rows.append((rec.time, rec.ignition[0], rec.size, rec.max_im, int(in_region)))
    return rows


def run_summary(state: FireState, records: list[DestructionRecord]) -> dict:
    return {
        "t_end": state.t_end,
        "window": [state.window.k_min, state.window.k_max,
                   state.window.l_min, state.window.l_max],
        "n_fires": len(records),
        "sites_destroyed": int(sum(r.size for r in records)),
        "final_occupied": int(state.occ.sum()),
        "max_destruction_height": height_of_destruction(records, None, state.t_end),
    }
