"""Event-driven forest-fire process on finite half-plane windows.

Dynamics on the window: every interior site (row l >= 1) becomes occupied
at the jumps of its own clock; every jump of a boundary-row clock (l == 0)
instantaneously destroys the occupied clusters of the four sites adjacent
to it.  The boundary row itself is held vacant at all times.  Destroyed
sites re-enter the event queue with their next clock jump, sampled lazily.

The process factorizes over fire cells: the clusters of the growth
snapshot at t_c together with their outer boundaries.  A cell whose
closure stays clear of the window edge evolves exactly as in the infinite
volume, which is what certification means here.
"""

import heapq
import math
from collections import deque
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
        mask: np.ndarray | None = None, observer=None,
        collect_events: bool = False):
    """Run the forest-fire process; returns (FireState, destruction log).

    ``mask`` restricts the dynamics to a site subset (used for fire cells);
    ``observer`` may define ``on_grow(run_ctx, t, site)`` and
    ``on_destroy(run_ctx, t, record)``, either returning True to stop.
    """
    if t_end > T_C + 1e-12:
        raise ValueError(f"t_end is capped at t_c = log 2 ~ {T_C:.6f}")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if mask is None and window.l_min != 0:
        raise ValueError("forest-fire windows live on the half-plane, l_min = 0")
    ctx = _FireRun(window, seed, t_end, mask, observer, collect_events)
    ctx.execute()
    state = FireState(window, ctx.occ, t_end, mask, ctx.events, ctx.arrivals)
    return state, ctx.records


class _FireRun:
    """Mutable single-run state; one instance per run, not shared."""

    def __init__(self, window, seed, t_end, mask, observer, collect_events):
        self.window = window
        self.seed = seed
        self.t_end = t_end
        self.observer = observer
        self.records: list[DestructionRecord] = []
        self.events: list[FireEvent] = [] if collect_events else None
        self.collect_events = collect_events

        n_rows, n_cols = window.n_rows, window.n_cols
        self.n_cols = n_cols
        self.n_rows = n_rows
        self.arrivals = arrivals = clocks.first_arrival_grid(seed, window)
        self.occ = np.zeros((n_rows, n_cols), dtype=np.uint8)
        if mask is None:
            mask = np.ones((n_rows, n_cols), dtype=bool)
        self.mask = mask

        K, L = window.axial_grids()
        interior = mask & (L >= 1) & (arrivals <= t_end)
        flat = np.flatnonzero(interior.ravel())
        a = arrivals.ravel()[flat]
        order = flat[np.lexsort((flat % n_cols, flat // n_cols, a))]
        self.g_times = arrivals.ravel()[order]
        self.g_rows = (order // n_cols).astype(np.int64)
        self.g_cols = (order % n_cols).astype(np.int64)

        b_times, b_ks = [], []
        if window.l_min == 0:
            row = 0
            for c in range(n_cols):
                if not mask[row, c]:
                    continue
                k = c + window.k_min
                for tj in clocks.jumps_in(seed, (k, 0), 0.0, t_end):
                    b_times.append(tj)
                    b_ks.append(k)
        b_order = np.lexsort((np.array(b_ks, dtype=np.int64),
                              np.array(b_times, dtype=np.float64)))
        self.b_times = np.array(b_times, dtype=np.float64)[b_order]
        self.b_ks = np.array(b_ks, dtype=np.int64)[b_order]

        self.regrow: list[tuple[float, int, int]] = []  # (t, l, k)

    def execute(self) -> None:
        gi, ng = 0, self.g_times.size
        bi, nb = 0, self.b_times.size
        g_times, g_rows, g_cols = self.g_times, self.g_rows, self.g_cols
        b_times, b_ks = self.b_times, self.b_ks
        regrow = self.regrow
        occ = self.occ
        window = self.window
        l_min, k_min = window.l_min, window.k_min

        while gi < ng or bi < nb or regrow:
            # Lexicographic (time, l, k) across the three event sources.
            best, key = None, None
            if gi < ng:
                best = "g"
                key = (float(g_times[gi]), int(g_rows[gi]) + l_min,
                       int(g_cols[gi]) + k_min)
            if bi < nb:
                kb = (float(b_times[bi]), 0, int(b_ks[bi]))
                if key is None or kb < key:
                    best, key = "b", kb
            if regrow:
                kr = regrow[0]
                if key is None or kr < key:
                    best, key = "r", kr

            if best == "g":
                gi += 1
                t, l, k = key
                r, c = l - l_min, k - k_min
                if occ[r, c]:
                    continue
                if self._grow(t, r, c):
                    return
            elif best == "r":
                t, l, k = heapq.heappop(regrow)
                r, c = l - l_min, k - k_min
                if occ[r, c]:
                    continue
                if self._grow(t, r, c):
                    return
            else:
                bi += 1
                t, _, k = key
                if self._ring(t, k):
                    return

    def _grow(self, t: float, r: int, c: int) -> bool:
        self.occ[r, c] = 1
        site = (c + self.window.k_min, r + self.window.l_min)
        if self.collect_events:
            self.events.append(FireEvent(t, site, "grow"))
        if self.observer is not None:
            stop = getattr(self.observer, "on_grow", None)
            if stop is not None and stop(self, t, site):
                return True
        return False

    def _ring(self, t: float, k: int) -> bool:
        if self.collect_events:
            self.events.append(FireEvent(t, (k, 0), "ring"))
        window = self.window
        occ = self.occ
        mask = self.mask
        n_rows, n_cols = self.n_rows, self.n_cols
        l_min, k_min = window.l_min, window.k_min
        for (vk, vl) in ((k, 1), (k - 1, 1)):
            r, c = vl - l_min, vk - k_min
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                continue
            if not occ[r, c]:
                continue
            # BFS over the occupied cluster; clear as we collect.
            stack = deque([(r, c)])
            occ[r, c] = 0
            burned = []
            while stack:
                rr, cc = stack.popleft()
                burned.append((cc + k_min, rr + l_min))
                for dl, dk in GRID_OFFSETS:
                    r2, c2 = rr + dl, cc + dk
                    if 0 <= r2 < n_rows and 0 <= c2 < n_cols and occ[r2, c2]:
                        occ[r2, c2] = 0
                        stack.append((r2, c2))
            sites = np.array(burned, dtype=np.int64)
            record = DestructionRecord(t, (k, 0), sites)
            self.records.append(record)
            for (bk, bl) in burned:
                nxt = clocks.next_jump_after(self.seed, (bk, bl), t, self.t_end)
                if nxt is not None:
                    heapq.heappush(self.regrow, (nxt, bl, bk))
            if self.observer is not None:
                stop = getattr(self.observer, "on_destroy", None)
                if stop is not None and stop(self, t, record):
                    return True
        return False


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


def _decompose(window: Window, arrivals: np.ndarray):
    """Label the t_c snapshot of the window's first-arrival grid; returns
    (cells, label grid)."""
    if window.l_min != 0:
        raise ValueError("cell decomposition lives on half-plane windows")
    occ = arrivals <= T_C
    labels, n_lab = ndimage.label(occ, structure=TRI_STRUCTURE)
    cells = []
    if n_lab == 0:
        return cells, labels
    slices = ndimage.find_objects(labels)
    for lab, slc in enumerate(slices, start=1):
        if slc is None:
            continue
        r0 = max(slc[0].start - 1, 0)
        r1 = min(slc[0].stop + 1, window.n_rows)
        c0 = max(slc[1].start - 1, 0)
        c1 = min(slc[1].stop + 1, window.n_cols)
        local = labels[r0:r1, c0:c1] == lab
        dil = ndimage.binary_dilation(local, structure=TRI_STRUCTURE)
        rr, cc = np.nonzero(local)
        core = np.column_stack((cc + c0 + window.k_min, rr + r0 + window.l_min))
        rr2, cc2 = np.nonzero(dil)
        closure = np.column_stack((cc2 + c0 + window.k_min, rr2 + r0 + window.l_min))
        # Dilation clipped at the array edge loses out-of-window sites; any
        # core site on the edge already marks the cell uncertified below.
        ks, ls = closure[:, 0], closure[:, 1]
        certified = bool(
            (ks > window.k_min).all() and (ks < window.k_max).all()
            and (ls < window.l_max).all()
            and (core[:, 0] > window.k_min).all() and (core[:, 0] < window.k_max).all()
            and (core[:, 1] < window.l_max).all()
        )
        cells.append(FireCell(lab, core, closure, certified))
    return cells, labels


def decompose_cells(window: Window, seed: int) -> list[FireCell]:
    """Fire cells of the window under a seed: cores are exactly the
    clusters of the growth snapshot at t_c."""
    return _decompose(window, clocks.first_arrival_grid(seed, window))[0]


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

    ``height`` and ``certified`` follow the t_c cell rule of
    ``certified_height``.  ``lower`` and ``upper`` bracket the destruction
    height inside the window: ``lower`` is the largest region height over
    the records that are exact at their own time, and ``upper`` equals it
    when every region record is exact, else the window's top height.
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
    # A site in the two outermost columns on either side, or in the two top
    # rows, has an outer boundary that meets the window edge.
    return not (cluster[:, :2].any() or cluster[:, -2:].any()
                or cluster[-2:, :].any())


def height_bracket(window: Window, seed: int, region: ConeRegion | TubeRegion,
                   strict: bool = False) -> HeightBracket:
    """Destruction height in ``region`` from one run, with its bracket.

    ``height`` and ``certified`` are those of ``certified_height`` (whose
    ``strict`` they follow).  The bracket does not depend on ``strict``.
    The record-time rule runs only on region records whose t_c cell is
    uncertified; a record in a certified cell is exact under it too.  Like
    the non-strict flag, the bracket covers the records that the window's
    own run produces.
    """
    state, records = run(window, seed, T_C)
    cells, labels = _decompose(window, state.arrivals)
    cert = {cell.label: cell.certified for cell in cells}

    height = lower = 0.0
    record_ok = all_exact = True
    for rec in records:
        hs = rec.heights_in(region)
        if hs.size == 0:
            continue
        top = float(hs.max())
        k0, l0 = int(rec.sites[0, 0]), int(rec.sites[0, 1])
        lab = int(labels[l0 - window.l_min, k0 - window.k_min])
        if cert.get(lab, False):
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
        for cell in cells:
            if cell.certified:
                continue
            ks = cell.core[:, 0].astype(np.float64)
            ls = cell.core[:, 1].astype(np.float64)
            xs, ys = ks + 0.5 * ls, SQRT3_2 * ls
            if region_select(xs, ys, region).any():
                certified = False
                break
    return HeightBracket(height, certified, lower, upper)


def certified_height(window: Window, seed: int, region: ConeRegion | TubeRegion,
                     strict: bool = False) -> tuple[float, bool]:
    """Destruction height in ``region`` over certified cells only.

    Records that lie in uncertified t_c cells are dropped, so on an
    uncertified sample the height is a lower bound (0.0 when no other
    record remains).  The returned flag states that the value is exact,
    and only for the window's rows of the region.  With ``strict=True`` it
    requires every cell whose core intersects the region to be certified
    (the full certification contract, rarely satisfied at criticality);
    the default only requires that no destruction record intersecting the
    region lies in an uncertified cell, so it covers only the records that
    the window's own run produces.
    """
    b = height_bracket(window, seed, region, strict)
    return b.height, b.certified


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
