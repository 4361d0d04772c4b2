"""Pure growth process on finite windows and its connectivity queries.

The configuration at time t marks a site occupied iff its clock's first
arrival is <= t; at fixed t this is independent site percolation with
p = 1 - exp(-t).  Connection events follow the convention that a site w is
connected to a region S when some occupied neighbor of w starts a 1-path
ending within Euclidean distance 1 of S; w's own state is ignored.
"""

import math
from collections import deque
from dataclasses import replace
from functools import lru_cache

import numpy as np
from scipy import ndimage

from . import clocks
from .clocks import T_C
from .lattice import (
    SQRT3_2,
    TRI_STRUCTURE,
    ConeRegion,
    RhombusSurface,
    Site,
    TubeRegion,
    Window,
    half_plane_neighbors,
    near_cone_mask,
    near_surface_mask,
    neighbors,
)


# Sites a query window extends beyond the dist-1 band of its target.
PAD = 2


class WindowTooSmallError(ValueError):
    """The window does not cover the target geometry plus padding."""


def check_window(window: Window, target, half_plane: bool) -> None:
    """Raise :class:`WindowTooSmallError` unless the window contains the
    target's own window, ``window_for_rhombus`` for a rhombus and
    ``window_for_cone`` or ``window_for_tube`` up to the window's top row
    for a cone or a tube, and, for a half-plane query, has no rows below
    l = 0."""
    if half_plane and window.l_min < 0:
        raise WindowTooSmallError(f"half-plane window {window} reaches below l = 0")
    if isinstance(target, RhombusSurface):
        need = window_for_rhombus(target.center, target.n, target.phi, half_plane)
    elif isinstance(target, ConeRegion):
        need = window_for_cone(target, window.l_max)
    elif isinstance(target, TubeRegion):
        need = window_for_tube(target, window.l_max)
    else:
        raise TypeError(f"unsupported target {target!r}")
    if not (window.k_min <= need.k_min and need.k_max <= window.k_max
            and window.l_min <= need.l_min and need.l_max <= window.l_max):
        raise WindowTooSmallError(f"window {window} too small for {target}")


@lru_cache(maxsize=64)
def target_mask(window: Window, target, half_plane: bool) -> np.ndarray:
    """Grid mask of sites within distance 1 of the target region.

    Cached per (window, target); the array is read-only.
    """
    if isinstance(target, RhombusSurface):
        mask = near_surface_mask(window, target, half_plane)
    elif isinstance(target, ConeRegion):
        mask = near_cone_mask(window, target)
    else:
        raise TypeError(f"unsupported target {target!r}")
    mask.flags.writeable = False
    return mask


def _ends(w: Site, target, window: Window, half_plane: bool):
    """The grid indices of w's neighbours in the window as a (rows, cols)
    pair of arrays, and the target band (read-only)."""
    ys = half_plane_neighbors(w) if half_plane else neighbors(w)
    starts = np.array([window.index(y) for y in ys if window.contains(y)],
                      dtype=np.intp).reshape(-1, 2).T
    starts.flags.writeable = False
    return starts, target_mask(window, target, half_plane)


@lru_cache(maxsize=64)
def _query(w: Site, target, window: Window, half_plane: bool):
    """Per-query setup: the window check, then ``_ends`` (cached per query
    geometry)."""
    check_window(window, target, half_plane)
    return _ends(w, target, window, half_plane)


# The label structure of a stack of grids: TRI_STRUCTURE in its middle
# plane and zeros elsewhere, so that no cluster joins two planes.
_STACK_STRUCTURE = np.zeros((3, 3, 3), dtype=bool)
_STACK_STRUCTURE[1] = TRI_STRUCTURE


def _start_clusters(occ: np.ndarray, starts: np.ndarray):
    """The cluster labels of ``occ`` and a per-label flag marking the
    clusters that hold an occupied start site, given as a (rows, cols)
    pair of index arrays.  ``occ`` is one grid, or a stack of grids with a
    leading seed axis, labelled plane by plane with the same start sites in
    every plane."""
    structure = TRI_STRUCTURE if occ.ndim == 2 else _STACK_STRUCTURE
    labels, n_lab = ndimage.label(occ, structure=structure)
    is_start = np.zeros(n_lab + 1, dtype=bool)
    is_start[labels[..., starts[0], starts[1]]] = True
    is_start[0] = False  # label 0 marks the vacant sites
    return labels, is_start


def _connects(occ: np.ndarray, starts: np.ndarray, tmask: np.ndarray) -> bool:
    """Whether an occupied start site shares a cluster of ``occ`` with an
    occupied site of the target band ``tmask``."""
    labels, is_start = _start_clusters(occ, starts)
    return bool(is_start[labels[tmask]].any())


def is_connected(w: Site, target, window: Window, occ: np.ndarray,
                 half_plane: bool = True) -> bool:
    """Whether some occupied neighbor of w reaches within distance 1 of the
    target through a 1-path of the occupancy grid ``occ`` of the window."""
    return _connects(occ, *_query(w, target, window, half_plane))


def first_connection_time(w: Site, target, window: Window, seed: int,
                          half_plane: bool = True):
    """Minimal t <= t_c at which ``is_connected`` holds; None otherwise.

    The reference: ``verify``'s first-connection oracle
    (``invariants.connection_failures``) checks it, and the tests check the
    estimators' threshold queries, which ask "T < s?" of one snapshot,
    against it; no estimator calls it.  The growth process only adds
    sites, so the connection is monotone in t and first holds at a
    first-arrival time.  A bisection over the distinct arrivals up to t_c
    finds it, labelling one snapshot per probe.
    """
    starts, tmask = _query(w, target, window, half_plane)
    arrivals = clocks.first_arrival_grid(seed, window)

    def holds(t: float) -> bool:
        return _connects(arrivals <= t, starts, tmask)

    if not holds(T_C):
        return None
    times = np.unique(arrivals[arrivals <= T_C])
    lo, hi = 0, times.size - 1  # holds(times[hi]); not holds below times[lo]
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(float(times[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(times[lo])


@lru_cache(maxsize=256)
def window_for_rhombus(center: Site, n: int, phi: float, half_plane: bool) -> Window:
    """The axial bounding box of the rhombus, clipped to l >= 0 on the half
    plane, widened to hold every site within distance 1 + PAD of it
    (cached; ``Window`` is frozen).

    The box spans the axial coordinates l = y / SQRT3_2, k = x - l/2 of the
    clipped surface's segment ends; a disc of radius r reaches r / SQRT3_2
    in both k and l, so that is the widening.  On the half plane k <= x,
    so k_max is also capped at max x + r; that only tightens the flattest
    rhombi, under a row high.  The window is exact for a query from any
    site inside the rhombus: the clipped rhombus is convex, so a 1-path
    from w's neighbours stays inside it until it meets the dist-1 band,
    and every site within distance 1 + PAD of the rhombus lies in the box.
    """
    ends = [p for ax, ay, bx, by in RhombusSurface(center, n, phi).segments(half_plane)
            for p in ((ax, ay), (bx, by))]
    if not ends:
        raise ValueError("surface entirely below the half-plane")
    ls = [y / SQRT3_2 for _, y in ends]
    ks = [x - 0.5 * l for (x, _), l in zip(ends, ls)]
    margin = (1.0 + PAD) / SQRT3_2
    k_hi = max(ks) + margin
    l_lo = math.floor(min(ls) - margin)
    if half_plane:
        k_hi = min(k_hi, max(x for x, _ in ends) + 1.0 + PAD)
        l_lo = max(l_lo, 0)
    return Window(math.floor(min(ks) - margin), math.ceil(k_hi),
                  l_lo, math.ceil(max(ls) + margin))


def window_for_cone(cone: ConeRegion, l_top: int) -> Window:
    """Half-plane window of rows 0..l_top covering the cone's cross-section
    at the top row, its dist-1 band and PAD extra sites on either side.
    Keep the operation order: at phi = pi/3 the bounds sit on integers in
    real arithmetic, and event A's counts were frozen on this order."""
    y_top = l_top * math.sqrt(3.0) / 2.0
    half = cone.half_width_at(y_top)
    margin = 1.0 + PAD
    k_lo = math.floor(cone.apex_x - half - margin - 0.5 * l_top)
    k_hi = math.ceil(cone.apex_x + half + margin)
    return Window(k_lo, k_hi, 0, l_top)


def window_for_tube(tube: TubeRegion, l_top: int) -> Window:
    """Half-plane window of rows 0..l_top covering the tube's cross-sections
    on those rows, its dist-1 band and PAD extra sites on either side: the
    points within r = 0.5 + 1 + PAD of the centreline.  Such a point lies
    within r of a centreline point, so at most r beyond x on the side the
    centreline does not go; and within r / sin(phi), horizontally, of the
    centreline's line, whose x is x + y * cot(phi) at height y.
    """
    r = 0.5 + 1.0 + PAD
    shift = l_top * SQRT3_2 * math.cos(tube.phi) / math.sin(tube.phi)
    reach = r / math.sin(tube.phi)
    k_lo = math.floor(tube.x + min(-r, shift - reach) - 0.5 * l_top)
    k_hi = math.ceil(tube.x + max(r, shift + reach))
    return Window(k_lo, k_hi, 0, l_top)


def one_arm_indicators(n: int, t: float, phi: float, seeds,
                       half_plane: bool = True, engine: str = "auto") -> np.ndarray:
    """Bernoulli samples of the one-arm event for the origin, one per seed,
    as a bool array.

    ``engine='auto'`` climbs a ladder of windows around the origin with all
    seeds at once (see :func:`_ladder_query`); ``engine='walk'`` grows each
    seed's origin cluster lazily, the independent oracle.  Both produce
    identical indicators for the same seed, equal to ``is_connected`` on
    the full window's snapshot.  ``'grid'`` is an old name of ``'auto'``,
    kept only because the benchmark's workloads still spell it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not t >= 0.0:  # NaN too
        raise ValueError("time must be >= 0")
    surface = RhombusSurface((0, 0), n, phi)
    if engine in ("auto", "grid"):
        return _ladder_query(surface, seeds, half_plane)(t)
    if engine == "walk":
        return np.array([_one_arm_walk(surface, t, seed, half_plane)
                         for seed in seeds], dtype=bool)
    raise ValueError(f"unknown engine {engine!r}")


# Ladder rungs: rhombi of half side n // RUNG_RATIO**i, down to MIN_RUNG.
# A rung has roughly 1/16 of the next one's sites (more on small rungs,
# where the padding counts), so a sample that climbs the whole ladder hashes
# and labels 8-18% more sites than the full window alone (n = 16 ... 256,
# phi = pi/3, half plane).
RUNG_RATIO = 4
MIN_RUNG = 4
# Sites in one hashed and labelled stack of a rung, unless a single seed's
# rung is larger (n = 256's full window, 135,981 sites, goes one seed at a
# time).
MAX_STACK_SITES = 1 << 18
# Most sites of hashed bits (one seed's grid or one stack) a ladder query
# keeps for its later calls.  Larger bits are compared and dropped before
# labelling: keeping stacks up to MAX_STACK_SITES held n = 128 and 256
# stacks across the labelling and cost one-arm queries about 5%.
KEEP_SITES = 1 << 15


def _ladder_query(surface: RhombusSurface, seeds, half_plane: bool,
                  target=None, window: Window | None = None):
    """``connected(t)``: for each seed, ``is_connected`` for the rhombus
    centre w on the snapshot at time t of the full window, as a bool array,
    each decided on the smallest rung of a window ladder that settles it.
    The target and the full window are the surface and
    ``window_for_rhombus`` of it, or ``target`` inside ``window``: a window
    that starts above row 0 holds the rows below it vacant (event A asks
    for the cone on rows l >= 1).  ``t`` is one time for all seeds or a
    sequence of one time per seed; a seed whose time holds no site
    (``arrival_bound`` -1: NaN, or <= 0) answers False without hashing, so
    NaN leaves a seed out of a call.

    Rung m is ``window_for_rhombus(w, m, ...)`` clipped to the full window,
    for m = n/4, n/16, ... >= MIN_RUNG, smallest first, then the full
    window; the rungs nest, and a rhombus's own rungs lie inside its window
    unclipped.  A site's clock depends only on (seed, site), so a rung sees
    the full window's bits.  A start cluster of a rung is part of a start
    cluster of the full window, so one that meets the target band decides
    True.  One that touches no rung edge the full window extends past is a
    whole cluster, so when none meets the band the answer is False; with no
    occupied start there is no start cluster, and the first rung answers
    False.  On each rung the seeds still undecided form (seeds, rows, cols)
    stacks of at most MAX_STACK_SITES sites, each labelled plane by plane in
    one call on ``bits <= q[:, None, None]``, with q the seeds'
    ``arrival_bound`` of their times, equal to ``first_arrival_grid(...) <=
    t`` (``bits <= q`` with one int when the stack's seeds share a bound);
    the seeds a rung decides drop out before the next rung.  One seed is
    hashed and labelled as a plain grid.

    The query keeps hashed bits between calls: a group of seeds asked again
    on a rung where all of them have kept bits is not hashed again.  It
    keeps a stack, or one seed's grid, of at most KEEP_SITES sites; larger
    bits are compared and dropped before they are labelled.
    """
    rungs = _ladder(surface, half_plane, target, window)
    seeds = list(seeds)
    kept = {}  # per rung: hashed bits by seed index

    def occupancy(rung: int, group: list[int], q: list[int]) -> np.ndarray:
        """The group's occupancy on the rung at the seeds' bounds q, a grid
        for one seed, else a stack: from kept bits if every seed of the
        group has them, else from fresh bits, kept if they fit."""
        have = kept.setdefault(rung, {})
        if have and all(i in have for i in group):
            bits = np.stack([have[i] for i in group]) if len(group) > 1 else have[group[0]]
        else:
            picked = [seeds[i] for i in group]
            bits = clocks.first_arrival_bits(
                picked if len(picked) > 1 else picked[0], rungs[rung][0])
            if bits.size <= KEEP_SITES:
                have.update(zip(group, bits if bits.ndim == 3 else [bits]))
        bounds = {q[i] for i in group}
        if len(bounds) == 1:  # twice as fast as comparing plane by plane
            return bits <= bounds.pop()
        return bits <= np.array([q[i] for i in group], dtype=np.uint64)[:, None, None]

    def connected(t) -> np.ndarray:
        out = np.zeros(len(seeds), dtype=bool)
        if isinstance(t, (list, tuple, np.ndarray)):
            q = [clocks.arrival_bound(s) for s in t]
        else:
            q = [clocks.arrival_bound(t)] * len(seeds)
        if len(q) != len(seeds):
            raise ValueError(f"{len(q)} times for {len(seeds)} seeds")
        todo = [i for i, b in enumerate(q) if b >= 0]
        for rung, (sub, starts, watched, n_band) in enumerate(rungs):
            step = max(1, MAX_STACK_SITES // sub.n_sites)
            undecided = []
            for g in range(0, len(todo), step):
                group = todo[g:g + step]
                labels, is_start = _start_clusters(occupancy(rung, group, q), starts)
                seen = is_start[labels.reshape(len(group), -1).take(watched, axis=1)]
                hit = seen[:, :n_band].any(axis=1).tolist()
                on_edge = seen[:, n_band:].any(axis=1).tolist()
                for i, h, e in zip(group, hit, on_edge):
                    if h:
                        out[i] = True
                    elif e:
                        undecided.append(i)
            todo = undecided
            if not todo:
                break
        return out

    return connected


@lru_cache(maxsize=64)
def _ladder(surface: RhombusSurface, half_plane: bool, target=None,
            window: Window | None = None) -> tuple:
    """The rungs of a ladder query from the rhombus centre to ``target``
    inside ``window`` (default: the surface inside its own window), smallest
    first.

    A rung is ``(window, starts, watched, n_band)``: the rung window, the
    grid indices of the centre's in-window neighbours in it, and the flat
    indices of its sites in the target band (the first ``n_band``) and then
    of its sites on an edge the full window extends past.  The full window,
    down to row 0 if it starts above it, must pass ``check_window``.
    Cached per query geometry; the arrays are read-only.
    """
    center = surface.center
    if target is None:
        target = surface
        window = window_for_rhombus(center, surface.n, surface.phi, half_plane)
    check_window(replace(window, l_min=min(window.l_min, 0)), target, half_plane)
    subs = [window]
    m = surface.n // RUNG_RATIO
    while m >= MIN_RUNG:
        sub = window_for_rhombus(center, m, surface.phi, half_plane)
        subs.append(Window(max(sub.k_min, window.k_min), min(sub.k_max, window.k_max),
                           max(sub.l_min, window.l_min), min(sub.l_max, window.l_max)))
        m //= RUNG_RATIO
    starts, tmask = _ends(center, target, window, half_plane)
    rungs = []
    for sub in reversed(subs):
        r0, c0 = sub.l_min - window.l_min, sub.k_min - window.k_min
        edge = np.zeros((sub.n_rows, sub.n_cols), dtype=bool)
        edge[0] |= sub.l_min > window.l_min
        edge[-1] |= sub.l_max < window.l_max
        edge[:, 0] |= sub.k_min > window.k_min
        edge[:, -1] |= sub.k_max < window.k_max
        band = np.flatnonzero(tmask[r0:r0 + sub.n_rows, c0:c0 + sub.n_cols])
        sub_starts = starts - np.array([[r0], [c0]])
        watched = np.concatenate((band, np.flatnonzero(edge)))
        sub_starts.flags.writeable = watched.flags.writeable = False
        rungs.append((sub, sub_starts, watched, band.size))
    return tuple(rungs)


def _one_arm_walk(surface: RhombusSurface, t: float, seed: int,
                  half_plane: bool) -> bool:
    """Lazy cluster growth from the origin's neighborhood, stopping at the
    grid engine's target band."""
    window = window_for_rhombus(surface.center, surface.n, surface.phi, half_plane)
    tmask = target_mask(window, surface, half_plane)
    occupied_cache: dict[Site, bool] = {}

    def occupied(site: Site) -> bool:
        val = occupied_cache.get(site)
        if val is None:
            val = clocks.first_arrival_value(seed, site) <= t
            occupied_cache[site] = val
        return val

    queue: deque[Site] = deque()
    seen: set[Site] = set()
    for y in neighbors((0, 0)):
        if (not half_plane or y[1] >= 0) and window.contains(y) and y not in seen:
            seen.add(y)
            if occupied(y):
                queue.append(y)
    while queue:
        s = queue.popleft()
        if tmask[window.index(s)]:
            return True
        for v in neighbors(s):
            if v in seen or not window.contains(v):
                continue
            if half_plane and v[1] < 0:
                continue
            seen.add(v)
            if occupied(v):
                queue.append(v)
    return False
