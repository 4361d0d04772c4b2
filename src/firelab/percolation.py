"""Pure growth process on finite windows and its connectivity queries.

The configuration at time t marks a site occupied iff its clock's first
arrival is <= t; at fixed t this is independent site percolation with
p = 1 - exp(-t).  Connection events follow the convention that a site w is
connected to a region S when some occupied neighbor of w starts a 1-path
ending within Euclidean distance 1 of S; w's own state is ignored.
"""

import math
from collections import deque
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


def sample_configuration(window: Window, t: float, seed: int) -> np.ndarray:
    """Deterministic growth snapshot at time t under a run seed, as the
    boolean occupancy grid of a half-plane window."""
    if t < 0.0:
        raise ValueError("time must be >= 0")
    if window.l_min < 0:
        raise ValueError("half-plane window must not reach below l = 0")
    return clocks.first_arrival_grid(seed, window) <= t


def check_window(window: Window, target, half_plane: bool) -> None:
    """Raise :class:`WindowTooSmallError` unless the window extends at least
    PAD sites beyond the dist-1 band of the target geometry, and, for a
    half-plane query, has no rows below l = 0."""
    if half_plane and window.l_min < 0:
        raise WindowTooSmallError(f"half-plane window {window} reaches below l = 0")
    if isinstance(target, RhombusSurface):
        need = window_for_rhombus(target.center, target.n, target.phi, half_plane)
        if not (window.k_min <= need.k_min and need.k_max <= window.k_max
                and window.l_min <= need.l_min and need.l_max <= window.l_max):
            raise WindowTooSmallError(
                f"window {window} too small for rhombus n={target.n} at {target.center}")
    elif isinstance(target, ConeRegion):
        # Infinite region: require sideways coverage up to the window top.
        margin = 1.0 + PAD
        y_top = SQRT3_2 * window.l_max
        half = target.half_width_at(y_top)
        x0, x1 = target.apex_x - half, target.apex_x + half
        k_lo = math.floor(x0 - margin - 0.5 * window.l_max)
        k_hi = math.ceil(x1 + margin)
        if window.k_min > k_lo or window.k_max < k_hi:
            raise WindowTooSmallError(f"window {window} too narrow for cone {target}")
    else:
        raise TypeError(f"unsupported target {target!r}")


@lru_cache(maxsize=64)
def _cached_target_mask(window: Window, target, half_plane: bool) -> np.ndarray:
    if isinstance(target, RhombusSurface):
        return near_surface_mask(window, target, half_plane)
    if isinstance(target, ConeRegion):
        return near_cone_mask(window, target)
    raise TypeError(f"unsupported target {target!r}")


def target_mask(window: Window, target, half_plane: bool) -> np.ndarray:
    """Grid mask of sites within distance 1 of the target region.

    Cached per (window, target); callers must treat the array as read-only.
    """
    return _cached_target_mask(window, target, half_plane)


def _query(w: Site, target, window: Window, half_plane: bool):
    """Per-query setup: the window check, the grid indices of w's
    neighbours in the window as a (rows, cols) pair of arrays and the
    target band."""
    check_window(window, target, half_plane)
    ys = half_plane_neighbors(w) if half_plane else neighbors(w)
    starts = np.array([window.index(y) for y in ys if window.contains(y)],
                      dtype=np.intp).reshape(-1, 2).T
    return starts, target_mask(window, target, half_plane)


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
    """Smallest axial window covering the rhombus, its dist-1 band and PAD
    extra sites in every direction (cached; ``Window`` is frozen)."""
    surface = RhombusSurface(center, n, phi)
    x0, x1, y0, y1 = surface.bounding_box(half_plane)
    margin = 1.0 + PAD
    l_lo = math.floor((y0 - margin) / SQRT3_2)
    if half_plane:
        l_lo = max(l_lo, 0)
    l_hi = math.ceil((y1 + margin) / SQRT3_2)
    k_lo = math.floor(x0 - margin - 0.5 * l_hi)
    k_hi = math.ceil(x1 + margin - 0.5 * min(l_lo, 0))
    return Window(k_lo, k_hi, l_lo, l_hi)


def one_arm_indicators(n: int, t: float, phi: float, seeds,
                       half_plane: bool = True, engine: str = "auto") -> np.ndarray:
    """Bernoulli samples of the one-arm event for the origin, one per seed,
    as a bool array.

    ``engine='auto'`` (or ``'grid'``) climbs a ladder of windows around the
    origin with all seeds at once (see :func:`_ladder_query`);
    ``engine='walk'`` grows each seed's origin cluster lazily, the
    independent oracle.  Both produce identical indicators for the same
    seed, equal to ``is_connected`` on the full window's snapshot.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 0.0:
        raise ValueError("time must be >= 0")
    origin: Site = (0, 0)
    surface = RhombusSurface(origin, n, phi)
    window = window_for_rhombus(origin, n, phi, half_plane)
    if engine in ("auto", "grid"):
        return _ladder_query(surface, window, seeds, half_plane)(t)
    if engine == "walk":
        return np.array([_one_arm_walk(surface, window, t, seed, half_plane)
                         for seed in seeds], dtype=bool)
    raise ValueError(f"unknown engine {engine!r}")


def one_arm_indicator(n: int, t: float, phi: float, seed: int,
                      half_plane: bool = True, engine: str = "auto") -> bool:
    """One Bernoulli sample of the one-arm event for the origin: a chunk of
    one seed of :func:`one_arm_indicators`."""
    return bool(one_arm_indicators(n, t, phi, [seed], half_plane, engine)[0])


# Ladder rungs: rhombi of half side n // RUNG_RATIO**i, down to MIN_RUNG.
# A rung has roughly 1/16 of the next one's sites (more on small rungs,
# where the padding counts), so a sample that climbs the whole ladder hashes
# and labels 7-16% more sites than the full window alone (n = 16 ... 256).
RUNG_RATIO = 4
MIN_RUNG = 4
# Sites in one hashed and labelled stack of a rung, unless a single seed's
# rung is larger (n = 256's full window, 202,797 sites, goes alone).
MAX_STACK_SITES = 1 << 18


def _ladder_query(surface: RhombusSurface, window: Window, seeds,
                  half_plane: bool):
    """``connected(t)``: for each seed, ``is_connected`` for the rhombus
    centre on the full window's snapshot at time t, as a bool array, each
    decided on the smallest rung of a window ladder that settles it.

    Rung m is ``window_for_rhombus(centre, m, ...)`` for m = n/4, n/16, ...
    >= MIN_RUNG, smallest first, then the full window; the rungs nest.  A
    site's clock depends only on (seed, site), so a rung sees the full
    window's bits.  A start cluster of a rung is part of a start cluster of
    the full window, so one that meets the target band decides True.  One
    that touches no rung edge the full window extends past is a whole
    cluster, so when none meets the band the answer is False.  On each rung
    the seeds still undecided are hashed as one (seeds, rows, cols) stack of
    at most MAX_STACK_SITES sites and labelled plane by plane in one call;
    the seeds it decides drop out before the next rung.  A query of one
    seed, the only kind asked more than one threshold, hashes each rung
    once, on first use, and keeps it; every threshold labels its own
    snapshot of it.
    """
    rungs = _ladder(surface, window, half_plane)
    seeds = list(seeds)
    kept: dict[int, np.ndarray] = {}  # a one-seed query's grids, by rung

    def arrivals(rung: int, group: list[int]) -> np.ndarray:
        if rung in kept:
            return kept[rung]
        # One seed is hashed and labelled as a plain grid: cheaper per
        # call, and the decisions below read it as a stack of one.
        picked = [seeds[i] for i in group]
        stack = clocks.first_arrival_grid(
            picked if len(picked) > 1 else picked[0], rungs[rung][0])
        if len(seeds) == 1:
            kept[rung] = stack
        return stack

    def connected(t: float) -> np.ndarray:
        out = np.zeros(len(seeds), dtype=bool)
        todo = list(range(len(seeds)))
        for rung, (sub, starts, watched, n_band) in enumerate(rungs):
            step = max(1, MAX_STACK_SITES // sub.n_sites)
            undecided = []
            for g in range(0, len(todo), step):
                group = todo[g:g + step]
                labels, is_start = _start_clusters(arrivals(rung, group) <= t, starts)
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
def _ladder(surface: RhombusSurface, window: Window, half_plane: bool) -> tuple:
    """The rungs of a ladder query for the rhombus centre, smallest first.

    A rung is ``(window, starts, watched, n_band)``: the rung window, the
    grid indices of the centre's in-window neighbours in it, and the flat
    indices of its sites in the target band (the first ``n_band``) and then
    of its sites on an edge the full window extends past.  Cached per query
    geometry; the arrays are read-only.
    """
    center = surface.center
    subs = [window]
    m = surface.n // RUNG_RATIO
    while m >= MIN_RUNG:
        subs.append(window_for_rhombus(center, m, surface.phi, half_plane))
        m //= RUNG_RATIO
    starts, tmask = _query(center, surface, window, half_plane)
    rungs = []
    for sub in reversed(subs):
        r0, c0 = sub.l_min - window.l_min, sub.k_min - window.k_min
        edge = np.zeros((sub.n_rows, sub.n_cols), dtype=bool)
        edge[0] |= sub.l_min > window.l_min
        edge[-1] |= sub.l_max < window.l_max
        edge[:, 0] |= sub.k_min > window.k_min
        edge[:, -1] |= sub.k_max < window.k_max
        band = np.flatnonzero(tmask[r0:r0 + sub.n_rows, c0:c0 + sub.n_cols])
        rungs.append((sub,
                      starts - np.array([[r0], [c0]]),
                      np.concatenate((band, np.flatnonzero(edge))), band.size))
    return tuple(rungs)


def _one_arm_walk(surface: RhombusSurface, window: Window, t: float,
                  seed: int, half_plane: bool) -> bool:
    """Lazy cluster growth from the origin's neighborhood, stopping at the
    grid engine's target band."""
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
