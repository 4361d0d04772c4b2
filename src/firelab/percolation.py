"""Pure growth process on finite windows and its connectivity queries.

The configuration at time t marks a site occupied iff its clock's first
arrival is <= t; at fixed t this is independent site percolation with
p = 1 - exp(-t).  Connection events follow the convention that a site w is
connected to a region S when some occupied neighbor of w starts a 1-path
ending within Euclidean distance 1 of S; w's own state is ignored.
"""

import math
from collections import deque
from dataclasses import dataclass, field
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
    embed,
    half_plane_neighbors,
    near_cone_mask,
    near_surface_mask,
    neighbors,
    seg_dist_sq,
)


class WindowTooSmallError(ValueError):
    """The window does not cover the target geometry plus padding."""


@dataclass
class GrowthConfiguration:
    """Occupancy snapshot of the growth process on a window."""

    window: Window
    t: float
    half_plane: bool
    occ: np.ndarray
    seed: int | None = None
    arrivals: np.ndarray | None = field(default=None, repr=False)

    def occupied(self, site: Site) -> bool:
        return bool(self.occ[self.window.index(site)])

    def occupied_fraction(self) -> float:
        return float(self.occ.mean())


def sample_configuration(window: Window, t: float, seed: int,
                         half_plane: bool = True) -> GrowthConfiguration:
    """Deterministic growth snapshot at time t under a run seed."""
    if t < 0.0:
        raise ValueError("time must be >= 0")
    if half_plane and window.l_min != 0:
        raise ValueError("half-plane window must start at l = 0")
    arrivals = clocks.first_arrival_grid(seed, window)
    return GrowthConfiguration(window, t, half_plane, arrivals <= t, seed, arrivals)


def _window_margin_bounds(window: Window, x_min: float, x_max: float,
                          y_min: float, y_max: float, margin: float) -> bool:
    """True when every site within ``margin`` of the bbox fits the window."""
    l_lo = math.floor((y_min - margin) / SQRT3_2)
    l_hi = math.ceil((y_max + margin) / SQRT3_2)
    if window.l_min == 0:
        l_lo = max(l_lo, 0)
    if l_lo < window.l_min or l_hi > window.l_max:
        return False
    k_lo = math.floor(x_min - margin - 0.5 * l_hi)
    k_hi = math.ceil(x_max + margin - 0.5 * min(l_lo, 0))
    return window.k_min <= k_lo and k_hi <= window.k_max


def check_window(window: Window, target, half_plane: bool, pad: int = 2) -> None:
    """Raise :class:`WindowTooSmallError` unless the window extends at least
    ``pad`` sites beyond the dist-1 band of the target geometry."""
    margin = 1.0 + pad
    if isinstance(target, RhombusSurface):
        x0, x1, y0, y1 = target.bounding_box(half_plane)
        if not _window_margin_bounds(window, x0, x1, y0, y1, margin):
            raise WindowTooSmallError(
                f"window {window} too small for rhombus n={target.n} at {target.center}")
    elif isinstance(target, ConeRegion):
        # Infinite region: require sideways coverage up to the window top.
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


def _start_indices(window: Window, w: Site, half_plane: bool) -> list[tuple[int, int]]:
    ys = half_plane_neighbors(w) if half_plane else neighbors(w)
    return [window.index(y) for y in ys if window.contains(y)]


def is_connected(w: Site, target, config: GrowthConfiguration) -> bool:
    """Whether some occupied neighbor of w reaches within distance 1 of the
    target through a 1-path inside the window."""
    check_window(config.window, target, config.half_plane)
    occ = config.occ
    labels, n_lab = ndimage.label(occ, structure=TRI_STRUCTURE)
    if n_lab == 0:
        return False
    start = {labels[idx] for idx in _start_indices(config.window, w, config.half_plane)
             if occ[idx]}
    if not start:
        return False
    tmask = target_mask(config.window, target, config.half_plane) & occ
    if not tmask.any():
        return False
    return bool(np.isin(labels[tmask], sorted(start)).any())


BELOW_FLOOR = object()  # sentinel: connection already present at the floor time


def first_connection_time(w: Site, target, window: Window, seed: int,
                          t_max: float = T_C, half_plane: bool = True,
                          floor: float = 0.0):
    """Minimal t <= t_max at which ``is_connected`` holds; None otherwise.

    With ``floor > 0`` the answer is coarse below the floor: BELOW_FLOOR
    when the connection already holds at time ``floor``.

    The growth process only adds sites, so the connection is monotone in t
    and first holds at a first-arrival time.  A bisection over the distinct
    arrivals in (floor, t_max] finds it, labelling one snapshot per probe.
    """
    arrivals = clocks.first_arrival_grid(seed, window)

    def holds(t: float) -> bool:
        config = GrowthConfiguration(window, t, half_plane, arrivals <= t, seed)
        return is_connected(w, target, config)

    if not holds(t_max):
        return None
    if floor > 0.0 and holds(floor):
        return BELOW_FLOOR
    times = np.unique(arrivals[(arrivals > floor) & (arrivals <= t_max)])
    lo, hi = 0, times.size - 1  # holds(times[hi]); not holds below times[lo]
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(float(times[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(times[lo])


def window_for_rhombus(center: Site, n: int, phi: float, half_plane: bool,
                       pad: int = 2) -> Window:
    """Smallest axial window covering the rhombus, its dist-1 band and
    ``pad`` extra sites in every direction."""
    surface = RhombusSurface(center, n, phi)
    x0, x1, y0, y1 = surface.bounding_box(half_plane)
    margin = 1.0 + pad
    l_lo = math.floor((y0 - margin) / SQRT3_2)
    if half_plane:
        l_lo = max(l_lo, 0)
    l_hi = math.ceil((y1 + margin) / SQRT3_2)
    k_lo = math.floor(x0 - margin - 0.5 * l_hi)
    k_hi = math.ceil(x1 + margin - 0.5 * min(l_lo, 0))
    return Window(k_lo, k_hi, l_lo, l_hi)


def one_arm_indicator(n: int, t: float, phi: float, seed: int,
                      half_plane: bool = True, engine: str = "auto") -> bool:
    """One Bernoulli sample of the one-arm event for the origin.

    ``engine='grid'`` labels the whole padded window; ``engine='walk'``
    grows the origin cluster lazily (cheap in the subcritical regime).
    Both produce identical indicators for the same seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 0.0:
        raise ValueError("time must be >= 0")
    origin: Site = (0, 0)
    surface = RhombusSurface(origin, n, phi)
    window = window_for_rhombus(origin, n, phi, half_plane)
    if engine == "auto":
        engine = "grid" if t >= T_C - 0.1 else "walk"
    if engine == "grid":
        config = sample_configuration(window, t, seed, half_plane)
        return is_connected(origin, surface, config)
    if engine == "walk":
        return _one_arm_walk(surface, window, t, seed, half_plane)
    raise ValueError(f"unknown engine {engine!r}")


def _one_arm_walk(surface: RhombusSurface, window: Window, t: float,
                  seed: int, half_plane: bool) -> bool:
    """Lazy cluster growth from the origin's neighborhood."""
    segs = surface.segments(half_plane)
    cx, cy = embed(surface.center)
    sin_phi = math.sin(surface.phi)
    cos_phi = math.cos(surface.phi)
    # Coarse necessary condition for dist <= 1 in shear coordinates.
    band = surface.n - (1.0 + 1e-9) / sin_phi

    def near_target(site: Site) -> bool:
        px, py = embed(site)
        v = (py - cy) / sin_phi
        u = (px - cx) - v * cos_phi
        if max(abs(u), abs(v)) < band:
            return False
        return any(seg_dist_sq(px, py, *s) <= 1.0 for s in segs)

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
        if near_target(s):
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
