"""Triangular-lattice coordinates and continuous-geometry regions.

Sites are axial integer pairs ``(k, l)`` embedded in the plane as
``z = k + l * exp(i*pi/3)``, i.e. cartesian ``(k + l/2, l*sqrt(3)/2)``.
The half-plane lattice is the subset ``l >= 0``; its inner boundary is the
row ``l == 0`` (the integers on the real axis).

All regions are closed sets: boundary points count as inside.  One rule,
:func:`region_select`, tests region membership, on arrays of embedded
points; adjacency is exact integer arithmetic.
"""

import math
from dataclasses import dataclass

import numpy as np

Site = tuple[int, int]

SQRT3_2 = math.sqrt(3.0) / 2.0

# The six unit-distance offsets ``(dk, dl)`` of the triangular lattice.
NEIGHBOR_OFFSETS: tuple[Site, ...] = (
    (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1),
)

# The same offsets as ``(row, col)`` steps on a window grid (row = l - l_min),
# in the same order: cluster searches visit neighbours in this order, which
# fixes the site order of their results.
GRID_OFFSETS: tuple[tuple[int, int], ...] = tuple(
    (dl, dk) for dk, dl in NEIGHBOR_OFFSETS)

# scipy.ndimage connectivity structure: the centre plus GRID_OFFSETS on a
# 3x3 grid, rows indexed by dl, cols by dk.
TRI_STRUCTURE = np.zeros((3, 3), dtype=np.uint8)
TRI_STRUCTURE[1, 1] = 1
TRI_STRUCTURE[tuple(np.array(GRID_OFFSETS).T + 1)] = 1


def embed(site: Site) -> tuple[float, float]:
    """Cartesian coordinates of a site."""
    k, l = site
    return (k + 0.5 * l, SQRT3_2 * l)


def neighbors(site: Site) -> list[Site]:
    """The six lattice neighbors at embedded distance exactly 1."""
    k, l = site
    return [(k + dk, l + dl) for dk, dl in NEIGHBOR_OFFSETS]


def half_plane_neighbors(site: Site) -> list[Site]:
    """Neighbors restricted to the half-plane rows ``l >= 0``."""
    k, l = site
    return [(k + dk, l + dl) for dk, dl in NEIGHBOR_OFFSETS if l + dl >= 0]


@dataclass(frozen=True)
class Window:
    """Finite axial-coordinate box ``k_min..k_max`` x ``l_min..l_max``."""

    k_min: int
    k_max: int
    l_min: int
    l_max: int

    def __post_init__(self):
        if self.k_max < self.k_min or self.l_max < self.l_min:
            raise ValueError("empty window")

    @property
    def n_cols(self) -> int:
        return self.k_max - self.k_min + 1

    @property
    def n_rows(self) -> int:
        return self.l_max - self.l_min + 1

    @property
    def n_sites(self) -> int:
        return self.n_cols * self.n_rows

    def contains(self, site: Site) -> bool:
        k, l = site
        return self.k_min <= k <= self.k_max and self.l_min <= l <= self.l_max

    def index(self, site: Site) -> tuple[int, int]:
        """Grid index ``(row, col)`` of a site; row is ``l - l_min``."""
        return (site[1] - self.l_min, site[0] - self.k_min)

    def site(self, row: int, col: int) -> Site:
        return (col + self.k_min, row + self.l_min)

    def sites(self):
        for l in range(self.l_min, self.l_max + 1):
            for k in range(self.k_min, self.k_max + 1):
                yield (k, l)

    def coord_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Embedded cartesian coordinate arrays, shape (n_rows, n_cols)."""
        ls = np.arange(self.l_min, self.l_max + 1, dtype=np.float64)
        ks = np.arange(self.k_min, self.k_max + 1, dtype=np.float64)
        L, K = np.meshgrid(ls, ks, indexing="ij")
        return K + 0.5 * L, SQRT3_2 * L


@dataclass(frozen=True)
class ConeRegion:
    """Infinite cone with apex ``(apex_x, 0)``, boundary rays at angles
    ``phi`` and ``pi - phi``; lives in the closed upper half-plane."""

    apex_x: float
    phi: float

    def __post_init__(self):
        if not 0.0 < self.phi < math.pi / 2:
            raise ValueError("cone angle must be in (0, pi/2)")

    @property
    def cot_phi(self) -> float:
        return math.cos(self.phi) / math.sin(self.phi)

    def half_width_at(self, y: float) -> float:
        return y * self.cot_phi


@dataclass(frozen=True)
class TubeRegion:
    """Semi-infinite tube of width 1 around the half-line from ``(x, 0)``
    at angle ``phi``; clipped to the upper half-plane."""

    x: float
    phi: float

    def __post_init__(self):
        if not 0.0 < self.phi < math.pi:
            raise ValueError("tube angle must be in (0, pi)")


@dataclass(frozen=True)
class RhombusSurface:
    """Boundary of the rhombus with centre ``center``, half side ``n`` and
    sides parallel to 1 and ``exp(i*phi)``: the points
    ``center + u + v*exp(i*phi)`` with ``max(|u|, |v|) == n``."""

    center: Site
    n: int
    phi: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("rhombus size must be >= 1")
        if not 0.0 < self.phi < math.pi / 2:
            raise ValueError("rhombus angle must be in (0, pi/2)")

    def corners(self) -> list[tuple[float, float]]:
        cx, cy = embed(self.center)
        ex, ey = math.cos(self.phi), math.sin(self.phi)
        n = float(self.n)
        pts = []
        for su, sv in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
            pts.append((cx + su * n + sv * n * ex, cy + sv * n * ey))
        return pts

    def segments(self, half_plane: bool = False) -> list[tuple[float, float, float, float]]:
        """The four sides as ``(ax, ay, bx, by)``; with ``half_plane`` each
        side is clipped to ``y >= 0`` (dropped if entirely below)."""
        c = self.corners()
        segs = []
        for i in range(4):
            ax, ay = c[i]
            bx, by = c[(i + 1) % 4]
            if half_plane:
                clipped = _clip_segment_upper(ax, ay, bx, by)
                if clipped is None:
                    continue
                ax, ay, bx, by = clipped
            segs.append((ax, ay, bx, by))
        return segs


def _clip_segment_upper(ax, ay, bx, by):
    """Clip a segment to y >= 0; None when entirely below."""
    if ay < 0.0 and by < 0.0:
        return None
    if ay >= 0.0 and by >= 0.0:
        return ax, ay, bx, by
    # One endpoint below: move it to the y = 0 crossing.
    t = ay / (ay - by)
    cx = ax + t * (bx - ax)
    if ay < 0.0:
        return cx, 0.0, bx, by
    return ax, ay, cx, 0.0


def seg_dist_sq_grid(X: np.ndarray, Y: np.ndarray, ax, ay, bx, by) -> np.ndarray:
    """Squared distance from each point of the coordinate grids ``X, Y`` to
    the segment from ``(ax, ay)`` to ``(bx, by)``.

    The tests' scalar reference in ``tests/test_lattice.py`` mirrors this
    operation order; keep the two in sync so that they can compare
    site/threshold decisions exactly.
    """
    vx, vy = bx - ax, by - ay
    wx, wy = X - ax, Y - ay
    vv = vx * vx + vy * vy
    t = wx * vx + wy * vy
    if vv > 0.0:
        t = np.clip(t / vv, 0.0, 1.0)
    else:
        t = np.zeros_like(t)
    dx = wx - t * vx
    dy = wy - t * vy
    return dx * dx + dy * dy


def near_surface_mask(window: Window, surface: RhombusSurface,
                      half_plane: bool) -> np.ndarray:
    """Boolean grid of window sites within distance 1 of the surface."""
    X, Y = window.coord_grids()
    mask = np.zeros(X.shape, dtype=bool)
    for ax, ay, bx, by in surface.segments(half_plane):
        mask |= seg_dist_sq_grid(X, Y, ax, ay, bx, by) <= 1.0
    return mask


def _halfline_dist_sq_grid(dx: np.ndarray, dy: np.ndarray,
                           ux: float, uy: float) -> np.ndarray:
    """Squared distance from each point (dx, dy) to the half-line
    t*(ux, uy), t >= 0."""
    t = np.maximum(dx * ux + dy * uy, 0.0)
    return (dx - t * ux) ** 2 + (dy - t * uy) ** 2


def region_select(xs: np.ndarray, ys: np.ndarray, region) -> np.ndarray:
    """Boolean membership of embedded points in a cone or tube region."""
    if isinstance(region, ConeRegion):
        return (ys >= 0.0) & (np.abs(xs - region.apex_x) <= ys * region.cot_phi)
    if isinstance(region, TubeRegion):
        ux, uy = math.cos(region.phi), math.sin(region.phi)
        return (ys >= 0.0) & (_halfline_dist_sq_grid(xs - region.x, ys, ux, uy) <= 0.25)
    raise TypeError(f"unsupported region {region!r}")


def near_cone_mask(window: Window, cone: ConeRegion) -> np.ndarray:
    """Boolean grid of window sites within distance 1 of the cone region:
    inside it or within 1 of one of its two boundary rays."""
    X, Y = window.coord_grids()
    near = region_select(X, Y, cone)
    ux, uy = math.cos(cone.phi), math.sin(cone.phi)
    for sx in (ux, -ux):
        near |= _halfline_dist_sq_grid(X - cone.apex_x, Y, sx, uy) <= 1.0
    return near
