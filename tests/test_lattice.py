import math
import random

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from firelab.lattice import (
    ConeRegion,
    RhombusSurface,
    TubeRegion,
    Window,
    embed,
    near_surface_mask,
    neighbors,
)


def seg_dist_sq(px, py, ax, ay, bx, by):
    """Squared distance from a point to a segment: the scalar reference for
    ``lattice.seg_dist_sq_grid``, in the same operation order, so that the
    two make the same site/threshold decisions."""
    vx, vy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    vv = vx * vx + vy * vy
    t = wx * vx + wy * vy
    if vv > 0.0:
        t = t / vv
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
    else:
        t = 0.0
    dx = wx - t * vx
    dy = wy - t * vy
    return dx * dx + dy * dy


def dist_to_rhombus_surface(surface, site, half_plane=False):
    """Euclidean distance from a site's embedded point to the (clipped)
    surface, one segment at a time."""
    px, py = embed(site)
    best = math.inf
    for ax, ay, bx, by in surface.segments(half_plane):
        d = seg_dist_sq(px, py, ax, ay, bx, by)
        if d < best:
            best = d
    return math.sqrt(best)


def test_neighbors_origin():
    assert set(neighbors((0, 0))) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}


def test_neighbors_translation():
    base = set(neighbors((0, 0)))
    shifted = {(k + 3, l + 2) for k, l in base}
    assert set(neighbors((3, 2))) == shifted


def test_neighbors_unit_distance():
    for s in [(0, 0), (3, 2), (-5, 7), (11, -4)]:
        x0, y0 = embed(s)
        for v in neighbors(s):
            x1, y1 = embed(v)
            assert math.hypot(x1 - x0, y1 - y0) == pytest.approx(1.0, abs=1e-12)


def test_neighbors_symmetric_on_window():
    sites = [(k, l) for k in range(20) for l in range(20)]
    site_set = set(sites)
    for s in sites:
        for v in neighbors(s):
            if v in site_set:
                assert s in neighbors(v)


def _cone_membership_by_basis(cone, site):
    # Solve z - apex = a e^{i phi} + b e^{i(pi-phi)} for (a, b); member iff
    # both are >= 0 (up to round-off).
    x, y = embed(site)
    m = np.array([[math.cos(cone.phi), -math.cos(cone.phi)],
                  [math.sin(cone.phi), math.sin(cone.phi)]])
    a, b = np.linalg.solve(m, np.array([x - cone.apex_x, y]))
    return a >= -1e-9 and b >= -1e-9


def test_cone_membership_examples():
    cone = ConeRegion(0.0, math.pi / 3)
    assert cone.contains((0, 1))      # z = e^{i pi/3}
    assert not cone.contains((2, 1))  # basis solution has b = -2


def test_cone_membership_matches_basis_solution():
    rng = random.Random(7)
    for _ in range(200):
        cone = ConeRegion(rng.uniform(-3, 3), rng.uniform(0.2, 1.4))
        for _ in range(50):
            site = (rng.randint(-30, 30), rng.randint(0, 30))
            assert cone.contains(site) == _cone_membership_by_basis(cone, site)


def test_cone_monotone_in_angle():
    rng = random.Random(3)
    for _ in range(100):
        phi1 = rng.uniform(0.15, 1.2)
        phi2 = rng.uniform(phi1, 1.5)
        wide, narrow = ConeRegion(0.0, phi1), ConeRegion(0.0, phi2)
        site = (rng.randint(-20, 20), rng.randint(0, 20))
        if narrow.contains(site):
            assert wide.contains(site)


def test_tube_membership_examples():
    tube = TubeRegion(0.0, math.pi / 2)
    assert tube.contains((-1, 2))      # z = i sqrt(3), on the center line
    assert not tube.contains((0, 2))   # z = 1 + i sqrt(3), distance 1


def test_tube_distance_below_start():
    tube = TubeRegion(0.0, math.pi / 2)
    # Distance from a point left of the start is to the endpoint itself.
    assert tube.distance_to_centerline(-2.0, 0.0) == pytest.approx(2.0)
    assert tube.distance_to_centerline(0.3, -0.4) == pytest.approx(0.5)


def test_rhombus_distance_center_square():
    surf = RhombusSurface((0, 0), 5, math.pi / 2 - 1e-12)
    assert dist_to_rhombus_surface(surf, (0, 0)) == pytest.approx(5.0, abs=1e-9)


def test_rhombus_distance_center_general_angle():
    for phi, n in [(math.pi / 3, 7), (0.5, 4), (1.2, 9)]:
        surf = RhombusSurface((0, 0), n, phi)
        assert dist_to_rhombus_surface(surf, (0, 0)) == pytest.approx(
            n * math.sin(phi), abs=1e-9)


def test_rhombus_distance_point_on_segment():
    surf = RhombusSurface((0, 0), 3, math.pi / 3)
    # (3, 1) embeds to 3 + e^{i pi/3}: u = 3, v = 1, on the right side.
    assert dist_to_rhombus_surface(surf, (3, 1)) == pytest.approx(0.0, abs=1e-12)


def test_rhombus_distance_brute_force():
    rng = random.Random(11)
    for _ in range(20):
        surf = RhombusSurface((rng.randint(-4, 4), rng.randint(0, 4)),
                              rng.randint(2, 8), rng.uniform(0.3, 1.4))
        site = (rng.randint(-20, 20), rng.randint(-20, 20))
        px, py = embed(site)
        best = math.inf
        for ax, ay, bx, by in surf.segments():
            def d(t, ax=ax, ay=ay, bx=bx, by=by):
                return math.hypot(px - (ax + t * (bx - ax)), py - (ay + t * (by - ay)))
            res = minimize_scalar(d, bounds=(0.0, 1.0), method="bounded",
                                  options={"xatol": 1e-12})
            best = min(best, d(0.0), d(1.0), res.fun)
        assert dist_to_rhombus_surface(surf, site) == pytest.approx(best, abs=1e-9)


def test_rhombus_half_plane_clipping():
    surf = RhombusSurface((0, 0), 4, math.pi / 3)
    full = surf.segments(half_plane=False)
    clipped = surf.segments(half_plane=True)
    assert len(full) == 4
    assert len(clipped) == 3  # the bottom side drops entirely
    for ax, ay, bx, by in clipped:
        assert ay >= -1e-12 and by >= -1e-12


def test_near_surface_mask_matches_scalar():
    surf = RhombusSurface((0, 0), 3, math.pi / 3)
    window = Window(-8, 8, 0, 6)
    mask = near_surface_mask(window, surf, half_plane=True)
    for site in window.sites():
        d = dist_to_rhombus_surface(surf, site, half_plane=True)
        assert mask[window.index(site)] == (d <= 1.0)


def test_seg_dist_degenerate_segment():
    assert seg_dist_sq(1.0, 1.0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(2.0)


def test_window_validation_and_indexing():
    with pytest.raises(ValueError):
        Window(3, 2, 0, 1)
    w = Window(-2, 2, 0, 3)
    assert w.n_sites == 20
    assert w.contains((0, 0)) and not w.contains((3, 0))
    assert w.site(*w.index((1, 2))) == (1, 2)


def test_vectorized_region_select_matches_region_classes():
    from firelab.lattice import region_select
    rng = random.Random(2)
    for _ in range(3000):
        cone = ConeRegion(rng.uniform(-3, 3), rng.uniform(0.2, 1.4))
        tube = TubeRegion(rng.uniform(-3, 3), rng.uniform(0.2, 2.9))
        site = (rng.randint(-25, 25), rng.randint(0, 25))
        x, y = embed(site)
        xs, ys = np.array([x]), np.array([y])
        assert bool(region_select(xs, ys, cone)[0]) == cone.contains(site)
        assert bool(region_select(xs, ys, tube)[0]) == tube.contains(site)
