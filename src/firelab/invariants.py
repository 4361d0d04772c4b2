"""Checks of the fire and growth processes against their definitions.

The fire process has one reference, :func:`naive_run`, which applies the
process's rules to every clock jump in turn; every fire run is checked by
comparing it with that reference (:func:`fire_run_failures`).  Each check
takes its seeds and returns its failures as strings; an empty list means
the check holds.  ``firelab verify``, the acceptance criteria and the unit
tests run these same functions with their own seeds, run counts and
tolerances.
"""

import math

import numpy as np

from . import clocks, firesim, percolation
from .clocks import T_C
from .lattice import RhombusSurface, Site, Window, neighbors

# Closed form of two_state_check's probability: (1 - e^{-t_c})^2.
TWO_STATE_P = (1.0 - math.exp(-T_C)) ** 2


def naive_run(sites, seed: int, t_end: float):
    """Definition-direct reference run of the fire process on ``sites``.

    Applies every clock jump up to ``t_end`` of every listed site in
    (t, l, k) order: a jump in rows l >= 1 grows a tree, and a jump of a
    row-0 clock burns the occupied clusters of its adjacent sites (k, 1)
    and (k - 1, 1), in that order.  No cursors, no ring schedule.  Returns
    the occupied sites at ``t_end`` and the records as
    ``(t, ignition, frozenset of burnt sites)``.
    """
    jumps = sorted((t, l, k) for k, l in sites
                   for t in clocks.jumps_in(seed, (k, l), 0.0, t_end))
    occupied = set()
    records = []
    for t, l, k in jumps:
        if l >= 1:
            occupied.add((k, l))
            continue
        for v in ((k, 1), (k - 1, 1)):
            if v not in occupied:
                continue
            occupied.remove(v)
            cluster, stack = {v}, [v]
            while stack:
                for u in neighbors(stack.pop()):
                    if u in occupied:
                        occupied.remove(u)
                        cluster.add(u)
                        stack.append(u)
            records.append((t, (k, 0), frozenset(cluster)))
    return occupied, records


def _record_failure(i: int, got: tuple, want: tuple) -> str:
    (t, ignition, sites), (t_ref, ignition_ref, sites_ref) = got, want
    if (t, ignition) != (t_ref, ignition_ref):
        return (f"record {i}: t={t!r} at {ignition}, "
                f"reference t={t_ref!r} at {ignition_ref}")
    extra, missing = sorted(sites - sites_ref), sorted(sites_ref - sites)
    return f"record {i} at t={t!r}: extra sites {extra}, missing sites {missing}"


def fire_run_failures(window: Window, seed: int, t_end: float = T_C,
                      clock_seed: int | None = None
                      ) -> tuple[list[firesim.DestructionRecord], list[str]]:
    """Run the fire process on ``window`` to ``t_end`` and compare it with
    :func:`naive_run` on the window's sites.

    The run must give the reference's records in the same order, each with
    the same time, ignition and site set, and the same final occupancy.
    Returns the run's records and the failures: the first record that
    differs, a differing record count and the first site whose final
    occupancy differs.  ``clock_seed`` replaces ``seed`` in the reference
    only; a different seed there is a negative control.
    """
    state, records = firesim.run(window, seed, t_end)
    occupied, want = naive_run(window.sites(),
                               seed if clock_seed is None else clock_seed, t_end)
    got = [(r.time, r.ignition, frozenset(map(tuple, r.sites.tolist())))
           for r in records]
    failures = [_record_failure(i, a, b)
                for i, (a, b) in enumerate(zip(got, want)) if a != b][:1]
    if len(got) != len(want):
        failures.append(f"{len(got)} records, reference {len(want)}")
    occ_ref = np.zeros_like(state.occ)
    for site in occupied:
        occ_ref[window.index(site)] = 1
    differ = np.argwhere(state.occ != occ_ref).tolist()
    if differ:
        failures.append(f"final occupancy differs at {len(differ)} sites, "
                        f"first {window.site(*differ[0])}")
    return records, failures


def two_state_check(seeds, p_true: float, n_se: float) -> tuple[float, list[str]]:
    """Share of seeds under which a single interior site burns by t_c,
    against ``p_true`` within ``n_se`` binomial standard errors.

    The site (0, 1) grows at rate 1 and is burnt at rate 2 by its igniters
    (0, 0) and (1, 0), so it follows a two-state chain.  The run covers the
    window of its igniters.  The window's other interior site, (1, 1), has
    (1, 0) as its only in-window igniter, and (1, 0) ignites (0, 1) too, so
    (1, 1) burns together with (0, 1) or alone and never changes (0, 1)'s
    chain.  Returns the share and the failures.
    """
    window = Window(0, 1, 0, 1)
    seeds = list(seeds)
    hits = 0
    for seed in seeds:
        _, records = firesim.run(window, seed, T_C)
        hits += any([0, 1] in rec.sites.tolist() for rec in records)
    p_hat = hits / len(seeds)
    se = math.sqrt(p_true * (1.0 - p_true) / len(seeds))
    if abs(p_hat - p_true) <= n_se * se:
        return p_hat, []
    return p_hat, [f"|{p_hat:.4f} - {p_true:.4f}| > {n_se:g} SE"]


def _definitional_connection_time(w: Site, target, window: Window,
                                  seed: int) -> float | None:
    """First-connection time by relabelling the growth snapshot at every
    arrival time up to t_c."""
    arrivals = clocks.first_arrival_grid(seed, window)
    for t in np.unique(arrivals[arrivals <= T_C]).tolist():
        if percolation.is_connected(w, target, window, arrivals <= t):
            return t
    return None


def connection_failures(cases, phi: float) -> list[str]:
    """``cases`` are ``(seed, n)`` pairs; for each, the bisected
    first-connection time from the origin to its rhombus surface of size n
    must equal a relabelling of the snapshot at every arrival time."""
    failures = []
    origin = (0, 0)
    for i, (seed, n) in enumerate(cases):
        surface = RhombusSurface(origin, n, phi)
        window = percolation.window_for_rhombus(origin, n, phi, True)
        t_inc = percolation.first_connection_time(origin, surface, window, seed)
        t_def = _definitional_connection_time(origin, surface, window, seed)
        if t_inc != t_def:
            failures.append(f"case {i}: incremental {t_inc} != definitional {t_def}")
    return failures


def engine_failures(cases, phi: float) -> list[str]:
    """``cases`` are ``(seed, n, t, half_plane)``; for each, the grid and
    walk one-arm engines must give the same indicator."""
    failures = []
    for i, (seed, n, t, half_plane) in enumerate(cases):
        a = percolation.one_arm_indicators(n, t, phi, [seed], half_plane, "grid")[0]
        b = percolation.one_arm_indicators(n, t, phi, [seed], half_plane, "walk")[0]
        if a != b:
            failures.append(f"case {i}: grid={a} walk={b}")
    return failures
