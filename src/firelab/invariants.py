"""Checks of the fire and growth processes against their definitions.

Each check takes its seeds and returns its failures as strings; an empty
list means the check holds.  ``firelab verify``, the acceptance criteria
and the unit tests run these same functions with their own seeds, run
counts and tolerances.
"""

import math
from collections import Counter

import numpy as np

from . import clocks, firesim, percolation
from .clocks import T_C
from .lattice import RhombusSurface, Site, Window, outer_boundary

# Closed form of two_state_check's probability: (1 - e^{-t_c})^2.
TWO_STATE_P = (1.0 - math.exp(-T_C)) ** 2


def fire_log_failures(state: firesim.FireState,
                      records: list[firesim.DestructionRecord], seed: int,
                      probe_times=(), clock_seed: int | None = None) -> list[str]:
    """Check one logged fire run against the definition of the process.

    ``state`` carries the run's event log (``run(collect_events=True)``).
    Against clocks recomputed under ``seed``, the checks are:

    * the boundary row is vacant and the growth process dominates the fire
      process, at ``state.t_end`` and, on the replayed log, at each of
      ``probe_times``;
    * growth happens only in rows l >= 1 and only at a jump of the site's
      clock;
    * every jump up to ``state.t_end`` of a row-0 clock of the window is
      logged as exactly one ring, and no other ring is logged;
    * a record is non-empty, lies in rows l >= 1, was occupied just before
      its time, and is ignited at a jump of a row-0 clock on its outer
      boundary;
    * a destroyed site whose clock jumps after the record and by
      ``state.t_end`` grows again at the first such jump.

    ``clock_seed`` replaces ``seed`` in the domination reference only; a
    different seed there is a negative control.
    """
    window, t_end, events = state.window, state.t_end, state.events
    arrivals = clocks.first_arrival_grid(seed if clock_seed is None else clock_seed,
                                         window)
    failures = []
    occ = state.occ.astype(bool)
    if (occ & ~(arrivals <= t_end)).any():
        failures.append("domination violated at t_end")
    if occ[0, :].any():
        failures.append("boundary row occupied at t_end")
    for t in probe_times:
        occ_t = firesim.reconstruct_occupancy(window, events, records, t).astype(bool)
        if occ_t[0, :].any():
            failures.append(f"boundary row occupied at t={t:.4f}")
        if (occ_t & ~(arrivals <= t)).any():
            failures.append(f"domination violated at t={t:.4f}")

    for ev in events:
        if ev.kind != "grow":
            continue
        if ev.site[1] < 1:
            failures.append(f"growth in the boundary row at {ev.site}")
        elif ev.time not in clocks.jumps_in(seed, ev.site, 0.0, t_end):
            failures.append(f"growth without a clock jump at {ev.site}")

    logged = Counter((ev.site, ev.time) for ev in events if ev.kind == "ring")
    jumps = Counter()
    for k in range(window.k_min, window.k_max + 1):
        jumps.update(((k, 0), t) for t in clocks.jumps_in(seed, (k, 0), 0.0, t_end))
    for site, t in sorted(logged.keys() | jumps.keys()):
        if logged[(site, t)] != jumps[(site, t)]:
            failures.append(f"ring at {site} t={t:.6f} logged {logged[(site, t)]} "
                            f"times for {jumps[(site, t)]} clock jumps")

    grown = {(ev.site, ev.time) for ev in events if ev.kind == "grow"}
    for rec in records:
        at = f"t={rec.time:.6f}"
        destroyed = {(int(k), int(l)) for k, l in rec.sites}
        if not destroyed:
            failures.append(f"empty destruction record at {at}")
        if any(l < 1 for _, l in destroyed):
            failures.append(f"boundary-row site destroyed at {at}")
        if rec.ignition[1] != 0:
            failures.append(f"ignition {rec.ignition} off the boundary row at {at}")
        if rec.time not in clocks.jumps_in(seed, rec.ignition, 0.0, t_end):
            failures.append(f"ignition clock silent at {at}")
        if rec.ignition not in outer_boundary(destroyed):
            failures.append(f"ignition site not on the cluster boundary at {at}")
        occ_before = firesim.reconstruct_occupancy(window, events, records,
                                                   rec.time, strict=True)
        vacant = sorted(s for s in destroyed if not occ_before[window.index(s)])
        if vacant:
            failures.append(f"destroyed site {vacant[0]} was vacant at {at}")
        if rec.time < t_end:
            for site in sorted(destroyed):
                later = clocks.jumps_in(seed, site, rec.time, t_end)
                if later and (site, later[0]) not in grown:
                    failures.append(f"destroyed site {site} did not regrow at "
                                    f"t={later[0]:.6f}")
    return failures


def fire_run_failures(window: Window, seed: int, t_end: float = T_C,
                      probe_times=(), clock_seed: int | None = None) -> list[str]:
    """Run the fire process to ``t_end`` with its event log and check it
    (:func:`fire_log_failures`)."""
    state, records = firesim.run(window, seed, t_end, collect_events=True)
    return fire_log_failures(state, records, seed, probe_times, clock_seed)


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
        a = percolation.one_arm_indicator(n, t, phi, seed, half_plane, "grid")
        b = percolation.one_arm_indicator(n, t, phi, seed, half_plane, "walk")
        if a != b:
            failures.append(f"case {i}: grid={a} walk={b}")
    return failures
