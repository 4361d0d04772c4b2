"""Monte-Carlo drivers and regressions over the growth and fire processes.

Estimates are deterministic functions of (parameters, base seed, samples).
Sample i runs under ``derive_seed(base_seed, i)`` in the one-arm and
proof-event estimators, and under ``derive_seed(base_seed, 500_000 + i)``
in ``height_distribution``, the same seeds at every window height.  The
regressions derive one base seed per point: ``fit_correlation_length``
estimates its i-th size (n increasing) from ``derive_seed(base_seed,
10_000 + i)``, and ``scan_xi_exponent`` fits its j-th time (t increasing)
from ``derive_seed(base_seed, 77_000 + j)``.  Aggregation is an
order-independent merge, so worker pools do not change results.  One-arm
and coupled proof-event samples go to the pool in chunks of SEED_CHUNK
seeds; a chunk climbs the window ladder together (one-arm engine 'auto' at
every t; the coupled sampler's thresholds, one per seed, on one query per
chunk for B-D and one for A), and each seed's result is the same in any
chunk.

Event conventions for the proof events at a boundary site w = (ceil(x)+n, 0)
with rhombus target S = surface(w, n, phi) clipped to the half-plane, and
T = first time w connects to S in the growth process:

* C: T < t_slice, with t_slice = t_c - n^(-3/4+delta);
* D: T in [t_slice, t_c) and w's clock jumps in (T, t_c];
* B: T in [0, t_c) and w's clock jumps in (T, t_c];
* A: first time w connects to the cone in the fire process precedes the
  last jump j_last of w's clock before t_c.  In record form: some
  destruction record of the fire run up to j_last holds a half-plane
  neighbour of w, (k_w, 1) or (k_w - 1, 1), and a site within distance 1
  of the cone.  Occupancy only grows between rings, so a connecting
  cluster stays occupied until one fire burns all of it, and w's own ring
  at j_last burns the clusters of both neighbours.

  The growth process dominates the fire: a site in rows l >= 1 is
  occupied in the fire at time s only if its first arrival is <= s.  So a
  record at time s <= j_last lies inside one cluster of the growth
  snapshot ``arrivals <= j_last`` with row 0 held vacant, and w connecting
  to the cone on that snapshot is a necessary condition that can only
  reject a sample before the fire runs.  A window-ladder query per chunk
  of seeds asks it, one bound per seed, on ``event_a_window`` from row 1
  up: its first rung answers False when (k_w, 1) and (k_w - 1, 1) are both
  vacant, and its answer is the condition.  The snapshot uses <= at
  j_last, not <, so it holds every record-time occupancy even when a
  record's time equals an arrival; a tie cannot reject a hit.  Only a
  sample that passes runs the fire, and its records decide A.

Growth only adds sites, so w is connected at time s exactly when T <= s,
and T < s exactly when w is connected at ``math.nextafter(s, -inf)``, the
largest float below s.  B, C and D are therefore threshold queries with no
search for T: C is "connected just below t_slice", B is "j_last exists
and w is connected just below j_last", and D is B and not C.  The coupled
sampler asks them of one window-ladder query per chunk of seeds, one
threshold per seed (``percolation._ladder_query``), as it asks A's check.
The separate C and D estimators ask them of the full window's snapshot
``arrivals < s``, a second path for the coupled counts; only the reference
``percolation.first_connection_time`` searches for T.

Sample-wise, A implies B, C implies the connection part of B, and
(B and not C) equals D.
"""

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np
from scipy import stats

from . import clocks, firesim, percolation
from .clocks import T_C, derive_seed
from .lattice import ConeRegion, RhombusSurface, Site, TubeRegion, Window
# first_connection_time is unused here; perfbench's tracing test reads it.
from .percolation import (
    first_connection_time,
    is_connected,
    one_arm_indicators,
    window_for_rhombus,
)

DEFAULT_PHI = math.pi / 3
DEFAULT_DELTA = 1.0 / 24.0

# Intervals and slope CIs are at 95%: the normal quantile of the Wilson
# interval, and the two-sided level of the fits' t intervals.
Z_95 = 1.959963984540054
ALPHA = 0.05


def check_phi_delta(phi: float, delta: float) -> None:
    """Raise ValueError unless the cone angle phi lies in (0, pi/2) and the
    slice exponent delta in (0, 1/12)."""
    if not 0.0 < delta < 1.0 / 12.0:
        raise ValueError("delta must lie in (0, 1/12)")
    if not 0.0 < phi < math.pi / 2:
        raise ValueError("phi must lie in (0, pi/2)")


class FitError(RuntimeError):
    """Degenerate regression input (e.g. all-zero estimates)."""


@dataclass(frozen=True)
class EstimateResult:
    """Bernoulli point estimate with a Wilson confidence interval."""

    point: float
    n_samples: int
    ci_low: float
    ci_high: float
    successes: int


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval; robust at few successes."""
    if n <= 0:
        raise ValueError("need n >= 1")
    p = successes / n
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = Z_95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return min(lo, p), max(hi, p)


def make_estimate(successes: int, n: int) -> EstimateResult:
    lo, hi = wilson_interval(successes, n)
    return EstimateResult(successes / n, n, lo, hi, successes)


@dataclass(frozen=True)
class FitResult:
    """Least-squares line with slope uncertainty and transform tags."""

    slope: float
    intercept: float
    slope_se: float
    slope_ci: tuple[float, float]
    r2: float
    residual_norm: float
    n_points: int
    x_transform: str
    y_transform: str
    model: str = "linear"


def linear_fit(x, y, x_transform: str = "id", y_transform: str = "id",
               model: str = "linear") -> FitResult:
    """Least-squares line; the slope CI is the 95% t interval."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if n < 2:
        raise FitError("need at least 2 points")
    xb, yb = x.mean(), y.mean()
    sxx = float(((x - xb) ** 2).sum())
    if sxx == 0.0:
        raise FitError("degenerate abscissae")
    slope = float(((x - xb) * (y - yb)).sum() / sxx)
    intercept = yb - slope * xb
    resid = y - (intercept + slope * x)
    sse = float((resid ** 2).sum())
    syy = float(((y - yb) ** 2).sum())
    r2 = 1.0 - sse / syy if syy > 0 else 1.0
    if n > 2:
        sigma2 = sse / (n - 2)
        se = math.sqrt(sigma2 / sxx)
        tcrit = float(stats.t.ppf(1.0 - ALPHA / 2.0, n - 2))
        ci = (slope - tcrit * se, slope + tcrit * se)
    else:
        se, ci = math.nan, (-math.inf, math.inf)
    return FitResult(slope, intercept, se, ci, r2, math.sqrt(sse), n,
                     x_transform, y_transform, model)


def powerlaw_fit(points: list[tuple[int, EstimateResult]]) -> FitResult | None:
    """Log-log fit of the nonzero estimates against n; None when fewer than
    two estimates are nonzero."""
    nz = [(n, e.point) for n, e in points if e.point > 0]
    if len(nz) < 2:
        return None
    return linear_fit(np.log([n for n, _ in nz]), np.log([p for _, p in nz]),
                      x_transform="log", y_transform="log", model="powerlaw")


def _pmap(pool_map, fn, items):
    return list((pool_map or map)(fn, items))


# Seeds per work item of ``estimate_one_arm`` and ``coupled_event_stats``:
# a chunk climbs the window ladder as one stack
# (``percolation._ladder_query``), and no result depends on its size.
SEED_CHUNK = 64


# ---------------------------------------------------------------------------
# One-arm probabilities and correlation length


def _sample_one_arm(seeds: list[int], n: int, t: float, phi: float,
                    half_plane: bool, engine: str) -> int:
    return int(one_arm_indicators(n, t, phi, seeds, half_plane, engine).sum())


def estimate_one_arm(n: int, t: float, phi: float, samples: int,
                     half_plane: bool, base_seed: int, engine: str = "auto",
                     pool_map=None) -> EstimateResult:
    """Monte-Carlo one-arm probability with Wilson CI."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    if not 0.0 <= t <= T_C + 1e-12:
        raise ValueError("time must lie in [0, t_c]")
    seeds = [derive_seed(base_seed, i) for i in range(samples)]
    chunks = [seeds[i:i + SEED_CHUNK] for i in range(0, samples, SEED_CHUNK)]
    fn = partial(_sample_one_arm, n=n, t=t, phi=phi,
                 half_plane=half_plane, engine=engine)
    hits = sum(_pmap(pool_map, fn, chunks))
    return make_estimate(hits, samples)


@dataclass
class XiFit:
    """Correlation-length estimate from a semi-log one-arm decay fit."""

    xi: float
    xi_ci: tuple[float, float]
    fit: FitResult
    points: list[tuple[int, EstimateResult]]
    warnings: list[str] = field(default_factory=list)


def fit_decay(n_values, p_values) -> FitResult:
    """Semi-log fit of one-arm decay to the upper-bound form n exp(-n/xi):
    log(p/n) against n, so the slope is -1/xi."""
    n_arr = np.asarray(n_values, dtype=np.float64)
    p_arr = np.asarray(p_values, dtype=np.float64)
    if (p_arr <= 0).any():
        raise FitError("nonpositive probabilities in decay fit")
    return linear_fit(n_arr, np.log(p_arr / n_arr), x_transform="id",
                      y_transform="log", model="n_exp")


def xi_from_fit(fit: FitResult) -> tuple[float, tuple[float, float]]:
    if not fit.slope < 0:
        raise FitError("one-arm estimates do not decay")
    xi = -1.0 / fit.slope
    lo, hi = fit.slope_ci
    xi_lo = -1.0 / lo if lo < 0 else math.inf
    xi_hi = -1.0 / hi if hi < 0 else math.inf
    return xi, (xi_lo, xi_hi)


def fit_correlation_length(t: float, phi: float, n_list, samples_per_n: int,
                           base_seed: int, pool_map=None) -> XiFit:
    """Correlation length at a subcritical time from full-plane one-arm
    decay."""
    if not t < T_C:
        raise ValueError("correlation length needs t < t_c")
    n_list = sorted(set(int(n) for n in n_list))
    if len(n_list) < 4:
        raise ValueError("need at least 4 rhombus sizes")
    warnings: list[str] = []
    points: list[tuple[int, EstimateResult]] = []
    for i, n in enumerate(n_list):
        est = estimate_one_arm(n, t, phi, samples_per_n, False,
                               derive_seed(base_seed, 10_000 + i), pool_map=pool_map)
        points.append((n, est))
        if 0 < est.successes < 20:
            warnings.append(f"n={n}: only {est.successes} successes")
    usable = [(n, e.point) for n, e in points if e.successes > 0]
    if len(usable) == 0:
        raise FitError("all one-arm estimates are zero")
    if len(usable) < 3:
        raise FitError("fewer than 3 nonzero one-arm estimates")
    dropped = len(points) - len(usable)
    if dropped:
        warnings.append(f"dropped {dropped} zero-success points from the fit")
    fit = fit_decay([n for n, _ in usable], [p for _, p in usable])
    xi, ci = xi_from_fit(fit)
    return XiFit(xi, ci, fit, points, warnings)


# Rhombus sizes of an xi scan, relative to the bare power law
# (t_c - t)^(-4/3); the measured decay length runs at roughly half of it in
# this range, so the sizes probe about 1 to 4.5 decay lengths.
XI_SCAN_MULTIPLIERS = (0.5, 0.8, 1.2, 1.7, 2.3)


def xi_scan_n_list(t: float) -> list[int]:
    """Deterministic rhombus sizes spanning the expected correlation length
    (XI_SCAN_MULTIPLIERS)."""
    xi_guess = (T_C - t) ** (-4.0 / 3.0)
    ns = sorted({max(3, round(xi_guess * m)) for m in XI_SCAN_MULTIPLIERS})
    extra = 1
    while len(ns) < 4:
        ns = sorted(set(ns) | {max(ns) + extra})
        extra += 1
    return ns


@dataclass
class XiScan:
    xis: list[tuple[float, XiFit]]  # (t, fit) pairs
    fit: FitResult                  # log xi against log(t_c - t)


def fit_xi_scan(t_values, xi_values) -> FitResult:
    gaps = np.asarray([T_C - t for t in t_values], dtype=np.float64)
    xis = np.asarray(xi_values, dtype=np.float64)
    if (gaps <= 0).any() or (xis <= 0).any():
        raise FitError("xi scan needs t < t_c and positive xi")
    return linear_fit(np.log(gaps), np.log(xis),
                      x_transform="log", y_transform="log", model="powerlaw")


def scan_xi_exponent(t_list, phi: float, samples_per_n: int, base_seed: int,
                     pool_map=None) -> XiScan:
    """Divergence exponent of the correlation length approaching t_c."""
    t_list = list(t_list)
    if len(t_list) < 3:
        raise ValueError("need at least 3 times")
    if any(t >= T_C for t in t_list):
        raise ValueError("all times must be < t_c")
    xis = []
    for j, t in enumerate(sorted(t_list)):
        xf = fit_correlation_length(t, phi, xi_scan_n_list(t), samples_per_n,
                                    derive_seed(base_seed, 77_000 + j),
                                    pool_map=pool_map)
        xis.append((t, xf))
    fit = fit_xi_scan([t for t, _ in xis], [xf.xi for _, xf in xis])
    return XiScan(xis, fit)


# ---------------------------------------------------------------------------
# Proof events


@dataclass(frozen=True)
class EventParams:
    """Geometry and cutoff parameters for the proof events."""

    n: int
    x: float = 0.0
    phi: float = DEFAULT_PHI
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        check_phi_delta(self.phi, self.delta)
        if not self.slice_time > 0.0:
            raise ValueError(
                f"n={self.n} too small: t_c - n^(-3/4+delta) must be positive")

    @property
    def slice_time(self) -> float:
        return T_C - float(self.n) ** (-0.75 + self.delta)

    @property
    def w_site(self) -> Site:
        return (math.ceil(self.x) + self.n, 0)

    def surface(self) -> RhombusSurface:
        return RhombusSurface(self.w_site, self.n, self.phi)

    def cone(self) -> ConeRegion:
        return ConeRegion(self.x, self.phi)

    def window(self) -> Window:
        return window_for_rhombus(self.w_site, self.n, self.phi, half_plane=True)


def _before(s: float) -> float:
    """The largest float below s: w is connected there exactly when T < s."""
    return math.nextafter(s, -math.inf)


def _connected_before(seed: int, params: EventParams):
    """``connected_before(s)``: T < s, as ``is_connected`` on the snapshot
    ``arrivals < s`` of the full window, which is hashed once."""
    window, surface = params.window(), params.surface()
    arrivals = clocks.first_arrival_grid(seed, window)
    return lambda s: is_connected(params.w_site, surface, window, arrivals < s)


def _sample_event_c(seed: int, params: EventParams) -> bool:
    return _connected_before(seed, params)(params.slice_time)


def estimate_event_C(params: EventParams, samples: int, base_seed: int,
                     pool_map=None) -> EstimateResult:
    """Connection to the rhombus surface before the time slice."""
    seeds = [derive_seed(base_seed, i) for i in range(samples)]
    hits = sum(_pmap(pool_map, partial(_sample_event_c, params=params), seeds))
    return make_estimate(hits, samples)


def _sample_event_d(seed: int, params: EventParams) -> bool:
    # A jump in (T, t_c] with T >= t_slice is one in (t_slice, t_c] past T:
    # j_last > T.  The clock check skips labelling on ~98% of large-n seeds.
    jumps = clocks.jumps_in(seed, params.w_site, params.slice_time, T_C)
    if not jumps:
        return False
    connected_before = _connected_before(seed, params)
    return connected_before(jumps[-1]) and not connected_before(params.slice_time)


def estimate_event_D(params: EventParams, samples: int, base_seed: int,
                     pool_map=None) -> EstimateResult:
    """Late connection combined with a late jump of w's own clock."""
    seeds = [derive_seed(base_seed, i) for i in range(samples)]
    hits = sum(_pmap(pool_map, partial(_sample_event_d, params=params), seeds))
    return make_estimate(hits, samples)


@lru_cache(maxsize=64)
def event_a_window(params: EventParams) -> Window:
    """The cone's window up to row max(8, 2n), widened to column
    k_w + n + 4 to hold the w site (cached per geometry)."""
    win = percolation.window_for_cone(params.cone(), max(8, 2 * params.n))
    return replace(win, k_max=max(win.k_max, params.w_site[0] + params.n + 4))


def _event_a(seeds: list[int], params: EventParams,
             jumps: list[list[float]]) -> list[bool]:
    """Fire-process samples of the cone-connection event for a chunk of
    seeds, given each seed's jumps of w's clock in (0, t_c], read off the
    destruction records of a run up to the last of them.  One ladder query
    for the chunk, one bound per seed, asks the growth snapshot at j_last
    (module docstring) first; only the seeds it connects run the fire."""
    win, cone = event_a_window(params), params.cone()
    query = percolation._ladder_query(params.surface(), seeds, True, cone,
                                      replace(win, l_min=1))
    conn = query([js[-1] if js else math.nan for js in jumps]).tolist()
    return [c and _records_reach_cone(params, firesim.run(win, seed, t_end=js[-1])[1])
            for seed, js, c in zip(seeds, jumps, conn)]


def _records_reach_cone(params: EventParams, records) -> bool:
    """Whether some record holds a half-plane neighbour of w and a site
    within distance 1 of the cone: one pass over every record's sites."""
    if not records:
        return False
    w, win = params.w_site, event_a_window(params)
    near_cone = percolation.target_mask(win, params.cone(), True)
    sites, starts = firesim._flat_sites(records)
    ks, ls = sites[:, 0], sites[:, 1]
    at_w = (ls == 1) & ((ks == w[0]) | (ks == w[0] - 1))
    near = near_cone[ls - win.l_min, ks - win.k_min]
    return bool((np.logical_or.reduceat(at_w, starts)
                 & np.logical_or.reduceat(near, starts)).any())


@dataclass
class CoupledEventStats:
    """Per-sample coupled evaluation of the proof events under one seed."""

    n_samples: int
    estimates: dict[str, EstimateResult]
    violations: dict[str, int]


def _sample_coupled(seeds: list[int], params: EventParams,
                    include_a: bool) -> list[tuple]:
    """The rows (A, B, C, D, connected before t_c) of a chunk of seeds.

    B, C and D are asked of one ladder query for the chunk, one threshold
    per seed: "connected just below t_c" of every seed, "just below
    t_slice" of the seeds that connect, and "just below j_last" only where
    C and j_last against t_slice leave B open.  NaN leaves a seed out.  A
    asks one more ladder query, to the cone (``_event_a``).
    """
    query = percolation._ladder_query(params.surface(), seeds, True)
    t_slice = params.slice_time
    jumps = [clocks.jumps_in(seed, params.w_site, 0.0, T_C) for seed in seeds]
    conn = query(_before(T_C)).tolist()
    c_ev = query([_before(t_slice) if c else math.nan for c in conn]).tolist()
    # Monotone in t: C with j_last > t_slice gives B; no C with
    # j_last <= t_slice rules it out.  Only the rest ask j_last.
    settled = [not (c and js) or c_s == (js[-1] > t_slice)
               for c, c_s, js in zip(conn, c_ev, jumps)]
    b_ev = query([math.nan if s else _before(js[-1])
                  for s, js in zip(settled, jumps)]).tolist()
    a_ev = _event_a(seeds, params, jumps) if include_a else [False] * len(seeds)
    rows = []
    for a, js, c, c_s, s, b in zip(a_ev, jumps, conn, c_ev, settled, b_ev):
        if s:
            b = bool(c and js and c_s)
        rows.append((a, b, c_s, b and not c_s, c))
    return rows


def coupled_event_stats(params: EventParams, samples: int, base_seed: int,
                        include_a: bool = True, pool_map=None) -> CoupledEventStats:
    """Evaluate A, B, C, D on common seeds and count implication failures.

    Only ``A=>B`` can fail: C is set only when w connects before t_c, and D
    is B and not C.  ``test_coupled_counts_match_separate_estimators`` and
    the benchmark's events-coupled oracle cross-check C and D.
    """
    seeds = [derive_seed(base_seed, i) for i in range(samples)]
    chunks = [seeds[i:i + SEED_CHUNK] for i in range(0, samples, SEED_CHUNK)]
    rows = [row for chunk in _pmap(pool_map, partial(
        _sample_coupled, params=params, include_a=include_a), chunks) for row in chunk]
    counts = {"A": 0, "B": 0, "C": 0, "D": 0}
    violations = {"A=>B": 0, "C=>B": 0, "B&!C=>D": 0}
    for a_ev, b_ev, c_ev, d_ev, conn in rows:
        counts["A"] += a_ev
        counts["B"] += b_ev
        counts["C"] += c_ev
        counts["D"] += d_ev
        if a_ev and not b_ev:
            violations["A=>B"] += 1
        if c_ev and not conn:
            violations["C=>B"] += 1
        if b_ev and not c_ev and not d_ev:
            violations["B&!C=>D"] += 1
    estimates = {k: make_estimate(v, samples) for k, v in counts.items()}
    return CoupledEventStats(samples, estimates, violations)


# ---------------------------------------------------------------------------
# Borel-Cantelli reporting and destruction-height distributions


@dataclass
class BorelCantelliReport:
    ns: list[int]
    partial_sums: list[float]
    partial_sums_upper: list[float]
    slope_fit: FitResult | None
    verdict: str


def borel_cantelli_report(points: list[tuple[int, EstimateResult]]) -> BorelCantelliReport:
    """Cumulative sums of event estimates plus a summability verdict from
    the fitted log-log decay slope (< -1 means a summable trend)."""
    if len(points) < 3:
        raise ValueError("need at least 3 estimates")
    ns = [n for n, _ in points]
    pts = [e.point for _, e in points]
    ups = [e.ci_high for _, e in points]
    sums = list(np.cumsum(pts))
    sums_up = list(np.cumsum(ups))
    fit = powerlaw_fit(points)
    if fit is None:
        return BorelCantelliReport(ns, sums, sums_up, None, "insufficient")
    verdict = "summable-trend" if fit.slope < -1.0 else "not-summable"
    return BorelCantelliReport(ns, sums, sums_up, fit, verdict)


def _order_statistic_ci(values: np.ndarray, q: float,
                        alpha: float) -> tuple[float, float]:
    """Distribution-free order-statistic confidence interval for the
    q-quantile.  With B ~ Bin(n, q) the count at or below it, the sorted
    sample's xs[lo] misses with probability P(B <= lo) and xs[hi] with at
    most P(B > hi): lo is the largest and hi the smallest index keeping its
    miss at most alpha/2, and an index outside the sample is -inf or inf."""
    xs = np.sort(values)
    n = xs.size
    cdf = stats.binom.cdf(np.arange(n + 1), n, q)
    lo = int(np.searchsorted(cdf, alpha / 2.0, side="right")) - 1
    hi = int(np.searchsorted(cdf, 1.0 - alpha / 2.0, side="left"))
    return (float(xs[lo]) if lo >= 0 else -math.inf,
            float(xs[hi]) if hi < n else math.inf)


@dataclass
class HeightDistribution:
    """Empirical distribution of destruction heights at one window size.

    ``lower`` and ``upper`` bracket each sample's destruction height inside
    the window (``firesim.height_bracket``); the ``bracket`` statistics
    take their lower ends from ``lower`` and their upper ends from
    ``upper``.  They cover the records that the window's own run produces,
    not the infinite-volume height (see the README's ``firelab heights``).
    ``heights`` and ``certified`` are ``firesim.HeightBracket``'s t_c cell
    rule, which the bracket dominates sample by sample; no output reads
    them, and they stay only for the benchmark's ``heights-cone``
    reference and oracles.
    """

    window_height: int
    heights: np.ndarray
    certified: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def exact(self) -> np.ndarray:
        """Samples whose bracket is a point.  An exact record's cluster
        clears the top rows, so ``lower`` stays below the window top and
        ``lower == upper`` holds exactly on these samples."""
        return self.lower == self.upper

    @property
    def exact_fraction(self) -> float:
        return float(self.exact.mean())

    def bracket(self, q: float) -> tuple[float, float]:
        """The q-quantile of ``lower`` and of ``upper``."""
        return (float(np.quantile(self.lower, q, method="inverted_cdf")),
                float(np.quantile(self.upper, q, method="inverted_cdf")))

    def bracket_ci(self, q: float, alpha: float = ALPHA) -> tuple[float, float]:
        """Confidence interval for the q-quantile of the destruction height:
        the lower order-statistic end of ``lower`` and the upper end of
        ``upper``."""
        return (_order_statistic_ci(self.lower, q, alpha)[0],
                _order_statistic_ci(self.upper, q, alpha)[1])


def height_window(height: int, width_factor: float = 3.0, center_x: float = 0.0) -> Window:
    half = max(4, math.ceil(width_factor * height))
    c = round(center_x)
    return Window(c - half, c + half, 0, height)


def _sample_height(seed: int, window: Window, region,
                   strict: bool) -> firesim.HeightBracket:
    return firesim.height_bracket(window, seed, region, strict=strict)


def height_distribution(region, window_heights, samples: int, base_seed: int,
                        width_factor: float = 3.0, strict: bool = False,
                        pool_map=None) -> list[HeightDistribution]:
    """Empirical destruction-height distributions per window size.

    Sample i uses the same seed at every window size, so the distributions
    are paired across sizes.  Each window must hold the region's own window
    up to its top row, ``percolation.window_for_cone`` or
    ``window_for_tube``; one that clips the region raises
    ``WindowTooSmallError`` before any sample runs.
    """
    if isinstance(region, ConeRegion):
        cx = region.apex_x
    elif isinstance(region, TubeRegion):
        cx = region.x
    else:
        raise TypeError(f"unsupported region {region!r}")
    windows = [height_window(int(h), width_factor, cx) for h in window_heights]
    for window in windows:
        percolation.check_window(window, region, True)
    out = []
    for h, window in zip(window_heights, windows):
        seeds = [derive_seed(base_seed, 500_000 + i) for i in range(samples)]
        rows = _pmap(pool_map, partial(_sample_height, window=window,
                                       region=region, strict=strict), seeds)
        heights = np.array([r.height for r in rows], dtype=np.float64)
        certified = np.array([r.certified for r in rows], dtype=bool)
        lower = np.array([r.lower for r in rows], dtype=np.float64)
        upper = np.array([r.upper for r in rows], dtype=np.float64)
        out.append(HeightDistribution(int(h), heights, certified, lower, upper))
    return out
