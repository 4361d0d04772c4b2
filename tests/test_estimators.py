import math

import numpy as np
import pytest
from scipy import stats

from firelab import clocks, estimators, firesim, percolation
from firelab.clocks import T_C
from firelab.estimators import (
    EventParams,
    FitError,
    borel_cantelli_report,
    coupled_event_stats,
    estimate_event_C,
    estimate_event_D,
    estimate_one_arm,
    fit_correlation_length,
    fit_decay,
    fit_xi_scan,
    height_distribution,
    linear_fit,
    make_estimate,
    scan_xi_exponent,
    wilson_interval,
    xi_from_fit,
    xi_scan_n_list,
)
from firelab.lattice import SQRT3_2, ConeRegion, TubeRegion, Window, region_select

PHI = math.pi / 3


def test_wilson_interval_basic():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0
    est = make_estimate(3, 10)
    assert est.ci_low <= est.point <= est.ci_high


def test_wilson_interval_shrinks():
    w1 = wilson_interval(10, 20)
    w2 = wilson_interval(100, 200)
    assert (w2[1] - w2[0]) < (w1[1] - w1[0])


def test_wilson_coverage():
    # Exact coverage at this (n, p) is 94.8%; the sampled check has slack.
    rng = np.random.default_rng(5)
    p = 0.4
    n = 80
    covered = 0
    trials = 1000
    for _ in range(trials):
        k = rng.binomial(n, p)
        lo, hi = wilson_interval(int(k), n)
        covered += lo <= p <= hi
    assert covered / trials >= 0.93


def test_estimate_one_arm_t_zero():
    est = estimate_one_arm(4, 0.0, PHI, samples=50, half_plane=True, base_seed=1)
    assert est.point == 0.0


def test_estimate_one_arm_validates():
    with pytest.raises(ValueError):
        estimate_one_arm(4, 0.3, PHI, samples=0, half_plane=True, base_seed=1)
    with pytest.raises(ValueError):
        estimate_one_arm(4, T_C + 0.2, PHI, samples=5, half_plane=True, base_seed=1)


def test_estimate_one_arm_deterministic():
    a = estimate_one_arm(5, 0.6, PHI, samples=300, half_plane=True, base_seed=42)
    b = estimate_one_arm(5, 0.6, PHI, samples=300, half_plane=True, base_seed=42)
    assert a == b


def test_one_arm_halving_ratio_near_critical_exponent():
    # Doubling n at t_c multiplies the half-plane one-arm probability by
    # roughly 2^(-1/3).
    n_samp = 8000
    e64 = estimate_one_arm(64, T_C, PHI, n_samp, True, base_seed=6464)
    e128 = estimate_one_arm(128, T_C, PHI, n_samp, True, base_seed=12828)
    log_ratio = math.log(e128.point / e64.point)
    se = math.sqrt((1 - e64.point) / (e64.point * n_samp)
                   + (1 - e128.point) / (e128.point * n_samp))
    assert abs(log_ratio - math.log(2.0 ** (-1.0 / 3.0))) <= 3 * se + 0.02


def test_subcritical_decay_is_semilog_linear():
    t = T_C - 0.3
    ns = [4, 6, 8, 10, 12, 14]
    pts = []
    for i, n in enumerate(ns):
        est = estimate_one_arm(n, t, PHI, 30_000, False, clocks.derive_seed(77, i))
        pts.append(est.point)
    fit = fit_decay(ns, pts, model="n_exp")
    assert fit.r2 > 0.98
    xi, _ = xi_from_fit(fit)
    assert xi > 0


def _xiscan_points():
    """(t, n) of criterion 3's scan: full plane, four times below t_c."""
    return [(T_C - g, n) for g in (0.30, 0.22, 0.15, 0.10) for n in xi_scan_n_list(T_C - g)]


def test_one_arm_successes_do_not_depend_on_chunk_size(monkeypatch):
    # Chunks of 1 and 2 seeds, one chunk of all seeds, and one chunk split
    # into small stacks on every rung give the same successes.  In one
    # chunk, seeds stop on different rungs: a later rung hashes fewer seeds
    # than the first, but not none.
    hashed = []
    first_arrival_bits = clocks.first_arrival_bits

    def recording(seed, window):
        hashed.append(np.size(seed))
        return first_arrival_bits(seed, window)

    monkeypatch.setattr(clocks, "first_arrival_bits", recording)
    samples = 150
    cases = [(16, T_C, True), (64, T_C, True)]
    cases += [(n, t, False) for t, n in _xiscan_points() if n >= 4 * percolation.MIN_RUNG]
    for n, t, half in cases:
        counts = []
        for chunk, stack_sites in ((1, None), (2, None), (samples, None), (samples, 4000)):
            with monkeypatch.context() as m:
                m.setattr(estimators, "SEED_CHUNK", chunk)
                if stack_sites:
                    m.setattr(percolation, "MAX_STACK_SITES", stack_sites)
                hashed.clear()
                counts.append(estimate_one_arm(n, t, PHI, samples, half, 4242).successes)
                if chunk == samples and not stack_sites:
                    assert any(0 < k < samples for k in hashed[1:]), (n, t, hashed)
        assert len(set(counts)) == 1, (n, t, counts)
        assert 0 < counts[0] < samples


def test_ladder_matches_walk_at_xiscan_points():
    # 'auto' climbs the window ladder at every t; the lazy walk is an
    # independent code path and must give each seed's indicator.
    for j, (t, n) in enumerate(_xiscan_points()):
        seeds = [clocks.derive_seed(4343, 1000 * j + i) for i in range(150)]
        got = percolation.one_arm_indicators(n, t, PHI, seeds, False).tolist()
        walk = percolation.one_arm_indicators(n, t, PHI, seeds, False, "walk").tolist()
        assert got == walk, (t, n)
        assert any(got), (t, n)


def test_fit_decay_exact_exponential():
    ns = list(range(10, 61, 5))
    ps = [math.exp(-n / 10.0) for n in ns]
    xi, _ = xi_from_fit(fit_decay(ns, ps, model="exp"))
    assert xi == pytest.approx(10.0, abs=1e-6)


def test_fit_decay_prefactor_form():
    # Data of the bound form c*n*exp(-n/xi); the matching model recovers xi
    # within 5% over n up to 10*xi.
    for xi_true in (5.0, 10.0):
        ns = [max(2, int(m * xi_true)) for m in (0.5, 1, 2, 4, 7, 10)]
        ps = [0.17 * n * math.exp(-n / xi_true) for n in ns]
        xi, _ = xi_from_fit(fit_decay(ns, ps, model="n_exp"))
        assert abs(xi - xi_true) / xi_true < 0.05


def test_fit_correlation_length_degenerate():
    with pytest.raises(FitError):
        fit_decay([10, 20, 30], [0.5, 0.0, 0.1], model="exp")
    with pytest.raises(ValueError):
        fit_correlation_length(T_C - 0.2, PHI, [5, 10], 10, 1)
    with pytest.raises(ValueError):
        fit_correlation_length(T_C + 0.1, PHI, [5, 10, 15, 20], 10, 1)


def test_fit_correlation_length_all_zero_is_failure():
    # t tiny and n large: every estimate is zero.
    with pytest.raises(FitError):
        fit_correlation_length(0.01, PHI, [30, 40, 50, 60], 30, base_seed=3)


def test_xi_grows_toward_critical():
    x1 = fit_correlation_length(T_C - 0.2, PHI, [3, 5, 7, 10], 4000, 11)
    x2 = fit_correlation_length(T_C - 0.1, PHI, [5, 8, 12, 17], 4000, 11)
    assert 0 < x1.xi < x2.xi


def test_fit_xi_scan_synthetic_exact():
    ts = [T_C - 0.3, T_C - 0.2, T_C - 0.12, T_C - 0.07]
    xis = [(T_C - t) ** (-4.0 / 3.0) for t in ts]
    fit = fit_xi_scan(ts, xis)
    assert fit.slope == pytest.approx(-4.0 / 3.0, abs=1e-6)


def test_scan_xi_exponent_validates():
    with pytest.raises(ValueError):
        scan_xi_exponent([T_C - 0.1, T_C - 0.2], PHI, 10, 1)
    with pytest.raises(ValueError):
        scan_xi_exponent([T_C - 0.1, T_C - 0.2, T_C + 0.1], PHI, 10, 1)


def test_event_params_validation():
    with pytest.raises(ValueError):
        EventParams(4, delta=0.2)
    with pytest.raises(ValueError):
        EventParams(4, delta=0.0)
    with pytest.raises(ValueError):
        EventParams(1)  # t_c - 1 < 0: slice must be positive
    p = EventParams(16)
    assert p.w_site == (16, 0)
    assert 0.0 < p.slice_time < T_C


def test_event_c_decreases_in_n():
    pts = []
    for n in (16, 32, 64):
        est = estimate_event_C(EventParams(n), 1500, base_seed=515)
        pts.append(est.point)
    assert pts[0] > pts[1] > pts[2] > 0


def test_event_d_upper_bound_and_y_inequality():
    n = 16
    params = EventParams(n)
    n_samp = 4000
    d = estimate_event_D(params, n_samp, base_seed=616)
    one_arm = estimate_one_arm(n, T_C, PHI, n_samp, True, base_seed=616)
    gap = float(n) ** (-0.75 + params.delta)
    clock_factor = 1.0 - math.exp(-gap)
    assert clock_factor <= gap  # 1 - e^{-y} <= y
    bound = one_arm.point * clock_factor

    def se(est):
        p = est.point
        return math.sqrt(max(p * (1.0 - p), 1e-12) / est.n_samples)

    assert d.point <= bound + 3.0 * (se(d) + se(one_arm) * clock_factor)


def event_d_components(params, seed):
    """The two independent factors of the D upper bound: connection time in
    the slice window, and a jump of w's clock inside the slice."""
    t = percolation.first_connection_time(params.w_site, params.surface(),
                                          params.window(), seed)
    conn = t is not None and params.slice_time < t < T_C
    clock = bool(clocks.jumps_in(seed, params.w_site, params.slice_time, T_C))
    return conn, clock


def test_event_d_independence_factorization():
    params = EventParams(16)
    n_samp = 4000
    u = v = uv = 0
    for i in range(n_samp):
        conn, clock = event_d_components(params, clocks.derive_seed(717, i))
        u += conn
        v += clock
        uv += conn and clock
    pu, pv, puv = u / n_samp, v / n_samp, uv / n_samp
    sigma = math.sqrt(pu * (1 - pu) * pv * (1 - pv) / n_samp)
    assert abs(puv - pu * pv) <= 3 * sigma + 1e-9


def test_coupled_counts_match_separate_estimators():
    # The coupled sampler's C and D are the separate estimators' events on
    # the same seeds, and B is contained in C or D sample by sample.
    params = EventParams(16)
    n_samp = 3000
    coupled = coupled_event_stats(params, n_samp, 818, include_a=False)
    c = estimate_event_C(params, n_samp, base_seed=818)
    d = estimate_event_D(params, n_samp, base_seed=818)
    counts = {k: e.successes for k, e in coupled.estimates.items()}
    assert counts["C"] == c.successes
    assert counts["D"] == d.successes
    assert counts["B"] <= counts["C"] + counts["D"]


def _sample_event_a(seed, params):
    return estimators._event_a(seed, params, clocks.jumps_in(seed, params.w_site, 0.0, T_C))


def _bisection_reference(seed, params, include_a):
    """The coupled events from w's first connection time T, found by
    bisection, compared with t_slice and j_last by strict inequality."""
    t_c = estimators.T_C
    t = percolation.first_connection_time(params.w_site, params.surface(),
                                          params.window(), seed)
    jumps = clocks.jumps_in(seed, params.w_site, 0.0, t_c)
    j_last = jumps[-1] if jumps else None
    conn = t is not None and t < t_c
    c_ev = t is not None and t < params.slice_time
    b_ev = conn and j_last is not None and j_last > t
    d_ev = b_ev and t >= params.slice_time
    a_ev = _sample_event_a(seed, params) if include_a else False
    return a_ev, b_ev, c_ev, d_ev, conn


@pytest.mark.parametrize("include_a", [False, True])
@pytest.mark.parametrize("n", [8, 12, 16, 32])
def test_coupled_sampler_matches_bisection_reference(n, include_a):
    # The threshold queries give the bisection's events sample for sample,
    # on seeds with no jump of w's clock before t_c, with j_last <= t_slice
    # and with j_last > t_slice, asked one seed at a time and as one chunk.
    params = EventParams(n)
    kinds = set()
    seeds = [clocks.derive_seed(1212, 1000 * n + i) for i in range(400)]
    wants = []
    for i, seed in enumerate(seeds):
        want = _bisection_reference(seed, params, include_a)
        wants.append(want)
        assert estimators._sample_coupled([seed], params, include_a)[0] == want, i
        assert estimators._sample_event_c(seed, params) == want[2], i
        assert estimators._sample_event_d(seed, params) == want[3], i
        jumps = clocks.jumps_in(seed, params.w_site, 0.0, T_C)
        kinds.add("no jump" if not jumps else
                  "late jump" if jumps[-1] > params.slice_time else "early jump")
        kinds.update(k for k, hit in zip("ABCD", want) if hit)
    assert {"no jump", "early jump", "late jump", "B", "C"} <= kinds
    assert estimators._sample_coupled(seeds, params, include_a) == wants


def test_coupled_sampler_ties_follow_strict_convention(monkeypatch):
    # T is an arrival time, so it equals t_slice, j_last or t_c only by
    # construction: each is set to T in turn, where the strict comparisons
    # of the definitions say "not yet connected".  The separate C and D
    # samplers follow the same convention.
    params = EventParams(8)
    tied = []
    for i in range(200):
        seed = clocks.derive_seed(1313, i)
        t = percolation.first_connection_time(params.w_site, params.surface(),
                                              params.window(), seed)
        if t is not None and t < T_C:
            tied.append((seed, t))
    assert len(tied) >= 20
    for seed, t in tied[:20]:
        with monkeypatch.context() as m:
            m.setattr(EventParams, "slice_time", property(lambda self, t=t: t))
            want = _bisection_reference(seed, params, False)
            assert not want[2]
            assert estimators._sample_coupled([seed], params, False)[0] == want
            assert estimators._sample_event_c(seed, params) == want[2]
            assert estimators._sample_event_d(seed, params) == want[3]
        with monkeypatch.context() as m:
            m.setattr(clocks, "jumps_in", lambda *args, t=t: [t])
            want = _bisection_reference(seed, params, False)
            assert not want[1]
            assert estimators._sample_coupled([seed], params, False)[0] == want
        with monkeypatch.context() as m:
            m.setattr(estimators, "T_C", t)
            want = _bisection_reference(seed, params, False)
            assert not want[4]
            assert estimators._sample_coupled([seed], params, False)[0] == want
    # One chunk of all the tied seeds, each with its last jump at its own T.
    ties = dict(tied[:20])
    with monkeypatch.context() as m:
        m.setattr(clocks, "jumps_in", lambda seed, *args: [ties[seed]])
        wants = [_bisection_reference(seed, params, False) for seed in ties]
        assert not any(want[1] for want in wants)
        assert estimators._sample_coupled(list(ties), params, False) == wants


@pytest.mark.parametrize("include_a", [False, True])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_coupled_counts_do_not_depend_on_chunk_size(n, include_a, monkeypatch):
    # Chunks of 1, 3 and 8 seeds and one chunk of all seeds give the same
    # counts and violations; in the big chunk, some seeds are asked j_last.
    samples = 400
    asked = []
    ladder_query = percolation._ladder_query

    def recording(surface, seeds, half_plane):
        connected = ladder_query(surface, seeds, half_plane)

        def counted(t):
            asked.append(t)
            return connected(t)
        return counted

    monkeypatch.setattr(percolation, "_ladder_query", recording)
    results = []
    for chunk in (1, 3, 8, samples):
        with monkeypatch.context() as m:
            m.setattr(estimators, "SEED_CHUNK", chunk)
            asked.clear()
            stats = coupled_event_stats(EventParams(n), samples, 2424, include_a)
        results.append(({k: e.successes for k, e in stats.estimates.items()},
                         stats.violations))
    assert len(asked) == 3, n  # t_c, t_slice and some j_last, all per seed
    assert all(r == results[0] for r in results), (n, results)
    counts = results[0][0]
    assert counts["B"] > 0 and counts["C"] > 0 and counts["D"] > 0, counts
    assert (counts["A"] > 0) == include_a, counts


def test_coupled_event_implications():
    stats = coupled_event_stats(EventParams(12), 2000, base_seed=919,
                                include_a=True)
    assert stats.violations == {"A=>B": 0, "C=>B": 0, "B&!C=>D": 0}
    assert stats.estimates["A"].point <= stats.estimates["B"].point


def _frozen_event_a_window(params):
    """Event A's window as it was written before ``window_for_cone``; the
    A counts of c5 and perfbench's events-coupled reference ran on it."""
    l_top = max(8, 2 * params.n)
    cone = params.cone()
    y_top = l_top * math.sqrt(3.0) / 2.0
    x_lo = cone.apex_x - cone.half_width_at(y_top) - 3.0
    x_hi = cone.apex_x + cone.half_width_at(y_top) + 3.0
    k_lo = math.floor(x_lo - 0.5 * l_top)
    k_hi = max(math.ceil(x_hi), params.w_site[0] + params.n + 4)
    return Window(k_lo, k_hi, 0, l_top)


def test_event_a_window_matches_frozen_formula():
    # At phi = pi/3 the cone's half-width at row l is l/2 in real
    # arithmetic, so the bounds fall on integers and one ulp decides a
    # column; the window must not move on any of these cases.
    for n in range(2, 600):
        for x in (0.0, 0.5, -1.25, 1.5, 2.0, 7.3):
            for phi in (PHI, 0.25, 0.8, 1.0, 1.2, 1.5):
                params = EventParams(n, x, phi)
                want = _frozen_event_a_window(params)
                assert estimators.event_a_window(params) == want, (n, x, phi)
                percolation.check_window(want, params.cone(), True)


def test_event_a_deterministic_and_rare():
    params = EventParams(12)
    vals = [_sample_event_a(clocks.derive_seed(333, i), params) for i in range(300)]
    vals2 = [_sample_event_a(clocks.derive_seed(333, i), params) for i in range(300)]
    assert vals == vals2
    assert 0 <= sum(vals) < 100


def _occupied_before(seed, window, arrivals, records, t):
    """Occupancy just before t, from the definition: a site in rows l >= 1
    is occupied when its clock jumps in (b, t), where b is its last burn
    before t, or 0 if it has none."""
    occ = arrivals < t
    occ[0] = False
    last_burn = {}
    for rec in records:
        if rec.time < t:
            last_burn.update((site, rec.time) for site in map(tuple, rec.sites.tolist()))
    for site, b in last_burn.items():
        occ[window.index(site)] = any(s < t for s in clocks.jumps_in(seed, site, b, t))
    return occ


def test_event_a_matches_snapshot_oracle():
    # Occupancy only grows between fires, so w's neighbourhood connects to
    # the cone before j_last exactly when it is connected in the occupancy
    # just before some fire or just before j_last.
    params = EventParams(8)
    w, cone = params.w_site, params.cone()
    window = estimators.event_a_window(params)
    outcomes = []
    for i in range(300):
        seed = clocks.derive_seed(31, i)
        jumps = clocks.jumps_in(seed, w, 0.0, T_C)
        expected = False
        if jumps:
            j_last = jumps[-1]
            _, records = firesim.run(window, seed, j_last)
            arrivals = clocks.first_arrival_grid(seed, window)
            for t in [rec.time for rec in records] + [j_last]:
                occ = _occupied_before(seed, window, arrivals, records, t)
                if percolation.is_connected(w, cone, window, occ):
                    expected = True
                    break
        assert _sample_event_a(seed, params) == expected, i
        outcomes.append(expected)
    assert any(outcomes) and not all(outcomes)


def _event_a_from_records(seed, params, jumps):
    """A from the destruction records of a fire run up to j_last, with no
    check before the run."""
    if not jumps:
        return False
    w, win = params.w_site, estimators.event_a_window(params)
    _, records = firesim.run(win, seed, t_end=jumps[-1])
    near_cone = percolation.target_mask(win, params.cone(), True)
    for rec in records:
        ks, ls = rec.sites[:, 0], rec.sites[:, 1]
        at_w = (ls == 1) & ((ks == w[0]) | (ks == w[0] - 1))
        if at_w.any() and near_cone[ls - win.l_min, ks - win.k_min].any():
            return True
    return False


@pytest.mark.parametrize("n, base_seed, samples", [(16, 505, 3000), (8, 31, 400)])
def test_event_a_shortcuts_keep_every_hit(n, base_seed, samples):
    # The neighbour check and the growth-snapshot connection query only
    # reject samples: A equals the records of an unconditional run on
    # criterion 5's seeds and on small-n seeds.
    params = EventParams(n)
    hits = 0
    for i in range(samples):
        seed = clocks.derive_seed(base_seed, i)
        jumps = clocks.jumps_in(seed, params.w_site, 0.0, T_C)
        want = _event_a_from_records(seed, params, jumps)
        assert estimators._event_a(seed, params, jumps) == want, i
        hits += want
    assert hits >= 1


def test_borel_cantelli_known_series():
    ns = list(range(1, 10_001))
    points = [(n, make_estimate(0, 1)) for n in ns]
    # Inject exact probabilities: build EstimateResult by hand.
    from firelab.estimators import EstimateResult
    points = [(n, EstimateResult(1.0 / n ** 2, 1, 0.0, 1.0, 0)) for n in ns]
    rep = borel_cantelli_report(points)
    assert rep.verdict == "summable-trend"
    assert rep.partial_sums[-1] == pytest.approx(math.pi ** 2 / 6.0, abs=2e-4)


def test_borel_cantelli_harmonic_not_summable():
    from firelab.estimators import EstimateResult
    points = [(n, EstimateResult(1.0 / n, 1, 0.0, 1.0, 0))
              for n in range(1, 200)]
    rep = borel_cantelli_report(points)
    assert rep.verdict == "not-summable"


def test_borel_cantelli_needs_three_points():
    from firelab.estimators import EstimateResult
    with pytest.raises(ValueError):
        borel_cantelli_report([(1, EstimateResult(0.5, 2, 0.1, 0.9, 1))] * 2)


def test_height_distribution_tube_cone_decomposition():
    # Per coupled sample: the tube height is at most the max of the height
    # in an inner cone and the height over the finite complement part.
    tube = TubeRegion(0.0, math.pi / 2)
    alpha = ConeRegion(0.0, 1.0)  # alpha < min(phi, pi - phi)
    window = Window(-24, 24, 0, 12)
    for i in range(60):
        seed = clocks.derive_seed(454, i)
        _, records = firesim.run(window, seed, T_C)
        y_tube = firesim.height_of_destruction(records, tube)
        y_cone = firesim.height_of_destruction(records, alpha)
        y_diff = 0.0
        for rec in records:
            ls = rec.sites[:, 1].astype(np.float64)
            xs, ys = rec.sites[:, 0] + 0.5 * ls, SQRT3_2 * ls
            # Heights in the tube but not the cone part.
            in_tube = set(np.round(ys[region_select(xs, ys, tube)], 9).tolist())
            in_cone = set(np.round(ys[region_select(xs, ys, alpha)], 9).tolist())
            only = in_tube - in_cone
            if only:
                y_diff = max(y_diff, max(only))
        assert y_tube <= max(y_cone, y_diff) + 1e-9


def test_height_distribution_atom_at_zero():
    dists = height_distribution(ConeRegion(0.0, PHI), [6], 200, base_seed=2020,
                                width_factor=2.0)
    d = dists[0]
    assert d.lower.size == 200
    assert (d.lower == 0.0).sum() > 0
    lo, hi = d.bracket(0.5)
    ci_lo, ci_hi = d.bracket_ci(0.5)
    assert ci_lo <= lo <= hi <= ci_hi
    assert lo >= np.quantile(d.heights, 0.5, method="inverted_cdf")


@pytest.mark.parametrize("region, height", [
    (ConeRegion(0.0, PHI), 8), (ConeRegion(2.5, 0.8), 16),
    (TubeRegion(0.0, 1.2), 8), (TubeRegion(1.0, 1.2), 16)])
def test_bracket_dominates_cell_rule(region, height):
    # The t_c cell rule's height is a lower bound of the bracket on every
    # sample, and a sample it certifies has a point bracket at its height,
    # so the outputs report the bracket alone.
    for strict in (False, True):
        d = height_distribution(region, [height], 60, base_seed=808,
                                strict=strict)[0]
        assert (d.lower >= d.heights).all()
        assert (d.lower[d.certified] == d.heights[d.certified]).all()
        assert (d.upper[d.certified] == d.heights[d.certified]).all()
        if not strict:
            assert d.certified.any() and not d.certified.all()


def test_height_distribution_refuses_a_clipped_cone(monkeypatch):
    # At phi = 0.35 height_window(48) holds the cone's window_for_cone and
    # height_window(16) does not; the clipped window is refused before the
    # first sample at any height runs.
    calls = []
    monkeypatch.setattr(firesim, "height_bracket",
                        lambda *args, **kwargs: calls.append(args))
    cone = ConeRegion(0.0, 0.35)
    percolation.check_window(estimators.height_window(48), cone, True)
    for heights in ([16], [48, 16]):
        with pytest.raises(percolation.WindowTooSmallError):
            height_distribution(cone, heights, 5, base_seed=3)
    with pytest.raises(percolation.WindowTooSmallError):
        height_distribution(ConeRegion(0.0, 0.2), [16], 20, base_seed=3)
    assert calls == []


def test_height_distribution_deterministic():
    a = height_distribution(ConeRegion(0.0, PHI), [6], 50, base_seed=9)
    b = height_distribution(ConeRegion(0.0, PHI), [6], 50, base_seed=9)
    assert (a[0].heights == b[0].heights).all()
    assert (a[0].certified == b[0].certified).all()


def test_height_bracket_statistics_hand_built():
    # Uncertified samples sit at the window top in ``upper``; the bracket
    # must hold pointwise and its CI ends must stay ordered.
    rng = np.random.default_rng(31)
    top = math.sqrt(3.0) / 2 * 10
    n = 300
    lower = math.sqrt(3.0) / 2 * rng.integers(0, 9, n).astype(np.float64)
    exact = rng.random(n) < 0.6
    upper = np.where(exact, lower, top)
    certified = exact & (rng.random(n) < 0.7)
    heights = np.where(certified, lower, 0.0)
    d = estimators.HeightDistribution(10, heights, certified, lower, upper)
    assert (d.lower <= d.upper).all()
    assert (d.exact == exact).all()
    assert d.exact_fraction == exact.mean()
    for q in (0.1, 0.5, 0.9):
        lo, hi = d.bracket(q)
        assert lo <= hi
        assert lo >= np.quantile(d.heights, q, method="inverted_cdf")
        ci_lo, ci_hi = d.bracket_ci(q, alpha=0.025)
        assert ci_lo <= lo and hi <= ci_hi
        assert ci_lo <= ci_hi
    # The upper quantile beyond the exact share is the window top.
    assert d.bracket(0.9)[1] == top
    # With every sample exact the bracket reduces to the plain statistics.
    e = estimators.HeightDistribution(10, lower, np.ones(n, bool), lower, lower)
    median = float(np.quantile(lower, 0.5, method="inverted_cdf"))
    assert e.bracket(0.5) == (median, median)
    assert e.bracket_ci(0.5) == estimators._order_statistic_ci(lower, 0.5, 0.05)


@pytest.mark.parametrize("n, q, alpha", [
    (5, 0.5, 0.05), (10, 0.9, 0.05), (50, 0.9, 0.05), (50, 0.5, 0.025),
    (60, 0.1, 0.05), (400, 0.9, 0.05), (400, 0.5, 0.025)])
def test_order_statistic_ci_exact_miss_probabilities(n, q, alpha):
    # On the sample 0, 1, ..., n - 1 each end is its own index.  With
    # B ~ Bin(n, q) the count at or below the q-quantile, the lower end
    # misses with P(B <= lo) and the upper with at most P(B > hi); each
    # end keeps its miss at or below alpha / 2 and is the tightest that
    # does.  An index outside the sample is an infinite end.
    lo, hi = estimators._order_statistic_ci(np.arange(n, dtype=float), q, alpha)
    lo = -1 if lo == -math.inf else int(lo)
    hi = n if hi == math.inf else int(hi)
    binom = stats.binom(n, q)
    assert binom.cdf(lo) <= alpha / 2 < binom.cdf(lo + 1)
    assert binom.sf(hi) <= alpha / 2 < binom.sf(hi - 1)


def test_linear_fit_requires_spread():
    with pytest.raises(FitError):
        linear_fit([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
