"""The four benchmark workloads, each an acceptance criterion's own input.

A workload runs in rounds.  Round ``r`` under benchmark seed ``s`` calls
the public estimator functions with base seed ``derive_seed(s, r)`` and a
fixed number of samples, so the inputs are a pure function of the seed.
The first ``check_rounds`` rounds form the checked batch: their merged
result is compared with the frozen reference (at the reference seed),
with seed-independent invariants, and with an independent code path
(the oracle checks), all outside the timed region.
"""

import hashlib
import math

import numpy as np

from firelab.clocks import T_C, derive_seed
from firelab.estimators import (
    EventParams,
    coupled_event_stats,
    estimate_event_C,
    estimate_event_D,
    estimate_one_arm,
    height_distribution,
    xi_scan_n_list,
)
from firelab.lattice import SQRT3_2, ConeRegion

PHI = math.pi / 3
WARM_UP_SEED = 0xBE7C4  # base seed of the untimed warm-up samples


class Workload:
    """One benchmark input mix; subclasses define a round and its checks."""

    name = ""
    criterion = ""
    check_rounds = 0
    oracle_rounds = 0

    def warm_up(self) -> None:
        """One untimed sample per distinct input (fills lazy caches)."""
        raise NotImplementedError

    def run_round(self, seed: int, r: int):
        """Returns (samples completed, round result)."""
        raise NotImplementedError

    def merge(self, results) -> dict:
        """JSON-ready summary of the checked rounds (what references hold)."""
        raise NotImplementedError

    def reference_checks(self, summary: dict, reference: dict) -> list:
        """One check per frozen entry; references hold only compared keys."""
        return [(f"reference:{k}", summary.get(k) == v,
                 f"got {summary.get(k)!r}, reference {v!r}")
                for k, v in reference.items()]

    def invariant_checks(self, summary: dict) -> list:
        return []

    def oracle_checks(self, seed: int, results) -> list:
        return []


def _count_check(name: str, value: int, n: int) -> tuple:
    return (f"invariant:{name}", 0 <= value <= n, f"{value} of {n} samples")


class OneArmCritical(Workload):
    """Criterion 1: half-plane one-arm at t_c, grid engine, equal samples
    over n = 8 .. 256 (windows up to 261 x 777 sites)."""

    name = "onearm-critical"
    criterion = "1"
    ns = (8, 16, 32, 64, 128, 256)
    per_call = 2
    check_rounds = 40
    oracle_rounds = 10
    oracle_ns = (8, 16)

    def _estimate(self, n, base, engine="grid"):
        return estimate_one_arm(n, T_C, PHI, self.per_call, True,
                                derive_seed(base, n), engine=engine)

    def warm_up(self):
        for n in self.ns:
            estimate_one_arm(n, T_C, PHI, 1, True, WARM_UP_SEED, engine="grid")

    def run_round(self, seed, r):
        base = derive_seed(seed, r)
        hits = tuple(self._estimate(n, base).successes for n in self.ns)
        return self.per_call * len(self.ns), hits

    def merge(self, results):
        return {f"n={n}": int(sum(res[i] for res in results))
                for i, n in enumerate(self.ns)}

    def invariant_checks(self, summary):
        total = self.per_call * self.check_rounds
        return [_count_check(k, v, total) for k, v in summary.items()]

    def oracle_checks(self, seed, results):
        # The lazy walk engine must give the grid engine's indicators.
        out = []
        for n in self.oracle_ns:
            i = self.ns.index(n)
            walk = sum(self._estimate(n, derive_seed(seed, r), "walk").successes
                       for r in range(self.oracle_rounds))
            grid = sum(res[i] for res in results[:self.oracle_rounds])
            out.append((f"oracle:walk=grid n={n}", walk == grid,
                        f"walk {walk}, grid {grid}"))
        return out


class XiScan(Workload):
    """Criterion 3: the one-arm points behind ``scan_xi_exponent`` at
    t = t_c - {0.30, 0.22, 0.15, 0.10}, engine 'auto', n from
    ``xi_scan_n_list`` (full plane, as the scan uses).  The fits are left
    out: at a few samples per point they are undefined."""

    name = "xiscan"
    criterion = "3"
    gaps = (0.30, 0.22, 0.15, 0.10)
    per_call = 2
    check_rounds = 80
    oracle_rounds = 10

    def __init__(self):
        self.points = [(g, T_C - g, n) for g in self.gaps
                       for n in xi_scan_n_list(T_C - g)]

    def _estimate(self, i, base, engine="auto"):
        _, t, n = self.points[i]
        return estimate_one_arm(n, t, PHI, self.per_call, False,
                                derive_seed(base, i), engine=engine)

    def warm_up(self):
        for _, t, n in self.points:
            estimate_one_arm(n, t, PHI, 1, False, WARM_UP_SEED, engine="auto")

    def run_round(self, seed, r):
        base = derive_seed(seed, r)
        hits = tuple(self._estimate(i, base).successes
                     for i in range(len(self.points)))
        return self.per_call * len(self.points), hits

    def _key(self, i):
        g, _, n = self.points[i]
        return f"t=tc-{g:.2f},n={n}"

    def merge(self, results):
        return {self._key(i): int(sum(res[i] for res in results))
                for i in range(len(self.points))}

    def invariant_checks(self, summary):
        total = self.per_call * self.check_rounds
        return [_count_check(k, v, total) for k, v in summary.items()]

    def oracle_checks(self, seed, results):
        # Run each point under the engine 'auto' did not pick; the two
        # engines must agree sample for sample.
        out = []
        for i, (_, t, n) in enumerate(self.points):
            other = "walk" if t >= T_C - 0.1 else "grid"
            got = sum(self._estimate(i, derive_seed(seed, r), other).successes
                      for r in range(self.oracle_rounds))
            ref = sum(res[i] for res in results[:self.oracle_rounds])
            out.append((f"oracle:{other}=auto {self._key(i)}", got == ref,
                        f"{other} {got}, auto {ref}"))
        return out


class EventsCoupled(Workload):
    """Criterion 5: ``coupled_event_stats(EventParams(16), include_a=True)``."""

    name = "events-coupled"
    criterion = "5"
    params = EventParams(16)
    per_call = 8
    check_rounds = 50
    oracle_rounds = 50

    def warm_up(self):
        coupled_event_stats(self.params, 1, WARM_UP_SEED, include_a=True)

    def run_round(self, seed, r):
        st = coupled_event_stats(self.params, self.per_call, derive_seed(seed, r),
                                 include_a=True)
        counts = tuple(st.estimates[k].successes for k in "ABCD")
        return self.per_call, (counts, tuple(sorted(st.violations.items())))

    def merge(self, results):
        summary = {k: int(sum(res[0][i] for res in results))
                   for i, k in enumerate("ABCD")}
        viol: dict[str, int] = {}
        for _, v in results:
            for k, c in v:
                viol[k] = viol.get(k, 0) + c
        summary["violations"] = viol
        return summary

    def invariant_checks(self, summary):
        total = self.per_call * self.check_rounds
        out = [_count_check(k, summary[k], total) for k in "ABCD"]
        out += [(f"invariant:violations {k}", c == 0, f"{c} violations")
                for k, c in sorted(summary["violations"].items())]
        return out

    def oracle_checks(self, seed, results):
        # C and D have their own estimators on separate code paths (snapshot
        # labelling; floored union-find); on common seeds they must give
        # the coupled counts.
        out = []
        for i, (label, fn) in ((2, ("C", estimate_event_C)),
                               (3, ("D", estimate_event_D))):
            got = sum(fn(self.params, self.per_call, derive_seed(seed, r)).successes
                      for r in range(self.oracle_rounds))
            ref = sum(res[0][i] for res in results[:self.oracle_rounds])
            out.append((f"oracle:estimate_event_{label}=coupled", got == ref,
                        f"separate {got}, coupled {ref}"))
        return out


class HeightsCone(Workload):
    """Criterion 8 at H = 48: ``height_distribution(ConeRegion(0, pi/3),
    [48], width_factor=3.0)`` on a 289 x 49 window."""

    name = "heights-cone"
    criterion = "8"
    region = ConeRegion(0.0, PHI)
    height = 48
    per_call = 2
    check_rounds = 20
    oracle_rounds = 3

    def _distribution(self, base, strict=False):
        return height_distribution(self.region, [self.height], self.per_call,
                                   base, width_factor=3.0, strict=strict)[0]

    def warm_up(self):
        height_distribution(self.region, [self.height], 1, WARM_UP_SEED,
                            width_factor=3.0)

    def run_round(self, seed, r):
        d = self._distribution(derive_seed(seed, r))
        return self.per_call, (d.heights, d.certified)

    def merge(self, results):
        heights = np.concatenate([h for h, _ in results])
        certified = np.concatenate([c for _, c in results])
        digest = hashlib.sha256(heights.astype("<f8").tobytes()
                                + certified.astype(np.uint8).tobytes()).hexdigest()
        return {"sha256": digest,
                "certified": int(certified.sum()),
                "samples": int(heights.size),
                "max_height": float(heights.max())}

    def invariant_checks(self, summary):
        top = SQRT3_2 * self.height
        return [("invariant:height range", 0.0 <= summary["max_height"] <= top,
                 f"max {summary['max_height']} of window top {top}")]

    def oracle_checks(self, seed, results):
        # strict=True reuses the same run but demands more; it must report
        # the same heights and certify a subset of the samples.
        same, subset = True, True
        for r in range(self.oracle_rounds):
            d = self._distribution(derive_seed(seed, r), strict=True)
            heights, certified = results[r]
            same &= bool(np.array_equal(d.heights, heights))
            subset &= bool((~d.certified | certified).all())
        return [("oracle:strict heights equal", same, ""),
                ("oracle:strict certified subset", subset, "")]


WORKLOADS = {w.name: w for w in (OneArmCritical, XiScan, EventsCoupled, HeightsCone)}
