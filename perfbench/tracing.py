"""Per-layer tracing by wrapping firelab's functions from outside.

Calls into the layers that do a few large pieces of work per sample get a
span each (name, start, end, parent span, sample id, work units).
High-frequency scalar calls (``clocks.uniform``, about 3k per
``heights-cone`` sample; the jump queries; the fire observer) only add to
counters keyed by (function, caller frame), which keeps the tracing cost
per call small.  Both kinds add their duration to the enclosing frame, so
self time is a span's duration minus the time its children cover.

``estimators`` imports several ``percolation`` functions by name, so those
are wrapped at both import sites with the same wrapper.
"""

import json
import time
from collections import Counter

from firelab import clocks, estimators, firesim, percolation

# (name, modules holding the function, kind); kind is "span", "sample"
# (a span that starts a new Monte-Carlo sample; estimator code, so not
# layer time), "count" (leaf counter) or "count-nested" (a counter whose
# callees are attributed to it).  The fire observer's methods are counted
# too, as estimator code.
TRACED = (
    ("estimators._sample_one_arm", (estimators,), "sample"),
    ("estimators._sample_coupled", (estimators,), "sample"),
    ("estimators._sample_height", (estimators,), "sample"),
    ("percolation.one_arm_indicator", (percolation, estimators), "span"),
    ("percolation.sample_configuration", (percolation, estimators), "span"),
    ("percolation.is_connected", (percolation, estimators), "span"),
    ("percolation.first_connection_time", (percolation, estimators), "span"),
    ("percolation._connection_time_floor", (percolation, estimators), "span"),
    ("firesim.run", (firesim,), "span"),
    ("firesim._decompose", (firesim,), "span"),
    ("clocks.first_arrival_grid", (clocks,), "span"),
    ("clocks.jumps_in", (clocks,), "count-nested"),
    ("clocks.next_jump_after", (clocks,), "count-nested"),
    ("clocks.uniform", (clocks,), "count"),
)
OBSERVER_METHODS = ("on_grow", "on_destroy")

# Frame layout: [span id, name, ns covered by child calls].
_ID, _NAME, _CHILD = 0, 1, 2


def _returned(name, out) -> int:
    """Work units a call returned: sites hashed or jump times found."""
    if name == "clocks.first_arrival_grid":
        return int(out.size)
    if name == "clocks.jumps_in":
        return len(out)
    if name == "clocks.next_jump_after":
        return int(out is not None)
    return 0


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = [[None, "root", 0]]
        self.calls: Counter = Counter()    # (name, caller) -> calls
        self.call_ns: Counter = Counter()  # (name, caller) -> ns
        self.returned: Counter = Counter()  # name -> work units returned
        self.sample = -1
        self.layer_self_ns = 0
        self.grows = 0
        self.fires = 0
        self._saved: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for qualname, modules, kind in TRACED:
            attr = qualname.split(".", 1)[1]
            fn = getattr(modules[0], attr, None)
            if fn is None:
                continue  # a renamed function leaves its metrics at zero
            if kind in ("span", "sample"):
                wrapper = self._span(qualname, fn, kind == "sample")
            else:
                wrapper = self._counted(qualname, fn, kind == "count-nested", True)
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        observer = getattr(estimators, "_ConeConnectionObserver", None)
        if observer is None:
            return
        for attr in OBSERVER_METHODS:
            fn = observer.__dict__.get(attr)
            if fn is not None:
                self._saved.append((observer, attr, fn))
                setattr(observer, attr,
                        self._counted("estimators.observer", fn, False, False))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, fn = self._saved.pop()
            setattr(obj, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, starts_sample):
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns
        is_run = name == "firesim.run"
        tracer = self

        def wrapper(*args, **kwargs):
            if starts_sample:
                tracer.sample += 1
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)
            frame = [sid, name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent[_CHILD] += t1 - t0
                if not starts_sample:
                    tracer.layer_self_ns += t1 - t0 - frame[_CHILD]
            work = _returned(name, out)
            tracer.returned[name] += work
            spans[sid] = (sid, name, t0, t1, parent[_ID], tracer.sample,
                          frame[_CHILD], work)
            if is_run:
                state, records = out
                tracer.fires += len(records)
                tracer.grows += sum(r.size for r in records) + int(state.occ.sum())
            return out

        return wrapper

    def _counted(self, name, fn, nested, layer):
        stack, clock = self.stack, time.perf_counter_ns
        calls, call_ns, returned = self.calls, self.call_ns, self.returned
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if nested:
                frame = [parent[_ID], name, 0]
                stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if nested:
                    stack.pop()
                parent[_CHILD] += dt
                if layer:
                    tracer.layer_self_ns += dt - frame[_CHILD] if nested else dt
                key = (name, parent[_NAME])
                calls[key] += 1
                call_ns[key] += dt
            if nested:
                returned[name] += _returned(name, out)
            return out

        return wrapper

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON object per span, then the counters, one per line."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, t0, t1, parent, sample, child, work in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start_ns": t0,
                                    "end_ns": t1, "parent": parent, "sample": sample,
                                    "child_ns": child, "work": work}) + "\n")
            for (name, caller), n in sorted(self.calls.items()):
                f.write(json.dumps({"counter": name, "caller": caller, "calls": n,
                                    "ns": self.call_ns[(name, caller)]}) + "\n")


def layer_metrics(tr: Tracer, wall_ns: int, samples: int) -> list:
    """Per-layer metrics as (name, value, unit, base count, ns or None).

    The last field is the time the metric covers, for its share of wall
    time; counts and ratios carry None.
    """
    dur: Counter = Counter()
    self_ns: Counter = Counter()
    n_spans: Counter = Counter()
    for sid, name, t0, t1, parent, _, child, _ in tr.spans:
        dur[name] += t1 - t0
        self_ns[name] += t1 - t0 - child
        n_spans[name] += 1
    conn_names = ("percolation.first_connection_time",
                  "percolation._connection_time_floor")
    first_conn = sum(t1 - t0 for _, name, t0, t1, parent, *_ in tr.spans
                     if name in conn_names
                     and (parent is None or tr.spans[parent][1] not in conn_names))

    def total(name):
        return sum(v for (n, _), v in tr.call_ns.items() if n == name)

    def count(name, callers=None):
        return sum(v for (n, c), v in tr.calls.items()
                   if n == name and (callers is None or c in callers))

    jump_names = ("clocks.jumps_in", "clocks.next_jump_after")
    jump_ns = sum(total(n) for n in jump_names)
    jump_gaps = count("clocks.uniform", jump_names)
    jumps = sum(tr.returned[n] for n in jump_names)
    sites = tr.returned["clocks.first_arrival_grid"]
    grid_ns = dur["clocks.first_arrival_grid"]
    run_self = self_ns["firesim.run"]
    overhead = wall_ns - tr.layer_self_ns

    def ratio(a, b):
        return a / b if b else 0.0

    us = 1e-3
    s = samples
    return [
        ("clocks.grid_ns_per_site", ratio(grid_ns, sites), "ns/site", sites, grid_ns),
        ("clocks.grid_calls_per_sample", ratio(n_spans["clocks.first_arrival_grid"], s),
         "count", s, None),
        ("clocks.scalar_us_per_sample", ratio(total("clocks.uniform") * us, s),
         "us", s, total("clocks.uniform")),
        ("clocks.uniform_calls_per_sample", ratio(count("clocks.uniform"), s),
         "count", s, None),
        ("clocks.jump_query_us_per_sample", ratio(jump_ns * us, s), "us", s, jump_ns),
        ("clocks.gaps_per_jump", ratio(jump_gaps, jumps), "ratio", jumps, None),
        ("clocks.jump_gaps_per_sample", ratio(jump_gaps, s), "count", s, None),
        ("clocks.jumps_per_sample", ratio(jumps, s), "count", s, None),
        ("percolation.connect_us_per_sample",
         ratio(dur["percolation.is_connected"] * us, s), "us", s,
         dur["percolation.is_connected"]),
        ("percolation.one_arm_self_us",
         ratio(self_ns["percolation.one_arm_indicator"] * us, s), "us", s,
         self_ns["percolation.one_arm_indicator"]),
        ("percolation.walk_sites_per_sample",
         ratio(count("clocks.uniform", ("percolation.one_arm_indicator",)), s),
         "count", s, None),
        ("percolation.first_connection_us_per_sample", ratio(first_conn * us, s),
         "us", s, first_conn),
        ("firesim.run_self_us_per_sample", ratio(run_self * us, s), "us", s, run_self),
        ("firesim.us_per_grow", ratio(run_self * us, tr.grows), "us", tr.grows, run_self),
        ("firesim.grows_per_sample", ratio(tr.grows, s), "count", s, None),
        ("firesim.fires_per_sample", ratio(tr.fires, s), "count", s, None),
        ("firesim.decompose_us_per_sample",
         ratio(dur["firesim._decompose"] * us, s), "us", s, dur["firesim._decompose"]),
        ("estimators.overhead_us_per_sample", ratio(overhead * us, s), "us", s, overhead),
    ]
