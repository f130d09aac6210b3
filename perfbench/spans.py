"""In-memory spans and counters around the public entry points of mobicell.

Each layer is timed by replacing a function at the name its caller looks it
up (for example ``mobicell.pipeline.macro_ccdf`` or
``mobicell.ccdf.FieldSamples.at``) with a wrapper that records a span: name,
start, end and the index of the enclosing span.  Nothing under ``src/`` is
changed; the originals are put back when the ``installed()`` block ends.  A
target missing at a later commit is reported as absent instead of failing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import statistics
import time
import weakref
from collections import Counter, defaultdict

# (module, attribute path, span name).  Span names are "<layer>.<part>"; a
# layer's self time is the self time of all its spans.
SPAN_TARGETS = (
    ("mobicell.config", "load_scenario", "config.load"),
    ("mobicell.pipeline", "generate_trajectory", "mobility.trajectory"),
    ("mobicell.pipeline", "distance_to_hotspot", "mobility.distance"),
    ("mobicell.ccdf", "FieldSamples.__init__", "ccdf.field_samples"),
    ("mobicell.ccdf", "FieldSamples.at", "ccdf.field_at"),
    ("mobicell.pipeline", "macro_ccdf", "ccdf.curve"),
    ("mobicell.pipeline", "small_ccdf", "ccdf.curve"),
    ("mobicell.pipeline", "extract_classes", "ccdf.classes"),
    ("mobicell.pipeline", "macro_only_ccdf", "ccdf.macro_only"),
    ("mobicell.pipeline", "coupled_loads_fixed_point", "analytic.fixed_point"),
    ("mobicell.pipeline", "class_membership", "analytic.ergodic"),
    ("mobicell.pipeline", "effective_rate", "analytic.ergodic"),
    ("mobicell.pipeline", "simulate", "flowsim.simulate"),
    ("mobicell.flowsim", "simulate", "flowsim.simulate"),
    ("mobicell.pipeline", "estimate_transition_rates", "flowsim.rates"),
    ("mobicell.pipeline", "empirical_metrics", "flowsim.metrics"),
    ("mobicell.pipeline", "snapshot_series", "pipeline.series"),
    ("mobicell.pipeline", "run_replication", "pipeline.replication"),
    # run_dynamics' own time after its children is the CSV writing
    ("mobicell.pipeline", "run_dynamics", "pipeline.write"),
)
# counted, not timed: a span per quadrature integrand call would swamp it
COUNT_TARGETS = (
    ("mobicell.ccdf", "log_bessel_i0", "special.log_bessel_i0"),
)
LAYERS = ("mobility", "ccdf", "analytic", "flowsim", "pipeline")
ROUND, SETUP = "bench.round", "bench.setup"
# arrays FieldSamples.at reads; with its three outputs they give the bytes one
# call touches, computed from array sizes (temporaries and caches ignored)
FIELD_INPUTS = ("xy", "r_neg_pow", "macro_disk", "domain")
# snapshot positions on a later lap differ from the first lap's by float
# rounding only; rounding to 1e-9 Km (1 um) keys them as one place
POS_DIGITS = 9


class Patches:
    """Replaces attributes and puts the originals back in reverse order."""

    def __init__(self):
        self._saved = []
        self.absent = []

    def wrap(self, modname, path, make):
        owner = importlib.import_module(modname)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
        orig = getattr(owner, attr, None)
        if orig is None:
            self.absent.append(f"{modname}.{path}")
            return
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(make(orig)))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class Tracer:
    """Spans and counters of one process, kept in memory until reported.

    Work is attributed to the root span it ran under: ``bench.setup`` for the
    set-up, ``bench.round`` for each timed round."""

    def __init__(self):
        self.spans = []                       # [name, start, end, parent index]
        self._stack = []
        self._root = None
        self.counts = defaultdict(Counter)    # root name -> counter
        self.series = []                      # per snapshot series: [field calls, positions]
        self.field_calls = 0
        self.field_keys = set()
        self._sample_ids = weakref.WeakKeyDictionary()
        self._next_sid = itertools.count()
        self.absent = set()

    @contextlib.contextmanager
    def span(self, name):
        if not self._stack:
            self._root = name
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._stack.pop()][2] = time.perf_counter()

    def _timed(self, name, orig):
        def wrapper(*args, **kwargs):
            if name == "pipeline.series":
                self.series.append([0, set()])
            with self.span(name):
                out = orig(*args, **kwargs)
            self._observe(name, args, out)
            return out
        return wrapper

    def _counted(self, name, orig):
        def wrapper(*args, **kwargs):
            self.counts[self._root][name] += 1
            return orig(*args, **kwargs)
        return wrapper

    def _observe(self, name, args, out):
        c = self.counts[self._root]
        if name == "ccdf.field_at":
            samples, ls, region = args[0], args[1], args[2]
            if samples not in self._sample_ids:
                self._sample_ids[samples] = next(self._next_sid)
            sid = self._sample_ids[samples]
            pos = (round(ls.x, POS_DIGITS), round(ls.y, POS_DIGITS))
            self.field_keys.add((sid, pos, region.macro_radius, region.small_reach))
            self.field_calls += 1
            c["field_at_bytes"] += sum(a.nbytes for a in out) + sum(
                getattr(samples, a).nbytes for a in FIELD_INPUTS if hasattr(samples, a))
            if self.series:
                self.series[-1][0] += 1
                self.series[-1][1].add(pos)
        elif name == "analytic.fixed_point":
            c["fixed_point_iterations"] += out.iterations
            c["fixed_point_nonconverged"] += not out.converged
        elif name == "flowsim.simulate":
            c["arrivals"] += out.n_arrivals
            c["departures"] += out.n_departures
            c["migrations"] += out.n_migrations
            c["handovers"] += out.n_handovers
            c["flow_records"] += len(out.flows)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        patches = Patches()
        for modname, path, name in SPAN_TARGETS:
            patches.wrap(modname, path, functools.partial(self._timed, name))
        for modname, path, name in COUNT_TARGETS:
            patches.wrap(modname, path, functools.partial(self._counted, name))
        self.absent.update(patches.absent)
        try:
            yield self
        finally:
            patches.restore()

    def write(self, path):
        """Every span as one JSON line; times in seconds from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")

    def under(self, root_name):
        """Self time per span name inside the spans named ``root_name``, the
        durations of those roots, and every span's duration by name."""
        child = defaultdict(float)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        inside = [False] * len(self.spans)
        selfs = defaultdict(float)
        durations = defaultdict(list)
        roots = []
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            if name == root_name and parent < 0:
                inside[i] = True
                roots.append(t1 - t0)
                continue
            inside[i] = parent >= 0 and inside[parent]
            if inside[i]:
                selfs[name] += (t1 - t0) - child[i]
                durations[name].append(t1 - t0)
        return selfs, roots, durations


def per_layer(tracer: Tracer, reps_per_round: int, untraced_wall: list,
              src_lines: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}: times and counts per timed
    round, unless the name says otherwise."""
    selfs, roots, durations = tracer.under(ROUND)
    setup_selfs, _, _ = tracer.under(SETUP)
    n = max(len(roots), 1)
    reps = n * reps_per_round
    c = tracer.counts[ROUND]
    events = c["arrivals"] + c["departures"] + c["migrations"] + c["handovers"]
    layer_self = {layer: sum(v for k, v in selfs.items() if k.startswith(layer + "."))
                  for layer in LAYERS}
    wall = statistics.median(roots) if roots else 0.0
    series = tracer.series
    rep_durations = durations["pipeline.replication"]

    def per_round(name):
        return selfs[name] / n

    def calls(name):
        return len(durations[name]) / n

    return {
        "config.load_s": (setup_selfs["config.load"], "s"),
        "setup.ccdf_s": (sum(v for k, v in setup_selfs.items() if k.startswith("ccdf.")), "s"),
        "mobility.trajectory_s": (per_round("mobility.trajectory"), "s"),
        "mobility.trajectory_calls": (calls("mobility.trajectory"), "count"),
        "ccdf.field_samples_s": (per_round("ccdf.field_samples"), "s"),
        "ccdf.field_at_s": (per_round("ccdf.field_at"), "s"),
        "ccdf.field_at_calls": (calls("ccdf.field_at"), "count"),
        # over every traced call, set-up included
        "ccdf.field_at_distinct_ratio": (
            len(tracer.field_keys) / max(tracer.field_calls, 1), "ratio"),
        "ccdf.field_at_mb_computed": (c["field_at_bytes"] / 1e6 / n, "MB"),
        "ccdf.curve_s": (per_round("ccdf.curve"), "s"),
        "ccdf.curve_calls": (calls("ccdf.curve"), "count"),
        "ccdf.classes_s": (per_round("ccdf.classes"), "s"),
        "ccdf.macro_only_s": (per_round("ccdf.macro_only"), "s"),
        "ccdf.macro_only_calls": (calls("ccdf.macro_only"), "count"),
        "ccdf.field_evals_per_series": (
            statistics.median(s[0] for s in series) if series else 0, "count"),
        "ccdf.distinct_positions_per_series": (
            statistics.median(len(s[1]) for s in series) if series else 0, "count"),
        "special.log_bessel_i0_calls": (c["special.log_bessel_i0"] / n, "count"),
        "analytic.fixed_point_s": (per_round("analytic.fixed_point"), "s"),
        "analytic.fixed_point_calls": (calls("analytic.fixed_point"), "count"),
        "analytic.fixed_point_iterations": (c["fixed_point_iterations"] / n, "count"),
        "analytic.fixed_point_nonconverged": (c["fixed_point_nonconverged"], "count"),
        "analytic.ergodic_s": (per_round("analytic.ergodic"), "s"),
        "flowsim.simulate_s": (per_round("flowsim.simulate"), "s"),
        "flowsim.simulate_calls": (calls("flowsim.simulate"), "count"),
        "flowsim.events": (events / n, "count"),
        "flowsim.arrivals": (c["arrivals"] / n, "count"),
        "flowsim.migrations": (c["migrations"] / n, "count"),
        "flowsim.handovers": (c["handovers"] / n, "count"),
        "flowsim.migrations_per_arrival": (c["migrations"] / max(c["arrivals"], 1), "ratio"),
        "flowsim.us_per_event": (selfs["flowsim.simulate"] / max(events, 1) * 1e6, "us"),
        "flowsim.flow_records": (c["flow_records"] / n, "count"),
        "flowsim.rates_s": (per_round("flowsim.rates"), "s"),
        "flowsim.metrics_s": (per_round("flowsim.metrics"), "s"),
        "pipeline.series_per_rep": (len(durations["pipeline.series"]) / reps, "count/rep"),
        "pipeline.sims_per_rep": (len(durations["flowsim.simulate"]) / reps, "count/rep"),
        "pipeline.replication_s.p50": (
            statistics.median(rep_durations) if rep_durations else 0.0, "s"),
        "pipeline.write_s": (per_round("pipeline.write"), "s"),
        **{f"{layer}.self_s": (layer_self[layer] / n, "s") for layer in LAYERS},
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (
            wall / statistics.median(untraced_wall) - 1.0 if untraced_wall and wall else 0.0,
            "ratio"),
        "trace.layer_sum_ratio": (sum(layer_self.values()) / sum(roots) if roots else 0.0,
                                  "ratio"),
        "trace.absent_targets": (len(tracer.absent), "count"),
        "src_lines": (src_lines, "lines"),
    }
