"""Output checks of the benchmark workloads, one verdict per operation.

An operation is one replication of ``run_dynamics``.  Each check returns the
problems it found; an operation with any problem counts as failed.

Statistical tolerances come from the workload's own traffic, never from a
seed.  Over a horizon T with Poisson(lambda) arrivals of Exp(sigma0) sizes the
arrival count has standard error sqrt(lambda T) and the offered-minus-served
rate (Mbps) has standard error sigma0 sqrt(2 lambda / T), the standard error
of the arrived work over T; the backlog left at T only adds a small bias on a
stable system.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import io
import math
import os

from spans import Patches

Z = 6.0   # tolerance in standard errors
DYNAMICS_FILES = ("trace_rep0.csv", "flows_rep0.csv", "metrics_sc.csv",
                  "metrics_macro_only.csv", "metrics_empirical.csv", "summary.csv")


def traffic_problems(n_arrivals, residual_mbps, traffic, T, label) -> list:
    """Arrival count and conservation residual of one simulated horizon."""
    lam, sigma0 = traffic.lambda_tot, traffic.sigma0
    out = []
    arr_tol = Z * math.sqrt(lam * T)
    if abs(n_arrivals - lam * T) > arr_tol:
        out.append(f"{label}: {n_arrivals} arrivals, expected {lam * T:.0f} +- {arr_tol:.0f}")
    res_tol = Z * sigma0 * math.sqrt(2.0 * lam / T)
    if not abs(residual_mbps) <= res_tol:
        out.append(f"{label}: conservation residual {residual_mbps:+.4f} Mbps "
                   f"beyond +-{res_tol:.4f}")
    return out


class FixedPointWatch:
    """Records fixed points that did not converge, by the replication whose
    call ran them; calls outside any replication (the probe series and the
    baseline) belong to replication 0, whose outputs they feed."""

    def __init__(self):
        self.rep = 0
        self.nonconverged = collections.Counter()

    @contextlib.contextmanager
    def installed(self):
        patches = Patches()
        patches.wrap("mobicell.pipeline", "run_replication", self._replication)
        patches.wrap("mobicell.pipeline", "coupled_loads_fixed_point", self._fixed_point)
        try:
            yield self
        finally:
            patches.restore()

    def _replication(self, orig):
        def wrapper(cfg, rep, *args, **kwargs):
            self.rep = rep
            try:
                return orig(cfg, rep, *args, **kwargs)
            finally:
                self.rep = 0
        return wrapper

    def _fixed_point(self, orig):
        def wrapper(*args, **kwargs):
            out = orig(*args, **kwargs)
            if not out.converged:
                self.nonconverged[self.rep] += 1
            return out
        return wrapper


def _read_csv(path, provenance):
    """Data rows of one output file, or the problem that stops reading it."""
    if not os.path.isfile(path):
        return None, f"{os.path.basename(path)} missing"
    with open(path, newline="") as fh:
        text = fh.read()
    first, _, rest = text.partition("\n")
    if first != provenance:
        return None, f"{os.path.basename(path)}: provenance line {first!r}"
    rows = list(csv.reader(io.StringIO(rest)))
    return rows[1:], None


def dynamics_problems(cfg, res, out_dir, watch, provenance, ref_summary) -> dict:
    """Problems per replication of one run_dynamics call with CSV output."""
    reps = range(cfg.replications)
    problems = {r: [] for r in reps}
    T = cfg.duration_s
    n_snap = math.floor(T / cfg.snapshot_s + 0.5) + 1
    n_samples = math.ceil(T / cfg.snapshot_s)

    for rr in res.replications:
        for tag, emp in (("sc", rr.emp_sc), ("macro_only", rr.emp_mo)):
            m = emp["metrics"]
            problems[rr.rep] += traffic_problems(m.n_arrivals, m.conservation_residual,
                                                 cfg.traffic, T, f"rep{rr.rep} {tag}")
    if len(res.replications) != cfg.replications:
        problems[0].append(f"{len(res.replications)} replications returned")
    for rep, n in watch.nonconverged.items():
        problems[rep].append(f"{n} fixed points did not converge")

    rows = {}
    for name in DYNAMICS_FILES:
        rows[name], err = _read_csv(os.path.join(out_dir, name), provenance)
        if err:
            for r in reps:     # a file that is missing or unstamped fails every replication
                problems[r].append(err)
    if any(v is None for v in rows.values()):
        return problems

    def expect(rep, name, got, want):
        if got != want:
            problems[rep].append(f"{name}: {got} rows, expected {want}")

    sc = collections.Counter(row[0].rsplit(":rep", 1)[-1] for row in rows["metrics_sc.csv"])
    emp = collections.Counter(row[1] for row in rows["metrics_empirical.csv"])
    summ = collections.Counter(row[1] for row in rows["summary.csv"])
    for r in reps:
        expect(r, "metrics_sc.csv", sc[str(r)], n_snap)
        expect(r, "metrics_empirical.csv", emp[str(r)], 2 * n_snap)
        expect(r, "summary.csv", summ[str(r)], 1)
    expect(0, "metrics_macro_only.csv", len(rows["metrics_macro_only.csv"]), n_snap)
    expect(0, "trace_rep0.csv", len(rows["trace_rep0.csv"]), n_samples * (cfg.K + cfg.L))
    lam_t = cfg.traffic.lambda_tot * T
    n_flows = len(rows["flows_rep0.csv"])
    if abs(n_flows - lam_t) > Z * math.sqrt(lam_t):
        problems[0].append(f"flows_rep0.csv: {n_flows} flows, expected about {lam_t:.0f}")

    with open(os.path.join(out_dir, "summary.csv"), "rb") as fh:
        summary = fh.read()
    if ref_summary is not None and summary != ref_summary:
        for r in reps:
            problems[r].append("summary.csv differs from the first run at this seed")
    return problems

