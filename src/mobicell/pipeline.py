"""Experiment orchestration: trajectory -> per-snapshot CCDFs -> flow classes
and transition rates -> coupled flow simulation plus the analytic evaluation,
for both the with-small-cell scenario and the macro-only baseline.  Every
output file is written here, by ``_write``.

A snapshot series evaluates each distinct small-cell position once, into one
(curves, profile, loads) record.  A route bus that returns to its starting
state repeats its first lap exactly (see ``mobility.generate_trajectory``), so
on a horizon of several laps every later snapshot points at its first-lap
twin's record.  A record holds no time: each snapshot's time is held once, in
the series' ``times``, and passed to what reads it.

Windowed analytic series
------------------------
Flows are short-lived compared to the vehicle's motion, so each snapshot
window is treated as quasi-stationary: the coupled per-cell loads come from
the fixed point, the merged single-queue equivalent of the window is
rho_bar(t) = rho(t) + rho_tilde(t) (equivalently lambda*sigma0 over the
harmonic, load-true capacity), and the windowed mean flow throughput is the
Little value lambda*sigma0 * (1 - rho_bar) / rho_bar.  The macro-only
baseline goes through the identical machinery with the small cell silenced,
so window comparisons are estimator-consistent.  The mobility-ergodic global
quantities (class-membership chain, equivalent service rate, system load and
the stationary distribution marginals) are reported in the run summary.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from mobicell.analytic import (class_membership, coupled_loads_fixed_point,
                               effective_rate)
from mobicell.ccdf import (CcdfCurve, Cell, ClassProfile, FieldSamples,
                           combined_ccdf, curve_pmf, _equal_mass_bins,
                           extract_classes, macro_only_ccdf, snapshot_sweep)
# re-exported: perfbench/spans.py times the one-curve API under these names
from mobicell.ccdf import macro_ccdf, small_ccdf  # noqa: F401
from mobicell.config import SWEEP_PARAMS, ConfigError, ScenarioConfig, with_overrides
from mobicell.flowsim import (SMALL_SHARE_EPS, QueueTrace, TrafficSpec, TransitionRates,
                              empirical_metrics, estimate_transition_rates, simulate)
from mobicell.mobility import Trajectory, distance_to_hotspot, generate_trajectory

NEAR_WINDOW_KM = 0.06          # small cell essentially on the hotspot
FAR_WINDOW_KM = (0.12, 0.30)   # near-but-off band: covering a small share


def provenance(cfg: ScenarioConfig, command: str, seed) -> str:
    return f"# scenario={cfg.scenario_id} seed={seed} command={command}"


@dataclass
class SnapshotSeries:
    """Per-snapshot radio state of the with-small-cell scenario, its four
    curves always kept."""

    times: np.ndarray
    positions: list
    distance_km: np.ndarray
    profiles: list
    loads: list
    rates: list                       # len(times) - 1, for the sim
    curves: list = field(repr=False)  # (m1, m0, s1, s0) per snapshot


def scenario_trajectory(cfg: ScenarioConfig) -> Trajectory:
    """The small cell's path over the horizon; the same in every replication."""
    return generate_trajectory(cfg.policy, cfg.grid, cfg.duration_s,
                               cfg.trajectory_dt_s, seed=0)


def snapshot_series(cfg: ScenarioConfig, mc_seed, traj: Trajectory) -> SnapshotSeries:
    """The full CCDF/class pipeline along ``traj`` on common random numbers.

    Each distinct small-cell position is evaluated once, all of them in one
    ``snapshot_sweep``, into one (curves, profile, loads) record; every
    snapshot at that position (a later lap, a dwelling bus) holds that same
    record."""
    times = np.arange(0.0, cfg.duration_s + 0.5 * cfg.snapshot_s, cfg.snapshot_s)
    steps = [traj.index_at(float(t)) for t in times]
    positions = [traj.states[i].position for i in steps]
    first = {(Ls.x, Ls.y): Ls for Ls in positions}   # in first-snapshot order
    samples = FieldSamples(cfg.spec, cfg.params, cfg.layout, cfg.mc_samples, mc_seed)
    swept = snapshot_sweep(list(first.values()), cfg.small_reach_km, cfg.levels, samples)
    records = {}       # (x, y) -> (curves, profile, loads)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # degenerate far-off small curves
        for key, (m1, m0, s1, s0) in zip(first, swept):
            prof = extract_classes(m1, s1, m0, s0, cfg.K, cfg.L, cfg.traffic.lambda_tot)
            records[key] = ((m1, m0, s1, s0), prof,
                            coupled_loads_fixed_point(prof, cfg.traffic))
    curves, profiles, loads = map(list, zip(*[records[(Ls.x, Ls.y)] for Ls in positions]))
    rates = estimate_transition_rates(times, profiles, cfg.extra_migration_rate)
    return SnapshotSeries(times, positions, distance_to_hotspot(traj, cfg.spec)[steps],
                          profiles, loads, rates, curves)


def macro_only_profile(cfg: ScenarioConfig) -> ClassProfile:
    """Baseline classes from the closed-form macro-only CCDF (its
    ``macro_curve``); all traffic in the macro cell, both phases equal
    (nothing interferes)."""
    curve = macro_only_ccdf(cfg.levels, cfg.spec, cfg.params, cfg.layout)
    rates, masses = curve_pmf(curve)
    eta, edges = _equal_mass_bins(rates, masses, cfg.K)
    return ClassProfile(
        K=cfg.K, L=1,
        eta_macro=np.column_stack([eta, eta]),
        eta_small=np.array([[1.0, 1.0]]),
        lambda_macro=np.full(cfg.K, cfg.traffic.lambda_tot / cfg.K),
        lambda_small=np.array([0.0]),
        S_t=curve.mass, S_tilde_t=0.0,
        macro_edges=edges, small_edges=np.array([1.0, 1.0]),
        macro_curve=curve,
    )


@dataclass
class WindowSeries:
    t: np.ndarray
    rho: np.ndarray
    rho_tilde: np.ndarray
    rho_bar: np.ndarray       # merged quasi-stationary system load
    eta_bar: np.ndarray       # lambda sigma0 / rho_bar
    R: np.ndarray             # Little throughput of the merged window queue


def window_series(times: np.ndarray, loads: list, traffic: TrafficSpec) -> WindowSeries:
    """The windows of a series: ``loads`` holds the coupled loads of each
    window, one per time.  The macro-only baseline is its one load repeated."""
    rho = np.array([ld.rho for ld in loads])
    rho_tilde = np.array([ld.rho_tilde for ld in loads])
    rho_bar = rho + rho_tilde
    offered = traffic.lambda_tot * traffic.sigma0
    R = np.where(rho_bar < 1.0, offered * (1.0 - rho_bar) / np.maximum(rho_bar, 1e-12), 0.0)
    return WindowSeries(times, rho, rho_tilde, rho_bar,
                        offered / np.maximum(rho_bar, 1e-12), R)


def mean_flux_rates(series: SnapshotSeries, nu_floor: float) -> TransitionRates:
    """Horizon-level hazards for the ergodic class chain: probability fluxes
    averaged over the horizon, normalized by the mean shares (so the chain's
    handover balance reproduces the ergodic coverage split), floored to keep
    every referenced ratio defined."""
    K = series.profiles[0].K
    L = series.profiles[0].L
    shares = np.array([p.small_share for p in series.profiles])
    mean_share = float(np.mean(shares))
    dshare = np.diff(shares) / np.diff(series.times)
    flux_up = float(np.mean(np.maximum(dshare, 0.0)))
    flux_down = float(np.mean(np.maximum(-dshare, 0.0)))
    m2s = max(flux_up / max(1.0 - mean_share, SMALL_SHARE_EPS), nu_floor)
    s2m = max(flux_down / max(mean_share, SMALL_SHARE_EPS), nu_floor)

    def avg(attr, n, last_zero):
        acc = np.zeros(n)
        for r in series.rates:
            acc += getattr(r, attr)
        acc /= max(len(series.rates), 1)
        floor = np.full(n, nu_floor)
        if last_zero == "up":
            floor[-1] = 0.0
        else:
            floor[0] = 0.0
        return np.maximum(acc, floor)

    return TransitionRates(avg("nu_up", K, "up"), avg("nu_down", K, "down"),
                           avg("nu_tilde_up", L, "up"), avg("nu_tilde_down", L, "down"),
                           m2s, s2m)


def ergodic_summary(series: SnapshotSeries, win: WindowSeries, cfg: ScenarioConfig) -> dict:
    """Whole-horizon mobility-averaged quantities: class membership from the
    mean-flux chain, the equivalent single-queue service rate and load, and
    the matching mean flow throughput forms; ``win`` is the series' windows."""
    rates = mean_flux_rates(series, cfg.nu_floor)
    q, q_tilde = class_membership(rates)
    eta_bar, rho_bar = effective_rate(series.times, series.profiles, series.loads, q,
                                      q_tilde, cfg.traffic)
    offered = cfg.traffic.lambda_tot * cfg.traffic.sigma0
    # windowed quasi-stationary occupancy from the per-window coupled
    # stationary marginals, one PS queue per cell; unstable windows are
    # capped at the arrivals a window can accumulate
    cap = cfg.traffic.lambda_tot * cfg.snapshot_s

    def ps_n(rho):
        return np.where(rho < 1.0, rho / np.maximum(1.0 - rho, 1e-12), cap)

    n_w = np.minimum(ps_n(win.rho) + ps_n(win.rho_tilde), cap)
    mean_n = float(np.mean(n_w))
    return {
        "q": q, "q_tilde": q_tilde,
        "eta_bar_ergodic": eta_bar,
        "rho_bar_ergodic": rho_bar,
        "R_ergodic": eta_bar * (1.0 - rho_bar) if rho_bar < 1.0 else 0.0,
        "mean_n_windowed": mean_n,
        "R_windowed": offered / mean_n if mean_n > 0 else math.inf,
        "mean_small_share": float(np.mean([p.small_share for p in series.profiles])),
    }


@dataclass
class ReplicationResult:
    rep: int
    windows_sc: WindowSeries
    summary: dict
    emp_sc: dict
    emp_mo: dict
    distance_km: np.ndarray        # per snapshot, small cell to hotspot centre
    trace_sc: QueueTrace | None = None   # replication 0 only, flows recorded


def _empirical_windows(trace) -> dict:
    """Per-snapshot-piece occupancy and served-rate series from a trace."""
    int_n = trace.piece_int_n.sum(axis=1)
    served = trace.piece_served.sum(axis=1)
    t_piece = np.maximum(trace.piece_time, 1e-12)
    return {
        "t": trace.piece_t,
        "mean_n": int_n / t_piece,
        "served_rate": served / t_piece,
        "R_w": np.where(int_n > 0, served / np.maximum(int_n, 1e-12), np.nan),
        "metrics": empirical_metrics(trace),
    }


def run_replication(cfg: ScenarioConfig, rep: int, prof_mo: ClassProfile,
                    traj: Trajectory) -> ReplicationResult:
    """One full replication: fresh Monte Carlo draws for the radio pipeline
    and a fresh arrival stream for both scenarios.

    It builds one snapshot series along ``traj`` and runs two simulations on
    its snapshot times, the with-small-cell scenario and the macro-only
    baseline (``prof_mo`` in every piece).
    Replication 0 records its with-small-cell flows and keeps that trace,
    with the occupancy every trace samples at each snapshot, for
    ``trace_rep0.csv`` and ``flows_rep0.csv``; neither draws anything, so
    the trace is the very run whose metrics the replication reports."""
    mc_seed = (cfg.seed, rep, 0)
    sim_seed = (cfg.seed, rep, 1)
    series = snapshot_series(cfg, mc_seed, traj)
    windows_sc = window_series(series.times, series.loads, cfg.traffic)
    summary = ergodic_summary(series, windows_sc, cfg)

    trace_sc = simulate(series.times, series.profiles, series.rates, cfg.traffic,
                        cfg.duration_s, sim_seed, record_flows=rep == 0)
    # carve the baseline pieces on the same snapshot grid so windowed series align
    trace_mo = simulate(series.times, [prof_mo] * len(series.times), None, cfg.traffic,
                        cfg.duration_s, sim_seed)
    return ReplicationResult(rep, windows_sc, summary,
                             _empirical_windows(trace_sc), _empirical_windows(trace_mo),
                             series.distance_km, trace_sc if rep == 0 else None)


@dataclass
class DynamicsResult:
    cfg: ScenarioConfig
    times: np.ndarray
    distance_km: np.ndarray
    replications: list
    windows_mo: WindowSeries
    baseline_stable: bool

    def window_masks(self):
        near = self.distance_km < NEAR_WINDOW_KM
        far = (self.distance_km >= FAR_WINDOW_KM[0]) & (self.distance_km < FAR_WINDOW_KM[1])
        return near, far


def run_dynamics(cfg: ScenarioConfig, out_dir=None) -> DynamicsResult:
    """Full dynamics experiment over all replications; optionally writes the
    CSV outputs under ``out_dir``.

    The macro-only profile and the trajectory are built once and shared by
    every replication.  Each replication costs one snapshot series and two
    simulations; the snapshot times and distances come from replication 0."""
    prof_mo = macro_only_profile(cfg)
    traj = scenario_trajectory(cfg)
    reps = list(range(cfg.replications))
    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor   # not paid for by one worker
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run_replication, [cfg] * len(reps), reps,
                                    [prof_mo] * len(reps), [traj] * len(reps)))
    else:
        results = [run_replication(cfg, r, prof_mo, traj) for r in reps]

    rep0 = results[0]
    times = rep0.windows_sc.t
    windows_mo = window_series(
        times, [coupled_loads_fixed_point(prof_mo, cfg.traffic)] * len(times), cfg.traffic)
    baseline_stable = bool(windows_mo.rho_bar[0] < 1.0)
    out = DynamicsResult(cfg, times, rep0.distance_km, results, windows_mo,
                         baseline_stable)
    if out_dir is not None:
        _write(out_dir, provenance(cfg, "dynamics", cfg.seed), _dynamics_files(out))
    return out


def _write(out_dir, prov: str, files: dict) -> None:
    """Every output file.  ``files`` maps each name under ``out_dir`` (made
    if absent) to its header and rows, lines of comma-separated fields that
    need no quoting.  A file is the provenance line ``prov``, then the header
    and the rows, each ending in \\r\\n as csv.writer ends them."""
    os.makedirs(out_dir, exist_ok=True)
    for name, (header, rows) in files.items():
        with open(f"{out_dir}/{name}", "w", newline="") as fh:
            fh.write(f"{prov}\n" + "\r\n".join([header, *rows, ""]))


_METRIC_HEADER = ("scenario_id,t_window,rho,rho_tilde,rho_bar,eta_bar_mbps,R_mbps,"
                  "conservation_residual")


def _metrics_rows(scenario_id, win: WindowSeries, residual=0.0) -> list:
    return [f"{scenario_id},{t:.1f},{rho:.8f},{rho_tilde:.8f},{rho_bar:.8f},"
            f"{eta_bar:.6f},{r:.6f},{residual:.6f}"
            for t, rho, rho_tilde, rho_bar, eta_bar, r in zip(
                win.t, win.rho, win.rho_tilde, win.rho_bar, win.eta_bar, win.R)]


def _trace_file(trace: QueueTrace) -> tuple:
    """Header and rows of the class counts at each sample, macro classes first."""
    return "t_s,cell,class,count", [
        f"{t:.6f},{cell},{k},{n}"
        for t, counts in zip(trace.sample_times, trace.sample_counts)
        for cell, cell_counts in zip(("macro", "small"), counts)
        for k, n in enumerate(cell_counts, 1)]


def _flows_file(trace: QueueTrace) -> tuple:
    """Header and rows of the recorded flows, one line per flow: each path
    is the label of the class it arrived in, then one per move."""
    cols = trace.flow_columns
    label = {(c, k): f"{'MS'[c]}{k + 1}" for c, n in enumerate((trace.K, trace.L))
             for k in range(n)}
    paths = [label[tag] for tag in cols.first]
    for fid, tag in zip(cols.moved_fid, cols.moved_to):
        paths[fid] += ">" + label[tag]
    return "arrival_s,departure_s,cell_path,size_mbits", [
        f"{a:.6f},{'' if math.isnan(d) else f'{d:.6f}'},{p},{s:.6f}"
        for a, d, s, p in zip(cols.arrival, cols.departure, cols.size, paths)]


def _dynamics_files(res: DynamicsResult) -> dict:
    """The six dynamics CSVs.  ``trace_rep0.csv`` and ``flows_rep0.csv`` come
    from replication 0's own with-small-cell simulation, the run behind its
    reported metrics; nothing is simulated here."""
    sid = res.cfg.scenario_id
    trace0 = res.replications[0].trace_sc
    metrics_sc = [row for rr in res.replications
                  for row in _metrics_rows(f"{sid}:sc:rep{rr.rep}", rr.windows_sc,
                                           rr.emp_sc["metrics"].conservation_residual)]
    empirical = [f"{sid}:{tag},{rr.rep},{t:.1f},{n:.6f},{served:.6f},{r:.6f}"
                 for rr in res.replications
                 for tag, emp in (("sc", rr.emp_sc), ("macro_only", rr.emp_mo))
                 for t, n, served, r in zip(emp["t"], emp["mean_n"], emp["served_rate"],
                                            emp["R_w"])]
    summary = []
    for rr in res.replications:
        s, m_sc, m_mo = rr.summary, rr.emp_sc["metrics"], rr.emp_mo["metrics"]
        summary.append(
            f"{sid},{rr.rep},{s['eta_bar_ergodic']:.6f},{s['rho_bar_ergodic']:.6f},"
            f"{s['R_ergodic']:.6f},{s['R_windowed']:.6f},{m_sc.mean_flow_throughput:.6f},"
            f"{m_mo.mean_flow_throughput:.6f},{m_sc.conservation_residual:.6f},"
            f"{m_mo.conservation_residual:.6f},{s['mean_small_share']:.6f}")
    return {
        "trace_rep0.csv": _trace_file(trace0),
        "flows_rep0.csv": _flows_file(trace0),
        "metrics_sc.csv": (_METRIC_HEADER, metrics_sc),
        "metrics_macro_only.csv": (_METRIC_HEADER,
                                   _metrics_rows(f"{sid}:macro_only", res.windows_mo)),
        "metrics_empirical.csv": (
            "scenario_id,rep,t_window,mean_flows,served_mbps,R_window_mbps", empirical),
        "summary.csv": ("scenario_id,rep,eta_bar_ergodic,rho_bar_ergodic,R_ergodic,"
                        "R_windowed,R_empirical_sc,R_empirical_mo,residual_sc_mbps,"
                        "residual_mo_mbps,mean_small_share", summary),
    }


def _curves_file(curves) -> tuple:
    """Header and rows of ``curves``, (t, curve) pairs."""
    return "t_s,cell,level_mbps,ccdf,stderr", [
        f"{t:.3f},{c.cell.value},{level:.6f},{v:.8f},{se:.8f}"
        for t, c in curves for level, v, se in zip(c.levels, c.values, c.stderr)]


def _trajectory_file(traj: Trajectory) -> tuple:
    return "t_s,x_km,y_km,speed_kmh,heading", [
        f"{t:.6f},{s.position.x:.9f},{s.position.y:.9f},{s.velocity:.6f},{s.heading.name}"
        for t, s in zip(traj.t, traj.states)]


def run_ccdf(cfg: ScenarioConfig, times=None, distances_m=(0.0, 60.0, 120.0), out_dir=None):
    """CCDF experiment: the macro-only closed form plus macro/small/combined
    curves at the snapshots nearest the requested times (or
    small-cell-to-hotspot distances), and the time-averaged combined and
    small-cell curves over the horizon.

    A requested time or distance picks the nearest snapshot; on a tie (later
    laps repeat the first lap's positions) the earliest snapshot wins.  The
    per-snapshot curves are the instantaneous ones (interference from the
    other cell always on).  The time-averaged combined curve instead weights
    each cell's idle and interfered curves by the partner cell's activity
    (its clamped load), matching the coupling the flow-level model applies:
    far from the hotspot the small cell is almost always empty and the
    average user experience converges to the no-small-cell baseline instead
    of to a permanently interfered field.
    """
    traj = scenario_trajectory(cfg)
    series = snapshot_series(cfg, (cfg.seed, 0, 0), traj)
    grid_times = series.times
    d_at = series.distance_km
    if times is None:
        times = [float(grid_times[int(np.argmin(np.abs(d_at - dm / 1000.0)))])
                 for dm in distances_m]
    baseline = macro_only_ccdf(cfg.levels, cfg.spec, cfg.params, cfg.layout)
    curves = [(0.0, baseline)]    # (t_s, curve): the baseline holds at every time
    picked = []
    for t in times:
        i = int(np.argmin(np.abs(grid_times - t)))
        t_i = float(grid_times[i])
        m1, m0, s1, s0 = series.curves[i]
        curves += [(t_i, m1), (t_i, s1), (t_i, combined_ccdf(m1, s1))]
        picked.append((t_i, m1, s1))

    # time- and phase-weighted average over the horizon, mass-weighted so
    # each snapshot contributes its covered population
    acc_c = np.zeros(len(cfg.levels))
    acc_s = np.zeros(len(cfg.levels))
    mass_c = mass_s = 0.0
    n_t = len(grid_times)
    for (m1, m0, s1, s0), ld in zip(series.curves, series.loads):
        w_small_busy = ld.rho_tilde_clamped
        w_macro_busy = ld.rho_clamped
        macro_vals = (1.0 - w_small_busy) * m0.values + w_small_busy * m1.values
        small_vals = (1.0 - w_macro_busy) * s0.values + w_macro_busy * s1.values
        acc_c += m1.mass * macro_vals + s1.mass * small_vals
        acc_s += s1.mass * small_vals
        mass_c += m1.mass + s1.mass
        mass_s += s1.mass
    avg_combined = CcdfCurve(cfg.levels, acc_c / max(mass_c, 1e-12),
                             np.zeros(len(cfg.levels)), Cell.MACRO, mass_c / n_t, 0)
    avg_small = CcdfCurve(cfg.levels, acc_s / max(mass_s, 1e-12),
                          np.zeros(len(cfg.levels)), Cell.SMALL, mass_s / n_t, 0)
    curves += [(-1.0, avg_combined), (-1.0, avg_small)]   # -1: over the horizon
    if out_dir is not None:
        _write(out_dir, provenance(cfg, "ccdf", cfg.seed), {
            "ccdf.csv": _curves_file(curves),
            "trajectory.csv": _trajectory_file(traj)})
    return {"baseline": baseline, "at_times": picked, "avg_combined": avg_combined,
            "avg_small": avg_small, "times": times, "series": series}


def run_sweep(cfg: ScenarioConfig, param: str, values, out_dir=None):
    """Dynamics summary metrics per parameter value, one row per value per
    replication; each row carries the scenario id of its value's run, made
    by ``config.with_overrides``.  The parameter and every value are checked
    (ConfigError) before any value is run."""
    if param not in SWEEP_PARAMS:
        raise ConfigError([f"unknown sweep parameter {param!r}; "
                           f"valid: {', '.join(SWEEP_PARAMS)}"])
    subs = [with_overrides(cfg, **{param: float(value)}) for value in values]
    rows = []
    for value, sub in zip(values, subs):
        res = run_dynamics(sub)
        near, far = res.window_masks()
        for rr in res.replications:
            rows.append({
                "param": param, "value": float(value), "rep": rr.rep,
                "scenario_id": sub.scenario_id,
                "rho_bar_mean": float(np.mean(rr.windows_sc.rho_bar)),
                "rho_bar_near": float(np.mean(rr.windows_sc.rho_bar[near])) if near.any() else math.nan,
                "rho_bar_far": float(np.mean(rr.windows_sc.rho_bar[far])) if far.any() else math.nan,
                "R_windowed": rr.summary["R_windowed"],
                "R_empirical": rr.emp_sc["metrics"].mean_flow_throughput,
                "rho_bar_macro_only": float(res.windows_mo.rho_bar[0]),
                "R_macro_only_emp": rr.emp_mo["metrics"].mean_flow_throughput,
                "mean_small_share": rr.summary["mean_small_share"],
            })
    if out_dir is not None:
        lines = [",".join(map(str, r.values())) for r in rows]
        _write(out_dir, provenance(cfg, f"sweep {param}", cfg.seed),
               {f"sweep_{param}.csv": (",".join(rows[0]), lines)})
    return rows
