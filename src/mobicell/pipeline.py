"""Experiment orchestration: trajectory -> per-snapshot CCDFs -> flow classes
and transition rates -> coupled flow simulation plus the analytic evaluation,
for both the with-small-cell scenario and the macro-only baseline.

A snapshot series evaluates each distinct small-cell position once.  A route
bus that returns to its starting state repeats its first lap exactly (see
``mobility.generate_trajectory``), so on a horizon of several laps every
later snapshot reuses the evaluation of its first-lap twin.

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

import csv
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from mobicell.analytic import (CoupledLoads, class_membership,
                               coupled_loads_fixed_point, effective_rate)
from mobicell.ccdf import (CcdfCurve, Cell, ClassProfile, FieldSamples,
                           combined_ccdf, curve_pmf, _equal_mass_bins,
                           curves_to_csv, extract_classes, macro_only_ccdf,
                           snapshot_curves)
# re-exported: perfbench/spans.py times the one-curve API under these names
from mobicell.ccdf import macro_ccdf, small_ccdf  # noqa: F401
from mobicell.config import ScenarioConfig, derived_scenario_id
from mobicell.flowsim import (MACRO, SMALL, QueueTrace, TrafficSpec,
                              TransitionRates, empirical_metrics,
                              estimate_transition_rates, simulate)
from mobicell.geometry import PolarPoint
from mobicell.hotspot import CoverageRegion, HotspotSpec
from mobicell.mobility import (Trajectory, distance_to_hotspot, generate_trajectory,
                               route_cruise_policy)
from mobicell.radio import RadioParams

SMALL_SHARE_EPS = 1e-3
NEAR_WINDOW_KM = 0.06          # small cell essentially on the hotspot
FAR_WINDOW_KM = (0.12, 0.30)   # near-but-off band: covering a small share


def provenance(cfg: ScenarioConfig, command: str, seed) -> str:
    return f"# scenario={cfg.scenario_id} seed={seed} command={command}"


@dataclass
class SnapshotSeries:
    """Per-snapshot radio state of the with-small-cell scenario."""

    times: np.ndarray
    positions: list
    distance_km: np.ndarray
    profiles: list
    loads: list
    rates: list                       # len(times) - 1, for the sim
    trajectory: Trajectory = field(repr=False)   # the path the positions sample
    curves: list = field(repr=False, default=None)   # (m1, m0, s1, s0) per snapshot


def scenario_trajectory(cfg: ScenarioConfig) -> Trajectory:
    """The small cell's path over the horizon; the same in every replication."""
    return generate_trajectory(cfg.policy, cfg.grid, cfg.duration_s,
                               cfg.trajectory_dt_s, seed=0)


def snapshot_series(cfg: ScenarioConfig, mc_seed, keep_curves: bool = False,
                    traj: Trajectory | None = None) -> SnapshotSeries:
    """Trajectory (``traj``, generated when not given) plus the full
    CCDF/class pipeline on common random numbers.

    Each distinct small-cell position is evaluated once: a later snapshot at
    the exact same position (a later lap, a dwelling bus) reuses its curves,
    class profile and loads, restamped with its own time."""
    if traj is None:
        traj = scenario_trajectory(cfg)
    dist = distance_to_hotspot(traj, cfg.spec)
    times = np.arange(0.0, cfg.duration_s + 0.5 * cfg.snapshot_s, cfg.snapshot_s)
    samples = FieldSamples(cfg.spec, cfg.params, cfg.layout, cfg.mc_samples, mc_seed)
    positions, profiles, loads, curves = [], [], [], []
    d_at = []
    seen = {}          # (x, y) -> (curves, profile, loads) of its first snapshot
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # degenerate far-off small curves
        for t in times:
            Ls = traj.position_at(float(t))
            hit = seen.get((Ls.x, Ls.y))
            if hit is None:
                region = CoverageRegion(cfg.layout.R, Ls, cfg.small_reach_km)
                m1, m0, s1, s0 = four = snapshot_curves(t, Ls, cfg.levels, region,
                                                        samples)
                prof = extract_classes(m1, s1, m0, s0, cfg.K, cfg.L,
                                       cfg.traffic.lambda_tot)
                ld = coupled_loads_fixed_point(prof, cfg.traffic)
                seen[(Ls.x, Ls.y)] = (four, prof, ld)
            else:
                four = tuple(replace(c, t=t) for c in hit[0])
                prof = replace(hit[1], t=t, macro_curve=four[0], small_curve=four[2])
                ld = hit[2]
            positions.append(Ls)
            profiles.append(prof)
            loads.append(ld)
            if keep_curves:
                curves.append(four)
            i = min(int(round(t / cfg.trajectory_dt_s)), len(dist) - 1)
            d_at.append(dist[i])
    rates = estimate_transition_rates(profiles, cfg.extra_migration_rate,
                                      min_share=SMALL_SHARE_EPS)
    return SnapshotSeries(times, positions, np.asarray(d_at), profiles, loads, rates,
                          traj, curves if keep_curves else None)


def macro_only_profile(cfg: ScenarioConfig) -> tuple[ClassProfile, CcdfCurve]:
    """Baseline classes from the closed-form macro-only CCDF; all traffic in
    the macro cell, both phases equal (nothing interferes)."""
    curve = macro_only_ccdf(cfg.levels, cfg.spec, cfg.params, cfg.layout)
    rates, masses = curve_pmf(curve)
    eta, edges = _equal_mass_bins(rates, masses, cfg.K)
    prof = ClassProfile(
        t=0.0, K=cfg.K, L=1,
        eta_macro=np.column_stack([eta, eta]),
        eta_small=np.array([[1.0, 1.0]]),
        p_macro=np.full(cfg.K, 1.0 / cfg.K), p_small=np.array([1.0]),
        lambda_macro=np.full(cfg.K, cfg.traffic.lambda_tot / cfg.K),
        lambda_small=np.array([0.0]),
        S_t=curve.mass, S_tilde_t=0.0,
        macro_edges=edges, small_edges=np.array([1.0, 1.0]),
        macro_curve=curve,
    )
    return prof, curve


@dataclass
class WindowSeries:
    t: np.ndarray
    rho: np.ndarray
    rho_tilde: np.ndarray
    rho_bar: np.ndarray       # merged quasi-stationary system load
    eta_bar: np.ndarray       # lambda sigma0 / rho_bar
    R: np.ndarray             # Little throughput of the merged window queue


def _little(rho_bar: np.ndarray, offered: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(rho_bar < 1.0,
                        offered * (1.0 - rho_bar) / np.maximum(rho_bar, 1e-12), 0.0)


def analytic_windows(series: SnapshotSeries, traffic: TrafficSpec) -> WindowSeries:
    rho = np.array([ld.rho for ld in series.loads])
    rho_t = np.array([ld.rho_tilde for ld in series.loads])
    rho_bar = rho + rho_t
    offered = traffic.lambda_tot * traffic.sigma0
    eta_bar = offered / np.maximum(rho_bar, 1e-12)
    return WindowSeries(series.times, rho, rho_t, rho_bar, eta_bar,
                        _little(rho_bar, offered))


def baseline_windows(prof_mo: ClassProfile, traffic: TrafficSpec,
                     times: np.ndarray) -> WindowSeries:
    loads = coupled_loads_fixed_point(prof_mo, traffic)
    rho_bar = np.full(len(times), loads.rho)
    offered = traffic.lambda_tot * traffic.sigma0
    return WindowSeries(times, rho_bar.copy(), np.zeros(len(times)), rho_bar,
                        offered / np.maximum(rho_bar, 1e-12),
                        _little(rho_bar, offered))


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

    return TransitionRates(0.0, avg("nu_up", K, "up"), avg("nu_down", K, "down"),
                           avg("nu_tilde_up", L, "up"), avg("nu_tilde_down", L, "down"),
                           m2s, s2m)


def ergodic_summary(series: SnapshotSeries, cfg: ScenarioConfig) -> dict:
    """Whole-horizon mobility-averaged quantities: class membership from the
    mean-flux chain, the equivalent single-queue service rate and load, and
    the matching mean flow throughput forms."""
    rates = mean_flux_rates(series, cfg.nu_floor)
    q, q_tilde = class_membership(rates)
    eta_bar, rho_bar = effective_rate(series.profiles, series.loads, q, q_tilde,
                                      cfg.traffic)
    offered = cfg.traffic.lambda_tot * cfg.traffic.sigma0
    win = analytic_windows(series, cfg.traffic)
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
    trace_sc: QueueTrace | None = None   # replication 0 only, occupancy sampled


def _empirical_windows(trace) -> dict:
    """Per-snapshot-piece occupancy and served-rate series from a trace."""
    with np.errstate(invalid="ignore", divide="ignore"):
        t_piece = np.maximum(trace.piece_time, 1e-12)
        n_mean = trace.piece_int_n.sum(axis=1) / t_piece
        served_rate = trace.piece_served.sum(axis=1) / t_piece
        int_n = trace.piece_int_n.sum(axis=1)
        r_w = np.where(int_n > 0, trace.piece_served.sum(axis=1) / np.maximum(int_n, 1e-12),
                       np.nan)
    m = empirical_metrics(trace)
    return {
        "t": trace.piece_t,
        "mean_n": n_mean,
        "served_rate": served_rate,
        "R_w": r_w,
        "metrics": m,
    }


def run_replication(cfg: ScenarioConfig, rep: int, prof_mo: ClassProfile | None = None,
                    traj: Trajectory | None = None) -> ReplicationResult:
    """One full replication: fresh Monte Carlo draws for the radio pipeline
    and a fresh arrival stream for both scenarios.

    It builds one snapshot series and runs two simulations, the
    with-small-cell scenario and the macro-only baseline (``prof_mo``, built
    here when not given), along ``traj`` (generated when not given).
    Replication 0 samples its with-small-cell occupancy every snapshot,
    records its flows and keeps that trace for ``trace_rep0.csv`` and
    ``flows_rep0.csv``; neither draws anything, so the trace is the very run
    whose metrics the replication reports."""
    mc_seed = (cfg.seed, rep, 0)
    sim_seed = (cfg.seed, rep, 1)
    series = snapshot_series(cfg, mc_seed, traj=traj)
    windows_sc = analytic_windows(series, cfg.traffic)
    summary = ergodic_summary(series, cfg)

    trace_sc = simulate(series.profiles, series.rates, cfg.traffic, cfg.duration_s,
                        sim_seed, sample_dt=cfg.snapshot_s if rep == 0 else None,
                        record_flows=rep == 0)
    if prof_mo is None:
        prof_mo, _ = macro_only_profile(cfg)
    # carve the baseline pieces on the same snapshot grid so windowed series align
    profs_mo = []
    for t in series.times:
        p = ClassProfile(**{**prof_mo.__dict__, "t": float(t)})
        profs_mo.append(p)
    trace_mo = simulate(profs_mo, None, cfg.traffic, cfg.duration_s, sim_seed)
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
    prof_mo, _ = macro_only_profile(cfg)
    traj = scenario_trajectory(cfg)
    reps = list(range(cfg.replications))
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run_replication, [cfg] * len(reps), reps,
                                    [prof_mo] * len(reps), [traj] * len(reps)))
    else:
        results = [run_replication(cfg, r, prof_mo, traj) for r in reps]

    rep0 = results[0]
    windows_mo = baseline_windows(prof_mo, cfg.traffic, rep0.windows_sc.t)
    baseline_stable = bool(windows_mo.rho_bar[0] < 1.0)
    out = DynamicsResult(cfg, rep0.windows_sc.t, rep0.distance_km, results, windows_mo,
                         baseline_stable)
    if out_dir is not None:
        _write_dynamics(out, out_dir)
    return out


def _metrics_rows(scenario_id, win: WindowSeries, residual=0.0):
    rows = []
    for i, t in enumerate(win.t):
        rows.append([scenario_id, f"{t:.1f}", f"{win.rho[i]:.8f}",
                     f"{win.rho_tilde[i]:.8f}", f"{win.rho_bar[i]:.8f}",
                     f"{win.eta_bar[i]:.6f}", f"{win.R[i]:.6f}", f"{residual:.6f}"])
    return rows


_METRIC_HEADER = ["scenario_id", "t_window", "rho", "rho_tilde", "rho_bar",
                  "eta_bar_mbps", "R_mbps", "conservation_residual"]


def _write_csv(path, header, rows, lines):
    with open(path, "w", newline="") as fh:
        for line in lines:
            fh.write(line.rstrip("\n") + "\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_dynamics(res: DynamicsResult, out_dir):
    """The six dynamics CSVs.  ``trace_rep0.csv`` and ``flows_rep0.csv`` are
    written from replication 0's own with-small-cell simulation, the run
    behind its reported metrics; nothing is simulated here."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    cfg = res.cfg
    prov = provenance(cfg, "dynamics", cfg.seed)

    trace0 = res.replications[0].trace_sc
    trace0.to_csv(f"{out_dir}/trace_rep0.csv", (prov,))
    trace0.flows_to_csv(f"{out_dir}/flows_rep0.csv", (prov,))

    rows = []
    for rr in res.replications:
        m = rr.emp_sc["metrics"]
        for row in _metrics_rows(f"{cfg.scenario_id}:sc:rep{rr.rep}", rr.windows_sc,
                                 residual=m.conservation_residual):
            rows.append(row)
    _write_csv(f"{out_dir}/metrics_sc.csv", _METRIC_HEADER, rows, (prov,))

    rows = _metrics_rows(f"{cfg.scenario_id}:macro_only", res.windows_mo)
    _write_csv(f"{out_dir}/metrics_macro_only.csv", _METRIC_HEADER, rows, (prov,))

    emp_header = ["scenario_id", "rep", "t_window", "mean_flows", "served_mbps",
                  "R_window_mbps"]
    rows = []
    for rr in res.replications:
        for tag, emp in (("sc", rr.emp_sc), ("macro_only", rr.emp_mo)):
            for i, t in enumerate(emp["t"]):
                rows.append([f"{cfg.scenario_id}:{tag}", rr.rep, f"{t:.1f}",
                             f"{emp['mean_n'][i]:.6f}", f"{emp['served_rate'][i]:.6f}",
                             f"{emp['R_w'][i]:.6f}"])
    _write_csv(f"{out_dir}/metrics_empirical.csv", emp_header, rows, (prov,))

    sum_header = ["scenario_id", "rep", "eta_bar_ergodic", "rho_bar_ergodic",
                  "R_ergodic", "R_windowed", "R_empirical_sc", "R_empirical_mo",
                  "residual_sc_mbps", "residual_mo_mbps", "mean_small_share"]
    rows = []
    for rr in res.replications:
        s = rr.summary
        rows.append([cfg.scenario_id, rr.rep, f"{s['eta_bar_ergodic']:.6f}",
                     f"{s['rho_bar_ergodic']:.6f}", f"{s['R_ergodic']:.6f}",
                     f"{s['R_windowed']:.6f}",
                     f"{rr.emp_sc['metrics'].mean_flow_throughput:.6f}",
                     f"{rr.emp_mo['metrics'].mean_flow_throughput:.6f}",
                     f"{rr.emp_sc['metrics'].conservation_residual:.6f}",
                     f"{rr.emp_mo['metrics'].conservation_residual:.6f}",
                     f"{s['mean_small_share']:.6f}"])
    _write_csv(f"{out_dir}/summary.csv", sum_header, rows, (prov,))


def run_ccdf(cfg: ScenarioConfig, times=None, distances_m=(0.0, 60.0, 120.0),
             out_dir=None, series: SnapshotSeries | None = None):
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
    if series is None:
        series = snapshot_series(cfg, (cfg.seed, 0, 0), keep_curves=True)
    grid_times = series.times
    d_at = series.distance_km
    if times is None:
        times = [float(grid_times[int(np.argmin(np.abs(d_at - dm / 1000.0)))])
                 for dm in distances_m]
    baseline = macro_only_ccdf(cfg.levels, cfg.spec, cfg.params, cfg.layout)
    curves = [baseline]
    picked = []
    for t in times:
        i = int(np.argmin(np.abs(grid_times - t)))
        m1, m0, s1, s0 = series.curves[i]
        curves += [m1, s1, combined_ccdf(m1, s1)]
        picked.append((float(grid_times[i]), m1, s1))

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
                             np.zeros(len(cfg.levels)), Cell.MACRO, -1.0,
                             mass_c / n_t, 0)
    avg_small = CcdfCurve(cfg.levels, acc_s / max(mass_s, 1e-12),
                          np.zeros(len(cfg.levels)), Cell.SMALL, -1.0,
                          mass_s / n_t, 0)
    curves += [avg_combined, avg_small]
    if out_dir is not None:
        import os
        os.makedirs(out_dir, exist_ok=True)
        curves_to_csv(f"{out_dir}/ccdf.csv", curves,
                      (provenance(cfg, "ccdf", cfg.seed),))
        series.trajectory.to_csv(f"{out_dir}/trajectory.csv",
                                 (provenance(cfg, "ccdf", cfg.seed),))
    return {"baseline": baseline, "at_times": picked, "avg_combined": avg_combined,
            "avg_small": avg_small, "times": times, "series": series}


SWEEP_PARAMS = ("kappa", "sigma_km", "lambda_tot", "k_classes", "small_reach_km",
                "period_s")


def _with_param(cfg: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    if param == "kappa":
        params = RadioParams(**{**cfg.params.__dict__, "kappa": float(value)})
        return replace(cfg, params=params)
    if param == "sigma_km":
        return replace(cfg, spec=HotspotSpec(cfg.spec.R_h, cfg.spec.theta_h, float(value)))
    if param == "lambda_tot":
        return replace(cfg, traffic=TrafficSpec(float(value), cfg.traffic.sigma0))
    if param == "k_classes":
        return replace(cfg, K=int(value), L=int(value))
    if param == "small_reach_km":
        return replace(cfg, small_reach_km=float(value))
    if param == "period_s":
        if cfg.policy.route is None:
            raise ValueError("period sweep needs a route scenario")
        p = cfg.policy
        policy = route_cruise_policy(p.route, float(value), v_max=p.v_max, dv=p.dv,
                                     turn_probs=p.turn_probs, stops=p.stops)
        return replace(cfg, policy=policy, period_s=float(value))
    raise ValueError(f"unknown sweep parameter {param!r}; valid: {', '.join(SWEEP_PARAMS)}")


def run_sweep(cfg: ScenarioConfig, param: str, values, out_dir=None):
    """Dynamics summary metrics per parameter value, one row per value per
    replication; each row carries the scenario id of its value's run."""
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}; valid: {', '.join(SWEEP_PARAMS)}")
    rows = []
    for value in values:
        sub = _with_param(cfg, param, float(value))
        if any(v is not vars(cfg)[k] and v != vars(cfg)[k] for k, v in vars(sub).items()):
            # a changed setting adds param=value to the id, as with_overrides
            # does (identity first: the shared level array is not compared)
            sub = replace(sub, scenario_id=derived_scenario_id(
                cfg.scenario_id, [f"{param}={float(value)!r}"]))
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
        import os
        os.makedirs(out_dir, exist_ok=True)
        header = list(rows[0].keys())
        _write_csv(f"{out_dir}/sweep_{param}.csv", header,
                   [[r[h] for h in header] for r in rows],
                   (provenance(cfg, f"sweep {param}", cfg.seed),))
    return rows
