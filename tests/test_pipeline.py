import csv
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import mobicell
from mobicell.analytic import coupled_loads_fixed_point
from mobicell.ccdf import (FieldSamples, extract_classes, snapshot_curves,
                           snapshot_sweep)
from mobicell.config import (ConfigError, bundled_scenario_path, derived_scenario_id,
                             load_scenario, with_overrides)
from mobicell.pipeline import (macro_only_profile, mean_flux_rates, run_ccdf,
                               run_dynamics, run_replication, run_sweep,
                               scenario_trajectory, snapshot_series, window_series)


@pytest.fixture(scope="module")
def cfg_small():
    cfg = load_scenario(bundled_scenario_path())
    return replace(cfg, mc_samples=40_000, duration_s=1800.0, replications=1,
                   snapshot_s=60.0)


@pytest.fixture(scope="module")
def series_small(cfg_small):
    return snapshot_series(cfg_small, (1, 0, 0), scenario_trajectory(cfg_small))


def test_snapshot_series_structure(cfg_small, series_small):
    s = series_small
    n = int(cfg_small.duration_s / cfg_small.snapshot_s) + 1
    assert len(s.times) == n == len(s.profiles) == len(s.loads)
    assert len(s.rates) == n - 1
    assert s.distance_km.min() < 0.02          # route passes through the hotspot
    assert s.distance_km.max() > 0.3
    for p in s.profiles:
        assert np.all(np.diff(p.eta_macro[:, 1]) >= 0)
        assert p.lambda_macro.sum() + p.lambda_small.sum() == pytest.approx(
            cfg_small.traffic.lambda_tot)


def test_a_round_holds_its_draws_and_flows_at_the_size_it_keeps(cfg_small):
    """Building the reference scenario's field samples peaks, as traced, at
    most 1.8 times the bytes they keep (the draws, g and kappa r^2b), and
    replication 0's recorded flows hold 8 bytes per value in each value
    column."""
    cfg = load_scenario(bundled_scenario_path())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        samples = FieldSamples(cfg.spec, cfg.params, cfg.layout, cfg.mc_samples, (1, 0, 0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    kept = samples.xy.nbytes + samples.g.nbytes + samples._kr.nbytes
    assert peak <= 1.8 * kept, f"peak {peak / kept:.3f} times the bytes kept"

    trace = run_replication(cfg_small, 0, macro_only_profile(cfg_small),
                            scenario_trajectory(cfg_small)).trace_sc
    cols = trace.flow_columns
    assert trace.n_arrivals > 0
    for col in (cols.arrival, cols.size, cols.departure, cols.served, cols.scale):
        view = memoryview(col)
        assert (view.format, view.nbytes) == ("d", 8 * trace.n_arrivals)


def test_lap_two_snapshot_reuses_a_fresh_evaluation(cfg_small):
    """Over two laps each distinct position is evaluated once, and a lap-2
    snapshot returns what a fresh evaluation at its position computes: the
    very curves, profile and loads of its lap-1 twin."""
    cfg = replace(cfg_small, mc_samples=20_000, duration_s=2 * cfg_small.period_s,
                  snapshot_s=300.0)
    with mock.patch("mobicell.pipeline.snapshot_sweep",
                    side_effect=snapshot_sweep) as sweep:
        s = snapshot_series(cfg, (1, 0, 0), scenario_trajectory(cfg))
    distinct = {(p.x, p.y) for p in s.positions}
    evaluated = sum(len(call.args[0]) for call in sweep.call_args_list)
    assert evaluated == len(distinct) < len(s.times)

    t = cfg.period_s + 300.0
    i, j = list(s.times).index(t), list(s.times).index(300.0)
    Ls = s.positions[i]
    assert (Ls.x, Ls.y) == (s.positions[j].x, s.positions[j].y)
    samples = FieldSamples(cfg.spec, cfg.params, cfg.layout, cfg.mc_samples, (1, 0, 0))
    fresh = snapshot_curves(Ls, cfg.small_reach_km, cfg.levels, samples)
    prof = extract_classes(fresh[0], fresh[2], fresh[1], fresh[3], cfg.K, cfg.L,
                           cfg.traffic.lambda_tot)
    for got, want, twin in zip(s.curves[i], fresh, s.curves[j]):
        assert got is twin
        assert (got.cell, got.mass, got.n_samples, got.empty) == \
            (want.cell, want.mass, want.n_samples, want.empty)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.stderr, want.stderr)
    got = s.profiles[i]
    assert got is s.profiles[j] and s.loads[i] is s.loads[j]
    assert got.macro_curve is s.curves[i][0] and got.small_curve is s.curves[i][2]
    for name in ("eta_macro", "eta_small", "lambda_macro", "lambda_small",
                 "macro_edges", "small_edges"):
        assert np.array_equal(getattr(got, name), getattr(prof, name)), name
    assert (got.K, got.L, got.S_t, got.S_tilde_t) == (prof.K, prof.L, prof.S_t,
                                                      prof.S_tilde_t)
    assert repr(s.loads[i]) == repr(coupled_loads_fixed_point(prof, cfg.traffic))


def test_macro_only_profile(cfg_small):
    prof = macro_only_profile(cfg_small)
    curve = prof.macro_curve
    assert np.all(np.diff(prof.eta_macro[:, 0]) >= 0)
    assert prof.lambda_small.sum() == 0.0
    assert prof.lambda_macro.sum() == pytest.approx(cfg_small.traffic.lambda_tot)
    assert np.array_equal(prof.eta_macro[:, 0], prof.eta_macro[:, 1])
    assert curve.mass == pytest.approx(0.73, abs=0.05)  # in-disk hotspot mass


def test_analytic_windows_tracks_coverage(cfg_small, series_small):
    win = window_series(series_small.times, series_small.loads, cfg_small.traffic)
    load_mo = coupled_loads_fixed_point(macro_only_profile(cfg_small), cfg_small.traffic)
    base = window_series(series_small.times, [load_mo] * len(series_small.times),
                         cfg_small.traffic)
    near = series_small.distance_km < 0.06
    far = (series_small.distance_km >= 0.12) & (series_small.distance_km < 0.30)
    assert near.sum() >= 2 and far.sum() >= 5
    assert np.all(win.rho_bar[near] < base.rho_bar[near])
    assert np.mean(win.rho_bar[far]) > base.rho_bar[0]
    assert np.all(win.R[near] > base.R[near])


def test_mean_flux_rates_balance(cfg_small, series_small):
    """The horizon-level chain hazards must reproduce the ergodic coverage
    split: s2m/m2s = (1 - mean share) / mean share."""
    r = mean_flux_rates(series_small, cfg_small.nu_floor)
    shares = np.array([p.small_share for p in series_small.profiles])
    mean_share = shares.mean()
    assert r.nu_handover_s2m / r.nu_handover_m2s == pytest.approx(
        (1.0 - mean_share) / mean_share, rel=0.15)
    assert r.nu_down[0] == 0.0 and r.nu_up[-1] == 0.0


def test_analytic_matches_empirical_throughput(cfg_small):
    """Quasi-stationary windowed occupancy from the stationary-form marginals
    against the simulated mean flow throughput: within 10% on the default
    mobile scenario (replication-averaged)."""
    cfg = replace(cfg_small, duration_s=3600.0, snapshot_s=30.0)
    prof_mo, traj = macro_only_profile(cfg), scenario_trajectory(cfg)
    emp, ana = [], []
    for rep in range(3):
        rr = run_replication(cfg, rep, prof_mo, traj)
        emp.append(rr.emp_sc["metrics"].mean_flow_throughput)
        ana.append(rr.summary["R_windowed"])
    emp_mean, ana_mean = float(np.mean(emp)), float(np.mean(ana))
    assert abs(ana_mean - emp_mean) / emp_mean < 0.10


def test_ccdf_experiment_outputs(cfg_small, tmp_path):
    res = run_ccdf(cfg_small, distances_m=(0.0, 60.0), out_dir=tmp_path / "c")
    assert len(res["at_times"]) == 2
    t0, m1, s1 = res["at_times"][0]
    assert s1.mass > 0.5 * (m1.mass + s1.mass)   # cell parked on the hotspot
    assert (tmp_path / "c" / "ccdf.csv").exists()
    assert res["avg_small"].values[0] <= 1.0


def test_ccdf_csv_stamps_each_curve_with_its_snapshot_time(cfg_small, tmp_path):
    """Over two laps a picked snapshot's rows carry its own grid time, a
    lap-2 pick too, though it shares its lap-1 twin's curves; the baseline
    rows carry 0 and the two horizon averages -1."""
    cfg = replace(cfg_small, mc_samples=20_000, duration_s=2 * cfg_small.period_s,
                  snapshot_s=300.0)
    lap2 = cfg.period_s + 300.0
    res = run_ccdf(cfg, times=[290.0, lap2 + 10.0, 1e6], out_dir=tmp_path)
    picked = [300.0, lap2, 2 * cfg.period_s]
    assert [t for t, _, _ in res["at_times"]] == picked
    assert res["at_times"][1][1] is res["at_times"][0][1]      # lap-2 twin of 300 s
    with open(tmp_path / "ccdf.csv", newline="") as fh:
        rows = list(csv.reader(fh))[2:]
    n = len(cfg.levels)
    assert len(rows) == n * (1 + 3 * len(picked) + 2)
    curves = [(rows[i][0], rows[i][1]) for i in range(0, len(rows), n)]
    assert all(rows[i][:2] == list(curves[i // n]) for i in range(len(rows)))
    assert curves == [("0.000", "macro_only"),
                      *((f"{t:.3f}", cell) for t in picked
                        for cell in ("macro", "small", "macro")),
                      ("-1.000", "macro"), ("-1.000", "small")]


def test_sweep_lambda_monotone(cfg_small):
    cfg = replace(cfg_small, duration_s=600.0, snapshot_s=60.0, mc_samples=20_000)
    rows = run_sweep(cfg, "lambda_tot", [3.0, 6.0, 9.0])
    means = [r["rho_bar_mean"] for r in rows]
    assert means[0] < means[1] < means[2]


def test_sweep_kappa_zero_equals_baseline(cfg_small):
    """A silent small cell reduces the with-cell pipeline to the macro-only
    baseline within Monte Carlo error."""
    cfg = replace(cfg_small, duration_s=600.0, snapshot_s=60.0, mc_samples=40_000)
    rows = run_sweep(cfg, "kappa", [0.0])
    r = rows[0]
    assert r["mean_small_share"] == 0.0
    assert r["rho_bar_mean"] == pytest.approx(r["rho_bar_macro_only"], rel=0.01)


def test_sweep_class_count_robustness(cfg_small):
    """Summary metrics move by < 10% across K in {2, 4, 8}: the class
    discretization is not load-bearing."""
    cfg = replace(cfg_small, duration_s=1800.0, snapshot_s=60.0, mc_samples=40_000)
    rows = run_sweep(cfg, "k_classes", [2, 4, 8])
    rho = [r["rho_bar_mean"] for r in rows]
    r_win = [r["R_windowed"] for r in rows]
    assert (max(rho) - min(rho)) / np.mean(rho) < 0.10
    assert (max(r_win) - min(r_win)) / np.mean(r_win) < 0.10


def test_sweep_rows_carry_each_values_scenario_id(cfg_small, tmp_path):
    """Each swept value runs under its own scenario id, the loaded id plus
    ``param=value``; the loaded value keeps the loaded id, and the provenance
    line keeps the id of the sweep's own scenario."""
    cfg = replace(cfg_small, duration_s=600.0, snapshot_s=60.0, mc_samples=20_000)
    loaded = cfg.traffic.lambda_tot
    rows = run_sweep(cfg, "lambda_tot", [loaded, 3.0, 9.0], out_dir=tmp_path)
    ids = [r["scenario_id"] for r in rows]
    assert ids == [cfg.scenario_id,
                   derived_scenario_id(cfg.scenario_id, ["lambda_tot=3.0"]),
                   derived_scenario_id(cfg.scenario_id, ["lambda_tot=9.0"])]
    assert len(set(ids)) == 3
    with open(tmp_path / "sweep_lambda_tot.csv", newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0][0] == f"# scenario={cfg.scenario_id} seed={cfg.seed} command=sweep lambda_tot"
    assert [row[lines[1].index("scenario_id")] for row in lines[2:]] == ids


def test_sweep_rejects_unknown_parameter(cfg_small):
    with pytest.raises(ValueError):
        run_sweep(cfg_small, "alpha", [0.5])


DYNAMICS_CSVS = ("trace_rep0.csv", "flows_rep0.csv", "metrics_sc.csv",
                 "metrics_macro_only.csv", "metrics_empirical.csv", "summary.csv")


def test_dynamics_runs_with_workers(cfg_small, tmp_path):
    """Worker processes change no output byte, the replication 0 trace they
    send back included."""
    cfg = replace(cfg_small, replications=2, workers=2, duration_s=600.0,
                  mc_samples=20_000)
    res = run_dynamics(cfg, out_dir=tmp_path / "d")
    assert len(res.replications) == 2
    run_dynamics(replace(cfg, workers=1), out_dir=tmp_path / "s")
    for name in DYNAMICS_CSVS:
        assert (tmp_path / "d" / name).read_bytes() == (tmp_path / "s" / name).read_bytes(), name


def test_rep0_files_describe_rep0(cfg_small, tmp_path):
    """trace_rep0.csv and flows_rep0.csv come from the simulation behind
    replication 0's reported metrics."""
    cfg = replace(cfg_small, duration_s=600.0, snapshot_s=30.0, mc_samples=20_000)
    res = run_dynamics(cfg, out_dir=tmp_path)
    m = res.replications[0].emp_sc["metrics"]

    def rows(name):
        with open(tmp_path / name, newline="") as fh:
            return list(csv.reader(fh))[2:]   # past provenance and header

    flows = rows("flows_rep0.csv")
    assert len(flows) == m.n_arrivals
    assert sum(1 for f in flows if f[1]) == m.n_departures
    n_samples = math.ceil(cfg.duration_s / cfg.snapshot_s)
    trace = rows("trace_rep0.csv")
    assert len(trace) == n_samples * (cfg.K + cfg.L)
    assert all(r[3] == "0" for r in trace[:cfg.K + cfg.L])   # empty at t = 0
    # sampled at each snapshot time before the horizon
    assert list(dict.fromkeys(r[0] for r in trace)) == [f"{t:.6f}" for t in res.times[:-1]]
    assert all(rr.trace_sc is None for rr in res.replications[1:])


def test_every_window_file_holds_the_snapshot_grid(cfg_small, tmp_path):
    """The t_window column is the snapshot times in metrics_sc.csv (per
    replication), metrics_macro_only.csv and metrics_empirical.csv (per
    replication and tag)."""
    cfg = replace(cfg_small, replications=2, duration_s=600.0, snapshot_s=30.0,
                  mc_samples=20_000)
    res = run_dynamics(cfg, out_dir=tmp_path)
    grid = [f"{t:.1f}" for t in res.times]

    def t_windows(name, *by):
        with open(tmp_path / name, newline="") as fh:
            header, *rows = list(csv.reader(fh))[1:]    # past provenance
        out = {}
        for row in map(dict, (zip(header, r) for r in rows)):
            out.setdefault(tuple(row[k] for k in by), []).append(row["t_window"])
        return list(out.values())

    assert t_windows("metrics_sc.csv", "scenario_id") == [grid] * 2
    assert t_windows("metrics_macro_only.csv", "scenario_id") == [grid]
    assert t_windows("metrics_empirical.csv", "scenario_id", "rep") == [grid] * 4


def test_a_one_worker_run_imports_no_multiprocessing():
    """The process pool, and the multiprocessing it loads, is imported only
    for a run with more than one worker."""
    src = os.path.dirname(os.path.dirname(mobicell.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, mobicell.cli\n"
            "from mobicell.config import bundled_scenario_path, load_scenario, with_overrides\n"
            "from mobicell.pipeline import run_dynamics\n"
            "run_dynamics(with_overrides(load_scenario(bundled_scenario_path()), workers=1,\n"
            "             mc_samples=2000, duration_s=120.0, replications=1))\n"
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_period_sweep_at_loaded_period_gives_loaded_policy():
    cfg = load_scenario(bundled_scenario_path())
    swept = with_overrides(cfg, period_s=cfg.period_s)
    assert swept.policy == cfg.policy and swept.period_s == cfg.period_s
    slower = with_overrides(cfg, period_s=2.0 * cfg.period_s).policy
    assert slower.initial_speed == pytest.approx(cfg.policy.initial_speed / 2.0)


@pytest.mark.parametrize("param, value, kind, error", [
    ("small_reach_km", 0.5, ConfigError, "interference model's domain"),
    ("small_reach_km", -1.0, ConfigError, "sim.small_reach_km=-1.0: must be >= 0"),
    ("period_s", 0.0, ConfigError, "mobility.period_s=0.0: must be positive"),
    ("period_s", -5.0, ConfigError, "mobility.period_s=-5.0: must be positive"),
    ("k_classes", 0, ConfigError, "classes.k_macro=0: must be >= 1"),
    ("k_classes", 2.5, ConfigError, "classes.k_macro=2.5: must be an integer"),
    ("k_classes", math.inf, ConfigError, "classes.k_macro=inf: must be an integer"),
    ("period_s", math.inf, ConfigError, "mobility.period_s=inf: must be finite"),
    ("lambda_tot", math.nan, ValueError, "lambda_tot must be finite"),
    ("sigma_km", math.inf, ValueError, "finite positive standard deviation"),
])
def test_sweep_values_get_the_loaders_checks(param, value, kind, error):
    """A swept value that a scenario file could not hold raises: ConfigError
    from the loader's setting checks, ValueError from the value's own type."""
    cfg = load_scenario(bundled_scenario_path())
    with pytest.raises(kind, match=error):
        with_overrides(cfg, **{param: value})


def test_sweep_checks_every_value_before_running_any(cfg_small):
    with mock.patch("mobicell.pipeline.run_dynamics") as run:
        with pytest.raises(ConfigError):
            run_sweep(cfg_small, "period_s", [cfg_small.period_s, 0.0])
    run.assert_not_called()
