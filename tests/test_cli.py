import json
import re
import warnings

import pytest

import mobicell.flowsim
from mobicell.cli import _load, build_parser, main
from mobicell.config import bundled_scenario_path, load_scenario


def args_small(tmp_path, cmd, *extra):
    return [cmd, "--out", str(tmp_path / cmd), "--samples", "20000",
            *extra]


# the header of every file the commands write, as the README gives it
METRICS_HEADER = ("scenario_id,t_window,rho,rho_tilde,rho_bar,eta_bar_mbps,R_mbps,"
                  "conservation_residual")
HEADERS = {
    "ccdf.csv": "t_s,cell,level_mbps,ccdf,stderr",
    "trajectory.csv": "t_s,x_km,y_km,speed_kmh,heading",
    "metrics_sc.csv": METRICS_HEADER,
    "metrics_macro_only.csv": METRICS_HEADER,
    "metrics_empirical.csv": "scenario_id,rep,t_window,mean_flows,served_mbps,R_window_mbps",
    "summary.csv": "scenario_id,rep,eta_bar_ergodic,rho_bar_ergodic,R_ergodic,R_windowed,"
                   "R_empirical_sc,R_empirical_mo,residual_sc_mbps,residual_mo_mbps,"
                   "mean_small_share",
    "trace_rep0.csv": "t_s,cell,class,count",
    "flows_rep0.csv": "arrival_s,departure_s,cell_path,size_mbits",
    "sweep_lambda_tot.csv": "param,value,rep,scenario_id,rho_bar_mean,rho_bar_near,"
                            "rho_bar_far,R_windowed,R_empirical,rho_bar_macro_only,"
                            "R_macro_only_emp,mean_small_share",
}
DYNAMICS_FILES = ("metrics_sc.csv", "metrics_macro_only.csv", "metrics_empirical.csv",
                  "summary.csv", "trace_rep0.csv", "flows_rep0.csv")


def assert_layout(path, argv, command):
    """``path`` is the provenance line of the run of ``argv``, then its
    README header and at least one row, each ending in \\r\\n."""
    cfg = _load(build_parser().parse_args(argv))
    prov, rest = path.read_bytes().split(b"\n", 1)
    assert prov.decode() == f"# scenario={cfg.scenario_id} seed={cfg.seed} command={command}"
    lines = rest.split(b"\r\n")
    assert lines[0].decode() == HEADERS[path.name]
    assert len(lines) > 2 and lines[-1] == b"" and not any(b"\n" in line for line in lines)


def test_validate_bundled(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK scenario=")


def test_validate_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[radio]\nbogus = 1\n")
    assert main(["validate", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err
    # machine-readable error JSON on the last stderr line
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "config"


def test_missing_config_file(capsys):
    assert main(["validate", "--config", "/no/such/file.ini"]) == 2


def test_ccdf_command(tmp_path, capsys):
    argv = args_small(tmp_path, "ccdf") + ["--distances-m", "0,60"]
    rc = main(argv)
    assert rc == 0
    for name in ("ccdf.csv", "trajectory.csv"):
        assert_layout(tmp_path / "ccdf" / name, argv, "ccdf")
    ccdf = (tmp_path / "ccdf" / "ccdf.csv").read_text().splitlines()
    assert ccdf[0].startswith("# scenario=")
    assert ccdf[1] == "t_s,cell,level_mbps,ccdf,stderr"
    assert any(line.split(",")[1] == "macro_only" for line in ccdf[2:12])
    traj = (tmp_path / "ccdf" / "trajectory.csv").read_text().splitlines()
    assert traj[1] == "t_s,x_km,y_km,speed_kmh,heading"


def test_dynamics_command_and_reproducibility(tmp_path, capsys):
    common = ["dynamics", "--samples", "20000", "--replications", "2",
              "--duration", "900", "--workers", "1"]
    rc = main(common + ["--out", str(tmp_path / "a")])
    assert rc == 0
    rc = main(common + ["--out", str(tmp_path / "b")])
    assert rc == 0
    for name in DYNAMICS_FILES:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        assert_layout(tmp_path / "a" / name, common, "dynamics")
    header = (tmp_path / "a" / "metrics_sc.csv").read_text().splitlines()[1]
    assert header == ("scenario_id,t_window,rho,rho_tilde,rho_bar,"
                      "eta_bar_mbps,R_mbps,conservation_residual")


# copies of the bundled scenario, each made by one substitution of a line:
# (pattern, replacement, the --duration of its run, or None for the file's)
VARIANTS = {
    "bundled": (None, None, "300"),
    # coverage past the macro disk: the snapshots also count the rim users
    "reach-0.1": (r"^small_reach_km = .*", "small_reach_km = 0.1", "300"),
    # one lap over the horizon: all but the last snapshot position are distinct
    "one-lap": (r"^period_s = .*", "period_s = 3600", None),
    # two stops: the bus dwells 60 s and 30 s each lap and regains its cruise speed
    "two-stops": (r"^period_s = .*", "\\g<0>\nstops = 0.25,0.5,60; 0.0,0.5,30", None),
    # one stop, which the bus leaves each lap
    "one-stop": (r"^period_s = .*", "\\g<0>\nstops = 0.25,0.5,7", None),
    # no route: the bus walks freely, drawing its speed change each step
    "free-walk": (r"^route = .*", "route =", "600"),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_scenario_variant_runs_alike_on_one_and_two_workers(variant, tmp_path, capfd):
    """Each copy of the bundled scenario runs at 1 and 2 workers: both exit
    0 and write the same six non-empty files (a worker returns replication
    0's trace pickled, and the results come back in replication order), with
    nothing on stderr and no Python warning, in the run or in a worker."""
    pattern, replacement, duration = VARIANTS[variant]
    text = bundled_scenario_path().read_text()
    if pattern is not None:
        text, n = re.subn(pattern, replacement, text, count=1, flags=re.M)
        assert n == 1
    config = tmp_path / "s.ini"
    config.write_text(text)
    argv = ["dynamics", "--config", str(config), "--samples", "2000", "--replications", "2"]
    if duration is not None:
        argv += ["--duration", duration]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in ("1", "2"):
            assert main(argv + ["--workers", w, "--out", str(tmp_path / w)]) == 0
    assert capfd.readouterr().err == ""
    for name in DYNAMICS_FILES:
        one = (tmp_path / "1" / name).read_bytes()
        assert one.count(b"\r\n") > 1 and one == (tmp_path / "2" / name).read_bytes(), name


def test_two_ccdf_runs_write_the_same_bytes(tmp_path):
    for run in ("a", "b"):
        assert main(["ccdf", "--samples", "2000", "--out", str(tmp_path / run)]) == 0
    for name in ("ccdf.csv", "trajectory.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        assert a.count(b"\r\n") > 1 and a == (tmp_path / "b" / name).read_bytes(), name


def test_a_free_walk_summary_has_no_nan_and_no_warning(tmp_path, capsys):
    """Without a route the bus walks freely from the origin and here never
    comes within the near window: the summary says ``none`` for that window
    instead of a nan with numpy's empty-mean warnings, and the command names
    all six files it wrote."""
    config = tmp_path / "free.ini"
    config.write_text(re.sub(r"(?m)^route = .*$", "route =",
                             bundled_scenario_path().read_text()))
    out = tmp_path / "free"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["dynamics", "--config", str(config), "--samples", "2000",
                     "--replications", "1", "--duration", "600", "--out", str(out)]) == 0
    stdout, stderr = capsys.readouterr()
    assert caught == [] and stderr == ""
    assert "nan" not in stdout and "near-window rho_bar=none" in stdout
    assert all(name in stdout and (out / name).exists() for name in DYNAMICS_FILES)


def test_a_malformed_scenario_file_exits_2(tmp_path, capsys):
    """A file configparser cannot read, here with a section given twice, is a
    configuration error like any other, not a traceback."""
    p = tmp_path / "twice.ini"
    p.write_text("[sim]\nseed = 1\n[sim]\nreplications = 1\n")
    assert main(["validate", "--config", str(p)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config" and "'sim'" in payload["detail"][0]


def test_dynamics_different_seed_differs(tmp_path):
    common = ["dynamics", "--samples", "20000", "--replications", "1",
              "--duration", "900"]
    main(common + ["--out", str(tmp_path / "a"), "--seed", "1"])
    main(common + ["--out", str(tmp_path / "b"), "--seed", "2"])
    a = (tmp_path / "a" / "metrics_sc.csv").read_bytes()
    b = (tmp_path / "b" / "metrics_sc.csv").read_bytes()
    assert a != b


def test_sweep_unknown_parameter(tmp_path, capsys):
    rc = main(["sweep", "not_a_param", "1,2", "--out", str(tmp_path / "s")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "kappa" in err and "lambda_tot" in err  # valid names listed


def test_sweep_command(tmp_path):
    argv = ["sweep", "lambda_tot", "4,8", "--out", str(tmp_path / "sw"),
            "--samples", "20000", "--replications", "1", "--duration", "600"]
    rc = main(argv)
    assert rc == 0
    assert_layout(tmp_path / "sw" / "sweep_lambda_tot.csv", argv, "sweep lambda_tot")
    lines = (tmp_path / "sw" / "sweep_lambda_tot.csv").read_text().splitlines()
    assert lines[1].startswith("param,value,rep")
    assert len(lines) == 2 + 2  # one row per value per replication


def test_overrides_enter_the_scenario_stamp():
    """The stamp identifies the configuration that ran: a changed setting
    changes it, --workers does not, and equal overrides give equal stamps."""
    def stamp(*argv):
        return _load(build_parser().parse_args(["dynamics", *argv])).scenario_id

    file_id = load_scenario(bundled_scenario_path()).scenario_id
    assert stamp() == file_id
    assert stamp("--workers", "2") == file_id
    reps2 = stamp("--replications", "2")
    assert reps2 != file_id
    assert stamp("--replications", "2", "--workers", "3") == reps2
    assert stamp("--replications", "2") == reps2
    seeded = stamp("--seed", "7", "--samples", "20000", "--duration", "900")
    assert seeded not in (file_id, reps2)
    assert stamp("--duration", "900", "--seed", "7", "--samples", "20000") == seeded


@pytest.mark.parametrize("argv", [
    ["dynamics", "--replications", "0", "--samples", "2000"],
    ["dynamics", "--duration", "45", "--samples", "2000", "--replications", "1"],
    ["validate", "--samples", "5", "--workers", "0"],
    ["dynamics", "--duration", "inf", "--samples", "2000", "--replications", "1"],
    ["sweep", "small_reach_km", "0.5", "--samples", "2000", "--replications", "1",
     "--duration", "300"],
    ["sweep", "period_s", "0", "--samples", "2000", "--replications", "1",
     "--duration", "300"],
    ["sweep", "k_classes", "4,0", "--samples", "2000", "--replications", "1",
     "--duration", "300"],
    ["sweep", "k_classes", "2.5", "--samples", "2000", "--replications", "1",
     "--duration", "300"],
    ["sweep", "k_classes", "inf", "--samples", "2000", "--replications", "1",
     "--duration", "300"],
    ["dynamics", "--seed", "-1", "--samples", "2000", "--replications", "1",
     "--duration", "300"],
    ["sweep", "lambda_tot", "0,5", "--samples", "2000", "--replications", "1",
     "--duration", "300"],
])
def test_invalid_overrides_exit_2(argv, tmp_path, capsys):
    """Overrides and sweep values obey the scenario file's rules:
    replications >= 1, mc_samples >= 100, workers >= 1, a finite horizon of
    two snapshots, an integer K >= 1, a positive period, a reach inside the
    interference model's domain, a seed >= 0 and some traffic."""
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mobility, key", [
    ("route = 0.3,0.75; 0.25,0.75; 0.25,0.25", "mobility.route"),
    ("route = 0.25,0.25; 0.25,0.75; 0.0,0.75; 0.0,0.25\nstops = 1.5,1.5,10", "mobility.stops"),
    ("route = 0.25,0.25; 0.25,0.75; 0.0,0.75; 0.0,0.25\nstops = 0.25,0.5,10; 0.25,0.5,5",
     "mobility.stops"),
], ids=["off-grid-waypoint", "stop-off-route", "stops-sharing-a-place"])
@pytest.mark.parametrize("cmd", ["validate", "dynamics"])
def test_a_route_the_bus_cannot_drive_exits_2(tmp_path, capsys, mobility, key, cmd):
    """``validate`` rejects what ``dynamics`` would: the same config error,
    naming the key, and no output."""
    p = tmp_path / "s.ini"
    p.write_text(f"[mobility]\n{mobility}\n")
    argv = [cmd, "--config", str(p), "--samples", "2000", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "config"
    assert any(e.startswith(f"{key}: ") for e in payload["detail"])
    assert not (tmp_path / "o").exists()



def test_a_failed_internal_check_exits_3_naming_check_scenario_and_seed(tmp_path, capsys,
                                                                       monkeypatch):
    """A run whose own bookkeeping fails a check (here every departed flow,
    with the per-flow tolerance made negative) exits 3, not 2, with a JSON
    error naming the check, the scenario and the seed."""
    monkeypatch.setattr(mobicell.flowsim, "_GAMMA", -1.0)
    argv = ["dynamics", "--samples", "2000", "--replications", "1", "--duration", "300",
            "--workers", "1", "--seed", "4", "--out", str(tmp_path / "o")]
    assert main(argv) == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    cfg = _load(build_parser().parse_args(argv))
    assert payload == {"error": "internal-check", "detail": {
        "check": "served-work", "scenario": cfg.scenario_id, "seed": 4,
        "message": payload["detail"]["message"]}}
    assert "departed with served != size" in payload["detail"]["message"]


def test_a_value_error_inside_a_run_is_not_a_configuration_error(tmp_path, capsys,
                                                                monkeypatch):
    """A ValueError raised by the run, after the inputs passed their checks,
    exits 3 naming it; a bad --times value is still the input's fault."""
    def broken(cfg, **kwargs):
        raise ValueError("levels must be ascending and positive")

    monkeypatch.setattr("mobicell.cli.run_ccdf", broken)
    assert main(["ccdf", "--samples", "2000", "--out", str(tmp_path / "o")]) == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "internal-check"
    assert payload["detail"]["check"] == "ValueError"
    assert payload["detail"]["message"] == "levels must be ascending and positive"
    assert main(["ccdf", "--samples", "2000", "--times", "soon",
                 "--out", str(tmp_path / "o")]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "invalid-argument"


@pytest.mark.parametrize("option, value", [
    ("--times", "nan"), ("--times", "inf"), ("--times", "-50"), ("--times", "150,-1"),
    ("--distances-m", "-60"), ("--distances-m", "nan"),
    # an empty list is not an absent option, and every item must be a number
    ("--times", ""), ("--distances-m", ""), ("--times", "abc"), ("--times", "1,,2"),
    ("--distances-m", "x")])
def test_a_nonsense_ccdf_instant_exits_2_naming_the_option(tmp_path, capsys, option, value):
    out = tmp_path / "o"
    assert main(["ccdf", "--samples", "2000", option, value, "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "invalid-argument"
    assert payload["detail"].startswith(f"{option}={value}:")
    assert not out.exists()


@pytest.mark.parametrize("values", ["4,abc", ""])
def test_sweep_values_that_are_not_numbers_exit_2_naming_the_parameter(values, tmp_path,
                                                                       capsys):
    out = tmp_path / "o"
    assert main(["sweep", "lambda_tot", values, "--samples", "2000", "--replications", "1",
                 "--duration", "300", "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "invalid-argument"
    assert payload["detail"].startswith(f"lambda_tot={values}:")
    assert not out.exists()


def test_ccdf_takes_times_or_distances_not_both(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["ccdf", "--samples", "2000", "--times", "0", "--distances-m", "60",
                 "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "invalid-argument"
    assert "--times" in payload["detail"] and "--distances-m" in payload["detail"]
    assert not out.exists()


def test_the_ccdf_summary_prints_the_snapshot_it_picked(tmp_path, capsys):
    """A time past the horizon picks the last snapshot, and says so."""
    assert main(["ccdf", "--samples", "2000", "--times", "5000",
                 "--out", str(tmp_path / "o")]) == 0
    assert "(snapshots at t=['3600'] s)" in capsys.readouterr().out
