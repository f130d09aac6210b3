"""Every scenario that ``validate`` accepts runs to completion: scenarios
drawn from the key table ``config._KEYS``, each value inside its rules
(boundaries included) and sometimes one value outside them."""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobicell.cli import main
from mobicell.config import _KEYS

DYNAMICS_FILES = ("metrics_sc.csv", "metrics_macro_only.csv", "metrics_empirical.csv",
                  "summary.csv", "trace_rep0.csv", "flows_rep0.csv")


def reals(lo, hi, *bounds, **kw):
    """Reals in [lo, hi] as scenario text, with the rule ``bounds`` drawn
    as often as the rest."""
    inner = st.floats(lo, hi, allow_nan=False, **kw)
    return (st.sampled_from(bounds) | inner if bounds else inner).map(repr)


def integers(lo, hi):
    return st.integers(lo, hi).map(str)


_DB = reals(-300.0, 300.0, -300.0, 300.0)
_RECT = "0.25,0.25; 0.25,0.75; 0.0,0.75; 0.0,0.25"
# each key's values inside its row's rules and its domain object's checks;
# the run's size (samples, horizon, replications, workers) is kept small,
# its lower bounds included
VALID = {
    "layout.delta_km": reals(0.1, 5.0, 1.0),
    "layout.oracle_rings": integers(1, 40),
    **{f"radio.{key}": _DB for key in (
        "tx_macro_dbm", "tx_small_dbm", "antenna_gain_macro_db", "antenna_gain_small_db",
        "ue_antenna_gain_db", "body_loss_db", "pathloss_const_macro_db",
        "pathloss_const_small_db", "noise_figure_db")},
    "radio.pathloss_exp_macro": reals(2.0, 6.0, exclude_min=True),
    "radio.pathloss_exp_small": reals(2.0, 6.0, exclude_min=True),
    "radio.bandwidth_mhz": reals(0.0, 1e6, 1e6, exclude_min=True),
    "radio.k1": reals(0.0, 10.0, exclude_min=True),
    "radio.k2": reals(0.0, 10.0, exclude_min=True),
    "radio.eta0_mbps": reals(0.0, 1000.0, exclude_min=True),
    "radio.alpha_load": reals(0.0, 1.0, 0.0, 1.0),
    "radio.omega_variant": st.sampled_from(["product", "sum"]),
    "hotspot.center_r_km": reals(0.0, 0.7, 0.0),
    "hotspot.center_theta_rad": st.sampled_from(["pi/3", "-pi", "2*pi/5"]) | reals(-10.0, 10.0),
    "hotspot.sigma_km": reals(1e-6, 1.0, 1e-6),
    "mobility.block_km": reals(0.05, 1.0, 0.25),
    "mobility.extent_km": reals(0.05, 5.0, 2.0),
    "mobility.route": st.sampled_from(["", _RECT, "0.0,0.0; 0.5,0.0", "-0.5,0.25; -0.5,-0.25"]),
    "mobility.period_s": reals(0.0, 1e4, exclude_min=True),
    "mobility.speed_kmh": st.just("") | reals(0.0, 100.0, 0.0),
    "mobility.v_max_kmh": reals(0.0, 200.0, exclude_min=True),
    "mobility.dv_kmh": reals(0.0, 20.0, 0.0),
    "mobility.stops": st.sampled_from(["", "0.25,0.5,60", "0.0,0.75,0", "0.25,0.25,0.5"]),
    "mobility.turn_probs": st.sampled_from(["0.25,0.5,0.25", "0,1,0", "1,0,0", "0.5,0,0.5"]),
    "traffic.lambda_tot": reals(0.0, 15.0, exclude_min=True),
    "traffic.sigma0_mbits": reals(1e-6, 10.0, 1e-6),
    "classes.k_macro": integers(1, 8),
    "classes.l_small": integers(1, 8),
    "sim.duration_s": st.nothing(),           # drawn together in ``scenarios``
    "sim.snapshot_s": st.nothing(),
    "sim.trajectory_dt_s": reals(0.05, 10.0, exclude_min=True),
    "sim.seed": integers(0, 2 ** 32),
    "sim.replications": integers(1, 2),
    "sim.mc_samples": integers(100, 3000),
    "sim.n_max": integers(1, 100),
    "sim.small_reach_km": reals(0.0, 0.5, 0.0),
    "sim.levels": integers(10, 60),
    "sim.level_min_mbps": reals(1e-6, 200.0, 1e-6),
    "sim.nu_floor": reals(1e-6, 1.0, 1e-6),
    "sim.extra_migration_rate": reals(0.0, 1.0, 0.0),
    "sim.workers": integers(1, 2),
}


def below(bound, **kw):
    return reals(bound - 10.0, bound, **kw)


# each key's values that its row rejects
_NAN = st.just("nan")
_BIG_DB = reals(300.0, 1e6, exclude_min=True) | reals(-1e6, -300.0, exclude_max=True)
INVALID = {
    "layout.delta_km": below(0.0),
    "layout.oracle_rings": integers(-5, 0),
    **{f"radio.{key}": _BIG_DB for key in (
        "tx_macro_dbm", "tx_small_dbm", "antenna_gain_macro_db", "antenna_gain_small_db",
        "ue_antenna_gain_db", "body_loss_db", "pathloss_const_macro_db",
        "pathloss_const_small_db", "noise_figure_db")},
    "radio.pathloss_exp_macro": below(2.0),
    "radio.pathloss_exp_small": below(2.0),
    "radio.bandwidth_mhz": below(0.0) | reals(1e6, 1e9, exclude_min=True),
    "radio.k1": below(0.0),
    "radio.k2": below(0.0),
    "radio.eta0_mbps": below(0.0),
    "radio.alpha_load": below(0.0, exclude_max=True) | reals(1.0, 10.0, exclude_min=True),
    "radio.omega_variant": st.just("bogus"),
    "hotspot.center_r_km": _NAN | below(0.0, exclude_max=True),
    "hotspot.center_theta_rad": st.just("inf"),
    "hotspot.sigma_km": below(1e-6, exclude_max=True) | _NAN,
    "mobility.block_km": _NAN | below(0.0),
    "mobility.extent_km": _NAN,
    "mobility.route": st.just("0.25,nan; 0.25,0.75"),
    "mobility.period_s": below(0.0),
    "mobility.speed_kmh": below(0.0, exclude_max=True),
    "mobility.v_max_kmh": _NAN | below(0.0),
    "mobility.dv_kmh": _NAN | below(0.0, exclude_max=True),
    "mobility.stops": st.sampled_from(["0.25,0.5,inf", "0.25,0.5,-1"]),
    "mobility.turn_probs": st.sampled_from(["0.25,nan,0.25", "0.5,0.5,0.5", "-0.5,1,0.5",
                                            "0.5,0.5"]),
    "traffic.lambda_tot": _NAN | reals(-10.0, 0.0, 0.0),
    "traffic.sigma0_mbits": below(1e-6, exclude_max=True) | _NAN,
    "classes.k_macro": integers(-2, 0) | st.just("2.5"),
    "classes.l_small": integers(-2, 0) | st.just("2.5"),
    "sim.duration_s": below(0.0) | st.just("inf"),
    "sim.snapshot_s": below(0.0),
    "sim.trajectory_dt_s": below(0.0),
    "sim.seed": integers(-10, -1),
    "sim.replications": integers(-2, 0),
    "sim.mc_samples": integers(0, 99),
    "sim.n_max": integers(-2, 0),
    "sim.small_reach_km": below(0.0, exclude_max=True),
    "sim.levels": integers(0, 9),
    "sim.level_min_mbps": below(1e-6, exclude_max=True),
    "sim.nu_floor": below(1e-6, exclude_max=True),
    "sim.extra_migration_rate": below(0.0, exclude_max=True),
    "sim.workers": integers(-2, 0),
}
# the run's size: always drawn, so every run stays small
_SIZE = ("sim.duration_s", "sim.snapshot_s", "sim.replications", "sim.mc_samples",
         "sim.levels", "sim.workers")
_NAMES = {*_KEYS, *(key.partition(".")[0] for key in _KEYS)}


@st.composite
def scenarios(draw, key, outside):
    """Key texts of a scenario that sets ``key`` (outside its rules if
    ``outside``), the run's size and up to six other keys; unset keys take
    their defaults."""
    snapshot = float(draw(reals(5.0, 60.0, 30.0)))
    texts = {"sim.snapshot_s": repr(snapshot),
             "sim.duration_s": repr(snapshot * draw(st.sampled_from([2.0]) | st.floats(2.0, 5.0)))}
    others = draw(st.sets(st.sampled_from(sorted(set(VALID) - set(_SIZE) - {key})),
                          max_size=6))
    for name in (*_SIZE[2:], *sorted(others), key):
        if outside and name == key:
            texts[name] = draw(INVALID[name])
        elif name not in texts:
            texts[name] = draw(VALID[name])
    return texts


def scenario_file(path, texts):
    sections = {}
    for key, text in texts.items():
        section, _, name = key.partition(".")
        sections.setdefault(section, []).append(f"{name} = {text}")
    path.write_text("".join(f"[{s}]\n" + "\n".join(lines) + "\n"
                            for s, lines in sections.items()))
    return path


def run(argv):
    """``main(argv)``'s exit code and its stderr, warnings included."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, err.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)


def check_scenario(tmp, texts, bad):
    """``validate`` exits 2 naming ``bad`` (every error naming a key, or the
    section of a check across keys), or a small ``dynamics`` run exits 0
    with all six CSVs and no warning or traceback."""
    config = scenario_file(tmp / "s.ini", texts)
    rc, err = run(["validate", "--config", str(config)])
    if rc == 2:
        errors = json.loads(err.strip().splitlines()[-1])["detail"]
        if bad is not None:
            assert any(e.startswith((f"{bad}=", f"{bad}:")) for e in errors), errors
        assert all(re.match(r"[a-z0-9_.]*", e).group() in _NAMES for e in errors), errors
        return
    assert (rc, bad) == (0, None), err
    out = tmp / "out"
    rc, err = run(["dynamics", "--config", str(config), "--out", str(out)])
    assert rc == 0, err
    assert "Warning" not in err and "Traceback" not in err, err
    for name in DYNAMICS_FILES:
        assert (out / name).stat().st_size > 0


def test_the_draws_cover_every_key():
    assert set(VALID) == set(INVALID) == set(_KEYS)


@pytest.mark.parametrize("key", sorted(_KEYS))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_scenario_inside_the_rules_runs_or_is_rejected_naming_a_key(key, data):
    """Inside every key's rules, a scenario can still break a check across
    keys (the hotspot in the macro disk, the route on the grid and in the
    domain, the link budgets, the level grid); then its errors name a key or
    the section of the check."""
    with tempfile.TemporaryDirectory() as tmp:
        check_scenario(Path(tmp), data.draw(scenarios(key, outside=False)), None)


@pytest.mark.parametrize("key", sorted(_KEYS))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_value_outside_its_rules_is_rejected_naming_its_key(key, data):
    with tempfile.TemporaryDirectory() as tmp:
        check_scenario(Path(tmp), data.draw(scenarios(key, outside=True)), key)
