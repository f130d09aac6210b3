import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobicell.config import (_KEYS, ConfigError, _integer, _real, bundled_scenario_path,
                             load_scenario, parse_angle, with_overrides)
from mobicell.cli import main


def test_bundled_scenario_loads():
    cfg = load_scenario(bundled_scenario_path())
    assert cfg.traffic.lambda_tot == 7.0
    assert cfg.spec.theta_h == pytest.approx(math.pi / 3)
    assert cfg.K == 4 and cfg.L == 4
    assert cfg.policy.route is not None
    # cruise speed derived from route length over the pass period
    assert cfg.policy.initial_speed == pytest.approx(1.5 / 1800.0 * 3600.0)
    assert len(cfg.scenario_id) == 12


def test_scenario_id_stable_under_reload():
    a = load_scenario(bundled_scenario_path())
    b = load_scenario(bundled_scenario_path())
    assert a.scenario_id == b.scenario_id


RUN_VALUES = {
    "seed": st.integers(0, 2**31 - 1),
    "mc_samples": st.integers(100, 10**7),
    "duration_s": st.floats(60.0, 1e5),      # at least two 30 s snapshots
    "replications": st.integers(1, 1000),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), workers=st.integers(1, 8))
def test_scenario_id_tracks_every_run_setting(data, workers):
    """The id changes under any single override of seed, samples, duration or
    replications and ignores the worker count (reloading the file is
    test_scenario_id_stable_under_reload)."""
    base = load_scenario(bundled_scenario_path())
    key = data.draw(st.sampled_from(sorted(RUN_VALUES)))
    value = data.draw(RUN_VALUES[key].filter(lambda v: v != getattr(base, key)))
    changed = with_overrides(base, **{key: value}).scenario_id
    assert changed != base.scenario_id
    assert with_overrides(base, workers=workers).scenario_id == base.scenario_id
    assert with_overrides(base, workers=workers, **{key: value}).scenario_id == changed


def test_parse_angle_forms():
    assert parse_angle("pi/3") == pytest.approx(math.pi / 3)
    assert parse_angle("2*pi/5") == pytest.approx(2 * math.pi / 5)
    assert parse_angle("-pi") == pytest.approx(-math.pi)
    assert parse_angle("0.75") == 0.75
    assert parse_angle("1.5 * pi") == pytest.approx(1.5 * math.pi)


def write_scenario(tmp_path, extra=""):
    text = "[traffic]\nlambda_tot = 5\n" + extra
    p = tmp_path / "s.ini"
    p.write_text(text)
    return p


def test_defaults_fill_missing_sections(tmp_path):
    cfg = load_scenario(write_scenario(tmp_path))
    assert cfg.traffic.lambda_tot == 5.0
    assert cfg.layout.delta == 1.0


def test_unknown_keys_rejected(tmp_path):
    p = write_scenario(tmp_path, "[radio]\nbogus_key = 1\n[nonsense]\nx = 2\n")
    with pytest.raises(ConfigError) as err:
        load_scenario(p)
    msgs = "\n".join(err.value.errors)
    assert "bogus_key" in msgs
    assert "nonsense" in msgs


def test_all_errors_collected(tmp_path):
    p = write_scenario(tmp_path, "[hotspot]\nsigma_km = -1\n[classes]\nk_macro = 0\n"
                                 "[sim]\nsnapshot_s = -5\n")
    with pytest.raises(ConfigError) as err:
        load_scenario(p)
    assert len(err.value.errors) >= 3


def test_hotspot_must_sit_inside_macro_disk(tmp_path):
    p = write_scenario(tmp_path, "[hotspot]\ncenter_r_km = 0.6\n")
    with pytest.raises(ConfigError) as err:
        load_scenario(p)
    assert any("macro disk" in e for e in err.value.errors)


def test_route_reach_domain_guard(tmp_path):
    p = write_scenario(tmp_path, "[sim]\nsmall_reach_km = 0.4\n"
                                 "[mobility]\nroute = 0.25,0.25; 0.25,0.75; 0.0,0.75; 0.0,0.25\n")
    with pytest.raises(ConfigError) as err:
        load_scenario(p)
    assert any("interference model" in e for e in err.value.errors)


ROUTE = "route = 0.25,0.25; 0.25,0.75; 0.0,0.75; 0.0,0.25\n"


@pytest.mark.parametrize("text, error", [
    ("[mobility]\n" + ROUTE + "period_s = 0\n", "mobility.period_s=0: must be positive"),
    ("[sim]\nduration_s = inf\n", "sim.duration_s=inf: must be finite"),
    ("[traffic]\nlambda_tot = nan\n", "traffic.lambda_tot=nan: must be finite"),
    ("[traffic]\nsigma0_mbits = inf\n", "traffic.sigma0_mbits=inf: must be finite"),
    ("[hotspot]\nsigma_km = nan\n", "hotspot.sigma_km=nan: must be finite"),
], ids=["period-0", "duration-inf", "lambda-nan", "sigma0-inf", "sigma_km-nan"])
def test_zero_period_and_non_finite_values_rejected(tmp_path, text, error):
    """Each is a ConfigError, with a route scenario's zero period too."""
    p = tmp_path / "s.ini"
    p.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_scenario(p)
    assert any(error in e for e in err.value.errors)


def errors_of(tmp_path, text):
    """The errors of a scenario file holding ``text``."""
    p = tmp_path / "s.ini"
    p.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_scenario(p)
    return err.value.errors


def key_text(key, value):
    section, name = key.split(".")
    return f"[{section}]\n{name} = {value}\n"


REAL_KEYS = [key for key, row in _KEYS.items() if row[1] is _real]
INTEGER_KEYS = [key for key, row in _KEYS.items() if row[1] is _integer]
# keys whose value holds reals: a non-finite one among them
HOLDS_REALS = [("hotspot.center_theta_rad", "inf"), ("mobility.speed_kmh", "nan"),
               ("mobility.route", "0.25,inf; 0.25,0.75"),
               ("mobility.stops", "0.25,nan,60"), ("mobility.turn_probs", "0.25,inf,0.25")]


@pytest.mark.parametrize("key, value", [(key, v) for key in REAL_KEYS for v in ("inf", "nan")]
                         + HOLDS_REALS)
def test_every_real_must_be_finite(tmp_path, key, value):
    errors = errors_of(tmp_path, key_text(key, value))
    assert f"{key}={value}: must be finite" in errors


@pytest.mark.parametrize("key", INTEGER_KEYS)
def test_every_integer_key_rejects_a_fraction(tmp_path, key):
    assert f"{key}=2.5: must be an integer" in errors_of(tmp_path, key_text(key, "2.5"))


def test_every_bad_key_is_reported(tmp_path):
    errors = errors_of(tmp_path, "[radio]\nk1 = abc\nk2 = xyz\n[sim]\nnu_floor = inf\n")
    assert errors == ["radio.k1=abc: could not convert string to float: 'abc'",
                      "radio.k2=xyz: could not convert string to float: 'xyz'",
                      "sim.nu_floor=inf: must be finite"]


@pytest.mark.parametrize("text, error", [
    ("[mobility]\nroute = 0.3,0.75; 0.25,0.75; 0.25,0.25\n",
     "mobility.route: waypoint (0.3, 0.75) is not at an intersection"),
    ("[mobility]\n" + ROUTE + "stops = 1.5,1.5,10\n",
     "mobility.stops: stop (1.5, 1.5) does not lie on the route"),
    ("[sim]\nseed = -1\n", "sim.seed=-1: must be >= 0"),
    ("[radio]\ntx_macro_dbm = 1e308\n", "radio.tx_macro_dbm=1e308: must be <= 300"),
    ("[radio]\nbandwidth_mhz = 0\n", "radio.bandwidth_mhz=0: must be positive"),
], ids=["off-grid-waypoint", "stop-off-route", "negative-seed", "power-overflow",
        "zero-bandwidth"])
def test_what_a_run_would_reject_is_rejected_at_load(tmp_path, text, error):
    assert error in errors_of(tmp_path, text)


@pytest.mark.parametrize("text, error", [
    ("k1 = 0", "radio.k1=0: must be positive"),
    ("k2 = -1", "radio.k2=-1: must be positive"),
    ("eta0_mbps = 0", "radio.eta0_mbps=0: must be positive"),
    ("pathloss_exp_macro = 1.5", "radio.pathloss_exp_macro=1.5: must be > 2"),
    ("pathloss_exp_small = 2", "radio.pathloss_exp_small=2: must be > 2"),
    ("alpha_load = 2", "radio.alpha_load=2: must be <= 1"),
    ("alpha_load = -0.5", "radio.alpha_load=-0.5: must be >= 0"),
    ("tx_small_dbm = 60", "the small-cell link budget must not exceed the macro one"),
])
def test_radio_errors_name_the_key(tmp_path, capsys, text, error):
    """A one-key ``[radio]`` file that ``RadioParams`` would refuse exits 2
    from ``validate``, naming the key and value; the small-to-macro power
    ratio, which several keys set, is named by the budgets it compares."""
    p = tmp_path / "radio.ini"
    p.write_text(f"[radio]\n{text}\n")
    assert main(["validate", "--config", str(p)]) == 2
    assert error in capsys.readouterr().err


def test_errors_a_domain_object_would_raise_name_their_key(tmp_path):
    """Values that the hotspot, traffic, grid and policy objects refuse are
    reported under their keys, all of them: none hides behind another."""
    errors = errors_of(tmp_path, "[hotspot]\ncenter_r_km = -1\n[traffic]\nlambda_tot = -1\n"
                                 "[mobility]\nblock_km = 1\nextent_km = 0.5\nv_max_kmh = 0\n"
                                 "dv_kmh = -1\nturn_probs = 0.5,0.5,0.5\n")
    keys = ("hotspot.center_r_km", "traffic.lambda_tot", "mobility.extent_km",
            "mobility.v_max_kmh", "mobility.dv_kmh", "mobility.turn_probs")
    assert len(errors) == len(keys)
    for key in keys:
        assert sum(e.startswith((f"{key}=", f"{key}:")) for e in errors) == 1, (key, errors)


@pytest.mark.parametrize("name, value, error", [
    ("seed", -1, "sim.seed=-1: must be >= 0"),
    ("k_classes", 2.5, "classes.k_macro=2.5: must be an integer"),
    ("duration_s", math.nan, "sim.duration_s=nan: must be finite"),
])
def test_overrides_get_the_key_rows(name, value, error):
    base = load_scenario(bundled_scenario_path())
    with pytest.raises(ConfigError) as err:
        with_overrides(base, **{name: value})
    assert err.value.errors == [error]


@pytest.mark.parametrize("mobility", [ROUTE + "speed_kmh = 6\n", ""],
                         ids=["pinned-speed", "no-route"])
def test_a_period_that_sets_no_speed_cannot_be_overridden(tmp_path, mobility):
    """A period sets a route's cruise speed: a scenario without a route, or
    with a pinned speed, holds no period to override or sweep."""
    p = write_scenario(tmp_path, "[mobility]\n" + mobility)
    base = load_scenario(p)
    assert base.period_s is None
    with pytest.raises(ConfigError) as err:
        with_overrides(base, period_s=3600.0)
    assert err.value.errors == [
        "mobility.period_s=3600.0: a period needs a route scenario without mobility.speed_kmh"]


def test_stops_parsing(tmp_path):
    p = write_scenario(tmp_path, "[mobility]\nroute = 0.25,0.25; 0.25,0.75; 0.0,0.75; 0.0,0.25\n"
                                 "stops = 0.25,0.5,60\n")
    cfg = load_scenario(p)
    assert cfg.policy.stops == (((0.25, 0.5), 60.0),)


def test_missing_bundled_scenario():
    with pytest.raises(FileNotFoundError):
        bundled_scenario_path("nope")
