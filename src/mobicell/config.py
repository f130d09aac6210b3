"""Scenario files: sectioned key-value text (INI) describing one experiment.

Unknown sections or keys are rejected, every module-level invariant is
revalidated on load, and so are the settings of a derived scenario (CLI
overrides, sweep values); all errors are reported together.  A scenario is
identified by the hash of its canonicalized content, stamped into every
output with the seed; overridden run settings enter that hash too.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from mobicell.ccdf import default_levels
from mobicell.geometry import CellLayout
from mobicell.hotspot import HotspotSpec
from mobicell.mobility import ManhattanGrid, MobilityPolicy, route_cruise_policy
from mobicell.radio import OMEGA_VARIANTS, RadioParams
from mobicell.flowsim import TrafficSpec


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {e}" for e in self.errors))


_SCHEMA = {
    "layout": {"delta_km": "1.0", "oracle_rings": "30"},
    "radio": {
        "tx_macro_dbm": "46", "tx_small_dbm": "30",
        "antenna_gain_macro_db": "18", "antenna_gain_small_db": "6",
        "ue_antenna_gain_db": "0", "body_loss_db": "2",
        "pathloss_const_macro_db": "151", "pathloss_exp_macro": "3.76",
        "pathloss_const_small_db": "148", "pathloss_exp_small": "3.67",
        "noise_figure_db": "9", "bandwidth_mhz": "20",
        "k1": "0.85", "k2": "1.9", "eta0_mbps": "98",
        "alpha_load": "1.0", "omega_variant": "product",
    },
    "hotspot": {"center_r_km": "0.5", "center_theta_rad": "pi/3", "sigma_km": "0.08"},
    "mobility": {
        "block_km": "0.25", "extent_km": "2.0", "route": "",
        "period_s": "1800", "speed_kmh": "", "v_max_kmh": "50", "dv_kmh": "3.6",
        "stops": "", "turn_probs": "0.25,0.5,0.25",
    },
    "traffic": {"lambda_tot": "6.0", "sigma0_mbits": "2.0"},
    "classes": {"k_macro": "4", "l_small": "4"},
    "sim": {
        "duration_s": "3600", "snapshot_s": "30", "trajectory_dt_s": "1.0",
        "seed": "1", "replications": "10", "mc_samples": "200000",
        "n_max": "40", "small_reach_km": "0.0",
        "levels": "200", "level_min_mbps": "0.05",
        "nu_floor": "1e-4", "extra_migration_rate": "0.0", "workers": "1",
    },
}

# settings that a derived scenario may change, checked on load and by
# check_settings: (ScenarioConfig field, scenario key, parser, rule, message)
_RULES = (
    ("K", "classes.k_macro", int, lambda v: v >= 1, "must be >= 1"),
    ("L", "classes.l_small", int, lambda v: v >= 1, "must be >= 1"),
    ("period_s", "mobility.period_s", float, lambda v: v > 0, "must be positive"),
    ("small_reach_km", "sim.small_reach_km", float, lambda v: v >= 0, "must be >= 0"),
    ("duration_s", "sim.duration_s", float, lambda v: 0 < v < math.inf, "must be finite > 0"),
    ("replications", "sim.replications", int, lambda v: v >= 1, "must be >= 1"),
    ("mc_samples", "sim.mc_samples", int, lambda v: v >= 100, "must be >= 100"),
    ("workers", "sim.workers", int, lambda v: v >= 1, "must be >= 1"),
)

_PI_RE = re.compile(r"^\s*(-?[\d.]*)\s*\*?\s*pi\s*(?:/\s*([\d.]+))?\s*$")


def parse_angle(text: str) -> float:
    """Angle in radians; accepts plain floats and pi expressions such as
    'pi/3', '2*pi/5' or '-pi'."""
    text = text.strip()
    m = _PI_RE.match(text)
    if m:
        num = m.group(1)
        a = float(num) if num not in ("", "-") else (-1.0 if num == "-" else 1.0)
        b = float(m.group(2)) if m.group(2) else 1.0
        return a * math.pi / b
    return float(text)


def _parse_pairs(text: str):
    """'x,y; x,y; ...' -> tuple of (x, y)."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        x, y = chunk.split(",")
        out.append((float(x), float(y)))
    return tuple(out)


@dataclass
class ScenarioConfig:
    """Validated scenario: domain objects plus run settings."""

    layout: CellLayout
    params: RadioParams
    spec: HotspotSpec
    grid: ManhattanGrid
    policy: MobilityPolicy
    traffic: TrafficSpec
    K: int
    L: int
    period_s: float
    duration_s: float
    snapshot_s: float
    trajectory_dt_s: float
    seed: int
    replications: int
    mc_samples: int
    n_max: int
    small_reach_km: float
    levels: np.ndarray
    nu_floor: float
    extra_migration_rate: float
    workers: int
    scenario_id: str = ""


def _setting_errors(v: dict) -> list:
    """Errors of the settings ``v`` (field -> built value, None or absent is
    skipped): the ``_RULES``, a horizon of two snapshots, and a route plus
    small-cell reach inside the interference model's domain."""
    errors = [f"{key}={v[name]}: {what}" for name, key, _, ok, what in _RULES
              if v.get(name) is not None and not ok(v[name])]
    duration, snapshot = v.get("duration_s"), v.get("snapshot_s")
    if snapshot is not None and duration is not None and 0 < duration < 2 * snapshot:
        errors.append("sim.duration_s must cover at least two snapshots")
    layout, policy, reach = v.get("layout"), v.get("policy"), v.get("small_reach_km")
    if layout is not None and policy is not None and policy.route is not None \
            and reach is not None:
        far = max(math.hypot(x, y) for x, y in policy.route)
        if far + reach >= 0.995 * layout.delta:
            errors.append("mobility.route + sim.small_reach_km extends beyond the "
                          "interference model's domain (first interferer ring)")
    return errors


def check_settings(cfg: ScenarioConfig) -> ScenarioConfig:
    """``cfg`` if its settings pass the loader's checks, else ConfigError."""
    if errors := _setting_errors(vars(cfg)):
        raise ConfigError(errors)
    return cfg


def _canonical(items: dict) -> str:
    return "\n".join(f"{sec}.{key}={val}" for (sec, key), val in sorted(items.items()))


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file, raising ConfigError with the full
    list of problems if any check fails."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        cp.read_file(fh)
    errors = []
    items = {}
    for sec in cp.sections():
        if sec not in _SCHEMA:
            errors.append(f"unknown section [{sec}] (valid: {', '.join(_SCHEMA)})")
            continue
        for key, val in cp.items(sec):
            if key not in _SCHEMA[sec]:
                errors.append(f"unknown key {sec}.{key} (valid: {', '.join(_SCHEMA[sec])})")
            else:
                items[(sec, key)] = val.strip()
    # fill defaults
    for sec, keys in _SCHEMA.items():
        for key, default in keys.items():
            items.setdefault((sec, key), default)
    if errors:
        raise ConfigError(errors)
    return _build(items)


def _build(items: dict) -> ScenarioConfig:
    errors = []

    def get(sec, key, conv=float, check=None, what=""):
        raw = items[(sec, key)]
        try:
            val = conv(raw)
        except Exception:
            errors.append(f"{sec}.{key}: cannot parse {raw!r}")
            return None
        if check is not None and not check(val):
            errors.append(f"{sec}.{key}={raw}: {what}")
            return None
        return val

    delta = get("layout", "delta_km", float, lambda v: v > 0, "must be positive")
    rings = get("layout", "oracle_rings", int, lambda v: v >= 1, "must be >= 1")
    layout = None
    if delta is not None and rings is not None:
        layout = CellLayout(delta=delta, rings_for_oracle=rings)

    params = None
    try:
        variant = items[("radio", "omega_variant")]
        if variant not in OMEGA_VARIANTS:
            errors.append(f"radio.omega_variant={variant}: must be one of {OMEGA_VARIANTS}")
        params = RadioParams.from_link_budget(
            tx_macro_dbm=float(items[("radio", "tx_macro_dbm")]),
            tx_small_dbm=float(items[("radio", "tx_small_dbm")]),
            ant_gain_macro_db=float(items[("radio", "antenna_gain_macro_db")]),
            ant_gain_small_db=float(items[("radio", "antenna_gain_small_db")]),
            ue_gain_db=float(items[("radio", "ue_antenna_gain_db")]),
            body_loss_db=float(items[("radio", "body_loss_db")]),
            pl_const_macro_db=float(items[("radio", "pathloss_const_macro_db")]),
            pl_exp_macro=float(items[("radio", "pathloss_exp_macro")]),
            pl_const_small_db=float(items[("radio", "pathloss_const_small_db")]),
            pl_exp_small=float(items[("radio", "pathloss_exp_small")]),
            noise_figure_db=float(items[("radio", "noise_figure_db")]),
            bandwidth_mhz=float(items[("radio", "bandwidth_mhz")]),
            k1=float(items[("radio", "k1")]),
            k2=float(items[("radio", "k2")]),
            eta0_mbps=float(items[("radio", "eta0_mbps")]),
            alpha=float(items[("radio", "alpha_load")]),
            omega_variant=variant if variant in OMEGA_VARIANTS else "product",
        )
    except (ValueError, KeyError) as exc:
        errors.append(f"radio: {exc}")

    spec = None
    try:
        spec = HotspotSpec(
            R_h=float(items[("hotspot", "center_r_km")]),
            theta_h=parse_angle(items[("hotspot", "center_theta_rad")]),
            A=float(items[("hotspot", "sigma_km")]),
        )
        if layout is not None and spec.R_h >= layout.R:
            errors.append(f"hotspot.center_r_km={spec.R_h}: hotspot center must lie "
                          f"inside the macro disk (R={layout.R:.4f} Km)")
    except ValueError as exc:
        errors.append(f"hotspot: {exc}")

    ruled = {name: get(*key.split("."), *rule) for name, key, *rule in _RULES}
    period = ruled["period_s"]
    grid = policy = None
    try:
        grid = ManhattanGrid(block=float(items[("mobility", "block_km")]),
                             extent=float(items[("mobility", "extent_km")]))
    except ValueError as exc:
        errors.append(f"mobility: {exc}")
    try:
        route = _parse_pairs(items[("mobility", "route")]) or None
        stops_raw = items[("mobility", "stops")]
        stops = tuple((pair, dwell) for pair, dwell in _parse_stops(stops_raw)) \
            if stops_raw.strip() else ()
        turn_probs = tuple(float(x) for x in items[("mobility", "turn_probs")].split(","))
        v_max = float(items[("mobility", "v_max_kmh")])
        dv = float(items[("mobility", "dv_kmh")])
        speed_raw = items[("mobility", "speed_kmh")].strip()
        if route is None:
            speed = float(speed_raw) if speed_raw else 0.0
            policy = MobilityPolicy(v_max=v_max, dv=dv, turn_probs=turn_probs,
                                    initial_speed=speed)
        elif period is not None:    # a bad period is reported already
            policy = route_cruise_policy(route, period, v_max=v_max, dv=dv,
                                         turn_probs=turn_probs, stops=stops,
                                         speed_kmh=float(speed_raw) if speed_raw else None)
    except (ValueError, IndexError) as exc:
        errors.append(f"mobility: {exc}")

    traffic = None
    try:
        traffic = TrafficSpec(lambda_tot=float(items[("traffic", "lambda_tot")]),
                              sigma0=float(items[("traffic", "sigma0_mbits")]))
    except ValueError as exc:
        errors.append(f"traffic: {exc}")

    snapshot = get("sim", "snapshot_s", float, lambda v: v > 0, "must be positive")
    dt = get("sim", "trajectory_dt_s", float, lambda v: v > 0, "must be positive")
    seed = get("sim", "seed", int)
    n_max = get("sim", "n_max", int, lambda v: v >= 1, "must be >= 1")
    n_levels = get("sim", "levels", int, lambda v: v >= 10, "must be >= 10")
    l_min = get("sim", "level_min_mbps", float, lambda v: v > 0, "must be positive")
    nu_floor = get("sim", "nu_floor", float, lambda v: v > 0, "must be positive")
    extra_mig = get("sim", "extra_migration_rate", float, lambda v: v >= 0, "must be >= 0")
    errors.extend(_setting_errors({**ruled, "snapshot_s": snapshot, "layout": layout,
                                   "policy": policy}))

    if errors:
        raise ConfigError(errors)

    levels = default_levels(params.eta0, n=n_levels, l_min=l_min)
    canon = _canonical(items)
    scenario_id = hashlib.sha256(canon.encode()).hexdigest()[:12]
    return ScenarioConfig(
        layout=layout, params=params, spec=spec, grid=grid, policy=policy,
        traffic=traffic, snapshot_s=snapshot, trajectory_dt_s=dt, seed=seed,
        n_max=n_max, levels=levels, nu_floor=nu_floor, extra_migration_rate=extra_mig,
        scenario_id=scenario_id, **ruled,
    )


def with_overrides(cfg: ScenarioConfig, **values) -> ScenarioConfig:
    """``cfg`` with run settings replaced, identified by the file hash plus
    the sorted ``field=value`` pairs that changed a setting.  ``workers``
    changes no output and stays out of the hash, so without another change
    the id remains the file's.  Settings that fail the loader's checks raise
    ConfigError."""
    changed = [f"{k}={v!r}" for k, v in values.items()
               if k != "workers" and getattr(cfg, k) != v]
    out = check_settings(replace(cfg, **values))
    if changed:
        out = replace(out, scenario_id=derived_scenario_id(cfg.scenario_id, changed))
    return out


def derived_scenario_id(scenario_id: str, changed) -> str:
    """Id of a scenario with the ``field=value`` pairs ``changed`` applied."""
    text = "\n".join([scenario_id, *sorted(changed)])
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _parse_stops(text: str):
    """'x,y,dwell; x,y,dwell' -> ((x, y), dwell) pairs."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        x, y, dwell = chunk.split(",")
        out.append(((float(x), float(y)), float(dwell)))
    return out


def bundled_scenario_path(name: str = "reference"):
    """Path to a scenario shipped with the package."""
    ref = resources.files("mobicell") / "scenarios" / f"{name}.ini"
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled scenario named {name!r}")
    return ref
