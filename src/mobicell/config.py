"""Scenario files: sectioned key-value text (INI) describing one experiment.

Every key has one row in ``_KEYS``: default, parser and rule.  Unknown keys
are rejected, and a file, or a derived scenario (CLI overrides, sweep values,
``with_overrides``), passes the rows and the checks across keys with all
errors reported together.  A scenario is identified by the hash of its
canonicalized content, stamped into every output with the seed; overridden
settings enter that hash too.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from mobicell.ccdf import _DOMAIN_FRAC, default_levels
from mobicell.flowsim import TrafficSpec
from mobicell.geometry import CellLayout
from mobicell.hotspot import HotspotSpec
from mobicell.mobility import (InvalidRouteError, ManhattanGrid, MobilityPolicy,
                               _route_geometry, _validate_route, route_cruise_policy)
from mobicell.radio import OMEGA_VARIANTS, RadioParams


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {e}" for e in self.errors))


_PI_RE = re.compile(r"^\s*(-?[\d.]*)\s*\*?\s*pi\s*(?:/\s*([\d.]+))?\s*$")


def parse_angle(text: str) -> float:
    """Angle in radians; accepts plain floats and pi expressions such as
    'pi/3', '2*pi/5' or '-pi'."""
    m = _PI_RE.match(text)
    if m:
        num = m.group(1)
        a = float(num) if num not in ("", "-") else (-1.0 if num == "-" else 1.0)
        b = float(m.group(2)) if m.group(2) else 1.0
        return a * math.pi / b
    return float(text)


# parsers: a key's text, or a value built from it, to the value
def _real(value) -> float:
    if math.isfinite(number := float(value)):
        return number
    raise ValueError("must be finite")


def _integer(value) -> int:
    if isinstance(value, int) or isinstance(value, str) and re.fullmatch(r"[-+]?\d+", value) \
            or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError("must be an integer")


def _items(text: str, width: int) -> tuple:
    """'a,b; a,b; ...' -> ((a, b), ...), each item ``width`` reals."""
    items = tuple(tuple(map(_real, chunk.split(","))) for chunk in text.split(";")
                  if chunk.strip())
    if any(len(item) != width for item in items):
        raise ValueError(f"needs {width} comma-separated numbers per ';'-separated item")
    return items


def _at_least(n):
    return (lambda v: v >= n, f"must be >= {n}")


def _at_most(n):
    return (lambda v: v <= n, f"must be <= {n}")


def _above(n):
    return (lambda v: v > n, f"must be > {n}")


_POSITIVE = (lambda v: v > 0, "must be positive")
# dB terms in [-300, 300] and a bandwidth up to 1e6 MHz keep every linear
# power of the link budget a finite float
_DB = (_at_least(-300), _at_most(300))

# one row per key: (default text, parser, (predicate, message) rules...); a rule
# a domain object also applies is repeated here, so its error names the key
_KEYS = {
    "layout.delta_km": ("1.0", _real, _POSITIVE),
    "layout.oracle_rings": ("30", _integer, _at_least(1)),
    **{f"radio.{key}": (default, _real, *rules) for key, default, *rules in (
        ("tx_macro_dbm", "46", *_DB), ("tx_small_dbm", "30", *_DB),
        ("antenna_gain_macro_db", "18", *_DB), ("antenna_gain_small_db", "6", *_DB),
        ("ue_antenna_gain_db", "0", *_DB), ("body_loss_db", "2", *_DB),
        # a path-loss exponent of 2 or less makes the lattice sum diverge
        ("pathloss_const_macro_db", "151", *_DB), ("pathloss_exp_macro", "3.76", _above(2)),
        ("pathloss_const_small_db", "148", *_DB), ("pathloss_exp_small", "3.67", _above(2)),
        ("noise_figure_db", "9", *_DB),
        ("bandwidth_mhz", "20", _POSITIVE, _at_most(10 ** 6)),
        ("k1", "0.85", _POSITIVE), ("k2", "1.9", _POSITIVE), ("eta0_mbps", "98", _POSITIVE),
        ("alpha_load", "1.0", _at_least(0), _at_most(1)))},
    "radio.omega_variant": ("product", str, (lambda v: v in OMEGA_VARIANTS,
                                             f"must be one of {OMEGA_VARIANTS}")),
    "hotspot.center_r_km": ("0.5", _real, _at_least(0)),
    "hotspot.center_theta_rad": ("pi/3", lambda text: _real(parse_angle(text))),
    # floors (a millimetre, a bit, a bit per second, a move in 10^6 s) keep (R/A)^2,
    # flow sizes, class rates and class-membership weights normal floats
    "hotspot.sigma_km": ("0.08", _real, _at_least(1e-6)),
    "mobility.block_km": ("0.25", _real, _POSITIVE),
    "mobility.extent_km": ("2.0", _real),
    "mobility.route": ("", lambda text: _items(text, 2) or None),
    "mobility.period_s": ("1800", _real, _POSITIVE),
    "mobility.speed_kmh": ("", lambda text: _real(text) if text else None, _at_least(0)),
    "mobility.v_max_kmh": ("50", _real, _POSITIVE),
    "mobility.dv_kmh": ("3.6", _real, _at_least(0)),
    "mobility.stops": ("", lambda text: tuple(((x, y), t) for x, y, t in _items(text, 3)),
                       (lambda v: all(t >= 0 for _, t in v), "every dwell must be >= 0")),
    "mobility.turn_probs": ("0.25,0.5,0.25", lambda text: tuple(map(_real, text.split(","))),
                            (lambda v: len(v) == 3 and min(v) >= 0 and abs(sum(v) - 1) <= 1e-9,
                             "must be three numbers >= 0 summing to 1")),
    "traffic.lambda_tot": ("6.0", _real, _at_least(0)),
    "traffic.sigma0_mbits": ("2.0", _real, _at_least(1e-6)),
    "classes.k_macro": ("4", _integer, _at_least(1)),
    "classes.l_small": ("4", _integer, _at_least(1)),
    "sim.duration_s": ("3600", _real, _POSITIVE),
    "sim.snapshot_s": ("30", _real, _POSITIVE),
    "sim.trajectory_dt_s": ("1.0", _real, _POSITIVE),
    "sim.seed": ("1", _integer, _at_least(0)),
    "sim.replications": ("10", _integer, _at_least(1)),
    "sim.mc_samples": ("200000", _integer, _at_least(100)),
    "sim.n_max": ("40", _integer, _at_least(1)),
    "sim.small_reach_km": ("0.0", _real, _at_least(0)),
    "sim.levels": ("200", _integer, _at_least(10)),
    "sim.level_min_mbps": ("0.05", _real, _at_least(1e-6)),
    "sim.nu_floor": ("1e-4", _real, _at_least(1e-6)),
    "sim.extra_migration_rate": ("0.0", _real, _at_least(0)),
    "sim.workers": ("1", _integer, _at_least(1)),
}
# ScenarioConfig fields holding one key's value as parsed
_FIELDS = {"K": "classes.k_macro", "L": "classes.l_small", "period_s": "mobility.period_s",
           **{name: f"sim.{name}" for name in (
               "duration_s", "snapshot_s", "trajectory_dt_s", "seed", "replications",
               "mc_samples", "n_max", "small_reach_km", "nu_floor",
               "extra_migration_rate", "workers")}}


def _checked(key: str, value):
    """``value`` (text or a built value) of ``key`` parsed and held to its
    row's rules, which an empty optional key (None) need not meet."""
    _, parse, *rules = _KEYS[key]
    value = parse(value)
    for ok, message in rules:
        if value is not None and not ok(value):
            raise ValueError(message)
    return value


def _section(v: dict, name: str) -> dict:
    """Section ``name``'s values by key name; KeyError if one did not parse."""
    return {key.partition(".")[2]: v[key] for key in _KEYS if key.startswith(name + ".")}


def _policy(v: dict) -> MobilityPolicy:
    m = _section(v, "mobility")
    kw = dict(v_max=m["v_max_kmh"], dv=m["dv_kmh"], turn_probs=m["turn_probs"])
    if m["route"] is None:
        return MobilityPolicy(initial_speed=m["speed_kmh"] or 0.0, **kw)
    return route_cruise_policy(m["route"], m["period_s"], stops=m["stops"],
                               speed_kmh=m["speed_kmh"], **kw)


# domain objects in build order: (field, section or key its errors name, maker
# from the values so far); one reading a key that failed (KeyError) is skipped
_OBJECTS = (
    ("layout", "layout", lambda v: CellLayout(v["layout.delta_km"], v["layout.oracle_rings"])),
    ("params", "radio", lambda v: RadioParams.from_link_budget(**_section(v, "radio"))),
    ("spec", "hotspot", lambda v: HotspotSpec(
        v["hotspot.center_r_km"], v["hotspot.center_theta_rad"], v["hotspot.sigma_km"])),
    ("grid", "mobility.extent_km",
     lambda v: ManhattanGrid(v["mobility.block_km"], v["mobility.extent_km"])),
    ("policy", "mobility", _policy),
    ("traffic", "traffic",
     lambda v: TrafficSpec(v["traffic.lambda_tot"], v["traffic.sigma0_mbits"])),
    ("levels", "sim", lambda v: default_levels(v["params"].eta0, n=v["sim.levels"],
                                               l_min=v["sim.level_min_mbps"])),
)


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
    period_s: float | None     # None where it sets no speed: no route, or a pinned one
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
    """Errors of the built settings ``v`` (field -> value, absent ones
    skipped): the ``_FIELDS`` rows, a horizon of two snapshots, an ascending
    level grid, the hotspot centre inside the macro disk, the route and stops
    on the street grid, and route plus reach inside the interference model's
    domain."""
    errors = []
    for field, key in _FIELDS.items():
        try:
            if v.get(field) is not None:
                _checked(key, v[field])
        except (ValueError, ArithmeticError) as exc:
            errors.append(f"{key}={v[field]}: {exc}")
    if {"duration_s", "snapshot_s"} <= v.keys() and 0 < v["duration_s"] < 2 * v["snapshot_s"]:
        errors.append("sim.duration_s must cover at least two snapshots")
    if "levels" in v and not np.all(np.diff(v["levels"]) > 0):
        errors.append(f"sim.level_min_mbps={v['levels'][0]}: the level grid must ascend "
                      f"to radio.eta0_mbps={v['levels'][-1]}")
    if {"layout", "spec"} <= v.keys() and v["spec"].R_h >= v["layout"].R:
        errors.append(f"hotspot.center_r_km={v['spec'].R_h}: hotspot center must lie "
                      f"inside the macro disk (R={v['layout'].R:.4f} Km)")
    route = v["policy"].route if "policy" in v else None
    if route and "grid" in v:
        key = "mobility.route"
        try:
            pts = _validate_route(route, v["grid"])
            key = "mobility.stops"
            _route_geometry(pts, v["policy"].stops)
        except InvalidRouteError as exc:
            errors.append(f"{key}: {exc}")
    if route and {"layout", "small_reach_km"} <= v.keys():
        far = max(math.hypot(x, y) for x, y in route)
        if far + v["small_reach_km"] >= _DOMAIN_FRAC * v["layout"].delta:
            errors.append("mobility.route + sim.small_reach_km extends beyond the "
                          "interference model's domain (first interferer ring)")
    return errors


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; ConfigError lists every problem."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        try:
            cp.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError([str(exc)]) from exc
    sections = dict.fromkeys(key.partition(".")[0] for key in _KEYS)
    errors, items = [], {key: row[0] for key, row in _KEYS.items()}
    for sec in cp.sections():
        if sec not in sections:
            errors.append(f"unknown section [{sec}] (valid: {', '.join(sections)})")
        for key, val in cp.items(sec) if sec in sections else ():
            if f"{sec}.{key}" not in _KEYS:
                valid = ", ".join(_section(_KEYS, sec))
                errors.append(f"unknown key {sec}.{key} (valid: {valid})")
            items[f"{sec}.{key}"] = val.strip()
    if errors:
        raise ConfigError(errors)
    return _build(items)


def _build(items: dict) -> ScenarioConfig:
    """The scenario of the key texts ``items`` ("section.key" -> text)."""
    values, errors = {}, []
    for key, text in items.items():
        try:
            values[key] = _checked(key, text)
        except (ValueError, ArithmeticError) as exc:
            errors.append(f"{key}={text}: {exc}")
    for field, section, make in _OBJECTS:
        try:
            values[field] = make(values)
        except KeyError:
            pass
        except (ValueError, ArithmeticError) as exc:
            errors.append(f"{section}: {exc}")
    values.update({field: values[key] for field, key in _FIELDS.items() if key in values})
    if values.get("mobility.route") is None or values.get("mobility.speed_kmh") is not None:
        values["period_s"] = None
    errors += _setting_errors(values)
    if errors:
        raise ConfigError(errors)
    canon = "\n".join(f"{key}={text}" for key, text in sorted(items.items()))
    return ScenarioConfig(**{field: values[field] for field in _FIELDS},
                          **{field: values[field] for field, _, _ in _OBJECTS},
                          scenario_id=derived_scenario_id(canon, ()))


# names a sweep may vary; with_overrides also takes every _FIELDS name
SWEEP_PARAMS = ("kappa", "sigma_km", "lambda_tot", "k_classes", "small_reach_km", "period_s")
_KEY_OF = {**_FIELDS, "k_classes": "classes.k_macro", "sigma_km": "hotspot.sigma_km",
           "lambda_tot": "traffic.lambda_tot"}   # the key an override's errors name
# sweep parameters a domain object holds, which checks them: (field, attribute)
_HELD = {"kappa": ("params", "kappa"), "sigma_km": ("spec", "A"),
         "lambda_tot": ("traffic", "lambda_tot")}


def _changes(cfg: ScenarioConfig, name: str, value) -> dict:
    """The fields that setting ``name`` to ``value`` replaces in ``cfg``.  An
    object holding the value checks it, and then its key's row, if any."""
    if name in _HELD:
        field, attr = _HELD[name]
        held = replace(getattr(cfg, field), **{attr: value})
        if name in _KEY_OF:
            _checked(_KEY_OF[name], value)
        return {field: held}
    value = _checked(_KEY_OF[name], value)
    if name == "k_classes":
        return {"K": value, "L": value}
    if name != "period_s":
        return {name: value}
    if cfg.period_s is None:
        raise ValueError("a period needs a route scenario without mobility.speed_kmh")
    p = cfg.policy
    return {"period_s": value, "policy": route_cruise_policy(
        p.route, value, v_max=p.v_max, dv=p.dv, turn_probs=p.turn_probs, stops=p.stops)}


def with_overrides(cfg: ScenarioConfig, **values) -> ScenarioConfig:
    """``cfg`` with settings replaced, by ``_FIELDS`` or ``SWEEP_PARAMS``
    name; values that fail the loader's checks raise ConfigError.  The id is
    the file's hash plus the sorted ``name=value`` pairs that changed a
    setting; ``workers`` changes no output and stays out of it."""
    errors, changes, changed = [], {}, []
    for name, value in values.items():
        try:
            fields = _changes(cfg, name, value)
        except (ValueError, ArithmeticError) as exc:
            errors.append(f"{_KEY_OF.get(name, name)}={value}: {exc}")
            continue
        if any(new != getattr(cfg, field) for field, new in fields.items()):
            changes.update(fields)
            if name != "workers":
                changed.append(f"{name}={value!r}")
    out = replace(cfg, **changes)
    if errors := errors + _setting_errors(vars(out)):
        raise ConfigError(errors)
    return replace(out, scenario_id=derived_scenario_id(cfg.scenario_id, changed)) \
        if changed else out


def derived_scenario_id(base: str, changed) -> str:
    """Id of the scenario ``base`` (a scenario id, or a file's canonical
    text) with the ``name=value`` pairs ``changed`` applied."""
    text = "\n".join([base, *sorted(changed)])
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def bundled_scenario_path(name: str = "reference"):
    """Path to a scenario shipped with the package."""
    ref = resources.files("mobicell") / "scenarios" / f"{name}.ini"
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled scenario named {name!r}")
    return ref
