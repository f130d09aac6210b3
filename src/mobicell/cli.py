"""Command line entry point: scenario validation, CCDF snapshots, the full
dynamics experiment and parameter sweeps.

Exit codes: 0 success, 2 configuration error (the inputs are at fault), 3
a failed internal check (a valid run broke its own bookkeeping, or raised
ValueError inside the run).  Errors are also written to stderr as one JSON
object; for a failed internal check it names the check, the scenario id and
the seed."""

from __future__ import annotations

import argparse
import json
import math
import sys

from mobicell.config import (SWEEP_PARAMS, ConfigError, bundled_scenario_path,
                             load_scenario, with_overrides)
from mobicell.flowsim import CheckError
from mobicell.pipeline import run_ccdf, run_dynamics, run_sweep

EXIT_CONFIG = 2
EXIT_CHECK = 3


class _RunFailed(Exception):
    """A run failed a check of its own (see ``_run``); its one argument
    names the check, the scenario id and the seed."""


def _fail(code: int, kind: str, detail) -> int:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)
    return code


def _load(args):
    path = args.config if args.config else bundled_scenario_path()
    overrides = {"seed": args.seed, "workers": args.workers, "mc_samples": args.samples,
                 "replications": getattr(args, "replications", None),
                 "duration_s": getattr(args, "duration", None)}
    return with_overrides(load_scenario(path),
                          **{k: v for k, v in overrides.items() if v is not None})


def _run(cfg, fn, *args, **kwargs):
    """``fn(cfg, ...)``, with a failed internal check or a ValueError raised
    inside the run as ``_RunFailed``: the inputs passed their checks, so the
    fault is the run's.  A ConfigError is still the inputs' fault."""
    try:
        return fn(cfg, *args, **kwargs)
    except ConfigError:
        raise
    except (CheckError, ValueError) as exc:
        check, message = (exc.check, exc.detail) if isinstance(exc, CheckError) \
            else (type(exc).__name__, str(exc))
        raise _RunFailed({"check": check, "scenario": cfg.scenario_id, "seed": cfg.seed,
                          "message": message}) from exc


def cmd_validate(args) -> int:
    cfg = _load(args)
    print(f"OK scenario={cfg.scenario_id} "
          f"(lambda_tot={cfg.traffic.lambda_tot}/s, K={cfg.K}, L={cfg.L}, "
          f"duration={cfg.duration_s}s, replications={cfg.replications})")
    return 0


def _numbers(name: str, text: str) -> list:
    """The comma-separated numbers given as ``name`` (an option or a sweep
    parameter); ValueError naming it if the list is empty or not numbers."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{name}={text}: give comma-separated numbers") from None


def _instants(option: str, text: str) -> list:
    """The comma-separated values of ``option``, each finite and >= 0."""
    values = _numbers(option, text)
    if not all(0.0 <= v < math.inf for v in values):
        raise ValueError(f"{option}={text}: every value must be finite and >= 0")
    return values


def cmd_ccdf(args) -> int:
    if args.times is not None and args.distances_m is not None:
        raise ValueError("--times and --distances-m are alternatives: give one of them")
    cfg = _load(args)
    times = _instants("--times", args.times) if args.times is not None else None
    distances = _instants("--distances-m", args.distances_m) \
        if args.distances_m is not None else (0.0, 60.0, 120.0)
    out = args.out or f"out/{cfg.scenario_id}-ccdf"
    res = _run(cfg, run_ccdf, times=times, distances_m=distances, out_dir=out)
    print(f"wrote {out}/ccdf.csv and {out}/trajectory.csv "
          f"(snapshots at t={['%.0f' % t for t, _, _ in res['at_times']]} s)")
    return 0


def cmd_dynamics(args) -> int:
    cfg = _load(args)
    out = args.out or f"out/{cfg.scenario_id}-dynamics"
    res = _run(cfg, run_dynamics, out_dir=out)
    if not res.baseline_stable:
        print("warning: macro-only baseline is unstable (rho_bar >= 1); "
              "analytic baseline throughput is 0, empirical metrics remain valid",
              file=sys.stderr)
    rho_bar = res.replications[0].windows_sc.rho_bar
    near, far = (f"{rho_bar[window].mean():.4f}" if window.any() else "none"
                 for window in res.window_masks())
    print(f"wrote {out}/metrics_sc.csv, metrics_macro_only.csv, metrics_empirical.csv, "
          f"summary.csv, trace_rep0.csv, flows_rep0.csv")
    print(f"baseline rho_bar={res.windows_mo.rho_bar[0]:.4f}; "
          f"rep0 near-window rho_bar={near}, far-window rho_bar={far}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    values = _numbers(args.parameter, args.values)
    out = args.out or f"out/{cfg.scenario_id}-sweep"
    _run(cfg, run_sweep, args.parameter, values, out_dir=out)
    print(f"wrote {out}/sweep_{args.parameter}.csv ({len(values)} values x "
          f"{cfg.replications} replications)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mobicell",
        description="Moving-small-cell offloading: CCDF snapshots, coupled "
                    "flow-level dynamics and parameter sweeps.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, replication_opts=False):
        sp.add_argument("--config", help="scenario file (default: bundled reference scenario)")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--seed", type=int, help="override the scenario seed")
        sp.add_argument("--workers", type=int, help="parallel replication workers")
        sp.add_argument("--samples", type=int, help="Monte Carlo samples per snapshot")
        if replication_opts:
            sp.add_argument("--replications", type=int, help="override replication count")
            sp.add_argument("--duration", type=float, help="override horizon (s)")

    sp = sub.add_parser("validate", help="check a scenario file")
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("ccdf", help="throughput CCDFs at chosen times/distances")
    common(sp)
    sp.add_argument("--times", help="comma-separated snapshot times in s")
    sp.add_argument("--distances-m",
                    help="comma-separated cell-to-hotspot distances in m (default 0,60,120)")
    sp.set_defaults(func=cmd_ccdf)

    sp = sub.add_parser("dynamics", help="full load/throughput time-series experiment")
    common(sp, replication_opts=True)
    sp.set_defaults(func=cmd_dynamics)

    sp = sub.add_parser("sweep", help="repeat dynamics over one parameter")
    common(sp, replication_opts=True)
    sp.add_argument("parameter", help=f"one of {', '.join(SWEEP_PARAMS)}")
    sp.add_argument("values", help="comma-separated parameter values")
    sp.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return _fail(EXIT_CONFIG, "config", exc.errors)
    except FileNotFoundError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
    except ValueError as exc:
        return _fail(EXIT_CONFIG, "invalid-argument", str(exc))
    except _RunFailed as exc:
        return _fail(EXIT_CHECK, "internal-check", exc.args[0])


if __name__ == "__main__":
    sys.exit(main())
