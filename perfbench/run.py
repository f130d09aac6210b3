"""Benchmark harness for mobicell.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; mobicell is imported from its
``src/`` directory.  Without ``--workload`` every workload runs, each in its
own fresh process, and a table of the end-to-end metrics is printed.  With
``--workload`` one workload runs in this process and the last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

Workloads (scenario files in ``perfbench/scenarios``, seed applied like the
CLI's ``--seed``):

* ``dynamics-ref``: ``pipeline.run_dynamics`` with CSV output on the
  reference scenario, 1 replication per timed round.
* ``dynamics-lap``: the same with a 3600 s pass period (one lap).

Timed rounds repeat until ``--seconds`` would be exceeded, at least two, so
every run also checks that a repeated run at one seed gives identical
outputs.  Pairs of rounds take the process's cores in turn, one core at a
time.  Metrics with ``--trace 0``:

* ``wall_s``: mean wall time of a timed round over the whole run.  On a
  shared host the speed of one core swings by about 1.5x between phases
  lasting seconds to minutes, and some runs never meet a fast phase, so
  the fastest round of a run jumps between the two levels; the mean
  follows the share of the run spent in each and moves less.  The median
  and the fastest round are printed beside it;
* ``setup_s``: median over three set-ups (this process and two fresh ones) of
  the mobicell imports and ``load_scenario``;
* ``peak_rss_mb``: ``ru_maxrss`` of the workload's process.

``failed_ratio`` (operations that raised or failed a check over operations
attempted) is printed with its counts and carried by the JSON's
``attempted`` and ``failed``.  With ``--trace 1`` rounds alternate untraced
and traced, and the JSON holds the per-layer metrics of ``spans.per_layer``
instead.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import spans

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("dynamics-ref", "dynamics-lap")
SETUP_REPEATS = 3
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 900


class SetupFailed(RuntimeError):
    pass


def pin(cpus) -> None:
    """Keep this process on ``cpus``, where the platform lets it choose."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


def import_mobicell():
    """Import the checkout's mobicell, never an installed copy."""
    if not (SRC / "mobicell" / "__init__.py").is_file():
        raise SetupFailed(f"no mobicell sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mobicell
    from mobicell import ccdf, config, flowsim, pipeline  # noqa: F401
    if Path(mobicell.__file__).resolve().parent != (SRC / "mobicell").resolve():
        raise SetupFailed(f"imported mobicell from {mobicell.__file__}, not {SRC}")


# the workload ---------------------------------------------------------------

def dynamics_check(cfg, result, out_dir, watch, state) -> list:
    """Problems per replication of one timed round; ``state`` carries the
    first round's summary for the repeated-run comparison."""
    from mobicell import pipeline
    prov = pipeline.provenance(cfg, "dynamics", cfg.seed)
    by_rep = checks.dynamics_problems(cfg, result, out_dir, watch, prov,
                                      state.get("summary"))
    if "summary" not in state:
        summary = Path(out_dir) / "summary.csv"
        state["summary"] = summary.read_bytes() if summary.is_file() else None
    return [by_rep[r] for r in sorted(by_rep)]


def setup(args):
    """Imports and scenario; returns the scenario with the seconds they took
    since run.py started."""
    import_mobicell()
    from mobicell import config
    cfg = config.load_scenario(str(Path(args.scenario_dir) / f"{args.workload}.ini"))
    cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg, time.perf_counter() - T_START


def setup_elsewhere(args) -> float:
    """Set-up seconds measured in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scenario-dir", str(args.scenario_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupFailed(f"set-up process failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# one workload in this process -------------------------------------------------

def run_workload(args) -> int:
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        import_mobicell()        # the wrap targets must be importable
        with tracer.installed(), tracer.span(spans.SETUP):
            cfg, setup_s = setup(args)
    else:
        cfg, setup_s = setup(args)
    from mobicell import pipeline
    ops_per_round = cfg.replications

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    walls, untraced, state = [], [], {}
    attempted = failed = 0
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    try:
        t_rounds = time.perf_counter()
        i = 0
        while i < MIN_ROUNDS or (time.perf_counter() - t_rounds
                                 + statistics.median(walls) <= args.seconds):
            traced = bool(tracer) and i % 2 == 1
            out_dir = str(tmp / f"round{i}")
            watch = checks.FixedPointWatch()
            attempted += ops_per_round
            gc.collect()        # no round pays for the last one's garbage
            # Pairs of rounds (one traced, one not, with --trace 1) take the
            # cores in turn: on a shared host each core slows down on its own,
            # for minutes at a time, and a run left on one core reports that
            # core's neighbours.
            if cpus:
                pin({cpus[i // 2 % len(cpus)]})
            try:
                with contextlib.ExitStack() as stack:
                    stack.enter_context(watch.installed())
                    if traced:
                        stack.enter_context(tracer.installed())
                        stack.enter_context(tracer.span(spans.ROUND))
                    t0 = time.perf_counter()
                    result = pipeline.run_dynamics(cfg, out_dir=out_dir)
                    wall = time.perf_counter() - t0
            except Exception:   # a raising operation fails its round
                traceback.print_exc()
                failed += ops_per_round
                break
            walls.append(wall)
            print(f"round {i}: {wall:.3f} s{' traced' if traced else ''}", file=sys.stderr)
            if not traced:
                untraced.append(wall)
            for problems in dynamics_check(cfg, result, out_dir, watch, state):
                for p in problems:
                    print(f"round {i}: check failed: {p}", file=sys.stderr)
                failed += bool(problems)
            del result
            shutil.rmtree(out_dir, ignore_errors=True)
            i += 1
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if cpus:
            pin(cpus)       # the set-up processes started below inherit it
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):   # another run still uses it
            tmp_root.rmdir()

    if tracer:
        metrics = {name: (value, unit, "") for name, (value, unit)
                   in spans.per_layer(tracer, ops_per_round, untraced, src_lines()).items()}
        for target in sorted(tracer.absent):
            print(f"absent wrap target: {target}")
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        spans_file = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        print(f"spans written to {spans_file.relative_to(ROOT)}")
    else:
        setups = [setup_s] + [setup_elsewhere(args) for _ in range(SETUP_REPEATS - 1)]
        metrics = {
            "wall_s": (statistics.fmean(walls) if walls else 0.0, "s",
                       f"n={len(walls)} rounds, mean; median "
                       f"{statistics.median(walls) if walls else 0.0:.6g} s, "
                       f"fastest {min(walls, default=0.0):.6g} s"),
            "setup_s": (statistics.median(setups), "s", f"n={len(setups)}, median"),
            "peak_rss_mb": (rss_mb, "MB", "n=1"),
        }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}  {note}".rstrip())
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'failed_ratio':36s} {ratio:14.6g} ratio  ({failed} failed / {attempted} attempted)")
    correct = failed == 0 and attempted > 0 and len(walls) >= MIN_ROUNDS
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "mobicell").glob("*.py"))


# every workload, each in a fresh process ---------------------------------------

def run_all(args) -> int:
    rows, status = [], 0
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scenario-dir", str(args.scenario_dir)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        status = status or proc.returncode
        try:
            rows.append((w, json.loads(lines[-1])))
        except (IndexError, json.JSONDecodeError):
            print(f"{w}: no result", file=sys.stderr)
            status = status or 1
    if rows and not args.trace:
        print(f"\n{'workload':14s} {'wall_s':>10s} {'setup_s':>10s} {'peak_rss_mb':>12s} "
              f"{'failed_ratio':>13s}")
        for w, res in rows:
            m = res["metrics"]
            ratio = res["failed"] / max(res["attempted"], 1)
            print(f"{w:14s} {m['wall_s']['value']:10.3f} {m['setup_s']['value']:10.3f} "
                  f"{m['peak_rss_mb']['value']:12.1f} {ratio:13.3f}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scenario-dir", default=str(HERE / "scenarios"),
                    help="directory of the <workload>.ini files")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # a terminated run still removes its temporary outputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.workload is None:
            return run_all(args)
        if args.setup_only:
            print(setup(args)[1])
            return 0
        return run_workload(args)
    except (SetupFailed, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
