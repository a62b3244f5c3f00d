"""Benchmark of the cantordyn command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs no install.  A workload
is a fixed list of CLI commands (perfbench/workloads.json).  Every command
runs as a fresh `python3 -m cantordyn.cli` process, one at a time, because a
user pays import, config parsing and coset enumeration on every invocation.
A run repeats passes over the list, each in an order drawn from --seed,
while a further pass fits in --seconds, and compares every report, after
`cantordyn.report.strip_timing`, and every exit code byte for byte with
perfbench/reference/<workload>.json (rewritten only by perfbench/record.py).

--trace 0 measures with tracing off and prints the end-to-end metrics.
--trace 1 alternates untraced passes with passes through perfbench/tracer.py
and prints the per-layer metrics.  Lines before the last are a readable
summary; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracer import SPANNED

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS_FILE = BENCH_DIR / "workloads.json"
REFERENCE_DIR = BENCH_DIR / "reference"

# Set-up probes in the first pass; every later pass adds one more.
SETUP_FIRST_PASS = 3
# Typical median wall s of calibrate.py on the reference machine (2 vCPUs,
# Python 3.11.7), where run medians ranged from 0.27 to 0.44 s.  Reported times
# are scaled to that speed: value * CALIBRATION_REF_S / (the run's median
# calibrate.py wall s), which cancels the speed swings of a shared machine.
CALIBRATION_REF_S = 0.35
# A run must end within 180 s; a command still running at this point is killed.
HARD_LIMIT_S = 170.0

UNITS = {"self_s": "s", "useful_frac": "ratio"}


@dataclass
class CommandRun:
    argv: list
    exit_code: int
    wall_s: float
    rss_mb: float
    report: str
    ok: bool = False
    trace: dict = None


class MissingCheckout(Exception):
    """The directory does not hold the program or the workload inputs."""


def load_workloads():
    with open(WORKLOADS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(workload):
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)["commands"]
    return {tuple(e["argv"]): (e["exit"], e["report"]) for e in entries}


def config_paths(commands):
    """Every config file the commands name, in first-use order."""
    seen = []
    for argv in commands:
        for arg in argv:
            if arg.endswith(".cfg") and arg not in seen:
                seen.append(arg)
    return seen


def check_checkout(commands):
    needed = [SRC / "cantordyn" / "cli.py"] + [ROOT / p for p in config_paths(commands)]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise MissingCheckout("missing from the checkout: " + ", ".join(missing))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CANTORDYN_INDEX_CAP", None)  # the default cap is part of the workload
    return env


def spawn(args, work_dir, deadline):
    """Run one process to completion: (exit code, wall s, max RSS MB, stdout)."""
    out_path = work_dir / "stdout"
    with open(out_path, "wb") as out, open(work_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            args,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
        )
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    text = out_path.read_bytes().decode("utf-8", errors="replace")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, text


def run_command(argv, work_dir, deadline, traced):
    if traced:
        spans_path = work_dir / "spans.json"
        args = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), "--", *argv]
    else:
        args = [sys.executable, "-m", "cantordyn.cli", *argv]
    exit_code, wall, rss, report = spawn(args, work_dir, deadline)
    run = CommandRun(list(argv), exit_code, wall, rss, report)
    if traced and spans_path.is_file():
        with open(spans_path, encoding="utf-8") as fh:
            run.trace = json.load(fh)
        spans_path.unlink()
    return run


def check(run, reference, strip_timing):
    expected = reference.get(tuple(run.argv))
    run.ok = expected == (run.exit_code, strip_timing(run.report))


def run_pass(order, reference, strip_timing, work_dir, deadline, traced, calibrations=None):
    """Run the commands in `order`, checking each against the reference.

    With a `calibrations` list, every command is preceded by one run of
    calibrate.py, and its wall s is appended to the list.
    """
    runs = []
    for argv in order:
        if calibrations is not None:
            calibrations.append(calibrate(work_dir, deadline))
        run = run_command(argv, work_dir, deadline, traced)
        check(run, reference, strip_timing)
        runs.append(run)
    return runs


def calibrate(work_dir, deadline):
    exit_code, wall, _, _ = spawn([sys.executable, str(BENCH_DIR / "calibrate.py")], work_dir, deadline)
    if exit_code != 0:
        raise RuntimeError(f"calibrate.py exited with {exit_code}")
    return wall


def measure_setup(commands, work_dir, deadline):
    """Wall s of one fresh interpreter that imports the CLI and builds every config."""
    args = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *config_paths(commands)]
    exit_code, wall, _, _ = spawn(args, work_dir, deadline)
    return wall, exit_code == 0


# ------------------------------------------------------------- trace metrics

def trace_totals(trace):
    """Per-layer sums for one traced command, plus main and top-level time."""
    names, spans = trace["names"], trace["spans"]
    totals = defaultdict(float)
    totals.update(trace["counts"])
    ids = {name: i for i, name in enumerate(names)}

    def ancestor(idx, name_id):
        parent = spans[idx][3]
        while parent >= 0 and spans[parent][0] != name_id:
            parent = spans[parent][3]
        return parent

    core_id = ids.get("affine.normal_core", -2)
    chain_id = ids.get("coding.coding_chain", -2)
    core_call_ids = {ids.get("affine.conjugate"), ids.get("affine.subgroup_intersect")}
    words_per_chain = defaultdict(int)
    top_s = 0.0
    for idx, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        duration = end - start
        totals[f"{name}.self_s"] += duration
        totals[f"{name}.calls"] += 1
        if parent >= 0:
            totals[f"{names[spans[parent][0]]}.self_s"] -= duration
        else:
            top_s += duration
        if name_id in core_call_ids and ancestor(idx, core_id) >= 0:
            totals[f"{name}.in_core"] += 1
        if name == "coding.return_words":
            words_per_chain[ancestor(idx, chain_id)] += 1
    for chain, calls in words_per_chain.items():
        if chain >= 0:
            totals["coding.coding_chain.escalations"] += calls - 1
    totals["main_s"] = trace["main_s"]
    totals["top_s"] = top_s
    return totals


def pass_layer_metrics(runs):
    """Every per-layer metric except trace_overhead_frac, for one traced pass."""
    totals = defaultdict(float)
    for run in runs:
        if run.trace is not None:
            for key, value in trace_totals(run.trace).items():
                totals[key] += value
    metrics = {}
    for module, path, stats in SPANNED:
        name = f"{module}.{path}"
        for stat in stats:
            key = f"{name}.{stat}"
            if stat == "useful_frac":
                conjugates = totals["affine.conjugate.in_core"]
                intersects = totals["affine.subgroup_intersect.in_core"]
                metrics[key] = intersects / conjugates if conjugates else 0.0
            elif stat == "self_s":
                metrics[key] = totals[key]
            else:
                metrics[key] = int(totals[key])
    main_s = totals["main_s"]
    metrics["cli.untraced_frac"] = (main_s - totals["top_s"]) / main_s if main_s else 0.0
    return metrics


def layer_units():
    units = {}
    for module, path, stats in SPANNED:
        for stat in stats:
            units[f"{module}.{path}.{stat}"] = UNITS.get(stat, "count")
    units["cli.untraced_frac"] = "ratio"
    units["trace_overhead_frac"] = "ratio"
    return units


# ------------------------------------------------------------------- runs

def median_walls(passes):
    """Median wall s of each command over the passes."""
    walls = defaultdict(list)
    for runs in passes:
        for r in runs:
            walls[tuple(r.argv)].append(r.wall_s)
    return {argv: statistics.median(w) for argv, w in walls.items()}


def run_workload(commands, reference, seed, seconds, trace, work_dir):
    """Passes over `commands` for `seconds`; returns (metrics, attempted, failed, notes)."""
    from cantordyn.report import strip_timing

    started = time.monotonic()
    deadline = started + seconds
    hard_deadline = started + HARD_LIMIT_S
    rng = random.Random(seed)
    attempted = failed = 0
    setup_walls, calibrations = [], []

    modes = [False, True] if trace else [False]
    passes = {mode: [] for mode in modes}
    last_wall = {mode: 0.0 for mode in modes}
    turn = 0
    while True:
        mode = modes[turn % len(modes)]
        if turn >= len(modes) and time.monotonic() + last_wall[mode] > deadline:
            break
        pass_start = time.monotonic()
        if not trace:
            for _ in range(SETUP_FIRST_PASS if turn == 0 else 1):
                wall, ok = measure_setup(commands, work_dir, hard_deadline)
                setup_walls.append(wall)
                attempted += 1
                failed += not ok
        order = rng.sample(commands, len(commands))
        runs = run_pass(
            order, reference, strip_timing, work_dir, hard_deadline, mode,
            None if trace else calibrations,
        )
        passes[mode].append(runs)
        last_wall[mode] = time.monotonic() - pass_start
        attempted += len(runs)
        failed += sum(not r.ok for r in runs)
        turn += 1

    plain = passes[False]
    all_runs = [r for mode in modes for runs in passes[mode] for r in runs]
    failures = [r.argv for r in all_runs if not r.ok]
    notes = [f"passes: {len(plain)} untraced" + (f", {len(passes[True])} traced" if trace else "")]
    notes += [f"mismatch: {' '.join(argv)}" for argv in failures[:10]]
    notes.append(f"failed_frac: {len(failures) / len(all_runs)} ratio")
    walls = median_walls(plain)
    if trace:
        traced = passes[True]
        per_pass = [pass_layer_metrics(runs) for runs in traced]
        metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
        plain_s = sum(walls.values())
        metrics["trace_overhead_frac"] = (sum(median_walls(traced).values()) - plain_s) / plain_s
        absent = sorted({n for runs in traced for r in runs if r.trace for n in r.trace["absent"]})
        if absent:
            notes.append("absent from the program (reported as 0): " + ", ".join(absent))
        units = layer_units()
        return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, attempted, failed, notes

    calibration_s = statistics.median(calibrations)
    scale = CALIBRATION_REF_S / calibration_s
    raw = {
        "wall_s": sum(walls.values()),
        "cmd_max_s": max(walls.values()),
        "setup_s": statistics.median(setup_walls),
    }
    notes.append(
        f"calibration: median {calibration_s:.4f} s of {len(calibrations)}; times below are "
        f"scaled by {scale:.4f}; unscaled: "
        + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items())
    )
    metrics = {k: {"value": v * scale, "unit": "s"} for k, v in raw.items()}
    metrics["peak_rss_mb"] = {"value": max(r.rss_mb for r in all_runs), "unit": "MB"}
    return metrics, attempted, failed, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workloads = load_workloads()
        if args.workload not in workloads:
            raise MissingCheckout(
                f"unknown workload {args.workload!r}; known: {', '.join(workloads)}"
            )
        commands = workloads[args.workload]["commands"]
        check_checkout(commands)
        reference = load_reference(args.workload)
    except (OSError, MissingCheckout) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    sys.path.insert(0, str(SRC))

    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".work-") as tmp:
        metrics, attempted, failed, notes = run_workload(
            commands, reference, args.seed, args.seconds, bool(args.trace), Path(tmp)
        )
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
