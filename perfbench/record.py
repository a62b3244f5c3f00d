"""Rewrite the reference outputs that perfbench/run.py checks every run against.

    python3 perfbench/record.py [WORKLOAD...]

Runs each command of the named workloads (all by default) once, untraced,
and stores its exit code and its report after `strip_timing` in
perfbench/reference/<workload>.json.  Run it only at a commit whose reports
are known to be right: the benchmark never rewrites the references itself.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import run as bench


def record(workload, commands, work_dir):
    from cantordyn.report import strip_timing

    entries = []
    for argv in commands:
        result = bench.run_command(argv, work_dir, time.monotonic() + 3600, traced=False)
        entries.append(
            {"argv": argv, "exit": result.exit_code, "report": strip_timing(result.report)}
        )
        print(f"{workload}: exit {result.exit_code} {result.wall_s:.2f} s  {' '.join(argv)}")
    path = bench.REFERENCE_DIR / f"{workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"commands": entries}, fh, indent=1)
        fh.write("\n")


def main(names):
    workloads = bench.load_workloads()
    unknown = [n for n in names if n not in workloads]
    if unknown:
        sys.stderr.write(f"unknown workload(s): {', '.join(unknown)}\n")
        return 2
    sys.path.insert(0, str(bench.SRC))
    bench.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.BENCH_DIR, prefix=".work-") as tmp:
        for name in names or list(workloads):
            bench.check_checkout(workloads[name]["commands"])
            record(name, workloads[name]["commands"], Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
