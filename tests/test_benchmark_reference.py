"""Every benchmark command, run in-process, reproduces its recorded report.

The benchmark (`perfbench/run.py`) checks each command's exit code and its
`strip_timing` report byte for byte against `perfbench/reference/`; this
checks the same promise under pytest, and again in an interpreter where
numpy cannot be imported.  It only reads `perfbench/`.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from cantordyn.cli import main
from cantordyn.report import strip_timing

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))


def reference_of(workload):
    path = BENCH_DIR / "reference" / f"{workload}.json"
    entries = json.loads(path.read_text(encoding="utf-8"))["commands"]
    return {tuple(e["argv"]): (e["exit"], e["report"]) for e in entries}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_benchmark_commands_reproduce_the_reference(capsys, monkeypatch, workload):
    monkeypatch.chdir(ROOT)  # command paths are relative to the repo root
    monkeypatch.delenv("CANTORDYN_INDEX_CAP", raising=False)
    reference = reference_of(workload)
    commands = [tuple(argv) for argv in WORKLOADS[workload]["commands"]]
    assert sorted(commands) == sorted(reference)
    for argv in commands:
        rc = main(list(argv))
        out = capsys.readouterr().out
        assert (rc, strip_timing(out)) == reference[argv], argv


REPLAY_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every import of numpy fails
from cantordyn.cli import main
from cantordyn.report import strip_timing
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([main(argv), strip_timing(out.getvalue())])
print(json.dumps(results))
"""


def test_benchmark_commands_reproduce_the_reference_without_numpy():
    commands = [argv for name in sorted(WORKLOADS) for argv in WORKLOADS[name]["commands"]]
    reference = {}
    for name in WORKLOADS:
        reference.update(reference_of(name))
    env = dict(os.environ)
    env.pop("CANTORDYN_INDEX_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", REPLAY_WITHOUT_NUMPY, json.dumps(commands)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    results = [tuple(result) for result in json.loads(proc.stdout)]
    assert results == [reference[tuple(argv)] for argv in commands]
