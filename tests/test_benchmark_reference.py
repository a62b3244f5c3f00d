"""Every benchmark command, run in-process, reproduces its recorded report.

The benchmark (`perfbench/run.py`) checks each command's exit code and its
`strip_timing` report byte for byte against `perfbench/reference/`; this
checks the same promise under pytest.  It only reads `perfbench/`.
"""

import json
import pathlib

import pytest

from cantordyn.cli import main
from cantordyn.report import strip_timing

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_benchmark_commands_reproduce_the_reference(capsys, monkeypatch, workload):
    monkeypatch.chdir(ROOT)  # command paths are relative to the repo root
    monkeypatch.delenv("CANTORDYN_INDEX_CAP", raising=False)
    path = BENCH_DIR / "reference" / f"{workload}.json"
    entries = json.loads(path.read_text(encoding="utf-8"))["commands"]
    reference = {tuple(e["argv"]): (e["exit"], e["report"]) for e in entries}
    commands = [tuple(argv) for argv in WORKLOADS[workload]["commands"]]
    assert sorted(commands) == sorted(reference)
    for argv in commands:
        rc = main(list(argv))
        out = capsys.readouterr().out
        assert (rc, strip_timing(out)) == reference[argv], argv
