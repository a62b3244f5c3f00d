"""`classify` and `code` on `configs/warp.cfg --depth 5`, the one non-tree model
of more than 256 addresses among the configs (993 addresses), reproduce their
recorded reports in an interpreter where numpy cannot be imported.

`data/warp_depth5_reference.json` holds each command's exit code and
`strip_timing` report as the numpy rank-matrix and array word-ball engines
computed them, before those engines were replaced by rank rows and the tuple
word ball (commit 658ede8 is the last with them).  On Linux each replay's
peak RSS, read through `os.wait4`, must also stay under a bound: the word
ball cuts its seventh layer there without storing that layer's 993-tuples.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = pathlib.Path(__file__).resolve().parent / "data" / "warp_depth5_reference.json"

# the most RSS a replay may peak at, in MB.  While the word ball's cut layer
# stored its keys up to the cap, classify peaked at 156.6 MB and code at
# 157.7 MB; they now peak near 96 MB and 121 MB (CPython 3.11)
RSS_BOUND_MB = {"classify": 110, "code": 135}

# A child's ru_maxrss counts the image it was forked from, so the replay is
# started from this small process, which reads the replay's peak RSS (KiB on
# Linux) through os.wait4 and prints it after the replay's own output.
PEAK_RSS_PROBE = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(usage.ru_maxrss, flush=True)
sys.exit(proc.returncode)
"""

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


def _entries():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["commands"]


def test_the_reference_holds_classify_and_code():
    assert sorted(e["argv"][0] for e in _entries()) == ["classify", "code"]


@pytest.mark.parametrize("command", ["classify", "code"])
def test_warp_depth_5_reproduces_its_reference_without_numpy(command):
    (entry,) = [e for e in _entries() if e["argv"][0] == command]
    env = dict(os.environ)
    env.pop("CANTORDYN_INDEX_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    replay = [sys.executable, "-c", REPLAY_WITHOUT_NUMPY, json.dumps([entry["argv"]])]
    on_linux = sys.platform.startswith("linux")
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_PROBE, *replay] if on_linux else replay,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    results = [tuple(result) for result in json.loads(lines[0])]
    assert results == [(entry["exit"], entry["report"])]
    if on_linux:
        peak = int(lines[1]) / 1024
        assert peak <= RSS_BOUND_MB[command], f"{command} peaked at {peak:.1f} MB"
