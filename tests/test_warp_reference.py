"""`classify` and `code` on `configs/warp.cfg --depth 5`, the one non-tree model
of more than 256 addresses among the configs (993 addresses), reproduce their
recorded reports in an interpreter where numpy cannot be imported.

`data/warp_depth5_reference.json` holds each command's exit code and
`strip_timing` report as the numpy rank-matrix and array word-ball engines
computed them, before those engines were replaced by rank rows and the tuple
word ball (commit 658ede8 is the last with them).  This module imports no
`tests/helpers`, so it collects without numpy.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = pathlib.Path(__file__).resolve().parent / "data" / "warp_depth5_reference.json"

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
    proc = subprocess.run(
        [sys.executable, "-c", REPLAY_WITHOUT_NUMPY, json.dumps([entry["argv"]])],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    results = [tuple(result) for result in json.loads(proc.stdout)]
    assert results == [(entry["exit"], entry["report"])]
