"""Every shipped config reproduces its recorded reports, run in-process.

`data/config_reports.json` holds the exit code, the `strip_timing` report
and the stderr of `classify`, `code` and `measure` on every `configs/*.cfg`,
and of three `holonomy` runs (one of them an exit-2 error whose message
names two addresses).  They were recorded at commit 0db9157, before points
became address indices below the CLI; that error's addresses have since been
spelled as `--at` reads them, not as Python tuples.
"""

import json
import pathlib

from cantordyn.cli import main
from cantordyn.report import strip_timing

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = pathlib.Path(__file__).resolve().parent / "data" / "config_reports.json"


def test_every_shipped_config_reproduces_its_reports(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # command paths are relative to the repo root
    monkeypatch.delenv("CANTORDYN_INDEX_CAP", raising=False)
    entries = json.loads(REFERENCE.read_text(encoding="utf-8"))["commands"]
    configs = {e["argv"][1] for e in entries}
    assert configs == {f"configs/{p.name}" for p in (ROOT / "configs").glob("*.cfg")}
    for entry in entries:
        rc = main(list(entry["argv"]))
        out = capsys.readouterr()
        got = (rc, strip_timing(out.out), out.err)
        assert got == (entry["exit"], entry["report"], entry["stderr"]), entry["argv"]
