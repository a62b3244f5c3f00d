"""Set-up work of a cantordyn command, with no verdict computed.

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG...

Imports the CLI, then parses and constructs each config: chains are built
and validated, `[action]` configs build their action.  The benchmark times
this whole process as `setup_s`.
"""

import sys

import cantordyn.cli  # noqa: F401  (the import is part of what is measured)
from cantordyn.config import parse_config


def main(paths):
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        if cfg.kind == "chain":
            cfg.build_chain()
        else:
            cfg.build_action()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
