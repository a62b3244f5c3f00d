"""Config fuzzing: a shipped config with one line dropped, duplicated or
rewritten still meets the exit-code contract under `classify`, `code` and
`measure`: 0 for a verdict, 2 for a parse or semantic error, 3 for a cap and
4 for an invariant violation, with one `error:` line on stderr for each
nonzero code, and no exception escapes `cli.main`.

A rewritten line keeps its key and takes a value from a small pool, so every
depth it sets is at most 3.  The Fokkink-Oversteegen configs start at depth 1
rather than 2, where `code` takes about a second.
"""

import contextlib
import io
import pathlib

from hypothesis import example, given
from hypothesis import strategies as st

from cantordyn.cli import main

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
CONFIGS = {p.name: p.read_text(encoding="utf-8") for p in sorted(CONFIG_DIR.glob("*.cfg"))}
for _name in ("fo.cfg", "fo_explicit.cfg"):
    CONFIGS[_name] = CONFIGS[_name].replace("depth = 2", "depth = 1")
VALUES = ("-1", "0", "1", "2", "3", "1/2", "3/2", "x", "")


@st.composite
def mutated_configs(draw):
    lines = CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))].splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(("drop", "duplicate", "rewrite")))
    if edit == "drop":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    else:
        key = lines[i].split("=", 1)[0].strip()
        lines[i] = f"{key} = {draw(st.sampled_from(VALUES))}"
    return "\n".join(lines) + "\n"


@given(mutated_configs())
@example("[chain]\ngallery = vietoris\np = 2\ndepth = 2\n[level 1]\nlattice = 7 0 / 0 7\n")
@example("[chain]\ngallery = fokkink_oversteegen\np = 2\nk1 = 2\nfree_factor = true\n")
@example("[action]\ngallery = warp_example\np = 2\ndepth = 2\n")
@example("[chain]\ngallery = \ndepth = 1\n")  # once an AttributeError
def test_a_mutated_config_meets_the_exit_code_contract(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "mutated.cfg"
    path.write_text(text, encoding="utf-8")
    for command in ("classify", "code", "measure"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, str(path)])
        assert rc in (0, 2, 3, 4), (command, text)
        if rc:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1, (command, text)
            assert err.getvalue().startswith("error: "), (command, text)
        else:
            assert err.getvalue() == "", (command, text)
