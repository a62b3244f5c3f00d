"""What a command pays at start: no benchmark command or set-up build imports
`dataclasses` (which loads `inspect`, `ast`, `dis` and `tokenize`), nor
`argparse` or `gettext` beyond what a bare interpreter holds; `compare`,
chain set-up, and `classify` and `measure` on a chain load no action layer;
an explicit chain loads no gallery; every command and the set-up build on an
action load no gallery, affine, tower or integer algebra, and on a gallery
chain no warp product; the plain classes that replace the
dataclasses keep their value semantics; and, read off the sources whatever
the host has installed, the package imports only the standard library and
itself, and the tests only those, pytest, hypothesis and their own modules.
Needs no test helpers."""

import ast
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest

from cantordyn.action import TreeMetric
from cantordyn.affine import AffineElement, IntegerLattice
from cantordyn.config import parse_config
from cantordyn.gallery import klein_type_group, small_fo_variant, vietoris
from cantordyn.warp import WarpMetric

REPO = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = json.loads((REPO / "perfbench/workloads.json").read_text(encoding="utf-8"))

STARTUP_SCRIPT = """
import contextlib, io, json, sys
from cantordyn.cli import main
from cantordyn.config import parse_config

def build(kind):  # the set-up probe's work on the configs of one kind
    for path in json.loads(sys.argv[2]):
        cfg = parse_config(open(path).read())
        if cfg.kind == kind:
            cfg.build_chain() if kind == "chain" else cfg.build_action()

commands = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in commands if argv[0] == "compare"]
    build("chain")
    action_loaded = "cantordyn.action" in sys.modules
    codes += [main(argv) for argv in commands if argv[0] != "compare"]
    build("action")
print(codes, action_loaded, [name for name in ("dataclasses", "inspect") if name in sys.modules])
print(*sorted(sys.modules))
"""
# modules that parse a command line the standard library's way
ARGV_MODULES = {"argparse", "gettext"}


def python(*args):
    """A fresh interpreter's stdout, run from the repository root on the
    package's sources."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_commands_and_setup_import_no_dataclasses_or_argparse_and_compare_no_action():
    commands = [argv for workload in WORKLOADS.values() for argv in workload["commands"]]
    configs = sorted({arg for argv in commands for arg in argv if arg.endswith(".cfg")})
    verdicts, loaded = python(
        "-c", STARTUP_SCRIPT, json.dumps(commands), json.dumps(configs)
    ).splitlines()
    assert verdicts == f"{[0] * len(commands)} False []"
    bare = python("-c", "import sys; print(*sorted(sys.modules))").split()
    assert ARGV_MODULES & (set(loaded.split()) - set(bare)) == set()


def run_loads(argv, module):
    """One CLI run in a fresh process: its exit code, and whether it imported
    `module`."""
    script = (
        "import contextlib, io, sys\n"
        "from cantordyn.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(code, {module!r} in sys.modules)\n"
    )
    return python("-c", script)


def test_explicit_chain_classify_loads_no_gallery():
    argv = ["classify", "perfbench/configs/klein_3_5_mid.cfg"]
    assert run_loads(argv, "cantordyn.gallery") == "0 False\n"


@pytest.mark.parametrize("command", ["classify", "measure"])
@pytest.mark.parametrize(
    "config",
    ["configs/vietoris5.cfg", "configs/fo_explicit.cfg", "perfbench/configs/klein_3_5_mid.cfg"],
)
def test_classify_and_measure_on_a_chain_load_no_action(command, config):
    # the measure, modulus table, distality and word ball are read off the
    # chain, through `ball`: no model, action or engine
    assert run_loads([command, config], "cantordyn.action") == "0 False\n"


# every command on one config, then the set-up probe's build of it, in one
# fresh process: the exit codes, and which of the given modules are loaded
COMMANDS_SCRIPT = """
import contextlib, io, json, sys
from cantordyn.cli import main
from cantordyn.config import parse_config

config, word, address = sys.argv[1:4]
commands = [[command, config] for command in ("classify", "code", "measure")]
commands += [["holonomy", config, "--word", word, "--at", address], ["compare", config, config]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in commands]
    cfg = parse_config(open(config).read())
    cfg.build_chain() if cfg.kind == "chain" else cfg.build_action()
print(codes, [name for name in json.loads(sys.argv[4]) if name in sys.modules])
"""
# each shipped action config, and its holonomy: a fiber generator fixes w0
ACTION_CONFIGS = {
    path: ("g1", "w0")
    for path in ("configs/warp.cfg", "configs/warp_fiber_only.cfg", "perfbench/configs/warp_d4.cfg")
}
# each shipped gallery chain config, and a word fixing an address of its boundary action
GALLERY_CHAIN_CONFIGS = {
    "configs/vietoris2.cfg": ("t*t^-1", "0.0.0.0"),
    "configs/vietoris3.cfg": ("t*t^-1", "0.0.0.0"),
    "configs/vietoris5.cfg": ("t*t^-1", "0.0.0.0"),
    "configs/triadic.cfg": ("t*t^-1", "0.0"),
    "configs/fo.cfg": ("t1*t1^-1", "0.0"),
    "configs/small_fo.cfg": ("t1*t1^-1", "0.0.0"),
    "configs/rt.cfg": ("t1", "0.0.0"),
}
CHAIN_LAYERS = ["cantordyn.gallery", "cantordyn.affine", "cantordyn.tower", "cantordyn._intmat"]


@pytest.mark.parametrize("config", ACTION_CONFIGS)
def test_commands_and_setup_on_an_action_load_no_chain_layer(config):
    # compare refuses an action before it builds anything
    out = python("-c", COMMANDS_SCRIPT, config, *ACTION_CONFIGS[config], json.dumps(CHAIN_LAYERS))
    assert out == "[0, 0, 0, 0, 2] []\n"


@pytest.mark.parametrize("config", GALLERY_CHAIN_CONFIGS)
def test_commands_and_setup_on_a_gallery_chain_load_no_warp(config):
    words = GALLERY_CHAIN_CONFIGS[config]
    out = python("-c", COMMANDS_SCRIPT, config, *words, json.dumps(["cantordyn.warp"]))
    assert out == "[0, 0, 0, 0, 0] []\n"


GLIDE = ((1, 0), (0, -1))
VIETORIS_CFG = "[chain]\ngallery = vietoris\np = 2\ndepth = 4\n"

# name -> (make, a different value, a field, the str() the dataclass gave)
VALUES = {
    "AffineElement": (
        lambda: AffineElement(GLIDE, (F(1, 2), 0), 2),
        AffineElement(GLIDE, (F(3, 2), 0), 2),
        "trans",
        "[1,0;0,-1]|(1/2,0)",
    ),
    "IntegerLattice": (
        lambda: IntegerLattice(((3, 0), (0, 5))),
        IntegerLattice(((3, 1), (0, 5))),
        "basis",
        "[3,0;0,5]",
    ),
    "FiniteIndexSubgroup": (
        lambda: small_fo_variant(1).levels[0],
        small_fo_variant(2).levels[1],
        "reps",
        "<lattice=[3,0;0,5] reps=[[1,0;0,1]|(0,0), [1,0;0,-1]|(3/2,0)]>",
    ),
    "AffineGroup": (
        klein_type_group,
        vietoris(2, 1).group,
        "denom",
        "AffineGroup(n=2, d=2, t1=[1,0;0,1]|(1,0), t2=[1,0;0,1]|(0,1), "
        "g=[1,0;0,-1]|(1/2,0))",
    ),
    "TreeMetric": (
        lambda: TreeMetric(F(1, 2)),
        TreeMetric(F(1, 3)),
        "lam",
        "TreeMetric(lam=Fraction(1, 2))",
    ),
    "WarpMetric": (
        lambda: WarpMetric(3, F(2, 3)),
        WarpMetric(3),
        "lam1",
        "WarpMetric(depth=3, lam1=Fraction(2, 3))",
    ),
    "Config": (
        lambda: parse_config(VIETORIS_CFG),
        parse_config(VIETORIS_CFG + "[params]\nseed = 1\n"),
        "seed",
        "Config(kind='chain', gallery='vietoris', gallery_params=(('p', '2'), "
        "('depth', '4')), group=None, levels=(), depth=None, words=8, "
        "lam=Fraction(1, 2), seed=0)",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_types_compare_and_hash_by_field_and_refuse_assignment(name):
    make, other, field, text = VALUES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and other != a
    assert len({a, b, other}) == 2
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    assert a == b
    assert str(a) == text


# ------------------------------------------------------------ import contract

def imported_roots(path):
    """The top-level names of the modules a source file imports anywhere in
    it, absolute imports only: a relative import stays in its package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def foreign_imports(directory, allowed):
    """{file: the names it imports outside `allowed`} over the directory's
    Python files, with the files that import nothing else left out."""
    found = {}
    for path in sorted(directory.rglob("*.py")):
        foreign = set(imported_roots(path)) - allowed
        if foreign:
            found[str(path.relative_to(REPO))] = sorted(foreign)
    return found


def test_the_package_imports_only_the_standard_library_and_itself():
    allowed = set(sys.stdlib_module_names) | {"cantordyn"}
    assert foreign_imports(REPO / "src" / "cantordyn", allowed) == {}


def test_the_tests_import_only_the_standard_library_pytest_hypothesis_and_cantordyn():
    tests = REPO / "tests"
    own = {path.stem for path in tests.rglob("*.py")}
    allowed = set(sys.stdlib_module_names) | {"pytest", "hypothesis", "cantordyn"} | own
    assert foreign_imports(tests, allowed) == {}
