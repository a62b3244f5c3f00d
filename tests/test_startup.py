"""What a command pays at start: no benchmark command or set-up build imports
`dataclasses` (which loads `inspect`, `ast`, `dis` and `tokenize`); `compare`,
chain set-up and `measure` on a chain load no action layer; an explicit chain
loads no gallery; and the plain classes that replace the dataclasses keep
their value semantics.  Needs neither numpy nor the test helpers, so it runs
on the declared minimum Python without numpy."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest

from cantordyn.action import TreeMetric, WarpMetric
from cantordyn.affine import AffineElement, IntegerLattice
from cantordyn.config import parse_config
from cantordyn.gallery import klein_type_group, small_fo_variant, vietoris

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
"""


def test_commands_and_setup_import_no_dataclasses_and_compare_no_action():
    commands = [argv for workload in WORKLOADS.values() for argv in workload["commands"]]
    configs = sorted({arg for argv in commands for arg in argv if arg.endswith(".cfg")})
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, json.dumps(commands), json.dumps(configs)],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[0] * len(commands)} False []\n"


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
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_explicit_chain_classify_loads_no_gallery():
    argv = ["classify", "perfbench/configs/klein_3_5_mid.cfg"]
    assert run_loads(argv, "cantordyn.gallery") == "0 False\n"


@pytest.mark.parametrize(
    "config",
    ["configs/vietoris5.cfg", "configs/fo_explicit.cfg", "perfbench/configs/klein_3_5_mid.cfg"],
)
def test_measure_on_a_chain_loads_no_action(config):
    # the uniform weight 1/[G:H_K] is read off the chain: no modulus table
    assert run_loads(["measure", config], "cantordyn.action") == "0 False\n"


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
