"""The orbit-graph diameter `code` reports, by one breadth-first search on
normal chains.

When H_K is normal in G, the boundary action is the regular action of
G/H_K, so its orbit graph is a Cayley graph: vertex-transitive, with the
basepoint's eccentricity for its diameter.  On normal shipped chains and on
seeded random lattice chains in Z^2 (every subgroup of an abelian group is
normal) that eccentricity must equal both the bitset diameter and the
per-source breadth-first oracle.  `code` keeps `schreier_diameter` for
non-normal chains and for action configs, and above SCHREIER_SIZE_CAP it
reports no diameter at all.  Needs no numpy.
"""

import pathlib

import pytest

from cantordyn.affine import is_normal
from cantordyn.cli import main
from cantordyn.config import parse_config
from cantordyn.coding import basepoint_eccentricity, orbit_graph, schreier_diameter
from cantordyn.limits import SCHREIER_SIZE_CAP
from cantordyn.tower import SubgroupChain
from helpers import bfs_schreier_diameter
from test_step_kernel import random_lattice_chain
from tower_oracle import build_tower

REPO = pathlib.Path(__file__).resolve().parent.parent
NORMAL_CONFIGS = ("vietoris2", "vietoris3", "vietoris5", "quads", "triadic")
RANDOM_SEEDS = range(10)


def chain_of(name):
    if name in NORMAL_CONFIGS:
        text = (REPO / "configs" / f"{name}.cfg").read_text()
        return parse_config(text).build_chain()
    return random_lattice_chain(int(name.split("-")[1]), 2)


@pytest.mark.parametrize(
    "name", list(NORMAL_CONFIGS) + [f"lattice-{s}" for s in RANDOM_SEEDS]
)
def test_basepoint_eccentricity_is_the_diameter_on_normal_chains(name):
    chain = chain_of(name)
    assert is_normal(chain.group, chain.levels[-1]).normal
    action = build_tower(chain).boundary_action()
    assert len(action.model) <= SCHREIER_SIZE_CAP
    graph = orbit_graph(action)
    diameter = basepoint_eccentricity(graph)
    assert diameter == schreier_diameter(graph) == bfs_schreier_diameter(action)


def test_code_reports_no_diameter_above_the_size_cap(tmp_path, capsys):
    cfg = tmp_path / "vietoris2_11.cfg"
    cfg.write_text("[chain]\ngallery = vietoris\np = 2\ndepth = 11\n")
    assert main(["code", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "  size: 1024\n" in out  # the window: one of two level-1 fibres
    assert "  schreier_diameter: none\n" in out
    action = build_tower(parse_config(cfg.read_text()).build_chain()).boundary_action()
    assert len(action.model) == 2048
    assert basepoint_eccentricity(orbit_graph(action)) is None


@pytest.mark.parametrize(
    "config, calls",
    [
        ("configs/rt.cfg", 1),  # rogers_tollefson: its deepest level is not normal
        ("perfbench/configs/klein_3_5_mid.cfg", 1),
        ("configs/warp_fiber_only.cfg", 1),  # an action config
        ("configs/vietoris5.cfg", 0),  # normal: one breadth-first search
    ],
)
def test_code_runs_the_bitset_diameter_off_normal_chains(capsys, monkeypatch, config, calls):
    from cantordyn import coding

    counted = {"schreier_diameter": 0, "basepoint_eccentricity": 0}

    def wrap(name):
        fn = getattr(coding, name)

        def wrapper(*a, **kw):
            counted[name] += 1
            return fn(*a, **kw)

        return wrapper

    for name in counted:  # the CLI imports them from the coding module when it runs
        monkeypatch.setattr(coding, name, wrap(name))
    assert main(["code", str(REPO / config)]) == 0
    capsys.readouterr()
    assert counted == {"schreier_diameter": calls, "basepoint_eccentricity": 1 - calls}
