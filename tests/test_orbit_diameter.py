"""The one breadth-first walk of an orbit graph, and the orbit-graph diameter
`code` reports.

`action.breadth_first` walks an OrbitGraph from its basepoint, tokens in
order, and every reader of the graph reads that walk: minimality, the
shortest words into the window and, on normal chains, the diameter.  Here
it must match an independent queue BFS, address by address: the distance,
and the parent and token of the first discovery.  The actions are gallery
actions, seeded random tree actions, the fiber-only warp action (not
minimal, so the walk stops short) and the boundary actions of the chains of
tests/test_chain_sections.py, all read from tests/cases.py.

When H_K is normal in G, the boundary action is the regular action of
G/H_K, so its orbit graph is a Cayley graph: vertex-transitive, with the
basepoint's eccentricity, the walk's depth, for its diameter.
`ChainWindow.diameter()` reads it there, on normal shipped chains and on
seeded random lattice chains in Z^2 (every subgroup of an abelian group is
normal); it must equal both the bitset diameter and the per-source
breadth-first oracle, as it must on chains whose H_K is not normal, where it
runs `schreier_diameter`.  Above SCHREIER_SIZE_CAP no diameter is reported at
all.

`action.orbit_graph` is the one builder of an orbit graph: it runs once per
CantorAction and once more per ChainWindow, for G on G/H_K, and never in
`word_ball`, `is_minimal`, `ActionWindow` or a coding chain that escalates.
"""

from collections import deque
from fractions import Fraction as F

import pytest

import cases
from cantordyn.action import breadth_first, is_minimal, word_ball
from cantordyn.affine import is_normal
from cantordyn.cli import _chain_modulus, main
from cantordyn.coding import ActionWindow, ChainWindow, schreier_diameter
from cantordyn.config import parse_config
from cantordyn.errors import InvariantViolation
from cantordyn.limits import SCHREIER_SIZE_CAP
from cases import REPO, SECTION_CHAINS as CHAINS
from helpers import bfs_schreier_diameter, count_calls

NORMAL_CONFIGS = ("vietoris2", "vietoris3", "vietoris5", "quads", "triadic")
OTHER_CONFIGS = {  # H_K is not normal
    "rt": "configs/rt.cfg",
    "klein_3_5_mid": "perfbench/configs/klein_3_5_mid.cfg",
}
RANDOM_SEEDS = range(10)
LAM = F(1, 2)
# test name -> registry name
WALK_ACTIONS = {
    **{
        name: name
        for name in ["vietoris_2_3", "small_fo_variant_2", "fokkink_oversteegen_1"]
        + ["warp_3_2", "warp_fiber_only_3_2"]
        + [f"random_tree_{seed}" for seed in range(6)]
    },
    **{f"chain_{name}": name for name in CHAINS},
}
# test name -> the registry name of the chain
DIAMETER_CHAINS = {
    **{name: f"configs/{name}.cfg" for name in NORMAL_CONFIGS},
    **OTHER_CONFIGS,
    **{f"lattice-{seed}": f"z2-{seed}" for seed in RANDOM_SEEDS},
}


def queue_walk(action):
    """Distance, first-discovery parent and token index of each address the
    basepoint reaches, in discovery order, by a FIFO queue over the signed
    tokens in order."""
    perms = [action.token_perm(*token) for token in action.signed_tokens()]
    w0 = action.basepoint
    found = {w0: (0, w0, None)}
    queue = deque([w0])
    while queue:
        i = queue.popleft()
        for k, p in enumerate(perms):
            if p[i] not in found:
                found[p[i]] = (found[i][0] + 1, i, k)
                queue.append(p[i])
    return found


@pytest.mark.parametrize("name", list(WALK_ACTIONS))
def test_breadth_first_is_the_queue_walk(name):
    action = cases.action(WALK_ACTIONS[name])
    layers, via = breadth_first(action.graph)
    found = queue_walk(action)
    assert [j for layer in layers for j in layer] == list(found)  # discovery order
    assert all(layers)
    for d, layer in enumerate(layers):
        assert {found[j][0] for j in layer} == {d}
    assert via == [found[j][1:] if j in found else None for j in range(len(action.model))]
    assert is_minimal(action).minimal == (len(found) == len(action.model))


def window_of(chain):
    return ChainWindow(chain, LAM)


@pytest.mark.parametrize("name", DIAMETER_CHAINS)
def test_the_chain_windows_diameter_is_the_orbit_graphs(name):
    chain = cases.chain(DIAMETER_CHAINS[name])
    assert is_normal(chain.group, chain.levels[-1]).normal == (name not in OTHER_CONFIGS)
    action = cases.boundary(DIAMETER_CHAINS[name])
    assert len(action.model) <= SCHREIER_SIZE_CAP
    source = window_of(chain)
    assert source.minimal is True
    diameter = source.diameter()
    assert diameter == schreier_diameter(action.graph) == bfs_schreier_diameter(action)
    if name not in OTHER_CONFIGS:  # the walk's depth: the basepoint's eccentricity
        assert diameter == len(breadth_first(source.graph)[0]) - 1


@pytest.mark.parametrize("name", CHAINS)
def test_the_chain_windows_diameter_on_the_section_chains(name):
    want = schreier_diameter(cases.boundary(name, LAM).graph)  # None above the cap
    assert window_of(cases.chain(name)).diameter() == want


def test_code_reports_no_diameter_above_the_size_cap(tmp_path, capsys):
    cfg = tmp_path / "vietoris2_11.cfg"
    cfg.write_text("[chain]\ngallery = vietoris\np = 2\ndepth = 11\n")
    assert main(["code", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "  size: 1024\n" in out  # the window: one of two level-1 fibres
    assert "  schreier_diameter: none\n" in out
    source = window_of(parse_config(cfg.read_text()).build_chain())
    assert source.size == 2048
    assert source.diameter() is None


@pytest.mark.parametrize(
    "config, calls",
    [
        ("configs/rt.cfg", 1),  # rogers_tollefson: its deepest level is not normal
        ("perfbench/configs/klein_3_5_mid.cfg", 1),
        ("configs/warp_fiber_only.cfg", 1),  # an action config
        ("configs/vietoris5.cfg", 0),  # normal: the walk's depth
    ],
)
def test_code_runs_the_bitset_diameter_off_normal_chains(capsys, monkeypatch, config, calls):
    from cantordyn import coding

    # the window sources read them from the coding module
    counted = [
        count_calls(monkeypatch, coding, name) for name in ("schreier_diameter", "breadth_first")
    ]
    assert main(["code", str(REPO / config)]) == 0
    capsys.readouterr()
    assert list(map(len, counted)) == [calls, 1]


# ------------------------------------------------------ one orbit-graph builder

ESCALATING_CHAINS = ("vietoris", "rogers_tollefson", "small_fo_variant", "G-15", "random-0")


def counted_graphs(monkeypatch):
    """The size of each orbit graph built, through `action.orbit_graph`, the
    one builder, wherever it is read: the action module's CantorAction, and
    coding's ChainWindow for G's graph on G/H_K."""
    from cantordyn import action as action_module
    from cantordyn import coding

    sizes, build = [], action_module.orbit_graph

    def counted(size, basepoint, generators):
        sizes.append(size)
        return build(size, basepoint, generators)

    for module in (action_module, coding):
        monkeypatch.setattr(module, "orbit_graph", counted)
    return sizes


def escalating_code(monkeypatch, source, table):
    """`code_window` on the source with a first ball of one permutation and
    the shortest-word pass cut to the empty word, so that it escalates; the
    number of return-word sets it built."""
    from cantordyn import coding

    monkeypatch.setattr(coding, "BALL_BUDGET", 1)
    monkeypatch.setattr(coding, "CODING_BUDGET", 60)
    monkeypatch.setattr(
        coding, "_shortest_words_into_window", lambda graph, layers, via, w: [((), tuple(w))]
    )
    calls = count_calls(monkeypatch, type(source), "words")
    try:
        coding.code_window(source, table, 8)
    except InvariantViolation:
        pass
    return len(calls)


@pytest.mark.parametrize(
    "name", ["warp_3_2", "warp_fiber_only_3_2", "random_tree_0", "random_tree_3"]
)
def test_an_action_builds_its_orbit_graph_once_and_its_readers_none(monkeypatch, name):
    sizes = counted_graphs(monkeypatch)
    action = cases.make_action(WALK_ACTIONS[name])  # a fresh action builds its graph
    assert sizes == [len(action.model)]
    assert action.graph.size == len(action.model)
    word_ball(action, 8, perm_cap=500)
    word_ball(action, 3, perm_cap=50)
    is_minimal(action)
    source = ActionWindow(action)
    assert source.graph is action.graph
    source.words(4, 100)
    assert sizes == [len(action.model)]


@pytest.mark.parametrize("name", ESCALATING_CHAINS)
def test_one_orbit_graph_per_action_or_chain_window_however_code_escalates(monkeypatch, name):
    chain = cases.chain(name)
    table = _chain_modulus(chain, LAM)
    sizes = counted_graphs(monkeypatch)
    action = cases.tower(name).boundary_action(LAM)  # one fresh CantorAction
    assert sizes == [len(action.model)]
    assert escalating_code(monkeypatch, ActionWindow(action), table) > 1
    assert sizes == [len(action.model)]
    del sizes[:]
    source = ChainWindow(chain, LAM)  # its H_1 action on W, and G on G/H_K
    assert sizes == [len(source.action.model), source.size]
    assert escalating_code(monkeypatch, source, table) > 1
    assert sizes == [len(source.action.model), source.size]
