"""`code` on a chain from its algebra, against `code_window` on the
boundary action's window.

On a chain `code` builds no tower: `coding.ChainWindow` enumerates G/H_K
once and codes the default window W = H_1/H_K under H_1, with return words
from a word ball on coset keys of core(H_K) and window images gathered
through the space's generator permutations.  Here that path must agree with
`code_window` on an `ActionWindow` of the oracle tower's boundary action
(`tower_oracle.build_tower(chain).boundary_action(lam)`), given the same
modulus table, each source giving its own minimality and orbit-graph
diameter: every field of every coding level, with window positions read back
as G/H_K indices; the final words, bound, effective bound, window and window
images; the window, its gap to the rest, the orbit graph, its walk and its
diameters; the number of return-word sets each path builds, and the one walk
each source makes; and the `core_oracle` lines of `cmd_code`, against
the oracle's `subgroup_cylinder` of each level's core.  The chains are the
gallery chains at their default depths, the two chains whose first level is
G, two depth-1 chains, the seeded random Klein-type chains of
tests/test_chain_sections.py, and three chains whose ball holds two landing
classes with one window image, at lam 1/2 and 2/3 and word bounds 0, 1, 3
and 8, and under ball budgets small enough to force escalation once the
shortest-word pass is cut.  Needs no test helpers.
"""

import functools
import pathlib
from types import SimpleNamespace

import pytest

from cantordyn import action as action_module
from cantordyn import coding
from cantordyn import tower as tower_module
from cantordyn.action import breadth_first
from cantordyn.affine import normal_core
from cantordyn.cli import _chain_modulus, cmd_code, main
from cantordyn.coding import (
    ActionWindow,
    ChainWindow,
    ClopenPartition,
    _eta_of_partition,
    code_window,
    default_window,
    schreier_diameter,
)
from cantordyn.errors import InvariantViolation
from cantordyn.gallery import build_chain
from cantordyn.report import Report
from test_chain_sections import CHAINS, LAMBDAS
from test_chain_sections import chain_of as section_chain_of
from tower_oracle import build_tower, subgroup_cylinder

REPO = pathlib.Path(__file__).resolve().parent.parent
WORD_BOUNDS = (0, 1, 3, 8)
DEPTH_ONE = {
    "small_fo_variant-1": ("small_fo_variant", 1),  # 15 cosets
    "fokkink_oversteegen-1": ("fokkink_oversteegen", 1),  # 105 cosets
}
# chains whose ball at bound 8 holds landing classes that share a window
# image: core_{H_1}(H_K) is larger than core(H_K) there
SHARED_IMAGES = {"rogers_tollefson-2": ("rogers_tollefson", 2)}
NAMES = CHAINS + list(DEPTH_ONE) + list(SHARED_IMAGES) + ["random-123", "random-156"]


def chain_of(name):
    if name in DEPTH_ONE or name in SHARED_IMAGES:
        gallery_name, depth = {**DEPTH_ONE, **SHARED_IMAGES}[name]
        return build_chain(gallery_name, {"depth": depth})
    return section_chain_of(name)


@functools.lru_cache(maxsize=None)
def tower_of(name):
    return build_tower(chain_of(name))


def test_the_depth_one_chains_have_one_level():
    assert [chain_of(name).indices() for name in DEPTH_ONE] == [[15], [105]]


def counted_words(monkeypatch, cls, name="words"):
    """Count the return-word sets a window source builds (or the calls of
    any attribute `name` of `cls`)."""
    calls = []
    words = getattr(cls, name)

    def wrapper(*args, **kwargs):
        calls.append(args[1:])
        return words(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


def both_paths(monkeypatch, name, lam, word_bound):
    """The chain path's source and CodingChain, the boundary action and the
    tower path's CodingChain, and the return-word sets each built."""
    chain = chain_of(name)
    table = _chain_modulus(chain, lam)
    action = tower_of(name).boundary_action(lam)
    chain_calls = counted_words(monkeypatch, ChainWindow)
    tower_calls = counted_words(monkeypatch, ActionWindow)
    source = ChainWindow(chain, lam)
    got = code_window(source, table, word_bound)
    want = code_window(ActionWindow(action), table, word_bound)
    return source, got, action, want, (len(chain_calls), len(tower_calls))


def assert_same_chain(source, got, want):
    """Field by field, window positions read back as G/H_K indices."""
    points = source.points

    def back(subset):
        return frozenset(map(points.__getitem__, subset))

    assert back(got.window) == want.window
    assert (got.word_bound_requested, got.schreier_diam, got.minimal) == (
        want.word_bound_requested, want.schreier_diam, want.minimal
    )
    words, expected = got.words, want.words
    assert (words.words, words.bound, words.effective_bound) == (
        expected.words, expected.bound, expected.effective_bound
    )
    assert tuple(map(points.__getitem__, words.window)) == expected.window
    assert [tuple(map(points.__getitem__, image)) for image in words.images] == [
        tuple(image[i] for i in expected.window) for image in expected.images
    ]
    assert len(got.levels) == len(want.levels)
    for lv, ref in zip(got.levels, want.levels):
        scalars = (
            "level eps eps_prime eps_prime_sub_resolution eta delta "
            "delta_sub_resolution cylinder_depth covers_window"
        ).split()
        assert [getattr(lv, f) for f in scalars] == [getattr(ref, f) for f in scalars]
        assert back(lv.partition.window) == ref.partition.window
        assert tuple(map(back, lv.partition.blocks)) == ref.partition.blocks
        assert back(lv.v) == ref.v
        assert [(w, back(s)) for w, s in lv.translate_family] == list(ref.translate_family)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_the_window_its_gap_and_the_orbit_graph_are_the_boundary_actions(name, lam):
    chain = chain_of(name)
    source = ChainWindow(chain, lam)
    action = tower_of(name).boundary_action(lam)
    window = default_window(action)
    assert source.points == tuple(sorted(window))
    assert source.size == len(action.model)
    whole = ClopenPartition(window, (window,))
    assert source.gap == _eta_of_partition(action.model, whole, include_complement=True)
    graph = action.graph
    assert source.graph == graph
    assert source._walk == breadth_first(graph)
    assert source.minimal is ActionWindow(action).minimal is True
    assert source.diameter() == schreier_diameter(graph)
    # the window's own model: the boundary action's cylinders, restricted
    model = source.action.model
    assert model.depth == action.model.depth == chain.depth
    for j in range(chain.depth + 1):
        got = cylinders(model.cylinder_labels(j), range(len(window)))
        assert {frozenset(map(source.points.__getitem__, c)) for c in got} == cylinders(
            action.model.cylinder_labels(j), window
        )


def cylinders(labels, indices):
    """The classes of `indices` under a label column."""
    classes = {}
    for i in indices:
        classes.setdefault(labels[i], set()).add(i)
    return {frozenset(c) for c in classes.values()}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
@pytest.mark.parametrize("word_bound", WORD_BOUNDS)
def test_chain_code_is_the_boundary_actions_coding_chain(monkeypatch, name, lam, word_bound):
    source, got, _, want, calls = both_paths(monkeypatch, name, lam, word_bound)
    assert_same_chain(source, got, want)
    assert calls[0] == calls[1]


def escalations(monkeypatch, name, budgets):
    """Both paths at bound 8 under (BALL_BUDGET, CODING_BUDGET), with the
    shortest-word pass cut to the empty word.  That pass alone codes every
    window here, so no budget escalates without the cut; with it a first
    ball of one permutation codes the window wrongly, and the loop raises
    its budget, then its bound.  Both paths must end alike, in the same
    chain or the same InvariantViolation, after as many return-word sets;
    each source must walk its orbit graph once, and the action path must
    check its window once and read the action's own orbit graph, however
    many sets they build.  Returns the number of escalations and the final words (None on
    a violation)."""
    monkeypatch.setattr(coding, "BALL_BUDGET", budgets[0])
    monkeypatch.setattr(coding, "CODING_BUDGET", budgets[1])
    monkeypatch.setattr(
        coding,
        "_shortest_words_into_window",
        lambda graph, layers, via, window: [((), tuple(window))],
    )
    chain = chain_of(name)
    table = _chain_modulus(chain, LAMBDAS[0])
    action = tower_of(name).boundary_action(LAMBDAS[0])
    checks = counted_words(monkeypatch, coding, "_check_clopen_window")
    outcomes, sources = [], []
    for cls, make in (
        (ChainWindow, lambda: ChainWindow(chain, LAMBDAS[0])),
        (ActionWindow, lambda: ActionWindow(action)),
    ):
        walks = counted_words(monkeypatch, coding, "breadth_first")
        calls = counted_words(monkeypatch, cls)
        sources.append(make())
        try:
            outcomes.append((code_window(sources[-1], table, 8), len(calls)))
        except InvariantViolation as exc:
            outcomes.append((str(exc), len(calls)))
        assert len(walks) == 1  # one walk per source, however many sets it builds
    source = sources[0]
    (got, got_calls), (want, want_calls) = outcomes
    assert got_calls == want_calls
    assert len(checks) == 1  # one ActionWindow, checked once
    assert sources[1].graph is action.graph
    if isinstance(want, str):
        assert got == want
        return got_calls - 1, None
    assert_same_chain(source, got, want)
    return got_calls - 1, got.words


@pytest.mark.parametrize(
    "name, budgets",
    [(name, (1, 60)) for name in NAMES]
    # the full clamp on every chain but fokkink_oversteegen at depth 2, whose
    # ceiling is its 11 025 cosets: there the tuple ball escalates for 30 s
    + [(name, (1, 200000)) for name in NAMES if name != "fokkink_oversteegen"],
    ids=str,
)
def test_chain_code_escalates_as_the_boundary_action_does(monkeypatch, name, budgets):
    escalations(monkeypatch, name, budgets)


def test_the_cut_pass_forces_escalation_and_the_clamp_binds(monkeypatch):
    raised, clamped, violations = 0, 0, 0
    for name in NAMES:
        count, words = escalations(monkeypatch, name, (1, 60))
        raised += count > 0
        violations += words is None
        clamped += words is not None and words.effective_bound < words.bound
    assert raised and clamped and violations


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_core_oracle_lines_compare_the_level_set_with_the_cores_cylinder(name, lam):
    """`cmd_code`'s core_oracle lines are those the tower's cylinder of each
    level's core gives against the tower path's level sets."""
    chain, action = chain_of(name), tower_of(name).boundary_action(lam)
    report = cmd_code(SimpleNamespace(lam=lam, words=8), chain, Report("test", "code"))
    keys = [key for _, key, _ in report.lines]
    oracle = [(key, value) for _, key, value in report.lines[keys.index("core_oracle") + 1:]]
    want = code_window(ActionWindow(action), _chain_modulus(chain, lam), 8)
    expected = []
    for lv in want.levels:
        core = normal_core(chain.group, chain.levels[lv.cylinder_depth - 1])
        cyl = subgroup_cylinder(tower_of(name), core)
        match = "true" if cyl == lv.v else "false"
        line = f"core_of_chain_level {lv.cylinder_depth} cylinder_size {len(cyl)} match {match}"
        expected.append((f"level {lv.level}", line))
    assert oracle == expected


CHAIN_CONFIGS = sorted(
    str(p.relative_to(REPO)) for p in (REPO / "configs").glob("*.cfg") if "warp" not in p.name
) + ["perfbench/configs/klein_3_5_mid.cfg"]


@pytest.mark.parametrize("config", CHAIN_CONFIGS)
def test_chain_code_builds_no_tower_and_no_address_ball(monkeypatch, capsys, config):
    def refuse(*args, **kwargs):
        raise AssertionError("a chain's code ran an address-level engine")

    monkeypatch.setattr(tower_module, "boundary_action", refuse)
    monkeypatch.setattr(action_module, "word_ball", refuse)  # an action's one ball
    monkeypatch.setattr(coding, "word_ball", refuse)
    assert main(["code", str(REPO / config)]) == 0
    assert "core_oracle:" in capsys.readouterr().out
