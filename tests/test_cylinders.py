"""Cylinder engines of tree models against the rank-matrix oracle, the word
ball on tuples against the reference ball, and the invariant measure's
support check against the Fraction oracle."""

import itertools
import math
import pathlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantordyn import action as action_module
from cantordyn.action import (
    CantorAction,
    CantorModel,
    InvariantMeasure,
    MinimalityVerdict,
    TreeMetric,
    invariant_measure,
    is_distal,
    is_minimal,
    word_ball,
)
from cantordyn.config import parse_config
from cantordyn.errors import InvariantViolation
from cantordyn.gallery import (
    fokkink_oversteegen,
    rogers_tollefson,
    small_fo_variant,
    vietoris,
    warp_example,
)
from helpers import (
    ball_pairs,
    brute_force_pushforward_invariant,
    engine_answers,
    probes,
    random_tree_action,
    rank_oracle,
    reference_action_ball,
)
from tower_oracle import build_tower

REPO = pathlib.Path(__file__).resolve().parent.parent


def klein_3_5_mid():
    text = (REPO / "perfbench/configs/klein_3_5_mid.cfg").read_text()
    return build_tower(parse_config(text).build_chain()).boundary_action()


TREE_ACTIONS = {
    "vietoris_5_4": lambda: build_tower(vietoris(5, 4)).boundary_action(),
    "rogers_tollefson_3": lambda: build_tower(rogers_tollefson(3)).boundary_action(),
    "fokkink_oversteegen_1": lambda: build_tower(fokkink_oversteegen(1)).boundary_action(),
    "small_fo_3": lambda: build_tower(small_fo_variant(3)).boundary_action(),
    "klein_3_5_mid": klein_3_5_mid,
    **{f"random_tree_{seed}": (lambda seed=seed: random_tree_action(seed)) for seed in range(12)},
}


def refuse_pair_ranks(self):
    raise AssertionError("a tree model built its pair-rank matrix")


def assert_cylinders_match_rank_oracle(action, seed=0):
    subsets, partitions = probes(action, random.Random(seed))
    expected = engine_answers(rank_oracle(action), subsets, partitions)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CantorModel, "pair_ranks", refuse_pair_ranks)
        assert engine_answers(action, subsets, partitions) == expected


@pytest.mark.parametrize("name", TREE_ACTIONS)
def test_cylinder_engines_match_the_rank_oracle(name):
    assert_cylinders_match_rank_oracle(TREE_ACTIONS[name]())


@pytest.mark.parametrize("name", TREE_ACTIONS)
def test_tuple_ball_is_the_reference_ball(name, monkeypatch):
    # the reference keys are bytes up to 256 addresses, tuples above
    action = TREE_ACTIONS[name]()
    for perm_cap in (20000, 50):
        with monkeypatch.context() as patch:
            patch.setattr(action_module, "BYTE_ALPHABET", 0)  # the tuple route
            tuples, completed, _ = word_ball(action, 8, perm_cap=perm_cap)
        pairs, reference_completed = reference_action_ball(action, 8, perm_cap)
        assert completed == reference_completed
        assert [(w, list(p)) for w, p in ball_pairs(tuples)] == [(w, list(p)) for w, p in pairs]
        verdict = is_distal(action, 8, perm_cap=perm_cap)
        assert (verdict.word_count, verdict.word_length) == (len(pairs), completed)


@st.composite
def tree_actions(draw):
    """Tree models on a random subset of a product tree, in a random address
    order, under random bijections: isometries only by chance."""
    branch = draw(
        st.lists(st.integers(2, 4), min_size=1, max_size=4).filter(lambda b: math.prod(b) <= 64)
    )
    full = list(itertools.product(*map(range, branch)))
    addrs = draw(st.lists(st.sampled_from(full), min_size=1, max_size=len(full), unique=True))
    lam = draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 3)]))
    model = CantorModel(addrs, len(branch), TreeMetric(lam))
    perms = draw(st.lists(st.permutations(range(len(addrs))), min_size=1, max_size=3))
    gens = {f"a{i}": tuple(p) for i, p in enumerate(perms)}
    return CantorAction(model, gens, 0)


@given(tree_actions(), st.integers(0, 2 ** 16))
def test_cylinder_engines_match_the_rank_oracle_on_random_bijections(action, seed):
    assert_cylinders_match_rank_oracle(action, seed)


# ------------------------------------------------------------- pushforward

def supports(action):
    """The basepoint's orbit, its depth-1 cylinder, the basepoint alone and
    the last address alone: the uniform measure on each is invariant or fails
    under some token."""
    n = len(action.model)
    verdict = is_minimal(action)
    orbit = range(n) if verdict.minimal else verdict.witness_orbit
    cylinder = action.model.cylinder_members(action.basepoint, 1)
    return [frozenset(s) for s in (orbit, cylinder, [action.basepoint], [n - 1])]


MEASURE_ACTIONS = pytest.mark.parametrize(
    "build",
    [
        lambda: build_tower(vietoris(2, 3)).boundary_action(),
        lambda: build_tower(fokkink_oversteegen(1)).boundary_action(),
        lambda: warp_example(3, 2, include_free_factor=False),
        lambda: warp_example(2, 2),
        lambda: random_tree_action(3),
    ],
    ids=["vietoris_2_3", "fokkink_oversteegen_1", "warp_fiber_only", "warp_2", "random_tree_3"],
)


@MEASURE_ACTIONS
def test_support_check_matches_the_fraction_oracle(build):
    # a uniform measure is invariant exactly when the generators keep its
    # support, which invariant_measure checks on the orbit a verdict names
    action = build()
    verdicts = []
    for support in supports(action):
        mu = InvariantMeasure("label", support, F(1, len(support)))
        expected = brute_force_pushforward_invariant(action, mu)
        try:
            invariant_measure(action, MinimalityVerdict(False, support))
        except InvariantViolation:
            assert not expected
        else:
            assert expected
        verdicts.append(expected)
    assert True in verdicts and False in verdicts
    mu = invariant_measure(action)
    assert (mu.support, mu.weight) == (supports(action)[0], F(1, len(mu.support)))
