"""Cylinder engines of tree models against the rank-matrix oracle, the word
ball on tuples against the reference ball, and the invariant measure's
support check against the Fraction oracle."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cases
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
from cantordyn.errors import InvariantViolation
from helpers import (
    ball_pairs,
    brute_force_pushforward_invariant,
    engine_answers,
    probes,
    rank_oracle,
    reference_action_ball,
)

# test name -> registry name
TREE_ACTIONS = {
    **{
        name: name
        for name in ("vietoris_5_4", "rogers_tollefson_3", "fokkink_oversteegen_1")
        + tuple(f"random_tree_{seed}" for seed in range(12))
    },
    "small_fo_3": "small_fo_variant_3",
    "klein_3_5_mid": "perfbench/configs/klein_3_5_mid.cfg",
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
    assert_cylinders_match_rank_oracle(cases.action(TREE_ACTIONS[name]))


@pytest.mark.parametrize("name", TREE_ACTIONS)
def test_tuple_ball_is_the_reference_ball(name, monkeypatch):
    # the reference keys are bytes up to 256 addresses, tuples above
    action = cases.action(TREE_ACTIONS[name])
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


@pytest.mark.parametrize(
    "name",
    ["vietoris_2_3", "fokkink_oversteegen_1", "warp_fiber_only_3", "warp_2", "random_tree_3"],
    ids=["vietoris_2_3", "fokkink_oversteegen_1", "warp_fiber_only", "warp_2", "random_tree_3"],
)
def test_support_check_matches_the_fraction_oracle(name):
    # a uniform measure is invariant exactly when the generators keep its
    # support, which invariant_measure checks on the orbit a verdict names
    action = cases.action(name)
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
