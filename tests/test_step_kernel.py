"""The coset step kernel against the breadth-first oracles.

`coset_space`, `CosetSpace.orbit` and `quotient_word_keys` step coset keys
through one table per (point class, element), built once from the
reduction data.  Here they must give the keys, generator tables, orbits and
word balls of the oracles that multiply an element and key the product
afresh: on every level of the gallery chains and of the random Klein-type
chains of tests/cases.py, in dimension 3 on subgroups
D G D^-1 of the Hantzsche-Wendt group, whose four point classes no plane
chain reaches, and on seeded random lattice chains in Z^2 and Z^3, whose
Hermite forms have entries above the diagonal for the reduction to clear.
"""

import pytest

import cases
from cantordyn.affine import coset_space, normal_core, quotient_word_keys
from cantordyn.ball import _word_ball
from cantordyn.limits import BALL_BUDGET
from cases import GALLERY_CHAINS, HW, RANDOM_SEEDS
from helpers import bfs_coset_space, bfs_orbit, reference_action_ball

WORD_LENGTH = 4
LATTICE_SEEDS = range(6)
HW_SUBGROUPS = {"hw333": 27, "hw357": 105}
CHAINS = (
    list(GALLERY_CHAINS)
    + [f"random-{s}" for s in RANDOM_SEEDS]
    + list(HW_SUBGROUPS)
    + [f"z{n}-{s}" for n in (2, 3) for s in LATTICE_SEEDS]
)
LEVELS = [
    (name, l) for name in CHAINS for l in range(1, cases.chain(name).depth + 1)
]


def level_ids(case):
    return f"{case[0]}-level{case[1]}"


def test_hantzsche_wendt_subgroups_have_the_stated_indices():
    assert HW.normal_form.num_classes() == 4
    for name, index in HW_SUBGROUPS.items():
        h = cases.chain(name).levels[0]
        assert h.num_classes() == 4
        assert HW.index_of(h) == index


@pytest.mark.parametrize("case", LEVELS, ids=level_ids)
def test_coset_space_and_orbits_match_the_breadth_first_oracles(case):
    name, l = case
    chain = cases.chain(name)
    group, h = chain.group, chain.levels[l - 1]
    space = coset_space(group, h)
    assert (space.keys, space.gen_perms) == bfs_coset_space(group, h)
    for s in chain.levels[:l] + (normal_core(group, h), group.normal_form):
        elements = s.generator_elements()
        assert space.orbit(elements) == bfs_orbit(space, elements)


@pytest.mark.parametrize("case", LEVELS, ids=level_ids)
def test_word_ball_on_core_keys_matches_the_permutation_ball(case):
    name, l = case
    chain = cases.chain(name)
    group = chain.group
    action = cases.boundary(name, depth=l)
    ball, completed = reference_action_ball(action, WORD_LENGTH, BALL_BUDGET)
    tokens, identity, compose = quotient_word_keys(group, normal_core(group, chain.levels[l - 1]))
    keys_ball, keys_completed = _word_ball(tokens, identity, WORD_LENGTH, BALL_BUDGET, compose)
    assert [keys_ball.word(i) for i in range(len(keys_ball))] == [word for word, _ in ball]
    assert keys_completed == completed
