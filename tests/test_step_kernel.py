"""The coset step kernel against the breadth-first oracles.

`coset_space`, `CosetSpace.orbit` and `quotient_word_keys` step coset keys
through one table per (point class, element), built once from the
reduction data.  Here they must give the keys, generator tables, orbits and
word balls of the oracles that multiply an element and key the product
afresh: on every level of the gallery chains and of the random Klein-type
chains of tests/test_chain_sections.py, in dimension 3 on subgroups
D G D^-1 of the Hantzsche-Wendt group, whose four point classes no plane
chain reaches, and on seeded random lattice chains in Z^2 and Z^3, whose
Hermite forms have entries above the diagonal for the reduction to clear.
"""

import functools
import random
from fractions import Fraction as F

import pytest

from cantordyn import gallery
from cantordyn.affine import (
    AffineElement,
    AffineGroup,
    coset_space,
    hermite_normal_form,
    identity_element,
    normal_core,
    quotient_word_keys,
    subgroup_from_generators,
    subgroup_from_parts,
    subgroup_index_in,
    subgroup_intersect,
    translation,
)
from cantordyn.ball import _word_ball
from cantordyn.limits import BALL_BUDGET
from cantordyn.tower import SubgroupChain
from helpers import bfs_coset_space, bfs_orbit, reference_action_ball
from test_chain_sections import GALLERY_CHAINS, RANDOM_SEEDS, random_chain
from tower_oracle import build_tower

WORD_LENGTH = 4
LATTICE_SEEDS = range(6)


def hw_generators(q):
    """The Hantzsche-Wendt generators conjugated by D = diag(q): the
    translations of q Z^3, and a, b with their translations scaled by D
    (the point parts are diagonal, so D fixes them)."""
    q1, q2, q3 = q
    return [
        ("t1", translation((q1, 0, 0), 2)),
        ("t2", translation((0, q2, 0), 2)),
        ("t3", translation((0, 0, q3), 2)),
        ("a", AffineElement(((1, 0, 0), (0, -1, 0), (0, 0, -1)), (F(q1, 2), F(q2, 2), 0), 2)),
        ("b", AffineElement(((-1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, F(q2, 2), F(q3, 2)), 2)),
    ]


HW = AffineGroup.from_generators(hw_generators((1, 1, 1)))
HW_SUBGROUPS = {(3, 3, 3): 27, (3, 5, 7): 105}


@functools.lru_cache(maxsize=None)
def hw_chain(q):
    h = subgroup_from_generators(3, 2, [g for _, g in hw_generators(q)])
    return SubgroupChain(HW, [h], label=f"hw{q}")


def random_lattice_chain(seed, n):
    """Up to three levels of Z^n, each the last one met with a random lattice
    in Hermite form, keeping a level only when it is proper."""
    rng = random.Random(seed)
    group = AffineGroup.from_generators(
        [(f"t{i + 1}", translation(tuple(int(i == j) for j in range(n)), 1)) for i in range(n)]
    )
    levels = []
    for _ in range(3):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(1, 4 if n == 2 else 3)
            for j in range(i + 1, n):
                rows[i][j] = rng.randrange(rows[i][i])
        h = subgroup_from_parts(hermite_normal_form(rows), [identity_element(n, 1)])
        if levels:
            h = subgroup_intersect(levels[-1], h)
            if subgroup_index_in(h, levels[-1]) == 1:
                continue
        levels.append(h)
    return SubgroupChain(group, levels, label=f"lattice{n}({seed})")


@functools.lru_cache(maxsize=None)
def chain_of(name):
    if name in GALLERY_CHAINS:
        return gallery.build_chain(name, {})
    if name.startswith("hw"):
        return hw_chain(tuple(int(c) for c in name[2:]))
    kind, seed = name.split("-")
    if kind.startswith("z"):
        return random_lattice_chain(int(seed), int(kind[1:]))
    return random_chain(int(seed))


CHAINS = (
    list(GALLERY_CHAINS)
    + [f"random-{s}" for s in RANDOM_SEEDS]
    + ["hw" + "".join(map(str, q)) for q in HW_SUBGROUPS]
    + [f"z{n}-{s}" for n in (2, 3) for s in LATTICE_SEEDS]
)
LEVELS = [
    (name, l) for name in CHAINS for l in range(1, chain_of(name).depth + 1)
]


def level_ids(case):
    return f"{case[0]}-level{case[1]}"


def test_hantzsche_wendt_subgroups_have_the_stated_indices():
    assert HW.normal_form.num_classes() == 4
    for q, index in HW_SUBGROUPS.items():
        h = hw_chain(q).levels[0]
        assert h.num_classes() == 4
        assert HW.index_of(h) == index


@pytest.mark.parametrize("case", LEVELS, ids=level_ids)
def test_coset_space_and_orbits_match_the_breadth_first_oracles(case):
    name, l = case
    chain = chain_of(name)
    group, h = chain.group, chain.levels[l - 1]
    space = coset_space(group, h)
    assert (space.keys, space.gen_perms) == bfs_coset_space(group, h)
    for s in chain.levels[:l] + (normal_core(group, h), group.normal_form):
        elements = s.generator_elements()
        assert space.orbit(elements) == bfs_orbit(space, elements)


@pytest.mark.parametrize("case", LEVELS, ids=level_ids)
def test_word_ball_on_core_keys_matches_the_permutation_ball(case):
    name, l = case
    chain = chain_of(name)
    group = chain.group
    action = build_tower(SubgroupChain(group, chain.levels[:l])).boundary_action()
    ball, completed = reference_action_ball(action, WORD_LENGTH, BALL_BUDGET)
    tokens, identity, compose = quotient_word_keys(group, normal_core(group, chain.levels[l - 1]))
    keys_ball, keys_completed = _word_ball(tokens, identity, WORD_LENGTH, BALL_BUDGET, compose)
    assert [keys_ball.word(i) for i in range(len(keys_ball))] == [word for word, _ in ball]
    assert keys_completed == completed
