"""`tower.boundary_action`, the boundary action `holonomy` reads, against the
quotient tower oracle, `tower_oracle.build_tower(chain).boundary_action(lam)`.

Both must give the same addresses, the same generator permutations in the
same order, and the same basepoint, label and depth, on the gallery chains
at their default depths, the two chains whose first level is G, the depth-1
chains and the seeded random Klein-type chains of tests/cases.py, at
lam 1/2 and 2/3.  `germinal_holonomy` must
give the same verdict on both, witness included, for every word of length at
most 3 that stabilises the basepoint or a seeded point, and some of those
germs must be nontrivial.  Where a chain's coset space is broken, with one
generator's images of two cosets swapped across a level or with two cosets
of a coarser level merged, both must refuse with the same error.  Needs
no test helpers.
"""

import functools
import itertools
import random

import pytest

import cases
import tower_oracle
from cantordyn import affine, tower
from cantordyn.action import germinal_holonomy
from cantordyn.errors import CantordynError
from cases import LAMBDAS, SECTION_CHAINS as CHAINS
from test_chain_code import DEPTH_ONE

NAMES = CHAINS + list(DEPTH_ONE)
MAX_WORD = 3


@functools.cache
def both(name, lam):
    return tower.boundary_action(cases.chain(name), lam), cases.boundary(name, lam)


def stabilising_words(action, point):
    tokens = action.signed_tokens()
    for length in range(MAX_WORD + 1):
        for word in itertools.product(tokens, repeat=length):
            if action.act(word, point) == point:
                yield word


def germs(action, seed):
    """(point, word, verdict) for the basepoint and one seeded point."""
    points = {action.basepoint, random.Random(seed).randrange(len(action.model))}
    return [
        (point, word, germinal_holonomy(action, word, point))
        for point in sorted(points)
        for word in stabilising_words(action, point)
    ]


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
@pytest.mark.parametrize("name", NAMES)
def test_boundary_action_is_the_towers(name, lam):
    got, want = both(name, lam)
    assert got.model.addresses == want.model.addresses
    assert list(got.generators.items()) == list(want.generators.items())
    assert (got.basepoint, got.label, got.model.depth) == (
        want.basepoint, want.label, want.model.depth
    )
    assert got.model.metric == want.model.metric


@pytest.mark.parametrize("name", NAMES)
def test_germinal_holonomy_agrees_on_every_short_stabilising_word(name):
    got, want = both(name, LAMBDAS[0])
    seed = NAMES.index(name)
    got_germs, want_germs = germs(got, seed), germs(want, seed)
    assert got_germs == want_germs
    for _, _, verdict in got_germs:
        if not verdict.trivial:
            a, b = verdict.witness
            assert (got.model.addresses[a], got.model.addresses[b]) == (
                want.model.addresses[a], want.model.addresses[b]
            )


def test_some_short_stabilising_word_has_a_nontrivial_germ():
    nontrivial = [
        name
        for name in NAMES
        if any(not v.trivial for _, _, v in germs(both(name, LAMBDAS[0])[0], NAMES.index(name)))
    ]
    assert nontrivial


def refusals(chain):
    """The error type and text each path refuses the chain with."""
    out = []
    for build in (tower.boundary_action, lambda c: tower_oracle.build_tower(c).boundary_action()):
        with pytest.raises(CantordynError) as info:
            build(chain)
        out.append((type(info.value), str(info.value)))
    return out


BROKEN = [  # (chain, level l < K) with [H_l-1 : H_l] > 1, taking H_0 = G
    (name, l)
    for name in CHAINS
    for l, (a, b) in enumerate(itertools.pairwise([1] + cases.chain(name).indices()[:-1]), start=1)
    if b > a
]


@pytest.mark.parametrize("name, level", BROKEN)
def test_a_swap_across_a_level_is_refused_alike(monkeypatch, name, level):
    """The first generator's images of the identity coset and of a coset in
    the same level-(l-1) coset but another level-l coset, swapped."""
    chain = cases.chain(name)
    addresses = cases.tower(name).addresses
    k = next(
        k
        for k, a in enumerate(addresses)
        if a[: level - 1] == addresses[0][: level - 1] and a[level - 1] != addresses[0][level - 1]
    )
    coset_space = affine.coset_space

    def swapped(group, subgroup):
        space = coset_space(group, subgroup)
        gen = group.generators[0][0]
        perm = list(space.gen_perms[gen])
        perm[0], perm[k] = perm[k], perm[0]
        space.gen_perms = {**space.gen_perms, gen: tuple(perm)}
        return space

    for module in (tower, tower_oracle):
        monkeypatch.setattr(module, "coset_space", swapped)
    got, want = refusals(chain)
    assert got == want
    assert want[1].endswith(f"does not map level {level} cosets to cosets")


@pytest.mark.parametrize("name, level", BROKEN)
def test_a_merged_coarse_coset_is_refused_alike(monkeypatch, name, level):
    """Level l's last coarse coset merged into its first, so the level has
    one coset too few; the levels above it keep theirs, as each of their
    cosets splits."""
    chain = cases.chain(name)
    coarser_cosets = affine.coarser_cosets

    def merged(group, subgroup, keys):
        coarse, mapping = coarser_cosets(group, subgroup, keys)
        if subgroup is chain.levels[level - 1]:
            last = len(coarse) - 1
            coarse, mapping = coarse[:-1], tuple(0 if i == last else i for i in mapping)
        return coarse, mapping

    for module in (tower, tower_oracle):
        monkeypatch.setattr(module, "coarser_cosets", merged)
    got, want = refusals(chain)
    assert got == want
    assert want[1].startswith(f"level {level} has ")
