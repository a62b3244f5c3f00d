"""The tower's coarser levels, read off the deepest coset keys, against one
coset space enumerated per level.

The oracle tower (`tower_oracle.build_tower`), like `tower.chain_model`,
enumerates only G/H_K; each coarser level is the set of H_l-cosets the level
below lies in.  On every gallery chain at its default
depth, the coarse keys must be the keys `coset_space` enumerates for H_l,
each bonding map must send a fine coset's rep to the coarse coset that
contains it, and each address must be its deepest coset id composed back
through the bonding maps.  Needs no test helpers.
"""

import pytest

from cantordyn import gallery
from cantordyn.affine import coarser_cosets, coset_space
from tower_oracle import build_tower

GALLERY_CHAINS = ("vietoris", "fokkink_oversteegen", "rogers_tollefson", "small_fo_variant")


@pytest.mark.parametrize("name", GALLERY_CHAINS)
def test_coarser_levels_are_the_per_level_coset_spaces(name):
    chain = gallery.build_chain(name, {})
    group = chain.group
    tower = build_tower(chain)
    spaces = [coset_space(group, h) for h in chain.levels]
    assert tower.space.keys == spaces[-1].keys
    assert len(tower.bonding) == chain.depth - 1
    for l, mapping in enumerate(tower.bonding):
        fine, coarse = spaces[l + 1], spaces[l]
        keys, image = coarser_cosets(group, chain.levels[l], fine.keys)
        assert tuple(keys) == coarse.keys
        fine_in_coarse = tuple(coarse.index_of_scaled(point, red) for _, red, point in fine.keys)
        assert image == mapping == fine_in_coarse


@pytest.mark.parametrize("name", GALLERY_CHAINS)
def test_addresses_compose_the_bonding_maps(name):
    tower = build_tower(gallery.build_chain(name, {}))
    assert len(tower.addresses) == tower.space.index
    for i, address in enumerate(tower.addresses):
        ids = [i]
        for mapping in reversed(tower.bonding):
            ids.append(mapping[ids[-1]])
        assert address == tuple(reversed(ids))
