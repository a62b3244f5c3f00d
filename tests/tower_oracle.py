"""The quotient tower of a subgroup chain, kept as a test oracle.

The package reads a chain's boundary action off one shared tree model
(`tower.chain_model`, through `tower.boundary_action` and
`coding.ChainWindow`).  The tower here builds it the long way: the bonding
map of every level, each deepest coset's address tuple composed through
them, a count check and a constant-fibre check per level, and the descent
gate on each level's coset-id column.  `subgroup_cylinder` is the cosets of
H_K that a subgroup's image covers, the orbit of the identity coset.
Needs no test helpers.
"""

from collections import namedtuple
from fractions import Fraction

from cantordyn.affine import coarser_cosets, coset_space, identity_element, subgroup_index_in
from cantordyn.errors import InvariantViolation, StructureError
from cantordyn.limits import check_index_cap


class QuotientTower(namedtuple("QuotientTower", "chain space bonding addresses")):
    """The deepest coset space G/H_K, the bonding maps, and the addresses:
    `bonding[l]` maps the level l+2 indices to the level l+1 indices, and
    `addresses[i]` lists the coset ids, level 1 through K, of the cosets
    that the deepest coset i lies in."""

    __slots__ = ()

    @property
    def depth(self):
        return self.chain.depth

    def boundary_action(self, lam=Fraction(1, 2)):
        """Left translation on the deepest coset space as a finite Cantor model.

        Addresses are the compatible coset-id sequences of the tower;
        generators act by the deepest level's permutations; the metric is the
        tree metric with base lam; the basepoint is the identity coset.
        Address i is coset i of the deepest space.
        """
        from cantordyn.action import CantorAction, CantorModel, TreeMetric

        group = self.chain.group
        model = CantorModel(self.addresses, self.depth, TreeMetric(Fraction(lam)))
        generators = {name: self.space.gen_perms[name] for name, _ in group.generators}
        ident = identity_element(group.dimension, group.denom)
        basepoint = self.space.index_of_scaled(ident.point, ident.scaled)
        return CantorAction(model, generators, basepoint, label=self.chain.label)


def build_tower(chain):
    """The deepest coset space, and each coarser level read off it: level l
    is the set of H_l-cosets that level l+1's cosets lie in, and the
    bonding map sends each fine coset to its coarse one."""
    indices = chain.indices()
    check_index_cap(indices[-1])  # refuse before any coset
    group, levels = chain.group, chain.levels
    space = coset_space(group, levels[-1])
    keys, bonding = space.keys, []
    for l in range(len(levels) - 2, -1, -1):
        keys, mapping = coarser_cosets(group, levels[l], keys)
        if len(keys) != indices[l]:
            raise StructureError(
                f"level {l + 1} has {len(keys)} cosets, expected {indices[l]}"
            )
        ratio = subgroup_index_in(levels[l + 1], levels[l])
        fibers = [0] * len(keys)
        for i in mapping:
            fibers[i] += 1
        if any(c != ratio for c in fibers):
            raise StructureError("bonding map fibers are not of constant size")
        bonding.append(mapping)
    bonding.reverse()
    addresses = [(i,) for i in range(len(keys))]
    for mapping in bonding:
        addresses = [addresses[j] + (i,) for i, j in enumerate(mapping)]
    for l in range(len(levels) - 1):
        # the descent gate: each generator maps a level-(l+1) coset into one
        column = [a[l] for a in addresses]
        for name, perm in space.gen_perms.items():
            if len(set(zip(column, map(column.__getitem__, perm)))) != indices[l]:
                raise InvariantViolation(
                    f"generator {name} does not map level {l + 1} cosets to cosets"
                )
    return QuotientTower(chain, space, tuple(bonding), tuple(addresses))


def subgroup_cylinder(tower, subgroup):
    """Indices of the deepest-level cosets lying in the image of a subgroup.

    The cosets of H_K inside S * H_K form the orbit of the identity coset
    under left multiplication by S's generators; only the cosets the orbit
    reaches are multiplied.
    """
    return frozenset(tower.space.orbit(subgroup.generator_elements())[0])

