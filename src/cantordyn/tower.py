"""Descending subgroup chains, their finite quotient towers, and chain tests.

A chain H_1 >= H_2 >= ... of finite-index subgroups yields a tower of coset
spaces G/H_l with bonding surjections.  Only the deepest space G/H_K is
enumerated: every coarser coset is the image of deeper ones, so each coarser
level is read off the keys of the level below it, and the addresses (one
coset id per level for each deepest coset) are composed once per level.
The tower checks that each generator's permutation descends to every
coarser level, so its boundary action is a tree isometry, as the chain says.
The normal-core cofinality verdict and the interleaving test quantify over
the available depth only; every verdict records the depth it was computed at
and failure witnesses re-verify by independent membership calls.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .affine import (
    contains,
    coarser_cosets,
    coset_space,
    element_not_in,
    normal_core,
    subgroup_index_in,
    subgroup_le,
)
from .errors import InvariantViolation, StructureError
from .limits import check_index_cap


class SubgroupChain(namedtuple("SubgroupChain", "group levels label")):
    """A strictly descending chain of finite-index subgroups of one group."""

    __slots__ = ()

    def __new__(cls, group, levels, label="chain"):
        self = super().__new__(cls, group, tuple(levels), label)
        if not self.levels:
            raise StructureError("chain needs at least one level")
        for h in self.levels:
            if not self.group.contains_subgroup(h):
                raise StructureError("chain level is not a subgroup of the group")
            self.group.index_of(h)  # raises if not finite index
        for a, b in zip(self.levels, self.levels[1:]):
            if not subgroup_le(b, a):
                raise StructureError("chain is not descending")
            if subgroup_index_in(b, a) <= 1:
                raise StructureError(
                    "chain is not proper: consecutive levels have index ratio 1"
                )
        return self

    @property
    def depth(self):
        return len(self.levels)

    def indices(self):
        return [self.group.index_of(h) for h in self.levels]

    def truncate(self, depth):
        """The first `depth` levels: a prefix of a valid chain is valid."""
        if depth < 1 or depth > self.depth:
            raise StructureError(f"depth {depth} outside 1..{self.depth}")
        return self._replace(levels=self.levels[:depth])


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
        from .action import CantorAction, CantorModel, TreeMetric

        group = self.chain.group
        model = CantorModel(self.addresses, self.depth, TreeMetric(Fraction(lam)))
        generators = {name: self.space.gen_perms[name] for name, _ in group.generators}
        basepoint = self.space.index_of_element(group.identity())
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


# ------------------------------------------------------------------ McCord

class McCordLevel(
    namedtuple("McCordLevel", "level core cofinal_at witness", defaults=(None, None))
):
    """One level's normal core, and the least cofinal level or, when none, a
    witness: an AffineElement in H_deepest outside the core."""

    __slots__ = ()

    @property
    def cofinal(self):
        return self.cofinal_at is not None


class McCordVerdict(namedtuple("McCordVerdict", "chain records")):
    __slots__ = ()

    @property
    def compatible(self):
        return all(r.cofinal for r in self.records)

    @property
    def depth(self):
        return self.chain.depth


def mccord_verdict(chain):
    """Per level, the least l' with H_l' inside core(H_l), or a verified witness.

    Cores come from `normal_core`, which enumerates no cosets, so the verdict
    is not bounded by the coset index cap.
    """
    records = []
    for l, h in enumerate(chain.levels, start=1):
        core = normal_core(chain.group, h)
        cofinal_at = None
        for lp, hp in enumerate(chain.levels, start=1):
            if subgroup_le(hp, core):
                cofinal_at = lp
                break
        if cofinal_at is not None:
            records.append(McCordLevel(l, core, cofinal_at=cofinal_at))
            continue
        deepest = chain.levels[-1]
        witness = element_not_in(deepest, core)
        if witness is None:
            raise StructureError("containment test and witness search disagree")
        if not contains(deepest, witness) or contains(core, witness):
            raise StructureError("McCord witness failed re-verification")
        records.append(McCordLevel(l, core, witness=witness))
    return McCordVerdict(chain, tuple(records))


# -------------------------------------------------------------- interleave

# map_ab: for each level l of A, the least nu with B_nu <= A_l (map_ba the
# same from B); fail_side: "A" or "B", the chain whose fail_level lacked a partner
InterleaveVerdict = namedtuple(
    "InterleaveVerdict",
    "success map_ab map_ba fail_side fail_level witness",
    defaults=(None,) * 5,
)


def _least_contained_level(target, levels):
    for i, h in enumerate(levels, start=1):
        if subgroup_le(h, target):
            return i
    return None


def interleave(chain_a, chain_b):
    """Mutual cofinal containment of two chains within the available depth."""
    if (
        chain_a.group.dimension != chain_b.group.dimension
        or chain_a.group.denom != chain_b.group.denom
        or chain_a.group.normal_form != chain_b.group.normal_form
    ):
        raise StructureError("chains must live in the same ambient group")
    map_ab = []
    for l, h in enumerate(chain_a.levels, start=1):
        nu = _least_contained_level(h, chain_b.levels)
        if nu is None:
            witness = element_not_in(chain_b.levels[-1], h)
            return InterleaveVerdict(
                False, fail_side="A", fail_level=l, witness=witness
            )
        map_ab.append(nu)
    map_ba = []
    for nu, h in enumerate(chain_b.levels, start=1):
        l = _least_contained_level(h, chain_a.levels)
        if l is None:
            witness = element_not_in(chain_a.levels[-1], h)
            return InterleaveVerdict(
                False, fail_side="B", fail_level=nu, witness=witness
            )
        map_ba.append(l)
    return InterleaveVerdict(True, tuple(map_ab), tuple(map_ba))


def subgroup_cylinder(tower, subgroup):
    """Indices of the deepest-level cosets lying in the image of a subgroup.

    The cosets of H_K inside S * H_K form the orbit of the identity coset
    under left multiplication by S's generators; only the cosets the orbit
    reaches are multiplied.
    """
    return frozenset(tower.space.orbit(subgroup.generator_elements())[0])

