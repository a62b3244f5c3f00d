"""Descending subgroup chains, their finite quotient towers, and chain tests.

A chain H_1 >= H_2 >= ... of finite-index subgroups yields a tower of coset
spaces G/H_l with bonding surjections.  The normal-core cofinality verdict
and the interleaving test quantify over the available depth only; every
verdict records the depth it was computed at and failure witnesses re-verify
by independent membership calls.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .affine import (
    contains,
    coset_space,
    element_not_in,
    normal_core,
    subgroup_index_in,
    subgroup_le,
)
from .errors import StructureError
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


class QuotientTower(namedtuple("QuotientTower", "chain levels bonding")):
    """Coset spaces G/H_l with bonding maps from each level to the previous:
    `levels` holds a CosetSpace per level, and `bonding[l]` maps the level
    l+1 indices to the level l indices."""

    __slots__ = ()

    @property
    def depth(self):
        return len(self.levels)

    def project(self, deep_level, coset_index, shallow_level):
        """Image of a level `deep_level` coset at `shallow_level` (1-based)."""
        if not 1 <= shallow_level <= deep_level <= self.depth:
            raise StructureError("levels out of range for projection")
        i = coset_index
        for l in range(deep_level - 1, shallow_level - 1, -1):
            i = self.bonding[l - 1][i]
        return i

    def coordinates(self, coset_index):
        """Compatible coset ids at every level for a deepest-level coset."""
        k = self.depth
        return tuple(self.project(k, coset_index, l) for l in range(1, k + 1))

    def boundary_action(self, lam=Fraction(1, 2)):
        """Left translation on the deepest coset space as a finite Cantor model.

        Addresses are the compatible coset-id sequences of the tower;
        generators act by the deepest level's permutations; the metric is the
        tree metric with base lam; the basepoint is the identity coset.
        """
        from .action import CantorAction, CantorModel, TreeMetric

        group = self.chain.group
        deepest = self.levels[-1]
        addresses = tuple(self.coordinates(i) for i in range(deepest.index))
        model = CantorModel(addresses, self.depth, TreeMetric(Fraction(lam)))
        generators = {name: deepest.gen_perms[name] for name, _ in group.generators}
        basepoint = addresses[deepest.index_of_element(group.identity())]
        return CantorAction(model, generators, basepoint, label=self.chain.label)


def build_tower(chain):
    """Coset spaces per level plus bonding maps: each fine coset's key,
    reduced modulo the coarse subgroup."""
    check_index_cap(chain.indices()[-1])  # refuse before any coset
    spaces = [coset_space(chain.group, h) for h in chain.levels]
    bonding = []
    for l in range(len(spaces) - 1):
        fine, coarse = spaces[l + 1], spaces[l]
        ratio = subgroup_index_in(chain.levels[l + 1], chain.levels[l])
        mapping = tuple(coarse.index_of_scaled(point, red) for _, red, point in fine.keys)
        fibers = {}
        for i in mapping:
            fibers[i] = fibers.get(i, 0) + 1
        if set(fibers) != set(range(coarse.index)):
            raise StructureError("bonding map is not surjective")
        if any(c != ratio for c in fibers.values()):
            raise StructureError("bonding map fibers are not of constant size")
        bonding.append(mapping)
    return QuotientTower(chain, tuple(spaces), tuple(bonding))


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
    """Deepest-level addresses lying in the image of a subgroup.

    The cosets of H_K inside S * H_K form the orbit of the identity coset
    under left multiplication by S's generators; only the cosets the orbit
    reaches are multiplied.
    """
    orbit = tower.levels[-1].orbit(subgroup.generator_elements())
    return frozenset(tower.coordinates(i) for i in orbit)


# -------------------------------------------------------- boundary action

def boundary_action(chain, *, lam=Fraction(1, 2)):
    """The boundary action of the tower of a chain.

    Builds the tower and returns `QuotientTower.boundary_action`; a caller
    that also needs the tower builds it once and calls the method.
    """
    return build_tower(chain).boundary_action(lam)
