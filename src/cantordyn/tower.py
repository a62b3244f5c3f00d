"""Descending subgroup chains, their tree model, and chain tests.

A chain H_1 >= H_2 >= ... of finite-index subgroups acts on its boundary,
the coset spaces G/H_l nested as a tree.  Only the deepest space G/H_K is
enumerated: every coarser coset is the image of deeper ones, so each coarser
level's coset ids are read off the keys of the level below it, and the tree
model's addresses (one coset id per level) are composed once per level.
The boundary action checks that each generator's permutation descends to
every coarser level, so it is a tree isometry, as the chain says.
The normal-core cofinality verdict and the interleaving test quantify over
the available depth only; every verdict records the depth it was computed at
and failure witnesses re-verify by independent membership calls.
"""

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


def chain_model(chain, keys, lam):
    """The tree model of the H_K cosets with canonical `keys`: address t is
    the level-1 to level-(K-1) coset ids of coset t, each id its coset's rank
    among the coarse cosets the keys reach (every level's keys reduced off
    the next finer level's), then t.  On all of G/H_K the ids are the G/H_l
    ranks."""
    from .action import CantorModel, TreeMetric

    labels, columns = range(len(keys)), []
    for h in reversed(chain.levels[:-1]):
        keys, mapping = coarser_cosets(chain.group, h, keys)
        labels = list(map(mapping.__getitem__, labels))
        columns.insert(0, labels)
    return CantorModel(zip(*columns, range(len(labels))), chain.depth, TreeMetric(lam))


def boundary_action(chain, lam=Fraction(1, 2)):
    """Left translation on G/H_K as a finite Cantor model: `chain_model` on
    every coset, the generators' permutations of G/H_K, the identity coset
    (index 0) as basepoint.  Each coarser level must have its index in
    cosets (StructureError, checked from the deepest up), then pass the
    descent gate: each generator maps every level-l coset into one
    (InvariantViolation, checked from level 1 down).  G is transitive on
    G/H_K, so every level-l coset then holds [H_l : H_l+1] level-(l+1) ones."""
    from .action import CantorAction

    indices = chain.indices()
    space = coset_space(chain.group, chain.levels[-1])
    model = chain_model(chain, space.keys, lam)
    for l in reversed(range(1, chain.depth)):
        count = len(set(model.cylinder_labels(l)))
        if count != indices[l - 1]:
            raise StructureError(f"level {l} has {count} cosets, expected {indices[l - 1]}")
    for l in range(1, chain.depth):
        column = model.cylinder_labels(l)
        for name, perm in space.gen_perms.items():
            if len(set(zip(column, map(column.__getitem__, perm)))) != indices[l - 1]:
                raise InvariantViolation(
                    f"generator {name} does not map level {l} cosets to cosets"
                )
    return CantorAction(model, space.gen_perms, 0, label=chain.label)


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
        cofinal_at = _least_contained_level(core, chain.levels)
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
    maps, a, b = [], chain_a.levels, chain_b.levels
    for side, levels, other in (("A", a, b), ("B", b, a)):
        mapping = []
        for l, h in enumerate(levels, start=1):
            nu = _least_contained_level(h, other)
            if nu is None:
                witness = element_not_in(other[-1], h)
                return InterleaveVerdict(False, fail_side=side, fail_level=l, witness=witness)
            mapping.append(nu)
        maps.append(tuple(mapping))
    return InterleaveVerdict(True, *maps)
