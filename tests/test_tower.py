"""Chains, quotient towers, cofinality verdicts, and interleaving."""

import pathlib
from fractions import Fraction as F

import pytest

from cantordyn.action import breadth_first
from cantordyn.affine import (
    AffineElement,
    CosetSpace,
    contains,
    coset_space,
    hermite_normal_form,
    identity_element,
    is_normal,
    normal_core,
    subgroup_from_parts,
    subgroup_le,
    translation,
)
from cantordyn.config import parse_config
from cantordyn.errors import StructureError
from cantordyn.gallery import (
    REFLECTION,
    fokkink_oversteegen,
    klein_type_group,
    rogers_tollefson,
    small_fo_variant,
    vietoris,
)
from cantordyn.tower import SubgroupChain, interleave, mccord_verdict

from helpers import TruncatedPoint, permutation_orbit_cylinder, truncated_point
from tower_oracle import build_tower, subgroup_cylinder

REPO = pathlib.Path(__file__).resolve().parent.parent


def pure_level(group, a, b):
    return subgroup_from_parts(
        hermite_normal_form(((a, 0), (0, b))), [identity_element(2, 2)]
    )


def glide_level(group, a, b, shift=F(1, 2)):
    return subgroup_from_parts(
        hermite_normal_form(((a, 0), (0, b))),
        [AffineElement(REFLECTION, (shift, 0), 2)],
    )


# ----------------------------------------------------------------- chains

def test_chain_rejects_non_descending_levels():
    group = vietoris(2, 1).group
    h2 = subgroup_from_parts(hermite_normal_form(((2,),)), [identity_element(1, 1)])
    h3 = subgroup_from_parts(hermite_normal_form(((3,),)), [identity_element(1, 1)])
    with pytest.raises(StructureError):
        SubgroupChain(group, [h2, h3])


def test_chain_rejects_repeated_level():
    group = vietoris(2, 1).group
    h2 = subgroup_from_parts(hermite_normal_form(((2,),)), [identity_element(1, 1)])
    with pytest.raises(StructureError):
        SubgroupChain(group, [h2, h2])


def test_truncate_is_the_prefix_chain_and_checks_only_its_range(monkeypatch):
    chain = small_fo_variant(3)
    expected = {
        d: SubgroupChain(chain.group, chain.levels[:d], chain.label) for d in (1, 2, 3)
    }

    def refuse(*args):
        raise AssertionError("a prefix of a validated chain was validated again")

    monkeypatch.setattr("cantordyn.tower.subgroup_le", refuse)
    for d in (1, 2, 3):
        truncated = chain.truncate(d)
        assert type(truncated) is SubgroupChain
        assert truncated == expected[d]
        assert truncated.depth == d
    for d in (-1, 0, 4):
        with pytest.raises(StructureError, match="outside 1..3"):
            chain.truncate(d)


# ----------------------------------------------------------------- towers

def level_sizes(tower):
    return [len({a[:l] for a in tower.addresses}) for l in range(1, tower.depth + 1)]


def test_dyadic_tower_level_sizes():
    tower = build_tower(vietoris(2, 3))
    assert level_sizes(tower) == [2, 4, 8]
    assert [len(m) for m in tower.bonding] == [4, 8]


def test_fo_tower_level_sizes():
    tower = build_tower(fokkink_oversteegen(2))
    assert level_sizes(tower) == [105, 11025]
    assert tower.space.index == 11025


def test_single_level_tower_has_no_bonding():
    tower = build_tower(vietoris(2, 1))
    assert tower.depth == 1
    assert tower.bonding == ()
    assert tower.addresses == ((0,), (1,))


def test_bonding_compatibility_exact():
    for chain in (vietoris(2, 4), vietoris(3, 3), small_fo_variant(2)):
        tower = build_tower(chain)
        assert len(tower.addresses) == tower.space.index
        for i, address in enumerate(tower.addresses):
            assert len(address) == tower.depth and address[-1] == i
            for l, mapping in enumerate(tower.bonding):
                assert mapping[address[l + 1]] == address[l]


# ------------------------------------------------------------ truncated pts

def test_identity_point_has_identity_coordinates():
    chain = vietoris(2, 3)
    tower = build_tower(chain)
    ident = identity_element(chain.group.dimension, chain.group.denom)
    idx = tower.space.index_of_scaled(ident.point, ident.scaled)
    pt = truncated_point(tower, idx)
    assert pt.coords == tuple(
        coset_space(chain.group, h).index_of_scaled(ident.point, ident.scaled)
        for h in chain.levels
    )


def test_dyadic_point_for_five_mod_eight():
    tower = build_tower(vietoris(2, 3))
    five = translation((5,), 1)
    idx = tower.space.index_of_scaled(five.point, five.scaled)
    pt = truncated_point(tower, idx)
    assert pt.coords == (1, 1, 5)
    assert pt.project(2) == 1


def test_incompatible_coordinates_rejected():
    tower = build_tower(vietoris(2, 3))
    with pytest.raises(StructureError):
        TruncatedPoint(tower, (0, 1, 1))


# ------------------------------------------------------------------ McCord

def test_dyadic_chain_is_cofinal_everywhere():
    verdict = mccord_verdict(vietoris(2, 3))
    assert verdict.compatible
    assert [r.cofinal_at for r in verdict.records] == [1, 2, 3]


def test_fo_chain_fails_at_every_level_with_glide_witnesses():
    chain = fokkink_oversteegen(2)
    verdict = mccord_verdict(chain)
    assert not verdict.compatible
    for rec in verdict.records:
        assert not rec.cofinal
        # core is the pure bonding lattice
        assert len(rec.core.reps) == 1
        assert rec.core.lattice == chain.levels[rec.level - 1].lattice
        # witness re-verifies: inside the deepest level, outside the core
        assert contains(chain.levels[-1], rec.witness)
        assert not contains(rec.core, rec.witness)
        assert rec.witness.point == REFLECTION


def test_trailing_non_normal_level_fails_exactly_there():
    group = klein_type_group()
    h1 = glide_level(group, 1, 2)
    h2 = glide_level(group, 1, 4)
    assert is_normal(group, h1).normal
    assert not is_normal(group, h2).normal
    verdict = mccord_verdict(SubgroupChain(group, [h1, h2]))
    assert verdict.records[0].cofinal and verdict.records[0].cofinal_at == 1
    assert not verdict.records[1].cofinal
    assert verdict.records[1].witness is not None


def test_non_normal_middle_level_is_rescued_by_deeper_pure_level():
    group = klein_type_group()
    h1 = glide_level(group, 1, 2)
    h2 = glide_level(group, 1, 4)
    h3 = pure_level(group, 1, 8)
    verdict = mccord_verdict(SubgroupChain(group, [h1, h2, h3]))
    # the middle level is not normal, yet its core contains the deeper level
    assert not is_normal(group, h2).normal
    assert verdict.records[1].cofinal and verdict.records[1].cofinal_at == 3
    assert verdict.compatible


def test_mccord_cofinal_at_self_for_normal_levels():
    for chain in (vietoris(3, 3), vietoris(5, 2)):
        verdict = mccord_verdict(chain)
        assert all(r.cofinal_at == r.level for r in verdict.records)


def test_rogers_tollefson_first_level_normal_then_failures():
    chain = rogers_tollefson(3)
    verdict = mccord_verdict(chain)
    assert verdict.records[0].cofinal_at == 1
    assert not verdict.records[1].cofinal
    assert not verdict.records[2].cofinal
    assert not verdict.compatible


# ------------------------------------------------------------- interleaving

def quads_chain(depth):
    group = vietoris(2, 1).group
    levels = [
        subgroup_from_parts(
            hermite_normal_form(((4 ** l,),)), [identity_element(1, 1)]
        )
        for l in range(1, depth + 1)
    ]
    return SubgroupChain(group, levels, label="quads")


def test_powers_of_two_interleave_powers_of_four():
    verdict = interleave(vietoris(2, 4), quads_chain(2))
    assert verdict.success
    assert verdict.map_ab == (1, 1, 2, 2)
    assert verdict.map_ba == (2, 4)


def test_powers_of_two_do_not_interleave_powers_of_three():
    verdict = interleave(vietoris(2, 2), vietoris(3, 2))
    assert not verdict.success
    assert verdict.witness is not None
    # the witness translation is odd, hence never in 2Z
    assert verdict.witness.trans[0] % 2 == 1


def test_every_chain_interleaves_with_itself_identically():
    for chain in (vietoris(2, 4), small_fo_variant(2), fokkink_oversteegen(2)):
        verdict = interleave(chain, chain)
        assert verdict.success
        assert verdict.map_ab == tuple(range(1, chain.depth + 1))
        assert verdict.map_ba == tuple(range(1, chain.depth + 1))


def test_fo_interleaves_with_even_level_subchain():
    chain = fokkink_oversteegen(2)
    sub = SubgroupChain(chain.group, [chain.levels[1]], label="fo even levels")
    verdict = interleave(chain, sub)
    assert verdict.success
    assert verdict.map_ab == (1, 1)
    assert verdict.map_ba == (2,)


def test_interleave_names_the_second_chain_when_only_it_lacks_a_partner():
    chain = vietoris(2, 4)  # 2Z > 4Z > 8Z > 16Z
    sub = SubgroupChain(chain.group, [chain.levels[1]], label="4Z")
    verdict = interleave(sub, chain)
    assert (verdict.success, verdict.fail_side, verdict.fail_level) == (False, "B", 3)
    assert contains(sub.levels[-1], verdict.witness)
    assert not contains(chain.levels[2], verdict.witness)
    verdict = interleave(chain, sub)
    assert (verdict.success, verdict.fail_side, verdict.fail_level) == (False, "A", 3)


def test_interleave_verdict_is_symmetric():
    pairs = [
        (vietoris(2, 4), quads_chain(2)),
        (vietoris(2, 2), vietoris(3, 2)),
    ]
    for a, b in pairs:
        assert interleave(a, b).success == interleave(b, a).success


def test_interleave_rejects_mismatched_groups():
    with pytest.raises(StructureError):
        interleave(vietoris(2, 2), small_fo_variant(1))


# --------------------------------------------------------- boundary actions

def test_dyadic_boundary_action_is_an_odometer():
    action = build_tower(vietoris(2, 3)).boundary_action()
    assert len(action.model) == 8
    # the generator cycles through all addresses
    seen = {action.basepoint}
    cur = action.basepoint
    for _ in range(7):
        cur = action.act((("t", 1),), cur)
        seen.add(cur)
    assert len(seen) == 8


def test_fo_boundary_action_has_105_addresses_and_transitive_generators():
    action = build_tower(fokkink_oversteegen(1)).boundary_action()
    assert len(action.model) == 105
    layers, via = breadth_first(action.graph)
    assert sum(map(len, layers)) == 105 and None not in via


def test_index_two_chain_boundary_swaps_two_addresses():
    chain = vietoris(2, 1)
    action = build_tower(chain).boundary_action()
    assert len(action.model) == 2
    assert action.model.addresses == ((0,), (1,))
    assert action.act((("t", 1),), 0) == 1
    assert action.act((("t", 1),), 1) == 0


def test_boundary_generators_are_tree_isometries():
    from modulus_oracle import modulus_table_of

    for chain in (vietoris(2, 4), vietoris(3, 3), small_fo_variant(2)):
        table = modulus_table_of(build_tower(chain).boundary_action())
        assert table.is_exact_isometry_table()
        rows = table.rows
        assert all(k <= r for r, k in rows)


def test_boundary_action_respects_lambda():
    action = build_tower(vietoris(2, 3)).boundary_action(F(1, 3))
    d = action.model.distance((0, 0, 0), (0, 0, 4))
    assert d == F(1, 9)


def test_mccord_witnesses_reverify_via_membership():
    chain = small_fo_variant(2)
    verdict = mccord_verdict(chain)
    for rec in verdict.records:
        if not rec.cofinal:
            assert contains(chain.levels[-1], rec.witness)
            assert not contains(rec.core, rec.witness)
            assert subgroup_le(rec.core, chain.levels[rec.level - 1])
            assert is_normal(chain.group, rec.core).normal


# -------------------------------------------------------- subgroup cylinders

CYLINDER_CHAINS = {
    "small_fo_variant_3": lambda: small_fo_variant(3),
    "rogers_tollefson_3": lambda: rogers_tollefson(3),
    "vietoris_3_3": lambda: vietoris(3, 3),
}


KEY_CHAINS = dict(CYLINDER_CHAINS, fokkink_oversteegen_2=lambda: fokkink_oversteegen(2))


@pytest.mark.parametrize("name", sorted(KEY_CHAINS))
def test_coset_keys_give_the_validated_reps_and_the_rep_bonding_maps(name):
    chain = KEY_CHAINS[name]()
    tower = build_tower(chain)
    spaces = [coset_space(chain.group, h) for h in chain.levels]
    assert tower.space.keys == spaces[-1].keys
    d = chain.group.denom
    for space in spaces:
        assert len(space.keys) == space.index
        for i, (_, red, point) in enumerate(space.keys):
            rep = AffineElement(point, [F(x, d) for x in red], d)  # validated
            assert (point, red) == (rep.point, rep.scaled)
            assert space.index_of_scaled(rep.point, rep.scaled) == i
    for l, mapping in enumerate(tower.bonding):
        fine = spaces[l + 1].keys
        assert mapping == tuple(spaces[l].index_of_scaled(point, red) for _, red, point in fine)


def test_coset_space_constructs_no_affine_element(monkeypatch):
    import tower_oracle
    from cantordyn import affine, tower
    from cantordyn.cli import main

    counts = {"inside": 0, "coset_space": 0, "boundary_action": 0, "build_tower": 0, "built": 0}

    def counted_new(cls, *args):
        counts["built"] += counts["inside"] > 0
        return new(cls, *args)

    def counted(fn):  # the towers call coset_space: count nested calls as inside
        def wrapper(*args, **kwargs):
            counts["inside"] += 1
            counts[fn.__name__] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                counts["inside"] -= 1

        return wrapper

    new = AffineElement.__new__  # the validating constructor; `_element` bypasses it
    monkeypatch.setattr(AffineElement, "__new__", counted_new)
    counted_space = counted(affine.coset_space)
    for module in (affine, tower, tower_oracle):
        monkeypatch.setattr(module, "coset_space", counted_space)
    boundary_action = counted(tower.boundary_action)
    monkeypatch.setattr(tower, "boundary_action", boundary_action)
    build_tower = counted(tower_oracle.build_tower)
    config = REPO / "perfbench/configs/klein_3_5_mid.cfg"
    assert main(["code", str(config)]) == 0  # a chain's code builds no boundary action
    assert counts == {
        "inside": 0, "coset_space": 1, "boundary_action": 0, "build_tower": 0, "built": 0
    }
    chain = parse_config(config.read_text()).build_chain()
    build_tower(chain)
    boundary_action(chain)
    assert counts == {
        "inside": 0, "coset_space": 3, "boundary_action": 1, "build_tower": 1, "built": 0
    }


@pytest.mark.parametrize("name", sorted(CYLINDER_CHAINS))
def test_subgroup_cylinder_matches_the_permutation_orbit_oracle(name):
    chain = CYLINDER_CHAINS[name]()
    tower = build_tower(chain)
    for level, h in enumerate(chain.levels, start=1):
        core = normal_core(chain.group, h)
        assert subgroup_cylinder(tower, core) == permutation_orbit_cylinder(
            tower, core
        ), (name, level)


def test_subgroup_cylinder_multiplies_only_the_cosets_it_reaches(monkeypatch):
    chain = small_fo_variant(3)
    tower = build_tower(chain)
    calls = {"lookups": 0}
    original = CosetSpace.index_of_scaled  # every coset lookup, by key or element

    def counted(self, point, scaled_tr):
        calls["lookups"] += 1
        return original(self, point, scaled_tr)

    monkeypatch.setattr(CosetSpace, "index_of_scaled", counted)
    for h in chain.levels:
        core = normal_core(chain.group, h)
        calls["lookups"] = 0
        cylinder = subgroup_cylinder(tower, core)
        assert calls["lookups"] <= len(cylinder) * len(core.generator_elements()) + 1
