"""Gallery builders: indices, normality patterns, and warp action facts."""

import math

import pytest

import cases
from cantordyn.action import COLLAPSED, breadth_first, is_minimal, modulus_table
from cantordyn.affine import (
    contains,
    coset_space,
    index_cap,
    is_normal,
    normal_core,
    translation,
)
from cantordyn.errors import StructureError
from cantordyn.gallery import (
    PRIME_TEST_BOUND,
    REFLECTION,
    _is_prime,
    build_action,
    build_chain,
    fokkink_oversteegen,
    rogers_tollefson,
    small_fo_variant,
    vietoris,
    warp_example,
)
from cantordyn.tower import mccord_verdict

from helpers import brute_force_core
from modulus_oracle import modulus_table_of


def test_vietoris_chain_levels():
    chain = vietoris(2, 3)
    assert chain.indices() == [2, 4, 8]


def test_vietoris_requires_a_prime_base():
    with pytest.raises(StructureError):
        vietoris(4, 2)


def trial_division_is_prime(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_the_primality_test_is_trial_division_below_ten_thousand():
    assert [p for p in range(-2, 10 ** 4) if _is_prime(p)] == [
        p for p in range(-2, 10 ** 4) if trial_division_is_prime(p)
    ]


def test_the_primality_test_decides_large_bases_and_refuses_past_its_bound():
    # 3215031751 and 3825123056546413051 are strong pseudoprimes to the
    # first four and the first nine prime bases
    assert [_is_prime(p) for p in (10 ** 18 + 3, 10 ** 18 + 1, 3215031751)] == [True, False, False]
    assert not _is_prime(3825123056546413051)
    assert _is_prime(2 ** 61 - 1) and not _is_prime((2 ** 31 - 1) * (10 ** 9 + 7))
    with pytest.raises(StructureError, match=f"not below {PRIME_TEST_BOUND}"):
        _is_prime(PRIME_TEST_BOUND)


def test_vietoris_chains_are_mccord_compatible():
    for p in (2, 3, 5):
        assert mccord_verdict(vietoris(p, 3)).compatible


def test_vietoris_interleaves_with_powers_of_p_squared():
    from cantordyn.affine import hermite_normal_form, identity_element, subgroup_from_parts
    from cantordyn.tower import SubgroupChain, interleave

    chain = vietoris(2, 4)
    quads = SubgroupChain(
        chain.group,
        [
            subgroup_from_parts(
                hermite_normal_form(((4 ** l,),)), [identity_element(1, 1)]
            )
            for l in (1, 2)
        ],
    )
    assert interleave(chain, quads).success


def test_fo_level_indices_and_normality():
    chain = fokkink_oversteegen(2)
    assert chain.indices() == [105, 11025]
    verdict = is_normal(chain.group, chain.levels[0])
    assert not verdict.normal
    assert verdict.witness == translation((0, 1), 2)


def test_fo_depth_cap():
    with pytest.raises(StructureError):
        fokkink_oversteegen(4)


def test_fo_core_is_the_pure_bonding_lattice():
    chain = fokkink_oversteegen(1)
    core = normal_core(chain.group, chain.levels[0])
    assert core.lattice.basis == ((3, 0), (0, 35))
    assert len(core.reps) == 1


def test_normal_core_matches_brute_force_oracle_on_gallery_chains():
    # fokkink_oversteegen(2) is checked against the same oracle in criterion 2
    for chain in (
        small_fo_variant(3),
        rogers_tollefson(3),
        vietoris(2, 4),
        vietoris(3, 3),
    ):
        for level, h in enumerate(chain.levels, start=1):
            oracle = brute_force_core(coset_space(chain.group, h))
            assert normal_core(chain.group, h) == oracle, (chain.label, level)


def test_fo_mccord_verdict_beyond_the_coset_cap():
    chain = fokkink_oversteegen(3)
    assert chain.indices()[-1] > index_cap()
    verdict = mccord_verdict(chain)
    assert not any(rec.cofinal for rec in verdict.records)
    assert [chain.group.index_of(rec.core) for rec in verdict.records] == [
        210,
        22050,
        2315250,
    ]


def test_rogers_tollefson_indices_and_tower():
    assert cases.chain("rogers_tollefson_3").indices() == [2, 4, 8]
    tower = cases.tower("rogers_tollefson_3")
    assert [len({a[:l] for a in tower.addresses}) for l in (1, 2, 3)] == [2, 4, 8]


def test_small_variant_shares_the_fo_failure_pattern():
    small = mccord_verdict(small_fo_variant(2))
    # non-normal levels, translation-lattice cores, glide witnesses
    assert not small.compatible
    for rec in small.records:
        assert len(rec.core.reps) == 1
        assert not rec.cofinal
        assert rec.witness.point == REFLECTION
    full = mccord_verdict(fokkink_oversteegen(1))
    assert not full.compatible
    assert full.records[0].witness.point == REFLECTION


def test_small_variant_core_by_conjugate_intersection():
    chain = small_fo_variant(1)
    assert chain.indices() == [15]
    core = normal_core(chain.group, chain.levels[0])
    assert core.lattice.basis == ((3, 0), (0, 5))
    assert len(core.reps) == 1
    assert not contains(core, chain.levels[0].reps[1])


def test_gallery_chains_pass_chain_invariants():
    for chain in (
        vietoris(2, 4),
        vietoris(3, 3),
        fokkink_oversteegen(2),
        rogers_tollefson(4),
        small_fo_variant(3),
    ):
        for a, b in zip(chain.levels, chain.levels[1:]):
            from cantordyn.affine import subgroup_index_in, subgroup_le

            assert subgroup_le(b, a)
            assert subgroup_index_in(b, a) > 1


def test_warp_fiber_generators_fix_the_collapsed_point():
    action = cases.action("warp_fiber_only_3_2")
    assert action.model.addresses[action.basepoint] == COLLAPSED
    assert breadth_first(action.graph)[0] == [[action.basepoint]]
    assert not is_minimal(action).minimal


def test_warp_fiber_generators_are_warp_isometries():
    table = modulus_table(cases.action("warp_fiber_only_3_3"))
    assert table.is_exact_isometry_table()


def test_warp_with_free_factor_is_minimal():
    assert is_minimal(cases.action("warp_3_2")).minimal


def test_warp_depth_cap():
    with pytest.raises(StructureError):
        warp_example(9, 1)


def test_builder_dispatch_by_name():
    chain = build_chain("vietoris", {"p": "3", "depth": "2"})
    assert chain.indices() == [3, 9]
    action = build_action(
        "warp_example", {"depth": "2", "k1": "1", "free_factor": "false"}
    )
    assert len(action.generators) == 1


def test_boundary_isometry_for_all_gallery_chains():
    for name in ("vietoris_2_4", "rogers_tollefson_3", "small_fo_variant_2"):
        assert modulus_table_of(cases.action(name)).is_exact_isometry_table()
