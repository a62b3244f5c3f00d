"""Cantor models, metrics, and dynamical diagnostics."""

import random
from fractions import Fraction as F

import pytest

from cantordyn import action as action_module
from cantordyn.action import (
    COLLAPSED,
    CantorAction,
    CantorModel,
    TreeMetric,
    WarpMetric,
    breadth_first,
    format_word,
    germinal_holonomy,
    invariant_measure,
    is_distal,
    is_minimal,
    MinimalityVerdict,
    modulus_table,
    parse_word,
    word_ball,
)
from cantordyn.errors import InvariantViolation, ResourceLimitError, StructureError
from cantordyn.gallery import vietoris, warp_example, warp_model
from helpers import (
    ball_pairs,
    brute_force_distality,
    measure_weights,
    three_point_action,
    validate_metric,
)
from modulus_oracle import modulus_table_of
from tower_oracle import build_tower


def dyadic_action(depth=3):
    return build_tower(vietoris(2, depth)).boundary_action()


# --------------------------------------------------------------------- act

def test_empty_word_is_identity():
    act = dyadic_action()
    for i in range(len(act.model)):
        assert act.act((), i) == i


def test_double_step_wraps_around():
    act = dyadic_action()
    index = act.model.index
    assert act.act(parse_word("t*t"), index[(0, 2, 6)]) == index[(0, 0, 0)]


def test_word_with_inverse_pair_is_identity():
    act = dyadic_action()
    w = parse_word("t*t^-1")
    for i in range(len(act.model)):
        assert act.act(w, i) == i


def test_unknown_generator_name_rejected():
    act = dyadic_action()
    with pytest.raises(StructureError):
        act.act((("u", 1),), act.basepoint)


def test_word_evaluation_is_a_homomorphism():
    from cantordyn.gallery import fokkink_oversteegen, rogers_tollefson, small_fo_variant

    rng = random.Random(5)
    actions = [
        dyadic_action(),
        build_tower(vietoris(3, 2)).boundary_action(),
        build_tower(fokkink_oversteegen(1)).boundary_action(),
        build_tower(rogers_tollefson(3)).boundary_action(),
        build_tower(small_fo_variant(2)).boundary_action(),
        warp_example(2, 2),
        warp_example(2, 2, include_free_factor=False),
        three_point_action(),
    ]
    for act in actions:
        tokens = act.signed_tokens()
        for _ in range(30):
            w1 = tuple(rng.choice(tokens) for _ in range(rng.randint(0, 6)))
            w2 = tuple(rng.choice(tokens) for _ in range(rng.randint(0, 6)))
            p = rng.choice(range(len(act.model)))
            assert act.act(w1 + w2, p) == act.act(w1, act.act(w2, p))


def test_word_parsing_round_trip():
    for text in ("t", "t*t^-1", "g1*f^-1*g2"):
        assert format_word(parse_word(text)) == text


# ------------------------------------------------------------------- orbits

def orbit(act, i):
    """The orbit of address index i: the layers of the orbit graph's walk
    from i."""
    layers, _ = breadth_first(act.graph._replace(basepoint=i))
    return set().union(*layers)


def test_dyadic_orbit_reaches_everything():
    act = dyadic_action()
    assert orbit(act, act.model.index[(0, 0, 0)]) == set(range(len(act.model)))


def test_fiber_only_warp_orbit_of_collapsed_point_is_itself():
    act = warp_example(3, 2, include_free_factor=False)
    collapsed = act.model.index[COLLAPSED]
    assert orbit(act, collapsed) == {collapsed}


def test_identity_only_action_has_singleton_orbits():
    model = CantorModel(((0,), (1,)), 1, TreeMetric(F(1, 2)))
    act = CantorAction(model, {"e": (0, 1)}, 0)
    assert orbit(act, 0) == {0}
    assert orbit(act, 1) == {1}


def test_basepoint_must_be_an_index_of_the_model():
    model = CantorModel(((0,), (1,)), 1, TreeMetric(F(1, 2)))
    for basepoint in (2, -1, (0,)):
        with pytest.raises(StructureError, match="basepoint"):
            CantorAction(model, {"e": (0, 1)}, basepoint)


# --------------------------------------------------------------- minimality

def test_dyadic_boundary_is_minimal():
    assert is_minimal(dyadic_action()).minimal


def test_fiber_only_warp_action_is_not_minimal():
    verdict = is_minimal(warp_example(3, 2, include_free_factor=False))
    assert not verdict.minimal
    assert verdict.witness_orbit == frozenset({0})  # the collapsed point


def test_full_warp_action_is_minimal():
    assert is_minimal(warp_example(3, 2)).minimal


# ------------------------------------------------------------ modulus table

def test_tree_modulus_is_the_identity_on_realized_distances():
    table = modulus_table_of(dyadic_action())
    assert table.rows == (
        (F(1), F(1)),
        (F(1, 2), F(1, 2)),
        (F(1, 4), F(1, 4)),
    )


def test_warp_fiber_generators_are_exact_isometries():
    table = modulus_table(warp_example(3, 2, include_free_factor=False))
    assert table.is_exact_isometry_table()


def test_expanding_generator_breaks_the_isometry_table():
    table = modulus_table(three_point_action())
    assert table.kappa(F(1, 4)) == F(1) > F(1, 4)
    assert not table.is_exact_isometry_table()


def test_modulus_rows_monotone_and_bounded():
    for act in (dyadic_action(), warp_example(2, 2), three_point_action()):
        table = modulus_table_of(act)
        rows = table.rows
        for (r1, k1), (r2, k2) in zip(rows, rows[1:]):
            assert r1 > r2 and k1 >= k2
        assert rows[-1][1] <= rows[0][0]


def test_equicontinuity_witness_lookup():
    table = modulus_table_of(dyadic_action())
    assert table.equicontinuity_witness(F(1, 2)) == F(1, 4)
    assert table.equicontinuity_witness(F(1)) == F(1, 2)
    assert table.equicontinuity_witness(F(1, 4)) is None
    assert table.sub_resolution_delta() == F(1, 8)


def test_modulus_pairwise_cap(monkeypatch):
    # a warp model's pair ranks hold n^2 cells and are refused before any key;
    # the cylinder oracle for a tree model stores no pair and runs under the same cap
    def no_keys(self, addresses):
        raise AssertionError("pair keys computed above the cell cap")

    monkeypatch.setattr("cantordyn.limits.CELL_CAP", 168)
    monkeypatch.setattr(WarpMetric, "pair_ranks", no_keys)
    with pytest.raises(ResourceLimitError, match="pair ranks of 13 addresses need 169"):
        modulus_table(warp_example(2))
    assert len(modulus_table_of(dyadic_action()).rows) == 3


# ---------------------------------------------------------------- distality

def test_isometric_action_is_distal_with_delta_equal_distance():
    act = dyadic_action()
    verdict = is_distal(act, 6)
    min_delta, deltas = brute_force_distality(act, 6)
    assert verdict.distal
    assert verdict.min_delta == min_delta == F(1, 4)
    for (a, b), d in deltas.items():
        assert d == act.model.distance(a, b)


def test_fo_boundary_is_distal():
    from cantordyn.gallery import fokkink_oversteegen

    verdict = is_distal(build_tower(fokkink_oversteegen(1)).boundary_action(), 6)
    assert verdict.distal
    assert verdict.min_delta > 0


def test_non_injective_generator_rejected_at_construction():
    model = CantorModel(((0,), (1,)), 1, TreeMetric(F(1, 2)))
    with pytest.raises(StructureError):
        CantorAction(model, {"bad": (0, 0)}, 0)


# ----------------------------------------------------------------- measures

def test_uniform_measure_on_dyadic_boundary():
    act = dyadic_action()
    assert measure_weights(act, invariant_measure(act)) == [F(1, 8)] * 8


def test_uniform_measure_on_fo_boundary():
    from cantordyn.gallery import fokkink_oversteegen

    act = build_tower(fokkink_oversteegen(1)).boundary_action()
    assert measure_weights(act, invariant_measure(act)) == [F(1, 105)] * 105


def test_point_mass_for_fiber_only_warp_action():
    act = warp_example(3, 2, include_free_factor=False)
    mu = invariant_measure(act)
    assert measure_weights(act, mu) == [1] + [0] * (len(act.model) - 1)
    assert mu.label == "orbit-closure of 'w0' (1 addresses)"


def test_pushforward_exactness_per_generator():
    for act in (dyadic_action(), warp_example(2, 2)):
        weight = measure_weights(act, invariant_measure(act))
        for name, sign in act.signed_tokens():
            inv = {v: k for k, v in enumerate(act.token_perm(name, sign))}
            for i in range(len(act.model)):
                assert weight[inv[i]] == weight[i]


def test_a_support_that_a_generator_leaves_is_refused():
    act = warp_example(2, 2)  # minimal: no proper subset is invariant
    with pytest.raises(InvariantViolation, match="support"):
        invariant_measure(act, MinimalityVerdict(False, frozenset({0, 1})))


# ---------------------------------------------------------- germinal depths

def test_empty_word_has_trivial_germ_at_depth_zero():
    act = dyadic_action()
    verdict = germinal_holonomy(act, (), act.model.index[(0, 0, 0)])
    assert verdict.trivial and verdict.depth == 0


def test_full_cycle_word_is_identity_hence_trivial():
    act = dyadic_action()
    word = (("t", 1),) * 8
    verdict = germinal_holonomy(act, word, act.model.index[(0, 0, 0)])
    assert verdict.trivial and verdict.depth == 0


def test_fiber_generator_germ_is_nontrivial_through_full_depth():
    act = warp_example(3, 2)
    verdict = germinal_holonomy(act, (("g1", 1),), act.model.index[COLLAPSED])
    assert not verdict.trivial
    assert verdict.depth == 3
    a, b = verdict.witness
    assert a != b and act.word_perm((("g1", 1),))[a] == b


def test_non_stabilizing_word_rejected_with_image_named():
    act = dyadic_action()
    with pytest.raises(StructureError) as err:
        germinal_holonomy(act, (("t", 1),), act.model.index[(0, 0, 0)])
    assert str(err.value) == "word t does not stabilize 0.0.0; it maps to 1.1.1"


def test_germ_triviality_is_monotone_in_depth():
    act = warp_example(2, 1)
    word = (("g1", 1),) * 4  # g1^4 = identity on depth-2 fibers
    perm = act.word_perm(word)
    assert perm == tuple(range(len(act.model)))
    collapsed = act.model.index[COLLAPSED]
    verdict = germinal_holonomy(act, word, collapsed)
    assert verdict.trivial
    model = act.model
    for j in range(verdict.depth, model.depth + 1):
        for i in model.cylinder_members(collapsed, j):
            assert perm[i] == i


# -------------------------------------------------------------- warp metric

def test_warp_distance_identity_class():
    model = warp_model(3)
    assert model.distance(COLLAPSED, COLLAPSED) == 0


def test_warp_distance_same_base_scales_fiber_metric():
    model = warp_model(3)
    x = (2, 2, 2)
    xval = F(2, 3) + F(2, 9) + F(2, 27)
    d = model.distance((x, (0, 0, 0)), (x, (1, 0, 0)))
    assert d == xval  # d1 of fiber addresses differing at level 1 is 1


def test_warp_distance_to_collapsed_class_is_the_base_value():
    model = warp_model(3)
    x = (2, 2, 2)
    assert model.distance((x, (0, 1, 0)), COLLAPSED) == F(26, 27)


def test_warp_metric_triangle_inequality_exhaustive_small():
    validate_metric(warp_model(3), triple_cap=100)


def test_warp_metric_triangle_inequality_sampled_large():
    validate_metric(warp_model(6), triple_cap=100, samples=10 ** 4, seed=3)


def test_tree_metric_is_an_ultrametric():
    validate_metric(dyadic_action(3).model)


# ----------------------------------------------------------- word machinery

def test_word_enumeration_is_the_cayley_ball():
    act = dyadic_action()
    words, completed, _ = word_ball(act, 12, perm_cap=200000)
    assert completed == 12
    assert len(words) == 8  # the induced group is cyclic of order 8
    assert words.word(0) == ()


def test_the_cell_cap_stops_the_ball_layer_atomically(monkeypatch):
    act = warp_example(3, 2)
    unclamped = is_distal(act, 8)
    monkeypatch.setattr("cantordyn.limits.CELL_CAP", 100 * len(act.model))
    with monkeypatch.context() as patch:
        patch.setattr(action_module, "BYTE_ALPHABET", 0)  # the tuple route
        words, completed, _ = word_ball(act, 8, perm_cap=100)
    assert completed < unclamped.word_length
    assert max(len(w) for w, _ in ball_pairs(words)) == completed
    verdict = is_distal(act, 8, perm_cap=10 ** 6)  # the clamp binds whatever the budget
    assert (verdict.word_length, verdict.word_count) == (completed, len(words))


def test_word_enumeration_budget_is_layer_atomic():
    act = warp_example(3, 2)
    words, completed, _ = word_ball(act, 8, perm_cap=100)
    assert completed < 8
    lengths = [len(w) for w, _ in ball_pairs(words)]
    assert max(lengths) == completed
