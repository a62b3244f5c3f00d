"""Return words, coding functions, level sets, translates, and refinement."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantordyn import action as action_module
from cantordyn import coding as coding_module
from cantordyn.action import (
    CantorAction,
    CantorModel,
    TreeMetric,
    breadth_first,
    format_word,
    parse_word,
    tuple_getter,
)
from cantordyn.affine import normal_core
from cantordyn.coding import (
    SCHREIER_SIZE_CAP,
    ActionWindow,
    ClopenPartition,
    _shortest_words_into_window,
    code,
    compute_V,
    cylinder_partition,
    default_window,
    refine_fixed_point,
    schreier_diameter,
    translates,
)
from cantordyn.errors import InvariantViolation, ResourceLimitError, StructureError
from cantordyn.gallery import (
    fokkink_oversteegen,
    rogers_tollefson,
    small_fo_variant,
    vietoris,
    warp_example,
)
from cantordyn.limits import BALL_BUDGET
from modulus_oracle import coding_chain_of
from helpers import (
    PairBall,
    bfs_schreier_diameter,
    check_coding_laws,
    least_cylinder_union_depth,
    index_set,
    naive_refine_fixed_point,
    random_tree_action,
    reference_action_ball,
)
from tower_oracle import build_tower, subgroup_cylinder


def dyadic_setup():
    action = build_tower(vietoris(2, 3)).boundary_action()
    window = default_window(action)
    words = ActionWindow(action, window).words(4, BALL_BUDGET)
    blocks = cylinder_partition(action.model, window, 2)
    partition = ClopenPartition.from_blocks(window, blocks)
    return action, window, words, partition


def identity_only_action():
    model = CantorModel(((0, 0), (0, 1), (1, 0), (1, 1)), 2, TreeMetric(F(1, 2)))
    n = len(model)
    return CantorAction(model, {"e": tuple(range(n))}, 0)


# ------------------------------------------------------------- return words

def test_identity_only_action_has_only_the_empty_class():
    action = identity_only_action()
    window = frozenset(action.model.cylinder_members(action.basepoint, 1))
    rws = ActionWindow(action, window).words(5, BALL_BUDGET)
    assert rws.words == ((),)


def test_dyadic_return_word_classes_at_length_four():
    action, window, words, _ = dyadic_setup()
    assert len(words) == 4
    rendered = {format_word(w) for w in words.words}
    assert rendered == {"<empty>", "t*t", "t^-1*t^-1", "t*t*t*t"}


def test_whole_space_window_admits_all_word_classes():
    action = build_tower(vietoris(2, 3)).boundary_action()
    window = frozenset(range(len(action.model)))
    rws = ActionWindow(action, window).words(8, BALL_BUDGET)
    assert len(rws) == 8  # all elements of the induced cyclic group


def test_return_words_verified_by_action():
    action, window, words, _ = dyadic_setup()
    for w in words.words:
        assert action.act(w, action.basepoint) in window


# -------------------------------------------------------------------- codes

def test_code_of_basepoint_under_return_words_is_nonzero():
    action, window, words, partition = dyadic_setup()
    for w in words.words:
        assert code(action, window, partition, action.basepoint, w) != 0


def test_code_example_lands_in_block_one():
    action, window, words, partition = dyadic_setup()
    u = action.model.index[(0, 2, 2)]  # the address of 2 mod 8
    assert code(action, window, partition, u, parse_word("t*t")) == 1


def test_code_zero_when_image_leaves_window():
    action, window, _, partition = dyadic_setup()
    u = action.model.index[(0, 0, 0)]
    assert code(action, window, partition, u, parse_word("t")) == 0


def test_code_requires_point_in_window():
    action, window, _, partition = dyadic_setup()
    with pytest.raises(StructureError):
        code(action, window, partition, action.model.index[(1, 1, 1)], ())


# ---------------------------------------------------------------- compute_V

def test_dyadic_level_set_is_the_next_cylinder():
    action, window, words, partition = dyadic_setup()
    v = compute_V(action, window, partition, words)
    assert v == index_set(action.model, {(0, 0, 0), (0, 0, 4)})


def test_single_invariant_block_gives_whole_window():
    action = build_tower(vietoris(2, 3)).boundary_action()
    window = frozenset(range(len(action.model)))
    words = ActionWindow(action, window).words(8, BALL_BUDGET)
    partition = ClopenPartition.from_blocks(window, [window])
    assert compute_V(action, window, partition, words) == window


def test_fo_level_set_matches_core_cylinder_via_cross_module_oracle():
    chain = fokkink_oversteegen(1)
    tower = build_tower(chain)
    action = build_tower(chain).boundary_action()
    cc = coding_chain_of(action)
    assert len(cc.levels) == 1
    lv = cc.levels[0]
    core = normal_core(chain.group, chain.levels[lv.cylinder_depth - 1])
    assert subgroup_cylinder(tower, core) == lv.v
    # the translates tile the window: address count over the block size
    assert len(lv.translate_family) == 105 // len(lv.v)


def swept_level_set(action, partition, words):
    """compute_V's oracle: the window points whose code agrees with the
    basepoint's under every image, with no early stop."""
    block_id = partition.labels(len(action.model))
    w0 = action.basepoint
    return frozenset(
        i
        for i in words.window
        if all(block_id[image[i]] == block_id[image[w0]] for image in words.images)
    )


@pytest.mark.parametrize(
    "build",
    [lambda: warp_example(3)] + [lambda seed=seed: random_tree_action(seed) for seed in range(6)],
    ids=["warp_3"] + [f"random_tree_{seed}" for seed in range(6)],
)
def test_level_sets_are_the_full_sweep_over_every_image(build):
    # the sweep stops once only the basepoint is left; every cylinder depth
    # of the window is a partition, and some keep more than the basepoint
    action = build()
    window = default_window(action)
    words = ActionWindow(action, window).words(4, BALL_BUDGET)
    sizes = []
    for j in range(1, action.model.depth + 1):
        partition = ClopenPartition.from_blocks(
            window, cylinder_partition(action.model, window, j)
        )
        v = compute_V(action, window, partition, words)
        assert v == swept_level_set(action, partition, words)
        sizes.append(len(v))
    assert max(sizes) > 1 and min(sizes) == 1


# --------------------------------------------------------------- translates

def test_dyadic_translates_are_the_two_cosets():
    action, window, words, partition = dyadic_setup()
    v = compute_V(action, window, partition, words)
    family = translates(v, words)
    assert [sorted(map(action.model.addresses.__getitem__, p)) for _, p in family] == [
        [(0, 0, 0), (0, 0, 4)],
        [(0, 2, 2), (0, 2, 6)],
    ]
    assert words.word(family[0][0]) == ()
    assert format_word(words.word(family[1][0])) == "t*t"


def test_invariant_window_has_a_single_translate():
    action = build_tower(vietoris(2, 3)).boundary_action()
    window = frozenset(range(len(action.model)))
    words = ActionWindow(action, window).words(8, BALL_BUDGET)
    partition = ClopenPartition.from_blocks(window, [window])
    v = compute_V(action, window, partition, words)
    family = translates(v, words)
    assert len(family) == 1


def test_translate_overlap_without_equality_is_a_hard_error():
    # a hand-built non-equivariant "V": half of one coset and half of another
    action, window, words, _ = dyadic_setup()
    bogus = index_set(action.model, {(0, 0, 0), (0, 2, 2)})
    with pytest.raises(InvariantViolation):
        translates(bogus, words)


# --------------------------------------------------------------- fixed point

def test_fixed_point_agrees_with_word_bounded_level_set():
    action, window, words, partition = dyadic_setup()
    fixed = refine_fixed_point(action, window, partition)
    v = compute_V(action, window, partition, words)
    block = next(b for b in fixed.blocks if action.basepoint in b)
    assert block == v


def test_fixed_point_leaves_invariant_single_block_unchanged():
    action = build_tower(vietoris(2, 3)).boundary_action()
    window = frozenset(range(len(action.model)))
    partition = ClopenPartition.from_blocks(window, [window])
    fixed = refine_fixed_point(action, window, partition)
    assert fixed.blocks == (window,)


def orbit_distances(action):
    """Word length from the basepoint to each orbit point, by point-wise BFS."""
    dist = {action.basepoint: 0}
    frontier = [action.basepoint]
    while frontier:
        new = []
        for a in frontier:
            for token in action.signed_tokens():
                b = action.act((token,), a)
                if b not in dist:
                    dist[b] = dist[a] + 1
                    new.append(b)
        frontier = new
    return dist


SHORTEST_WORD_ACTIONS = {
    "vietoris_5_3": lambda: build_tower(vietoris(5, 3)).boundary_action(),
    "small_fo_variant_2": lambda: build_tower(small_fo_variant(2)).boundary_action(),
    "warp_3_2": lambda: warp_example(3, 2),
    "warp_fiber_only_2_1": lambda: warp_example(2, 1, include_free_factor=False),
    **{
        f"random_tree_{seed}": (lambda seed=seed: random_tree_action(seed))
        for seed in range(6)
    },
}


@pytest.mark.parametrize("name", list(SHORTEST_WORD_ACTIONS))
def test_shortest_words_carry_their_permutations(name):
    action = SHORTEST_WORD_ACTIONS[name]()
    window = default_window(action)
    win_idx = sorted(window)
    dist = orbit_distances(action)
    b0 = win_idx.index(action.basepoint)
    targets = []
    graph = action.graph
    for word, image in _shortest_words_into_window(graph, *breadth_first(graph), win_idx):
        perm = action.word_perm(word)
        assert image == tuple(perm[i] for i in win_idx)
        target = image[b0]
        assert len(word) == dist[target]
        targets.append(target)
    # one word per reachable window address, in address order
    assert targets == sorted(i for i in window if i in dist)


RETURN_WORD_ACTIONS = {
    "vietoris_5_3": lambda: build_tower(vietoris(5, 3)).boundary_action(),
    "small_fo_variant_2": lambda: build_tower(small_fo_variant(2)).boundary_action(),
    "rogers_tollefson_3": lambda: build_tower(rogers_tollefson(3)).boundary_action(),
    **{
        f"random_tree_{seed}": (lambda seed=seed: random_tree_action(seed))
        for seed in range(6)
    },
}


def window_images(words):
    """Each image of a ReturnWordSet restricted to its window, as a tuple."""
    return [tuple(image[i] for i in words.window) for image in words.images]


def assert_images_are_window_restrictions(action, words):
    assert list(words.window) == sorted(default_window(action))
    assert len(words.images) == len(words.words)
    for word, image in zip(words.words, window_images(words)):
        perm = action.word_perm(word)
        assert image == tuple(perm[i] for i in words.window), word


@pytest.mark.parametrize("name", list(RETURN_WORD_ACTIONS))
def test_tuple_ball_return_words_are_the_reference_ball_ones(name, monkeypatch):
    # with no model fitting bytes, the model takes the tuple ball, and with the
    # reference ball in place of `word_ball` the reference's keys: bytes up to
    # 256 addresses, tuples above; models of at most 256 addresses take the
    # bytes ball unpatched
    def reference_ball(action, length, *, perm_cap):
        ball, completed = reference_action_ball(action, length, perm_cap)
        return PairBall(ball), completed, tuple_getter

    action = RETURN_WORD_ACTIONS[name]()
    window = default_window(action)
    for bound, budget in ((8, 20000), (8, 50), (3, 20000)):
        chosen = ActionWindow(action, window).words(bound, budget)
        with monkeypatch.context() as patch:
            patch.setattr(action_module, "BYTE_ALPHABET", 0)
            tuples = ActionWindow(action, window).words(bound, budget)
            patch.setattr(coding_module, "word_ball", reference_ball)
            reference = ActionWindow(action, window).words(bound, budget)
        for words in (chosen, reference):
            assert (tuples.words, tuples.bound, tuples.effective_bound) == (
                words.words, words.bound, words.effective_bound
            )
            assert tuples.window == words.window
            assert window_images(tuples) == window_images(words)
            assert all(type(i) is int for image in window_images(words) for i in image)
        assert_images_are_window_restrictions(action, tuples)


def test_return_words_refuse_a_window_over_the_cell_cap_before_any_ball(monkeypatch):
    def no_ball(*args, **kwargs):
        raise AssertionError("a ball permutation was enumerated above the cell cap")

    action = build_tower(vietoris(2, 4)).boundary_action()
    window = default_window(action)
    monkeypatch.setattr("cantordyn.limits.CELL_CAP", len(window) ** 2 - 1)
    monkeypatch.setattr(coding_module, "word_ball", no_ball)
    with pytest.raises(ResourceLimitError, match="return words over a window of 8 addresses"):
        ActionWindow(action, window).words(8, BALL_BUDGET)


def test_warp_return_word_images_are_window_restrictions():
    action = warp_example(3, 2)
    words = ActionWindow(action, default_window(action)).words(8, BALL_BUDGET)
    assert len(words) > 1
    assert_images_are_window_restrictions(action, words)


def test_fixed_point_agreement_at_schreier_diameter_on_random_actions():
    for seed in range(8):
        action = random_tree_action(seed, max_addresses=128)
        window = default_window(action)
        diam = schreier_diameter(action.graph)
        words = ActionWindow(action, window).words(diam, BALL_BUDGET)
        blocks = cylinder_partition(action.model, window, 2)
        partition = ClopenPartition.from_blocks(window, blocks)
        fixed = refine_fixed_point(action, window, partition)
        block = next(b for b in fixed.blocks if action.basepoint in b)
        assert compute_V(action, window, partition, words) == block


# -------------------------------------------------------------- coding chain

def test_dyadic_chain_levels_and_constants():
    action = build_tower(vietoris(2, 3)).boundary_action()
    cc = coding_chain_of(action)
    assert len(cc.levels) == 2
    l1, l2 = cc.levels
    assert l1.v == index_set(action.model, {(0, 0, 0), (0, 0, 4)})
    assert l2.v == index_set(action.model, {(0, 0, 0)})
    assert l1.eps == F(1, 2)
    assert l2.eps == F(1, 8)
    assert l2.eps < l1.eps / 2
    assert l1.cylinder_depth == 2 and l2.cylinder_depth == 3


def test_singleton_window_gives_empty_chain():
    action = build_tower(vietoris(2, 3)).boundary_action()
    cc = coding_chain_of(action, window=frozenset({action.basepoint}))
    assert cc.levels == ()


def test_chain_levels_match_core_cylinders_per_partition_depth():
    for chain in (vietoris(2, 4), small_fo_variant(3)):
        tower = build_tower(chain)
        action = build_tower(chain).boundary_action()
        cc = coding_chain_of(action)
        assert cc.levels, "expected at least one coding level"
        for lv in cc.levels:
            core = normal_core(chain.group, chain.levels[lv.cylinder_depth - 1])
            assert subgroup_cylinder(tower, core) == lv.v


def test_coding_laws_on_gallery_actions():
    rng = random.Random(17)
    actions = [
        build_tower(vietoris(2, 3)).boundary_action(),
        build_tower(vietoris(3, 2)).boundary_action(),
        build_tower(small_fo_variant(2)).boundary_action(),
        warp_example(2, 2),
        warp_example(2, 2, include_free_factor=False),
    ]
    for action in actions:
        cc = coding_chain_of(action)
        tree = not action.label.startswith("warp")
        assert check_coding_laws(action, cc, rng=rng, tree_model=tree) > 0


def test_coding_laws_on_random_tree_actions():
    rng = random.Random(23)
    for seed in range(6):
        action = random_tree_action(seed, max_addresses=256)
        cc = coding_chain_of(action)
        assert check_coding_laws(action, cc, rng=rng) > 0


def test_chain_reports_graph_diameter_on_small_models():
    action = build_tower(vietoris(2, 3)).boundary_action()
    cc = coding_chain_of(action)
    assert cc.schreier_diam == 4  # the 8-cycle


def test_graph_diameter_of_disconnected_action_is_component_maximum():
    action = warp_example(2, 1, include_free_factor=False)
    # orbits are the 4-cycles inside each fiber plus the fixed point
    assert schreier_diameter(action.graph) == 2


DIAMETER_ACTIONS = {
    "vietoris_5_4": lambda: build_tower(vietoris(5, 4)).boundary_action(),
    "vietoris_2_3": lambda: build_tower(vietoris(2, 3)).boundary_action(),
    "small_fo_variant_2": lambda: build_tower(small_fo_variant(2)).boundary_action(),
    "rogers_tollefson_3": lambda: build_tower(rogers_tollefson(3)).boundary_action(),
    "warp_3_2": lambda: warp_example(3, 2),
    "warp_fiber_only_2_1": lambda: warp_example(2, 1, include_free_factor=False),
    **{
        f"random_tree_{seed}": (lambda seed=seed: random_tree_action(seed))
        for seed in range(8)
    },
}


@pytest.mark.parametrize("name", list(DIAMETER_ACTIONS))
def test_schreier_diameter_matches_the_bfs_oracle(name):
    action = DIAMETER_ACTIONS[name]()
    assert len(action.model) <= SCHREIER_SIZE_CAP
    assert schreier_diameter(action.graph) == bfs_schreier_diameter(action)


@given(st.integers(0, 2 ** 16))
def test_schreier_diameter_matches_bfs_on_random_tree_actions(seed):
    action = random_tree_action(seed, max_addresses=64)
    assert schreier_diameter(action.graph) == bfs_schreier_diameter(action)


REFINE_ACTIONS = {
    "vietoris_2_3": lambda: build_tower(vietoris(2, 3)).boundary_action(),
    "vietoris_3_2": lambda: build_tower(vietoris(3, 2)).boundary_action(),
    "small_fo_variant_2": lambda: build_tower(small_fo_variant(2)).boundary_action(),
    "rogers_tollefson_3": lambda: build_tower(rogers_tollefson(3)).boundary_action(),
    "fokkink_oversteegen_1": lambda: build_tower(fokkink_oversteegen(1)).boundary_action(),
    "warp_3_2": lambda: warp_example(3, 2),
    **{
        f"random_tree_{seed}": (lambda seed=seed: random_tree_action(seed, max_addresses=128))
        for seed in range(6)
    },
}


@pytest.mark.parametrize("name", list(REFINE_ACTIONS))
def test_refine_fixed_point_matches_the_naive_split_loop(name):
    action = REFINE_ACTIONS[name]()
    model = action.model
    rng = random.Random(len(model))
    window = default_window(action)
    partitions = [
        ClopenPartition.from_blocks(window, cylinder_partition(model, window, j))
        for j in range(1, model.depth + 1)
    ]
    for labels in (2, 3, 5):
        blocks = {}
        for i in sorted(window):
            blocks.setdefault(rng.randrange(labels), set()).add(i)
        partitions.append(ClopenPartition.from_blocks(window, blocks.values()))
    for partition in partitions:
        fixed = refine_fixed_point(action, window, partition)
        assert set(fixed.blocks) == naive_refine_fixed_point(action, window, partition)


def test_partition_construction_rejects_bad_blocks():
    action = build_tower(vietoris(2, 3)).boundary_action()
    window = default_window(action)
    origin = {action.model.index[(0, 0, 0)]}
    with pytest.raises(StructureError):
        ClopenPartition.from_blocks(window, [window, origin])
    with pytest.raises(StructureError):
        ClopenPartition.from_blocks(window, [origin])


def test_local_constancy_depth_bounded_by_partition_scale():
    action = build_tower(vietoris(2, 4)).boundary_action()
    cc = coding_chain_of(action)
    for lv in cc.levels:
        j = least_cylinder_union_depth(action.model, lv.v)
        assert j is not None and j <= lv.cylinder_depth
