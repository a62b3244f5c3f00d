"""The cached pair ranks and the pairwise engines that read them,
differentially against per-pair Fraction oracles."""

import pathlib
import random
import time
from fractions import Fraction as F
from math import isqrt

import pytest

import cases
from cantordyn import action as action_module
from cantordyn.action import CantorAction, CantorModel, is_distal
from cantordyn.cli import main
from cantordyn.coding import (
    ClopenPartition,
    _eta_of_partition,
    cylinder_partition,
    default_window,
)
from cantordyn.config import parse_config
from cantordyn.errors import ResourceLimitError, StructureError
from cantordyn.limits import CELL_CAP
from cantordyn.warp import COLLAPSED, WarpMetric, warp_cylinder_key, warp_model
from helpers import (
    ExplicitMetric,
    RankedTreeMetric,
    brute_force_diameter,
    brute_force_distality,
    brute_force_eta,
    brute_force_modulus_rows,
    count_calls,
    pair_distances,
    rank_oracle,
    validate_metric,
)
from modulus_oracle import modulus_table_of

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
TREE_SEEDS = range(6)


def assert_ranks_match_distances(model):
    realized, rank = model.pair_ranks()
    assert realized[0] == 0
    assert all(a < b for a, b in zip(realized, realized[1:]))
    n = len(model)
    assert type(rank) is list and all(type(row) is tuple for row in rank)
    assert all(type(r) is int for row in rank for r in row)
    assert len(rank) == n and all(len(row) == n for row in rank)
    assert all(rank[i][i] == 0 for i in range(n))
    dist = pair_distances(model)
    for (i, j), d in dist.items():
        assert realized[rank[i][j]] == d
        assert rank[j][i] == rank[i][j]
    assert set(realized) == set(dist.values()) | {F(0)}


# -------------------------------------------------------------- pair ranks

# from depth 3, 1/10^7 takes the numerators past 2^63: 3^3 * (10^7)^3 > 2^63
@pytest.mark.parametrize("lam1", [F(1, 2), F(2, 3), F(1, 10 ** 7)])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_pair_ranks_match_warp_distances(depth, lam1):
    assert_ranks_match_distances(warp_model(depth, lam1=lam1))


# a subset realizes fewer pair classes than the whole product, so its ranks
# skip the keys of classes it lacks; the addresses come in shuffled order
@pytest.mark.parametrize("collapsed", [True, False], ids=["collapsed", "uncollapsed"])
@pytest.mark.parametrize("lam1", [F(1, 2), F(2, 3), F(1, 10 ** 7)])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_pair_ranks_match_warp_distances_on_random_subsets(depth, lam1, collapsed):
    rng = random.Random(f"{depth} {lam1} {collapsed}")
    points = warp_model(depth).addresses[1:]  # all but the collapsed point, which is first
    addresses = rng.sample(points, rng.randint(1, len(points)))
    if collapsed:
        addresses.insert(rng.randint(0, len(addresses)), COLLAPSED)
    metric = WarpMetric(depth, lam1)
    assert_ranks_match_distances(CantorModel(addresses, depth, metric, warp_cylinder_key))


def test_pair_ranks_match_an_explicit_table():
    assert_ranks_match_distances(cases.action("three_point").model)


@pytest.mark.parametrize("seed", TREE_SEEDS)
def test_pair_ranks_match_tree_distances(seed):
    action = rank_oracle(cases.action(f"random_tree_{seed}_128"))
    assert_ranks_match_distances(action.model)


def test_pair_ranks_refuse_above_the_cap_before_any_pair(monkeypatch):
    def no_pairs(self, addresses):
        raise AssertionError("pair keys computed above the cap")

    monkeypatch.setattr(RankedTreeMetric, "pair_ranks", no_pairs)
    model = CantorModel(
        [(i,) for i in range(isqrt(CELL_CAP) + 1)], 1, RankedTreeMetric(F(1, 2))
    )
    with pytest.raises(ResourceLimitError):
        model.pair_ranks()


@pytest.mark.parametrize("lam1", [F(0), F(-1, 2)])
def test_pair_ranks_refuse_distinct_addresses_at_distance_zero(lam1):
    metric = tuple.__new__(WarpMetric, (2, lam1))  # past the constructor's check
    model = CantorModel(warp_model(2).addresses, 2, metric)
    with pytest.raises(StructureError, match="distinct addresses at distance 0"):
        model.pair_ranks()


@pytest.mark.parametrize(
    "call",
    [action_module.modulus_table, lambda action: action.model.pair_ranks()],
    ids=["modulus_table", "pair_ranks"],
)
def test_pair_ranks_on_a_tree_model_raise_a_structure_error_naming_the_metric(call):
    action = cases.action("vietoris_2_3")
    with pytest.raises(StructureError, match="pair keys, which TreeMetric"):
        call(action)


def test_distality_refuses_a_zero_in_an_explicit_table():
    addrs = (("a",), ("b",), ("c",))
    table = (
        ((("a",), ("b",)), F(0)),
        ((("a",), ("c",)), F(1)),
        ((("b",), ("c",)), F(1)),
    )
    model = CantorModel(addrs, 1, ExplicitMetric(table))
    action = CantorAction(model, {"s": (0, 2, 1)}, 0)
    with pytest.raises(StructureError, match="distinct addresses at distance 0"):
        is_distal(action, 3)


@pytest.mark.parametrize("lam1", [3, 0, F(-1, 2), 1])
def test_warp_metric_rejects_a_fiber_base_outside_the_unit_interval(lam1):
    with pytest.raises(StructureError):
        WarpMetric(2, lam1)
    with pytest.raises(StructureError):
        warp_model(2, lam1=lam1)


@pytest.mark.parametrize("lam1", [F(1, 2), F(2, 3), "2/3"])
def test_warp_metric_accepts_fiber_bases_inside_the_unit_interval(lam1):
    model = warp_model(2, lam1=lam1)
    assert model.metric.lam1 == F(lam1)
    assert validate_metric(model)


# ----------------------------------------------------------------- engines

def assert_engines_match_oracles(action, word_length):
    model = action.model
    assert modulus_table_of(action).rows == brute_force_modulus_rows(action)

    verdict = is_distal(action, word_length)
    min_delta, deltas = brute_force_distality(action, word_length)
    assert verdict.distal
    assert verdict.min_delta == min_delta
    # each pair's least image distance over the ball is a realized distance
    # no larger than its own, and the least of them is the least distance;
    # `deltas` lists the pairs in the order of the memoised `pair_distances`
    distances = dict(zip(deltas, pair_distances(model).values()))
    assert min_delta == min(distances.values())
    realized = set(distances.values())
    for pair, d in deltas.items():
        assert d in realized
        assert 0 < d <= distances[pair]

    rng = random.Random(len(model))
    window = default_window(action)
    points = range(len(model))
    subsets = [window, points, rng.sample(points, min(7, len(model)))]
    subsets += [model.cylinder_members(action.basepoint, j) for j in range(model.depth + 1)]
    for subset in subsets:
        assert model.diameter(subset) == brute_force_diameter(model, subset)

    for j in range(1, model.depth + 1):
        partition = ClopenPartition.from_blocks(window, cylinder_partition(model, window, j))
        for include_complement in (False, True):
            assert _eta_of_partition(
                model, partition, include_complement=include_complement
            ) == brute_force_eta(model, partition, include_complement=include_complement)


@pytest.mark.parametrize("free_factor", [True, False])
@pytest.mark.parametrize("depth", [2, 3, 4])
def test_engines_match_oracles_on_warp_examples(depth, free_factor):
    action = cases.action(f"warp_{'' if free_factor else 'fiber_only_'}{depth}")
    assert_engines_match_oracles(action, 3 if depth < 4 else 1)


@pytest.mark.parametrize("seed", TREE_SEEDS)
def test_engines_match_oracles_on_random_tree_actions(seed):
    assert_engines_match_oracles(cases.action(f"random_tree_{seed}_128"), 3)


def test_engines_match_oracles_on_an_explicit_metric():
    assert_engines_match_oracles(cases.action("three_point"), 3)


# ---------------------------------------------------------- command counts

@pytest.mark.parametrize("command", ["classify", "code"])
def test_warp_commands_compute_each_distance_once(capsys, monkeypatch, command):
    calls = {"distance": 0}
    built = []
    ranked = set()

    def distance(self, a, b):
        calls["distance"] += 1
        return original_distance(self, a, b)

    def counted(original_build):
        def build(model):
            built.append(model)
            return original_build(model)

        return build

    def pair_ranks(self):
        ranked.add(id(self))
        return original_pair_ranks(self)

    original_distance = WarpMetric.distance
    original_pair_ranks = action_module.CantorModel.pair_ranks
    monkeypatch.setattr(WarpMetric, "distance", distance)
    monkeypatch.setattr(
        action_module, "_pair_rank_rows", counted(action_module._pair_rank_rows)
    )
    monkeypatch.setattr(action_module.CantorModel, "pair_ranks", pair_ranks)
    assert main([command, str(CONFIG_DIR / "warp.cfg")]) == 0
    capsys.readouterr()
    assert calls["distance"] == 0
    assert len(built) == 1
    assert ranked == {id(built[0])}


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "perfbench/configs/klein_3_5_mid.cfg"],
        ["classify", "configs/small_fo.cfg", "--depth", "2"],
        ["classify", "configs/fo.cfg", "--depth", "1"],
        ["classify", "configs/rt.cfg"],
        ["classify", "configs/vietoris5.cfg"],
        ["code", "perfbench/configs/klein_3_5_mid.cfg"],
        ["code", "configs/small_fo.cfg", "--depth", "2"],
        ["code", "configs/rt.cfg"],
        ["code", "configs/vietoris5.cfg"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_chain_commands_never_build_a_rank_matrix(capsys, monkeypatch, argv):
    calls = [
        count_calls(monkeypatch, CantorModel, "pair_ranks"),
        count_calls(monkeypatch, action_module, "_pair_rank_rows"),
    ]
    monkeypatch.chdir(CONFIG_DIR.parent)
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == [[], []]


def test_classify_gathers_the_rank_matrix_once_per_generator_and_never_per_word(
    capsys, monkeypatch
):
    gathers = count_calls(monkeypatch, action_module, "_image_ranks")
    config = CONFIG_DIR / "warp.cfg"
    generators = parse_config(config.read_text()).build_action().generators
    assert main(["classify", str(config)]) == 0
    capsys.readouterr()
    assert len(gathers) == len(generators)


@pytest.mark.parametrize("command", ["classify", "code"])
def test_oversized_warp_model_exits_three_before_any_pair(capsys, monkeypatch, command):
    def no_pairs(*args):
        raise AssertionError("a pair was computed above the cap")

    monkeypatch.setattr(WarpMetric, "distance", no_pairs)
    monkeypatch.setattr(WarpMetric, "pair_ranks", no_pairs)
    start = time.perf_counter()
    rc = main([command, str(CONFIG_DIR / "warp.cfg"), "--depth", "6"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 3
    assert "4033 addresses" in err
    assert elapsed < 2.0
