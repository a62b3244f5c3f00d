"""Every model computes on bytes, tuples and plain ints: pair ranks as rows of
Python ints, against the Fraction oracles, and the word ball as bytes
permutations up to 256 addresses and tuples above, against the reference ball
(`helpers.reference_action_ball`) in the key format the engine does not use;
and warp commands load neither numpy nor the chain layers."""

import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cantordyn import action as action_module
from cantordyn.action import (
    BYTE_ALPHABET,
    CantorAction,
    CantorModel,
    TreeMetric,
    is_distal,
    tuple_getter,
    word_ball,
)
from cantordyn.gallery import small_fo_variant, warp_example, warp_model
from helpers import (
    ExplicitMetric,
    ball_pairs,
    brute_force_diameter,
    brute_force_eta,
    brute_force_modulus_rows,
    engine_answers,
    pair_distances,
    probes,
    random_tree_action,
    rank_oracle,
    reference_action_ball,
    three_point_action,
)
from test_pair_ranks import assert_ranks_match_distances
from tower_oracle import build_tower

REPO = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = json.loads((REPO / "perfbench/workloads.json").read_text(encoding="utf-8"))

WARP_ACTIONS = {
    f"warp_{depth}{'' if free else '_fiber_only'}": (
        lambda depth=depth, free=free: warp_example(depth, include_free_factor=free)
    )
    for depth in (2, 3, 4)
    for free in (True, False)
}


def run_python(script, *args):
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )


# -------------------------------------------------------------- pair ranks

def scrambled_action(model, seed):
    """One seeded random permutation of the model, of order above 2 and no
    isometry: its inverse's (rank, image rank) pairs are not its own, so the
    modulus scan of the generator alone must also take them transposed."""
    rng = random.Random(seed)
    n, addrs = len(model), model.addresses
    while True:
        perm = rng.sample(range(n), n)
        isometry = all(
            model.distance(addrs[a], addrs[b]) == model.distance(addrs[perm[a]], addrs[perm[b]])
            for a in range(n)
            for b in range(a)
        )
        if not isometry and any(perm[perm[i]] != i for i in range(n)):
            return CantorAction(model, {"s": perm}, 0)


def explicit_model(n, seed):
    """n points at seeded random distances in [1/2, 1], eighths, which the
    triangle inequality allows whatever they are."""
    rng = random.Random(seed)
    addrs = [(i,) for i in range(n)]
    table = tuple(
        ((a, b), F(rng.randint(4, 8), 8)) for i, a in enumerate(addrs) for b in addrs[i + 1:]
    )
    return CantorModel(addrs, 1, ExplicitMetric(table))


RANK_ACTIONS = {
    **WARP_ACTIONS,
    "three_point": three_point_action,
    # seeds where the generator's inverse raises a modulus row
    "warp_2_scrambled": lambda: scrambled_action(warp_model(2), 5),
    "explicit_scrambled": lambda: scrambled_action(explicit_model(7, 3), 3),
    **{
        f"ranked_tree_{seed}": (
            lambda seed=seed: rank_oracle(random_tree_action(seed, max_addresses=BYTE_ALPHABET))
        )
        for seed in range(4)
    },
}


@pytest.mark.parametrize(
    "build, scanned",
    [
        (lambda: warp_example(3, include_free_factor=False), 0),
        (lambda: warp_example(3), 1),
        (lambda: scrambled_action(warp_model(2), 5), 1),
    ],
    ids=["isometries", "mixed", "no_isometry"],
)
def test_the_modulus_scan_runs_only_for_generators_that_are_no_isometry(
    build, scanned, monkeypatch
):
    # an isometry adds its (rank, rank) codes with no pair scan; the fiber
    # odometers are isometries, the transported cycle and the scramble not
    calls = []
    original = action_module._pair_codes

    def pair_codes(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(action_module, "_pair_codes", pair_codes)
    action = build()
    assert action_module.modulus_table(action).rows == brute_force_modulus_rows(action)
    assert len(calls) == scanned


@pytest.mark.parametrize("name", RANK_ACTIONS)
def test_rank_row_engines_answer_alike_on_both_routes(name, monkeypatch):
    # the engines answer alike on the route of models above 256 addresses,
    # whose rank rows are the exact ranks of the Fraction distances
    build = RANK_ACTIONS[name]
    action = build()
    subsets, partitions = probes(action, random.Random(len(action.model)))
    answers = engine_answers(action, subsets, partitions)
    monkeypatch.setattr(action_module, "BYTE_ALPHABET", 0)  # no model fits bytes
    large = build()
    assert engine_answers(large, subsets, partitions) == answers
    assert_ranks_match_distances(large.model)


@pytest.mark.parametrize("name", [name for name in RANK_ACTIONS if "warp_4" not in name])
def test_rank_row_engines_match_the_fraction_oracles(name):
    action = RANK_ACTIONS[name]()
    model = action.model
    subsets, partitions = probes(action, random.Random(len(model)))
    rows, min_delta, diameters, etas = engine_answers(action, subsets, partitions)
    assert rows == brute_force_modulus_rows(action)
    assert min_delta == min(pair_distances(model).values(), default=F(0))
    assert diameters == [brute_force_diameter(model, s) for s in subsets]
    assert etas == [
        brute_force_eta(model, p, include_complement=complement)
        for p in partitions
        for complement in (False, True)
    ]


# -------------------------------------------------------------- word balls

BALL_ACTIONS = {
    **WARP_ACTIONS,
    "small_fo_variant_2": lambda: build_tower(small_fo_variant(2)).boundary_action(),
    **{
        f"random_tree_{seed}": (
            lambda seed=seed: random_tree_action(seed, max_addresses=BYTE_ALPHABET)
        )
        for seed in range(6)
    },
}


def listed(ball):
    return [(word, list(perm)) for word, perm in ball_pairs(ball)]


def tuple_route_ball(action, length, perm_cap):
    """`word_ball` with no model fitting bytes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(action_module, "BYTE_ALPHABET", 0)
        return word_ball(action, length, perm_cap=perm_cap)


@pytest.mark.parametrize("name", BALL_ACTIONS)
def test_bytes_ball_is_the_tuple_and_reference_ball(name):
    action = BALL_ACTIONS[name]()
    assert len(action.model) <= BYTE_ALPHABET
    for perm_cap in (20000, 50):
        ball, completed, _ = word_ball(action, 8, perm_cap=perm_cap)
        tuples, tuple_completed, _ = tuple_route_ball(action, 8, perm_cap)
        pairs, reference_completed = reference_action_ball(action, 8, perm_cap, as_bytes=False)
        assert completed == tuple_completed == reference_completed
        assert all(type(perm) is bytes for perm in ball)
        assert all(type(perm) is tuple for perm in tuples)
        assert listed(ball) == listed(tuples)
        assert listed(ball) == [(word, list(perm)) for word, perm in pairs]
        verdict = is_distal(action, 8, perm_cap=perm_cap)
        assert (verdict.word_count, verdict.word_length) == (len(ball), completed)


@given(
    n=st.integers(1, BYTE_ALPHABET + 1),
    seed=st.integers(0, 2 ** 16),
    generators=st.integers(1, 3),
    length=st.integers(0, 5),
    perm_cap=st.integers(1, 300),
)
@example(n=BYTE_ALPHABET, seed=0, generators=2, length=5, perm_cap=300)
@example(n=BYTE_ALPHABET + 1, seed=0, generators=2, length=5, perm_cap=300)
@example(n=1, seed=0, generators=1, length=3, perm_cap=1)
def test_bytes_ball_is_the_tuple_ball_on_random_permutations(
    n, seed, generators, length, perm_cap
):
    # the model's own route (bytes up to 256 addresses, tuples above) and the
    # tuple route; on each, `at(indices)` gathers a key at any indices in its
    # own type
    rng = random.Random(seed)
    model = CantorModel([(i,) for i in range(n)], 1, TreeMetric(F(1, 2)))
    gens = {f"a{i}": tuple(rng.sample(range(n), n)) for i in range(generators)}
    action = CantorAction(model, gens, 0)
    ball, completed, at = word_ball(action, length, perm_cap=perm_cap)
    tuples, tuple_completed, tuple_at = tuple_route_ball(action, length, perm_cap)
    pairs, reference_completed = reference_action_ball(action, length, perm_cap, as_bytes=False)
    assert completed == tuple_completed == reference_completed
    assert listed(ball) == listed(tuples)
    assert listed(ball) == [(word, list(perm)) for word, perm in pairs]
    assert type(ball[0]) is (bytes if n <= BYTE_ALPHABET else tuple)
    assert type(tuples[0]) is tuple
    picks = [rng.randrange(n) for _ in range(rng.randint(1, 2 * n))]  # repeats, any order
    for indices in ([0], [n - 1], list(range(n)), sorted(set(picks)), picks):
        for keys, gather in ((ball, at), (tuples, tuple_at)):
            get = gather(indices)
            for key in keys:
                assert type(get(key)) is type(key)
                assert list(get(key)) == list(tuple_getter(indices)(list(key)))


# ------------------------------------------------- commands and numpy

def test_warp_commands_load_neither_numpy_nor_the_chain_layers():
    script = """
import contextlib, io, json, sys
from cantordyn.cli import main
from cantordyn.config import parse_config
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
for path in json.loads(sys.argv[2]):  # the set-up work of the same configs
    parse_config(open(path).read()).build_action()
loaded = ("numpy", "cantordyn.affine", "cantordyn.tower")
print(codes, [name for name in loaded if name in sys.modules])
"""
    commands = WORKLOADS["warp-actions"]["commands"]
    configs = sorted({argv[1] for argv in commands})
    proc = run_python(script, json.dumps(commands), json.dumps(configs))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[0] * len(commands)} []\n"


def test_the_route_above_256_addresses_gives_the_bytes_route_reports():
    script = """
import contextlib, io, sys
from cantordyn import action
from cantordyn.cli import main
from cantordyn.report import strip_timing
runs = []
for alphabet in (256, 0):  # 0: the route above 256 addresses, on 57 addresses
    action.BYTE_ALPHABET = alphabet
    for command in ("classify", "code"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runs.append((main([command, "configs/warp.cfg"]), strip_timing(out.getvalue())))
print(runs[:2] == runs[2:], [rc for rc, _ in runs], "numpy" in sys.modules)
"""
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True [0, 0, 0, 0] False\n"
