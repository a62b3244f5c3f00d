"""The cylinder label columns and the engines that read them, against a
pairwise `metric.distance` oracle over Fractions.

`CantorModel.cylinder_labels(j)` numbers the depth-j cylinders; on a tree
two addresses lie within lam^j exactly when they share one, so every expected
value below comes from the table of exact pairwise distances: the depth-j
cylinders are the classes of d <= lam^j, a diameter is the largest distance
in a set, the least distance the least positive one, and eta the least
distance between differently labelled addresses.  On the warp product the
cylinders are the key function's (`warp_cylinder_key`), and the partition gap
takes the rank route.  The cases are the gallery chains' boundary actions,
seeded random product trees, and the warp models.  The clopen-window check
accepts every cylinder union; on a model whose finest cylinders are single
addresses every set is one, so its refusals are checked on the tree models
cut one level short of their addresses.  Needs no test helpers.
"""

import functools
import itertools
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

import cases
from cantordyn import gallery
from cantordyn.action import (
    CantorAction,
    CantorModel,
    TreeMetric,
    warp_cylinder_key,
)
from cantordyn.coding import (
    ClopenPartition,
    _check_clopen_window,
    _eta_of_partition,
    default_window,
)
from cantordyn.errors import StructureError

CHAINS = (
    "vietoris_2_4",
    "vietoris_5_3",
    "rogers_tollefson_3",
    "small_fo_variant_2",
    "fokkink_oversteegen_1",
)
RANDOM_TREE_SEEDS = range(8)
WARP_DEPTHS = (1, 2, 3)


def random_product_tree(seed):
    """A tree model on leaves of a product of 2 to 4 letters per level, 3 to 5
    levels and at most 256 leaves: all of them for even seeds, a random
    nonempty sample for odd ones."""
    rng = random.Random(seed)
    while True:
        branch = [rng.randint(2, 4) for _ in range(rng.randint(3, 5))]
        leaves = list(itertools.product(*map(range, branch)))
        if len(leaves) <= 256:
            break
    if seed % 2:
        leaves = rng.sample(leaves, rng.randint(1, len(leaves)))
    lam = rng.choice([F(1, 2), F(1, 3), F(2, 3)])
    model = CantorModel(leaves, len(branch), TreeMetric(lam))
    return CantorAction(model, {}, rng.randrange(len(leaves)))


NAMES = (
    list(CHAINS)
    + [f"tree_{s}" for s in RANDOM_TREE_SEEDS]
    + [f"warp_{d}" for d in WARP_DEPTHS]
)
TREES = [name for name in NAMES if not name.startswith("warp")]


def build(name):
    """A chain's boundary action, a random product tree, or the warp model
    with its basepoint at the collapsed point."""
    kind, _, arg = name.rpartition("_")
    if kind == "tree":
        return random_product_tree(int(arg))
    if kind == "warp":
        return CantorAction(gallery.warp_model(int(arg)), {}, 0)
    return cases.action(name)


@functools.cache
def case(name):
    """(action, cylinders, dist): dist the table of exact pairwise distances,
    and cylinders[j][i] the oracle's depth-j cylinder of index i, a frozenset:
    the class of d <= lam^j on a tree, of equal `warp_cylinder_key` on the
    warp product."""
    action = build(name)
    model = action.model
    addrs = model.addresses
    n = len(model)
    dist = [[model.metric.distance(a, b) for b in addrs] for a in addrs]
    cylinders = []
    for j in range(model.depth + 1):
        if model.is_tree:
            radius = model.metric.lam ** j
            near = [[k for k in range(n) if row[k] <= radius] for row in dist]
        else:
            keys = [warp_cylinder_key(a, j) for a in addrs]
            near = [[k for k in range(n) if keys[k] == key] for key in keys]
        cylinders.append(list(map(frozenset, near)))
    return action, cylinders, dist


def diameter_oracle(dist, subset):
    return max((dist[i][k] for i in subset for k in subset), default=F(0))


def eta_oracle(dist, partition, include_complement):
    """The least distance between labelled addresses in different blocks (the
    complement a block of its own, labelled only when included)."""
    block = partition.labels(len(dist))
    labelled = [i for i, b in enumerate(block) if b or include_complement]
    return min(
        (dist[i][k] for i in labelled for k in labelled if block[i] != block[k]),
        default=None,
    )


@pytest.mark.parametrize("name", NAMES)
def test_labels_induce_the_key_partition_and_members(name):
    action, cylinders, _ = case(name)
    model = action.model
    for j, expected in enumerate(cylinders):
        labels = model.cylinder_labels(j)
        assert sorted(set(labels)) == list(range(len(set(labels))))  # small ints from 0
        for i, label in enumerate(labels):
            assert frozenset(k for k, other in enumerate(labels) if other == label) == expected[i]
            assert frozenset(model.cylinder_members(i, j)) == expected[i]


@pytest.mark.parametrize("name", TREES)
def test_tree_diameters_and_least_distance(name):
    action, cylinders, dist = case(name)
    model = action.model
    n = len(model)
    rng = random.Random(name)
    subsets = [(), (0,), (n - 1,)]
    for expected in cylinders:
        subsets += set(expected)
    subsets += [rng.sample(range(n), rng.randint(1, n)) for _ in range(10)]
    for subset in subsets:
        assert model.diameter(subset) == diameter_oracle(dist, subset)
    positive = [d for row in dist for d in row if d]
    assert model.least_distance() == min(positive, default=F(0))


@pytest.mark.parametrize("name", NAMES)
def test_eta_of_cylinder_partitions_of_the_default_window(name):
    action, cylinders, dist = case(name)
    home = cylinders[1][action.basepoint]
    window = home if len(home) > 1 else frozenset(range(len(dist)))
    assert default_window(action) == window
    for expected in cylinders[1:]:
        partition = ClopenPartition.from_blocks(window, set(map(window.__and__, expected)))
        for complement in (False, True):
            assert _eta_of_partition(
                action.model, partition, include_complement=complement
            ) == eta_oracle(dist, partition, complement)


def check_windows(action, cylinders, rng):
    """The clopen-window check accepts every union of cylinders holding the
    basepoint tried and, on each depth's basepoint cylinder with one other
    address removed, refuses exactly when the oracle finds no depth at which
    the rest is a union of cylinders; returns the number of refusals.  The
    addresses removed are the first two whose finest cylinder holds another
    address, and one seeded pick."""
    b = action.basepoint
    finest = cylinders[-1]
    refusals = 0
    for by_index in cylinders:
        blocks = sorted(set(by_index), key=min)
        home = by_index[b]
        others = [c for c in blocks if c != home]
        unions = [home] + [
            home.union(*rng.sample(others, rng.randint(1, len(others))))
            for _ in range(3 if others else 0)
        ]
        for window in unions:
            assert _check_clopen_window(action, window) == window
        rest = sorted(home - {b})
        removed = [x for x in rest if len(finest[x]) > 1][:2] + rng.sample(rest, min(1, len(rest)))
        for x in removed:
            window = home - {x}
            if any(all(cyl[i] <= window for i in window) for cyl in cylinders):
                assert _check_clopen_window(action, window) == window
            else:
                with pytest.raises(StructureError, match="not a union of cylinders"):
                    _check_clopen_window(action, window)
                refusals += 1
    return refusals


@pytest.mark.parametrize("name", NAMES)
def test_clopen_window_check_on_cylinder_unions(name):
    # the finest cylinders are single addresses, so every set is a union of them
    action, cylinders, _ = case(name)
    assert check_windows(action, cylinders, random.Random(name)) == 0


@pytest.mark.parametrize("name", TREES)
def test_clopen_window_check_refuses_a_cylinder_short_of_one_address(name):
    # the tree model with its last level dropped, whose finest cylinders may
    # hold several addresses: the oracle's cylinders, but for the deepest.  A
    # tree model must have `depth`-level addresses, so the cut model keeps the
    # tree's distances without its TreeMetric; the check reads labels alone.
    action, cylinders, _ = case(name)
    model = action.model
    metric = SimpleNamespace(distance=model.metric.distance)
    cut = CantorAction(CantorModel(model.addresses, model.depth - 1, metric), {}, action.basepoint)
    refusals = check_windows(cut, cylinders[:-1], random.Random(name))
    assert (refusals > 0) == any(len(c) > 1 for c in cylinders[-2])


@pytest.mark.parametrize(
    "addresses, depth",
    [
        ([(0, 0), (0, 1), (1, 0), (1, 1)], 1),  # two levels under a depth-1 metric
        ([(0,), (1,)], 2),
        ([(0, 0), (1,)], 2),
        ([0, 1], 1),  # not tuples
    ],
)
def test_a_tree_model_refuses_addresses_without_depth_levels(addresses, depth):
    # the tree engines read cylinders off address prefixes: with two levels
    # under a depth-1 metric, diameter([0, 1]) would be 0 although the two
    # addresses lie at distance 1/2
    with pytest.raises(StructureError, match=f"must be {depth}-level tuples") as info:
        CantorModel(addresses, depth, TreeMetric(F(1, 2)))
    assert info.value.exit_code == 2
