"""The one registry of named test inputs: chains, quotient towers, boundary
actions, chain windows and actions, each built once per session and shared by
every test.

A name says what it builds.  Chains:

- `vietoris`, `fokkink_oversteegen`, `rogers_tollefson`, `small_fo_variant`:
  the gallery chain at its default depth;
- `vietoris_5_3`, `small_fo_variant_2`, ...: the gallery builder on those
  arguments; `small_fo_variant-1`: the gallery chain at that depth, as a
  config names it;
- `G`, `G-15`: Klein-type chains whose first level is G;
- `random-<seed>`: a seeded random Klein-type chain, each level the last one
  met with a random Klein-type subgroup;
- `z2-<seed>`, `z3-<seed>`: a seeded random lattice chain in Z^2 or Z^3;
- `hw333`, `hw357`: one subgroup D G D^-1 of the Hantzsche-Wendt group;
- `configs/rt.cfg`, ...: the chain of a config, by its path in the repo.

Actions: `warp_<depth>[_<k>]` and `warp_fiber_only_<depth>[_<k>]`, the
warp example with and without its free factor; `random_tree_<seed>[_<most
addresses>]`, a seeded action by random tree automorphisms; `three_point`,
an explicit metric with an expanding generator; and any chain name, its
boundary action at lam = 1/2 on the quotient tower oracle.

A chain name at a lam also names the chain's `coding.ChainWindow`.

`chain`, `tower`, `boundary`, `window` and `action` are memoised: what they
return is shared and must only be read.  A test that patches, counts calls
or needs a cold cache builds its own input with `make_chain`, `make_action`,
`tower_oracle.build_tower` or `ChainWindow`.
"""

import functools
import itertools
import math
import pathlib
import random
import re
from fractions import Fraction as F

from cantordyn import gallery, warp
from cantordyn.action import CantorAction, CantorModel, TreeMetric
from cantordyn.affine import (
    AffineElement,
    AffineGroup,
    hermite_normal_form,
    identity_element,
    subgroup_from_generators,
    subgroup_from_parts,
    subgroup_index_in,
    subgroup_intersect,
    translation,
)
from cantordyn.coding import ChainWindow
from cantordyn.config import parse_config
from cantordyn.gallery import REFLECTION, klein_type_group
from cantordyn.tower import SubgroupChain
from helpers import three_point_action
from tower_oracle import build_tower

REPO = pathlib.Path(__file__).resolve().parent.parent
GROUP = klein_type_group()
LAMBDAS = (F(1, 2), F(2, 3))
GALLERY_CHAINS = tuple(gallery.CHAINS)
RANDOM_SEEDS = range(12)


# ------------------------------------------------------------------ chains

def klein_subgroup(a, b, glide, y=0):
    """diag(a, b) with the glide (R, (a/2, y)) when `glide` (a odd), else
    the lattice alone."""
    lattice = hermite_normal_form(((a, 0), (0, b)))
    rep = AffineElement(REFLECTION, (F(a, 2), y), 2) if glide else identity_element(2, 2)
    return subgroup_from_parts(lattice, [rep])


def random_chain(seed):
    """Up to four levels, each the last one met with a random Klein-type
    subgroup, keeping a level only when it is proper."""
    rng = random.Random(seed)
    levels = []
    for _ in range(4):
        glide = rng.random() < 0.6
        a = rng.choice((1, 3)) if glide else rng.randint(1, 3)
        b = rng.randint(1, 4)
        h = klein_subgroup(a, b, glide, rng.randrange(b))
        if levels:
            h = subgroup_intersect(levels[-1], h)
            if subgroup_index_in(h, levels[-1]) == 1:
                continue
        levels.append(h)
    return SubgroupChain(GROUP, levels, label=f"random({seed})")


FIRST_LEVEL_G = {
    "G": [klein_subgroup(1, 1, True)],  # indices [1]: one coset
    "G-15": [klein_subgroup(1, 1, True), klein_subgroup(3, 5, True)],  # indices [1, 15]
}
# the chains of the dynamics sections: gallery, first level G, random
SECTION_CHAINS = (
    list(GALLERY_CHAINS) + list(FIRST_LEVEL_G) + [f"random-{s}" for s in RANDOM_SEEDS]
)


def hw_generators(q):
    """The Hantzsche-Wendt generators conjugated by D = diag(q): the
    translations of q Z^3, and a, b with their translations scaled by D
    (the point parts are diagonal, so D fixes them)."""
    q1, q2, q3 = q
    return [
        ("t1", translation((q1, 0, 0), 2)),
        ("t2", translation((0, q2, 0), 2)),
        ("t3", translation((0, 0, q3), 2)),
        ("a", AffineElement(((1, 0, 0), (0, -1, 0), (0, 0, -1)), (F(q1, 2), F(q2, 2), 0), 2)),
        ("b", AffineElement(((-1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, F(q2, 2), F(q3, 2)), 2)),
    ]


HW = AffineGroup.from_generators(hw_generators((1, 1, 1)))


def random_lattice_chain(seed, n):
    """Up to three levels of Z^n, each the last one met with a random lattice
    in Hermite form, keeping a level only when it is proper."""
    rng = random.Random(seed)
    group = AffineGroup.from_generators(
        [(f"t{i + 1}", translation(tuple(int(i == j) for j in range(n)), 1)) for i in range(n)]
    )
    levels = []
    for _ in range(3):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(1, 4 if n == 2 else 3)
            for j in range(i + 1, n):
                rows[i][j] = rng.randrange(rows[i][i])
        h = subgroup_from_parts(hermite_normal_form(rows), [identity_element(n, 1)])
        if levels:
            h = subgroup_intersect(levels[-1], h)
            if subgroup_index_in(h, levels[-1]) == 1:
                continue
        levels.append(h)
    return SubgroupChain(group, levels, label=f"lattice{n}({seed})")


def make_chain(name):
    """The chain a name says, built afresh."""
    if name.endswith(".cfg"):
        return parse_config((REPO / name).read_text()).build_chain()
    if name in GALLERY_CHAINS:
        return gallery.build_chain(name, {})
    if name in FIRST_LEVEL_G:
        return SubgroupChain(GROUP, FIRST_LEVEL_G[name], label=name)
    if name.startswith("hw"):
        q = tuple(map(int, name[2:]))
        h = subgroup_from_generators(3, 2, [g for _, g in hw_generators(q)])
        return SubgroupChain(HW, [h], label=f"hw{q}")
    kind, dash, seed = name.rpartition("-")
    if kind == "random":
        return random_chain(int(seed))
    if kind in ("z2", "z3"):
        return random_lattice_chain(int(seed), int(kind[1:]))
    if dash:
        return gallery.build_chain(kind, {"depth": int(seed)})
    builder, args = re.fullmatch(r"(\D+)_(\d+(?:_\d+)*)", name).groups()
    return getattr(gallery, builder)(*map(int, args.split("_")))


chain = functools.cache(make_chain)
_tower = functools.cache(build_tower)


@functools.cache
def _boundary(chain, lam):
    return _tower(chain).boundary_action(lam)


def tower(name):
    """The quotient tower oracle of a named chain; equal chains share one."""
    return _tower(chain(name))


def boundary(name, lam=F(1, 2), depth=None):
    """The boundary action at lam of a named chain, or of its first `depth`
    levels, on its shared tower."""
    return _boundary(chain(name) if depth is None else chain(name).truncate(depth), F(lam))


@functools.cache
def window(name, lam):
    """The default window of a named chain at lam, read off its algebra."""
    return ChainWindow(chain(name), F(lam))


# ----------------------------------------------------------------- actions

def random_tree_action(seed, max_addresses=512):
    """Seeded action by random rooted-tree automorphisms on a product tree."""
    rng = random.Random(seed)
    while True:
        depth = rng.choice([3, 4, 5])
        branch = [rng.choice([2, 3, 4]) for _ in range(depth)]
        if math.prod(branch) <= max_addresses:
            break
    addrs = tuple(itertools.product(*[range(b) for b in branch]))
    model = CantorModel(addrs, depth, TreeMetric(F(1, 2)))

    def rand_auto():
        node_perm = {}
        out = []
        for a in addrs:
            img = []
            for j in range(depth):
                key = (j, tuple(a[:j]))
                if key not in node_perm:
                    p = list(range(branch[j]))
                    rng.shuffle(p)
                    node_perm[key] = p
                img.append(node_perm[key][a[j]])
            out.append(model.index[tuple(img)])
        return tuple(out)

    gens = {f"a{i}": rand_auto() for i in range(rng.choice([2, 3]))}
    return CantorAction(model, gens, 0, label=f"random-tree({seed})")


GENERATED = re.compile(r"(warp|warp_fiber_only|random_tree)_(\d+)(?:_(\d+))?")


def make_action(name):
    """The action a name says, built afresh, on a fresh tower for a chain."""
    if name == "three_point":
        return three_point_action()
    match = GENERATED.fullmatch(name)
    if match is None:
        return build_tower(make_chain(name)).boundary_action()
    kind, *args = match.groups()
    args = [int(a) for a in args if a is not None]
    if kind == "random_tree":
        return random_tree_action(*args)
    return warp.warp_example(*args, include_free_factor=kind == "warp")


@functools.cache
def action(name):
    """The named action, shared; a chain's is its shared boundary action."""
    if name == "three_point" or GENERATED.fullmatch(name):
        return make_action(name)
    return boundary(name)
