"""Shared builders, law checks and brute-force oracles for the tests."""

import functools
import itertools
import operator
import random
import weakref
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction as F

from cantordyn.action import (
    CantorAction,
    CantorModel,
    WarpMetric,
    breadth_first,
    common_prefix,
    is_distal,
    tuple_getter,
    warp_cylinder_key,
    word_ball,
)
from cantordyn import _intmat as im
from cantordyn.affine import (
    _element,
    compose,
    conjugate,
    identity_element,
    subgroup_intersect,
    subgroup_le,
)
from cantordyn.coding import (
    ClopenPartition,
    _eta_of_partition,
    _shortest_words_into_window,
    cylinder_partition,
    default_window,
)
from cantordyn.errors import StructureError
from modulus_oracle import modulus_table_of


def validate_metric(model, *, triple_cap=1000, samples=10 ** 4, seed=0):
    """Symmetry, identity of indiscernibles, and the triangle inequality of a
    model's metric.

    Exhaustive over all triples up to the cap, seeded-sampled above.
    Tree metrics are additionally checked for the ultrametric inequality.
    Each ordered pair's distance is computed once per call.
    """
    addrs = model.addresses
    n = len(addrs)
    ultra = model.is_tree
    rng = random.Random(seed)
    distance = functools.cache(model.distance)

    def check_pair(a, b):
        d = distance(a, b)
        if d <= 0:
            raise StructureError("distinct addresses at distance <= 0")
        if d != distance(b, a):
            raise StructureError("metric is not symmetric")

    def check(a, b, c):
        dab = distance(a, b)
        dac = distance(a, c)
        dcb = distance(c, b)
        if ultra:
            if dab > max(dac, dcb):
                raise StructureError("ultrametric inequality fails")
        elif dab > dac + dcb:
            raise StructureError("triangle inequality fails")

    if n <= triple_cap:
        for i in range(n):
            for k in range(i + 1, n):
                check_pair(addrs[i], addrs[k])
        for a, b, c in itertools.combinations(addrs, 3):
            check(a, b, c)
            check(a, c, b)
            check(b, a, c)
    else:
        for _ in range(samples):
            a, b = (addrs[rng.randrange(n)] for _ in range(2))
            if a != b:
                check_pair(a, b)
        for _ in range(samples):
            a, b, c = (addrs[rng.randrange(n)] for _ in range(3))
            if len({a, b, c}) == 3:
                check(a, b, c)
    return True


@dataclass(frozen=True)
class TruncatedPoint:
    """One coset id per level of a tower, compatible under the bonding maps."""

    tower: object
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) != self.tower.depth:
            raise StructureError("coordinate count must match the tower depth")
        for l, (fine, coarse) in enumerate(zip(self.coords[1:], self.coords)):
            if self.tower.bonding[l][fine] != coarse:
                raise StructureError(
                    f"incompatible coordinates between levels {l + 1} and {l + 2}"
                )

    def project(self, level):
        if not 1 <= level <= len(self.coords):
            raise StructureError("projection level out of range")
        return self.coords[level - 1]


def truncated_point(tower, deepest_index):
    """The compatible coordinate sequence of a deepest-level coset."""
    if not 0 <= deepest_index < tower.space.index:
        raise StructureError("coset index out of range at the deepest level")
    return TruncatedPoint(tower, tower.addresses[deepest_index])


# ------------------------------------------------- metrics with pair ranks

@dataclass(frozen=True)
class ExplicitMetric:
    """Exact rational distance table over the address set."""

    table: tuple  # tuple of ((a, b), Fraction) with a < b in address order

    def __post_init__(self):
        object.__setattr__(self, "_lookup", dict(self.table))

    def distance(self, a, b):
        if a == b:
            return F(0)
        key = (a, b) if (a, b) in self._lookup else (b, a)
        try:
            return self._lookup[key]
        except KeyError:
            raise StructureError(f"distance table has no entry for {a!r}, {b!r}")

    def pair_ranks(self, addresses):
        """(realized, rank) as `CantorModel.pair_ranks` reads them: the
        table's distances and 0, ascending, and each pair's index into them,
        one tuple per address, each pair looked up once."""
        n = len(addresses)
        dist = {
            (i, j): self.distance(addresses[i], addresses[j])
            for i in range(n)
            for j in range(i + 1, n)
        }
        values = sorted(set(dist.values()) | {F(0)})
        rank_of = {d: r for r, d in enumerate(values)}
        rank = [[0] * n for _ in range(n)]
        for (i, j), d in dist.items():
            rank[i][j] = rank[j][i] = rank_of[d]
        return tuple(values), list(map(tuple, rank))


@dataclass(frozen=True)
class RankedTreeMetric:
    """The tree ultrametric lam^j ranking its own pairs, with no TreeMetric
    type, so that a model over it runs the pair-rank engines: the oracle
    for the cylinder engines of tree models.  Pure Python, and independent
    of the warp metric's class ranks."""

    lam: F

    def distance(self, a, b):
        return self.lam ** common_prefix(a, b) if a != b else F(0)

    def pair_ranks(self, addresses):
        """(realized, rank) as `CantorModel.pair_ranks` reads them, from the
        keys depth - (agreement level), key 0 only on the diagonal: each row
        starts at the depth and is lowered on the members of each prefix
        cylinder of its address, coarse to fine.  A key is realized when some
        prefix cylinder has members off its next level (or is the diagonal),
        and the keys are densified to ranks in ascending order."""
        depth = len(addresses[0])
        members = {(): range(len(addresses))}  # prefix -> the indices extending it
        for i, a in enumerate(addresses):
            for j in range(1, depth + 1):
                members.setdefault(a[:j], []).append(i)
        keys = {0} | {
            depth - j
            for a in addresses
            for j in range(depth)
            if len(members[a[:j]]) > len(members[a[:j + 1]])
        }
        dense = [None] * (depth + 1)
        for r, key in enumerate(sorted(keys)):
            dense[key] = r
        rows = []
        for a in addresses:
            row = [dense[depth]] * len(addresses)
            for j in range(1, depth + 1):
                for i in members[a[:j]]:
                    row[i] = dense[depth - j]
            rows.append(tuple(row))
        return tuple(self.lam ** (depth - key) if key else F(0) for key in sorted(keys)), rows


def rank_oracle(action):
    """The action on a copy of its tree model over RankedTreeMetric."""
    model = action.model
    ranked = CantorModel(model.addresses, model.depth, RankedTreeMetric(model.metric.lam))
    return CantorAction(ranked, action.generators, action.basepoint, action.label)


def three_point_action():
    """An explicit three-point metric whose generator expands a 1/4 pair to 1."""
    addrs = (("a",), ("b",), ("c",))
    table = (
        ((("a",), ("b",)), F(1, 4)),
        ((("a",), ("c",)), F(1, 1)),
        ((("b",), ("c",)), F(1, 1)),
    )
    model = CantorModel(addrs, 1, ExplicitMetric(table))
    return CantorAction(model, {"s": (0, 2, 1)}, 0)


def reference_word_ball(tokens, identity, max_length, perm_cap, compose):
    """The word ball oracle, in the arguments of `ball._word_ball`: a list
    of (word, perm) pairs, every class keeping its word tuple, with the
    empty word first, and the completed length.

    Breadth-first over (length, token order) with dedup by permutation.
    Layers are atomic: when the cap would be exceeded, the whole partial
    layer is dropped and the completed length reports the last full layer;
    a layer adding nothing completes max_length.
    """
    seen = {identity}  # an overflowing layer's keys stay: the search ends there
    order = [((), identity)]
    frontier = [((), identity)]
    completed = 0
    for layer in range(1, max_length + 1):
        new = []
        for word, perm in frontier:
            after = compose(perm)
            for token, p in tokens:
                key = after(p)
                size = len(seen)
                seen.add(key)
                if len(seen) == size:
                    continue
                if size >= perm_cap:
                    return order, completed
                new.append(((token,) + word, key))
        if not new:
            return order, max_length
        order.extend(new)
        frontier = new
        completed = layer
    return order, completed


def reference_action_ball(action, max_length, perm_cap, *, as_bytes=None):
    """`reference_word_ball` on an action's token permutations, with no cell
    clamp: bytes strings composed by `bytes.translate` (by default up to 256
    addresses), or tuples composed by `operator.itemgetter`."""
    n = len(action.model)
    signed = action.signed_tokens()
    if as_bytes is None:
        as_bytes = n <= 256
    if as_bytes:
        pad = bytes(256 - n)
        tokens = [(token, bytes(action.token_perm(*token)) + pad) for token in signed]
        compose, identity = operator.attrgetter("translate"), bytes(range(n))
    else:
        tokens = [(token, action.token_perm(*token)) for token in signed]
        identity = tuple(range(n))

        def compose(perm):  # one item comes back bare
            get = operator.itemgetter(*perm)
            return get if n > 1 else lambda p: (get(p),)

    return reference_word_ball(tokens, identity, max_length, perm_cap, compose)


def ball_pairs(ball):
    """A WordBall as the oracle's (word, perm) pairs."""
    return [(ball.word(i), key) for i, key in enumerate(ball)]


class PairBall(list):
    """The oracle's (word, perm) pairs as a WordBall reads them: the perms,
    in ball order, and `word(i)`."""

    def __init__(self, pairs):
        super().__init__(perm for _, perm in pairs)
        self.words = [word for word, _ in pairs]

    def word(self, i):
        return self.words[i]


# words: word tuples, the empty word first; images: each word's image of the
# window, a tuple of address indices in the order of `window`
ReferenceReturnWords = namedtuple(
    "ReferenceReturnWords", "words bound effective_bound window images"
)


def reference_return_words(action, window, bound, *, perm_budget=20000):
    """The return words oracle: every ball permutation landing the basepoint
    in the window restricted to it by `tuple_getter`, the first word of each
    restriction built and kept, then one shortest transition word per window
    address with a new restriction."""
    w0 = action.basepoint
    win_idx = sorted(window)
    ball, completed, _ = word_ball(action, bound, perm_cap=perm_budget)
    restrict = tuple_getter(win_idx)
    first_word = {}  # window image -> its first word, in word order
    for i, perm in enumerate(ball):
        if perm[w0] in window:
            image = restrict(perm)
            if image not in first_word:
                first_word[image] = ball.word(i)
    graph = action.graph
    for word, image in _shortest_words_into_window(graph, *breadth_first(graph), win_idx):
        first_word.setdefault(image, word)
    return ReferenceReturnWords(
        tuple(first_word.values()), bound, completed, tuple(win_idx), tuple(first_word)
    )


def count_calls(monkeypatch, owner, name):
    """Patch `owner.name` to record the arguments of each call; the list of
    them."""
    calls, fn = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# ------------------------------------------------- engine probes

def probes(action, rng):
    """Index subsets for diameters (every cylinder, random sets, the empty
    set) and partitions for eta (cylinder partitions of the default window,
    and random labellings of random windows)."""
    model = action.model
    points = range(len(model))
    subsets = [()]
    for j in range(model.depth + 1):
        subsets += cylinder_partition(model, points, j)
    subsets += [rng.sample(points, rng.randint(1, min(40, len(points)))) for _ in range(10)]
    window = default_window(action)
    partitions = [
        ClopenPartition.from_blocks(window, cylinder_partition(model, window, j))
        for j in range(1, model.depth + 1)
    ]
    for _ in range(4):
        window = rng.sample(points, rng.randint(1, len(points)))
        labels = [rng.randint(1, 3) for _ in window]
        blocks = [[i for i, k in zip(window, labels) if k == b] for b in (1, 2, 3)]
        partitions.append(ClopenPartition.from_blocks(window, blocks))
    return subsets, partitions


def engine_answers(action, subsets, partitions):
    """Modulus rows, min_delta, and the diameters and etas of the probes,
    as the model's engines compute them (the modulus rows of a tree model
    by the cylinder oracle)."""
    model = action.model
    return (
        modulus_table_of(action).rows,
        is_distal(action, 0).min_delta,
        [model.diameter(s) for s in subsets],
        [
            _eta_of_partition(model, p, include_complement=complement)
            for p in partitions
            for complement in (False, True)
        ],
    )


# -------------------------------------------- pairwise brute-force oracles

_DISTANCES = weakref.WeakKeyDictionary()  # model -> its pair_distances


def pair_distances(model):
    """{(i, j): metric.distance} over index pairs i < j, one call per pair,
    built once per model."""
    dist = _DISTANCES.get(model)
    if dist is None:
        addrs, distance = model.addresses, model.metric.distance
        dist = _DISTANCES[model] = {
            (i, j): distance(addrs[i], addrs[j])
            for i in range(len(addrs))
            for j in range(i + 1, len(addrs))
        }
    return dist


def _distances_between(model, pairs):
    dist = pair_distances(model)
    for a, b in pairs:
        i, j = sorted((a, b))
        yield dist[i, j] if i != j else F(0)


def brute_force_modulus_rows(action):
    """Modulus rows (r, kappa(r)), r decreasing, from Fraction distances."""
    dist = pair_distances(action.model)
    perms = [action.token_perm(nm, s) for nm, s in action.signed_tokens()]
    worst = {}
    for (i, j), d in dist.items():
        img = F(0)
        for p in perms:
            a, b = p[i], p[j]
            img = max(img, dist[(a, b) if a < b else (b, a)])
        if d not in worst or img > worst[d]:
            worst[d] = img
    # kappa(r) = max image distance over pairs at distance <= r
    rows = []
    running = F(0)
    for r in sorted(worst):
        running = max(running, worst[r])
        rows.append((r, running))
    return tuple(reversed(rows))


def brute_force_distality(action, word_length, *, perm_cap=20000):
    """(min_delta, {(a, b): delta}) with each delta the least Fraction image
    distance of the pair over the same word ball as `is_distal`."""
    model = action.model
    words, _ = reference_action_ball(action, word_length, perm_cap)
    addrs = model.addresses
    dist = pair_distances(model)
    deltas = {}
    for (i, j), d in dist.items():
        for _, perm in words:
            a, b = perm[i], perm[j]
            d = min(d, dist[(a, b) if a < b else (b, a)])
        deltas[addrs[i], addrs[j]] = d
    return min(deltas.values()), deltas


def brute_force_diameter(model, subset):
    subset = list(subset)
    pairs = itertools.product(subset, subset)
    return max(_distances_between(model, pairs), default=F(0))


def brute_force_eta(model, partition, *, include_complement):
    """Least distance between distinct blocks (and to the complement)."""
    block = {i: k for k, b in enumerate(partition.blocks) for i in b}
    pairs = [
        (a, b)
        for a, b in itertools.product(partition.window, partition.window)
        if block[a] != block[b]
    ]
    if include_complement:
        outside = [i for i in range(len(model)) if i not in partition.window]
        pairs += itertools.product(partition.window, outside)
    return min(_distances_between(model, pairs), default=None)


def measure_weights(action, measure):
    """The Fraction weight of every address index under an InvariantMeasure,
    0 off its support."""
    return [measure.weight if i in measure.support else F(0) for i in range(len(action.model))]


def brute_force_pushforward_invariant(action, measure):
    """mu has total mass one and g_* mu = mu for each signed token, comparing
    Fraction weights address by address: (g_* mu)(a) = mu(g^-1 a)."""
    weight = measure_weights(action, measure)
    if sum(weight) != 1:
        return False
    for name, sign in action.signed_tokens():
        inv = {j: i for i, j in enumerate(action.token_perm(name, sign))}
        for i in range(len(weight)):
            if weight[inv[i]] != weight[i]:
                return False
    return True


def bfs_schreier_diameter(action):
    """Orbit-graph diameter as the largest eccentricity over per-source
    breadth-first searches on index lists."""
    perms = [action.token_perm(name, sign) for name, sign in action.signed_tokens()]
    diameter = 0
    for source in range(len(action.model)):
        seen = {source}
        frontier = [source]
        steps = 0
        while frontier:
            new = [p[i] for i in frontier for p in perms if p[i] not in seen]
            new = list(dict.fromkeys(new))
            seen.update(new)
            if new:
                steps += 1
            frontier = new
        diameter = max(diameter, steps)
    return diameter


def naive_refine_fixed_point(action, window, partition):
    """The window's blocks of the coarsest refinement of the partition (with
    the window's complement as one more block) whose blocks each send all
    their members into one block under every generator and its inverse, by
    splitting one offending block at a time until none splits."""
    outside = set(range(len(action.model))) - set(window)
    blocks = [set(b) for b in partition.blocks] + ([outside] if outside else [])
    perms = [action.token_perm(name, sign) for name, sign in action.signed_tokens()]
    split = True
    while split:
        split = False
        block_of = {a: k for k, b in enumerate(blocks) for a in b}
        for k, p in itertools.product(range(len(blocks)), perms):
            groups = {}
            for i in blocks[k]:
                groups.setdefault(block_of[p[i]], set()).add(i)
            if len(groups) > 1:
                blocks[k : k + 1] = groups.values()
                split = True
                break
    return {frozenset(b) for b in blocks if b <= window}


def left_multiply(gp, gt, point, scaled_tr):
    """(point, scaled translation) of (gp, gt / d) times (point, scaled_tr / d)."""
    return im.mat_mul(gp, point), im.vec_add(gt, im.mat_vec(gp, scaled_tr))


@functools.lru_cache(maxsize=1)
def coset_key_oracle(group, subgroup):
    """The coset key of an element (point, scaled), from a product with each
    rep of H: over the elements (point, scaled) (B, w) of its coset, the one
    of least point class id, its translation reduced modulo the scaled HNF of
    point * L_H (built once per point) by `echelon_divmod`.  The key of the
    last (group, subgroup) is kept and memoised, so the coset space and orbit
    oracles of one level key each product once."""
    class_ids = group.point_class_order()
    pivots = tuple(range(group.dimension))
    bases = {}  # point -> the scaled HNF of point * L_H

    def key(point, scaled):
        basis = bases.get(point)
        if basis is None:
            basis = bases[point] = subgroup.lattice.transform(point).scale(group.denom).basis
        cid, c, tr = min(
            (class_ids[im.mat_mul(point, b.point)], *left_multiply(point, scaled, b.point, b.scaled))
            for b in subgroup.reps
        )
        return cid, im.echelon_divmod(basis, pivots, tr)[1], c

    return functools.lru_cache(maxsize=None)(key)


def bfs_coset_space(group, subgroup):
    """(keys, gen_perms) of G/H by a breadth-first walk that multiplies each
    coset's element by each generator and keys the product afresh, then
    sorts the keys into the canonical order."""
    key = coset_key_oracle(group, subgroup)
    n = group.dimension
    start = key(im.identity(n), (0,) * n)
    keys = [start]  # grows while walked
    found = {start: 0}
    images = []
    for _, red, point in keys:
        row = []
        for _, g in group.generators:
            nkey = key(*left_multiply(g.point, g.scaled, point, red))
            if nkey not in found:
                found[nkey] = len(keys)
                keys.append(nkey)
            row.append(found[nkey])
        images.append(row)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    position = {old: i for i, old in enumerate(order)}
    gen_perms = {
        name: tuple(position[images[old][g]] for old in order)
        for g, (name, _) in enumerate(group.generators)
    }
    return tuple(keys[old] for old in order), gen_perms


def bfs_orbit(space, elements):
    """`CosetSpace.orbit` by multiplying each reached coset's element and
    keying the product afresh: the orbit and each orbit coset's images."""
    key = coset_key_oracle(space.group, space.subgroup)
    index = {k: i for i, k in enumerate(space.keys)}
    seen = {0}
    queue, rows = [0], []
    for i in queue:
        _, red, point = space.keys[i]
        rows.append([index[key(*left_multiply(g.point, g.scaled, point, red))] for g in elements])
        for j in rows[-1]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return queue, rows


def coset_reps(cosets):
    """One element per coset, read off its canonical key (point class id,
    reduced scaled translation, point), in the space's order."""
    d = cosets.group.denom
    return tuple(_element(point, red, d) for _, red, point in cosets.keys)


def index_of(cosets, g):
    """The index of the coset of the element g."""
    return cosets.index_of_scaled(g.point, g.scaled)


def permutation_of(cosets, g, reps=None):
    """Left-multiplication permutation of a coset space induced by an
    arbitrary element, through the key reps (`coset_reps` unless the caller
    passes them, built once)."""
    reps = coset_reps(cosets) if reps is None else reps
    return tuple(index_of(cosets, compose(g, rep)) for rep in reps)


def permutation_orbit_cylinder(tower, subgroup):
    """Indices of the deepest-level cosets in the image of a subgroup, by full
    left-multiplication tables of its generators and their inverses."""
    deepest = tower.space
    reps = coset_reps(deepest)
    perms = []
    for el in subgroup.generator_elements():
        perms.append(permutation_of(deepest, el, reps))
        perms.append(permutation_of(deepest, el.inverse(), reps))
    group = tower.chain.group
    start = index_of(deepest, identity_element(group.dimension, group.denom))
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for i in frontier:
            for p in perms:
                j = p[i]
                if j not in seen:
                    seen.add(j)
                    new.append(j)
        frontier = new
    return frozenset(seen)


def brute_force_core(cosets):
    """Core of H in G: intersect the conjugates of H by every rep of G/H."""
    h = cosets.subgroup
    core = h
    for rep in coset_reps(cosets):
        conj = conjugate(rep, h)
        if conj != core and not subgroup_le(core, conj):
            core = subgroup_intersect(core, conj)
    return core


def index_set(model, addresses):
    """The frozenset of the indices of some addresses of a model."""
    return frozenset(map(model.index.__getitem__, addresses))


def least_cylinder_union_depth(model, subset):
    """Least j such that a set of address indices is an exact union of
    depth-j cylinders."""
    subset = frozenset(subset)
    warp = isinstance(model.metric, WarpMetric)
    for j in range(model.depth + 1):
        keys = [warp_cylinder_key(a, j) if warp else a[:j] for a in model.addresses]
        inside = {keys[i] for i in subset}
        members = {i for i, key in enumerate(keys) if key in inside}
        if members == subset:
            return j
    return None


def check_coding_laws(action, chain_result, *, rng=None, tree_model=True):
    """Fixset, translate partition, equivariance, local constancy, nesting,
    over the return words the chain used.

    Raises AssertionError on any violation; returns the number of checks.
    """
    model = action.model
    window = chain_result.window
    words = chain_result.words
    all_words = words.words  # built once

    def image(k, i):
        """The k-th return word's image of a window address index."""
        return words.images[k][i]

    checks = 0
    prev_v = window
    prev_eps = None
    for lv in chain_result.levels:
        v = lv.v

        # fixset law, exhaustively over the enumerated words
        for k, word in enumerate(all_words):
            img = frozenset(image(k, a) for a in v)
            assert not (img & v) or img == v, (
                f"fixset law fails at level {lv.level} under {word}"
            )
            checks += 1

        # translates pairwise disjoint; cover the window when minimal
        seen = set()
        for _, part in lv.translate_family:
            assert not (part & seen), "translates overlap"
            seen |= part
            checks += 1
        if chain_result.minimal:
            assert seen == set(window), "translates fail to cover the window"

        # local constancy: level set and translates are cylinder unions
        for s in [v] + [p for _, p in lv.translate_family]:
            j = least_cylinder_union_depth(model, s)
            assert j is not None and j <= model.depth
            if tree_model:
                assert j <= lv.cylinder_depth, (
                    "level set is not locally constant at the partition scale"
                )
            checks += 1

        # code equivariance through a translating return word: the code of a
        # translated point under a word equals the code of the original point
        # under the concatenated word
        if rng is not None:
            block_id = lv.partition.labels(len(model))
            win = sorted(window)
            done = 0
            attempts = 0
            while done < 20 and attempts < 400:
                attempts += 1
                u = win[rng.randrange(len(win))]
                gi = rng.randrange(len(all_words))
                hi = rng.randrange(len(all_words))
                u2 = image(gi, u)
                w2 = image(gi, action.basepoint)  # a return word keeps it inside
                if u2 not in window:
                    continue
                if image(hi, w2) not in window:
                    continue
                img = image(hi, u2)
                lhs = block_id[img]
                composed = action.word_perm(all_words[hi] + all_words[gi])
                rhs = block_id[composed[u]]
                assert lhs == rhs, "code equivariance fails"
                checks += 1
                done += 1

        # nesting and strict halving
        assert v <= prev_v
        assert action.basepoint in v
        for _, part in lv.translate_family:
            assert model.diameter(part) < lv.eps
            checks += 1
        if prev_eps is not None:
            assert lv.eps < prev_eps / 2
        prev_v = v
        prev_eps = lv.eps
    return checks
