"""Orbit coding over a finite-depth action: return words, code-equality sets,
translate partitions, and the inductive refinement chain.

The window W is clopen (a union of cylinders).  Return words are the words
whose action sends the basepoint back into W, truncated by length and
deduplicated by their restriction to W.  The level set V is the set of
window points coded identically to the basepoint; its translates under the
return words are pairwise equal or disjoint and, for minimal actions, tile
the window.  The word-length truncation is validated against an equivalent
fixed-point partition refinement and raised automatically when they differ.
All diameters, gaps, and thresholds are exact rationals; no comparison uses
a tolerance.

Points are address indices: the window, the partition blocks, the level
sets and their translates are sets of them, and a return word's image is
read at them.  A ball class's word is built only when read: a new
translate, the report's head; the shortest-word pass builds its own.  The
partition gap and the clopen-window check compare the model's cylinder
label columns (the gap reads rows of pair ranks off a tree), and the
Schreier diameter grows Python-int bitsets, all on the standard library.
The chain takes its modulus table (computed only on the rank route, for
non-tree models) from the caller.

The loop (`code_window`) reads a window source: `ActionWindow`, a window
checked once whose return words run on the action's ball in whatever key
format `action.word_ball` picks, or `ChainWindow`, a chain's window read off
its algebra with no tower, which owns G/H_K: its window's cells, its one
numbering, window first, and G's orbit graph in it.  Each source walks its
orbit graph (the action's own, or G's) once (`action.breadth_first`) and
gives the loop the action's minimality and orbit-graph diameter.
"""

from collections import namedtuple
from fractions import Fraction

from .action import CantorAction, breadth_first, orbit_graph, tuple_getter, word_ball
from .ball import _word_ball
from .errors import InvariantViolation, StructureError
from .limits import BALL_BUDGET, CODING_BUDGET, SCHREIER_SIZE_CAP, ball_cap, check_cells

DEFAULT_WORD_BOUND = 8


# ---------------------------------------------------------------- partitions

class ClopenPartition:
    """Disjoint blocks covering the window, ordered by least element: `window`
    is a frozenset of address indices and `blocks` a tuple of frozensets."""

    __slots__ = ("window", "blocks")

    def __init__(self, window, blocks):
        self.window = window
        self.blocks = blocks

    @classmethod
    def from_blocks(cls, window, blocks):
        window = frozenset(window)
        blocks = [frozenset(b) for b in blocks if b]
        seen = set()
        for b in blocks:
            if b & seen:
                raise StructureError("partition blocks overlap")
            seen |= b
        if seen != window:
            raise StructureError("partition blocks do not cover the window")
        blocks.sort(key=min)
        return cls(window, tuple(blocks))

    def labels(self, n):
        """The block number, from 1, of each of n address indices; 0 off the window."""
        ids = [0] * n
        for label, block in enumerate(self.blocks, start=1):
            for i in block:
                ids[i] = label
        return ids

    def __len__(self):
        return len(self.blocks)


def cylinder_partition(model, subset, depth):
    """Partition of a set of address indices into its depth-j cylinder classes."""
    labels = model.cylinder_labels(depth)
    groups = {}
    for i in subset:
        groups.setdefault(labels[i], set()).add(i)
    return [frozenset(g) for g in groups.values()]


def default_window(action):
    """The depth-1 cylinder containing the basepoint; the full address set
    when that cylinder is a single address (depth-1 models)."""
    model = action.model
    cyl = frozenset(model.cylinder_members(action.basepoint, 1))
    if len(cyl) <= 1:
        return frozenset(range(len(model)))
    return cyl


def _check_clopen_window(action, window):
    """The window as a frozenset, refused unless it holds the basepoint and
    is a union of cylinders of one depth.  The refusal cannot fire where the
    depth-`depth` cylinders are single addresses: on a tree model, whose
    addresses have `depth` levels, and on the warp model.  It guards a model
    whose key function leaves several addresses in one finest cylinder."""
    model = action.model
    window = frozenset(window)
    if action.basepoint not in window:
        raise StructureError("window must contain the basepoint")
    for j in range(model.depth + 1):
        # the window's cylinders hold no other address exactly when their
        # members number as many as the window's
        labels = model.cylinder_labels(j)
        cylinders = {labels[i] for i in window}
        if sum(label in cylinders for label in labels) == len(window):
            return window
    raise StructureError("window is not a union of cylinders")


# --------------------------------------------------------------- return words

class ReturnWordSet:
    """Words of bounded length returning the basepoint to the window,
    deduplicated by their restriction to the window, as a window source's
    `words` gives them.

    The ball enumeration is layer-atomic under a permutation budget, so
    effective_bound records the last exhaustively enumerated word length;
    one shortest transition word per reachable window address is always
    included regardless of its length.  `images[k][i]` is where the k-th
    word sends window address index i, `window` holding those indices in
    ascending order (the level set, its blocks and translates lie in it).
    `word(k)` reads a ball class's word off the `ball` (`classes[k]`) on
    request; the `shortest` words follow, as word tuples.  An ActionWindow's
    images are its ball keys, by reference, then dicts over the window; a
    ChainWindow's are tuples of positions in its window 0..m-1.  `words`
    builds them all, the empty word first.
    """

    __slots__ = ("ball", "classes", "shortest", "bound", "effective_bound", "window", "images")

    def __init__(self, ball, classes, shortest, bound, effective_bound, window, images):
        self.ball = ball
        self.classes = classes
        self.shortest = shortest
        self.bound = bound
        self.effective_bound = effective_bound
        self.window = window
        self.images = images

    def word(self, k):
        """The k-th word, newest token first."""
        if k < len(self.classes):
            return self.ball.word(self.classes[k])
        return self.shortest[k - len(self.classes)]

    @property
    def words(self):
        return tuple(map(self.word, range(len(self))))

    def __len__(self):
        return len(self.images)


def _shortest_words_into_window(graph, layers, via, win_idx):
    """One shortest word sending the basepoint to each window address, with
    the word's window images (as in ReturnWordSet), as (word, image) pairs in
    address order, read off the OrbitGraph's walk `layers, via`
    (`breadth_first`); `win_idx` holds the window's address indices, ascending.

    The words are the walk's tree paths; every such word is a return word by
    construction, and for transitive actions their translates of any
    basepoint block reach every window point.  A token after a word sends
    the window to the token's images of the word's window images, so an
    address's image is one gather of its parent's in the tree.  Words and
    images are built layer by layer, only on the paths to window addresses,
    and a layer's are dropped once the next one's are built.
    """
    w0 = graph.basepoint
    window = set(win_idx)
    on_path = {w0}  # the reached window addresses and their ancestors
    for j in win_idx:
        while via[j] is not None and j not in on_path:
            on_path.add(j)
            j = via[j][0]
    reached = {w0: ((), tuple(win_idx))}
    found = dict(reached)
    for layer in layers[1:]:
        previous, reached = reached, {}
        for j in filter(on_path.__contains__, layer):
            i, k = via[j]
            word, image = previous[i]
            token, p = graph.tokens[k]
            reached[j] = ((token,) + word, tuple_getter(image)(p))  # token after the word
            if j in window:
                found[j] = reached[j]
    return [found[i] for i in win_idx if i in found]


def check_window_cells(size):
    """Refuse return words over a window of `size` addresses: a transitive
    action has a shortest word per window address, each keeping its image."""
    check_cells(size * size, f"return words over a window of {size} addresses")


def code(action, window, partition, point, word):
    """Block index of the word's image of the point; 0 outside the window."""
    if point not in window:
        raise StructureError("coded point must lie in the window")
    return partition.labels(len(action.model))[action.act(word, point)]


def compute_V(action, window, partition, words):
    """Window points whose code function agrees with the basepoint's under
    every word of a ReturnWordSet over the same window, read off its images."""
    if sorted(window) != list(words.window):
        raise StructureError("return words were enumerated over another window")
    block_id = partition.labels(len(action.model))
    w0 = action.basepoint
    keep = words.window
    for image in words.images:
        code0 = block_id[image[w0]]
        keep = [i for i in keep if block_id[image[i]] == code0]
        if keep == [w0]:  # the basepoint always agrees with itself
            break
    return frozenset(keep)


def translates(v, words):
    """Distinct images of V under a ReturnWordSet's words, read off its
    images, as (k, image) pairs for the first word k of each
    (`words.word(k)`); no word is built here.

    Any two images must be equal or disjoint; overlap without equality is a
    hard error (a mis-specified or non-equicontinuous action).
    """
    seen = {}  # translate -> its first word's index, in order of appearance
    covered = set()
    for k, image in enumerate(words.images):
        img_idx = frozenset(map(image.__getitem__, v))
        if img_idx in seen:
            continue
        if img_idx & covered:
            other = next(s for s in seen if s & img_idx)
            raise InvariantViolation(
                "translate overlap without equality under word "
                f"{words.word(k)!r} (images share {len(img_idx & other)} addresses)"
            )
        seen[img_idx] = k
        covered |= img_idx
    return [(k, part) for part, k in seen.items()]


# ------------------------------------------------------- fixed-point version

def refine_fixed_point(action, window, partition):
    """Coarsest refinement whose blocks have well-defined generator codes.

    Iterated splitting of all classes (the window complement starts as one
    class and splits too) by generator images until stable; bijectivity makes
    the fixed point stable under inverses as well; each round is C-level maps.
    Returns the stabilized partition restricted to the window.
    """
    ids = partition.labels(len(action.model))
    gens = list(action.generators.values())
    classes = len(set(ids))
    while True:
        signatures = list(zip(ids, *[map(ids.__getitem__, p) for p in gens]))
        relabel = dict.fromkeys(signatures)  # in order of first appearance
        if len(relabel) == classes:
            break
        classes = len(relabel)
        ids = list(map(dict(zip(relabel, range(classes))).__getitem__, signatures))
    blocks = {}
    for i in window:
        blocks.setdefault(ids[i], set()).add(i)
    return ClopenPartition.from_blocks(window, blocks.values())


def schreier_diameter(graph):
    """Exact diameter of the (undirected) orbit graph, an OrbitGraph, or None
    above SCHREIER_SIZE_CAP addresses.

    After d rounds, row u of `reach` is the set of addresses within d steps
    of u, as the bits of one Python int.  A round ORs in the row of each
    neighbour p(u), which grows every ball by one step; the signed tokens are
    closed under inverses, so these are the balls of the undirected graph.
    The number of rounds that change some row is the largest eccentricity:
    the diameter, and on disconnected actions the maximum over components.
    """
    n = graph.size
    if n > SCHREIER_SIZE_CAP:
        return None
    reach = [1 << u for u in range(n)]
    rounds = 0
    while True:
        new = reach
        for _, p in graph.tokens:
            new = [a | reach[j] for a, j in zip(new, p)]
        if new == reach:
            return rounds
        reach = new
        rounds += 1


# ------------------------------------------------------------ window sources

class ActionWindow:
    """A window of a CantorAction (`default_window` unless given), checked
    once, as `code_window` reads it: the `action` holding its points, the
    address `size`, the `gap` from the window to the rest (None when there
    is none), the action's own OrbitGraph `graph`, walked once, here
    (`breadth_first`), the action `minimal` when the walk reaches every
    address, the graph's `diameter()`, and `words(bound, budget)`, its
    ReturnWordSet, shortest words read off the walk.  A window over the cell cap is refused here,
    before any ball permutation."""

    def __init__(self, action, window=None):
        window = _check_clopen_window(action, default_window(action) if window is None else window)
        check_window_cells(len(window))
        self.action, self.window, self.size = action, window, len(action.model)
        whole = ClopenPartition(window, (window,))
        self.gap = _eta_of_partition(action.model, whole, include_complement=True)
        self.graph = action.graph
        self._walk = breadth_first(self.graph)
        self.minimal = None not in self._walk[1]

    def diameter(self):
        return schreier_diameter(self.graph)

    def words(self, bound, budget):
        """Words of length at most `bound`, from a ball of at most `budget`
        permutations, landing the basepoint in the window, plus one shortest
        transition word per window address with a new image.  The landing
        classes are told apart by one C-level gather of the key at the
        window (`word_ball`'s `at`), the first of each keeping its key as
        its image, and no word is built."""
        window, w0 = self.window, self.action.basepoint
        win_idx = sorted(window)
        ball, completed, at = word_ball(self.action, bound, perm_cap=budget)
        restrict = at(win_idx)
        first = {}  # window restriction -> its first class, in ball order
        for i, key in enumerate(ball):
            if key[w0] in window:
                first.setdefault(restrict(key), i)
        classes, shortest = list(first.values()), []
        images, as_key = [ball[i] for i in classes], type(restrict(ball[0]))
        for word, image in _shortest_words_into_window(self.graph, *self._walk, win_idx):
            if as_key(image) not in first:
                shortest.append(word)
                images.append(dict(zip(win_idx, image)))
        return ReturnWordSet(ball, classes, shortest, bound, completed, tuple(win_idx), images)


class ChainWindow:
    """A chain's default window read off its algebra, with ActionWindow's
    attributes and no tower; it owns G/H_K, the one coset space (`space`) it
    enumerates once the window's cells pass the cap.  W = H_1/H_K is the
    identity coset's orbit under H_1 (all of G/H_1 at depth 1).  A window
    coset's depth-j cylinder is its H_j coset.  W is a block of G's action,
    so a word maps W into W exactly when its element lies in H_1, and the
    fixed point restricted to W is H_1's: `action` is H_1 on W.  The rest of
    G/H_K lies at distance lam^0.  `graph` is G's orbit graph on G/H_K,
    numbered window first (`_check_descent`).  `words` runs the ball on coset
    keys of core(H_K), whose classes are the boundary action's word
    permutations; a class lands when its element's H_K coset lies in W, and
    its image of W, in window positions, is one gather per token of its path
    through `graph`; the first class of each image keeps it, and builds no
    word.  G is transitive, so the action is `minimal`; `graph` is walked
    once, here, for the shortest words and the `diameter()` of a normal H_K."""

    def __init__(self, chain, lam):
        from .affine import coset_space, normal_core, quotient_word_keys
        from .tower import chain_model

        group, levels = chain.group, chain.levels
        upper = levels[0] if chain.depth > 1 else group.normal_form
        check_window_cells(group.index_of(levels[-1]) // group.index_of(upper))
        self.space = space = coset_space(group, levels[-1])
        order, rows = space.orbit(upper.generator_elements())
        points = sorted(order)
        self.size = space.index
        self.gap = Fraction(1) if len(points) < space.index else None
        model = chain_model(chain, [space.keys[i] for i in points], lam)
        self._where, gen_perms = self._check_descent(model, points)
        rows = [row for _, row in sorted(zip(order, rows))]
        perms = {f"h{e}": tuple_getter(col)(self._where) for e, col in enumerate(zip(*rows))}
        self.action = CantorAction(model, perms, 0, label=chain.label)
        self.graph = orbit_graph(space.index, 0, gen_perms)
        self._walk = breadth_first(self.graph)
        self._cores = {chain.depth: normal_core(group, levels[-1])}
        self._ball = quotient_word_keys(group, self._cores[chain.depth])
        by_token = dict(self.graph.tokens)
        self._perms = [by_token[token] for token, _ in self._ball[0]]  # by ball token index
        self._levels = levels

    def _check_descent(self, model, points):
        """The descent gate, and the one numbering of G/H_K: each generator
        maps every translate of W it reaches (structured as W through the
        first word reaching it) onto one, and, read back on W, each cylinder
        of W into one cylinder, so every word's image of W does too
        (InvariantViolation otherwise).  Returns `where`, each G/H_K index's
        translate number * m + position, W (`points`) being translate 0 and
        the others numbered as the walk finds them, so where[i] < m exactly on
        W's cosets (G is transitive), and each generator's permutation in it."""
        m = len(points)
        columns = [model.cylinder_labels(j) for j in range(2, model.depth)]  # levels 2..K-1
        counts = [len(set(labels)) for labels in columns]
        where = [None] * self.size
        for t, i in enumerate(points):
            where[i] = t
        translates = [points]
        perms = {name: [] for name, _ in self.space.group.generators}
        for f in translates:  # grows while walked
            for name, perm in perms.items():
                image = tuple_getter(f)(self.space.gen_perms[name])
                found = tuple_getter(image)(where)
                if found.count(None) == m:  # a new translate
                    found = range(len(translates) * m, (len(translates) + 1) * m)
                    for t, i in zip(found, image):
                        where[i] = t
                    translates.append(image)
                if None not in found and min(found) // m == max(found) // m:
                    local = [x % m for x in found]  # read back on W
                    if [len(set(zip(c, map(c.__getitem__, local)))) for c in columns] == counts:
                        perm.extend(found)
                        continue
                raise InvariantViolation(
                    f"generator {name} does not map the translates of the window onto "
                    "one another cylinder by cylinder: the generator permutations do "
                    "not descend"
                )
        return where, {name: tuple(perm) for name, perm in perms.items()}

    minimal = True

    def diameter(self):
        """For H_K normal (its own core) the Cayley graph of G/H_K, whose
        diameter is the basepoint's eccentricity, the walk's depth; None
        above SCHREIER_SIZE_CAP cosets, as `schreier_diameter` otherwise."""
        normal = self._cores[len(self._levels)] == self._levels[-1]
        if normal and self.size <= SCHREIER_SIZE_CAP:
            return len(self._walk[0]) - 1
        return schreier_diameter(self.graph)

    def core_orbit(self, level):
        """The orbit of the identity coset under McCord's core of the level
        (`normal_core`, computed once per level) in G/H_K, in window
        positions: the cylinder the level set must equal.  The core lies in
        H_1, so its orbit lies in W."""
        from .affine import normal_core

        if level not in self._cores:
            self._cores[level] = normal_core(self.space.group, self._levels[level - 1])
        orbit = self.space.orbit(self._cores[level].generator_elements())[0]
        return frozenset(map(self._where.__getitem__, orbit))

    def words(self, bound, budget):
        tokens, identity, compose = self._ball
        ball, completed = _word_ball(tokens, identity, bound, ball_cap(budget, self.size), compose)
        window = tuple(range(len(self.action.model)))
        first = {}  # window image -> its first class, in ball order
        for i, (_, red, point) in enumerate(ball):
            if self._where[self.space.index_of_scaled(point, red)] < len(window):
                image = window
                for t in ball.path(i):
                    image = tuple_getter(image)(self._perms[t])
                first.setdefault(image, i)
        if max(map(max, first)) >= len(window):  # the landing test vs the permutations
            raise InvariantViolation(
                "a return word's permutation of G/H_K maps the window off itself: "
                "the generator permutations do not descend"
            )
        images, shortest = list(first), []  # the descent gate keeps shortest words in W
        for word, image in _shortest_words_into_window(self.graph, *self._walk, window):
            if image not in first:
                shortest.append(word)
                images.append(image)
        return ReturnWordSet(ball, list(first.values()), shortest, bound, completed, window, images)


# ------------------------------------------------------------- coding chain

# partition: a ClopenPartition of the window; translate_family: a tuple of
# (word, frozenset) pairs
CodingLevel = namedtuple(
    "CodingLevel",
    "level eps eps_prime eps_prime_sub_resolution eta delta delta_sub_resolution "
    "cylinder_depth partition v translate_family covers_window",
)


class CodingChain(
    namedtuple(
        "CodingChain", "window levels word_bound_requested words schreier_diam minimal"
    )
):
    """The levels of `code_window`.  `words` is the final ReturnWordSet (the
    bound used, the effective bound, the classes); `schreier_diam` is None
    above the size cap."""

    __slots__ = ()

    @property
    def depth(self):
        return len(self.levels)


def _least_cylinder_depth(model, subset, bound):
    """Least depth whose cylinder classes of the subset all have diameter
    strictly below the bound."""
    for m in range(1, model.depth + 1):
        blocks = cylinder_partition(model, subset, m)
        if all(model.diameter(b) < bound for b in blocks):
            return m, blocks
    raise StructureError("no cylinder depth achieves the requested diameter")


def _eta_of_partition(model, partition, *, include_complement):
    """Least distance between distinct blocks (and to the complement), or
    None when no such pair exists.

    The complement counts as block 0, and only when included.  On a tree two
    addresses lie within lam^j exactly when they share a depth-j cylinder, so
    eta is lam to the deepest j at which one depth-j cylinder holds two
    different block ids: one whose (cylinder, block) pairs outnumber its
    cylinders.  Otherwise eta is the least pair rank between a block and the
    addresses labelled otherwise.
    """
    block_id = partition.labels(len(model))
    labelled = [i for i, b in enumerate(block_id) if b or include_complement]
    if model.is_tree:
        ids = list(map(block_id.__getitem__, labelled))
        for j in range(model.depth - 1, -1, -1):
            cylinders = list(map(model.cylinder_labels(j).__getitem__, labelled))
            if len(set(zip(cylinders, ids))) > len(set(cylinders)):
                return model.metric.lam ** j
        return None
    realized, rank = model.pair_ranks()
    least = None
    for label, block in enumerate(partition.blocks, start=1):
        others = [k for k in labelled if block_id[k] != label]
        if others:
            get = tuple_getter(others)
            gap = min(min(get(rank[i])) for i in block)
            least = gap if least is None else min(least, gap)
    return None if least is None else realized[least]


def _witness_or_subresolution(table, eps):
    value = table.equicontinuity_witness(eps)
    if value is not None:
        return value, False
    sub = table.sub_resolution_delta()
    if sub is None or eps <= 0:
        raise InvariantViolation(
            "no equicontinuity witness exists for the requested scale; "
            "the action's modulus table is degenerate"
        )
    return sub, True


def code_window(source, table, word_bound=DEFAULT_WORD_BOUND):
    """Run the inductive refinement on a window source (`ActionWindow` or
    `ChainWindow`): level sets, translates, and constants.

    `table` is the action's ModulusTable; the source gives its minimality
    (`source.minimal`) and orbit-graph diameter (`source.diameter()`, None
    when uncomputed).
    Stops when the level set is a single address or a piece of the last
    level has diameter 0.  Every level's code-equality set is validated against
    the fixed-point refinement; a disagreement raises the word bound, up to
    the orbit-graph diameter (address count when the diameter is uncomputed).
    The level-1 gap counts the addresses off the window (`source.gap`).
    """
    action = source.action
    model = action.model
    minimal, diameter = source.minimal, source.diameter()
    ceiling = max(word_bound, diameter if diameter is not None else source.size)
    bound = word_bound
    hard_budget = ball_cap(CODING_BUDGET, source.size)  # the ball's own clamp
    budget = min(BALL_BUDGET, hard_budget)
    words = source.words(bound, budget)
    window = frozenset(words.window)

    levels = []
    v_prev = window
    prev = [(words.images[0], window)]  # each translate's word's image, and the translate
    eps_prev = None
    level = 0
    while True:
        if len(v_prev) <= 1:
            break
        level += 1
        if level == 1:
            eps = model.diameter(window)
            eps_prime, eps_sub = eps, False
        else:
            eps = Fraction(1, 2) * min(model.diameter(part) for _, part in prev)
            if eps <= 0:
                break
            eps_prime, eps_sub = _witness_or_subresolution(table, eps)
        m, base_blocks = _least_cylinder_depth(model, v_prev, eps_prime)

        # extend the partition of the level set across its translates, through
        # their words' images (the empty word first); any window remainder
        # (non-minimal actions) is partitioned by the same cylinder depth
        all_blocks = []
        for image, _ in prev:
            all_blocks.extend(frozenset(map(image.__getitem__, b)) for b in base_blocks)
        covered = set().union(*all_blocks)
        remainder = window - covered
        if remainder:
            all_blocks.extend(cylinder_partition(model, remainder, m))
        partition = ClopenPartition.from_blocks(window, all_blocks)

        eta = _eta_of_partition(model, partition, include_complement=False)
        if level == 1 and source.gap is not None:
            eta = source.gap if eta is None else min(eta, source.gap)
        delta, delta_sub = _witness_or_subresolution(table, eta)

        fixed = refine_fixed_point(action, window, partition)
        target = next(b for b in fixed.blocks if action.basepoint in b)
        while True:
            v = compute_V(action, window, partition, words)
            matches_fixed_point = v == target
            if matches_fixed_point:
                members = translates(v, words)
                covers = set().union(*(p for _, p in members)) == window
                if covers or not minimal:
                    break
            if words.effective_bound < bound and budget < hard_budget:
                budget = min(hard_budget, budget * 4)
            elif bound < ceiling:
                bound = min(ceiling, bound * 2)
            elif matches_fixed_point:
                raise InvariantViolation(
                    f"translates fail to cover the window at level {level} "
                    f"even at the orbit-graph diameter bound {ceiling}"
                )
            else:
                raise InvariantViolation(
                    "word-bounded coding disagrees with the fixed-point "
                    f"refinement at level {level} even at the orbit-graph "
                    f"diameter bound {ceiling}"
                )
            words = source.words(bound, budget)

        family = tuple((words.word(k), part) for k, part in members)
        if action.basepoint not in v:
            raise InvariantViolation("level set lost the basepoint")
        if not v <= v_prev:
            raise InvariantViolation("level sets are not nested")
        for _, part in family:
            if not model.diameter(part) < eps:
                raise InvariantViolation(
                    f"translate diameter is not below eps at level {level}"
                )
        if eps_prev is not None and not eps < eps_prev / 2:
            raise InvariantViolation("eps fails the strict halving rule")

        levels.append(
            CodingLevel(
                level,
                eps,
                eps_prime,
                eps_sub,
                eta,
                delta,
                delta_sub,
                m,
                partition,
                v,
                family,
                covers,
            )
        )
        v_prev = v
        prev = [(words.images[k], part) for k, part in members]
        eps_prev = eps

    return CodingChain(
        window, tuple(levels), word_bound, words, diameter, minimal
    )
