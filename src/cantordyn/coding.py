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
sets and their translates are sets of them, and each return word keeps only
its restriction to W, a tuple of them, which is all the chain reads.  The
word ball takes the model's representation (bytes up to 256 addresses,
tuples above), the partition gap and the clopen-window check compare the
model's cylinder label columns (the gap reads rows of pair ranks off a
tree), and the Schreier diameter grows Python-int bitsets, all on the
standard library.  The chain takes its modulus table (computed
only on the rank route, for non-tree models), minimality and orbit-graph
diameter from the caller.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .action import tuple_getter, word_ball
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
    deduplicated by their restriction to the window.

    The ball enumeration is layer-atomic under a permutation budget, so
    effective_bound records the last exhaustively enumerated word length;
    one shortest transition word per reachable window address is always
    included regardless of its length.  `images[k][t]` is the address index
    the k-th word sends the t-th window address to, `window` holding their
    indices in ascending order: the level set, its base blocks and every
    translate lie in the window.  `words` holds word tuples, the empty word
    first.
    """

    __slots__ = ("words", "bound", "effective_bound", "window", "images")

    def __init__(self, words, bound, effective_bound, window, images):
        self.words = words
        self.bound = bound
        self.effective_bound = effective_bound
        self.window = window
        self.images = images

    def __eq__(self, other):
        """Equal words, bound and effective bound; window and images are
        not compared."""
        if other.__class__ is not ReturnWordSet:
            return NotImplemented
        return (self.words, self.bound, self.effective_bound) == (
            other.words, other.bound, other.effective_bound
        )

    def __len__(self):
        return len(self.words)

    def positions(self, subset):
        """Positions in `window` of a subset of its address indices."""
        where = {i: t for t, i in enumerate(self.window)}
        try:
            return [where[i] for i in subset]
        except KeyError:
            raise StructureError("subset must lie in the return words' window")


def _shortest_words_into_window(action, win_idx):
    """One shortest word sending the basepoint to each window address, with
    the word's window images (as in ReturnWordSet), as (word, image) pairs in
    address order; `win_idx` holds the window's address indices, ascending.

    Breadth-first search over the orbit graph; every such word is a return
    word by construction, and for transitive actions their translates of any
    basepoint block reach every window point.  A token after a word sends
    the window to the token's images of the word's window images, so each
    reached address's image is one gather of its parent's.
    """
    w0 = action.basepoint
    win_set = set(win_idx)
    tokens = [(token, action.token_perm(*token)) for token in action.signed_tokens()]
    start = ((), tuple(win_idx))
    seen = {w0}
    found = {w0: start}  # the window holds the basepoint
    frontier = [(w0, start)]
    while frontier:
        new = []
        for i, (word, image) in frontier:
            after = tuple_getter(image)
            for tok, p_tok in tokens:
                j = p_tok[i]
                if j not in seen:
                    seen.add(j)
                    reached = ((tok,) + word, after(p_tok))  # token after the word
                    if j in win_set:
                        found[j] = reached
                    new.append((j, reached))
        frontier = new
    return [found[i] for i in sorted(found)]


def check_window_cells(size):
    """Refuse return words over a window of `size` addresses: each word keeps
    its image of the window, and a transitive action has a word per address."""
    check_cells(size * size, f"return words over a window of {size} addresses")


def return_words(action, window, bound=DEFAULT_WORD_BOUND, *, perm_budget=BALL_BUDGET):
    """Ball words of bounded length landing the basepoint in the window, plus
    one shortest transition word per reachable window address.

    The ball takes the model's representation (`action.word_ball`), and each
    ball permutation is restricted to the window by one `tuple_getter`.  A
    window over the cell cap is refused before any ball permutation.
    """
    window = _check_clopen_window(action, window)
    check_window_cells(len(window))
    w0 = action.basepoint
    win_idx = sorted(window)
    pairs, completed = word_ball(action, bound, perm_cap=perm_budget)
    restrict = tuple_getter(win_idx)
    first_word = {}  # window image -> its first word, in word order
    for word, perm in pairs:
        if perm[w0] in window:
            first_word.setdefault(restrict(perm), word)
    for word, image in _shortest_words_into_window(action, win_idx):
        first_word.setdefault(image, word)
    return ReturnWordSet(
        tuple(first_word.values()), bound, completed, tuple(win_idx), tuple(first_word)
    )


def code(action, window, partition, point, word):
    """Block index of the word's image of the point; 0 outside the window."""
    if point not in window:
        raise StructureError("coded point must lie in the window")
    return partition.labels(len(action.model))[action.act(word, point)]


def compute_V(action, window, partition, words):
    """Window points whose code function agrees with the basepoint's under
    every word of a ReturnWordSet over the same window."""
    if sorted(window) != list(words.window):
        raise StructureError("return words were enumerated over another window")
    block_id = partition.labels(len(action.model))
    (b0,) = words.positions([action.basepoint])
    keep = range(len(words.window))
    for image in words.images:
        code0 = block_id[image[b0]]
        keep = [t for t in keep if block_id[image[t]] == code0]
    return frozenset(map(words.window.__getitem__, keep))


def translates(action, v, words):
    """Distinct images of V under the return words, first word per image.

    Any two images must be equal or disjoint; overlap without equality is a
    hard error (a mis-specified or non-equicontinuous action).
    """
    v_pos = words.positions(v)
    out = []
    seen = {}
    covered = set()
    for word, image in zip(words.words, words.images):
        img_idx = frozenset([image[t] for t in v_pos])
        if img_idx in seen:
            continue
        if img_idx & covered:
            other = next(s for s in seen if s & img_idx)
            raise InvariantViolation(
                "translate overlap without equality under word "
                f"{word!r} (images share {len(img_idx & other)} addresses)"
            )
        seen[img_idx] = word
        covered |= img_idx
        out.append((word, img_idx))
    return tuple(out)


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


def schreier_diameter(action):
    """Exact diameter of the (undirected) orbit graph, or None above
    SCHREIER_SIZE_CAP addresses.

    After d rounds, row u of `reach` is the set of addresses within d steps
    of u, as the bits of one Python int.  A round ORs in the row of each
    neighbour p(u), which grows every ball by one step; the signed tokens are
    closed under inverses, so these are the balls of the undirected graph.
    The number of rounds that change some row is the largest eccentricity:
    the diameter, and on disconnected actions the maximum over components.
    """
    n = len(action.model)
    if n > SCHREIER_SIZE_CAP:
        return None
    perms = [action.token_perm(*token) for token in action.signed_tokens()]
    reach = [1 << u for u in range(n)]
    rounds = 0
    while True:
        new = reach
        for p in perms:
            new = [a | reach[j] for a, j in zip(new, p)]
        if new == reach:
            return rounds
        reach = new
        rounds += 1


def basepoint_eccentricity(action):
    """The basepoint's eccentricity in the orbit graph, by one breadth-first
    search, or None above SCHREIER_SIZE_CAP addresses: the diameter when the
    graph is vertex-transitive, as the Cayley graph of G/H_K is for H_K normal."""
    if len(action.model) > SCHREIER_SIZE_CAP:
        return None
    perms = [action.token_perm(*token) for token in action.signed_tokens()]
    seen = frontier = {action.basepoint}
    rounds = -1
    while frontier:
        frontier = {j for p in perms for j in map(p.__getitem__, frontier)} - seen
        seen = seen | frontier
        rounds += 1
    return rounds


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
    """The levels of `coding_chain`.  `words` is the final ReturnWordSet (the
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


def coding_chain(action, table, minimal, diameter, window=None, word_bound=DEFAULT_WORD_BOUND):
    """Run the inductive refinement: level sets, translates, and constants.

    `table`, `minimal` and `diameter` are the action's ModulusTable,
    minimality and orbit-graph diameter (None when uncomputed).
    Stops when the level set is a single address or a piece of the last
    level has diameter 0.  Every level's code-equality set is validated against
    the fixed-point refinement; a disagreement raises the word bound, up to
    the orbit-graph diameter (address count when the diameter is uncomputed).
    """
    model = action.model
    if window is None:
        window = default_window(action)
    ceiling = max(word_bound, diameter if diameter is not None else len(model))
    bound = word_bound
    hard_budget = ball_cap(CODING_BUDGET, len(model))  # word_ball's own clamp
    budget = min(BALL_BUDGET, hard_budget)
    words = return_words(action, window, bound, perm_budget=budget)
    window = frozenset(words.window)  # checked clopen by return_words

    levels = []
    v_prev = window
    prev_family = (((), window),)
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
            eps = Fraction(1, 2) * min(
                model.diameter(part) for _, part in prev_family
            )
            if eps <= 0:
                break
            eps_prime, eps_sub = _witness_or_subresolution(table, eps)
        m, base_blocks = _least_cylinder_depth(model, v_prev, eps_prime)

        # extend the partition of the level set across its translates, through
        # the window images their words have in `words` (the empty word
        # first); any window remainder (non-minimal actions) is partitioned by
        # the same cylinder depth
        image_of = dict(zip(words.words, words.images))
        base_pos = [words.positions(b) for b in base_blocks]
        all_blocks = []
        for word, _ in prev_family:
            image = image_of[word]
            all_blocks.extend(frozenset(image[t] for t in pos) for pos in base_pos)
        covered = set().union(*all_blocks)
        remainder = window - covered
        if remainder:
            all_blocks.extend(cylinder_partition(model, remainder, m))
        partition = ClopenPartition.from_blocks(window, all_blocks)

        include_complement = level == 1 and len(window) < len(model)
        eta = _eta_of_partition(model, partition, include_complement=include_complement)
        delta, delta_sub = _witness_or_subresolution(table, eta)

        fixed = refine_fixed_point(action, window, partition)
        target = next(b for b in fixed.blocks if action.basepoint in b)
        while True:
            v = compute_V(action, window, partition, words)
            matches_fixed_point = v == target
            if matches_fixed_point:
                family = translates(action, v, words)
                covers = set().union(*(p for _, p in family)) == window
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
            words = return_words(action, window, bound, perm_budget=budget)

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
        prev_family = family
        eps_prev = eps

    return CodingChain(
        window, tuple(levels), word_bound, words, diameter, minimal
    )
