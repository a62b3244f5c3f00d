"""Finite-depth Cantor models, exact metrics, and dynamical diagnostics.

A point is an address index: generators are index permutations, and the
basepoint, orbits and subsets are indices.  Addresses, hashable tuples over
per-level alphabets (or a reserved collapsed token), are only the points'
labels, read by the metric and by the cylinder key, which
`CantorModel.cylinder_labels` turns once per depth into a column of small
ints, one per address index.  Metrics are exact rational functions, and the
pairwise engines (least distance, diameters, partition gaps) take one of two
routes by metric.  On a tree metric two addresses lie within lam^j exactly
when they share a depth-j cylinder, so the engines compare label columns.  Any
other metric (the warp product, by its few pair classes) ranks its pairs once:
each pair's index into the ascending tuple of exact realized distances, a
tuple of ints per address read through `operator.itemgetter` gathers, so the
engines compare integers and read exact Fractions back only for the values
they report.  The modulus table takes the rank route alone, scanning pair by
pair only the generators that are no isometry: a tree model here is a chain's
boundary action, whose table is read off the chain, and the cylinder engine
for it is a test oracle.  Nothing here touches floating point.

The word ball itself, and the modulus and distality records, live in
`ball`, which a chain's `classify` reads without this module.  `word_ball`
is the one front door to an action's ball: it picks the key format, bytes
permutations (by `bytes.translate`, whose alphabet is BYTE_ALPHABET) up to
256 addresses and tuples above, and hands back the gather that reads a key
at given indices in that format; a chain's ball runs on coset keys.  The
model spells its addresses (`CantorModel.spell`) and reads them back
(`CantorModel.lookup`), for the CLI and for the errors raised here.
`orbit_graph` is the one builder of an orbit graph, the signed tokens with
their permutations, which each CantorAction holds.  All here needs only the
standard library: the engines these replace are test oracles, in `tests/`.
The invariant measure is uniform on an orbit, where the action is
transitive, so it is a support set and one weight.
"""

import operator
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from itertools import chain

from .ball import DistalityVerdict, ModulusTable, _word_ball
from .errors import InvariantViolation, StructureError
from .limits import BALL_BUDGET, ball_cap, check_cells

BYTE_ALPHABET = 256  # the alphabet of bytes.translate: most addresses a bytes perm holds
COLLAPSED = "w0"


# ----------------------------------------------------------------- metrics

class TreeMetric(namedtuple("TreeMetric", "lam")):
    """Ultrametric lam^j for first disagreement at level j+1."""

    __slots__ = ()

    def __new__(cls, lam):
        lam = Fraction(lam)
        if not 0 < lam < 1:
            raise StructureError("tree metric base must be a rational in (0,1)")
        return super().__new__(cls, lam)

    def distance(self, a, b):
        if a == b:
            return Fraction(0)
        return self.lam ** common_prefix(a, b)


def common_prefix(a, b):
    """Number of leading levels on which two addresses agree."""
    j = 0
    for x, y in zip(a, b):
        if x != y:
            break
        j += 1
    return j


class WarpMetric(namedtuple("WarpMetric", "depth lam1")):
    """d0(x,x') + min(x,x') * d1(y,y') on a product collapsed along x = 0.

    Addresses are either the collapsed token or pairs (x_digits, y_digits);
    x_digits are middle-thirds digits in {0,2} read most-significant first,
    with value sum(digit_i / 3^i); d1 is a tree metric on the y digits.

    The min coefficient makes fiber distances shrink toward the collapsed
    point, vanishes against the collapsed class without a special case, and
    satisfies the triangle inequality exactly; weighting by max instead
    breaks the triangle inequality (take x small, x' large, and move through
    (x, y') to change the fiber coordinate cheaply before climbing).
    """

    __slots__ = ()

    def __new__(cls, depth, lam1=Fraction(1, 2)):
        lam1 = Fraction(lam1)
        if not 0 < lam1 < 1:
            raise StructureError("warp fiber base lam1 must be a rational in (0,1)")
        return super().__new__(cls, depth, lam1)

    def x_value(self, a):
        if a == COLLAPSED:
            return Fraction(0)
        return Fraction(int("".join(map(str, a[0])), 3), 3 ** len(a[0]))

    def d1(self, ya, yb):
        return Fraction(0) if ya == yb else self.lam1 ** common_prefix(ya, yb)

    def distance(self, a, b):
        if a == b:
            return Fraction(0)
        xa, xb = self.x_value(a), self.x_value(b)
        if a == COLLAPSED or b == COLLAPSED:
            return abs(xa - xb)
        return abs(xa - xb) + min(xa, xb) * self.d1(a[1], b[1])

    def pair_ranks(self, addresses):
        """(realized, rank) as `CantorModel.pair_ranks` reads them, exact for
        every lam1 = p/q at depth K.  With X the x digits read in base 3 (0 at
        the collapsed point), a pair's distance is |X_a - X_b| q^K + min(X_a,
        X_b) w(j) over 3^K q^K, where w(j) = p^j q^(K-j) for a y agreement of
        length j < K, and 0 for j = K: the y parts agree fully or either point
        is collapsed.  So it depends only on the class (X_a, X_b, j), coded
        (index of X_b) (K+1) + j in one column per distinct y part.  An X_a's
        classes are its y parts' codes; all keys are sorted once, and a's row
        is its y part's column gathered through X_a's ranks by code."""
        p, q, k = self.lam1.numerator, self.lam1.denominator, self.depth
        qk, width = q ** k, k + 1
        weight = [p ** j * q ** (k - j) for j in range(k)] + [0]
        xs = [0 if a == COLLAPSED else int("".join(map(str, a[0])), 3) for a in addresses]
        ys = [None if a == COLLAPSED else tuple(a[1]) for a in addresses]
        x_values = list(dict.fromkeys(xs))
        base = [x_values.index(x) * width for x in xs]  # (index of X_b) (K+1)
        y_parts = list(dict.fromkeys(ys))
        gathers, found = {}, {}  # y part -> the gather of each b's code against it, its codes
        for ya in y_parts:
            agree = {yb: k if None in (ya, yb) else common_prefix(ya, yb) for yb in y_parts}
            column = list(map(operator.add, base, map(agree.__getitem__, ys)))
            gathers[ya], found[ya] = tuple_getter(column), set(column)
        codes = {}  # X_a -> the codes of the classes it realizes
        for xa, ya in zip(xs, ys):
            codes.setdefault(xa, set()).update(found[ya])
        tables = {}  # X_a -> the key of each code it realizes, then its rank
        for xa, cs in codes.items():
            table = tables[xa] = [None] * (width * len(x_values))
            for c in cs:
                xb = x_values[c // width]
                table[c] = abs(xa - xb) * qk + min(xa, xb) * weight[c % width]
        keys = sorted(set().union(*tables.values()) - {None})
        for table in tables.values():
            table[:] = [None if key is None else bisect_left(keys, key) for key in table]
        realized = tuple(Fraction(value, 3 ** k * qk) for value in keys)
        return realized, [gathers[ya](tables[xa]) for xa, ya in zip(xs, ys)]


def warp_cylinder_key(address, j):
    """Depth-j clopen partition of a collapsed warp model.

    Blocks with an all-zero x prefix glue into the collapsed point's cylinder;
    every other block is an ordinary product cylinder.
    """
    if j == 0:
        return ()
    if address == COLLAPSED:
        return ("x0", (0,) * j)
    xp = address[0][:j]
    if all(d == 0 for d in xp):
        return ("x0", xp)
    return (xp, address[1][:j])


class CantorModel:
    """A finite ordered address set with an exact metric and cylinder keys;
    a tree model's addresses must be tuples of `depth` levels (StructureError
    otherwise), so its depth-`depth` cylinders are single addresses."""

    def __init__(self, addresses, depth, metric, cylinder_key=None):
        self.addresses = tuple(addresses)
        if len(set(self.addresses)) != len(self.addresses):
            raise StructureError("addresses must be distinct")
        if not self.addresses:
            raise StructureError("model needs at least one address")
        self.depth = int(depth)
        self.metric = metric
        self._cylinder_key = cylinder_key or (lambda a, j: a[:j])
        self.index = {a: i for i, a in enumerate(self.addresses)}
        self.is_tree = isinstance(metric, TreeMetric)
        if self.is_tree and any(
            not isinstance(a, tuple) or len(a) != self.depth for a in self.addresses
        ):
            raise StructureError(
                f"the addresses of a tree model of depth {self.depth} "
                f"must be {self.depth}-level tuples"
            )
        self._pair_ranks = None
        self._cylinder_labels = {}

    def __len__(self):
        return len(self.addresses)

    def distance(self, a, b):
        return self.metric.distance(a, b)

    def spell(self, i):
        """Address index i, spelled as the CLI reads and prints it: w0, the
        warp product's x:y digits, or a tree address's dotted ints."""
        address = self.addresses[i]
        if isinstance(address, str):  # the collapsed point
            return address
        if address and isinstance(address[0], tuple):
            return ":".join("".join(map(str, part)) for part in address)
        return ".".join(map(str, address))

    def lookup(self, text):
        """The index of the address spelled `text`: x:y digits or dotted ints
        read back into a key of the index (other text, such as w0, is looked
        up as it is), confirmed by spelling that address again."""
        text = text.strip()
        x, colon, y = text.partition(":")
        try:
            if colon:
                address = (tuple(map(int, x)), tuple(map(int, y)))
            else:
                address = tuple(map(int, text.split(".")))
        except ValueError:
            address = text
        i = self.index.get(address)
        if i is None or self.spell(i) != text:
            raise StructureError(f"address {text!r} is not in the model")
        return i

    def cylinder_labels(self, j):
        """The depth-j cylinder of each address index, as a list of small
        ints numbered from 0 in order of first appearance: two indices share
        a label exactly when their addresses share the cylinder key (the
        prefix a[:j], or the constructor's `cylinder_key`).

        Built on first use of each depth and cached; a column holds n
        entries, so no cell cap applies.
        """
        labels = self._cylinder_labels.get(j)
        if labels is None:
            keys = [self._cylinder_key(a, j) for a in self.addresses]
            ids = dict.fromkeys(keys)  # in order of first appearance
            labels = list(map(dict(zip(ids, range(len(ids)))).__getitem__, keys))
            self._cylinder_labels[j] = labels
        return labels

    def least_distance(self):
        """The least positive realized distance (0 for a single address): on
        a tree, lam to the deepest level j < depth at which some depth-j
        cylinder holds two addresses."""
        if self.is_tree:
            for j in reversed(range(self.depth)):
                if len(set(self.cylinder_labels(j))) < len(self):
                    return self.metric.lam ** j
            return Fraction(0)
        realized, _ = self.pair_ranks()
        return realized[1] if len(self) > 1 else Fraction(0)

    def pair_ranks(self):
        """(realized, rank): the ascending exact distances, 0 first, and the
        n x n table of each pair's index into them, a list of tuples of ints
        read as rank[i][j], as the metric ranks its own pairs.  Built on first
        use and cached (`_pair_rank_rows`); refused above CELL_CAP cells (n^2
        ranks) before a pair is ranked, for a metric with no pair ranks (a
        tree's), and for distinct addresses at distance 0."""
        if self._pair_ranks is None:
            self._pair_ranks = _pair_rank_rows(self)
        return self._pair_ranks

    def cylinder_members(self, i, j):
        """Indices of the addresses in the depth-j cylinder of address i."""
        labels = self.cylinder_labels(j)
        return [k for k, label in enumerate(labels) if label == labels[i]]

    def diameter(self, subset):
        """Largest distance within a set of address indices (0 for fewer than
        two): on a tree, lam to the deepest level j at which one depth-j
        cylinder holds the whole set, a depth-`depth` cylinder being a single
        address; otherwise the realized distance at its largest pair rank."""
        if not subset:
            return Fraction(0)
        idx = list(subset)
        if self.is_tree:
            for j in range(1, self.depth + 1):
                if len(set(map(self.cylinder_labels(j).__getitem__, idx))) > 1:
                    return self.metric.lam ** (j - 1)
            return Fraction(0)
        realized, rank = self.pair_ranks()
        get = tuple_getter(idx)
        return realized[max(max(get(rank[i])) for i in idx)]


def _pair_rank_rows(model):
    """The metric's own `pair_ranks` of the model's addresses, refused above
    CELL_CAP cells before any class is ranked, and checked to keep rank 0
    (distance 0) on the diagonal alone."""
    if not hasattr(model.metric, "pair_ranks"):
        raise StructureError(f"pair ranks need integer pair keys, which {model.metric!r} lacks")
    n = len(model)
    check_cells(n * n, f"pair ranks of {n} addresses")
    realized, rank = model.metric.pair_ranks(model.addresses)
    for i, row in enumerate(rank):
        if row[i] != 0 or row.count(0) != 1:
            raise StructureError("distinct addresses at distance 0")
    return realized, rank


# ------------------------------------------------------------------ action

def parse_word(text):
    """Parse 't1*t2^-1' or whitespace-separated tokens into a word tuple."""
    text = text.strip()
    if not text:
        return ()
    tokens = [t for part in text.split() for t in part.split("*") if t]
    word = []
    for tok in tokens:
        if tok.endswith("^-1"):
            word.append((tok[:-3], -1))
        else:
            word.append((tok, 1))
    return tuple(word)


def format_word(word):
    if not word:
        return "<empty>"
    return "*".join(name + ("^-1" if sign < 0 else "") for name, sign in word)


class CantorAction:
    """Named total bijections of a finite Cantor model with a basepoint, an
    address index, and their orbit graph `graph` (`orbit_graph`), built once
    here: every reader of the action's signed tokens reads it."""

    def __init__(self, model, generators, basepoint, label="action"):
        self.model = model
        self.label = label
        n = len(model)
        self.generators = {}
        for name, perm in generators.items():
            perm = tuple(int(i) for i in perm)
            if sorted(perm) != list(range(n)):
                raise StructureError(f"generator {name!r} is not a bijection")
            self.generators[name] = perm
        if not (isinstance(basepoint, int) and 0 <= basepoint < n):
            raise StructureError(f"basepoint {basepoint!r} is not an index of the model")
        self.basepoint = basepoint
        self.graph = orbit_graph(n, basepoint, self.generators)
        self._token_perms = dict(self.graph.tokens)

    def token_perm(self, name, sign):
        perm = self._token_perms.get((name, 1 if sign > 0 else -1))
        if perm is None:
            raise StructureError(f"unknown generator name {name!r}")
        return perm

    def word_perm(self, word):
        """Permutation of the word, composed right to left."""
        n = len(self.model)
        perm = list(range(n))
        for name, sign in reversed(word):
            p = self.token_perm(name, sign)
            perm = [p[i] for i in perm]
        return tuple(perm)

    def act(self, word, i):
        """The word's image of address index i."""
        for name, sign in reversed(word):
            i = self.token_perm(name, sign)[i]
        return i

    def signed_tokens(self):
        return [token for token, _ in self.graph.tokens]


def _invert_perm(perm):
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


# size: the address count; basepoint: an address index; tokens: (token,
# permutation) pairs, each generator then its inverse
OrbitGraph = namedtuple("OrbitGraph", "size basepoint tokens")


def orbit_graph(size, basepoint, generators):
    """The orbit graph of `generators`, names mapped to permutations of `size`
    addresses, in their order: each generator's token, then its inverse's.
    The one place a token meets an inverted permutation."""
    tokens = []
    for name, perm in generators.items():
        tokens += [((name, 1), perm), ((name, -1), _invert_perm(perm))]
    return OrbitGraph(size, basepoint, tokens)


def breadth_first(graph):
    """An OrbitGraph's breadth-first walk from its basepoint, tokens in order,
    as (layers, via): `layers[d]` the addresses at distance d, and `via[j]`
    address j's first (parent, token index), (basepoint, None) at the
    basepoint and None where the walk never reaches."""
    w0 = graph.basepoint
    perms = list(enumerate(p for _, p in graph.tokens))
    via = [None] * graph.size
    via[w0] = (w0, None)
    layers = [[w0]]
    while True:
        new = []
        for i in layers[-1]:
            for k, p in perms:
                j = p[i]
                if via[j] is None:
                    via[j] = (i, k)
                    new.append(j)
        if not new:
            return layers, via
        layers.append(new)


# witness_orbit: the basepoint's orbit, a frozenset of address indices
MinimalityVerdict = namedtuple("MinimalityVerdict", "minimal witness_orbit", defaults=(None,))


def is_minimal(action):
    """Every orbit is the full address set; the generator set is symmetric,
    so the basepoint orbit, the union of its walk's layers (`breadth_first`),
    decides, and it is the witness when not full."""
    orb = frozenset(chain.from_iterable(breadth_first(action.graph)[0]))
    if len(orb) == len(action.model):
        return MinimalityVerdict(True)
    return MinimalityVerdict(False, orb)


# ------------------------------------------------------------- word groups

def tuple_getter(indices):
    """The map p -> tuple(p[i] for i in indices), through operator.itemgetter;
    `indices` is a nonempty sequence."""
    get = operator.itemgetter(*indices)
    return get if len(indices) > 1 else lambda p: (get(p),)  # one item comes back bare


def word_ball(action, max_length, *, perm_cap):
    """The action's word ball (`ball._word_ball`), as (WordBall,
    completed_length, at): the one front door to it, which picks the key
    format.  On a model of at most BYTE_ALPHABET addresses a key is a bytes
    permutation, and a
    token applied after it is `key.translate(table)`, the table its
    permutation padded to 256 entries: one gather in C whose result is its
    own hash key.  Above, keys are tuples composed by `tuple_getter`.
    `at(indices)` maps a key to its entries at those indices, in the key's
    own type.  The budget is clamped to CELL_CAP cells (`limits.ball_cap`).
    At its peak the ball holds the keys of its completed layers and, for a
    layer it cuts, one hash per new class.
    """
    n = len(action.model)
    tokens = action.graph.tokens
    if n <= BYTE_ALPHABET:
        pad = bytes(BYTE_ALPHABET - n)
        tokens = [(token, bytes(perm) + pad) for token, perm in tokens]
        identity, compose = bytes(range(n)), operator.attrgetter("translate")
        at = lambda indices: lambda key, table=bytes(indices): table.translate(key + pad)
    else:
        identity, compose, at = tuple(range(n)), tuple_getter, tuple_getter
    ball, completed = _word_ball(tokens, identity, max_length, ball_cap(perm_cap, n), compose)
    return ball, completed, at


# ------------------------------------------------------------ modulus table

def _image_ranks(rank, perm):
    """rank[perm[a]][perm[b]] for every pair (a, b), by itemgetter row gathers."""
    get = tuple_getter(perm)
    return [get(rank[i]) for i in perm]


def modulus_table(action):
    """Exact kappa over all pairs and all generators (with inverses), on a
    model whose metric ranks its own pairs (`CantorModel.pair_ranks`):
    kappa(r) is the largest image rank, over the tokens, of a pair whose
    rank is at most r; one row per rank some distinct pair realizes.  A
    chain's boundary action, the package's only tree model, has its table
    read off the chain (one row (lam^j, lam^j) per split level)."""
    realized, rank = action.model.pair_ranks()
    worst = _worst_image_ranks(action, realized, rank)
    rows, kappa = [], 0
    for r, k in enumerate(worst):
        if k is not None:
            kappa = max(kappa, k)
            if r:
                rows.append((realized[r], realized[kappa]))
    return ModulusTable(reversed(rows))


def _worst_image_ranks(action, realized, rank):
    """worst[r]: the largest image rank of a distinct pair of rank r, the last
    code (r, k) of r in sorted order (None where no pair has it), over the
    generators and inverses.  An isometry (image rows = rank rows) keeps every
    pair's rank, and each realized rank is a pair's, so it adds the codes
    (r, r), r >= 1, alone; `_pair_codes` scans any other generator."""
    m, codes = len(realized), set()
    for perm in action.generators.values():
        image = _image_ranks(rank, perm)
        codes.update(range(m + 1, m * m, m + 1) if image == rank else _pair_codes(rank, image, m))
    worst = [None] * m
    for code in sorted(codes):
        worst[code // m] = code % m
    return worst


def _pair_codes(rank, image, m):
    """The codes rank * m + image rank of a generator's pairs (a, b), a < b,
    by C-level maps, and of its inverse's: g^-1 maps the pair {ga, gb} to
    {a, b}, so its codes are g's with the ranks swapped."""
    found = set()
    for a, (row, moved) in enumerate(zip(rank, image)):
        found.update(map(operator.add, map(m.__mul__, row[a + 1:]), moved[a + 1:]))
    return found | {c % m * m + c // m for c in found}


# --------------------------------------------------------------- distality

def is_distal(action, word_length=8, *, perm_cap=BALL_BUDGET):
    """Distality over the word ball, with min_delta the least positive
    realized distance.

    min_delta is the least image distance of a distinct pair over the words
    up to the bound.  The ball contains the empty word, so every pair
    realizes its own distance, and the generators are bijections, so distinct
    pairs map to distinct pairs at realized distances: the minimum is the
    least positive realized distance whatever the ball, and the verdict is
    distal.  The ball (`word_ball`) is still enumerated, layer-atomically
    within the budget, for the length it completes and its number of
    classes, both reported; no word is built, and at its peak the ball
    holds its completed layers' keys and one hash per class of a layer it
    cuts.  Per-pair deltas are a test oracle
    (tests/helpers.brute_force_distality).
    """
    min_delta = action.model.least_distance()
    words, word_length, _ = word_ball(action, word_length, perm_cap=perm_cap)
    return DistalityVerdict(True, word_length, min_delta, len(words))


# ---------------------------------------------------------------- measures

# label: the support's description; support: a frozenset of address indices;
# weight: the Fraction each of them carries
InvariantMeasure = namedtuple("InvariantMeasure", "label support weight")


def invariant_measure(action, verdict=None):
    """Uniform measure when minimal; uniform on the basepoint's orbit
    otherwise.

    A permutation action is transitive on an orbit, so the uniform measure
    there is its only invariant probability measure, and it is invariant
    exactly when every generator maps the support into itself: the one check
    made here.  `verdict` is the action's MinimalityVerdict, computed here
    unless the caller already holds it.
    """
    if verdict is None:
        verdict = is_minimal(action)
    model = action.model
    if verdict.minimal:
        support, label = frozenset(range(len(model))), "full"
    else:
        support = verdict.witness_orbit
        label = f"orbit-closure of {model.addresses[action.basepoint]!r} ({len(support)} addresses)"
    for name, perm in action.generators.items():
        if not support.issuperset(map(perm.__getitem__, support)):
            raise InvariantViolation(f"generator {name} moves mass off the measure's support")
    return InvariantMeasure(label, support, Fraction(1, len(support)))


# ------------------------------------------------------------- germ depths

# depth: the least trivial cylinder depth, or the model depth when nontrivial;
# witness: an (index, image index) pair disagreeing in the deepest checked cylinder
GerminalVerdict = namedtuple("GerminalVerdict", "trivial depth witness", defaults=(None,))


def germinal_holonomy(action, word, point):
    """Least depth j whose cylinder around address index `point` is fixed
    pointwise.

    The word must stabilize the point.  Singleton cylinders are vacuous
    evidence and never certify triviality; if only they remain, the germ is
    reported nontrivial through the full depth.
    """
    model = action.model
    perm = action.word_perm(word)
    if perm[point] != point:
        raise StructureError(
            f"word {format_word(word)} does not stabilize {model.spell(point)}; "
            f"it maps to {model.spell(perm[point])}"
        )
    witness = None
    for j in range(model.depth + 1):
        members = model.cylinder_members(point, j)
        if len(members) <= 1 and j > 0:
            break
        moved = [i for i in members if perm[i] != i]
        if not moved:
            return GerminalVerdict(True, j)
        witness = (moved[0], perm[moved[0]])
    return GerminalVerdict(False, model.depth, witness)
