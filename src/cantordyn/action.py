"""Finite-depth Cantor models, exact metrics, and dynamical diagnostics.

Addresses are hashable tuples spelled over per-level alphabets (or a reserved
collapsed token); generators are total bijections stored as index
permutations.  Metrics are exact rational functions; the pairwise engines
(modulus table, distality) use integer level arithmetic on tree metrics and
exact Fractions otherwise.  Nothing here touches floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ResourceLimitError, StructureError

DEFAULT_PAIR_CAP = 4000
COLLAPSED = "w0"


# ----------------------------------------------------------------- metrics

@dataclass(frozen=True)
class TreeMetric:
    """Ultrametric lam^j for first disagreement at level j+1."""

    lam: Fraction

    def __post_init__(self):
        lam = Fraction(self.lam)
        object.__setattr__(self, "lam", lam)
        if not 0 < lam < 1:
            raise StructureError("tree metric base must be a rational in (0,1)")

    def distance(self, a, b):
        if a == b:
            return Fraction(0)
        j = 0
        for x, y in zip(a, b):
            if x != y:
                break
            j += 1
        return self.lam ** j


@dataclass(frozen=True)
class WarpMetric:
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

    depth: int
    lam1: Fraction = Fraction(1, 2)

    def x_value(self, a):
        if a == COLLAPSED:
            return Fraction(0)
        return sum(Fraction(d, 3 ** (i + 1)) for i, d in enumerate(a[0]))

    def d1(self, ya, yb):
        if ya == yb:
            return Fraction(0)
        j = 0
        for x, y in zip(ya, yb):
            if x != y:
                break
            j += 1
        return Fraction(self.lam1) ** j

    def distance(self, a, b):
        if a == b:
            return Fraction(0)
        xa, xb = self.x_value(a), self.x_value(b)
        if a == COLLAPSED or b == COLLAPSED:
            return abs(xa - xb)
        return abs(xa - xb) + min(xa, xb) * self.d1(a[1], b[1])


@dataclass(frozen=True)
class ExplicitMetric:
    """Exact rational distance table over the address set."""

    table: tuple  # tuple of ((a, b), Fraction) with a < b in address order

    def __post_init__(self):
        object.__setattr__(self, "_lookup", dict(self.table))

    def distance(self, a, b):
        if a == b:
            return Fraction(0)
        key = (a, b) if (a, b) in self._lookup else (b, a)
        try:
            return self._lookup[key]
        except KeyError:
            raise StructureError(f"distance table has no entry for {a!r}, {b!r}")


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
    """A finite ordered address set with an exact metric and cylinder keys."""

    def __init__(self, addresses, depth, metric, cylinder_key=None):
        self.addresses = tuple(addresses)
        if len(set(self.addresses)) != len(self.addresses):
            raise StructureError("addresses must be distinct")
        if not self.addresses:
            raise StructureError("model needs at least one address")
        self.depth = int(depth)
        self.metric = metric
        self._cylinder_key = cylinder_key
        self.index = {a: i for i, a in enumerate(self.addresses)}

    def __len__(self):
        return len(self.addresses)

    def distance(self, a, b):
        return self.metric.distance(a, b)

    def cylinder_key(self, address, j):
        if self._cylinder_key is not None:
            return self._cylinder_key(address, j)
        return tuple(address[:j])

    def cylinder_members(self, address, j):
        key = self.cylinder_key(address, j)
        return [a for a in self.addresses if self.cylinder_key(a, j) == key]

    def diameter(self, subset):
        subset = list(subset)
        best = Fraction(0)
        for i in range(len(subset)):
            for k in range(i + 1, len(subset)):
                d = self.distance(subset[i], subset[k])
                if d > best:
                    best = d
        return best

    def validate_metric(self, *, triple_cap=1000, samples=10 ** 4, seed=0):
        """Symmetry, identity of indiscernibles, and the triangle inequality.

        Exhaustive over all triples up to the cap, seeded-sampled above.
        Tree metrics are additionally checked for the ultrametric inequality.
        """
        import random

        addrs = self.addresses
        n = len(addrs)
        ultra = isinstance(self.metric, TreeMetric)
        rng = random.Random(seed)

        def check_pair(a, b):
            d = self.distance(a, b)
            if d <= 0:
                raise StructureError("distinct addresses at distance <= 0")
            if d != self.distance(b, a):
                raise StructureError("metric is not symmetric")

        def check(a, b, c):
            dab = self.distance(a, b)
            dac = self.distance(a, c)
            dcb = self.distance(c, b)
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
    """Named total bijections of a finite Cantor model with a basepoint."""

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
        if basepoint not in model.index:
            raise StructureError("basepoint is not an address of the model")
        self.basepoint = basepoint
        self._inverses = {
            name: _invert_perm(perm) for name, perm in self.generators.items()
        }

    @property
    def addresses(self):
        return self.model.addresses

    def generator_names(self):
        return list(self.generators)

    def token_perm(self, name, sign):
        if name not in self.generators:
            raise StructureError(f"unknown generator name {name!r}")
        return self.generators[name] if sign > 0 else self._inverses[name]

    def word_perm(self, word):
        """Permutation of the word, composed right to left."""
        n = len(self.model)
        perm = list(range(n))
        for name, sign in reversed(word):
            p = self.token_perm(name, sign)
            perm = [p[i] for i in perm]
        return tuple(perm)

    def act(self, word, point):
        i = self.model.index[point]
        for name, sign in reversed(word):
            i = self.token_perm(name, sign)[i]
        return self.model.addresses[i]

    def signed_tokens(self):
        out = []
        for name in self.generators:
            out.append((name, 1))
            out.append((name, -1))
        return out

    def orbit(self, point, max_word_length=None):
        """Breadth-first closure of a point under generators and inverses."""
        start = self.model.index[point]
        seen = {start}
        frontier = [start]
        depth = 0
        perms = [self.token_perm(n, s) for n, s in self.signed_tokens()]
        while frontier:
            if max_word_length is not None and depth >= max_word_length:
                break
            depth += 1
            new = []
            for i in frontier:
                for p in perms:
                    j = p[i]
                    if j not in seen:
                        seen.add(j)
                        new.append(j)
            frontier = new
        return {self.model.addresses[i] for i in seen}


def _invert_perm(perm):
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


@dataclass(frozen=True)
class MinimalityVerdict:
    minimal: bool
    witness_orbit: frozenset = None


def is_minimal(action):
    """Every orbit is the full address set; the generator set is symmetric,
    so the basepoint orbit decides, and it is the witness when not full."""
    orb = action.orbit(action.basepoint)
    if len(orb) == len(action.model):
        return MinimalityVerdict(True)
    return MinimalityVerdict(False, frozenset(orb))


# ------------------------------------------------------------- word groups

def enumerate_word_perms(action, max_length, *, perm_cap=200000, on_cap="raise"):
    """Distinct permutations realized by words of length <= max_length.

    Breadth-first over (length, token order) with dedup by permutation, so
    the result is the Cayley ball of the induced permutation group.  Returns
    (pairs, completed_length) where pairs is a list of (word, perm_array)
    with the empty word first.  Layers are atomic: when the cap would be
    exceeded, either the whole partial layer is dropped (on_cap="stop",
    completed_length reports the last full layer) or an error is raised.
    """
    n = len(action.model)
    tokens = action.signed_tokens()
    token_arrays = [
        (name, sign, np.array(action.token_perm(name, sign), dtype=np.int32))
        for name, sign in tokens
    ]
    ident = np.arange(n, dtype=np.int32)
    seen = {ident.tobytes()}
    order = [((), ident)]
    frontier = [((), ident)]
    completed = 0
    for layer in range(1, max_length + 1):
        new = []
        layer_keys = set()
        overflow = False
        for word, perm in frontier:
            for name, sign, p in token_arrays:
                comp = p[perm]  # token applied after the word
                key = comp.tobytes()
                if key in seen or key in layer_keys:
                    continue
                if len(seen) + len(layer_keys) >= perm_cap:
                    overflow = True
                    break
                layer_keys.add(key)
                new.append((((name, sign),) + word, comp))
            if overflow:
                break
        if overflow:
            if on_cap == "raise":
                raise ResourceLimitError(
                    f"word enumeration exceeded the cap {perm_cap}"
                )
            break
        if not new:
            completed = max_length
            break
        seen.update(layer_keys)
        order.extend(new)
        frontier = new
        completed = layer
    return order, completed


# ------------------------------------------------------------ modulus table

@dataclass(frozen=True)
class ModulusTable:
    """Rows (r, kappa(r)) over all realized distances, r strictly decreasing."""

    rows: tuple
    generator_names: tuple = field(default=(), compare=False)

    def __post_init__(self):
        rows = tuple((Fraction(r), Fraction(k)) for r, k in self.rows)
        object.__setattr__(self, "rows", rows)
        for (r1, k1), (r2, k2) in zip(rows, rows[1:]):
            if not r1 > r2:
                raise StructureError("modulus rows must be strictly decreasing in r")
            if k2 > k1:
                raise StructureError("kappa must be nondecreasing in r")

    def kappa(self, r):
        out = Fraction(0)
        for rr, kk in reversed(self.rows):
            if rr <= r:
                out = kk
            else:
                break
        return out

    def r_min(self):
        return self.rows[-1][0] if self.rows else None

    def equicontinuity_witness(self, eps):
        """Largest tabled delta with kappa(delta) < eps, or None."""
        for r, k in self.rows:
            if k < eps:
                return r
        return None

    def sub_resolution_delta(self):
        """A positive delta below every realized distance (kappa there is 0)."""
        rm = self.r_min()
        return rm / 2 if rm is not None else None

    def is_exact_isometry_table(self):
        return all(r == k for r, k in self.rows)


def _tree_level_matrix(action):
    """lev[a, b] = number of leading levels on which addresses a, b agree."""
    addrs = action.model.addresses
    n = len(addrs)
    k = action.model.depth
    arr = np.empty((n, k), dtype=np.int64)
    for i, a in enumerate(addrs):
        arr[i, :] = a
    agree = np.ones((n, n), dtype=bool)
    lev = np.zeros((n, n), dtype=np.int16)
    for j in range(k):
        col = arr[:, j]
        agree &= col[:, None] == col[None, :]
        lev += agree
    return lev


def modulus_table(action, *, pair_cap=DEFAULT_PAIR_CAP):
    """Exact kappa over all pairs and all generators (with inverses)."""
    n = len(action.model)
    if n > pair_cap:
        raise ResourceLimitError(
            f"modulus table needs {n} addresses but the pairwise cap is {pair_cap}"
        )
    tokens = action.signed_tokens()
    names = tuple(sorted(action.generators))
    if isinstance(action.model.metric, TreeMetric) and n > 1:
        lam = action.model.metric.lam
        k = action.model.depth
        lev = _tree_level_matrix(action)
        iu = np.triu_indices(n, k=1)
        pair_lev = lev[iu]
        min_img = np.full(k + 1, k + 1, dtype=np.int64)
        for name, sign in tokens:
            p = np.array(action.token_perm(name, sign), dtype=np.int64)
            img = lev[p[:, None], p[None, :]][iu]
            np.minimum.at(min_img, pair_lev, img)
        realized = sorted(set(int(j) for j in np.unique(pair_lev)))
        # kappa at level j: min image level over pairs at level >= j
        rows = []
        running = k + 1
        for j in sorted(set(range(k + 1)), reverse=True):
            if min_img[j] < running:
                running = int(min_img[j])
            if j in realized:
                rows.append((lam ** j, lam ** running))
        rows.sort(key=lambda rk: rk[0], reverse=True)
        return ModulusTable(tuple(rows), names)

    addrs = action.model.addresses
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = action.model.distance(addrs[i], addrs[j])
    perms = [action.token_perm(nm, s) for nm, s in tokens]
    worst = {}
    for (i, j), d in dist.items():
        img = Fraction(0)
        for p in perms:
            a, b = p[i], p[j]
            key = (a, b) if a < b else (b, a)
            di = dist[key]
            if di > img:
                img = di
        if d not in worst or img > worst[d]:
            worst[d] = img
    # kappa(r) = max image distance over pairs at distance <= r
    rows = []
    running = Fraction(0)
    for r in sorted(worst):
        if worst[r] > running:
            running = worst[r]
        rows.append((r, running))
    rows.sort(key=lambda rk: rk[0], reverse=True)
    return ModulusTable(tuple(rows), names)


# --------------------------------------------------------------- distality

@dataclass(frozen=True)
class DistalityVerdict:
    distal: bool
    word_length: int
    min_delta: Fraction
    word_count: int
    _deltas: object = field(default=None, compare=False, repr=False)

    def delta(self, a, b):
        if self._deltas is None:
            raise StructureError("per-pair deltas were not retained")
        return self._deltas(a, b)


def is_distal(
    action,
    word_length=8,
    *,
    pair_cap=DEFAULT_PAIR_CAP,
    perm_cap=20000,
    keep_pairs=True,
):
    """Per pair, the min image distance over all words up to the bound.

    Generators are bijections, so distinct points never collide and the
    verdict is distal with positive per-pair deltas; the content is in the
    exact delta values.  The word ball is budgeted layer-atomically; the
    verdict reports the exhaustively enumerated length.

    On tree metrics the engine works on integer disagreement levels; on
    other metrics it works on the ranks of the sorted realized distances.
    Both are order-isomorphic to the exact distances, so the minima are
    exact; reported deltas are the exact rationals.
    """
    n = len(action.model)
    if n > pair_cap:
        raise ResourceLimitError(
            f"distality table needs {n} addresses but the pairwise cap is {pair_cap}"
        )
    words, word_length = enumerate_word_perms(
        action, word_length, perm_cap=perm_cap, on_cap="stop"
    )
    if n == 1:
        return DistalityVerdict(True, word_length, Fraction(0), len(words))
    if isinstance(action.model.metric, TreeMetric):
        lam = action.model.metric.lam
        lev = _tree_level_matrix(action)
        iu = np.triu_indices(n, k=1)
        max_lev = np.zeros(iu[0].shape, dtype=np.int16)
        for _, perm in words:
            p = np.asarray(perm, dtype=np.int64)
            img = lev[p[:, None], p[None, :]][iu]
            max_lev = np.maximum(max_lev, img)
        worst = int(max_lev.max())
        full = np.zeros((n, n), dtype=np.int16)
        full[iu] = max_lev
        full += full.T

        def deltas(a, b):
            i, j = action.model.index[a], action.model.index[b]
            return lam ** int(full[i, j])

        return DistalityVerdict(
            True, word_length, lam ** worst, len(words), deltas if keep_pairs else None
        )

    addrs = action.model.addresses
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = action.model.distance(addrs[i], addrs[j])
    realized = sorted(set(dist.values()))
    rank_of = {d: r for r, d in enumerate(realized)}
    rank = np.zeros((n, n), dtype=np.int32)
    for (i, j), d in dist.items():
        rank[i, j] = rank[j, i] = rank_of[d]
    iu = np.triu_indices(n, k=1)
    min_rank = np.full(iu[0].shape, len(realized), dtype=np.int32)
    for _, perm in words:
        p = np.asarray(perm, dtype=np.int64)
        img = rank[p[:, None], p[None, :]][iu]
        min_rank = np.minimum(min_rank, img)
    min_delta = realized[int(min_rank.min())]
    if min_delta <= 0:
        raise StructureError("bijective generators produced a zero delta")
    full = np.zeros((n, n), dtype=np.int32)
    full[iu] = min_rank
    full += full.T

    def deltas(a, b):
        i, j = action.model.index[a], action.model.index[b]
        return realized[int(full[i, j])]

    return DistalityVerdict(
        True, word_length, min_delta, len(words), deltas if keep_pairs else None
    )


# ---------------------------------------------------------------- measures

@dataclass(frozen=True)
class CylinderMeasure:
    """Exact rational weights per address with total mass one."""

    weights: tuple  # tuple of (address, Fraction)
    support_label: str = "full"

    def __post_init__(self):
        ws = tuple((a, Fraction(w)) for a, w in self.weights)
        object.__setattr__(self, "weights", ws)
        if any(w < 0 for _, w in ws):
            raise StructureError("measure weights must be nonnegative")
        if sum(w for _, w in ws) != 1:
            raise StructureError("measure weights must total exactly 1")
        object.__setattr__(self, "_lookup", dict(ws))

    def weight(self, address):
        return self._lookup.get(address, Fraction(0))


def pushforward_invariant(action, measure, tokens=None):
    """Exact check that g_* mu = mu for every signed generator token.

    `tokens` is a list of (name, sign) pairs; it defaults to every generator
    and its inverse.
    """
    if tokens is None:
        tokens = action.signed_tokens()
    for name, sign in tokens:
        inv = _invert_perm(action.token_perm(name, sign))
        for a in action.model.addresses:
            # (g_* mu)(a) = mu(g^{-1} a)
            pre = action.model.addresses[inv[action.model.index[a]]]
            if measure.weight(pre) != measure.weight(a):
                return False
    return True


def invariant_measure(action):
    """Uniform measure when minimal; uniform on the basepoint's minimal
    orbit closure otherwise.  Invariance is verified exactly either way."""
    verdict = is_minimal(action)
    if verdict.minimal:
        n = len(action.model)
        mu = CylinderMeasure(
            tuple((a, Fraction(1, n)) for a in action.model.addresses), "full"
        )
    else:
        orb = sorted(
            verdict.witness_orbit, key=lambda a: action.model.index[a]
        )
        m = len(orb)
        mu = CylinderMeasure(
            tuple((a, Fraction(1, m)) for a in orb),
            f"orbit-closure of {action.basepoint!r} ({m} addresses)",
        )
    if not pushforward_invariant(action, mu):
        raise StructureError("constructed measure failed exact invariance")
    return mu


# ------------------------------------------------------------- germ depths

@dataclass(frozen=True)
class GerminalVerdict:
    trivial: bool
    depth: int  # least trivial cylinder depth, or the model depth when nontrivial
    witness: tuple = None  # (address, image) disagreeing in the deepest checked cylinder


def germinal_holonomy(action, word, point):
    """Least depth j whose cylinder around the point is fixed pointwise.

    The word must stabilize the point.  Singleton cylinders are vacuous
    evidence and never certify triviality; if only they remain, the germ is
    reported nontrivial through the full depth.
    """
    image = action.act(word, point)
    if image != point:
        raise StructureError(
            f"word {format_word(word)} does not stabilize {point!r}; "
            f"it maps to {image!r}"
        )
    perm = action.word_perm(word)
    model = action.model
    witness = None
    for j in range(model.depth + 1):
        members = model.cylinder_members(point, j)
        if len(members) <= 1 and j > 0:
            break
        moved = [
            a for a in members if model.addresses[perm[model.index[a]]] != a
        ]
        if not moved:
            return GerminalVerdict(True, j)
        a = moved[0]
        witness = (a, model.addresses[perm[model.index[a]]])
    return GerminalVerdict(False, model.depth, witness)


# -------------------------------------------------------------- warp values

def warp_distance(model, a, b):
    """Exact warp-product distance between two composite addresses."""
    if not isinstance(model.metric, WarpMetric):
        raise StructureError("warp_distance needs a warp-metric model")
    for x in (a, b):
        if x != COLLAPSED and x not in model.index:
            raise StructureError(f"malformed composite address {x!r}")
    return model.metric.distance(a, b)
