"""The word ball, and the two records that a chain and an action both fill.

The word ball (`_word_ball`) stores each class once, a key in ball order and
a parent link, and reads a word off the links only on request; a layer that
could pass its cap is counted by hashes before any of its keys is stored.
Its keys are hashable values of the caller's choosing: an action's bytes or
tuple permutations (`action.word_ball`), or a chain's coset keys
(`affine.quotient_word_keys`).  `ModulusTable` and `DistalityVerdict` are
what `classify` reports, computed by the engines on an action
(`action.modulus_table`, `action.is_distal`) or read off a chain's algebra
(`cli`).  A chain's `classify` needs only this module, not the action layer.
"""

from array import array
from collections import deque, namedtuple
from fractions import Fraction
from itertools import chain, count, filterfalse, islice, repeat

from .errors import StructureError


class WordBall(list):
    """A word ball's keys in ball order, each class with one parent link,
    parent * T + token index over the T tokens (`_word_ball`); a class's
    word is read off its links when asked for, and never kept."""

    __slots__ = ("_links", "_tokens")

    def __init__(self, keys, links, tokens):
        super().__init__(keys)
        self._links, self._tokens = links, tokens

    def path(self, i):
        """Class i's token indices, oldest first."""
        out = []
        while i:
            i, t = divmod(self._links[i], len(self._tokens))
            out.append(t)
        out.reverse()
        return out

    def word(self, i):
        """Class i's word, newest token first."""
        return tuple(self._tokens[t][0] for t in reversed(self.path(i)))


def _word_ball(tokens, identity, max_length, perm_cap, compose):
    """The Cayley ball up to max_length of the permutations the tokens
    generate, as (WordBall, completed_length): breadth-first over (length,
    token order), the identity first.  Layers are atomic: a layer with more
    new classes than the cap leaves room for is cut whole, and the completed
    length is the last full layer.  `identity` and the token permutations in
    `tokens`, (token, permutation) pairs, are hashable values of the
    caller's choosing, and `compose(perm)` maps a token's permutation to the
    token applied after `perm` (i -> p[perm[i]]).

    A class is stored once: a key of `seen`, whose order is the ball order,
    and a parent link, parent * T + token index over the T tokens; no word
    is built here.  A layer is stored in one C-level pass over its
    candidates, each new key holding its link until the layer is stored.  A
    layer whose frontier times T could pass the cap is first counted by
    `_passes_cap`, which holds one hash per new class and no key, so at its
    peak a cut ball holds the keys of its completed layers and the hashes of
    the layer it cuts (true hash collisions aside, which make it store that
    layer before cutting it)."""
    perms = [p for _, p in tokens]
    width = len(perms)
    seen = {identity: None}
    links = array("q", [0])  # the identity's is never read
    start = completed = 0
    for layer in range(1, max_length + 1):
        end = len(seen)  # a cut leaves the ball here
        frontier = list(islice(seen, start, end))
        room = max(perm_cap - end, 0)
        if _passes_cap(seen, frontier, perms, compose, room):
            break
        deque(map(seen.setdefault, _candidates(frontier, perms, compose), count(start * width)), 0)
        if len(seen) - end > room:  # true hash collisions hid classes from _passes_cap
            break
        if len(seen) == end:
            completed = max_length
            break
        links.extend(islice(seen.values(), end, None))
        seen.update(zip(islice(seen, end, None), repeat(None)))  # drops the link ints
        start, completed = end, layer
    else:
        end = len(seen)
    return WordBall(islice(seen, end), links, tokens), completed


def _candidates(frontier, perms, compose):
    """Each token applied after each frontier key, in (parent, token) order."""
    return chain.from_iterable(map(map, map(compose, frontier), repeat(perms)))


def _passes_cap(seen, frontier, perms, compose, room):
    """Whether the layer after `frontier` has more than `room` new classes,
    counted as the distinct hashes of its candidates outside `seen`.  Equal
    keys hash alike, so the count never exceeds the new classes and True is
    exact; False is exact but for true hash collisions, which the caller
    catches once the layer is stored.  The frontier is read in runs of
    parents too short to pass `room` between checks, and the count stops as
    soon as the parents left could not pass it either."""
    width, hashes, i = len(perms), set(), 0
    while len(hashes) + (len(frontier) - i) * width > room:
        step = max((room - len(hashes)) // width, 1)
        fresh = filterfalse(seen.__contains__, _candidates(frontier[i:i + step], perms, compose))
        hashes.update(map(hash, fresh))
        if len(hashes) > room:
            return True
        i += step
    return False


class ModulusTable(namedtuple("ModulusTable", "rows")):
    """Rows (r, kappa(r)) over all realized distances, r strictly decreasing."""

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple((Fraction(r), Fraction(k)) for r, k in rows)
        for (r1, k1), (r2, k2) in zip(rows, rows[1:]):
            if not r1 > r2:
                raise StructureError("modulus rows must be strictly decreasing in r")
            if k2 > k1:
                raise StructureError("kappa must be nondecreasing in r")
        return super().__new__(cls, rows)

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


DistalityVerdict = namedtuple("DistalityVerdict", "distal word_length min_delta word_count")
