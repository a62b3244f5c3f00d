"""The word ball (`ball._word_ball`) against the reference ball that keeps
every class's word tuple (`helpers.reference_word_ball`).

The ball stores each class once, as a key in ball order with one parent
link, and rebuilds a word only when `word(i)` asks for it.  Here its keys,
words and completed length must be the reference's: on the bytes route
(warp actions and random tree actions), on the tuple route (forced with
BYTE_ALPHABET = 0), and on coset keys of the gallery and random Klein-type
chains' cores; at every length from 0 to 8, at caps 1, 2, 5 and 20 000, and
at each cumulative layer total and one past it, where the layer-atomic
cutoff binds or just fails to.  A layer that could pass the cap is first
counted by hashes: with keys whose hash collides on purpose the ball must
still be the reference at every cap where such a layer is cut or closes, a
layer that cannot pass the cap composes each candidate once, and a cut ball
stays within a memory bound that its cut layer's keys would break.  The
distality verdict and a chain's dynamics read only the ball's size, and
return words stay within a memory bound.
"""

import functools
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import pytest

import cases
from cantordyn import action as action_module
from cantordyn.action import is_distal, tuple_getter, word_ball
from cantordyn.affine import normal_core, quotient_word_keys
from cantordyn.ball import WordBall, _word_ball
from cantordyn.cli import _chain_dynamics
from cantordyn.coding import ActionWindow
from cantordyn.limits import BALL_BUDGET, ball_cap
from cantordyn.tower import mccord_verdict
from cases import SECTION_CHAINS as CHAINS
from helpers import ball_pairs, reference_action_ball, reference_word_ball

LENGTHS = range(9)
FIXED_CAPS = (1, 2, 5, 20000)
# test name -> registry name: warp actions, and random tree actions of at
# most 256 addresses
NAMES = {
    **{f"warp_{depth}": f"warp_{depth}" for depth in (1, 2, 3, 4)},
    **{f"tree_{seed}": f"random_tree_{seed}_256" for seed in range(4)},
}


@functools.cache
def core_keys(name):
    chain = cases.chain(name)
    return quotient_word_keys(chain.group, normal_core(chain.group, chain.levels[-1]))


def layer_caps(pairs):
    """Each cumulative layer total of a ball's (word, perm) pairs, and one
    past it."""
    lengths = [len(word) for word, _ in pairs]
    totals = {sum(1 for n in lengths if n <= k) for k in range(max(lengths) + 1)}
    return sorted(totals | {t + 1 for t in totals})


def assert_ball_is_the_reference(got, expected, tokens):
    ball, completed = got[:2]  # `word_ball` hands back its gather too
    pairs, expected_completed = expected
    assert type(ball) is WordBall
    assert (ball_pairs(ball), completed) == (pairs, expected_completed)
    for i, (word, _) in enumerate(pairs):  # the path is the word, oldest token first
        assert [tokens[t] for t in reversed(ball.path(i))] == list(word)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("length", LENGTHS)
def test_bytes_ball_is_the_reference_ball(name, length):
    action = cases.action(NAMES[name])
    for cap in FIXED_CAPS:
        expected = reference_action_ball(action, length, cap, as_bytes=True)
        got = word_ball(action, length, perm_cap=cap)
        assert type(got[0][0]) is bytes
        assert_ball_is_the_reference(got, expected, action.signed_tokens())


@pytest.mark.parametrize("name", NAMES)
def test_bytes_ball_cuts_back_at_each_layer_total(name):
    action = cases.action(NAMES[name])
    for cap in layer_caps(reference_action_ball(action, 8, 20000)[0]):
        expected = reference_action_ball(action, 8, cap, as_bytes=True)
        got = word_ball(action, 8, perm_cap=cap)
        assert type(got[0][0]) is bytes
        assert_ball_is_the_reference(got, expected, action.signed_tokens())


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("length", (0, 1, 3, 8))
def test_tuple_ball_is_the_reference_ball(name, length, monkeypatch):
    monkeypatch.setattr(action_module, "BYTE_ALPHABET", 0)  # no model fits bytes
    action = cases.action(NAMES[name])
    n = len(action.model)
    caps = FIXED_CAPS
    if length == 8:
        caps += tuple(layer_caps(reference_action_ball(action, 8, 20000)[0]))
    for cap in caps:
        expected = reference_action_ball(action, length, ball_cap(cap, n), as_bytes=False)
        got = word_ball(action, length, perm_cap=cap)
        assert_ball_is_the_reference(got, expected, action.signed_tokens())


@pytest.mark.parametrize("name", CHAINS)
def test_core_key_ball_is_the_reference_ball(name):
    tokens, identity, compose = core_keys(name)
    full = reference_word_ball(tokens, identity, 8, 20000, compose)
    names = [token for token, _ in tokens]
    for length in LENGTHS:
        for cap in sorted(set(FIXED_CAPS) | set(layer_caps(full[0]))):
            expected = reference_word_ball(tokens, identity, length, cap, compose)
            got = _word_ball(tokens, identity, length, cap, compose)
            assert_ball_is_the_reference(got, expected, names)


def test_the_budget_cuts_warp_4_inside_its_seventh_layer():
    # so the cap of 20 000 above drops a layer that had more candidates
    pairs, completed = reference_action_ball(cases.action("warp_4"), 8, 20000)
    assert completed == 6 and len(pairs) == 7720


def test_a_ball_with_no_tokens_completes_its_length():
    ball, completed = _word_ball([], (0,), 5, 3, tuple_getter)
    assert (list(ball), completed, ball.word(0), ball.path(0)) == ([(0,)], 5, (), [])


def test_a_long_word_is_rebuilt_without_recursion():
    # the cyclic group of order 3000 on int keys: its last class is a word of
    # 1500 tokens, past the interpreter's recursion limit
    n = 3000
    tokens = [(("c", 1), 1), (("c", -1), n - 1)]

    def compose(key):
        return lambda step: (key + step) % n

    ball, completed = _word_ball(tokens, 0, n, n, compose)
    pairs, expected_completed = reference_word_ball(tokens, 0, n, n, compose)
    assert (len(ball), completed) == (n, n) == (len(pairs), expected_completed)
    assert ball.word(n - 1) == pairs[-1][0] and len(pairs[-1][0]) == n // 2


# ------------------------------------------- layers that could pass the cap

class WeakKey:
    """A ball key whose hash is its first two entries' hash modulo 61, so
    that distinct keys collide often; equality is the key's."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __hash__(self):
        return hash(tuple(self.key[:2])) % 61

    def __eq__(self, other):
        return self.key == other.key


class CountedCompose:
    """`compose`, counting each token applied after each key."""

    def __init__(self, compose):
        self.compose, self.calls = compose, Counter()

    def __call__(self, key):
        after, calls = self.compose(key), self.calls

        def counted(p):
            calls[key] += 1
            return after(p)

        return counted


def weakened(identity, compose):
    """The identity and `compose` on WeakKey keys."""

    def weak_compose(key):
        after = compose(key.key)
        return lambda p: WeakKey(after(p))

    return WeakKey(identity), weak_compose


def ball_source(name, monkeypatch):
    """(tokens, identity, compose) as `_word_ball` receives them: what
    `word_ball` hands it for an action on bytes or tuples, or a chain's
    core keys."""
    route, _, rest = name.partition("-")
    if route == "chain":
        return core_keys(rest)
    received = []
    with monkeypatch.context() as patch:
        if route == "tuples":
            patch.setattr(action_module, "BYTE_ALPHABET", 0)
        patch.setattr(action_module, "_word_ball", lambda *args: received.append(args) or ([], 0))
        word_ball(cases.action(NAMES[rest]), 0, perm_cap=1)
    tokens, identity, _, _, compose = received[0]
    return tokens, identity, compose


def layers(pairs, max_length):
    """(start, parents, new) for each layer a ball of the reference's
    (word, key) pairs grows: the classes before it, its frontier and the
    classes it adds; the last is the first that adds none, if any."""
    sizes = Counter(len(word) for word, _ in pairs)
    out, start = [], 0
    for length in range(1, max_length + 1):
        start += sizes[length - 1]
        out.append((start, sizes[length - 1], sizes[length]))
        if not sizes[length]:
            break
    return out


def at_risk_caps(pairs, max_length, width):
    """The caps at which a layer is at risk (its start plus its frontier
    times the tokens passes the cap), mapped to whether that layer is cut:
    room for none, one, all but one, all, and one more than all of its new
    classes, and the largest cap at which it is at risk."""
    caps = {}
    for start, parents, new in layers(pairs, max_length):
        bound = start + parents * width
        for cap in (start, start + 1, start + new - 1, start + new, start + new + 1, bound - 1):
            if start <= cap < bound:
                caps.setdefault(cap, new > cap - start)
    return caps


def parent_counts(calls, pairs, max_length, cap, width):
    """How often each layer's frontier keys were composed, by what the
    layer is at `cap`: 'safe' (it cannot pass the cap), 'closes' or
    'cut'; each with the set of per-parent counts."""
    keys_of = {}
    for word, key in pairs:
        keys_of.setdefault(len(word), []).append(key)
    out = []
    for start, parents, new in layers(pairs, max_length):
        if start > cap:
            break
        kind = "safe" if start + parents * width <= cap else "closes" if start + new <= cap else "cut"
        out.append((kind, {calls[key] for key in keys_of[len(out)]}))  # parents: one token shorter
        if kind == "cut":
            break
    return out


WEAK_SOURCES = {
    "bytes-warp_2": 5,
    "bytes-tree_2": 8,
    "tuples-warp_2": 5,
    "chain-fokkink_oversteegen": 8,
    "chain-random-3": 8,
}


@pytest.mark.parametrize("name", WEAK_SOURCES)
def test_colliding_hashes_give_the_reference_ball(name, monkeypatch):
    # every cap at which a layer that could pass the cap is cut or closes;
    # the hash count then misses classes, so some cut layer is only found
    # once stored, which composes its frontier a second time
    tokens, identity, compose = ball_source(name, monkeypatch)
    length, width = WEAK_SOURCES[name], len(tokens)
    full = reference_word_ball(tokens, identity, length, 10 ** 6, compose)[0]
    caps = at_risk_caps(full, length, width)
    assert set(caps.values()) == {True, False}  # layers cut and layers closing
    counted = CountedCompose(compose)
    weak_identity, weak_compose = weakened(identity, counted)
    seen_late = False
    for cap in sorted(caps):
        counted.calls.clear()
        expected = reference_word_ball(tokens, identity, length, cap, compose)
        ball, completed = _word_ball(tokens, weak_identity, length, cap, weak_compose)
        assert [key.key for key in ball] == [key for _, key in expected[0]], cap
        assert [ball.word(i) for i in range(len(ball))] == [word for word, _ in expected[0]]
        assert completed == expected[1]
        kind, counts = parent_counts(counted.calls, full, length, cap, width)[-1]
        seen_late |= kind == "cut" and 2 * width in counts
    assert seen_late


COUNT_SOURCES = {
    "bytes-warp_2": 8,
    "bytes-tree_2": 8,
    "tuples-warp_2": 6,
    "chain-fokkink_oversteegen": 8,
    "bytes-warp_3": 7,
}


@pytest.mark.parametrize("name", COUNT_SOURCES)
def test_each_candidate_is_composed_once_unless_its_layer_could_pass_the_cap(name, monkeypatch):
    # a layer that cannot pass the cap composes each frontier key once per
    # token; one that could is counted first, as far as it could still pass
    # the cap, so a closing layer composes a frontier key once or twice per
    # token and a cut one at most once; a ball with no cap composes each
    # candidate once
    tokens, identity, compose = ball_source(name, monkeypatch)
    length, width = COUNT_SOURCES[name], len(tokens)
    full = reference_word_ball(tokens, identity, length, 10 ** 6, compose)[0]
    caps = at_risk_caps(full, length, width)
    allowed = {"safe": {width}, "closes": {width, 2 * width}, "cut": {0, width}}
    counted = CountedCompose(compose)
    kinds = set()
    for cap in sorted(caps) + [10 ** 6]:
        counted.calls.clear()
        _word_ball(tokens, identity, length, cap, counted)
        for kind, counts in parent_counts(counted.calls, full, length, cap, width):
            assert counts <= allowed[kind], (cap, kind, counts)
            kinds.add(kind)
    assert kinds == set(allowed)
    assert sum(counted.calls.values()) == width * sum(p for _, p, _ in layers(full, length))


@pytest.mark.parametrize("depth, budget, bound", [(4, 20000, 4.5e6), (5, BALL_BUDGET, 75e6)])
def test_a_cut_ball_never_holds_its_cut_layer(depth, budget, bound):
    # both balls complete six layers and cut the seventh.  Traced on CPython
    # 3.11: warp_example(4), 241 addresses on bytes, 3.5 MB, and 6.3 MB when
    # the cut layer stored its keys up to the cap; warp_example(5), 993
    # addresses on tuples, 66.7 MB against 129.5 MB
    action = cases.make_action(f"warp_{depth}")
    tracemalloc.start()
    try:
        ball, completed, _ = word_ball(action, 8, perm_cap=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(ball), completed) == ({4: 7720, 5: 8188}[depth], 6)
    assert peak <= bound, f"{peak / 1e6:.1f} MB traced"


# --------------------------------------------------- what callers read

def refuse_word(self, i):
    raise AssertionError("a caller that reads only the ball's size built a word")


@pytest.mark.parametrize("name", ["warp_3", "warp_4", "tree_0"])
def test_distality_builds_no_word(name, monkeypatch):
    monkeypatch.setattr(WordBall, "word", refuse_word)
    monkeypatch.setattr(WordBall, "path", refuse_word)
    action = cases.action(NAMES[name])
    verdict = is_distal(action, 8)
    pairs, completed = reference_action_ball(action, 8, ball_cap(20000, len(action.model)))
    assert (verdict.word_count, verdict.word_length) == (len(pairs), completed)


@pytest.mark.parametrize("name", ["vietoris", "fokkink_oversteegen", "random-0"])
def test_chain_dynamics_build_no_word(name, monkeypatch):
    monkeypatch.setattr(WordBall, "word", refuse_word)
    monkeypatch.setattr(WordBall, "path", refuse_word)
    chain = cases.chain(name)
    _, distal, _, (ball, completed) = _chain_dynamics(chain, mccord_verdict(chain), F(1, 2), 8)
    assert (distal.word_count, distal.word_length) == (len(ball), completed)


def test_return_words_on_warp_4_stay_within_their_memory_bound():
    # the ball keeps one key and one parent link per class and counts the
    # layer it cuts by hashes, and the return words keep each image as its
    # key and build no word: 3.6 MB traced on CPython 3.11, 6.3 MB when the
    # cut layer stored its keys up to the cap, 6.8 MB when each landing class
    # was also restricted to a window tuple, and 11.1 MB when the ball kept
    # every class's word tuple
    action = cases.make_action("warp_4")
    action.model.pair_ranks()
    tracemalloc.start()
    try:
        words = ActionWindow(action).words(8, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(words), words.effective_bound) == (3972, 6)
    assert peak <= 5e6, f"{peak / 1e6:.1f} MB traced"
