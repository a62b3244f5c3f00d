"""The word ball (`action._word_ball`) against the reference ball that keeps
every class's word tuple (`helpers.reference_word_ball`).

The ball stores each class once, as a key in ball order with one parent
link, and rebuilds a word only when `word(i)` asks for it.  Here its keys,
words and completed length must be the reference's: on the bytes route
(warp actions and random tree actions), on the tuple route (forced with
BYTE_ALPHABET = 0), and on coset keys of the gallery and random Klein-type
chains' cores; at every length from 0 to 8, at caps 1, 2, 5 and 20 000, and
at each cumulative layer total and one past it, where the layer-atomic
cutoff binds or just fails to.  The distality verdict and a chain's
dynamics read only the ball's size, and return words stay within a memory
bound.  Needs no numpy.
"""

import functools
import tracemalloc
from fractions import Fraction as F

import pytest

from cantordyn import action as action_module
from cantordyn.action import WordBall, _word_ball, is_distal, tuple_getter, word_ball
from cantordyn.affine import normal_core, quotient_word_keys
from cantordyn.cli import _chain_dynamics
from cantordyn.coding import ActionWindow
from cantordyn.gallery import warp_example
from cantordyn.limits import ball_cap
from cantordyn.tower import mccord_verdict
from helpers import ball_pairs, random_tree_action, reference_action_ball, reference_word_ball
from test_chain_sections import CHAINS, chain_of

LENGTHS = range(9)
FIXED_CAPS = (1, 2, 5, 20000)

ACTIONS = {
    **{f"warp_{depth}": functools.partial(warp_example, depth) for depth in (1, 2, 3, 4)},
    **{
        f"tree_{seed}": functools.partial(random_tree_action, seed, max_addresses=256)
        for seed in range(4)
    },
}


@functools.lru_cache(maxsize=None)
def action_of(name):
    return ACTIONS[name]()


@functools.lru_cache(maxsize=None)
def core_keys(name):
    chain = chain_of(name)
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


@pytest.mark.parametrize("name", ACTIONS)
@pytest.mark.parametrize("length", LENGTHS)
def test_bytes_ball_is_the_reference_ball(name, length):
    action = action_of(name)
    for cap in FIXED_CAPS:
        expected = reference_action_ball(action, length, cap, as_bytes=True)
        got = word_ball(action, length, perm_cap=cap)
        assert type(got[0][0]) is bytes
        assert_ball_is_the_reference(got, expected, action.signed_tokens())


@pytest.mark.parametrize("name", ACTIONS)
def test_bytes_ball_cuts_back_at_each_layer_total(name):
    action = action_of(name)
    for cap in layer_caps(reference_action_ball(action, 8, 20000)[0]):
        expected = reference_action_ball(action, 8, cap, as_bytes=True)
        got = word_ball(action, 8, perm_cap=cap)
        assert type(got[0][0]) is bytes
        assert_ball_is_the_reference(got, expected, action.signed_tokens())


@pytest.mark.parametrize("name", ACTIONS)
@pytest.mark.parametrize("length", (0, 1, 3, 8))
def test_tuple_ball_is_the_reference_ball(name, length, monkeypatch):
    monkeypatch.setattr(action_module, "BYTE_ALPHABET", 0)  # no model fits bytes
    action = action_of(name)
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
    pairs, completed = reference_action_ball(action_of("warp_4"), 8, 20000)
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


# --------------------------------------------------- what callers read

def refuse_word(self, i):
    raise AssertionError("a caller that reads only the ball's size built a word")


@pytest.mark.parametrize("name", ["warp_3", "warp_4", "tree_0"])
def test_distality_builds_no_word(name, monkeypatch):
    monkeypatch.setattr(WordBall, "word", refuse_word)
    monkeypatch.setattr(WordBall, "path", refuse_word)
    action = action_of(name)
    verdict = is_distal(action, 8)
    pairs, completed = reference_action_ball(action, 8, ball_cap(20000, len(action.model)))
    assert (verdict.word_count, verdict.word_length) == (len(pairs), completed)


@pytest.mark.parametrize("name", ["vietoris", "fokkink_oversteegen", "random-0"])
def test_chain_dynamics_build_no_word(name, monkeypatch):
    monkeypatch.setattr(WordBall, "word", refuse_word)
    monkeypatch.setattr(WordBall, "path", refuse_word)
    chain = chain_of(name)
    _, distal, _, (ball, completed) = _chain_dynamics(chain, mccord_verdict(chain), F(1, 2), 8)
    assert (distal.word_count, distal.word_length) == (len(ball), completed)


def test_return_words_on_warp_4_stay_within_their_memory_bound():
    # the ball keeps one key and one parent link per class, and the return
    # words keep each image as its key and build no word: 6.3 MB traced on
    # CPython 3.11, 6.8 MB when each landing class was restricted to a window
    # tuple, and 11.1 MB when the ball kept every class's word tuple
    action = warp_example(4)
    action.model.pair_ranks()
    tracemalloc.start()
    try:
        words = ActionWindow(action).words(8, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(words), words.effective_bound) == (3972, 6)
    assert peak <= 8.5e6, f"{peak / 1e6:.1f} MB traced"
