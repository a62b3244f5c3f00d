"""Return words (`coding.ActionWindow.words`) against the oracle that builds
every word at once and restricts each image to the window
(`helpers.reference_return_words`).

`ActionWindow.words` keeps each class's ball key as its image, indexed by address
index, and tells classes apart by one gather of the key at the window; a
shortest word's image is a dict over the window.  It builds no word, and
`word(k)` reads one off the ball on request.  Here its
words, in order, its bound, effective bound and window, and each image
restricted to the window must be the oracle's: on warp actions with and
without the free factor, on the return-word actions of `test_coding` (the
non-contiguous `vietoris_5_3` window among them), on four more random tree
actions, and on windows that are unions of several cylinders; at ball
budgets 50 and 20 000, on the model's own route and with the tuple route
forced by BYTE_ALPHABET = 0.  `code` on `warp_d4` builds at most one word
per translate and the report's six.
"""

import functools
import pathlib

import pytest

from cantordyn import action as action_module
from cantordyn.ball import WordBall
from cantordyn.cli import main
from cantordyn.coding import ActionWindow, default_window
from cantordyn.gallery import warp_example
from helpers import random_tree_action, reference_return_words
from test_coding import RETURN_WORD_ACTIONS

REPO = pathlib.Path(__file__).resolve().parent.parent

ACTIONS = {
    **{
        f"warp_{depth}{'' if free else '_fiber'}": functools.partial(
            warp_example, depth, include_free_factor=free
        )
        for depth in (1, 2, 3, 4)
        for free in (True, False)
    },
    **RETURN_WORD_ACTIONS,
    **{f"random_tree_{seed}": functools.partial(random_tree_action, seed) for seed in range(6, 10)},
}
UNION_WINDOWS = {"vietoris_5_3": 1, "warp_3": 2, "random_tree_6": 3}  # name -> cylinder depth
BUDGETS = (50, 20000)


@functools.lru_cache(maxsize=None)
def action_of(name):
    return ACTIONS[name]()


def union_window(action, depth, count=3):
    """The basepoint's depth-`depth` cylinder and the next `count - 1`
    cylinders of that depth, in address order: a clopen window that is not
    the default."""
    labels = action.model.cylinder_labels(depth)
    chosen = [labels[action.basepoint]]
    for label in labels:
        if label not in chosen and len(chosen) < count:
            chosen.append(label)
    return frozenset(i for i, label in enumerate(labels) if label in chosen)


def count_words(monkeypatch):
    """Patch `WordBall.word` to record the class of every call."""
    calls = []
    word = WordBall.word

    def counted(ball, i):
        calls.append(i)
        return word(ball, i)

    monkeypatch.setattr(WordBall, "word", counted)
    return calls


def assert_matches_the_oracle(monkeypatch, action, window, budget):
    calls = count_words(monkeypatch)
    got = ActionWindow(action, window).words(8, budget)
    assert calls == []  # no word is built until one is read
    want = reference_return_words(action, window, 8, perm_budget=budget)
    assert got.words == want.words
    assert (got.bound, got.effective_bound, got.window) == (
        want.bound, want.effective_bound, want.window
    )
    assert [tuple(image[i] for i in got.window) for image in got.images] == list(want.images)
    # a ball class's image is its key, held by reference
    assert all(got.images[k] is got.ball[i] for k, i in enumerate(got.classes))


@pytest.mark.parametrize("tuples", [False, True], ids=["own-route", "tuple-route"])
@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", list(ACTIONS))
def test_return_words_are_the_oracles(monkeypatch, name, budget, tuples):
    if tuples:
        monkeypatch.setattr(action_module, "BYTE_ALPHABET", 0)
    action = action_of(name)
    assert_matches_the_oracle(monkeypatch, action, default_window(action), budget)


@pytest.mark.parametrize("tuples", [False, True], ids=["own-route", "tuple-route"])
@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", list(UNION_WINDOWS))
def test_return_words_on_a_union_of_cylinders_are_the_oracles(monkeypatch, name, budget, tuples):
    if tuples:
        monkeypatch.setattr(action_module, "BYTE_ALPHABET", 0)
    action = action_of(name)
    window = union_window(action, UNION_WINDOWS[name])
    assert window != default_window(action)
    assert_matches_the_oracle(monkeypatch, action, window, budget)


def test_code_on_warp_d4_builds_a_word_only_when_read(capsys, monkeypatch):
    calls = count_words(monkeypatch)
    assert main(["code", str(REPO / "perfbench/configs/warp_d4.cfg")]) == 0
    report = capsys.readouterr().out
    lines = [line.strip() for line in report.splitlines()]
    translates = [int(line.split(":")[1]) for line in lines if line.startswith("translates:")]
    assert "return_word_classes: 3972" in report and translates
    assert len(calls) <= sum(translates) + 6  # one per new translate, and the head
