"""The dynamics of a chain's boundary action, read off its algebra, against
the engines on that action.

On a chain `classify` and `measure` build no tower: minimality, the modulus
rows, the least distance and the uniform weight follow from left
translation on G/H_K, and the word ball is counted on coset keys of
core(H_K).  `code` takes the same modulus rows (its coding chain is checked
in tests/test_chain_code.py).  Here the engines, and the cylinder modulus
oracle, run on the oracle tower's boundary action
(`tower_oracle.build_tower(chain).boundary_action(lam)`) and must agree on
every gallery chain at its default depth, on two chains whose first level is
G, and on seeded random Klein-type chains built by intersecting subgroups
like those of tests/test_subgroup_algebra.py.  The word ball must give the
same words in the same order, and the same completed length, as the
reference ball on the boundary action's permutations
(`helpers.reference_action_ball`), with no cell clamp; the ball does not
depend on lam.  A budget of 5 holds the layer-atomic cutoff.  Conjugating
every level by one seeded element g keeps `classify`'s indices, McCord rows,
normality verdicts and dynamics sections, witnesses aside: the boundary
action of gH_lg⁻¹ is conjugate to the chain's, and core(gH_lg⁻¹) = core(H_l).
It keeps what `code` reads off its `ChainWindow` too: the minimality, the
orbit-graph diameter, the window size, its gap and each core orbit's size,
as xH_K -> xg⁻¹(gH_Kg⁻¹) is a G-equivariant isomorphism of orbit graphs.
Truncating a chain at depth k keeps the first k of its indices, modulus
rows, normality verdicts and McCord cores, on each gallery chain at its
deepest, on G-15 and on the random chains, through library calls that enumerate no
coset: a level's least cofinal level is kept when it is at most k, and is
otherwise replaced by a witness that re-verifies.
"""

import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

import cases
from cantordyn.action import invariant_measure, is_minimal
from cantordyn.affine import (
    compose,
    conjugate,
    contains,
    identity_element,
    is_normal,
    quotient_word_keys,
)
from cantordyn.ball import _word_ball
from cantordyn.cli import (
    _chain_dynamics,
    _chain_measure,
    _chain_modulus,
    cmd_classify,
    cmd_measure,
)
from cantordyn.coding import ChainWindow
from cantordyn.limits import BALL_BUDGET
from cantordyn.report import Report
from cantordyn.tower import SubgroupChain, mccord_verdict
from cases import LAMBDAS, RANDOM_SEEDS, SECTION_CHAINS as CHAINS
from helpers import reference_action_ball
from modulus_oracle import cylinder_modulus_rows

WORDS = (0, 3, 8)


def oracle_ball(action, max_length, budget):
    ball, completed = reference_action_ball(action, max_length, budget)
    return [word for word, _ in ball], completed


def ball_words(ball):
    return [ball.word(i) for i in range(len(ball))]


def test_first_level_g_chains_have_the_intended_indices():
    assert cases.chain("G").indices() == [1]
    assert cases.chain("G-15").indices() == [1, 15]


@pytest.mark.parametrize("name", CHAINS)
@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_modulus_distance_minimality_and_measure_match_the_engines(name, lam):
    chain, action = cases.chain(name), cases.boundary(name, lam)
    table, distal, measure, _ = _chain_dynamics(chain, mccord_verdict(chain), lam, 0)
    # what code and measure read
    assert (table, measure) == (_chain_modulus(chain, lam), _chain_measure(chain))
    assert is_minimal(action).minimal
    assert table.rows == cylinder_modulus_rows(action)
    assert distal.distal
    assert distal.min_delta == action.model.least_distance()
    mu = invariant_measure(action)
    assert (mu.label, mu.weight) == measure


@pytest.mark.parametrize("name", CHAINS)
@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_measure_lines_match_the_engines(name, lam):
    """`measure` on a chain enumerates no coset; its lines must be those the
    engines give on the boundary action, token by token."""
    chain, action = cases.chain(name), cases.boundary(name, lam)
    report = cmd_measure(SimpleNamespace(lam=lam), chain, Report("test", "measure"))
    expected = Report("test", "measure")
    mu = invariant_measure(action)
    weight = [mu.weight if i in mu.support else F(0) for i in range(len(action.model))]
    expected.section("measure")
    expected.add("support", mu.label, 1)
    expected.add("addresses", len(mu.support), 1)
    expected.add("weight", mu.weight, 1)
    verdicts = []
    for gen, perm in action.generators.items():
        # g_* mu = mu, Fraction by Fraction, exactly when mu(g a) = mu(a)
        verdicts.append([weight[j] for j in perm] == weight)
        expected.add(f"invariant_under {gen}", verdicts[-1], 1)
    expected.add("pushforward_invariant_all", all(verdicts) and sum(weight) == 1, 1)
    assert report.render() == expected.render()


@pytest.mark.parametrize("name", CHAINS)
@pytest.mark.parametrize("max_length", WORDS)
def test_word_ball_on_core_keys_matches_the_permutation_ball(name, max_length):
    chain, action = cases.chain(name), cases.boundary(name)
    _, distal, _, (ball, completed) = _chain_dynamics(
        chain, mccord_verdict(chain), LAMBDAS[0], max_length
    )
    words, oracle_completed = oracle_ball(action, max_length, BALL_BUDGET)
    assert ball_words(ball) == words
    assert completed == oracle_completed == distal.word_length
    assert distal.word_count == len(words)


@pytest.mark.parametrize("name", CHAINS)
def test_word_ball_on_core_keys_stops_at_the_same_layer_under_a_budget_of_five(name):
    chain, action = cases.chain(name), cases.boundary(name)
    core = mccord_verdict(chain).records[-1].core
    tokens, identity, compose = quotient_word_keys(chain.group, core)
    ball, completed = _word_ball(tokens, identity, 8, 5, compose)
    assert (ball_words(ball), completed) == oracle_ball(action, 8, 5)


# ------------------------------------------------------------- conjugation

CONJUGATION_SEEDS = range(3)


def moving_conjugator(chain, seed, tries=20):
    """A seeded product of five generators and inverses of the chain's
    group that moves some level, drawn up to `tries` times (a chain of
    normal levels is moved by none), and the conjugated levels."""
    group, rng = chain.group, random.Random(f"{chain.label}-{seed}")
    for _ in range(tries):
        g = identity_element(group.dimension, group.denom)
        for _ in range(5):
            _, e = rng.choice(group.generators)
            g = compose(g, e if rng.random() < 0.5 else e.inverse())
        levels = [conjugate(g, h) for h in chain.levels]
        if levels != list(chain.levels):
            break
    return levels


def classify_without_witnesses(chain):
    """`classify`'s report on the chain, each witness cut from its line."""
    cfg = SimpleNamespace(lam=LAMBDAS[0], words=8)
    lines = []
    for line in cmd_classify(cfg, chain, Report("test", "classify")).render().splitlines():
        head, cut, rest = line.partition(" witness ")
        lines.append(head + (" core_index" + rest.partition(" core_index")[2] if cut else ""))
    return lines


@pytest.mark.parametrize("name", CHAINS)
@pytest.mark.parametrize("seed", CONJUGATION_SEEDS)
def test_a_conjugate_chain_keeps_what_classify_reports(name, seed):
    chain = cases.chain(name)
    levels = moving_conjugator(chain, seed)
    if not all(is_normal(chain.group, h).normal for h in chain.levels):
        assert levels != list(chain.levels)
    conjugate_chain = SubgroupChain(chain.group, levels, label=chain.label)
    assert conjugate_chain.indices() == chain.indices()
    rows = [
        [(r.level, r.cofinal, r.cofinal_at, c.group.index_of(r.core)) for r in mccord_verdict(c).records]
        for c in (chain, conjugate_chain)
    ]
    assert rows[0] == rows[1]
    assert classify_without_witnesses(conjugate_chain) == classify_without_witnesses(chain)
    conjugate_window = ChainWindow(conjugate_chain, LAMBDAS[0])
    assert code_window_summary(conjugate_window) == code_window_summary(
        cases.window(name, LAMBDAS[0])
    )


def code_window_summary(source):
    """What `code` reads off a chain's ChainWindow besides its words: the
    minimality, the orbit-graph diameter, the window size, its gap to the
    rest, and the size of each level's core orbit."""
    cores = [len(source.core_orbit(l)) for l in range(1, source.action.model.depth + 1)]
    return source.minimal, source.diameter(), len(source.action.model), source.gap, cores


# -------------------------------------------------------------- truncation

# each gallery chain at its deepest
TRUNCATED = [
    "vietoris_2_8",
    "vietoris_5_4",
    "rogers_tollefson_8",
    "fokkink_oversteegen_3",
    "small_fo_variant_4",
    "G-15",
] + [f"random-{s}" for s in RANDOM_SEEDS]


@pytest.mark.parametrize("name", TRUNCATED)
def test_a_truncated_chain_keeps_the_first_levels_of_each_verdict(name):
    chain = cases.chain(name)
    lam = LAMBDAS[0]
    indices, rows = chain.indices(), _chain_modulus(chain, lam).rows
    normal = [is_normal(chain.group, h).normal for h in chain.levels]
    records = mccord_verdict(chain).records
    for k in range(1, chain.depth):
        part = chain.truncate(k)
        assert part.indices() == indices[:k]
        # the rows at radii lam^j, j < k: the first k, or k - 1 when H_1 = G
        assert _chain_modulus(part, lam).rows == tuple(row for row in rows if row[0] > lam ** k)
        assert [is_normal(part.group, h).normal for h in part.levels] == normal[:k]
        for full, cut in zip(records, mccord_verdict(part).records):
            assert (cut.level, cut.core) == (full.level, full.core)
            if full.cofinal and full.cofinal_at <= k:
                assert cut.cofinal_at == full.cofinal_at
            else:
                assert not cut.cofinal
                assert contains(part.levels[-1], cut.witness)
                assert not contains(cut.core, cut.witness)
