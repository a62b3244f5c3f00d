"""Config parsing round-trips, report determinism, and CLI exit codes."""

import contextlib
import io
import pathlib
import re
import sys
import time
from collections import namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantordyn import __version__
from cantordyn.cli import main
from cantordyn.config import PARAM_KEYS, parse_config, serialize_config
from cantordyn.errors import ParseError, ResourceLimitError, StructureError
from cantordyn.gallery import PRIME_TEST_BOUND, vietoris
from cantordyn.limits import check_cells
from cantordyn.tower import boundary_action
from cantordyn.report import strip_timing
from helpers import count_calls

REPO = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"
SHIPPED = sorted(CONFIG_DIR.glob("*.cfg"))


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ------------------------------------------------------------------ parsing

def test_gallery_reference_parses_to_a_chain():
    cfg = parse_config("[chain]\ngallery = vietoris\np = 2\ndepth = 3\n")
    chain = cfg.build_chain()
    assert chain.indices() == [2, 4, 8]


def test_explicit_fo_config_parses_to_the_matrix_chain():
    text = (CONFIG_DIR / "fo_explicit.cfg").read_text()
    cfg = parse_config(text)
    chain = cfg.build_chain()
    assert chain.levels[0].lattice.basis == ((3, 0), (0, 35))
    assert chain.indices() == [105, 11025]


def test_malformed_fraction_reports_location():
    with pytest.raises(ParseError) as err:
        parse_config("[params]\nlambda = 1/0\n")
    assert "line 2" in str(err.value)


def test_entry_before_section_rejected():
    with pytest.raises(ParseError) as err:
        parse_config("depth = 2\n")
    assert "line 1" in str(err.value)


def test_non_descending_chain_names_the_levels():
    text = (
        "[group]\n"
        "dimension = 1\n"
        "denominator = 1\n"
        "generator t = 1 ; 1\n"
        "[level 1]\n"
        "lattice = 2\n"
        "[level 2]\n"
        "lattice = 3\n"
        "[params]\n"
        "depth = 2\n"
    )
    cfg = parse_config(text)
    with pytest.raises(Exception) as err:
        cfg.build_chain()
    assert "level" in str(err.value)


def test_round_trip_is_a_fixed_point_on_all_shipped_configs():
    assert SHIPPED, "expected shipped configs"
    for path in SHIPPED:
        cfg = parse_config(path.read_text())
        canon = serialize_config(cfg)
        cfg2 = parse_config(canon)
        assert cfg2 == cfg
        assert serialize_config(cfg2) == canon


# the [group] and [level N] sections of the explicit configs, as shipped
EXPLICIT_PARTS = [
    path.read_text(encoding="utf-8").split("[params]")[0]
    for path in (
        CONFIG_DIR / "fo_explicit.cfg",
        CONFIG_DIR / "quads.cfg",
        REPO / "perfbench/configs/klein_3_5_mid.cfg",
    )
]
INTEGERS = st.integers(-(10 ** 6), 10 ** 6).map(str)
GALLERY_VALUES = {
    "p": INTEGERS,
    "depth": INTEGERS,
    "k1": INTEGERS,
    "free_factor": st.sampled_from(("true", "false", "yes", "no", "1", "0", "True")),
}
PARAM_VALUES = {
    "depth": st.integers(0, 50).map(str),
    "words": st.integers(0, 20).map(str),
    "lambda": st.integers(2, 100).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda p: f"{p}/{q}")  # perhaps not in lowest terms
    ),
    "seed": INTEGERS,
}


def entries(draw, values):
    """`key = value` lines for any subset of the keys, in any order."""
    keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
    return "".join(f"{key} = {draw(values[key])}\n" for key in keys)


@st.composite
def config_texts(draw):
    """A gallery reference whose parameters come in any order, or the explicit
    sections of a shipped config, perhaps under a [chain] header with any of
    the gallery parameters; then, perhaps, any of the [params] keys."""
    if draw(st.booleans()):
        kind = draw(st.sampled_from(("chain", "action")))
        name = draw(st.sampled_from(("vietoris", "fokkink_oversteegen", "warp_example")))
        text = f"[{kind}]\ngallery = {name}\n" + entries(draw, GALLERY_VALUES)
    else:
        text = draw(st.sampled_from(EXPLICIT_PARTS))
        if draw(st.booleans()):
            text = "[chain]\n" + entries(draw, GALLERY_VALUES) + text
    if draw(st.booleans()):
        text += "[params]\n" + entries(draw, PARAM_VALUES)
    return text


@given(config_texts())
def test_serializing_a_parsed_config_round_trips(text):
    stray = re.match(r"\[chain\]\n(?!gallery )(\w+) = ", text)  # a parameter no gallery reads
    if stray:
        with pytest.raises(ParseError) as err:
            parse_config(text)
        message = f"[chain]: parameter {stray[1]!r} needs a gallery reference"
        assert (err.value.line, str(err.value)) == (2, f"line 2: {message}")
        return
    cfg = parse_config(text)
    canon = serialize_config(cfg)
    assert parse_config(canon) == cfg
    assert serialize_config(parse_config(canon)) == canon


def test_lambda_must_be_in_unit_interval():
    with pytest.raises(ParseError):
        parse_config("[chain]\ngallery = vietoris\n[params]\nlambda = 3/2\n")


def test_level_sections_must_be_contiguous():
    text = (
        "[group]\n"
        "dimension = 1\n"
        "denominator = 1\n"
        "generator t = 1 ; 1\n"
        "[level 2]\n"
        "lattice = 4\n"
    )
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert "contiguous" in str(err.value)


# ---------------------------------------------------------------------- CLI

def test_classify_exit_zero_and_sections(capsys):
    rc, out, _ = run_cli(capsys, "classify", str(CONFIG_DIR / "vietoris2.cfg"))
    assert rc == 0
    assert "minimal: true" in out
    assert "compatible_up_to_depth: true" in out
    assert "kappa_equals_r_on_all_rows: true" in out


def test_classify_negative_verdict_still_exits_zero(capsys):
    rc, out, _ = run_cli(
        capsys, "classify", str(CONFIG_DIR / "warp_fiber_only.cfg")
    )
    assert rc == 0
    assert "minimal: false" in out
    assert "witness_orbit: w0" in out


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[params]\nlambda = 1/0\n")
    rc, _, err = run_cli(capsys, "classify", str(bad))
    assert rc == 2
    assert "line 2" in err


def test_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe")
    rc, out, err = run_cli(capsys, "classify", str(bad))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot read config {str(bad)!r}: ")
    assert err.count("\n") == 1


def test_semantic_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "[group]\ndimension = 1\ndenominator = 1\ngenerator t = 1 ; 1\n"
        "[level 1]\nlattice = 2\n[level 2]\nlattice = 3\n"
    )
    rc, _, err = run_cli(capsys, "classify", str(bad))
    assert rc == 2


VIETORIS_TEXT = "[chain]\ngallery = vietoris\np = 2\ndepth = 2\n"
FO_TEXT = (CONFIG_DIR / "fo_explicit.cfg").read_text(encoding="utf-8")  # 21 lines
PARAMS_TEXT = VIETORIS_TEXT + "[params]\ndepth = 2\nwords = 8\nlambda = 1/2\nseed = 0\n"


def repeat_line(text, line):
    """The text with its line `line` written twice: the copy is line + 1."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[:line] + lines[line - 1 : line] + lines[line:])


# a section or key given twice fails at the second, whatever its value
DUPLICATES = {
    "level 2": (FO_TEXT + "[level 2]\nlattice = 27 0 / 0 1225\n", 22),
    "lattice": (FO_TEXT.replace("= 3 0 / 0 35\n", "= 3 0 / 0 35\nlattice = 9 0 / 0 35\n"), 11),
    "group": (FO_TEXT + "[group]\ndimension = 2\n", 22),
    "params": (FO_TEXT + "[params]\nseed = 1\n", 22),
    "dimension": (repeat_line(FO_TEXT, 3), 4),
    "denominator": (repeat_line(FO_TEXT, 4), 5),
    "generator": (FO_TEXT.replace("generator g", "generator g = 1 0 / 0 1 ; 0 1\ngenerator  g"), 8),
    "gallery": (repeat_line(VIETORIS_TEXT, 2), 3),
    "p": (repeat_line(VIETORIS_TEXT, 3), 4),
    **{key: (repeat_line(PARAMS_TEXT, line), line + 1) for line, key in enumerate(PARAM_KEYS, 6)},
}


@pytest.mark.parametrize(
    "text, line, flags",
    [
        ("[chain]\ngallery = vietoris\np = x\ndepth = 2\n", 3, ()),
        ("[action]\ngallery = warp_example\nfree_factor = maybe\n", 3, ()),
        (
            "[group]\ndimension = 1\ndenominator = 1\ngenerator t = 1 ; 1\n"
            "[level 1]\nlattice = 2 0 / 0 2\n",
            6,
            (),
        ),
        (
            "[group]\ndimension = 2\ndenominator = 1\ngenerator t = 1 ; 1\n"
            "[level 1]\nlattice = 2 0 / 0 2\n",
            4,
            (),
        ),
        (VIETORIS_TEXT + "[params]\nwords = -1\n", 6, ()),
        # a flag has no line: the error names the flag instead
        (VIETORIS_TEXT, None, ("--words", "-2")),
    ]
    + [
        pytest.param(text, line, (), id=f"duplicate-{name}")
        for name, (text, line) in DUPLICATES.items()
    ],
)
def test_malformed_values_exit_two_naming_the_line(tmp_path, capsys, text, line, flags):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    rc, _, err = run_cli(capsys, "classify", str(bad), *flags)
    assert rc == 2
    assert (f"line {line}:" if line is not None else flags[0]) in err


def test_a_duplicate_error_names_the_section_or_key(tmp_path, capsys):
    for name, what in (("level 2", "[level 2]"), ("lattice", "'lattice'"), ("p", "'p'")):
        text, line = DUPLICATES[name]
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        rc, out, err = run_cli(capsys, "classify", str(bad))
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: line {line}: ") and "duplicate" in err and what in err


# parts that a gallery builder would drop unread
IGNORED_PARTS = {
    "level-next-to-gallery": (
        VIETORIS_TEXT + "[level 1]\nlattice = 7 0 / 0 7\n",
        "line 5: section [level 1] is ignored next to a gallery reference",
    ),
    "group-next-to-gallery": (
        "[group]\ndimension = 1\ndenominator = 1\ngenerator t = 1 ; 1\n" + VIETORIS_TEXT,
        "line 1: section [group] is ignored next to a gallery reference",
    ),
    "fokkink_oversteegen-p-k1-free_factor": (
        "[chain]\ngallery = fokkink_oversteegen\np = 2\nk1 = 2\nfree_factor = true\n",
        "gallery chain 'fokkink_oversteegen' takes no parameter 'p'",
    ),
    "warp_example-p": (
        "[action]\ngallery = warp_example\np = 2\n",
        "gallery action 'warp_example' takes no parameter 'p'",
    ),
}


@pytest.mark.parametrize("name", IGNORED_PARTS)
def test_a_part_the_gallery_ignores_exits_two_naming_it(tmp_path, capsys, name):
    text, message = IGNORED_PARTS[name]
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    for command in ("classify", "code", "measure"):
        rc, out, err = run_cli(capsys, command, str(bad))
        assert (rc, out, err) == (2, "", f"error: {message}\n"), command


GROUP_1D = "[group]\ndimension = 1\ndenominator = 1\ngenerator t = 1 ; 1\n"
LEVEL_1D = "[level 1]\nlattice = 2\n"
GROUP_2D = "[group]\ndimension = 2\ndenominator = 1\n"
KLEIN_2D = GROUP_2D + (
    "generator a = 1 0 / 0 -1 ; 0 0\ngenerator b = -1 0 / 0 1 ; 0 0\n"
    "generator t = 1 0 / 0 1 ; 1 0\ngenerator u = 1 0 / 0 1 ; 0 1\n"
)
SQUARE_2D = "[level 1]\nlattice = 2 0 / 0 2\n"

# a config text and its one error line, after the flags and environment
Refusal = namedtuple("Refusal", "text message flags env", defaults=((), ()))

REFUSALS = {
    "empty-section-name": Refusal("[ ]\n", "line 1: empty section name"),
    "no-equals-sign": Refusal(
        VIETORIS_TEXT + "[params]\ndepth 2\n", "line 6: expected 'key = value'"
    ),
    "second-top-level": Refusal(
        VIETORIS_TEXT + "[action]\ngallery = warp_example\n",
        "line 5: duplicate top-level section [action]",
    ),
    "level-x": Refusal(
        GROUP_1D + "[level x]\nlattice = 2\n", "line 5: section [level x] must be '[level N]'"
    ),
    "level-1-renumbered": Refusal(
        GROUP_1D + LEVEL_1D + "[level 01]\nlattice = 4\n", "line 7: duplicate section [level 1]"
    ),
    "unknown-params-key": Refusal(
        VIETORIS_TEXT + "[params]\nfoo = 1\n", "line 6: [params]: unknown key 'foo'"
    ),
    "unknown-section": Refusal(VIETORIS_TEXT + "[foo]\n", "line 5: unknown section [foo]"),
    "chain-parameter-without-gallery": Refusal(
        "[chain]\np = 2\n" + GROUP_1D + LEVEL_1D,
        "line 2: [chain]: parameter 'p' needs a gallery reference",
    ),
    "no-top-level": Refusal(
        "[params]\ndepth = 2\n", "config needs a [chain], [action], or [group] section"
    ),
    "group-without-level": Refusal(
        GROUP_1D, "an explicit group needs at least one [level N] section"
    ),
    # keys are whitespace-normalized: a generator without a name is the key 'generator'
    "unnamed-generator": Refusal(
        GROUP_1D.replace("generator t", "generator ") + LEVEL_1D,
        "line 4: [group]: unknown key 'generator'",
    ),
    "empty-matrix-row": Refusal(
        KLEIN_2D + "[level 1]\nlattice = 2 0 /  / 0 2\n", "line 9: empty matrix row"
    ),
    "unequal-matrix-rows": Refusal(
        GROUP_1D + "[level 1]\nlattice = 2 0 / 2\n", "line 6: matrix rows have unequal lengths"
    ),
    "affine-vector-length": Refusal(
        GROUP_1D.replace("1 ; 1", "1 ; 1 2") + LEVEL_1D,
        "line 4: affine vector length does not match the matrix",
    ),
    "denominator-0": Refusal(
        GROUP_1D.replace("denominator = 1", "denominator = 0") + LEVEL_1D,
        "denominator must be a positive integer",
    ),
    "translation-off-the-denominator": Refusal(
        GROUP_1D.replace("1 ; 1", "1 ; 1/2") + LEVEL_1D,
        "translation entry 1/2 is not a multiple of 1/1",
    ),
    "non-unimodular-point-part": Refusal(
        GROUP_2D + "generator t = 0 2 / 1 0 ; 1 0\n" + SQUARE_2D,
        "point part must be unimodular, got |determinant| 2",
    ),
    "singular-point-part": Refusal(
        GROUP_2D + "generator t = 0 0 / 1 0 ; 1 0\n" + SQUARE_2D,
        "point part must be unimodular, got |determinant| 0",
    ),
    "reps-not-closed": Refusal(
        KLEIN_2D + SQUARE_2D + "rep = 1 0 / 0 -1 ; 0 0\nrep = -1 0 / 0 1 ; 0 0\n",
        "[level 1]: representatives not closed: [-1,0;0,1]|(0,0) * [1,0;0,-1]|(0,0) "
        "leaves the subgroup",
    ),
    "level-outside-the-group": Refusal(
        GROUP_1D + LEVEL_1D + "rep = -1 ; 0\n",
        "[level ...]: chain level is not a subgroup of the group",
    ),
    "vietoris-depth-0": Refusal(
        "[chain]\ngallery = vietoris\np = 2\ndepth = 0\n", "depth must be at least 1"
    ),
    "small_fo_variant-depth-5": Refusal(
        "[chain]\ngallery = small_fo_variant\ndepth = 5\n",
        "small_fo_variant depth must be in 1..4",
    ),
    "warp_example-k1-0": Refusal(
        "[action]\ngallery = warp_example\nk1 = 0\n", "need at least one fiber generator"
    ),
    "lambda-abc": Refusal(
        VIETORIS_TEXT, "--lambda: not a fraction: 'abc'", flags=("--lambda", "abc")
    ),
    "lambda-3/2": Refusal(
        VIETORIS_TEXT, "--lambda must lie in (0,1)", flags=("--lambda", "3/2")
    ),
    # the flag reads the `lambda` key's numerals: integers and p/q
    "lambda-0.5": Refusal(
        VIETORIS_TEXT, "--lambda: not a fraction: '0.5'", flags=("--lambda", "0.5")
    ),
    "lambda-1e-1": Refusal(
        VIETORIS_TEXT, "--lambda: not a fraction: '1e-1'", flags=("--lambda", "1e-1")
    ),
    "lambda-1/0": Refusal(
        VIETORIS_TEXT, "--lambda: not a fraction: '1/0'", flags=("--lambda", "1/0")
    ),
    "index-cap-abc": Refusal(
        VIETORIS_TEXT,
        "CANTORDYN_INDEX_CAP must be an integer, got 'abc'",
        env=(("CANTORDYN_INDEX_CAP", "abc"),),
    ),
    "index-cap-0": Refusal(
        VIETORIS_TEXT,
        "CANTORDYN_INDEX_CAP must be positive",
        env=(("CANTORDYN_INDEX_CAP", "0"),),
    ),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_every_refusal_exits_two_with_one_error_line(tmp_path, capsys, monkeypatch, name):
    refusal = REFUSALS[name]
    for key, value in refusal.env:
        monkeypatch.setenv(key, value)
    bad = tmp_path / "bad.cfg"
    bad.write_text(refusal.text)
    rc, out, err = run_cli(capsys, "classify", str(bad), *refusal.flags)
    assert (rc, out, err) == (2, "", f"error: {refusal.message}\n")


# an input for each refusal of parse_config: its text, line and message
PARSE_REFUSALS = {
    "unterminated-header": ("[chain\ngallery = vietoris\n", 1, "unterminated section header"),
    "empty-section-name": ("[ ]\n", 1, "empty section name"),
    "entry-before-any-header": ("depth = 2\n", 1, "entry before any section header"),
    "no-equals-sign": (VIETORIS_TEXT + "[params]\ndepth 2\n", 6, "expected 'key = value'"),
    "duplicate-key": (repeat_line(VIETORIS_TEXT, 3), 4, "[chain]: duplicate key 'p'"),
    "duplicate-lattice": (DUPLICATES["lattice"][0], 11, "[level 1]: duplicate key 'lattice'"),
    "duplicate-params": (DUPLICATES["params"][0], 22, "duplicate section [params]"),
    "duplicate-group": (DUPLICATES["group"][0], 22, "duplicate section [group]"),
    "duplicate-level": (DUPLICATES["level 2"][0], 22, "duplicate section [level 2]"),
    "level-1-renumbered": (
        GROUP_1D + LEVEL_1D + "[level 01]\nlattice = 4\n", 7, "duplicate section [level 1]"
    ),
    "second-top-level": (
        VIETORIS_TEXT + "[action]\ngallery = warp_example\n",
        5,
        "duplicate top-level section [action]",
    ),
    "chain-gallery-empty": ("[chain]\ngallery = \n", 2, "[chain]: gallery needs a builder name"),
    "action-gallery-empty": ("[action]\ngallery =\n", 2, "[action]: gallery needs a builder name"),
    "p-x": ("[chain]\ngallery = vietoris\np = x\n", 3, "expected an integer, got 'x'"),
    "free_factor-maybe": (
        "[action]\ngallery = warp_example\nfree_factor = maybe\n",
        3,
        "expected a boolean, got 'maybe'",
    ),
    "chain-unknown-key": ("[chain]\ngallery = vietoris\nq = 2\n", 3, "[chain]: unknown key 'q'"),
    "action-unknown-key": ("[action]\nlambda = 1/2\n", 2, "[action]: unknown key 'lambda'"),
    "group-unknown-key": (GROUP_1D + "lattice = 2\n", 5, "[group]: unknown key 'lattice'"),
    "unnamed-generator": (
        GROUP_1D.replace("generator t", "generator ") + LEVEL_1D,
        4,
        "[group]: unknown key 'generator'",
    ),
    "dimension-x": (
        GROUP_1D.replace("dimension = 1", "dimension = x"),
        2,
        "expected an integer, got 'x'",
    ),
    "group-without-generators": (
        "[group]\ndimension = 1\ndenominator = 1\n" + LEVEL_1D,
        1,
        "[group]: needs dimension, denominator, and generators",
    ),
    "group-empty": (
        "[group]\n" + LEVEL_1D,
        1,
        "[group]: needs dimension, denominator, and generators",
    ),
    "level-x": (GROUP_1D + "[level x]\nlattice = 2\n", 5, "section [level x] must be '[level N]'"),
    "level-unknown-key": (
        GROUP_1D + "[level 1]\nrep = 1 ; 0\nfoo = 2\n",
        7,
        "[level 1]: unknown key 'foo'",
    ),
    "level-without-lattice": (
        GROUP_1D + "[level 1]\nrep = 1 ; 0\n",
        5,
        "[level 1]: needs a lattice",
    ),
    "level-empty": (GROUP_1D + "[level 1]\n", 5, "[level 1]: needs a lattice"),
    "words-negative": (
        VIETORIS_TEXT + "[params]\nwords = -1\n",
        6,
        "[params]: words must be nonnegative",
    ),
    "lambda-3/2": (
        VIETORIS_TEXT + "[params]\nlambda = 3/2\n",
        6,
        "[params]: lambda must lie in (0,1)",
    ),
    "lambda-0": (VIETORIS_TEXT + "[params]\nlambda = 0\n", 6, "[params]: lambda must lie in (0,1)"),
    "lambda-0.5": (
        VIETORIS_TEXT + "[params]\nlambda = 0.5\n", 6, "expected an integer or fraction, got '0.5'"
    ),
    "lambda-1/0": ("[params]\nlambda = 1/0\n", 2, "fraction '1/0' has a zero denominator"),
    "params-unknown-key": (VIETORIS_TEXT + "[params]\nfoo = 1\n", 6, "[params]: unknown key 'foo'"),
    "unknown-section": (VIETORIS_TEXT + "[foo]\n", 5, "unknown section [foo]"),
    "level-next-to-gallery": (
        VIETORIS_TEXT + "[level 1]\nlattice = 7 0 / 0 7\n",
        5,
        "section [level 1] is ignored next to a gallery reference",
    ),
    "group-next-to-gallery": (
        GROUP_1D + VIETORIS_TEXT, 1, "section [group] is ignored next to a gallery reference"
    ),
    "matrix-size": (
        GROUP_1D + "[level 1]\nlattice = 2 0 / 0 2\n",
        6,
        "matrix is 2x2, but [group] has dimension 1",
    ),
    "rep-size": (
        KLEIN_2D + SQUARE_2D + "rep = 1 ; 0\n", 10, "matrix is 1x1, but [group] has dimension 2"
    ),
    "generator-size-after-its-level": (
        SQUARE_2D + GROUP_2D + "generator t = 1 ; 1\n",
        6,
        "matrix is 1x1, but [group] has dimension 2",
    ),
    "no-top-level": (
        "[params]\ndepth = 2\n",
        None,
        "config needs a [chain], [action], or [group] section",
    ),
    "action-without-gallery": ("[action]\nk1 = 2\n", None, "[action]: needs a gallery reference"),
    "chain-without-gallery": (
        "[chain]\np = 2\n", None, "[chain]: needs a gallery reference or a [group] section"
    ),
    # a [group] builds the chain, so no gallery would read the parameter
    "chain-parameter-without-gallery": (
        "[chain]\np = 2\n" + GROUP_1D + LEVEL_1D,
        2,
        "[chain]: parameter 'p' needs a gallery reference",
    ),
    "levels-not-contiguous": (
        GROUP_1D + "[level 2]\nlattice = 4\n",
        None,
        "level sections must be numbered 1..n contiguously",
    ),
    "group-without-level": (
        GROUP_1D,
        None,
        "an explicit group needs at least one [level N] section",
    ),
    "empty-matrix-row": (KLEIN_2D + "[level 1]\nlattice = 2 0 /  / 0 2\n", 9, "empty matrix row"),
    "unequal-matrix-rows": (
        GROUP_1D + "[level 1]\nlattice = 2 0 / 2\n",
        6,
        "matrix rows have unequal lengths",
    ),
    "matrix-entry-1/2": (
        GROUP_1D + "[level 1]\nlattice = 1/2\n",
        6,
        "expected an integer, got '1/2'",
    ),
    "affine-without-semicolon": (
        GROUP_1D.replace("1 ; 1", "1 1") + LEVEL_1D, 4, "affine map needs 'matrix ; vector'"
    ),
    "affine-vector-length": (
        GROUP_1D.replace("1 ; 1", "1 ; 1 2") + LEVEL_1D,
        4,
        "affine vector length does not match the matrix",
    ),
}


@pytest.mark.parametrize("name", PARSE_REFUSALS)
def test_every_parse_refusal_names_its_message_and_line(name):
    text, line, message = PARSE_REFUSALS[name]
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


# a level header is two words, `level` and an integer as `int` reads it
LEVEL_HEADERS = {
    "levels 1": "line 7: unknown section [levels 1]",
    "levelx 1": "line 7: unknown section [levelx 1]",
    "level 1 junk": "line 7: section [level 1 junk] must be '[level N]'",
    "level": "line 7: section [level] must be '[level N]'",
    "level -1": "level sections must be numbered 1..n contiguously",
}


@pytest.mark.parametrize("header", LEVEL_HEADERS)
def test_a_malformed_level_header_exits_two(tmp_path, capsys, header):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GROUP_1D + LEVEL_1D + f"[{header}]\nlattice = 4\n")
    rc, out, err = run_cli(capsys, "classify", str(bad))
    assert (rc, out, err) == (2, "", f"error: {LEVEL_HEADERS[header]}\n")


def test_a_level_header_normalizes_its_whitespace():
    spaced = parse_config(GROUP_1D + LEVEL_1D + "[ level \t 2 ]\nlattice = 4\n")
    assert spaced == parse_config(GROUP_1D + LEVEL_1D + "[level 2]\nlattice = 4\n")
    assert [level.lattice for level in spaced.levels] == [((2,),), ((4,),)]


V2 = "configs/vietoris2.cfg"
COMMAND_LIST = "one of classify, compare, code, holonomy, measure"

# a command line and its one error line, run from the repository root
ARGV_REFUSALS = {
    "no-command": ((), f"no command given; expected {COMMAND_LIST}"),
    "unknown-command": (
        ("frobnicate", V2), f"unknown command 'frobnicate'; expected {COMMAND_LIST}"
    ),
    "unknown-flag": (("classify", V2, "--frob", "1"), "unknown flag '--frob' for classify"),
    "flag-before-the-command": (("--depth", "2", "classify", V2), "unknown flag '--depth'"),
    "flag-without-value": (("classify", V2, "--depth"), "--depth needs a value"),
    "flag-then-flag": (("classify", V2, "--out", "--depth", "2"), "--out needs a value"),
    "depth-x": (("classify", V2, "--depth", "x"), "--depth: not an integer: 'x'"),
    "depth-equals-empty": (("classify", V2, "--depth="), "--depth: not an integer: ''"),
    # --word is holonomy's flag, so on another command it is no prefix of --words
    "word-on-classify": (("classify", V2, "--word", "g1"), "unknown flag '--word' for classify"),
    "word-3-on-classify": (("classify", V2, "--word", "3"), "unknown flag '--word' for classify"),
    "word-3-on-code": (("code", V2, "--word", "3"), "unknown flag '--word' for code"),
    "ambiguous-prefix": (
        ("holonomy", V2, "--wor", "t", "--at", "w0"),
        "ambiguous flag '--wor' for holonomy: --words or --word",
    ),
    "help-with-value": (("classify", V2, "--help=1"), "--help takes no value"),
    "missing-config": (("classify",), "classify needs CONFIG"),
    "missing-second-config": (("compare", V2), "compare needs CONFIG_A CONFIG_B"),
    "extra-positional": (("classify", V2, V2), f"classify: unexpected argument {V2!r}"),
    "flag-after-a-bare-dash-dash": (
        ("classify", "--", V2, "--depth"), "classify: unexpected argument '--depth'"
    ),
    "holonomy-without-at": (("holonomy", V2, "--word", "t"), "holonomy needs --at"),
    "holonomy-without-word": (("holonomy", V2, "--at", "w0"), "holonomy needs --word"),
}


@pytest.mark.parametrize("name", ARGV_REFUSALS)
def test_every_argv_refusal_exits_two_with_one_error_line(capsys, monkeypatch, name):
    argv, message = ARGV_REFUSALS[name]
    monkeypatch.chdir(REPO)
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("-h",),
        ("--help",),
        ("--he",),
        ("classify", "-h"),
        ("compare", "--help"),
        ("holonomy", V2, "--word", "t", "--h"),
        ("measure", "no-such.cfg", "--help", "--frob"),
    ],
)
def test_help_exits_zero_with_the_usage_on_stdout(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, err) == (0, "")
    command = argv[0] if argv[0][0] != "-" else "COMMAND"
    assert out.startswith(f"usage: cantordyn {command} ")
    assert "  -h, --help  " in out
    assert ("  --depth K  " in out) == (command != "COMMAND")
    assert ("  --at ADDRESS  " in out) == (command == "holonomy")


@pytest.mark.parametrize(
    "argv", [("--version",), ("--vers",), ("code", "--version"), ("compare", V2, "--version")]
)
def test_version_exits_zero_with_the_version_on_stdout(capsys, argv):
    assert run_cli(capsys, *argv) == (0, f"{__version__}\n", "")


def test_flag_value_forms_and_prefixes_give_one_report(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    reports = set()
    for flags in (
        ("configs/vietoris5.cfg", "--depth", "2"),
        ("configs/vietoris5.cfg", "--depth=2"),
        ("configs/vietoris5.cfg", "--dep", "2"),
        ("configs/vietoris5.cfg", "--dep", "2", "--wo", "8"),  # the config's own word bound
        ("configs/vietoris5.cfg", "--dep=2"),
        ("--depth", "2", "configs/vietoris5.cfg"),
        ("configs/vietoris5.cfg", "--depth", "3", "--depth", "2"),  # the last wins
        ("--depth", "2", "--", "configs/vietoris5.cfg"),  # no flag after a bare --
    ):
        rc, out, err = run_cli(capsys, "classify", *flags)
        assert (rc, err) == (0, ""), flags
        reports.add(strip_timing(out))
    (report,) = reports
    assert "\n  depth: 2\n" in report and "\n  levels: 2\n" in report


CONFIGS = (str(CONFIG_DIR / "vietoris2.cfg"), str(CONFIG_DIR / "warp_fiber_only.cfg"))
# no token spells a prefix of --out, so no run writes a file
ARGV_TOKENS = (
    "classify", "compare", "code", "holonomy", "measure", "no-such.cfg",
    "--depth", "--words", "--lambda", "--seed", "--word", "--at", "--help", "--version", "-h",
    "--dep", "--w", "--wor", "--depth=1", "--words=2", "--lambda=1/3", "--seed=-3", "--at=w0",
    "0", "1", "2", "-1", "x", "1/2", "t", "g1", "t*t^-1", "w0", "0.0", "", "-", "--", "=",
)
VALUE_FLAGS = ("--depth", "--words", "--lambda", "--seed", "--word", "--at")
VALUES = ("-1", "0", "1", "2", "x", "1/3", "t*t^-1", "g1", "w0", "0.0.0.0", "0")


@st.composite
def command_lines(draw):
    """A command and a config, either of them perhaps dropped, then configs,
    flags with values and stray tokens."""
    argv = [draw(st.sampled_from(("classify", "compare", "code", "holonomy", "measure", "x")))]
    argv.append(draw(st.sampled_from(CONFIGS)))
    drop = draw(st.sampled_from((0, 1, None, None, None)))
    if drop is not None:
        del argv[drop]
    flag_value = st.tuples(st.sampled_from(VALUE_FLAGS), st.sampled_from(VALUES)).map(list)
    pieces = st.one_of(
        flag_value,
        flag_value,
        st.sampled_from(CONFIGS).map(lambda path: [path]),
        st.sampled_from(ARGV_TOKENS).map(lambda token: [token]),
        st.text(alphabet="-=.12xw ", max_size=5).map(lambda token: [token]),
    )
    for piece in draw(st.lists(pieces, max_size=4)):
        argv += piece
    return argv


@given(command_lines())
def test_any_argv_meets_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    assert rc in (0, 2, 3), argv
    if rc:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
        assert err.getvalue().startswith("error: "), argv
    else:
        assert err.getvalue() == "" and out.getvalue(), argv


def test_the_seed_flag_is_echoed(capsys):
    for command in ("classify", "code", "measure"):
        rc, out, err = run_cli(capsys, command, str(CONFIG_DIR / "vietoris2.cfg"), "--seed", "7")
        assert (rc, err) == (0, "")
        assert "\n  seed: 7\n" in out


def test_rep_lines_repeat():
    glide = "rep = 1 0 / 0 -1 ; 3/2 0\n"
    cfg = parse_config(FO_TEXT.replace(glide, "rep = 1 0 / 0 1 ; 0 0\n" + glide))
    assert [len(level.reps) for level in cfg.levels] == [2, 1]
    assert cfg.build_chain().levels == parse_config(FO_TEXT).build_chain().levels


def test_a_chain_config_builds_a_chain_and_no_action():
    # a chain's action is its tower's boundary action, which the CLI builds
    # from the chain it has already truncated
    with pytest.raises(StructureError, match="does not describe an action"):
        parse_config(FO_TEXT).build_action()


def test_zero_word_bound_stays_valid(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(VIETORIS_TEXT + "[params]\nwords = 0\n")
    for flags in ((), ("--words", "0")):
        rc, out, _ = run_cli(capsys, "classify", str(cfg), *flags)
        assert rc == 0
        assert "  words: 0\n" in out


def test_resource_cap_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CANTORDYN_INDEX_CAP", "10")
    rc, _, err = run_cli(capsys, "classify", str(CONFIG_DIR / "fo.cfg"))
    assert rc == 3
    assert "cap" in err


@contextlib.contextmanager
def default_int_digits():
    """CPython's default limit of 4300 digits on int-to-str conversion,
    where it has one, restored afterwards."""
    before = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if before is not None:
        sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "argv",
    [("classify",), ("measure",), ("code",), ("holonomy", "--word", "t", "--at", "0")],
    ids=["classify", "measure", "code", "holonomy"],
)
def test_a_cap_naming_a_number_past_4300_digits_exits_three(tmp_path, capsys, argv):
    # the index 1000003^720 has 4321 digits, and the cap message prints it whole
    cfg = tmp_path / "vietoris_720.cfg"
    cfg.write_text("[chain]\ngallery = vietoris\np = 1000003\ndepth = 720\n")
    with default_int_digits():
        rc, out, err = run_cli(capsys, argv[0], str(cfg), *argv[1:])
        assert (rc, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "cap" in err
        if argv[0] != "code":  # code refuses the window's cells
            assert f"coset index {1000003 ** 720} exceeds the cap" in err


def test_a_library_cap_past_4300_digits_names_the_size_in_bits():
    # outside the CLI the 4300-digit limit holds: a cap names what str can print
    index = 1000003 ** 720
    with default_int_digits():
        with pytest.raises(ResourceLimitError) as err:
            boundary_action(vietoris(1000003, 720))
        assert str(err.value) == (
            f"coset index <{index.bit_length()}-bit number> exceeds the cap 1000000"
        )
        with pytest.raises(ResourceLimitError) as err:
            check_cells(10 ** 5000, "pair ranks")
        assert str(err.value).startswith("pair ranks need <16610-bit number> cells but ")
        with pytest.raises(ResourceLimitError) as err:
            check_cells(10 ** 4299, "pair ranks")
        assert str(err.value).startswith(f"pair ranks need 1{'0' * 4299} cells but ")


def test_exact_rows_past_4300_digits_print_whole(capsys):
    # lambda = 10^-3000: the rows at lambda^2 and lambda^3 have 6001 and 9001 digits
    lam = "1/1" + "0" * 3000
    with default_int_digits():
        rc, out, err = run_cli(
            capsys, "classify", str(CONFIG_DIR / "vietoris5.cfg"), "--lambda", lam
        )
    assert (rc, err) == (0, "")
    powers = ["1"] + ["1/1" + "0" * (3000 * j) for j in (1, 2, 3)]
    lines = out.splitlines()
    head = lines.index("  head:")
    assert lines[head + 1:head + 5] == [f"    r {r}: kappa {r}" for r in powers]
    assert f"  lambda: {lam}" in lines
    assert f"  min_delta: {powers[3]}" in lines


@pytest.mark.parametrize(
    "p, rc, message",
    [
        (10 ** 18 + 3, 3, "exceeds the cap"),  # a prime: the index cap refuses it
        (10 ** 18 + 1, 2, "must be a prime"),  # 101 * 9901 * ...
        (PRIME_TEST_BOUND, 2, f"not below {PRIME_TEST_BOUND}"),
    ],
    ids=["prime", "composite", "past-the-bound"],
)
def test_a_large_vietoris_base_is_decided_at_once(tmp_path, capsys, p, rc, message):
    cfg = tmp_path / "vietoris_large_p.cfg"
    cfg.write_text(f"[chain]\ngallery = vietoris\np = {p}\ndepth = 1\n")
    start = time.perf_counter()
    got, out, err = run_cli(capsys, "classify", str(cfg))
    assert time.perf_counter() - start < 1.0
    assert (got, out) == (rc, "")
    assert message in err and err.count("\n") == 1


def test_invariant_violation_exits_four(capsys, monkeypatch):
    from cantordyn import cli as cli_module
    from cantordyn.errors import InvariantViolation

    def boom(*args):
        raise InvariantViolation("synthetic violation")

    monkeypatch.setattr(cli_module, "cmd_classify", boom)
    rc, _, err = run_cli(capsys, "classify", str(CONFIG_DIR / "vietoris2.cfg"))
    assert rc == 4
    assert "synthetic violation" in err


def swap_across_level(monkeypatch, name, level=1):
    """Patch `coset_space`, where `tower` and the oracle tower bind it and
    where `ChainWindow` imports it from, so that the first generator's permutation
    swaps its images of two cosets lying in one coset of the level above and
    in different cosets of the level."""
    import cases
    import tower_oracle
    from cantordyn import affine, tower

    addresses = cases.tower(name).addresses
    first = addresses[0][:level]
    k = next(
        k for k, a in enumerate(addresses) if a[:level - 1] == first[:-1] and a[:level] != first
    )
    coset_space = tower.coset_space

    def swapped(group, subgroup):
        space = coset_space(group, subgroup)
        name = group.generators[0][0]
        perm = list(space.gen_perms[name])
        perm[0], perm[k] = perm[k], perm[0]
        space.gen_perms = {**space.gen_perms, name: tuple(perm)}
        return space

    for module in (affine, tower, tower_oracle):
        monkeypatch.setattr(module, "coset_space", swapped)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_a_permutation_that_does_not_descend_exits_four(capsys, monkeypatch, level):
    """The oracle tower's gate refuses it at the level, and so does the gate
    of `boundary_action`, which `holonomy` reads; `code`, which builds no
    boundary action, refuses the window images that break the level's
    cylinders."""
    from tower_oracle import build_tower

    from cantordyn.errors import InvariantViolation
    from cantordyn.tower import boundary_action

    path = CONFIG_DIR / "vietoris2.cfg"  # depth 4
    chain = parse_config(path.read_text()).build_chain()
    swap_across_level(monkeypatch, "configs/vietoris2.cfg", level)
    for build in (build_tower, boundary_action):
        with pytest.raises(InvariantViolation, match=f"does not map level {level} cosets"):
            build(chain)
    for argv in (("code",), ("holonomy", "--word", "t*t^-1", "--at", "0.0.0.0")):
        rc, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert (rc, out) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert ("do not descend" if argv[0] == "code" else f"level {level} cosets") in err


def test_compare_success_and_failure(capsys):
    rc, out, _ = run_cli(
        capsys,
        "compare",
        str(CONFIG_DIR / "vietoris2.cfg"),
        str(CONFIG_DIR / "quads.cfg"),
    )
    assert rc == 0
    assert "success: true" in out
    assert "map_a_to_b: 1 1 2 2" in out
    rc, out, _ = run_cli(
        capsys,
        "compare",
        str(CONFIG_DIR / "vietoris2.cfg"),
        str(CONFIG_DIR / "triadic.cfg"),
    )
    assert rc == 0
    assert "success: false" in out


def test_gallery_and_explicit_configs_build_the_same_chain(capsys):
    rc, out, _ = run_cli(
        capsys,
        "compare",
        str(CONFIG_DIR / "fo.cfg"),
        str(CONFIG_DIR / "fo_explicit.cfg"),
    )
    assert rc == 0
    assert "success: true" in out
    assert "map_a_to_b: 1 2" in out
    assert "map_b_to_a: 1 2" in out


def test_compare_mismatched_groups_is_semantic_error(capsys):
    rc, _, err = run_cli(
        capsys,
        "compare",
        str(CONFIG_DIR / "vietoris2.cfg"),
        str(CONFIG_DIR / "small_fo.cfg"),
    )
    assert rc == 2


def test_code_report_includes_core_oracle(capsys):
    rc, out, _ = run_cli(
        capsys, "code", str(CONFIG_DIR / "small_fo.cfg"), "--depth", "2"
    )
    assert rc == 0
    assert "core_oracle" in out
    assert "match true" in out


@pytest.mark.parametrize(
    "command, args, depth",
    [
        pytest.param(command, args, depth, id=f"args{i}-{depth}-{command}")
        for i, (args, depth) in enumerate(
            [(("vietoris5.cfg",), 4), (("small_fo.cfg", "--depth", "2"), 2)]
        )
        for command in ("classify", "code")
    ]
    + [pytest.param("classify", ("fo.cfg",), 2, id="fo-2-classify")]
    + [
        pytest.param("measure", ("vietoris2.cfg",), 4, id="vietoris2-4-measure"),
        pytest.param(
            "holonomy",
            ("vietoris2.cfg", "--word", "t*t^-1", "--at", "0.0.0.0"),
            4,
            id="vietoris2-4-holonomy",
        ),
    ],
)
def test_chain_commands_enumerate_each_coset_space_once(
    capsys, monkeypatch, command, args, depth
):
    """A tower of any depth enumerates only its deepest coset space, and no
    chain command runs an address engine.  `classify` and `measure` read
    their sections off the chain: they build no tower and enumerate no coset.
    `classify`'s word ball reuses McCord's core of the deepest level, so it
    computes one normal core per level.  `code` takes its modulus table and
    minimality from the chain too, so it runs neither `is_minimal` nor
    `modulus_table`, and it builds no boundary action: it enumerates G/H_K
    alone.  `holonomy` enumerates G/H_K once, for its one boundary action:
    the package builds no quotient tower."""
    from cantordyn import action, affine, tower

    calls = {"coset_space": 0, "boundary_action": 0, "normal_core": 0}
    actions, spaces = [], []

    def counted(name, fn):
        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)

        return wrapper

    def build(chain, lam):
        calls["boundary_action"] += 1
        actions.append(boundary_action(chain, lam))
        return actions[-1]

    def enumerate_cosets(group, subgroup):
        calls["coset_space"] += 1
        spaces.append(coset_space(group, subgroup))
        return spaces[-1]

    coset_space = affine.coset_space
    core = counted("normal_core", affine.normal_core)
    boundary_action = tower.boundary_action
    for module in (affine, tower):
        monkeypatch.setattr(module, "coset_space", enumerate_cosets)
        monkeypatch.setattr(module, "normal_core", core)
    monkeypatch.setattr(tower, "boundary_action", build)  # cli imports it when a chain runs
    engines = ("is_minimal", "modulus_table", "is_distal", "invariant_measure")
    for name in engines:  # cli imports them from the action module when it runs
        calls[name] = 0
        monkeypatch.setattr(action, name, counted(name, getattr(action, name)))
    rc, _, _ = run_cli(capsys, command, str(CONFIG_DIR / args[0]), *args[1:])
    assert rc == 0
    assert [calls[name] for name in engines] == [0] * len(engines)
    if command in ("classify", "measure"):
        cores = depth if command == "classify" else 0
        assert (calls["coset_space"], calls["boundary_action"], calls["normal_core"]) == (
            0, 0, cores
        )
    elif command == "code":
        assert (calls["coset_space"], calls["boundary_action"]) == (1, 0)
        chain = parse_config((CONFIG_DIR / args[0]).read_text()).build_chain()
        assert spaces[0].subgroup == chain.levels[depth - 1]
    else:
        assert (calls["coset_space"], calls["boundary_action"]) == (1, 1)
        assert actions[0].model.depth == depth


@pytest.mark.parametrize("command", ["classify", "measure", "holonomy"])
def test_tower_refuses_an_over_cap_chain_before_any_coset(
    tmp_path, capsys, monkeypatch, command
):
    from cantordyn import tower

    def refuse(*args, **kwargs):
        raise AssertionError("coset_space ran before the index cap")

    monkeypatch.setattr(tower, "coset_space", refuse)
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("[chain]\ngallery = vietoris\np = 2\ndepth = 30\n")
    flags = ("--word", "g1", "--at", "0") if command == "holonomy" else ()
    rc, out, err = run_cli(capsys, command, str(cfg), *flags)
    assert rc == 3
    assert out == ""
    assert f"coset index {2 ** 30} exceeds the cap 1000000" in err


@pytest.mark.parametrize(
    "config, word, name, at",
    [
        ("fo.cfg", "zz", "zz", "0.0"),
        ("fo.cfg", "x*y^-1*zz*qq", "qq", "0.0"),
        ("fo.cfg", "g*zz*t1", "zz", "0.0"),
        ("fo.cfg", "zz*g^-1", "zz", "0.0"),
        ("warp.cfg", "zz*g1", "zz", "bogus"),  # an action: the names before the address
    ],
)
def test_holonomy_refuses_an_unknown_generator_before_any_coset(
    capsys, monkeypatch, config, word, name, at
):
    """The word's names are checked as it acts, right to left, so the error
    names the token the action would have failed on, and before `--at` is
    read, on a chain and on an action alike."""
    from cantordyn import affine, tower

    def refuse(*args, **kwargs):
        raise AssertionError("coset_space ran before the word's names were checked")

    for module in (affine, tower):
        monkeypatch.setattr(module, "coset_space", refuse)
    argv = ("holonomy", str(CONFIG_DIR / config), "--word", word, "--at", at)
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: unknown generator name {name!r}\n")


def test_code_refuses_an_over_cap_chain_before_any_coset(tmp_path, capsys, monkeypatch):
    from cantordyn import affine, tower

    def refuse(*args, **kwargs):
        raise AssertionError("coset_space ran before the cell cap")

    for module in (affine, tower):  # `code` imports it from affine
        monkeypatch.setattr(module, "coset_space", refuse)
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("[chain]\ngallery = vietoris\np = 2\ndepth = 16\n")
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "code", str(cfg))
    assert time.perf_counter() - start < 1.0
    assert rc == 3
    assert out == ""
    assert (
        "return words over a window of 32768 addresses need 1073741824 cells "
        "but the cell cap is 16000000" in err
    )


@pytest.mark.parametrize("command", ["classify", "measure", "code"])
def test_warp_example_refuses_its_generators_over_the_cell_cap(
    tmp_path, capsys, monkeypatch, command
):
    """The fiber generators and the cycle are counted against the cell cap
    before the first permutation is built, so a huge k1 exits at once."""
    from cantordyn import warp

    def refuse(*args):
        raise AssertionError("a fiber generator was built before the cell cap")

    monkeypatch.setattr(warp, "_y_to_int", refuse)
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[action]\ngallery = warp_example\ndepth = 6\nk1 = 1000000\n")
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, command, str(cfg))
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (3, "")
    assert err == (
        "error: 1000001 generator permutations of 4033 addresses need 4033004033 "
        "cells but the cell cap is 16000000\n"
    )


def test_classify_runs_a_first_level_over_4000_cosets(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[chain]\ngallery = vietoris\np = 4001\ndepth = 1\n")
    rc, out, _ = run_cli(capsys, "classify", str(cfg))
    assert rc == 0
    assert "  indices: 4001\n" in out
    assert out.count("  depth_used: 1\n") == 2


def test_classify_fo_reports_every_section_at_depth_two(capsys):
    rc, out, _ = run_cli(capsys, "classify", str(CONFIG_DIR / "fo.cfg"))
    assert rc == 0
    assert out.count("  depth_used: 2\n") == 2
    assert "  rows: 2\n" in out
    assert "    r 1: kappa 1\n    r 1/2: kappa 1/2\n" in out
    assert "  word_classes: 216\n" in out
    assert "  min_delta: 1/2\n" in out
    assert "  level 2: fail witness" in out  # and McCord fails at the same depth


def test_code_fo_matches_the_core_of_level_two(capsys):
    rc, out, _ = run_cli(capsys, "code", str(CONFIG_DIR / "fo.cfg"))
    assert rc == 0
    assert "  level 1: core_of_chain_level 2 cylinder_size 1 match true\n" in out


@pytest.mark.parametrize(
    "config",
    [CONFIG_DIR / "vietoris5.cfg", REPO / "perfbench/configs/klein_3_5_mid.cfg"],
    ids=["vietoris5", "klein_3_5_mid"],
)
def test_code_builds_one_return_word_set_and_no_word_perm(
    capsys, monkeypatch, config
):
    """A chain's return words come from its window source alone, once: the
    address-level `ActionWindow.words` does not run."""
    from cantordyn import coding
    from cantordyn.action import CantorAction

    calls = [
        count_calls(monkeypatch, owner, name)
        for owner, name in (
            (coding.ActionWindow, "words"),
            (coding.ChainWindow, "words"),
            (CantorAction, "word_perm"),
        )
    ]
    rc, _, _ = run_cli(capsys, "code", str(config))
    assert rc == 0
    assert list(map(len, calls)) == [0, 1, 0]


@pytest.mark.parametrize(
    "command, args, count",
    [  # on a chain, minimal and invariant by its algebra
        pytest.param("classify", ("configs/vietoris5.cfg",), 0, id="args0"),
        pytest.param("classify", ("perfbench/configs/warp_d4.cfg", "--words", "4"), 1, id="args1"),
        pytest.param("measure", ("configs/vietoris5.cfg",), 0, id="measure-vietoris5"),
        pytest.param("measure", ("perfbench/configs/warp_d4.cfg",), 1, id="measure-warp_d4"),
    ],
)
def test_classify_checks_minimality_and_invariance_once(
    capsys, monkeypatch, command, args, count
):
    """`invariant_measure` checks that every generator keeps the measure's
    support and raises otherwise, so one call gives every invariance line of
    `classify` and `measure`."""
    from cantordyn import action

    # the CLI imports them from the action module when it runs
    calls = [count_calls(monkeypatch, action, name) for name in ("is_minimal", "invariant_measure")]
    rc, out, _ = run_cli(capsys, command, str(REPO / args[0]), *args[1:])
    assert rc == 0
    key = "pushforward_invariant_all" if command == "measure" else "pushforward_invariant"
    assert f"  {key}: true\n" in out
    assert list(map(len, calls)) == [count, count]


@pytest.mark.parametrize(
    "args",
    [
        ("classify", "configs/rt.cfg"),
        ("code", "configs/vietoris5.cfg"),
        ("measure", "configs/vietoris5.cfg"),
        ("holonomy", "configs/vietoris2.cfg", "--word", "t*t^-1", "--at", "0.0.0.0"),
    ],
    ids=lambda args: args[0],
)
def test_chain_commands_build_the_chain_once(capsys, monkeypatch, args):
    from cantordyn.config import Config

    calls = count_calls(monkeypatch, Config, "build_chain")
    assert parse_config((REPO / args[1]).read_text()).depth is None
    rc, _, _ = run_cli(capsys, args[0], str(REPO / args[1]), *args[2:])
    assert rc == 0
    assert len(calls) == 1


def test_commands_without_an_engine_never_load_numpy():
    import os
    import subprocess
    import sys

    script = """
import contextlib, io, pathlib, sys
from cantordyn.cli import main
from cantordyn.config import parse_config
runs = [
    ["compare", "configs/fo.cfg", "configs/fo_explicit.cfg"],
    ["measure", "perfbench/configs/warp_d4.cfg"],
    ["holonomy", "perfbench/configs/warp_d4.cfg", "--word", "g1", "--at", "w0"],
    ["classify", "configs/fo.cfg", "--words", "-2"],
    ["classify", "perfbench/configs/klein_3_5_mid.cfg"],
    ["classify", "configs/small_fo.cfg", "--depth", "2"],
    ["classify", "configs/fo.cfg", "--depth", "1"],
    ["classify", "configs/rt.cfg"],
    ["classify", "configs/vietoris5.cfg"],
    ["code", "perfbench/configs/klein_3_5_mid.cfg"],
    ["code", "configs/small_fo.cfg", "--depth", "2"],
    ["code", "configs/rt.cfg"],
    ["code", "configs/vietoris5.cfg"],
]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in runs]
for path in sorted(pathlib.Path("configs").glob("*.cfg")):
    cfg = parse_config(path.read_text())
    cfg.build_chain() if cfg.kind == "chain" else cfg.build_action()
print(codes, "numpy" in sys.modules)
"""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0] False\n"


def test_depth_override_reaches_action_configs(capsys):
    rc, out, _ = run_cli(
        capsys, "classify", str(CONFIG_DIR / "warp.cfg"), "--depth", "4"
    )
    assert rc == 0
    assert "depth: 4" in out
    assert "addresses: 241" in out


def test_holonomy_verdicts(capsys):
    rc, out, _ = run_cli(
        capsys,
        "holonomy",
        str(CONFIG_DIR / "warp.cfg"),
        "--word",
        "g1",
        "--at",
        "w0",
    )
    assert rc == 0
    assert "nontrivial_through_depth 3" in out
    rc, out, _ = run_cli(
        capsys,
        "holonomy",
        str(CONFIG_DIR / "vietoris2.cfg"),
        "--word",
        "t*t^-1",
        "--at",
        "0.0.0.0",
    )
    assert rc == 0
    assert "trivial_at_depth 0" in out


def test_holonomy_non_stabilizing_word_errors(capsys):
    rc, _, err = run_cli(
        capsys,
        "holonomy",
        str(CONFIG_DIR / "vietoris2.cfg"),
        "--word",
        "t",
        "--at",
        "0.0.0.0",
    )
    assert rc == 2
    assert "does not stabilize" in err


@pytest.mark.parametrize(
    "config, word, address, message",
    [  # the addresses spelled as --at reads them, never as Python tuples
        ("configs/fo.cfg", "t1", "0.0", "word t1 does not stabilize 0.0; it maps to 35.1225"),
        (
            "perfbench/configs/warp_d4.cfg",
            "f",
            "w0",
            "word f does not stabilize w0; it maps to 0002:0000",
        ),
    ],
)
def test_a_non_stabilizing_word_is_refused_in_the_cli_spelling(
    capsys, monkeypatch, config, word, address, message
):
    monkeypatch.chdir(REPO)
    argv = ("holonomy", config, "--word", word, "--at", address)
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_a_bad_address_is_refused_without_formatting_the_model(capsys, monkeypatch):
    """`--at` is parsed into a key of the model's index and confirmed by one
    round trip: on FO depth 2 (11 025 addresses) a bad one is refused with
    the message it always had, after at most two addresses are written."""
    from cantordyn.action import CantorModel

    calls = []
    spell = CantorModel.spell

    def counted(model, i):
        calls.append(i)
        return spell(model, i)

    monkeypatch.setattr(CantorModel, "spell", counted)
    argv = ("holonomy", str(CONFIG_DIR / "fo.cfg"), "--word", "g*g", "--at", "3.50")
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (2, "", "error: address '3.50' is not in the model\n")
    assert len(calls) <= 2


@pytest.mark.parametrize(
    "config, text",
    [  # a word each stabilizes: g1 * g1^-1 on warp, t * t^-1 on vietoris2
        ("warp.cfg", "0.0"),
        ("warp.cfg", "w1"),
        ("warp.cfg", "0:2"),
        ("warp.cfg", "01:0:1"),
        ("warp.cfg", "+0:0"),
        ("vietoris2.cfg", "w0"),
        ("vietoris2.cfg", "0:0"),
        ("vietoris2.cfg", "0.0.0"),
        ("vietoris2.cfg", "0.0.0.0.0"),
        ("vietoris2.cfg", "0.0.0.x"),
        ("vietoris2.cfg", "00.0.0.0"),
        ("vietoris2.cfg", "0..0.0"),
        ("vietoris2.cfg", ""),
    ],
)
def test_addresses_not_in_the_model_exit_2(capsys, config, text):
    word = "g1*g1^-1" if config == "warp.cfg" else "t*t^-1"
    argv = ("holonomy", str(CONFIG_DIR / config), "--word", word, "--at", text)
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: address {text!r} is not in the model\n")


@pytest.mark.parametrize("config", ["perfbench/configs/warp_d4.cfg", "configs/small_fo.cfg"])
def test_every_address_round_trips(config):
    """`CantorModel.lookup` inverts `CantorModel.spell` on every address of
    a warp model and of a chain's boundary action."""
    from cantordyn.tower import boundary_action

    cfg = parse_config((REPO / config).read_text())
    if cfg.kind == "action":
        model = cfg.build_action().model
    else:
        model = boundary_action(cfg.build_chain(), cfg.lam).model
    assert len(model) > 200
    for i in range(len(model)):
        assert model.lookup(model.spell(i)) == i
        assert model.lookup(f" {model.spell(i)} ") == i


def test_measure_reports_per_generator_invariance(capsys):
    rc, out, _ = run_cli(capsys, "measure", str(CONFIG_DIR / "warp.cfg"))
    assert rc == 0
    assert "invariant_under g1: true" in out
    assert "pushforward_invariant_all: true" in out


def test_reports_are_byte_identical_across_runs(capsys):
    for args in (
        ("classify", str(CONFIG_DIR / "vietoris2.cfg")),
        ("classify", str(CONFIG_DIR / "warp_fiber_only.cfg")),
        ("code", str(CONFIG_DIR / "vietoris2.cfg")),
        ("measure", str(CONFIG_DIR / "warp.cfg")),
        (
            "compare",
            str(CONFIG_DIR / "vietoris2.cfg"),
            str(CONFIG_DIR / "quads.cfg"),
        ),
    ):
        rc1, out1, _ = run_cli(capsys, *args)
        rc2, out2, _ = run_cli(capsys, *args)
        assert rc1 == rc2 == 0
        assert strip_timing(out1) == strip_timing(out2)


def test_reports_are_identical_across_processes(tmp_path):
    import os
    import subprocess
    import sys

    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "cantordyn.cli",
                "code",
                str(CONFIG_DIR / "small_fo.cfg"),
                "--depth",
                "2",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(strip_timing(proc.stdout))
    assert outputs[0] == outputs[1]


def test_out_flag_writes_the_report(tmp_path, capsys):
    target = tmp_path / "report.txt"
    rc, out, _ = run_cli(
        capsys,
        "classify",
        str(CONFIG_DIR / "vietoris2.cfg"),
        "--out",
        str(target),
    )
    assert rc == 0
    assert out == ""
    assert "minimal: true" in target.read_text()


def test_out_flag_to_an_unwritable_path_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    rc, out, err = run_cli(
        capsys, "classify", str(CONFIG_DIR / "rt.cfg"), "--out", str(target)
    )
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot write report {str(target)!r}: ")
    assert err.count("\n") == 1
    assert not target.parent.exists()


def test_depth_and_lambda_overrides(capsys):
    rc, out, _ = run_cli(
        capsys,
        "classify",
        str(CONFIG_DIR / "vietoris2.cfg"),
        "--depth",
        "2",
        "--lambda",
        "1/3",
    )
    assert rc == 0
    assert "depth: 2" in out
    assert "lambda: 1/3" in out
