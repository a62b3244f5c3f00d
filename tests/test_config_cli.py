"""Config parsing round-trips, report determinism, and CLI exit codes."""

import contextlib
import io
import pathlib
import time
from collections import namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantordyn import __version__
from cantordyn.cli import main
from cantordyn.config import PARAM_KEYS, parse_config, serialize_config
from cantordyn.errors import ParseError, StructureError
from cantordyn.report import strip_timing

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
        GROUP_1D + "[level x]\nlattice = 2\n", "line 6: section [level x] must be '[level N]'"
    ),
    "level-1-renumbered": Refusal(
        GROUP_1D + LEVEL_1D + "[level 01]\nlattice = 4\n", "line 7: duplicate section [level 1]"
    ),
    "unknown-params-key": Refusal(
        VIETORIS_TEXT + "[params]\nfoo = 1\n", "line 6: [params]: unknown key 'foo'"
    ),
    "unknown-section": Refusal(VIETORIS_TEXT + "[foo]\n", "unknown section [foo]"),
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


def test_invariant_violation_exits_four(capsys, monkeypatch):
    from cantordyn import cli as cli_module
    from cantordyn.errors import InvariantViolation

    def boom(*args):
        raise InvariantViolation("synthetic violation")

    monkeypatch.setattr(cli_module, "cmd_classify", boom)
    rc, _, err = run_cli(capsys, "classify", str(CONFIG_DIR / "vietoris2.cfg"))
    assert rc == 4
    assert "synthetic violation" in err


def swap_across_level(monkeypatch, chain, level=1):
    """Patch `coset_space`, where `tower` and the oracle tower bind it and
    where `ChainWindow` imports it from, so that the first generator's permutation
    swaps its images of two cosets lying in one coset of the level above and
    in different cosets of the level."""
    import tower_oracle
    from cantordyn import affine, tower

    addresses = tower_oracle.build_tower(chain).addresses
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
    swap_across_level(monkeypatch, chain, level)
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
    from cantordyn import gallery

    def refuse(*args):
        raise AssertionError("a fiber generator was built before the cell cap")

    monkeypatch.setattr(gallery, "_y_to_int", refuse)
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

    calls = {"action_words": 0, "chain_words": 0, "word_perm": 0}
    action_words, chain_words = coding.ActionWindow.words, coding.ChainWindow.words
    word_perm = CantorAction.word_perm

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(coding.ActionWindow, "words", counted("action_words", action_words))
    monkeypatch.setattr(coding.ChainWindow, "words", counted("chain_words", chain_words))
    monkeypatch.setattr(CantorAction, "word_perm", counted("word_perm", word_perm))
    rc, _, _ = run_cli(capsys, "code", str(config))
    assert rc == 0
    assert calls == {"action_words": 0, "chain_words": 1, "word_perm": 0}


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

    calls = {"is_minimal": 0, "invariant_measure": 0}

    def counted(name, fn):
        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)

        return wrapper

    for name in calls:  # the CLI imports them from the action module when it runs
        monkeypatch.setattr(action, name, counted(name, getattr(action, name)))
    rc, out, _ = run_cli(capsys, command, str(REPO / args[0]), *args[1:])
    assert rc == 0
    key = "pushforward_invariant_all" if command == "measure" else "pushforward_invariant"
    assert f"  {key}: true\n" in out
    assert calls == {"is_minimal": count, "invariant_measure": count}


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

    calls = []
    build_chain = Config.build_chain

    def counted(self):
        calls.append(self)
        return build_chain(self)

    monkeypatch.setattr(Config, "build_chain", counted)
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
