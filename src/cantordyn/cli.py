"""Command dispatch: classify, compare, code, holonomy, measure.

Every command reads a config file, runs exact computations, and emits a
deterministic structured report.  Negative mathematical verdicts are
successful runs (exit 0); parse and semantic errors exit 2, resource caps
exit 3, and internal invariant violations exit 4.
"""

import re
import sys
import time
from fractions import Fraction

from . import __version__
from .config import format_fraction, parse_config, parse_fraction
from .errors import CantordynError, ParseError, StructureError
from .report import Report

MODULUS_HEAD_TAIL = 5


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StructureError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def _apply_overrides(cfg, args):
    updates = {key: args[key] for key in ("depth", "words", "seed") if key in args}
    if updates.get("words", 0) < 0:
        raise StructureError("--words must be a nonnegative integer")
    if "lam" in args:
        try:  # the grammar of the config's `lambda` key
            lam = parse_fraction(args["lam"])
        except ParseError as exc:
            raise StructureError(f"--lambda: not a fraction: {args['lam']!r}") from exc
        if not 0 < lam < 1:
            raise StructureError("--lambda must lie in (0,1)")
        updates["lam"] = lam
    return cfg._replace(**updates)


def _params_section(report, cfg, depth):
    report.section("parameters")
    report.add("depth", depth, 1)
    report.add("words", cfg.words, 1)
    report.add("lambda", cfg.lam, 1)
    report.add("seed", cfg.seed, 1)


def _chain_for(cfg):
    """The config's chain, built and validated once per command, truncated
    to the requested depth (the chain's own when none is set)."""
    chain = cfg.build_chain()
    depth = cfg.depth if cfg.depth is not None else chain.depth
    return chain.truncate(depth), depth


def _modulus_section(report, table, depth_used):
    report.section("modulus")
    report.add("depth_used", depth_used, 1)
    report.add("rows", len(table.rows), 1)
    rows = table.rows
    head = rows[:MODULUS_HEAD_TAIL]
    tail = rows[-MODULUS_HEAD_TAIL:] if len(rows) > MODULUS_HEAD_TAIL else ()
    report.section("head", 1)
    for r, k in head:
        report.add(f"r {format_fraction(r)}", f"kappa {format_fraction(k)}", 2)
    if tail and len(rows) > 2 * MODULUS_HEAD_TAIL:
        report.section("tail", 1)
        for r, k in tail:
            report.add(f"r {format_fraction(r)}", f"kappa {format_fraction(k)}", 2)
    report.add("kappa_equals_r_on_all_rows", table.is_exact_isometry_table(), 1)


def _dynamics_sections(report, depth, orbit, table, distal, measure):
    """Minimality, modulus, distality and measure, from the engines on an
    action or from the algebra on a chain, at the model's depth, which the
    modulus and distality sections report as depth_used.  `orbit` is None on
    a minimal action, else the witness orbit's address strings in model
    order; `measure` is the support label and weight of an invariant measure."""
    report.section("minimality")
    report.add("minimal", orbit is None, 1)
    if orbit is not None:
        report.add("witness_orbit_size", len(orbit), 1)
        report.add("witness_orbit", orbit[:10], 1)

    _modulus_section(report, table, depth)

    report.section("distality")
    report.add("depth_used", depth, 1)
    report.add("distal", distal.distal, 1)
    report.add("word_bound", distal.word_length, 1)
    report.add("word_classes", distal.word_count, 1)
    report.add("min_delta", distal.min_delta, 1)

    report.section("measure")
    report.add("support", measure[0], 1)
    report.add("weight", measure[1], 1)
    report.add("pushforward_invariant", True, 1)


def _chain_modulus(chain, lam):
    """The boundary action's modulus table, read off the chain.  G permutes
    G/H_K transitively and keeps each G/H_j (the descent gates of
    `boundary_action` and `code` check it): a minimal tree isometry, one row
    (lam^j, lam^j) per j with [H_j : H_j+1] > 1 (H_0 = G)."""
    from .ball import ModulusTable

    indices = chain.indices()
    splits = [j for j, (a, b) in enumerate(zip([1] + indices, indices)) if b > a]
    return ModulusTable((lam ** j, lam ** j) for j in splits)


def _chain_measure(chain):
    """The boundary action's invariant measure (support label and weight):
    G permutes G/H_K transitively, so it is uniform, 1/[G:H_K] per coset."""
    return "full", Fraction(1, chain.indices()[-1])


def _chain_dynamics(chain, mccord, lam, max_length):
    """The boundary action's modulus table, DistalityVerdict, measure and
    word ball (as `ball._word_ball` gives it), read off the chain.  The
    least distance is the last row's, or 0 on a single coset.  Words act
    alike exactly when their elements agree modulo the kernel core(H_K),
    McCord's core of the deepest level, so the ball runs on coset keys of the
    core and stores no cells; only its size is read, so no word is built."""
    from .affine import quotient_word_keys
    from .ball import DistalityVerdict, _word_ball
    from .limits import BALL_BUDGET

    table, measure = _chain_modulus(chain, lam), _chain_measure(chain)
    tokens, identity, compose = quotient_word_keys(chain.group, mccord.records[-1].core)
    ball = _word_ball(tokens, identity, max_length, BALL_BUDGET, compose)
    distal = DistalityVerdict(True, ball[1], table.r_min() or Fraction(0), len(ball[0]))
    return table, distal, measure, ball


def cmd_classify(cfg, chain, report):
    if chain is not None:
        from .affine import is_normal  # affine and tower serve chains alone
        from .limits import check_index_cap
        from .tower import mccord_verdict

        check_index_cap(chain.indices()[-1])  # no coset is enumerated; a contract
        mccord = mccord_verdict(chain)
        report.section("chain")
        report.add("label", chain.label, 1)
        report.add("levels", chain.depth, 1)
        report.add("indices", chain.indices(), 1)

        table, distal, measure, _ = _chain_dynamics(chain, mccord, cfg.lam, cfg.words)
        _dynamics_sections(report, chain.depth, None, table, distal, measure)

        report.section("normality")
        for l, h in enumerate(chain.levels, start=1):
            verdict = is_normal(chain.group, h)
            text = f"false witness {verdict.witness_name} {verdict.witness}"
            report.add(f"level {l}", f"normal {'true' if verdict.normal else text}", 1)

        report.section("mccord")
        for rec in mccord.records:
            head = f"cofinal_at {rec.cofinal_at}" if rec.cofinal else f"fail witness {rec.witness}"
            core_index = chain.group.index_of(rec.core)
            report.add(f"level {rec.level}", f"{head} core_index {core_index}", 1)
        report.add("compatible_up_to_depth", mccord.compatible, 1)
    else:
        from .action import invariant_measure, is_distal, is_minimal, modulus_table

        action = cfg.build_action()
        model = action.model
        report.section("action")
        report.add("label", action.label, 1)
        report.add("addresses", len(model), 1)
        report.add("generators", list(action.generators), 1)
        minimal = is_minimal(action)
        orbit = None if minimal.minimal else list(map(model.spell, sorted(minimal.witness_orbit)))
        table, distal = modulus_table(action), is_distal(action, cfg.words)
        mu = invariant_measure(action, minimal)  # raises unless exactly invariant
        measure = (mu.label, mu.weight)
        _dynamics_sections(report, model.depth, orbit, table, distal, measure)
        report.section("chain_sections")
        report.add("available", False, 1)
    return report


def cmd_compare(cfg_a, cfg_b, report):
    chain_a, depth_a = _chain_for(cfg_a)
    chain_b, depth_b = _chain_for(cfg_b)
    from .tower import interleave  # once both configs are chains

    report.section("chains")
    report.add("a", f"{chain_a.label} depth {depth_a}", 1)
    report.add("b", f"{chain_b.label} depth {depth_b}", 1)
    verdict = interleave(chain_a, chain_b)
    report.section("interleaving")
    report.add("success", verdict.success, 1)
    if verdict.success:
        report.add("map_a_to_b", verdict.map_ab, 1)
        report.add("map_b_to_a", verdict.map_ba, 1)
    else:
        report.add("fail_side", verdict.fail_side, 1)
        report.add("fail_level", verdict.fail_level, 1)
        report.add("witness", str(verdict.witness), 1)  # an element, printed whole
    return report


def cmd_code(cfg, chain, report):
    """The coding chain of the default window; on a chain, read off its
    algebra with no tower (`coding.ChainWindow`).  The window source gives
    the action's minimality and orbit-graph diameter."""
    from .action import format_word
    from .coding import ActionWindow, ChainWindow, code_window

    if chain is not None:
        source = ChainWindow(chain, cfg.lam)
        table = _chain_modulus(chain, cfg.lam)
    else:
        from .action import modulus_table

        action = cfg.build_action()
        table = modulus_table(action)  # an over-cap model names its pair ranks first
        source = ActionWindow(action)
    chain_result = code_window(source, table, word_bound=cfg.words)
    words = chain_result.words
    report.section("window")
    report.add("size", len(chain_result.window), 1)
    report.add("minimal_action", chain_result.minimal, 1)
    report.add("word_bound_requested", chain_result.word_bound_requested, 1)
    report.add("word_bound_used", words.bound, 1)
    report.add("word_bound_effective", words.effective_bound, 1)
    report.add("return_word_classes", len(words), 1)
    report.add(
        "return_words_head",
        [format_word(words.word(k)) for k in range(min(6, len(words)))],
        1,
    )
    report.add("schreier_diameter", chain_result.schreier_diam, 1)
    report.section("levels")
    for lv in chain_result.levels:
        report.section(f"level {lv.level}", 1)
        report.add("eps", lv.eps, 2)
        report.add("eps_prime", lv.eps_prime, 2)
        report.add("eps_prime_sub_resolution", lv.eps_prime_sub_resolution, 2)
        report.add("eta", lv.eta, 2)
        report.add("delta", lv.delta, 2)
        report.add("delta_sub_resolution", lv.delta_sub_resolution, 2)
        report.add("cylinder_depth", lv.cylinder_depth, 2)
        report.add("blocks", len(lv.partition), 2)
        report.add("v_size", len(lv.v), 2)
        report.add("translates", len(lv.translate_family), 2)
        report.add("covers_window", lv.covers_window, 2)
        report.add(
            "first_translate_words",
            [format_word(w) for w, _ in lv.translate_family[:4]],
            2,
        )
    if chain is not None:
        report.section("core_oracle")
        for lv in chain_result.levels:
            cyl = source.core_orbit(lv.cylinder_depth)  # against the level set
            report.add(
                f"level {lv.level}",
                f"core_of_chain_level {lv.cylinder_depth} cylinder_size "
                f"{len(cyl)} match {'true' if cyl == lv.v else 'false'}",
                1,
            )
    return report


def cmd_holonomy(cfg, chain, word_text, address_text, report):
    from .action import format_word, germinal_holonomy, parse_word

    word = parse_word(word_text)
    if chain is None:
        action = cfg.build_action()
        names = action.generators
    else:
        from .limits import check_index_cap

        check_index_cap(chain.indices()[-1])  # the cap, then the word's names, before any coset
        names = dict(chain.group.generators)
    for name, _ in reversed(word):  # in the order the word acts, as `word_perm` reads it
        if name not in names:
            raise StructureError(f"unknown generator name {name!r}")
    if chain is not None:
        from .tower import boundary_action

        action = boundary_action(chain, cfg.lam)
    model = action.model
    address = model.lookup(address_text)
    verdict = germinal_holonomy(action, word, address)
    report.section("holonomy")
    report.add("word", format_word(word), 1)
    report.add("address", model.spell(address), 1)
    if verdict.trivial:
        report.add("germ", f"trivial_at_depth {verdict.depth}", 1)
    else:
        report.add("germ", f"nontrivial_through_depth {verdict.depth}", 1)
        a, b = verdict.witness
        report.add("deepest_disagreement", f"{model.spell(a)} -> {model.spell(b)}", 1)
    return report


def cmd_measure(cfg, chain, report):
    if chain is not None:
        from .limits import check_index_cap

        size = chain.indices()[-1]
        check_index_cap(size)  # no coset is enumerated; a contract
        label, weight = _chain_measure(chain)
        names = [name for name, _ in chain.group.generators]
    else:
        from .action import invariant_measure

        action = cfg.build_action()
        mu = invariant_measure(action)  # raises unless invariant under every token
        label, weight, size = mu.label, mu.weight, len(mu.support)
        names = list(action.generators)
    report.section("measure")
    report.add("support", label, 1)
    report.add("addresses", size, 1)
    report.add("weight", weight, 1)
    for name in names:
        report.add(f"invariant_under {name}", True, 1)
    report.add("pushforward_invariant_all", True, 1)
    return report


# name -> (its configs, its help line)
COMMANDS = {
    "classify": (("config",), "minimality, modulus, measures, normality, cofinality"),
    "compare": (("config_a", "config_b"), "chain interleaving verdict"),
    "code": (("config",), "orbit-coding refinement chain"),
    "holonomy": (("config",), "germ depth of a stabilizing word"),
    "measure": (("config",), "invariant measure with exact verification"),
}
COMMAND_LIST = "one of " + ", ".join(COMMANDS)
# flag -> (key, type, metavar, help); a flag with a type takes a value
TEXT_FLAGS = {
    "-h": ("help", None, "", "show this help and exit"),
    "--help": ("help", None, "", "show this help and exit"),
    "--version": ("version", None, "", "show the version and exit"),
}
COMMON_FLAGS = {
    "--depth": ("depth", int, "K", "truncation depth K"),
    "--words": ("words", int, "L", "word length bound L"),
    "--lambda": ("lam", str, "P/Q", "tree metric base p/q"),
    "--seed": ("seed", int, "N", "seed echoed in reports"),
    "--out": ("out", str, "PATH", "write the report to a file"),
}
HOLONOMY_FLAGS = {  # holonomy's own, both required
    "--word": ("word", str, "WORD", "the word, such as g1*t^-1"),
    "--at": ("address", str, "ADDRESS", "the address it must fix, such as w0"),
}
FLAG_NAMES = frozenset({**TEXT_FLAGS, **COMMON_FLAGS, **HOLONOMY_FLAGS})  # of any command
NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _flags(command):
    """The flags a command takes, or the program's before a command."""
    if command is None:
        return TEXT_FLAGS
    return {**TEXT_FLAGS, **COMMON_FLAGS, **(HOLONOMY_FLAGS if command == "holonomy" else {})}


def _is_flag(token):
    """A dash and more, but not a negative number: `--depth -1` has a value."""
    return token[:1] == "-" and token != "-" and not NEGATIVE_NUMBER.fullmatch(token)


def _flag_named(name, flags, command):
    """The flag `name` spells, in full or as an unambiguous prefix of a
    double-dash flag; the full name of another command's flag is no prefix,
    so `--word` on classify is refused, not read as `--words`."""
    if name in flags:
        return name
    prefix = name[:2] == "--" and len(name) > 2 and name not in FLAG_NAMES
    matches = [f for f in flags if prefix and f.startswith(name)]
    if len(matches) == 1:
        return matches[0]
    where = f" for {command}" if command else ""
    if matches:
        raise StructureError(f"ambiguous flag {name!r}{where}: {' or '.join(matches)}")
    raise StructureError(f"unknown flag {name!r}{where}")


def _help(command):
    """The usage text of a command, or of the program when `command` is None."""
    if command is None:
        usage = "COMMAND CONFIG... [flags]"
        text = "Exact classification of subgroup-chain towers and finite-depth Cantor dynamics."
        listing = ["", "commands:"] + [f"  {n:<10}{t}" for n, (_, t) in COMMANDS.items()]
    else:
        configs, text = COMMANDS[command]
        required = [f"{flag} {spec[2]}" for flag, spec in HOLONOMY_FLAGS.items()]
        words = [*map(str.upper, configs), *(required if command == "holonomy" else ()), "[flags]"]
        usage, text, listing = " ".join(words), text[:1].upper() + text[1:] + ".", []
    lines = [" ".join(filter(None, ("usage: cantordyn", command, usage))), "", text, *listing]
    lines += ["", "flags:"]
    for flag, (_, _, metavar, help_text) in _flags(command).items():
        if flag != "-h":  # listed with --help
            label = " ".join(filter(None, ("-h, --help" if flag == "--help" else flag, metavar)))
            lines.append(f"  {label:<18}{help_text}")
    return "\n".join(lines) + "\n"


def parse_args(argv):
    """(command, args) for a command line: `args` maps each config name and
    each flag given to its value.  A flag's value follows it or an `=`, and a
    flag may be any unambiguous prefix of a double-dash flag; flags and
    configs mix in any order after the command, and the last of a repeated
    flag wins; after a bare `--` no token is a flag.  `-h`, `--help` and
    `--version` give (None, the text to print).  Every other refusal raises
    StructureError."""
    command, args, configs, plain = None, {}, [], False
    tokens = iter(argv)
    for token in tokens:
        if token == "--" and not plain:
            plain = True
            continue
        if plain or not _is_flag(token):
            if command is None:
                if token not in COMMANDS:
                    raise StructureError(f"unknown command {token!r}; expected {COMMAND_LIST}")
                command = token
            else:
                configs.append(token)
            continue
        flags = _flags(command)
        name, equals, value = token.partition("=")
        name = _flag_named(name, flags, command)
        key, kind, _, _ = flags[name]
        if kind is None:
            if equals:
                raise StructureError(f"{name} takes no value")
            return None, __version__ + "\n" if key == "version" else _help(command)
        if not equals:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                raise StructureError(f"{name} needs a value")
        try:
            args[key] = kind(value)
        except ValueError as exc:
            raise StructureError(f"{name}: not an integer: {value!r}") from exc
    if command is None:
        raise StructureError(f"no command given; expected {COMMAND_LIST}")
    names, _ = COMMANDS[command]
    if len(configs) > len(names):
        raise StructureError(f"{command}: unexpected argument {configs[len(names)]!r}")
    if len(configs) < len(names):
        raise StructureError(f"{command} needs {' '.join(map(str.upper, names))}")
    if command == "holonomy":
        for flag, (key, _, _, _) in HOLONOMY_FLAGS.items():
            if key not in args:
                raise StructureError(f"holonomy needs {flag}")
    args.update(zip(names, configs))
    return command, args


def run(argv):
    command, args = parse_args(argv)
    if command is None:  # -h, --help or --version: args is the text
        sys.stdout.write(args)
        return 0
    started = time.monotonic()
    report = Report(__version__, command)

    if command == "compare":
        cfg_a = _apply_overrides(_load_config(args["config_a"]), args)
        cfg_b = _apply_overrides(_load_config(args["config_b"]), args)
        report.add("config_a", args["config_a"])
        report.add("config_b", args["config_b"])
        _params_section(report, cfg_a, cfg_a.depth)
        cmd_compare(cfg_a, cfg_b, report)
    else:
        cfg = _apply_overrides(_load_config(args["config"]), args)
        report.add("config", args["config"])
        chain, depth = _chain_for(cfg) if cfg.kind == "chain" else (None, cfg.depth)
        _params_section(report, cfg, depth)
        if command == "classify":
            cmd_classify(cfg, chain, report)
        elif command == "code":
            cmd_code(cfg, chain, report)
        elif command == "holonomy":
            cmd_holonomy(cfg, chain, args["word"], args["address"], report)
        elif command == "measure":
            cmd_measure(cfg, chain, report)

    elapsed_ms = (time.monotonic() - started) * 1000
    text = report.render(timing_ms=elapsed_ms)
    if args.get("out"):
        try:
            with open(args["out"], "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise StructureError(f"cannot write report {args['out']!r}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if hasattr(sys, "set_int_max_str_digits"):  # reports are exact: print any int
        sys.set_int_max_str_digits(0)
    try:
        return run(argv)
    except CantordynError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
