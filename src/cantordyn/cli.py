"""Command dispatch: classify, compare, code, holonomy, measure.

Every command reads a config file, runs exact computations, and emits a
deterministic structured report.  Negative mathematical verdicts are
successful runs (exit 0); parse and semantic errors exit 2, resource caps
exit 3, and internal invariant violations exit 4.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from . import __version__
from .config import format_fraction, parse_config
from .errors import CantordynError, StructureError
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
    updates = {}
    if getattr(args, "depth", None) is not None:
        updates["depth"] = args.depth
    if getattr(args, "words", None) is not None:
        if args.words < 0:
            raise StructureError("--words must be a nonnegative integer")
        updates["words"] = args.words
    if getattr(args, "lam", None) is not None:
        try:
            lam = Fraction(args.lam.replace(" ", ""))
        except (ValueError, ZeroDivisionError) as exc:
            raise StructureError(f"--lambda: not a fraction: {args.lam!r}") from exc
        if not 0 < lam < 1:
            raise StructureError("--lambda must lie in (0,1)")
        updates["lam"] = lam
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    return cfg._replace(**updates)


def _params_section(report, cfg, depth):
    report.section("parameters")
    report.add("depth", depth, 1)
    report.add("words", cfg.words, 1)
    report.add("lambda", cfg.lam, 1)
    report.add("seed", cfg.seed, 1)


def _address_str(model, i):
    """Address index i, spelled as the CLI reads and prints it: w0, the
    warp product's x:y digits, or a tree address's dotted ints."""
    address = model.addresses[i]
    if isinstance(address, str):  # the collapsed point
        return address
    if address and isinstance(address[0], tuple):
        return ":".join("".join(map(str, part)) for part in address)
    return ".".join(map(str, address))


def _parse_address(model, text):
    """The index of the address spelled `text`: x:y digits or dotted ints
    read back into a key of the model's index (other text, such as w0, is
    looked up as it is), confirmed by spelling that address again."""
    text = text.strip()
    x, colon, y = text.partition(":")
    try:
        if colon:
            address = (tuple(map(int, x)), tuple(map(int, y)))
        else:
            address = tuple(map(int, text.split(".")))
    except ValueError:
        address = text
    i = model.index.get(address)
    if i is None or _address_str(model, i) != text:
        raise StructureError(f"address {text!r} is not in the model")
    return i


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


def _chain_reading(chain, lam):
    """The boundary action's modulus table and measure (support label and
    weight), read off the chain.  G permutes G/H_K transitively and keeps each
    G/H_j (the descent gates of `boundary_action` and `code` check it): a minimal
    tree isometry, one row (lam^j, lam^j) per j with [H_j : H_j+1] > 1 (H_0 = G)."""
    from .action import ModulusTable

    indices = chain.indices()
    splits = [j for j, (a, b) in enumerate(zip([1] + indices, indices)) if b > a]
    table = ModulusTable((lam ** j, lam ** j) for j in splits)
    return table, ("full", Fraction(1, indices[-1]))


def _chain_dynamics(chain, mccord, lam, max_length):
    """The boundary action's modulus table, DistalityVerdict, measure and
    word ball (as `action._word_ball` gives it), read off the chain.  The
    least distance is the last row's, or 0 on a single coset.  Words act
    alike exactly when their elements agree modulo the kernel core(H_K),
    McCord's core of the deepest level, so the ball runs on coset keys of the
    core and stores no cells; only its size is read, so no word is built."""
    from .action import DistalityVerdict, _word_ball
    from .affine import quotient_word_keys
    from .limits import BALL_BUDGET

    table, measure = _chain_reading(chain, lam)
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
        orbit = None if minimal.minimal else [
            _address_str(model, i) for i in sorted(minimal.witness_orbit)
        ]
        table, distal = modulus_table(action), is_distal(action, cfg.words)
        mu = invariant_measure(action, minimal)  # raises unless exactly invariant
        measure = (mu.label, mu.weight)
        _dynamics_sections(report, model.depth, orbit, table, distal, measure)
        report.section("chain_sections")
        report.add("available", False, 1)
    return report


def cmd_compare(cfg_a, cfg_b, report):
    from .tower import interleave

    chain_a, depth_a = _chain_for(cfg_a)
    chain_b, depth_b = _chain_for(cfg_b)
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
        table = _chain_reading(chain, cfg.lam)[0]
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
    address = _parse_address(action.model, address_text)
    verdict = germinal_holonomy(action, word, address)
    report.section("holonomy")
    report.add("word", format_word(word), 1)
    report.add("address", _address_str(action.model, address), 1)
    if verdict.trivial:
        report.add("germ", f"trivial_at_depth {verdict.depth}", 1)
    else:
        report.add("germ", f"nontrivial_through_depth {verdict.depth}", 1)
        a, b = verdict.witness
        report.add(
            "deepest_disagreement",
            f"{_address_str(action.model, a)} -> {_address_str(action.model, b)}",
            1,
        )
    return report


def cmd_measure(cfg, chain, report):
    if chain is not None:
        from .limits import check_index_cap

        size = chain.indices()[-1]
        check_index_cap(size)  # no coset is enumerated; a contract
        label, weight = _chain_reading(chain, cfg.lam)[1]
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cantordyn",
        description="Exact classification of subgroup-chain towers and "
        "finite-depth Cantor dynamics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--depth", type=int, default=None, help="truncation depth K")
        p.add_argument("--words", type=int, default=None, help="word length bound L")
        p.add_argument("--lambda", dest="lam", default=None, help="tree metric base p/q")
        p.add_argument("--seed", type=int, default=None, help="seed echoed in reports")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("classify", help="minimality, modulus, measures, normality, cofinality")
    p.add_argument("config")
    common(p)
    p = sub.add_parser("compare", help="chain interleaving verdict")
    p.add_argument("config_a")
    p.add_argument("config_b")
    common(p)
    p = sub.add_parser("code", help="orbit-coding refinement chain")
    p.add_argument("config")
    common(p)
    p = sub.add_parser("holonomy", help="germ depth of a stabilizing word")
    p.add_argument("config")
    p.add_argument("--word", required=True)
    p.add_argument("--at", required=True, dest="address")
    common(p)
    p = sub.add_parser("measure", help="invariant measure with exact verification")
    p.add_argument("config")
    common(p)
    return parser


def run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    report = Report(__version__, args.command)

    if args.command == "compare":
        cfg_a = _apply_overrides(_load_config(args.config_a), args)
        cfg_b = _apply_overrides(_load_config(args.config_b), args)
        report.add("config_a", args.config_a)
        report.add("config_b", args.config_b)
        _params_section(report, cfg_a, cfg_a.depth)
        cmd_compare(cfg_a, cfg_b, report)
    else:
        cfg = _apply_overrides(_load_config(args.config), args)
        report.add("config", args.config)
        chain, depth = _chain_for(cfg) if cfg.kind == "chain" else (None, cfg.depth)
        _params_section(report, cfg, depth)
        if args.command == "classify":
            cmd_classify(cfg, chain, report)
        elif args.command == "code":
            cmd_code(cfg, chain, report)
        elif args.command == "holonomy":
            cmd_holonomy(cfg, chain, args.word, args.address, report)
        elif args.command == "measure":
            cmd_measure(cfg, chain, report)

    elapsed_ms = (time.monotonic() - started) * 1000
    text = report.render(timing_ms=elapsed_ms)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise StructureError(f"cannot write report {args.out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(argv)
    except CantordynError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
