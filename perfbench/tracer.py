"""Run one cantordyn CLI command with spans around the program's layer functions.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_JSON -- <cantordyn arguments>

The wrappers are installed from outside the program, at every module binding
of each function in SPANNED, so `cli.is_distal` and `coding.modulus_table` are
traced as well as `action.is_distal`.  Spans (name, start, end, parent) stay in
memory and are written once, to SPANS_JSON, when the command ends.  The
command's report goes to stdout unchanged and the exit code is the CLI's.

Per-pair methods such as `CantorModel.distance` are deliberately not wrapped:
one `eta` computation calls them millions of times.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

# (module, attribute path, reported stats) of every traced function.  A name
# missing from the program is reported as absent, not as an error.
SPANNED = (
    ("affine", "coset_space", ("self_s", "calls", "cosets")),
    ("affine", "CosetSpace.index_of_element", ("self_s", "calls")),
    ("affine", "compose", ("calls",)),
    ("affine", "normal_core", ("self_s", "calls", "useful_frac")),
    ("affine", "conjugate", ("calls",)),
    ("affine", "subgroup_intersect", ("calls",)),
    ("affine", "subgroup_le", ("self_s", "calls")),
    ("affine", "is_normal", ("self_s",)),
    ("tower", "build_tower", ("self_s", "calls")),
    ("tower", "boundary_action", ("self_s", "calls")),
    ("tower", "mccord_verdict", ("self_s",)),
    ("tower", "subgroup_cylinder", ("self_s",)),
    ("tower", "interleave", ("self_s",)),
    ("action", "is_distal", ("self_s", "pair_words")),
    ("action", "modulus_table", ("self_s", "pairs")),
    ("action", "enumerate_word_perms", ("self_s", "perms")),
    ("action", "is_minimal", ("self_s",)),
    ("action", "invariant_measure", ("self_s",)),
    ("action", "pushforward_invariant", ("self_s",)),
    ("action", "germinal_holonomy", ("self_s",)),
    ("coding", "coding_chain", ("self_s", "levels", "escalations")),
    ("coding", "return_words", ("self_s", "calls")),
    ("coding", "refine_fixed_point", ("self_s",)),
    ("coding", "schreier_diameter", ("self_s",)),
    ("coding", "compute_V", ("self_s",)),
    ("coding", "translates", ("self_s",)),
    ("config", "parse_config", ("self_s",)),
    ("config", "Config.build_chain", ("self_s",)),
    ("config", "Config.build_action", ("self_s",)),
    ("report", "Report.render", ("self_s",)),
)


def _pair_count(action):
    n = len(action.model)
    return n * (n - 1) // 2


# Work counts derived from a call's arguments and result: name -> (stat, fn).
COUNTERS = {
    "affine.coset_space": ("cosets", lambda args, result: result.index),
    "action.modulus_table": (
        "pairs",
        lambda args, result: _pair_count(args[0]) * len(args[0].signed_tokens()),
    ),
    "action.is_distal": (
        "pair_words",
        lambda args, result: _pair_count(args[0]) * result.word_count,
    ),
    "action.enumerate_word_perms": ("perms", lambda args, result: len(result[0])),
    "coding.coding_chain": ("levels", lambda args, result: len(result.levels)),
}


class Tracer:
    """Span recorder; one instance per traced command."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name id, start, end, parent span index or -1]
        self.stack = []
        self.counts = {}
        self.absent = []

    def wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                stat, count = counter
                key = f"{name}.{stat}"
                try:
                    value = count(args, result)
                except (AttributeError, IndexError, TypeError):
                    # the program changed this call's shape: leave it uncounted
                    value = 0
                self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def install(self, package):
        """Replace each SPANNED function at every binding inside `package`."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for module_name, path, _ in SPANNED:
            name = f"{module_name}.{path}"
            owner = by_name.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path, argv, main_s):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "command": argv,
                    "main_s": main_s,
                    "names": self.names,
                    "spans": self.spans,
                    "counts": self.counts,
                    "absent": self.absent,
                },
                fh,
            )


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS_JSON -- <cantordyn arguments>\n")
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    import cantordyn
    from cantordyn import cli

    tracer = Tracer()
    tracer.install(cantordyn)
    start = time.perf_counter()
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.dump(spans_path, cli_argv, time.perf_counter() - start)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
