"""Line-oriented sectioned config: exact rationals, matrices, gallery refs.

Format: `[section]` headers with `key = value` lines; `#` starts a comment.
Numbers are integers or fractions written `p/q`; matrices are rows of
whitespace-separated entries joined by ` / `; affine maps are
`matrix ; vector`.  Parsing and canonical serialization round-trip exactly:
serializing a parsed config and reparsing is a fixed point.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import ParseError, StructureError

GALLERY_PARAM_KEYS = ("p", "depth", "k1", "free_factor")
PARAM_KEYS = ("depth", "words", "lambda", "seed")


def parse_fraction(text, line=None):
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            d = int(den)
            if d == 0:
                raise ParseError(f"fraction {text!r} has a zero denominator", line)
            return Fraction(int(num), d)
        return Fraction(int(text))
    except ValueError as exc:
        raise ParseError(f"expected an integer or fraction, got {text!r}", line) from exc


def parse_int(text, line=None):
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ParseError(f"expected an integer, got {text!r}", line) from exc


def parse_bool(text, line=None):
    value = str(text).strip().lower()
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ParseError(f"expected a boolean, got {text!r}", line)


def parse_matrix(text, line=None):
    """Rows separated by ' / ' (spaced); entries are integers."""
    rows = [r for r in text.split(" / ")]
    out = []
    for r in rows:
        entries = r.split()
        if not entries:
            raise ParseError("empty matrix row", line)
        out.append(tuple(parse_int(e, line) for e in entries))
    if len({len(r) for r in out}) != 1:
        raise ParseError("matrix rows have unequal lengths", line)
    return tuple(out)


def parse_affine(text, line=None):
    """`matrix ; vector` with fractional vector entries allowed."""
    if ";" not in text:
        raise ParseError("affine map needs 'matrix ; vector'", line)
    mat_text, vec_text = text.split(";", 1)
    mat = parse_matrix(mat_text.strip(), line)
    vec = tuple(parse_fraction(e, line) for e in vec_text.split())
    if len(vec) != len(mat):
        raise ParseError("affine vector length does not match the matrix", line)
    return mat, vec


def format_fraction(x):
    return str(Fraction(x))


def format_matrix(m):
    return " / ".join(" ".join(str(e) for e in row) for row in m)


def format_affine(mat, vec):
    return format_matrix(mat) + " ; " + " ".join(format_fraction(v) for v in vec)


# generators: (name, matrix, vector) triples; lattice: a matrix; reps:
# (matrix, vector) pairs
GroupSpec = namedtuple("GroupSpec", "dimension denominator generators")
LevelSpec = namedtuple("LevelSpec", "lattice reps")


class Config(
    namedtuple(
        "Config",
        "kind gallery gallery_params group levels depth words lam seed",
        defaults=(None, (), None, (), None, 8, Fraction(1, 2), 0),
    )
):
    """A parsed config.  `kind` is "chain" or "action"; `gallery_params`
    holds (key, value-string) pairs in canonical order."""

    __slots__ = ()

    def build_chain(self):
        from . import affine, tower

        if self.kind != "chain":
            raise StructureError("config does not describe a chain")
        if self.gallery:
            from . import gallery

            return gallery.build_chain(self.gallery, dict(self.gallery_params))
        group = affine.AffineGroup.from_generators(
            [
                (name, affine.AffineElement(mat, vec, self.group.denominator))
                for name, mat, vec in self.group.generators
            ],
            denom=self.group.denominator,
        )
        levels = []
        for i, spec in enumerate(self.levels, start=1):
            try:
                lattice = affine.hermite_normal_form(spec.lattice)
                reps = [
                    affine.AffineElement(mat, vec, self.group.denominator)
                    for mat, vec in spec.reps
                ]
                if not reps:
                    reps = [affine.identity_element(self.group.dimension, self.group.denominator)]
                levels.append(affine.subgroup_from_parts(lattice, reps))
            except StructureError as exc:
                raise StructureError(f"[level {i}]: {exc}") from exc
        try:
            return tower.SubgroupChain(group, levels, label="explicit chain")
        except StructureError as exc:
            raise StructureError(f"[level ...]: {exc}") from exc

    def build_action(self):
        if self.kind != "action":
            raise StructureError("config does not describe an action")
        from . import gallery

        params = dict(self.gallery_params)
        if self.depth is not None:
            params["depth"] = self.depth
        return gallery.build_action(self.gallery, params)


def parse_config(text):
    """Parse config text; errors carry line numbers and the offending section.

    A section or key given twice is an error at the second; only `rep` lines
    repeat."""
    sections = []  # (name, header line, [(line_no, key, value)])
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", line_no)
            name = stripped[1:-1].strip()
            if not name:
                raise ParseError("empty section name", line_no)
            current = (name, line_no, [])
            sections.append(current)
            continue
        if current is None:
            raise ParseError("entry before any section header", line_no)
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", line_no)
        key, value = stripped.split("=", 1)
        key = " ".join(key.split())
        if key != "rep" and any(k == key for _, k, _ in current[2]):
            raise ParseError(f"[{current[0]}]: duplicate key {key!r}", line_no)
        current[2].append((line_no, key, value.strip()))

    kind = None
    gallery_name = None
    gallery_params = []
    group = None
    level_specs = {}
    explicit = []  # (name, header line) of the [group] and [level N] sections
    sized = []  # (line, matrix) whose size must match the group dimension
    depth = None
    words = 8
    lam = Fraction(1, 2)
    seed = 0

    seen = set()
    for name, header, entries in sections:
        if name in seen:
            raise ParseError(f"duplicate section [{name}]", header)
        seen.add(name)
        if name in ("chain", "action"):
            if kind is not None:
                raise ParseError(f"duplicate top-level section [{name}]", header)
            kind = name
            for line_no, key, value in entries:
                if key == "gallery":
                    if not value:
                        raise ParseError(f"[{name}]: gallery needs a builder name", line_no)
                    gallery_name = value
                elif key == "free_factor":
                    flag = parse_bool(value, line_no)
                    gallery_params.append((key, "true" if flag else "false"))
                elif key in GALLERY_PARAM_KEYS:
                    gallery_params.append((key, str(parse_int(value, line_no))))
                else:
                    raise ParseError(f"[{name}]: unknown key {key!r}", line_no)
        elif name == "group":
            explicit.append((name, header))
            dim = denom = None
            gens = []
            for line_no, key, value in entries:
                if key == "dimension":
                    dim = parse_int(value, line_no)
                elif key == "denominator":
                    denom = parse_int(value, line_no)
                elif key.startswith("generator "):  # keys are whitespace-normalized
                    gname = key[len("generator "):]
                    mat, vec = parse_affine(value, line_no)
                    sized.append((line_no, mat))
                    gens.append((gname, mat, vec))
                else:
                    raise ParseError(f"[group]: unknown key {key!r}", line_no)
            if dim is None or denom is None or not gens:
                raise ParseError(
                    "[group]: needs dimension, denominator, and generators",
                    entries[0][0] if entries else None,
                )
            group = GroupSpec(dim, denom, tuple(gens))
        elif name.startswith("level"):
            try:
                idx = int(name.split()[1])
            except (IndexError, ValueError):
                raise ParseError(
                    f"section [{name}] must be '[level N]'",
                    entries[0][0] if entries else None,
                )
            if idx in level_specs:
                raise ParseError(f"duplicate section [level {idx}]", header)
            explicit.append((name, header))
            lattice = None
            reps = []
            for line_no, key, value in entries:
                if key == "lattice":
                    lattice = parse_matrix(value, line_no)
                    sized.append((line_no, lattice))
                elif key == "rep":
                    reps.append(parse_affine(value, line_no))
                    sized.append((line_no, reps[-1][0]))
                else:
                    raise ParseError(f"[{name}]: unknown key {key!r}", line_no)
            if lattice is None:
                raise ParseError(f"[{name}]: needs a lattice", entries[0][0] if entries else None)
            level_specs[idx] = LevelSpec(lattice, tuple(reps))
        elif name == "params":
            for line_no, key, value in entries:
                if key == "depth":
                    depth = parse_int(value, line_no)
                elif key == "words":
                    words = parse_int(value, line_no)
                    if words < 0:
                        raise ParseError("[params]: words must be nonnegative", line_no)
                elif key == "lambda":
                    lam = parse_fraction(value, line_no)
                    if not 0 < lam < 1:
                        raise ParseError("[params]: lambda must lie in (0,1)", line_no)
                elif key == "seed":
                    seed = parse_int(value, line_no)
                else:
                    raise ParseError(f"[params]: unknown key {key!r}", line_no)
        else:
            raise ParseError(f"unknown section [{name}]", None)

    if gallery_name is not None and explicit:
        name, header = explicit[0]
        raise ParseError(f"section [{name}] is ignored next to a gallery reference", header)
    if group is not None:
        for line_no, mat in sized:
            if len(mat) != group.dimension or len(mat[0]) != group.dimension:
                raise ParseError(
                    f"matrix is {len(mat)}x{len(mat[0])}, but [group] has "
                    f"dimension {group.dimension}",
                    line_no,
                )

    if kind is None and group is not None:
        kind = "chain"
    if kind is None:
        raise ParseError("config needs a [chain], [action], or [group] section", None)
    if kind == "action" and gallery_name is None:
        raise ParseError("[action]: needs a gallery reference", None)
    if kind == "chain" and gallery_name is None and group is None:
        raise ParseError("[chain]: needs a gallery reference or a [group] section", None)

    levels = ()
    if level_specs:
        expected = list(range(1, len(level_specs) + 1))
        if sorted(level_specs) != expected:
            raise ParseError("level sections must be numbered 1..n contiguously", None)
        levels = tuple(level_specs[i] for i in expected)
    if group is not None and not levels:
        raise ParseError("an explicit group needs at least one [level N] section", None)

    # canonical gallery-parameter order (a repeated key was refused above)
    gallery_params = [
        (k, v) for key in GALLERY_PARAM_KEYS for k, v in gallery_params if k == key
    ]

    return Config(
        kind=kind,
        gallery=gallery_name,
        gallery_params=tuple(gallery_params),
        group=group,
        levels=levels,
        depth=depth,
        words=words,
        lam=lam,
        seed=seed,
    )


def serialize_config(cfg):
    """Canonical text form: fixed section and key order, canonical numerals."""
    lines = []
    if cfg.gallery:
        lines.append(f"[{cfg.kind}]")
        lines.append(f"gallery = {cfg.gallery}")
        for key in GALLERY_PARAM_KEYS:
            for k, v in cfg.gallery_params:
                if k == key:
                    lines.append(f"{key} = {v}")
        lines.append("")
    if cfg.group is not None:
        lines.append("[group]")
        lines.append(f"dimension = {cfg.group.dimension}")
        lines.append(f"denominator = {cfg.group.denominator}")
        for name, mat, vec in cfg.group.generators:
            lines.append(f"generator {name} = {format_affine(mat, vec)}")
        lines.append("")
        for i, spec in enumerate(cfg.levels, start=1):
            lines.append(f"[level {i}]")
            lines.append(f"lattice = {format_matrix(spec.lattice)}")
            for mat, vec in spec.reps:
                lines.append(f"rep = {format_affine(mat, vec)}")
            lines.append("")
    lines.append("[params]")
    if cfg.depth is not None:
        lines.append(f"depth = {cfg.depth}")
    lines.append(f"words = {cfg.words}")
    lines.append(f"lambda = {format_fraction(cfg.lam)}")
    lines.append(f"seed = {cfg.seed}")
    lines.append("")
    return "\n".join(lines)
