"""Line-oriented sectioned config: exact rationals, matrices, gallery refs.

Format: `[section]` headers with `key = value` lines; `#` starts a comment.
Numbers are integers or fractions written `p/q`; matrices are rows of
whitespace-separated entries joined by ` / `; affine maps are
`matrix ; vector`.  Parsing and canonical serialization round-trip exactly:
serializing a parsed config and reparsing is a fixed point.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import ParseError, StructureError


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
    out = []
    for r in text.split(" / "):
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


def format_affine(affine_map):
    mat, vec = affine_map
    return format_matrix(mat) + " ; " + " ".join(format_fraction(v) for v in vec)


# A key of the format: its reader, (text, line) -> value; its writer, value ->
# canonical text; and an optional check on the value read, with the message a
# value failing it gets.
Key = namedtuple("Key", "read write check message", defaults=(str, None, None))

# The config format: each section kind's keys in canonical order.  `[chain]`
# and `[action]` are the kind `chain` and `[level N]` is `level`; the key
# `generator NAME` is `generator` and a name.  Only `rep` repeats.  A gallery
# parameter keeps its value's canonical text, which `str` leaves as it is.
FORMAT = {
    "chain": {
        "gallery": Key(lambda text, line: text, check=bool, message="gallery needs a builder name"),
        "p": Key(parse_int),
        "depth": Key(parse_int),
        "k1": Key(parse_int),
        "free_factor": Key(lambda text, line: str(parse_bool(text, line)).lower()),
    },
    "group": {
        "dimension": Key(parse_int),
        "denominator": Key(parse_int),
        "generator NAME": Key(parse_affine, format_affine),
    },
    "level": {"lattice": Key(parse_matrix, format_matrix), "rep": Key(parse_affine, format_affine)},
    "params": {
        "depth": Key(parse_int),
        "words": Key(parse_int, check=lambda n: n >= 0, message="words must be nonnegative"),
        "lambda": Key(
            parse_fraction, format_fraction, lambda x: 0 < x < 1, "lambda must lie in (0,1)"
        ),
        "seed": Key(parse_int),
    },
}
GALLERY_PARAM_KEYS = tuple(key for key in FORMAT["chain"] if key != "gallery")
PARAM_KEYS = tuple(FORMAT["params"])


def _table_key(key):
    """The table's spelling of a normalized key: `generator t1` is `generator NAME`."""
    head, _, name = key.partition(" ")
    return f"{head} NAME" if name else key


# generators: (name, matrix, vector) triples; reps: (matrix, vector) pairs
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
        if self.kind != "chain":
            raise StructureError("config does not describe a chain")
        if self.gallery:
            from . import gallery

            return gallery.build_chain(self.gallery, dict(self.gallery_params))
        from . import affine, tower

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
        from . import warp

        params = dict(self.gallery_params)
        if self.depth is not None:
            params["depth"] = self.depth
        return warp.build_action(self.gallery, params)


def _dispatch(kind, table, name, params):
    """The named builder of a gallery table (`gallery.CHAINS`, `warp.ACTIONS`)
    and its parameters over the defaults; a builder that is not in the table,
    or a parameter it would not read, is refused."""
    if name not in table:
        raise StructureError(f"unknown gallery {kind} {name!r}")
    builder, defaults = table[name]
    for key in params:
        if key not in defaults:
            raise StructureError(f"gallery {kind} {name!r} takes no parameter {key!r}")
    return builder, {**defaults, **params}


def _lex(text):
    """Config text as (name, header line, [(line, key, value)]) sections, with
    keys whitespace-normalized; a repeated key other than `rep` is refused."""
    sections = []
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
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
    return sections


def parse_config(text):
    """Parse config text; errors carry line numbers and the offending section.

    A section or key given twice is an error at the second; only `rep` lines
    repeat."""
    kind = gallery_name = group = None
    gallery_params, level_specs, params = (), {}, {}  # params: Config's fields, not defaults
    explicit = []  # (name, header line) of the [group] and [level N] sections
    stray = None  # (line, key, value) of the first gallery parameter with no gallery
    sized = []  # (line, matrix) whose size must match the group dimension
    seen = set()
    for name, header, entries in _lex(text):
        if name in seen:
            raise ParseError(f"duplicate section [{name}]", header)
        seen.add(name)
        section = "level" if name.split()[0] == "level" else "chain" if name == "action" else name
        if section not in FORMAT:
            raise ParseError(f"unknown section [{name}]", header)
        if section == "chain":
            if kind is not None:
                raise ParseError(f"duplicate top-level section [{name}]", header)
            kind = name
        elif section == "level":
            try:  # exactly two words, the second an integer
                _, number = name.split()
                idx = int(number)
            except ValueError as exc:
                raise ParseError(f"section [{name}] must be '[level N]'", header) from exc
            if idx in level_specs:
                raise ParseError(f"duplicate section [level {idx}]", header)
        if section in ("group", "level"):
            explicit.append((name, header))
        values = {}  # by table key; `generator NAME` and `rep` gather tuples
        for line_no, key, raw in entries:
            table_key = _table_key(key)
            spec = FORMAT[section].get(table_key)
            if spec is None:
                raise ParseError(f"[{name}]: unknown key {key!r}", line_no)
            value = spec.read(raw, line_no)
            if spec.check and not spec.check(value):
                raise ParseError(f"[{name}]: {spec.message}", line_no)
            if spec.read in (parse_matrix, parse_affine):
                sized.append((line_no, value if spec.read is parse_matrix else value[0]))
            if table_key == "generator NAME":
                value = (key[len("generator "):], *value)
            if table_key in ("generator NAME", "rep"):
                value = values.get(table_key, ()) + (value,)
            values[table_key] = value
        if section == "chain":
            gallery_name = values.get("gallery")
            gallery_params = tuple((k, str(values[k])) for k in GALLERY_PARAM_KEYS if k in values)
            stray = entries[0] if gallery_name is None and entries else None
        elif section == "group":
            if set(values) != set(FORMAT["group"]):  # every key of [group] is needed
                raise ParseError("[group]: needs dimension, denominator, and generators", header)
            group = GroupSpec(*(values[key] for key in FORMAT["group"]))
        elif section == "level":
            if "lattice" not in values:
                raise ParseError(f"[{name}]: needs a lattice", header)
            level_specs[idx] = LevelSpec(values["lattice"], values.get("rep", ()))
        else:
            params = {("lam" if key == "lambda" else key): value for key, value in values.items()}

    if gallery_name is not None and explicit:
        name, header = explicit[0]
        raise ParseError(f"section [{name}] is ignored next to a gallery reference", header)
    if group is not None:
        n = group.dimension
        for line_no, mat in sized:
            if (len(mat), len(mat[0])) != (n, n):
                message = f"matrix is {len(mat)}x{len(mat[0])}, but [group] has dimension {n}"
                raise ParseError(message, line_no)
    if kind is None and group is not None:
        kind = "chain"
    if kind is None:
        raise ParseError("config needs a [chain], [action], or [group] section", None)
    if kind == "action" and gallery_name is None:
        raise ParseError("[action]: needs a gallery reference", None)
    if kind == "chain" and gallery_name is None and group is None:
        raise ParseError("[chain]: needs a gallery reference or a [group] section", None)
    if stray:  # the [group] builds the chain, and no builder would read it
        raise ParseError(f"[chain]: parameter {stray[1]!r} needs a gallery reference", stray[0])
    if sorted(level_specs) != list(range(1, len(level_specs) + 1)):
        raise ParseError("level sections must be numbered 1..n contiguously", None)
    if group is not None and not level_specs:
        raise ParseError("an explicit group needs at least one [level N] section", None)
    levels = tuple(spec for _, spec in sorted(level_specs.items()))
    return Config(kind, gallery_name, gallery_params, group, levels, **params)


def serialize_config(cfg):
    """Canonical text form: fixed section order, the table's key order, and
    canonical numerals."""
    sections = []  # (header, section kind, [(key, value)])
    if cfg.gallery:
        sections.append((cfg.kind, "chain", [("gallery", cfg.gallery), *cfg.gallery_params]))
    if cfg.group is not None:
        gens = [(f"generator {name}", (mat, vec)) for name, mat, vec in cfg.group.generators]
        sizes = [("dimension", cfg.group.dimension), ("denominator", cfg.group.denominator)]
        sections.append(("group", "group", sizes + gens))
        for i, spec in enumerate(cfg.levels, start=1):
            reps = [("rep", rep) for rep in spec.reps]
            sections.append((f"level {i}", "level", [("lattice", spec.lattice), *reps]))
    params = {"depth": cfg.depth, "words": cfg.words, "lambda": cfg.lam, "seed": cfg.seed}
    sections.append(("params", "params", [(k, v) for k, v in params.items() if v is not None]))
    lines = []
    for header, kind, entries in sections:
        lines.append(f"[{header}]")
        for table_key, spec in FORMAT[kind].items():
            for key, value in entries:
                if _table_key(key) == table_key:
                    lines.append(f"{key} = {spec.write(value)}")
        lines.append("")
    return "\n".join(lines)
