"""Deterministic structured text reports: nested `key: value` lines.

Two-space indentation, fixed key order, canonical numerals.  Identical
inputs produce byte-identical reports; the trailing timing line is the only
nondeterministic field and is excluded from comparisons.
"""

from fractions import Fraction

SCHEMA_VERSION = 1
TIMING_KEY = "timing_ms"


def format_value(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return " ".join(format_value(v) for v in value)
    return str(value)


_SECTION = object()


class Report:
    """Accumulates (indent, key, value) lines and renders them."""

    def __init__(self, tool_version, command):
        self.lines = []
        self.add("schema_version", SCHEMA_VERSION)
        self.add("tool", f"cantordyn {tool_version}")
        self.add("command", command)

    def add(self, key, value=_SECTION, indent=0):
        self.lines.append((indent, str(key), value))

    def section(self, key, indent=0):
        self.add(key, _SECTION, indent)

    def render(self, timing_ms=None):
        out = []
        for indent, key, value in self.lines:
            prefix = "  " * indent
            if value is _SECTION:
                out.append(f"{prefix}{key}:")
            else:
                out.append(f"{prefix}{key}: {format_value(value)}")
        if timing_ms is not None:
            out.append(f"{TIMING_KEY}: {int(timing_ms)}")
        return "\n".join(out) + "\n"


def strip_timing(text):
    """The comparison region of a rendered report: everything but timing."""
    return "\n".join(
        line for line in text.splitlines() if not line.startswith(TIMING_KEY + ":")
    )
