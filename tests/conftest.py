"""Pytest hooks: print one pass/fail line per acceptance criterion, and the
Hypothesis profile every property test runs under."""

from hypothesis import settings

# Derandomized, with a fixed example count: each run checks the same inputs
# in a bounded time, and no example database is written.
settings.register_profile(
    "tier1", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("tier1")

CRITERION_LINES = []


def record_criterion(number, label, elapsed, status="PASS"):
    """One line for a criterion: PASS, FAIL, or SKIP when its test is
    skipped."""
    CRITERION_LINES.append(
        f"[{status}] criterion {number}: {label} ({elapsed:.2f} s)"
    )


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)
