"""Pytest hooks: print one pass/fail line per acceptance criterion, and the
Hypothesis profiles the property tests run under."""

from hypothesis import settings

# Derandomized, with a fixed example count: each run checks the same inputs
# in a bounded time, and no example database is written.  `tier1` is the
# default; `pytest --hypothesis-profile deep` fuzzes the config boundary more
# deeply on the same terms.
settings.register_profile(
    "tier1", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.register_profile("deep", settings.get_profile("tier1"), max_examples=1000)


def pytest_configure(config):
    # a profile named on the command line is loaded by Hypothesis' own plugin
    if not config.getoption("hypothesis_profile", None):
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
